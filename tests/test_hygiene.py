"""Source hygiene, by stdlib-ast checks.

No module of the package imports a name it never uses.  A name counts as
used when it is loaded anywhere in the module (the base of an attribute
access included) or appears in a string annotation.  ``from __future__``
imports are exempt.

Every function the traced benchmark wraps (``SPANS`` in perfbench/spans.py)
still exists, so a rename or a deletion fails here before it crashes a
``run.py --trace 1`` run.  spans.py is parsed, not imported.

Every top-level function of the package is called from inside src, unless
it is an entry point that the benchmark's workloads call or is listed as
kept; so API that only tests call shows up here.

Importing the package builds none of the tables its numeric routes fill on
first use, so that work stays out of the benchmark's setup_s.

Only numerics names the guard digits GUARD_DPS, so no caller can add a
second guard on top of the one numerics.guarded adds.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "p1torsion"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for every import in the module, nested ones too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_check_catches_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional\n"
                     "def f(x: 'Optional[int]'):\n    return x\n")
    used = _used_names(tree)
    assert [name for name, _ in _imported_names(tree)
            if name not in used] == ["os"]


def _spans():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SPANS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no SPANS list")


def _top_level_names(body):
    """Names a module or class body binds: defs, classes, assignments and
    imports."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                              ast.Name):
            names[node.target.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node
    return names


def test_traced_spans_resolve():
    spans = _spans()
    assert spans
    missing = []
    for module, attr, _ in spans:
        path = SRC / f"{module}.py"
        if not path.exists():
            missing.append(f"{module} (no module)")
            continue
        names = _top_level_names(ast.parse(path.read_text()).body)
        owner, _, method = attr.partition(".")
        node = names.get(owner)
        if method and isinstance(node, ast.ClassDef):
            node = _top_level_names(node.body).get(method)
        if node is None:
            missing.append(f"{module}.{attr}")
    assert not missing, "perfbench/spans.py wraps missing names: " + \
        ", ".join(missing)



# Top-level functions that no module under src calls but
# perfbench/workloads.py does.  cli.main, the acceptance checks and the
# other public functions are called inside src, so they need no entry.
ENTRY_POINTS = {"torsion.i_class_direct", "torsion.i_class_value",
                "torsion.oscillatory_integral_sici"}
# Kept although only tests call it: the quadrature route of the Si/Ci
# closed form.
KEPT = {"torsion.oscillatory_integral_quad"}


def _referenced(node, skip=None):
    """Names loaded or accessed as attributes under node, and its string
    constants (getattr lookups), leaving out the name skip."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        else:
            continue
        if name != skip:
            yield name


def _is_plain_method(node) -> bool:
    """Whether a class-body node is a method other than a dunder or a
    property."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and not any(isinstance(d, ast.Name) and d.id == "property"
                        or isinstance(d, ast.Attribute) and d.attr == "setter"
                        for d in node.decorator_list))


def _uncalled_functions(sources):
    """module.function for every top-level function, and module.Class.method
    for every method of a top-level class but dunders and properties, in
    sources (module name -> source text) whose name no module refers to
    outside the function's own body."""
    defined, used = set(), set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_plain_method(item):
                        defined.add((module, f"{node.name}.{item.name}"))
                        used.update(_referenced(item, skip=item.name))
                    else:
                        used.update(_referenced(item))
                for part in node.bases + node.keywords + node.decorator_list:
                    used.update(_referenced(part))
                continue
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                defined.add((module, own))
            used.update(_referenced(node, skip=own))
    return {f"{module}.{name}" for module, name in defined
            if name.rpartition(".")[2] not in used}


def test_every_uncalled_function_is_an_entry_point():
    uncalled = _uncalled_functions({p.stem: p.read_text() for p in MODULES})
    stray = uncalled - ENTRY_POINTS - KEPT
    assert not stray, ("functions nothing under src calls; delete them or "
                       "list them as entry points: "
                       + ", ".join(sorted(stray)))
    stale = (ENTRY_POINTS | KEPT) - uncalled
    assert not stale, "listed but called under src: " + ", ".join(stale)


def test_entry_points_are_called_by_the_benchmark():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    called = set(_referenced(tree)) | {attr for _, attr, _ in _spans()}
    missing = [name for name in ENTRY_POINTS
               if name.partition(".")[2] not in called]
    assert not missing, "entry points nothing calls: " + ", ".join(missing)


def test_uncalled_check_sees_a_stray_function():
    source = ("def used():\n    return 1\n\n"
              "def stray():\n    return stray() + used()\n")
    assert _uncalled_functions({"m": source}) == {"m.stray"}


def test_uncalled_check_sees_a_stray_method():
    source = ("class C:\n"
              "    def __init__(self):\n        self.x = self.used()\n"
              "    def used(self):\n        return 1\n"
              "    def stray(self):\n        return self.stray()\n"
              "    @property\n    def size(self):\n        return 1\n")
    assert _uncalled_functions({"m": source}) == {"m.C.stray"}


# The tables of the numeric routes, each built on first use: the fixed-point
# registry (R^rot, the I-class series, bilateral_sum's shift-0 tail, the
# Euler-Maclaurin weights) and the Si/Ci Taylor sums; name -> expression
# for its size
TABLES = {"numerics._TABLES": "len(numerics._TABLES)",
          "specfun._sici_taylor": "specfun._sici_taylor.cache_info().currsize"}


def test_import_builds_no_table():
    script = (
        "import importlib\n"
        f"for name in {[p.stem for p in MODULES]!r}:\n"
        "    importlib.import_module('p1torsion.' + name)\n"
        "from p1torsion import numerics, specfun\n"
        + "".join(f"print({name!r}, {size})\n"
                  for name, size in TABLES.items()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    sizes = dict(line.split() for line in out.splitlines())
    assert sizes.keys() == TABLES.keys()
    built = [name for name, size in sizes.items() if size != "0"]
    assert not built, "tables built at import: " + ", ".join(built)


# The callers of the exact Bernoulli numbers: the exact layer, and
# hurwitz_zeta until the k >= 1 Lerch path that calls it goes (ROADMAP
# item 3).  The numeric routes take 2 zeta(2i) in their place.
BERNOULLI_CALLERS = {"specfun.zeta_neg", "series.build_inv_sin_half",
                     "chowring.todd_coefficients", "specfun.hurwitz_zeta"}


def _callers(sources, callee):
    """module.function (module.Class.method for a method) for every
    top-level function or method of a top-level class in sources (module
    name -> source text) that calls callee, by name or as an attribute;
    a call outside any function counts as module.<module> or
    module.Class.<class>."""
    found = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            name = getattr(node, "name", "<module>")
            members = [(name, node)]
            if isinstance(node, ast.ClassDef):
                members = [(f"{name}.{getattr(item, 'name', '<class>')}", item)
                           for item in node.body]
            for name, member in members:
                for sub in ast.walk(member):
                    if isinstance(sub, ast.Call) and callee in (
                            getattr(sub.func, "id", None),
                            getattr(sub.func, "attr", None)):
                        found.add(f"{module}.{name}")
    return found


def test_bernoulli_callers_are_pinned():
    callers = _callers({p.stem: p.read_text() for p in MODULES}, "bernoulli")
    assert callers == BERNOULLI_CALLERS
    assert _callers({"m": "class C:\n    def f(self):\n"
                          "        return s.bernoulli(2)\n"
                          "def g():\n    return bernoulli\n"},
                    "bernoulli") == {"m.C.f"}


def _writes_fixed_scale(tree) -> bool:
    """Whether the module forms prec + 20, the fixed-point scale that only
    numerics.fixed_bits may name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            sides = (node.left, node.right)
            if (any(isinstance(n, ast.Constant) and n.value == 20
                    for n in sides)
                    and any(isinstance(n, ast.Attribute) and n.attr == "prec"
                            or isinstance(n, ast.Name) and n.id == "prec"
                            for n in sides)):
                return True
    return False


def test_fixed_point_scale_has_one_name():
    writers = [p.name for p in MODULES if p.stem != "numerics"
               and _writes_fixed_scale(ast.parse(p.read_text()))]
    assert not writers, "prec + 20 outside numerics: " + ", ".join(writers)
    assert _writes_fixed_scale(ast.parse((SRC / "numerics.py").read_text()))
    assert _writes_fixed_scale(ast.parse("bits = mp.mp.prec + 20"))
    assert not _writes_fixed_scale(ast.parse("bits = fixed_bits()"))


def _names_guard_digits(tree) -> bool:
    """Whether the module names GUARD_DPS, which only numerics.guarded may
    add: by loading it, as an attribute, or by importing it."""
    return any(isinstance(node, ast.Name) and node.id == "GUARD_DPS"
               or isinstance(node, ast.Attribute) and node.attr == "GUARD_DPS"
               or isinstance(node, ast.alias) and node.name == "GUARD_DPS"
               for node in ast.walk(tree))


def test_guard_digits_have_one_name():
    namers = [p.name for p in MODULES if p.stem != "numerics"
              and _names_guard_digits(ast.parse(p.read_text()))]
    assert not namers, "GUARD_DPS outside numerics: " + ", ".join(namers)
    assert _names_guard_digits(ast.parse((SRC / "numerics.py").read_text()))
    assert _names_guard_digits(ast.parse("f(x, dps + GUARD_DPS)"))
    assert _names_guard_digits(ast.parse("f(x, dps + numerics.GUARD_DPS)"))
    assert _names_guard_digits(ast.parse(
        "from .numerics import GUARD_DPS as G"))
    assert not _names_guard_digits(ast.parse("f(x, dps)"))
