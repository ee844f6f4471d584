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


def _uncalled_functions(sources):
    """module.function for every top-level function in sources (module name
    -> source text) whose name no module refers to outside the function's
    own body."""
    defined, used = set(), set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = node.name
                defined.add((module, own))
            used.update(_referenced(node, skip=own))
    return {f"{module}.{name}" for module, name in defined
            if name not in used}


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


# The tables of the I-class routes and of bilateral_sum's tail, each built
# on first use; name -> expression for its size
TABLES = {"quadrature._ODD_TAILS": "len(quadrature._ODD_TAILS)",
          "torsion._I_CLASS_COEFFS": "len(torsion._I_CLASS_COEFFS)",
          "torsion._LOG_SUM_WEIGHTS": "len(torsion._LOG_SUM_WEIGHTS)",
          "specfun._em_coeff_fixed":
              "specfun._em_coeff_fixed.cache_info().currsize"}


def test_import_builds_no_table():
    script = (
        "import importlib\n"
        f"for name in {[p.stem for p in MODULES]!r}:\n"
        "    importlib.import_module('p1torsion.' + name)\n"
        "from p1torsion import quadrature, specfun, torsion\n"
        + "".join(f"print({name!r}, {size})\n"
                  for name, size in TABLES.items()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    sizes = dict(line.split() for line in out.splitlines())
    assert sizes.keys() == TABLES.keys()
    built = [name for name, size in sizes.items() if size != "0"]
    assert not built, "tables built at import: " + ", ".join(built)
