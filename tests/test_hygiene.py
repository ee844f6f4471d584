"""Source hygiene, by stdlib-ast checks.

No module of the package imports a name it never uses.  A name counts as
used when it is loaded anywhere in the module (the base of an attribute
access included) or appears in a string annotation.  ``from __future__``
imports are exempt.

Every function the traced benchmark wraps (``SPANS`` in perfbench/spans.py)
still exists, so a rename or a deletion fails here before it crashes a
``run.py --trace 1`` run.  spans.py is parsed, not imported.
"""

import ast
import pathlib

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
