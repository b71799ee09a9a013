"""Every name a module of the package or of the tests imports is used in
that module, and every public function or class of the package is read
somewhere else in the package.

Read with ``ast``, nothing is imported. A name counts as used when it is
loaded anywhere in the module, listed in ``__all__``, or named inside a
string annotation such as ``-> "H4Class"``. A module-level public function
or class counts as read when its name is loaded, as a name or as an
attribute, somewhere in the package outside its own definition; an import
or an ``__all__`` entry is not a read.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hklattice"

# Public names of the package that nothing in it reads, each kept for a reason.
UNREAD_ALLOWED = {
    "_pykernels.det_bareiss": "the benchmark's kernels.det_bareiss.max_bits_in/out "
    "need a traced function of this name; without one the traced run finds "
    "no way to measure them",
    "_pykernels.row_echelon_bareiss": "the benchmark's "
    "kernels.row_echelon_bareiss.max_bits_in/out need a traced function of "
    "this name, as for det_bareiss",
    "bb_lattice.orth_complement_basis": "the benchmark's "
    "bb_lattice.orth_complement_basis.repeat_ratio counter needs it",
    "h4_model.monomial_pairs": "it is the frozen coordinate order of the "
    "degree-4 classes",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, except ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is not None and a.annotation is not None:
                    yield a.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return used


def _unread(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level public function or class that no
    module loads outside the definition itself."""
    loads: dict[str, int] = {}
    defs = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            name = _loaded(node)
            if name is not None:
                loads[name] = loads.get(name, 0) + 1
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                own = sum(1 for n in ast.walk(node) if _loaded(n) == node.name)
                defs.append((mod, node.name, own))
    return {f"{mod}.{name}" for mod, name, own in defs if loads.get(name, 0) == own}


def _loaded(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .a import B, C, D as E\n"
        "__all__ = ['C']\n"
        "def f(x: 'E') -> int:\n"
        "    return os.path.sep\n"
    )
    assert set(_imported(tree)) - _used(tree) == {"B"}


def test_every_public_name_of_the_package_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    unread = _unread(trees)
    assert not unread - set(UNREAD_ALLOWED), (
        "public names that nothing in src/hklattice reads; delete them or give "
        f"them a caller: {sorted(unread - set(UNREAD_ALLOWED))}"
    )
    assert not set(UNREAD_ALLOWED) - unread, (
        f"allowed as unread but now read or gone: {sorted(set(UNREAD_ALLOWED) - unread)}"
    )


def test_the_scan_sees_an_unread_name():
    trees = {
        "a": ast.parse(
            "from .b import helper\n"
            "__all__ = ['exported']\n"
            "def read(): return helper()\n"
            "def imported(): ...\n"
            "def exported(): ...\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _private(): ...\n"
            "class Built: ...\n"
            "x = 0\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import imported, read\n"
            "def helper(): return read(), a.Built()\n"
        ),
    }
    assert _unread(trees) == {"a.imported", "a.exported", "a.recursive"}
