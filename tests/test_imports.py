"""Every name a module of the package or of the tests imports is used in
that module, and every public function, class and class member of the
package is read somewhere else in the package.

Read with ``ast``, nothing is imported. A name counts as used when it is
loaded anywhere in the module, listed in ``__all__``, or named inside a
string annotation such as ``-> "H4Class"``.

A module-level public function or class counts as read when it is loaded
somewhere in the package outside its own definition, in one of two ways:
as a bare name, in its own module or in a module that imports it (through
any chain of relative imports, as ``kernels`` re-exports ``_pykernels``);
or as ``mod.name`` for an imported package module ``mod``, as in
``kernels.hnf``. An attribute ``x.name`` of anything else is not a read of
the module-level ``name``, and neither is an import or an ``__all__`` entry.

A public method, property, classmethod or staticmethod of a package class,
and a public ``__slots__`` entry, counts as read when some attribute
``x.name`` is loaded in the package outside the member's own definition.
Dunders are not scanned. The scan does not know the type of ``x``, so two
classes that share a member name are both read when either is.
"""

import ast
from collections import Counter
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
    "exact_linalg.divisibility": "tests/test_acceptance.py reads it, and the "
    "acceptance criteria stay as they are",
}

# Public class members that nothing in the package reads, each kept for a reason.
UNREAD_MEMBERS_ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad argv",
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


def _relative_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Bound name -> ``(module, name)`` for each ``from .module import
    name``, and ``(module, None)`` for each ``from . import module``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                out[bound] = (node.module, alias.name) if node.module else (alias.name, None)
    return out


def _unread(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level public function or class that no
    module loads outside the definition itself."""
    imports = {mod: _relative_imports(tree) for mod, tree in trees.items()}
    defined = {
        mod: {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for mod, tree in trees.items()
    }

    def origin(mod, name):
        # follow re-exports to the module that defines the name
        while imports.get(mod, {}).get(name, (None, None))[1] is not None:
            mod, name = imports[mod][name]
        return mod, name

    reads = set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = (mod, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                key = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    bound = imports[mod].get(node.id)
                    if bound is not None and bound[1] is not None:
                        key = origin(mod, node.id)
                    elif bound is None and node.id in defined[mod]:
                        key = (mod, node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                ):
                    bound = imports[mod].get(node.value.id)
                    if bound is not None and bound[1] is None:
                        key = origin(bound[0], node.attr)
                if key is not None and key != own:
                    reads.add(key)
    return {
        f"{mod}.{name}"
        for mod, names in defined.items()
        for name in names
        if not name.startswith("_") and (mod, name) not in reads
    }


def _attribute_loads(node: ast.AST, name: str | None = None):
    return [
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and (name is None or n.attr == name)
    ]


def _unread_members(trees: dict[str, ast.Module]) -> set[str]:
    """``module.Class.member`` of each public method (property,
    classmethod, staticmethod) or ``__slots__`` entry of a module-level
    class that no attribute load reads outside the member's definition."""
    loads = Counter(a for tree in trees.values() for a in _attribute_loads(tree))
    out = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    if loads[stmt.name] == len(_attribute_loads(stmt, stmt.name)):
                        out.add(f"{mod}.{cls.name}.{stmt.name}")
                elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    for slot in stmt.value.elts:
                        if not slot.value.startswith("_") and not loads[slot.value]:
                            out.add(f"{mod}.{cls.name}.{slot.value}")
    return out


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
            "def divisibility(v): ...\n"
            "class L:\n"
            "    def divisibility(self, v): ...\n"
            "x = 0\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import imported, read\n"
            "def helper(x): return read(), a.Built(), x.divisibility(1)\n"
        ),
        "c": ast.parse("from .a import L as K\ndef again(): return K\n"),
        "d": ast.parse("from . import c\ndef twice(): return c.K(), c.again()\n"),
    }
    assert _unread(trees) == {"a.imported", "a.exported", "a.recursive", "a.divisibility", "d.twice"}


def test_every_public_member_of_the_package_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_members(trees)
    assert not unread - set(UNREAD_MEMBERS_ALLOWED), (
        "public class members that nothing in src/hklattice reads; delete them "
        f"or give them a caller: {sorted(unread - set(UNREAD_MEMBERS_ALLOWED))}"
    )
    assert not set(UNREAD_MEMBERS_ALLOWED) - unread, (
        "allowed as unread but now read or gone: "
        f"{sorted(set(UNREAD_MEMBERS_ALLOWED) - unread)}"
    )


def test_the_scan_sees_an_unread_member():
    trees = {
        "a": ast.parse(
            "class P:\n"
            "    __slots__ = ('used', 'unused', '_private')\n"
            "    def __init__(self):\n"
            "        self.used = self.unused = self._private = 0\n"
            "    def read(self): return self.used\n"
            "    def unread(self): return self.read()\n"
            "    def recursive(self): return self.recursive()\n"
            "    @property\n"
            "    def prop(self): return 1\n"
            "    @classmethod\n"
            "    def build(cls): return cls()\n"
            "    def _helper(self): ...\n"
            "    def __neg__(self): ...\n"
            "class Q:\n"
            "    def shared(self): ...\n"
            "class R:\n"
            "    def shared(self): ...\n"
        ),
        "b": ast.parse("def f(p): return p.prop, p.shared(), a.P.build\n"),
    }
    assert _unread_members(trees) == {"a.P.unused", "a.P.unread", "a.P.recursive"}
