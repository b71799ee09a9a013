"""Every name a module of the package or of the tests imports is used in
that module, every public function, class and class member of the package
is read somewhere else in the package, and every public helper of
``tests/oracles.py`` is read by a test module.

Read with ``ast``, nothing is imported. A name counts as used when it is
loaded anywhere in the module, listed in ``__all__``, or named inside a
string annotation such as ``-> "H4Class"``.

A module-level public function or class counts as read when it is loaded
somewhere in the scanned modules outside its own definition, in one of two
ways: as a bare name, in its own module or in a module that imports it
(through any chain of sibling imports, as ``kernels`` re-exports
``_pykernels``); or as ``mod.name`` for an imported sibling module
``mod``, as in ``kernels.hnf``. The siblings are the package's modules,
imported relatively, or the test modules, imported by name (``import
oracles``). An attribute ``x.name`` of anything else is not a read of the
module-level ``name``, and neither is an import or an ``__all__`` entry.

A public method, property, classmethod or staticmethod of a package class,
and a public ``__slots__`` entry, counts as read when some attribute
``x.name`` is loaded in the package outside the member's own definition.
Dunders are not scanned. When several package classes define ``name``, a
load counts for class C only when ``x`` is tied to C: ``self`` or ``cls``
in a method of C, the name of C or an import alias of it, ``mod.C``, a
parameter annotated with C, a call of a package function or of a method
of a tied receiver annotated ``-> C`` (``f(...).name``), a local last
assigned such a value, or an attribute ``y.slot`` with ``y`` tied to a
class whose ``__init__`` assigns ``self.slot`` only from a parameter
annotated with C or from a call of C (or of a function annotated
``-> C``). Any other load of a shared name credits no class,
and a member read only through such loads is named in
``SHARED_MEMBER_READERS`` with the package function that reads it; the
test checks that the function exists and loads the name.
"""

import ast
import json
from collections import defaultdict
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hklattice"
BENCHMARK = TESTS.parent / "BENCHMARK.json"

# Public names of the package that nothing in it reads, kept because a
# per-layer metric of the benchmark needs a traced function of the name: the
# name -> the metric, which BENCHMARK.json must still list.
BENCHMARK_COUNTERS = {
    "_pykernels.det_bareiss": "kernels.det_bareiss.max_bits_in",
    "_pykernels.row_echelon_bareiss": "kernels.row_echelon_bareiss.max_bits_in",
    "_pykernels.snf_diagonal": "kernels.snf_diagonal.max_bits_in",
    "bb_lattice.orth_complement_basis": "bb_lattice.orth_complement_basis.repeat_ratio",
}

# Public names that tests/test_acceptance.py imports from the package: the
# name -> its module, which the acceptance test must still import it from.
ACCEPTANCE_IMPORTS = {
    "exact_linalg.divisibility": "hklattice.exact_linalg",
    "h4_model.fujiki_with_product": "hklattice.h4_model",
}

# Public names of the package that nothing in it reads, each kept for a reason.
UNREAD_ALLOWED = {
    **{
        name: f"the benchmark's per-layer metric {metric} needs a traced "
        "function of this name"
        for name, metric in BENCHMARK_COUNTERS.items()
    },
    "h4_model.monomial_pairs": "it is the frozen coordinate order of the "
    "degree-4 classes",
    **{
        name: "tests/test_acceptance.py reads it, and the acceptance criteria "
        "stay as they are"
        for name in ACCEPTANCE_IMPORTS
    },
}

# Public class members that nothing in the package reads, each kept for a reason.
UNREAD_MEMBERS_ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad argv",
}

# Members whose name several package classes define, read only where the
# receiver is not tied to a class: the member -> the package function
# (``module.qualname``) that reads it.
SHARED_MEMBER_READERS = {
    "h4_model.H4Class.to_json": "cli.run_query",
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


def _sibling_imports(tree: ast.Module, siblings) -> dict[str, tuple[str, str | None]]:
    """Bound name -> ``(module, name)`` for each ``from .module import name``
    or ``from module import name`` of a sibling module, and ``(module,
    None)`` for each ``from . import module`` or ``import module``."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or node.level == 0 and node.module in siblings
        ):
            for alias in node.names:
                bound = alias.asname or alias.name
                out[bound] = (node.module, alias.name) if node.module else (alias.name, None)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in siblings:
                    out[alias.asname or alias.name] = (alias.name, None)
    return out


def _origin(imports, mod: str, name: str) -> tuple[str, str]:
    """``(module, name)`` of the definition that ``name`` in ``mod`` stands
    for, following re-exports."""
    while imports.get(mod, {}).get(name, (None, None))[1] is not None:
        mod, name = imports[mod][name]
    return mod, name


def _unread(trees: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level public function or class that no
    module loads outside the definition itself."""
    imports = {mod: _sibling_imports(tree, trees) for mod, tree in trees.items()}
    defined = {
        mod: {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for mod, tree in trees.items()
    }
    reads = set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = (mod, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                key = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    bound = imports[mod].get(node.id)
                    if bound is not None and bound[1] is not None:
                        key = _origin(imports, mod, node.id)
                    elif bound is None and node.id in defined[mod]:
                        key = (mod, node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                ):
                    bound = imports[mod].get(node.value.id)
                    if bound is not None and bound[1] is None:
                        key = _origin(imports, bound[0], node.attr)
                if key is not None and key != own:
                    reads.add(key)
    return {
        f"{mod}.{name}"
        for mod, names in defined.items()
        for name in names
        if not name.startswith("_") and (mod, name) not in reads
    }


def _public_members(cls: ast.ClassDef):
    """Each public method (property, classmethod, staticmethod) and public
    ``__slots__`` entry of a class."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name
        elif isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            yield from (e.value for e in stmt.value.elts if not e.value.startswith("_"))


def _class_names(mod: str, imports, classes) -> dict[str, tuple[str, str]]:
    """The module-level names of package classes in ``mod``, their own
    names and import aliases, each with its class ``(module, class)``."""
    names = {*imports[mod], *(c for m, c in classes if m == mod)}
    keys = {n: _origin(imports, mod, n) for n in names}
    return {n: key for n, key in keys.items() if key in classes}


def _annotated(ann, names):
    """The class a bare or string annotation names, or None."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    return names.get(ann.id) if isinstance(ann, ast.Name) else None


def _returns(trees: dict[str, ast.Module], imports, classes):
    """The package class that each function or method annotated ``-> C``
    returns: ``(module, function)`` or ``(module, class, method)`` -> C."""
    out = {}
    for mod, tree in trees.items():
        names = _class_names(mod, imports, classes)
        for stmt in tree.body:
            path, body = (mod,), [stmt]
            if isinstance(stmt, ast.ClassDef):
                path, body = (mod, stmt.name), stmt.body
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and fn.returns is not None:
                    key = _annotated(fn.returns, names)
                    if key is not None:
                        out[(*path, fn.name)] = key
    return out


def _slot_ties(trees: dict[str, ast.Module], imports, classes, returns):
    """The package class each attribute ``self.slot`` of a package class
    holds, when every assignment to it in ``__init__`` takes a parameter
    annotated with that class or a call of it (or of a package function
    annotated ``-> C``): ``(module, class, slot)`` -> C."""
    out = {}
    for (mod, cls), node in classes.items():
        names = _class_names(mod, imports, classes)
        init = next(
            (f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None
        )
        if init is None:
            continue
        self_arg, *params = init.args.posonlyargs + init.args.args + init.args.kwonlyargs
        env = {a.arg: _annotated(a.annotation, names) for a in params}
        ties = defaultdict(set)
        for stmt in ast.walk(init):
            if not isinstance(stmt, ast.Assign):
                continue
            value, tied = stmt.value, None
            if isinstance(value, ast.Name):
                tied = env.get(value.id)
            elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                key = _origin(imports, mod, value.func.id)
                tied = key if key in classes else returns.get(key)
            for t in stmt.targets:
                if isinstance(t, ast.Attribute) and getattr(t.value, "id", None) == self_arg.arg:
                    ties[t.attr].add(tied)
        out.update({(mod, cls, slot): t for slot, (t, *more) in ties.items() if t and not more})
    return out


def _member_loads(mod: str, tree: ast.Module, imports, classes, returns, slots):
    """``(name, tied, within)`` for each attribute load ``x.name`` of the
    module: ``tied`` is the package class ``(module, class)`` that ``x`` is
    tied to, or None, and ``within`` is the ``(module, class, member)``
    whose definition holds the load, or None. ``slots`` ties ``y.slot``
    to a class (``_slot_ties``) when ``y`` is tied to the slot's class."""
    top = _class_names(mod, imports, classes)

    def receiver(node, env):
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            bound = imports[mod].get(getattr(node.value, "id", None))
            if bound is not None and bound[1] is None:
                key = _origin(imports, bound[0], node.attr)
                return key if key in classes else None
            owner = receiver(node.value, env)
            return None if owner is None else slots.get((*owner, node.attr))
        if isinstance(node, ast.Call):
            # f(...), mod.f(...) or x.method(...) with x tied to a class
            f = node.func
            if isinstance(f, ast.Name):
                return returns.get(_origin(imports, mod, f.id))
            if isinstance(f, ast.Attribute):
                bound = imports[mod].get(getattr(f.value, "id", None))
                if bound is not None and bound[1] is None:
                    return returns.get(_origin(imports, bound[0], f.attr))
                owner = receiver(f.value, env)
                return None if owner is None else returns.get((*owner, f.attr))
        return None

    out = []

    def visit(node, env, within, owner=None):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, receiver(node.value, env), within))
        elif isinstance(node, ast.Assign):
            # a local takes the class of its value, or loses its tie
            for child in (node.value, *node.targets):
                visit(child, env, within)
            tied = receiver(node.value, env)
            env.update({t.id: tied for t in node.targets if isinstance(t, ast.Name)})
            return
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            env = {**env, **{a.arg: None for a in (args.vararg, args.kwarg) if a is not None}}
            env.update({a.arg: _annotated(a.annotation, top) for a in positional + args.kwonlyargs})
            if owner is not None and positional and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
            ):
                # self or cls
                env[positional[0].arg] = owner
        for child in ast.iter_child_nodes(node):
            visit(child, env, within)

    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            visit(stmt, dict(top), None)
            continue
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.FunctionDef):
                visit(node, top, (mod, stmt.name, node.name), (mod, stmt.name))
            else:
                visit(node, dict(top), None)
    return out


def _unread_members(trees: dict[str, ast.Module], readers=()) -> set[str]:
    """``module.Class.member`` of each public method (property,
    classmethod, staticmethod) or ``__slots__`` entry of a module-level
    class that no attribute load reads outside the member's definition. A
    load of a name that several classes define counts only for the class
    its receiver is tied to; each member named in ``readers`` counts as
    read."""
    imports = {mod: _sibling_imports(tree, trees) for mod, tree in trees.items()}
    classes = {
        (mod, node.name): node
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    owners = defaultdict(list)
    for key, node in classes.items():
        for name in _public_members(node):
            owners[name].append(key)
    read = {tuple(member.split(".")) for member in readers}
    returns = _returns(trees, imports, classes)
    slots = _slot_ties(trees, imports, classes, returns)
    for mod, tree in trees.items():
        for name, tied, within in _member_loads(mod, tree, imports, classes, returns, slots):
            holders = owners.get(name, [])
            key = holders[0] if len(holders) == 1 else tied if tied in holders else None
            if key is not None and (*key, name) != within:
                read.add((*key, name))
    return {
        f"{mod}.{cls}.{name}"
        for name, holders in owners.items()
        for mod, cls in holders
        if (mod, cls, name) not in read
    }


def _definition(trees: dict[str, ast.Module], qualname: str):
    """The function ``module.qualname`` of the scanned modules, or None."""
    mod, *path = qualname.split(".")
    node = trees.get(mod)
    for part in path:
        node = next(
            (
                n
                for n in getattr(node, "body", [])
                if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
            ),
            None,
        )
    return node if isinstance(node, ast.FunctionDef) else None


def _trees(paths) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(paths)}


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
    unread = _unread(_trees(PACKAGE.glob("*.py")))
    assert not unread - set(UNREAD_ALLOWED), (
        "public names that nothing in src/hklattice reads; delete them or give "
        f"them a caller: {sorted(unread - set(UNREAD_ALLOWED))}"
    )
    assert not set(UNREAD_ALLOWED) - unread, (
        f"allowed as unread but now read or gone: {sorted(set(UNREAD_ALLOWED) - unread)}"
    )


def test_the_allowlists_hold_their_reasons():
    metrics = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    for name, metric in BENCHMARK_COUNTERS.items():
        assert metric in metrics, (
            f"the benchmark no longer lists {metric}: move {name} out of src/ "
            "(to tests/oracles.py if a test needs it) and drop its allowlist entry"
        )
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text())
    for name, module in ACCEPTANCE_IMPORTS.items():
        assert any(
            isinstance(node, ast.ImportFrom)
            and node.module == module
            and any(alias.name == name.rsplit(".", 1)[1] for alias in node.names)
            for node in acceptance.body
        ), f"tests/test_acceptance.py no longer imports {name}"


def test_every_oracle_has_a_test_reader():
    unread = sorted(n for n in _unread(_trees(TESTS.glob("*.py"))) if n.startswith("oracles."))
    assert not unread, f"oracle helpers that no test reads; delete them or test with them: {unread}"


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
        # sibling modules imported by name, as the tests import oracles
        "e": ast.parse("import d\nfrom c import again\ndef thrice(): return d.twice(), again\n"),
    }
    assert _unread(trees) == {"a.imported", "a.exported", "a.recursive", "a.divisibility", "e.thrice"}


def test_every_public_member_of_the_package_is_read():
    unread = _unread_members(_trees(PACKAGE.glob("*.py")), SHARED_MEMBER_READERS)
    assert not unread - set(UNREAD_MEMBERS_ALLOWED), (
        "public class members that nothing in src/hklattice reads; delete them "
        f"or give them a caller: {sorted(unread - set(UNREAD_MEMBERS_ALLOWED))}"
    )
    assert not set(UNREAD_MEMBERS_ALLOWED) - unread, (
        "allowed as unread but now read or gone: "
        f"{sorted(set(UNREAD_MEMBERS_ALLOWED) - unread)}"
    )


def test_each_shared_member_reader_reads_it():
    trees = _trees(PACKAGE.glob("*.py"))
    untied = _unread_members(trees)
    for member, reader in SHARED_MEMBER_READERS.items():
        assert member in untied, f"{member} is read through a tied receiver, or gone: drop its entry"
        fn = _definition(trees, reader)
        assert fn is not None, f"{reader}, the reader of {member}, is gone"
        name = member.rsplit(".", 1)[1]
        assert any(
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr == name
            for n in ast.walk(fn)
        ), f"{reader} no longer loads .{name}"


def test_the_scan_ties_a_slot_to_its_init_parameter_or_constructor():
    trees = {
        "a": ast.parse(
            "class P:\n    def shared(self): ...\n"
            "class Q:\n    def shared(self): ...\n"
            "class R:\n    def shared(self): ...\n"
            "class S:\n    def shared(self): ...\n"
            "class T:\n    def shared(self): ...\n"
            "def make_t() -> T: ...\n"
            "class Holder:\n"
            "    __slots__ = ('p', 'q', 'r', 's', 't')\n"
            "    def __init__(self, p: P, r, s: 'S'):\n"
            "        self.p = p\n"
            "        self.q = Q()\n"
            "        self.r = r\n"
            "        self.s = s\n"
            "        self.s = P()\n"
            "        self.t = make_t()\n"
            "    def read(self):\n"
            "        return self.p.shared(), self.q.shared(), self.r.shared(), self.s.shared()\n"
        ),
        "b": ast.parse(
            "from .a import Holder\n"
            "def f(h: Holder): return h.p, h.q, h.r, h.s, h.read(), h.t.shared()\n"
        ),
    }
    # R's slot comes from an unannotated parameter, S's from two classes
    assert _unread_members(trees) == {"a.R.shared", "a.S.shared"}


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
            "class S:\n"
            "    def shared(self): ...\n"
            "    def again(self): return self.shared()\n"
            "class T:\n"
            "    def shared(self): ...\n"
            "class U:\n"
            "    def shared(self): ...\n"
            "    def twin(self) -> 'V': ...\n"
            "class V:\n"
            "    def shared(self): ...\n"
            "class W:\n"
            "    def shared(self): ...\n"
            "class X:\n"
            "    def shared(self): ...\n"
            "def make() -> 'U': ...\n"
            "def make_w() -> W: ...\n"
            "def make_x() -> X: ...\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import Q as K, make\n"
            "def f(p, q: 'K'):\n"
            "    return p.prop, p.shared(), p.again(), q.shared(), a.P.build, a.T.shared\n"
            "def h(p):\n"
            "    u = make()\n"
            "    x = a.make_x()\n"
            "    x = p\n"
            "    return u.shared(), u.twin().shared(), a.make_w().shared, x.shared()\n"
        ),
    }
    unread = {"a.P.unused", "a.P.unread", "a.P.recursive", "a.X.shared"}
    assert _unread_members(trees) == {*unread, "a.R.shared"}
    assert _unread_members(trees, {"a.R.shared": "b.f"}) == unread
    assert _definition(trees, "b.f") is not None and _definition(trees, "a.S.again") is not None
    assert _definition(trees, "a.S") is None and _definition(trees, "b.g") is None
