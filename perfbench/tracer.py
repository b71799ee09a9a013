"""Outside-in span tracer for the hklattice modules.

The program is not modified. ``install`` replaces every public function of
the package at each module-level binding of the same object (``from
.exact_linalg import saturate_in`` makes a separate name in each importer,
and each must point at the same wrapper), and the methods of ``Lattice``,
``Mat`` and ``TorsionQuotient.__init__`` on their classes. Each call of a
wrapper records one span: name, start, end and parent. All spans of one
traced run share the run id, and each span carries the number of the
workload request it belongs to.

Spans are kept in typed arrays, about 30 bytes each, and written out by
``Tracer.dump`` once the workload has finished. Self time is a span's
duration minus the time its children cover; the children of a span never
overlap because the program is single-threaded, so that is the duration
minus the sum of the children's durations. The harness records its own
spans under the ``perfbench`` layer: the root span of the workload and
the counter probes, so the layers' self times add up to the root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array

PACKAGE = "hklattice"
ROOT = "perfbench.workload"
PROBE = "perfbench.counters"

# Methods wrapped on their classes in addition to the public ones.
CLASS_METHODS = {
    "Lattice": ("__eq__",),
    "Mat": ("__eq__", "__mul__"),
    "TorsionQuotient": ("__init__",),
}
PUBLIC_METHOD_CLASSES = ("Lattice", "Mat")

# Kernels whose integer inputs and outputs are measured in bits.
BIT_KERNELS = (
    "hnf",
    "hnf_transform",
    "smith_normal_form",
    "snf_diagonal",
    "det_bareiss",
    "row_echelon_bareiss",
)


def layer_of(module_name: str) -> str:
    """Layer name of a module: its last component, with the pure-Python
    kernel module reported as ``kernels`` (the backend selector re-exports
    its functions under that name)."""
    short = module_name.rsplit(".", 1)[-1]
    return "kernels" if short in ("_pykernels", "_speedups") else short


def max_bits(obj) -> int:
    """Largest bit length of any integer in a nest of lists and tuples."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, (list, tuple)):
        best = 0
        for x in obj:
            b = max_bits(x)
            if b > best:
                best = b
        return best
    return 0


class Tracer:
    """Span recorder. One instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_request = -1
        self.counters: dict[str, dict] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.request.append(self.current_request)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def wrap(self, fn, name: str, probe=None):
        """A wrapper that records one span per call of ``fn``.

        ``probe(args, kwargs, result)`` runs after the span closes, inside a
        span of its own in the harness layer, so counter work is never
        billed to the program.
        """
        ix = self.intern(name)
        name_a, parent_a, request_a = self.name, self.parent, self.request
        start_a, end_a, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start_a)
            name_a.append(ix)
            parent_a.append(stack[-1])
            request_a.append(self.current_request)
            end_a.append(0.0)
            stack.append(sid)
            start_a.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end_a[sid] = clock()
                stack.pop()
            if probe is not None:
                psid = self.open(PROBE)
                try:
                    probe(args, kwargs, out)
                finally:
                    self.close(psid)
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the package's public functions and the traced methods."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                src = getattr(obj, "__module__", "") or ""
                if not src.startswith(PACKAGE) or obj.__name__.startswith("_"):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    name = f"{layer_of(src)}.{obj.__name__}"
                    w = wrappers[id(obj)] = self.wrap(obj, name, self._probe_for(name))
                self._set(mod, attr, w)
        for mod in modules:
            for cls_name in CLASS_METHODS:
                cls = vars(mod).get(cls_name)
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                self._wrap_class(cls, layer_of(mod.__name__))

    def _wrap_class(self, cls, layer: str) -> None:
        names = set(CLASS_METHODS.get(cls.__name__, ()))
        if cls.__name__ in PUBLIC_METHOD_CLASSES:
            names.update(n for n in vars(cls) if not n.startswith("_"))
        for attr in sorted(names):
            raw = cls.__dict__.get(attr)
            name = f"{layer}.{cls.__name__}.{attr}"
            probe = self._probe_for(name)
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self.wrap(raw.__func__, name, probe)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(raw, name, probe))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    # -- counters ----------------------------------------------------------

    def _probe_for(self, name: str):
        layer, _, fn = name.partition(".")
        if layer == "kernels" and fn in BIT_KERNELS:
            c = self.counters[name] = {"max_bits_in": 0, "max_bits_out": 0}

            def bits(args, kwargs, out):
                c["max_bits_in"] = max(c["max_bits_in"], max_bits(args[0]))
                c["max_bits_out"] = max(c["max_bits_out"], max_bits(out))

            return bits
        if name == "exact_linalg.Mat.is_symmetric":
            return self._repeat_probe(name, lambda args: args[0])
        if name == "bb_lattice.orth_complement_basis":
            # an ExceptionalClass or an H2Class; both expose integer coords
            return self._repeat_probe(
                name, lambda args: tuple(getattr(args[0], "h2", args[0]).coords)
            )
        return None

    def _repeat_probe(self, name: str, key_of):
        """Count calls and distinct inputs (by value) of one function."""
        c = self.counters[name] = {"calls": 0, "distinct": 0}
        seen = set()

        def repeat(args, kwargs, out):
            key = key_of(args)
            c["calls"] += 1
            if key not in seen:
                seen.add(key)
                c["distinct"] += 1

        return repeat

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name and per-layer aggregates of the recorded spans.

        ``total_s`` counts only outermost calls of a name, so a function
        that reaches itself again is not counted twice.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, dict] = {}
        layers: dict[str, float] = {}
        name_of = self.names
        names = self.name
        # spans are numbered in call order, so replaying them rebuilds the
        # open-span stack; open[ix] counts open spans of name ix
        stack: list[int] = []
        open_ = [0] * len(name_of)
        for i in range(n):
            while stack and stack[-1] != parent[i]:
                open_[names[stack.pop()]] -= 1
            ix = names[i]
            nm = name_of[ix]
            rec = by_name.get(nm)
            if rec is None:
                rec = by_name[nm] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            rec["calls"] += 1
            s = dur[i] - child[i]
            rec["self_s"] += s
            if not open_[ix]:
                rec["total_s"] += dur[i]
            stack.append(i)
            open_[ix] += 1
            layer = nm.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s
        return {"spans": n, "by_name": by_name, "layers": layers}

    def dump(self, path: str) -> None:
        """Write the spans as gzip-compressed columnar JSON."""
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
