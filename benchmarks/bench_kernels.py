"""Compare the pure-Python and compiled kernel backends on the workloads
that dominate real verification runs, and time the library's Smith-free
routes against the Smith-form routes they replace.

Run as: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeat N]

The inputs are the actual matrices the library builds (generator stacks,
quotient relation matrices, the double-cover comparison matrix, the
coordinate rows ``saturate_in`` hands to ``saturation_int`` during
``verify all --seed 7``, the 420x232 system of the 21-variable deformation
instance), not synthetic randoms, so the ratios reflect end-to-end
behaviour.
"""

import argparse
import contextlib
import io
import random
import time

from hklattice import _pykernels, cli, deformation_fix, exact_linalg
from hklattice.deformation_fix import random_instance, solve_fixed_space
from hklattice.exact_linalg import (
    _echelon_mod,
    _nullspace_primes,
    _sparse_rows,
    rational_nullspace,
    saturation_int,
)
from hklattice.h4_model import default_h4_lattice, double_cover_sym2_matrix

try:
    from hklattice import _speedups
except ImportError:
    _speedups = None


def _lattice_generator_stack():
    h4 = default_h4_lattice()
    den = h4.lattice.den
    return [[int(x * den) for x in r] for r in h4.lattice.basis_rows()]


def _raw_generator_stack():
    # the ~300-row stack build_h4_lattice reduces: monomials, half products,
    # and the point class, cleared to integers
    from hklattice.bb_lattice import ExceptionalClass, H2Class, delta0
    from hklattice.h4_model import AMBIENT, half_product_class

    h4 = default_h4_lattice()
    d = ExceptionalClass(delta0())
    rows = [[20 if i == j else 0 for j in range(AMBIENT)] for i in range(AMBIENT)]
    for k in range(23):
        v = half_product_class(d, H2Class.basis_vector(k))
        rows.append([int(20 * x) for x in v.coords()])
    rows.append([int(20 * x) for x in h4.v0.coords()])
    return rows


def _double_cover_rows():
    return double_cover_sym2_matrix().int_rows()


def _deformation_rows(n=13, seed=2):
    # rebuild the raw constraint matrix of the deformation solver
    from hklattice.deformation_fix import polarization_kernel

    inst = random_instance(random.Random(seed), n)
    mus = polarization_kernel(inst)
    cols = n * (n + 1) // 2 + 1
    pos = {}
    k = 0
    for i in range(n):
        for j in range(i, n):
            pos[(i, j)] = k
            k += 1
    rows = []
    for mu in mus:
        amu = [
            sum(int(inst.A[(i, j)]) * mu[j] for j in range(n)) for i in range(n)
        ]
        for r in range(n):
            coeffs = [0] * cols
            coeffs[-1] = mu[r]
            for kk in range(n):
                key = (min(r, kk), max(r, kk))
                coeffs[pos[key]] -= 2 * amu[kk]
            rows.append(coeffs)
    return rows


def _saturation_inputs():
    """The rows ``saturate_in`` passes to ``saturation_int`` in one
    ``verify all --seed 7`` run."""
    seen = []
    real = exact_linalg.saturation_int

    def record(rows):
        seen.append([list(r) for r in rows])
        return real(rows)

    exact_linalg.saturation_int = record
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "all", "--seed", "7", "--json"])
    finally:
        exact_linalg.saturation_int = real
    return seen


def _full_deformation_rows():
    """The 420x232 system ``solve_fixed_space`` builds for a 21-variable
    instance, as it reaches ``rational_nullspace``."""
    seen = []
    real = deformation_fix.rational_nullspace

    def record(rows, ncols):
        seen.append((rows, ncols))
        return real(rows, ncols)

    deformation_fix.rational_nullspace = record
    try:
        solve_fixed_space(random_instance(random.Random(7), 21))
    finally:
        deformation_fix.rational_nullspace = real
    return seen[0]


def _smith_saturation(mod, rows):
    """The Smith route saturation_int replaced: the first rank rows of V^-1."""
    diag, _, vinv = mod.smith_normal_form(rows, want_vinv=True)
    return vinv[: sum(1 for d in diag if d)]


def _time(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=1)
    args = ap.parse_args()

    gen_stack = _lattice_generator_stack()
    raw_stack = _raw_generator_stack()
    dc_rows = _double_cover_rows()
    def_rows = _deformation_rows()

    cases = [
        ("hnf 300x276 raw generators", lambda m: m.hnf([row[:] for row in raw_stack])),
        (
            "hnf_transform 300x276 raw generators",
            lambda m: m.hnf_transform([row[:] for row in raw_stack]),
        ),
        (
            "snf_diagonal 276x276 reduced basis",
            lambda m: m.snf_diagonal([row[:] for row in gen_stack]),
        ),
        ("det_bareiss 276x276 double cover", lambda m: m.det_bareiss(dc_rows)),
        (
            "row_echelon 156x92 deformation",
            lambda m: m.row_echelon_bareiss([row[:] for row in def_rows]),
        ),
    ]

    backends = [("python", _pykernels)]
    if _speedups is not None:
        backends.append(("compiled", _speedups))
    else:
        print("compiled extension not built; timing pure backend only\n")

    width = max(len(name) for name, _ in cases)
    header = f"{'workload':<{width}}  " + "".join(f"{n:>12}" for n, _ in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for name, fn in cases:
        times = []
        for _, mod in backends:
            times.append(_time(lambda m=mod: fn(m), args.repeat))
        line = f"{name:<{width}}  " + "".join(f"{t:>11.3f}s" for t in times)
        if len(times) == 2 and times[1] > 0:
            line += f"{times[0] / times[1]:>9.1f}x"
        print(line)

    # the library's Smith-free routes call no kernel but hnf, so they are
    # timed once, against the Smith routes on each backend
    sat_inputs = _saturation_inputs()
    full_rows, full_cols = _full_deformation_rows()
    sparse = _sparse_rows(full_rows)
    p = next(_nullspace_primes())
    routes = [
        (
            f"saturation_int, {len(sat_inputs)} verify-all inputs",
            lambda: [saturation_int(r) for r in sat_inputs],
        ),
    ]
    routes += [
        (
            f"  Smith route ({name}), same inputs",
            lambda m=mod: [_smith_saturation(m, r) for r in sat_inputs],
        )
        for name, mod in backends
    ]
    routes += [
        (
            f"rational_nullspace {len(full_rows)}x{full_cols} deformation",
            lambda: rational_nullspace(full_rows, full_cols),
        ),
        (
            "  one _echelon_mod of the same rows",
            lambda: _echelon_mod(sparse, p),
        ),
    ]
    print()
    width = max(len(name) for name, _ in routes)
    print(f"{'library route':<{width}}  {'time':>11}")
    print("-" * (width + 13))
    for name, fn in routes:
        print(f"{name:<{width}}  {_time(fn, args.repeat):>10.3f}s")


if __name__ == "__main__":
    main()
