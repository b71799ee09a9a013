"""Compare the pure-Python and compiled kernel backends on the workloads
that dominate real verification runs.

Run as: python3 benchmarks/bench_kernels.py [--repeat N]

The inputs are the actual matrices the library builds (generator stacks,
quotient relation matrices, the double-cover comparison matrix), not
synthetic randoms, so the ratios reflect end-to-end behaviour.
"""

import argparse
import random
import time

from hklattice import _pykernels
from hklattice.deformation_fix import random_instance
from hklattice.exact_linalg import rational_nullspace
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
    from fractions import Fraction

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
        # the deformation solver's modular nullspace calls no kernel, so both
        # columns time the same code
        (
            "rational_nullspace 156x92 deformation",
            lambda m: rational_nullspace(def_rows, len(def_rows[0])),
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


if __name__ == "__main__":
    main()
