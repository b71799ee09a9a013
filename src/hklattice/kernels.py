"""The integer-matrix kernels, re-exported from ``hklattice._pykernels``.

The library calls ``hnf``, ``hnf_transform``, ``snf_diagonal`` and
``solve_left_int_row`` (lattice membership and coordinates).
``hnf_transform`` has two callers: ``exact_linalg.left_kernel`` (every
saturated left kernel) and ``bb_lattice._orth_complement``, whose
transform of the complement Gram is both its inverse and the proof that it
is unimodular. ``hnf`` and ``hnf_transform`` share one Hermite reduction.
``snf_diagonal`` serves ``exact_linalg.quotient_invariants``. Saturation is
``exact_linalg.saturation_int`` (congruences on the HNF) and the degree-4
torsion quotient is read off a glue code, so ``smith_normal_form`` with its
transforms has no library caller. Neither have ``det_bareiss``,
``pivot_columns`` and ``row_echelon_bareiss``: determinants are
``exact_linalg.det_int``, pivots are read off the sparse basis rows and
the one nullspace, the deformation kernel, is certified by
``exact_linalg.certified_kernel``. They stay as the tests' dense
references and for the benchmark's per-layer trace.
"""

from __future__ import annotations

from ._pykernels import (
    det_bareiss,
    hnf,
    hnf_transform,
    pivot_columns,
    row_echelon_bareiss,
    smith_normal_form,
    snf_diagonal,
    solve_left_int_row,
)

# perfbench stamps this on every record and accepts only "python"
IMPLEMENTATION = "python"

__all__ = [
    "IMPLEMENTATION",
    "hnf",
    "hnf_transform",
    "pivot_columns",
    "smith_normal_form",
    "snf_diagonal",
    "det_bareiss",
    "solve_left_int_row",
    "row_echelon_bareiss",
]
