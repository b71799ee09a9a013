"""The integer-matrix kernels, re-exported from ``hklattice._pykernels``.

The library calls ``hnf``, ``hnf_transform``, ``snf_diagonal`` and
``solve_left_int_row``. The last is lattice membership, integer
coordinates and divisibility: a forward substitution that walks the sparse
HNF rows a ``Lattice`` keeps, nonzeros only.
``hnf_transform`` has two callers: ``exact_linalg.left_kernel`` (every
saturated left kernel) and ``bb_lattice._orth_complement``, whose
transform of the complement Gram is both its inverse and the proof that it
is unimodular. ``hnf`` and ``hnf_transform`` share one Hermite reduction.
``snf_diagonal`` serves ``exact_linalg.quotient_invariants``; it is the
diagonal of ``smith_normal_form``, whose transforms V and V^-1 only the
tests' Smith-form oracles ask for. Saturation is congruences on the HNF
(``exact_linalg.saturate_in``) and the degree-4 torsion quotient is read
off a glue code, so no Smith transform is needed.

``det_bareiss`` and ``row_echelon_bareiss`` have no library caller:
determinants are ``exact_linalg.det_int`` and the one nullspace, the
deformation kernel, is certified by ``exact_linalg.certified_kernel``. They
stay only for the benchmark's per-layer bit counters
(``kernels.det_bareiss.max_bits_*`` and
``kernels.row_echelon_bareiss.max_bits_*``), which need a traced function
of each name; the tests also use them as dense references.
"""

from __future__ import annotations

from ._pykernels import (
    det_bareiss,
    hnf,
    hnf_transform,
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
    "smith_normal_form",
    "snf_diagonal",
    "det_bareiss",
    "solve_left_int_row",
    "row_echelon_bareiss",
]
