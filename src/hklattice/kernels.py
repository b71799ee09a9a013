"""The integer-matrix kernels, re-exported from ``hklattice._pykernels``.

The library calls ``hnf``, ``hnf_transform``, ``snf_diagonal``,
``solve_plan``, ``solve_left_int_row`` and ``solve_content``. The last
three are lattice membership, integer coordinates and divisibility.
``solve_plan`` takes the sparse HNF rows a ``Lattice`` keeps and the
number of columns, once per lattice, and records which columns the
multi-entry rows touch (96 of 276 on the degree-4 lattice). The two solve
readers take that plan, integer numerators num and a multiplier a (the
target is a * num; a ``Lattice`` passes ``den / den(v)``), and share one
substitution of the multi-entry rows, one by one over their nonzeros, on
the touched columns alone, scaled by a; no scaled copy of the whole
target is built. The rows that hold only their pivot are then read in
bulk, one gather per side and one ``gcd`` test per pivot value: off the
touched columns the values are a * num, whose gcd is a times that of num.
``solve_left_int_row`` also divides them and puts the coordinates in row
order, for ``Lattice.contains``, ``Lattice.coords`` (``_coord_matrix``)
and the rational coordinates of ``saturate_in``. ``solve_content``
returns only the gcd of the coordinates, with no division pass and no
reordering, for every divisibility and for degree-4 membership:
``Lattice.divisibility`` and, through ``H4Lattice.contains``,
``H4Lattice.content`` and ``H4Lattice.divisibility``, the ``membership``
and ``divisibility`` queries, ``even_class_predicates`` and the cubic
suite's ``residual_integral_primitive``.
``hnf_transform`` has two callers: ``exact_linalg.left_kernel`` (every
saturated left kernel) and ``bb_lattice._orth_complement``, whose
transform of the complement Gram is both its inverse and the proof that it
is unimodular. ``hnf`` and ``hnf_transform`` share one Hermite reduction.
``snf_diagonal`` serves ``exact_linalg.quotient_invariants``; it returns
``smith_normal_form``, which is the Smith diagonal only (the benchmark's
per-layer counters trace both names). Saturation is congruences on the HNF
(``exact_linalg.saturate_in``) and the degree-4 torsion quotient is read
off a glue code, so the library needs no Smith transform: the transforms V
and V^-1 that the tests' Smith-form oracles ask for live in
``tests/oracles.py``.

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
    solve_content,
    solve_left_int_row,
    solve_plan,
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
    "solve_plan",
    "solve_left_int_row",
    "solve_content",
    "row_echelon_bareiss",
]
