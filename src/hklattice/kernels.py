"""The integer-matrix kernels, re-exported from ``hklattice._pykernels``.

The docstring of ``_pykernels`` is the one account of the kernels: which
the library calls and for what, and which have no library caller and stay
only for the benchmark's per-layer counters, the Smith kernels
``smith_normal_form`` and ``snf_diagonal`` among them.
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
