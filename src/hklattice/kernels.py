"""Backend selection for the integer matrix kernels.

Imports the compiled extension ``hklattice._speedups`` when it is available
and falls back to the pure-Python twin otherwise. Set the environment
variable ``HKLATTICE_PURE_PYTHON=1`` to force the fallback (useful for
debugging and for benchmarking the two backends against each other).

``IMPLEMENTATION`` names the active backend ("compiled" or "python").
Both modules stay importable as ``hklattice._pykernels`` and, when built,
``hklattice._speedups``, so parity tests can compare them directly.

The library calls ``hnf``, ``hnf_transform``, ``snf_diagonal`` and
``solve_left_int_row`` (lattice membership and coordinates).
``hnf_transform`` has two callers: ``exact_linalg.left_kernel`` (every
saturated left kernel) and ``h4_model._inverse_int_symmetric``.
``snf_diagonal`` serves ``exact_linalg.quotient_invariants``. Saturation is
``exact_linalg.saturation_int`` (congruences on the HNF) and the degree-4
torsion quotient is read off a glue code, so ``smith_normal_form`` with its
transforms has no library caller. Neither have ``det_bareiss``,
``pivot_columns`` and ``row_echelon_bareiss``: determinants are
``exact_linalg.det_int``, pivots are read off the sparse basis rows and
nullspaces are ``rational_nullspace``. They stay as the tests' dense
references and for the benchmark's per-layer trace.
"""

from __future__ import annotations

import os

from . import _pykernels

_backend = _pykernels
IMPLEMENTATION = "python"

if not os.environ.get("HKLATTICE_PURE_PYTHON"):
    try:
        from . import _speedups as _backend_ext
    except ImportError:
        pass
    else:
        _backend = _backend_ext
        IMPLEMENTATION = "compiled"

hnf = _backend.hnf
hnf_transform = _backend.hnf_transform
pivot_columns = _backend.pivot_columns
smith_normal_form = _backend.smith_normal_form
snf_diagonal = _backend.snf_diagonal
det_bareiss = _backend.det_bareiss
solve_left_int_row = _backend.solve_left_int_row
row_echelon_bareiss = _backend.row_echelon_bareiss

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
