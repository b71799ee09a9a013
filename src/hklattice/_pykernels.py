"""Integer matrix kernels: Hermite and Smith reduction, fraction-free
elimination, triangular solving.

The library's only kernel implementation, in pure Python; callers import
it through ``hklattice.kernels``. Matrices are sequences of rows of Python
ints. Inputs are never mutated. Everything is exact: arbitrary-precision
integers only, no floating point, no modular shortcuts.

``det_bareiss``, ``pivot_columns``, ``row_echelon_bareiss`` and
``smith_normal_form`` serve only as dense test references (and as per-layer
trace points of the benchmark); the library uses the sparse, modular and
congruence routines of ``hklattice.exact_linalg`` instead, and
``snf_diagonal`` for quotient invariants.

Conventions
-----------
* ``hnf`` is row-style Hermite normal form: the returned rows span the same
  Z-module as the input rows, pivot entries are positive, entries above each
  pivot are reduced into [0, pivot), pivot columns strictly increase, zero
  rows are dropped. Two integer matrices have equal row span over Z exactly
  when their HNFs coincide. ``hnf`` and ``hnf_transform`` run one Hermite
  reduction; the second also records its row operations in a unimodular U.
* ``smith_normal_form`` returns the full diagonal (with trailing zeros on
  rank deficiency); nonzero entries are positive and each divides the next.
"""

from __future__ import annotations

__all__ = [
    "hnf",
    "hnf_transform",
    "pivot_columns",
    "smith_normal_form",
    "snf_diagonal",
    "det_bareiss",
    "solve_left_int_row",
    "row_echelon_bareiss",
]


def _copy(mat):
    return [list(row) for row in mat]


def _row_submul(row, prow, q, start, stop):
    # row -= q * prow on columns [start, stop)
    for c in range(start, stop):
        v = prow[c]
        if v:
            row[c] -= q * v


def _hermite(mat, want_u):
    """``(H, U, rank)`` for ``hnf`` and ``hnf_transform``. With ``want_u``,
    U starts as the m x m identity to the right of the working rows, so
    every row operation reaches it; otherwise U is None."""
    A = _copy(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    if want_u:
        for i, row in enumerate(A):
            row.extend([int(i == c) for c in range(m)])
    w = n + m if want_u else n
    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            # smallest nonzero entry of column j at or below row r
            k = -1
            best = 0
            for i in range(r, m):
                v = A[i][j]
                if v:
                    av = -v if v < 0 else v
                    if k < 0 or av < best:
                        k = i
                        best = av
                        if av == 1:
                            break
            if k < 0:
                break
            clean = True
            pk = A[k]
            pv = pk[j]
            for i in range(r, m):
                if i == k:
                    continue
                v = A[i][j]
                if v:
                    q = v // pv
                    if q:
                        _row_submul(A[i], pk, q, j, w)
                    if A[i][j]:
                        clean = False
            if clean:
                if k != r:
                    A[k], A[r] = A[r], A[k]
                if A[r][j] < 0:
                    A[r] = [-x for x in A[r]]
                pv = A[r][j]
                for i in range(r):
                    q = A[i][j] // pv
                    if q:
                        _row_submul(A[i], A[r], q, j, w)
                r += 1
                break
    if not want_u:
        return A[:r], None, r
    return [row[:n] for row in A[:r]], [row[n:] for row in A], r


def hnf(mat):
    """Row-style Hermite normal form of an integer matrix, zero rows dropped."""
    return _hermite(mat, False)[0]


def hnf_transform(mat):
    """HNF with a unimodular transform.

    Returns ``(H, U, rank)`` with ``U`` a unimodular m x m matrix such that
    ``U * mat`` equals ``H`` stacked over zero rows. Rows ``U[rank:]`` form a
    basis of the saturated left kernel ``{x : x * mat = 0}``.
    """
    return _hermite(mat, True)


def pivot_columns(H):
    """Pivot (first nonzero) column index of each row of an echelon matrix."""
    pivots = []
    for row in H:
        p = -1
        for c, v in enumerate(row):
            if v:
                p = c
                break
        if p < 0:
            raise ValueError("zero row in echelon matrix")
        pivots.append(p)
    return pivots


def solve_left_int_row(H, pivots, b):
    """Integer solution x of ``x * H = b`` for H in row HNF, else None.

    ``pivots`` must be ``pivot_columns(H)``. Returns None when b is not an
    integer combination of the rows of H.
    """
    res = list(b)
    n = len(res)
    x = []
    for t, p in enumerate(pivots):
        v = res[p]
        if v:
            q, rem = divmod(v, H[t][p])
            if rem:
                return None
            x.append(q)
            ht = H[t]
            for c in range(p, n):
                hv = ht[c]
                if hv:
                    res[c] -= q * hv
        else:
            x.append(0)
    for v in res:
        if v:
            return None
    return x


def det_bareiss(mat):
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = _copy(mat)
    n = len(A)
    if n == 0:
        return 1
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        # smallest nonzero pivot in column k at or below row k
        piv = -1
        best = 0
        for i in range(k, n):
            v = A[i][k]
            if v:
                av = -v if v < 0 else v
                if piv < 0 or av < best:
                    piv = i
                    best = av
                    if av == 1:
                        break
        if piv < 0:
            return 0
        if piv != k:
            A[piv], A[k] = A[k], A[piv]
            sign = -sign
        Ak = A[k]
        p = Ak[k]
        for i in range(k + 1, n):
            Ai = A[i]
            v = Ai[k]
            if v:
                for c in range(k + 1, n):
                    w = Ak[c]
                    if w or Ai[c]:
                        Ai[c] = (p * Ai[c] - v * w) // prev
                Ai[k] = 0
            elif prev == 1:
                if p != 1:
                    for c in range(k + 1, n):
                        if Ai[c]:
                            Ai[c] = p * Ai[c]
            else:
                for c in range(k + 1, n):
                    if Ai[c]:
                        Ai[c] = (p * Ai[c]) // prev
        prev = p
    return sign * A[n - 1][n - 1]


def row_echelon_bareiss(mat):
    """Fraction-free row echelon form.

    Returns ``(rows, pivot_cols)``: the nonzero echelon rows (integer,
    Bareiss-scaled) and their pivot column indices. The row span over Q is
    preserved; the row span over Z generally is not.
    """
    A = _copy(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    prev = 1
    r = 0
    piv_cols = []
    for j in range(n):
        if r == m:
            break
        piv = -1
        best = 0
        for i in range(r, m):
            v = A[i][j]
            if v:
                av = -v if v < 0 else v
                if piv < 0 or av < best:
                    piv = i
                    best = av
                    if av == 1:
                        break
        if piv < 0:
            continue
        if piv != r:
            A[piv], A[r] = A[r], A[piv]
        Ar = A[r]
        p = Ar[j]
        for i in range(r + 1, m):
            Ai = A[i]
            v = Ai[j]
            if v:
                for c in range(j + 1, n):
                    w = Ar[c]
                    if w or Ai[c]:
                        Ai[c] = (p * Ai[c] - v * w) // prev
                Ai[j] = 0
            elif prev == 1:
                if p != 1:
                    for c in range(j + 1, n):
                        if Ai[c]:
                            Ai[c] = p * Ai[c]
            else:
                for c in range(j + 1, n):
                    if Ai[c]:
                        Ai[c] = (p * Ai[c]) // prev
        prev = p
        piv_cols.append(j)
        r += 1
    return A[:r], piv_cols


def smith_normal_form(mat, want_v=False, want_vinv=False):
    """Smith normal form diagonal with optional right transforms.

    Returns ``(diag, V, Vinv)`` where ``diag`` has length min(m, n), its
    nonzero entries are positive with each dividing the next, and zeros trail.
    When requested, V (n x n, unimodular) collects the column operations:
    there is a unimodular U with ``U * mat * V`` diagonal, and
    ``Vinv = V^-1``. Only column operations touch V/Vinv, so for a full-rank
    relations matrix R the quotient map of ``Z^n / rowspan(R)`` sends y to
    ``(y * V) mod diag`` and generator i lifts to row i of Vinv.
    """
    A = _copy(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    limit = min(m, n)
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_v else None
    W = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_vinv else None

    def col_submul(j, k, q):
        # column j -= q * column k
        for i in range(m):
            v = A[i][k]
            if v:
                A[i][j] -= q * v
        if V is not None:
            for i in range(n):
                v = V[i][k]
                if v:
                    V[i][j] -= q * v
        if W is not None:
            wk = W[k]
            wj = W[j]
            for c in range(n):
                v = wj[c]
                if v:
                    wk[c] += q * v

    def col_swap(j, k):
        for i in range(m):
            Ai = A[i]
            Ai[j], Ai[k] = Ai[k], Ai[j]
        if V is not None:
            for i in range(n):
                Vi = V[i]
                Vi[j], Vi[k] = Vi[k], Vi[j]
        if W is not None:
            W[j], W[k] = W[k], W[j]

    t = 0
    while t < limit:
        # global pivot search over the trailing submatrix
        pi = pj = -1
        best = 0
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v:
                    av = -v if v < 0 else v
                    if pi < 0 or av < best:
                        pi, pj, best = i, j, av
                        if av == 1:
                            break
            if best == 1 and pi >= 0:
                break
        if pi < 0:
            break
        if pi != t:
            A[pi], A[t] = A[t], A[pi]
        if pj != t:
            col_swap(pj, t)
        while True:
            # clear column t below the pivot
            i = t + 1
            while i < m:
                v = A[i][t]
                if v:
                    p = A[t][t]
                    q = v // p
                    if q:
                        _row_submul(A[i], A[t], q, t, n)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        i = t + 1
                        continue
                i += 1
            # clear row t to the right of the pivot
            j = t + 1
            dirty = False
            while j < n:
                v = A[t][j]
                if v:
                    p = A[t][t]
                    q = v // p
                    if q:
                        col_submul(j, t, q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
                        j = t + 1
                        continue
                j += 1
            if dirty:
                continue
            col_ok = True
            for i in range(t + 1, m):
                if A[i][t]:
                    col_ok = False
                    break
            if col_ok:
                # pivot must divide every remaining entry
                p = A[t][t]
                fix = False
                for i in range(t + 1, m):
                    Ai = A[i]
                    for j in range(t + 1, n):
                        if Ai[j] % p:
                            _row_submul(A[t], Ai, -1, t, n)
                            fix = True
                            break
                    if fix:
                        break
                if not fix:
                    break
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    diag = [A[i][i] if i < t else 0 for i in range(limit)]
    return diag, V, W


def snf_diagonal(mat):
    """Smith normal form diagonal only."""
    return smith_normal_form(mat)[0]
