"""Integer matrix kernels: Hermite reduction and triangular solving, and
the Smith diagonal and fraction-free elimination that the benchmark traces.

The library's only kernel implementation, in pure Python; callers import
it through ``hklattice.kernels``, which re-exports it. Matrices are
sequences of rows of Python ints. Inputs are never mutated. Everything is
exact: arbitrary-precision integers only, no floating point, no modular
shortcuts.

The library calls ``hnf``, ``hnf_transform``, ``solve_plan``,
``solve_left_int_row`` and ``solve_content``:

* ``solve_plan`` takes the sparse HNF rows that a ``Lattice`` keeps (per
  row, its ``(column, value)`` nonzeros, as in ``hklattice.exact_linalg``)
  and the number of columns, once per lattice, and records which columns
  the multi-entry rows touch (96 of 276 on the degree-4 lattice).
* The two solve readers take that plan, integer numerators num and a
  multiplier a > 0 (default 1; a ``Lattice`` passes ``den / den(v)``),
  for the target a * num. They share one substitution (``_substitute``)
  of the multi-entry rows, one by one over their nonzeros, on the touched
  columns alone, scaled by a; no scaled copy of the whole target is
  built. The rows that hold only their pivot are then read in bulk, one
  gather per side and one ``gcd`` test per pivot value: off the touched
  columns the values are a * num, whose gcd is a times that of num.
  ``solve_left_int_row`` also divides them and puts the coordinates in
  row order, for ``Lattice.contains``, ``Lattice.coords``
  (``exact_linalg._coord_matrix``) and the rational coordinates of
  ``saturate_in``. ``solve_content`` returns only the gcd of the
  coordinates, with no division pass and no reordering, for every
  divisibility and for degree-4 membership: ``Lattice.divisibility`` and,
  through ``H4Lattice.contains``, ``H4Lattice.content`` and
  ``H4Lattice.divisibility``, the ``membership`` and ``divisibility``
  queries, ``even_class_predicates`` and the cubic suite's
  ``residual_integral_primitive``.
* ``hnf_transform`` has two callers: ``exact_linalg.left_kernel`` (every
  saturated left kernel) and ``bb_lattice._orth_complement``, whose
  transform of the complement Gram is both its inverse and the proof that
  it is unimodular. ``hnf`` and ``hnf_transform`` share one Hermite
  reduction.

The Smith kernels ``smith_normal_form`` and ``snf_diagonal`` (which
returns the first), and ``det_bareiss`` and ``row_echelon_bareiss``, have
no library caller. Finite quotients are read off ranks mod p
(``h4_model.TorsionQuotient``) and 2x2 determinantal divisors
(``hodge_classes.algebraic_quotient_bound``), saturation is congruences
on the HNF (``exact_linalg.saturate_in``), determinants are
``exact_linalg.det_int``, and the one nullspace, the deformation kernel,
is certified by ``exact_linalg.certified_kernel``. The four stay only for
the benchmark's per-layer bit counters (``kernels.NAME.max_bits_*``),
which need a traced function of each name. The tests use them as
references; ``tests/oracles.py`` reads quotients off ``snf_diagonal`` and
keeps the Smith transforms V and V^-1 that its Smith-form oracles ask
for.

Conventions
-----------
* ``hnf`` is row-style Hermite normal form: the returned rows span the same
  Z-module as the input rows, pivot entries are positive, entries above each
  pivot are reduced into [0, pivot), pivot columns strictly increase, zero
  rows are dropped. Two integer matrices have equal row span over Z exactly
  when their HNFs coincide. ``hnf`` and ``hnf_transform`` run one Hermite
  reduction; the second also records its row operations in a unimodular U.
  Each pivot row is subtracted over its nonzeros only, listed at most once
  per pivot.
* ``smith_normal_form`` returns the full diagonal (with trailing zeros on
  rank deficiency); nonzero entries are positive and each divides the next.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from operator import itemgetter

__all__ = [
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


def _copy(mat):
    return [list(row) for row in mat]


def _row_submul(row, prow, q, start, stop):
    # row -= q * prow on columns [start, stop)
    for c in range(start, stop):
        v = prow[c]
        if v:
            row[c] -= q * v


def _nonzeros(row, start, stop):
    """The ``(column, value)`` nonzeros of row on columns [start, stop)."""
    return [(c, row[c]) for c in compress(range(start, stop), row[start:stop])]


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
            # the pivot row is zero left of j; its nonzeros on [j, w), listed
            # on its first use, are all that a subtraction of it touches
            nz = None
            for i in range(r, m):
                if i == k:
                    continue
                row = A[i]
                v = row[j]
                if v:
                    q = v // pv
                    if q:
                        if nz is None:
                            nz = _nonzeros(pk, j, w)
                        for c, x in nz:
                            row[c] -= q * x
                    if row[j]:
                        clean = False
            if clean:
                if k != r:
                    A[k], A[r] = A[r], A[k]
                if pv < 0:
                    pk = A[r] = [-x for x in pk]
                    pv = -pv
                    nz = None
                for i in range(r):
                    row = A[i]
                    q = row[j] // pv
                    if q:
                        if nz is None:
                            nz = _nonzeros(pk, j, w)
                        for c, x in nz:
                            row[c] -= q * x
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


def _gather(cols):
    """A function from a list to the tuple of its entries at ``cols`` (not
    empty), at C speed: ``itemgetter``, which returns a bare entry for a
    single column, wrapped in that case."""
    if len(cols) == 1:
        (c,) = cols
        return lambda seq: (seq[c],)
    return itemgetter(*cols)


def solve_plan(rows, n):
    """The plan ``solve_left_int_row`` walks for the rows of an HNF H with
    n columns, in the sparse form (per row, its ``(column, value)`` pairs in
    ascending column order, so the pivot comes first).

    The forward substitution through H subtracts from the target, row by
    row, the multiple of the row that clears the row's pivot column. A row
    whose only nonzero is its pivot changes no other column, and a later
    row is zero left of its own pivot, so the value such a row divides is
    the target minus what the earlier multi-entry rows subtracted. Those
    rows change only the columns they touch (the union of their nonzeros:
    96 of 276 on the degree-4 lattice), so every other column keeps its
    target value. The plan therefore holds:

    * ``touched``: the gather of the touched columns, or None when no row
      has more than one nonzero; the substitution runs on this short list;
    * ``multi``: the rows with more than one nonzero, as ``(pivot, pivot
      value, row)`` in row order, with each column given by its position
      in ``touched``, substituted one by one;
    * ``groups``: per pivot value h, the gathers of the pivot columns of the
      pivot-only rows with that pivot, split into those in ``touched``
      (read off the substituted list) and the others (read off the target
      as it is), each None when empty; solved in bulk after ``multi``;
    * ``free``: the same split of the columns that are no row's pivot,
      which must be 0 once ``multi`` is done (pivot-only rows never touch
      them);
    * ``order``: the gather that puts the coefficients, found in the order
      ``multi`` then ``groups`` (each group touched columns first), back
      in row order.
    """
    multi = []
    singles = {}
    found = []
    cols = set()
    for i, row in enumerate(rows):
        p, h = row[0]
        if len(row) > 1:
            multi.append(row)
            found.append(i)
            cols.update(c for c, _ in row)
        else:
            singles.setdefault(h, []).append((i, p))
    cols = sorted(cols)
    local = {c: k for k, c in enumerate(cols)}

    def split(columns):
        # (gather in the touched list, gather in the target), None if empty
        inside = [local[c] for c in columns if c in local]
        outside = [c for c in columns if c not in local]
        return (_gather(inside) if inside else None, _gather(outside) if outside else None)

    groups = []
    for h, members in singles.items():
        found += [i for i, p in members if p in local]
        found += [i for i, p in members if p not in local]
        groups.append((h, *split([p for _, p in members])))
    free = set(range(n)).difference(row[0][0] for row in rows)
    # row i's coefficient is found at the k with found[k] == i
    order = _gather(sorted(range(len(found)), key=found.__getitem__)) if rows else None
    return (
        _gather(cols) if cols else None,
        tuple((local[row[0][0]], row[0][1], tuple((local[c], v) for c, v in row)) for row in multi),
        tuple(groups),
        split(sorted(free)),
        order,
    )


def _substitute(plan, num, a):
    """The substitution both solve readers share, for the target b = a *
    num (num a sequence of ints, a an int > 0): ``(res, x)`` once the
    multi-entry rows of ``plan`` are substituted into b, with ``x`` their
    coefficients in row order and ``res`` what is left of b on the touched
    columns, or None when a multi-entry pivot or a column that is no row's
    pivot already rules b out. Only the touched columns are scaled by a;
    an untouched free column rules b out when its numerator is nonzero.
    What the pivot-only groups divide is read off ``res`` on the touched
    columns and off ``a * num`` on the others."""
    touched, multi, _, (free_in, free_out), _ = plan
    if touched is None:
        res = []
    elif a == 1:
        res = list(touched(num))
    else:
        res = [a * v for v in touched(num)]
    x = []
    for p, h, row in multi:
        v = res[p]
        if v:
            q, rem = divmod(v, h)
            if rem:
                return None
            for c, hv in row:
                res[c] -= q * hv
        else:
            q = 0
        x.append(q)
    if free_in is not None and any(free_in(res)):
        return None
    if free_out is not None and any(free_out(num)):
        return None
    return res, x


def _group_gcd(res, num, a, inside, outside):
    """The gcd of the values one pivot-only group divides: the substituted
    ones on touched columns and ``a * num`` on the others, whose gcd is
    ``a * gcd(num)`` with no product formed per column."""
    g = gcd(*inside(res)) if inside is not None else 0
    if outside is not None:
        g = gcd(g, a * gcd(*outside(num)))
    return g


def solve_left_int_row(plan, num, a=1):
    """Integer solution x of ``x * H = b`` for H in row HNF and the target
    b = a * num (a an int > 0), else None.

    ``plan`` is ``solve_plan`` of the sparse rows of H, built once per H.
    The multi-entry rows are substituted over their nonzeros, in row order
    (``_substitute``); then each group of pivot-only rows with pivot h
    takes its target values in one gather per side, is tested by one
    ``gcd(...) % h`` and divided in one pass. Returns None when b is not an
    integer combination of the rows; with no rows, that is whenever b is
    nonzero.
    """
    done = _substitute(plan, num, a)
    if done is None:
        return None
    res, x = done
    for h, inside, outside in plan[2]:
        if _group_gcd(res, num, a, inside, outside) % h:
            return None
        if inside is not None:
            x += [v // h for v in inside(res)]
        if outside is not None:
            x += [a * v // h for v in outside(num)]
    order = plan[4]
    return list(order(x)) if order is not None else x


def solve_content(plan, num, a=1):
    """The content ``gcd(x)`` of the integer solution x of ``x * H = b``
    for the target b = a * num: 0 for b = 0, and None exactly when
    ``solve_left_int_row`` is None.

    The same substitution as ``solve_left_int_row``; a group of pivot-only
    rows with pivot h divides values whose gcd g is a multiple of h, and
    its coefficients have gcd g // h, so the content needs no division
    pass and no reordering, and the untouched columns need no product.
    """
    done = _substitute(plan, num, a)
    if done is None:
        return None
    res, x = done
    content = gcd(*x)
    for h, inside, outside in plan[2]:
        g = _group_gcd(res, num, a, inside, outside)
        if g % h:
            return None
        content = gcd(content, g // h)
    return content


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


def smith_normal_form(mat):
    """The Smith normal form diagonal of an integer matrix: length
    min(m, n), nonzero entries positive with each dividing the next, zeros
    trailing."""
    A = _copy(mat)
    m = len(A)
    n = len(A[0]) if m else 0
    limit = min(m, n)

    def col_submul(j, k, q):
        # column j -= q * column k
        for i in range(m):
            v = A[i][k]
            if v:
                A[i][j] -= q * v

    def col_swap(j, k):
        for Ai in A:
            Ai[j], Ai[k] = Ai[k], Ai[j]

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
    return [A[i][i] if i < t else 0 for i in range(limit)]


def snf_diagonal(mat):
    """Smith normal form diagonal only."""
    return smith_normal_form(mat)
