"""Dense and Smith-form routes kept as test oracles for the library's
sparse and Smith-free ones.

``solve_left_int_row`` is the dense forward substitution through the rows
of an HNF matrix, the reference for the sparse kernel of the same name;
``pivot_columns`` reads the pivots it walks off the dense rows.
``lattice_meet`` intersects two lattices through a left kernel of their
stacked bases, the reference for ``saturate_in`` on the degree-4 lattice.
``smith_normal_form`` is the Smith form with its right transforms V and
V^-1, which the library's diagonal-only kernel of the same name does not
keep. ``smith_saturation_int`` is the saturation by a full Smith form with
its right transform; ``SmithTorsionQuotient`` reads the degree-4 torsion
quotient off the Smith form of the coordinate matrix of Z^276 in the
lattice, with the 276 x 276 transforms V and V^-1.

``quotient_invariants`` reads the invariant factors of a finite quotient
sup/sub off the Smith diagonal of the coordinate matrix of sub in sup, the
route the library replaced by ranks mod p and determinantal divisors. On
it stand ``subgroup_by_smith``, the subgroup of the torsion quotient that
residue tuples generate (the reference for ``TorsionQuotient.subgroup``),
and ``algebraic_quotient_bound_by_smith``, the rank-2 Hodge span of l0
over l0^2 and c2 (the reference for ``algebraic_quotient_bound``).
``generated_by_index`` decides a generating set by one membership solve
per class and the index prod p^(rank mod p), the reference for
``TorsionQuotient.generated_by``, which compares reduced bases mod p.

``fujiki_with_product`` pairs a degree-4 class against a product a*b one
monomial at a time, the reference for the library's covector form;
``q_class`` accumulates the class q from 276 ``sym2_embed`` products, the
reference for its matrix form; ``delta_pairing_mod2`` makes one pairing
call per basis class; ``fujiki_rows_dense`` evaluates the Fujiki Gram
entry by entry, the reference for its build from the nonzeros of GRAM.

``hermite`` is the Hermite reduction that subtracts a pivot row over every
column from the pivot to the last, the reference for the kernel that walks
the pivot row's nonzeros. ``echelon_mod`` is the sparse elimination mod m
that finds each pivot row and each row to clear by a scan of every active
row, the reference for the library's column-indexed ``_echelon_mod``. ``polarization_kernel`` is the saturated left
kernel basis of s^T A, so the deformation reference route builds its
equations over another basis of ker(s^T A) than the library does.
``random_instance_by_det`` draws a deformation instance by the loop that
retries on det A = 0 and then builds it through the checked constructor,
the reference for ``random_instance``, which keeps the inverse instead.

``fraction_rows`` reads a ``Mat`` entry by entry into Fraction rows, for
references written over exact rationals, and ``mat_product`` multiplies
two of them that way; ``h4_coords`` reads a degree-4 class into its 276
Fraction coordinates. ``json_text`` decodes the library's JSON bytes of a
``Mat`` (``Mat._json_bytes``) or a ``Lattice`` (the chunks of
``Lattice._json_chunks``, which ``MinimalityReport.basis_hash`` digests),
so those bytes keep their one definition in the library. ``mat_json`` is
the JSON array of a ``Mat`` built from its entries, the reference for the
first, and ``lattice_json`` is the JSON object of a lattice built from
``basis_rows`` and ``mat_json``, the reference for the second.
"""

from fractions import Fraction
from math import gcd, lcm

from hklattice.bb_lattice import GRAM, RANK, H2Class, gram_apply
from hklattice.deformation_fix import FixInstance
from hklattice import kernels
from hklattice.exact_linalg import (
    FiniteAbelianGroup,
    Lattice,
    Mat,
    NotASublatticeError,
    _check_ambient,
    _combine_rows,
    _coord_matrix,
    _scaled_ints,
    _sparse_rows,
    left_kernel,
)
from hklattice.h4_model import (
    AMBIENT,
    H4Class,
    H4Lattice,
    TorsionQuotient,
    _squarefree_primes,
    default_h4_lattice,
    h4_span,
    monomial_pairs,
    second_chern_class,
    sym2_embed,
    sym2_lattice,
)
from hklattice.hodge_classes import canonical_hodge_lattice


def fraction_rows(m) -> list[list[Fraction]]:
    """The entries of a Mat as rows of Fractions."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def h4_coords(v: H4Class) -> tuple[Fraction, ...]:
    """The 276 coordinates of a degree-4 class as Fractions."""
    return tuple(Fraction(x, v.den) for x in v.num)


def mat_product(a, b) -> list[list[Fraction]]:
    """The product of two Mats as rows of Fractions, entry by entry."""
    cols = list(zip(*fraction_rows(b)))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in fraction_rows(a)]


def json_text(x) -> str:
    """The library's JSON text of a ``Mat`` or a ``Lattice``."""
    if isinstance(x, Mat):
        return x._json_bytes().decode()
    return b"".join(x._json_chunks()).decode()


def mat_json(m) -> list[list[str]]:
    """The entries of a Mat as rows of "p"/"p/q" strings."""
    return [[str(x) for x in row] for row in fraction_rows(m)]


def lattice_json(lat: Lattice) -> dict:
    """The JSON object of a lattice: its ambient dimension, its canonical
    basis as "p"/"p/q" strings and its form, or None."""
    return {
        "ambient_dim": lat.ambient_dim,
        "basis": [[str(x) for x in row] for row in lat.basis_rows()],
        "form": None if lat.form is None else mat_json(lat.form),
    }


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

    ``pivots`` must be ``pivot_columns(H)``. Each step walks the
    dense row from its pivot to the last column.
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


def lattice_meet(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two lattices as sets of vectors.

    Over a common denominator D the operands are integer row spans A and B;
    a vector lies in both iff it is u*A = -w*B for an integer left-kernel
    element (u | w) of the stacked matrix [[A],[B]], and the images u*A of
    a ``left_kernel`` basis generate the intersection.
    """
    _check_ambient(a, b)
    if not a.int_basis or not b.int_basis:
        return Lattice._from_int_rows([], 1, a.ambient_dim, a.form)
    D = lcm(a.den, b.den)
    fa = D // a.den
    fb = D // b.den
    A = [[x * fa for x in row] for row in a.int_basis]
    B = [[x * fb for x in row] for row in b.int_basis]
    # the first len(A) entries of a kernel row are u
    gens = _combine_rows(left_kernel(A + B), _sparse_rows(A), a.ambient_dim)
    return Lattice._from_int_rows(gens, D, a.ambient_dim, a.form)


def smith_normal_form(mat):
    """``(diag, V, Vinv)``: the Smith normal form diagonal, as
    ``kernels.smith_normal_form`` returns it, with its right transforms.

    V (n x n, unimodular) collects the column operations: there is a
    unimodular U with ``U * mat * V`` diagonal, and ``Vinv = V^-1``. Only
    column operations touch V and Vinv, so for a full-rank relations matrix
    R the quotient map of ``Z^n / rowspan(R)`` sends y to ``(y * V) mod
    diag`` and generator i lifts to row i of Vinv.
    """
    A = [list(row) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    limit = min(m, n)
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    W = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_submul(j, k, q):
        # column j -= q * column k, and row k of V^-1 += q * row j
        for R in (A, V):
            for row in R:
                if row[k]:
                    row[j] -= q * row[k]
        W[k] = [a + q * b for a, b in zip(W[k], W[j])]

    def col_swap(j, k):
        for R in (A, V):
            for row in R:
                row[j], row[k] = row[k], row[j]
        W[j], W[k] = W[k], W[j]

    t = 0
    while t < limit:
        # global pivot search over the trailing submatrix
        pi = pj = -1
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (pi < 0 or abs(A[i][j]) < best):
                    pi, pj, best = i, j, abs(A[i][j])
        if pi < 0:
            break
        A[pi], A[t] = A[t], A[pi]
        if pj != t:
            col_swap(pj, t)
        while True:
            # clear column t below the pivot
            i = t + 1
            while i < m:
                if A[i][t]:
                    _row_submul_dense(A[i], A[t], A[i][t] // A[t][t], t, n)
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        i = t + 1
                        continue
                i += 1
            # clear row t to the right of the pivot
            j = t + 1
            dirty = False
            while j < n:
                if A[t][j]:
                    col_submul(j, t, A[t][j] // A[t][t])
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
                        j = t + 1
                        continue
                j += 1
            if dirty or any(A[i][t] for i in range(t + 1, m)):
                continue
            # the pivot must divide every remaining entry
            p = A[t][t]
            bad = next((i for i in range(t + 1, m) if any(x % p for x in A[i][t + 1 :])), None)
            if bad is None:
                break
            _row_submul_dense(A[t], A[bad], -1, t, n)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    return [A[i][i] if i < t else 0 for i in range(limit)], V, W


def quotient_invariants(sub: Lattice, sup: Lattice) -> FiniteAbelianGroup:
    """Invariant factors of sup/sub: the Smith diagonal of the coordinate
    matrix of sub in sup (``kernels.snf_diagonal``), without its unit
    entries."""
    if sub.rank != sup.rank:
        raise NotASublatticeError("rank mismatch: quotient is not finite")
    if sub.rank == 0:
        return FiniteAbelianGroup([])
    return FiniteAbelianGroup([d for d in kernels.snf_diagonal(_coord_matrix(sub, sup)) if d > 1])


def smith_saturation_int(rows):
    """Basis of the saturation of an integer row span inside Z^n.

    With U*M*V = D in Smith form, the saturation pulls back from the span of
    the first rank coordinate vectors, i.e. the first rank rows of V^-1.
    """
    diag, _, vinv = smith_normal_form(rows)
    r = sum(1 for d in diag if d)
    return [list(vinv[i]) for i in range(r)]


class SmithTorsionQuotient:
    """L / Z^276 by the Smith form: class_of(v) is (y * V) mod diag for the
    coordinates y of v, and generator i lifts to row i of V^-1."""

    def __init__(self, h4: H4Lattice):
        self.h4 = h4
        C = _coord_matrix(sym2_lattice(), h4.lattice)
        diag, V, Vinv = smith_normal_form(C)
        if any(d == 0 for d in diag):
            raise ArithmeticError("quotient is not finite")
        positions = [i for i, dd in enumerate(diag) if dd > 1]
        self.moduli = tuple(diag[i] for i in positions)
        self._residue_cols = _sparse_rows([[row[i] for row in V] for i in positions])
        lat = h4.lattice
        self._lift_den = lat.den
        lifts = _combine_rows([Vinv[i] for i in positions], lat._sparse, AMBIENT)
        self._lift_rows = _sparse_rows(lifts)

    def class_of(self, v: H4Class) -> tuple[int, ...]:
        y = self.h4.lattice.coords(v.num, v.den)
        if y is None:
            raise ValueError("class is not in the degree-4 lattice")
        return tuple(
            sum([y[j] * x for j, x in col]) % d
            for col, d in zip(self._residue_cols, self.moduli)
        )

    def lift(self, t) -> H4Class:
        (vec,) = _combine_rows([t], self._lift_rows, AMBIENT)
        return H4Class._of(tuple(vec), self._lift_den)


def subgroup_by_smith(tq: TorsionQuotient, elements) -> FiniteAbelianGroup:
    """The subgroup of the torsion quotient that residue tuples generate,
    as the Smith invariants of the relation lattice of ``tq.moduli`` in
    its join with the tuples."""
    k = len(tq.moduli)
    rel = [[tq.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)]
    sub = Lattice._from_int_rows(rel, 1, k)
    sup = Lattice._from_int_rows(rel + [list(t) for t in elements], 1, k)
    return quotient_invariants(sub, sup)


def generated_by_index(tq: TorsionQuotient, classes) -> bool:
    """Whether Z^276 and ``classes`` generate the lattice of ``tq``: every
    class passes a membership solve, and the index prod p^(rank mod p of
    the rows den * c) over the primes p of den is ``tq.order()``."""
    classes = list(classes)
    if not all(tq.h4.contains(c) for c in classes):
        return False
    den = tq.h4.lattice.den
    rows = _sparse_rows([[den // c.den * x for x in c.num] for c in classes])
    index = 1
    for p in _squarefree_primes(den):
        index *= p ** len(echelon_mod(rows, p))
    return index == tq.order()


def algebraic_quotient_bound_by_smith(l0: H2Class) -> FiniteAbelianGroup:
    """The quotient of the rank-2 Hodge span of l0 by the span of l0^2 and
    c2, as the Smith invariants of that span in it."""
    h4 = default_h4_lattice()
    c2 = second_chern_class(h4.delta_used, h4.q)
    return quotient_invariants(h4_span([sym2_embed(l0, l0), c2]), canonical_hodge_lattice(l0))


def fujiki_with_product(u: H4Class, a: H2Class, b: H2Class) -> Fraction:
    """fujiki_pair(u, sym2_embed(a, b)) monomial by monomial: x_i*x_j pairs
    against a*b as g_ij*b(a,b) + (Ga)_i(Gb)_j + (Gb)_i(Ga)_j."""
    ua = gram_apply(a)
    ub = gram_apply(b)
    bab = sum(x * y for x, y in zip(a.coords, ub))
    total = 0
    for (i, j), x in zip(monomial_pairs(), u.num):
        if x:
            total += x * (GRAM[i][j] * bab + ua[i] * ub[j] + ub[i] * ua[j])
    return Fraction(total, u.den)


def q_class(dh: H2Class, abasis, b_inv) -> H4Class:
    """sum_ij B_ij a_i a_j - d^2/2, accumulated from ``sym2_embed`` products."""
    # numerators over the denominator 2
    acc = [-x for x in sym2_embed(dh, dh).num]
    k = len(abasis)
    for i in range(k):
        for j in range(i, k):
            w = b_inv[i][j] if i == j else 2 * b_inv[i][j]
            if w:
                p = sym2_embed(abasis[i], abasis[j]).num
                acc = [a + 2 * w * x for a, x in zip(acc, p)]
    return H4Class._of(tuple(acc), 2)


def delta_pairing_mod2(tq: TorsionQuotient, t) -> tuple[int, ...]:
    """The mod-2 covector a_k -> (lift(t) . a_k . d), one pairing per basis
    class a_k."""
    theta = tq.lift(t)
    dh = tq.h4.delta_used.h2
    out = []
    for k in range(RANK):
        val = fujiki_with_product(theta, H2Class.basis_vector(k), dh)
        if val.denominator != 1:
            raise ArithmeticError("pairing against the lattice must be integral")
        out.append(val.numerator % 2)
    return tuple(out)


def fujiki_rows_dense():
    """The Fujiki Gram on monomials, entry by entry:
    (x_i x_j) . (x_k x_l) = g_ik g_jl + g_il g_jk + g_ij g_kl."""
    g = GRAM
    pairs = monomial_pairs()
    return [
        [g[i][k] * g[j][l] + g[i][l] * g[j][k] + g[i][j] * g[k][l] for (k, l) in pairs]
        for (i, j) in pairs
    ]


def _row_submul_dense(row, prow, q, start, stop):
    # row -= q * prow on columns [start, stop)
    for c in range(start, stop):
        v = prow[c]
        if v:
            row[c] -= q * v


def hermite(mat, want_u):
    """``(H, U, rank)`` as ``kernels.hnf_transform`` (U None without
    ``want_u``), subtracting each pivot row over every column from the
    pivot column to the last."""
    A = [list(row) for row in mat]
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
                        _row_submul_dense(A[i], pk, q, j, w)
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
                        _row_submul_dense(A[i], A[r], q, j, w)
                r += 1
                break
    if not want_u:
        return A[:r], None, r
    return [row[:n] for row in A[:r]], [row[n:] for row in A], r


def echelon_mod(rows, m):
    """``exact_linalg._echelon_mod`` by scans: each step takes the first of
    the sparsest active rows (the active rows stay in input order), pivots
    at its smallest column and clears that column from every other active
    row."""
    active = []
    for i, r in enumerate(rows):
        d = {}
        for c, v in r:
            v %= m
            if v:
                d[c] = v
        if d:
            active.append((i, d))
    pivots = []
    while active:
        lens = [len(d) for _, d in active]
        i, row = active.pop(lens.index(min(lens)))
        c = min(row)
        v = row.pop(c)
        inv = pow(v, -1, m)
        items = [(k, x * inv % m) for k, x in row.items()]
        remaining = []
        for other in active:
            d = other[1]
            f = d.pop(c, 0)
            if f:
                for k, x in items:
                    w = (d.get(k, 0) - f * x) % m
                    if w:
                        d[k] = w
                    else:
                        d.pop(k, None)
            if d:
                remaining.append(other)
        active = remaining
        pivots.append((i, c, v, items))
    return pivots


def polarization_kernel(inst) -> list[tuple[int, ...]]:
    """Integer basis of {mu : (s^T A) mu = 0} for a ``FixInstance``; always
    n - 1 vectors, the saturated left kernel of s^T A cleared to integers
    as a one-column matrix (``left_kernel``)."""
    dA, Ai = inst.A_inv.inverse().scaled_int_rows()
    ds, (si,) = _scaled_ints([inst.s])
    # w = ds * dA * s^T A; dividing by gcd(ds * dA, w) gives s^T A times the
    # least common denominator of its entries
    w = [sum(x * a for x, a in zip(si, col) if x) for col in zip(*Ai)]
    g = gcd(ds * dA, *w)
    wi = [x // g for x in w]
    if not any(wi):
        raise ValueError("degenerate covector: s^T A = 0 despite invertible A")
    return [tuple(x) for x in left_kernel([[x] for x in wi])]


def random_instance_by_det(rng, n: int) -> FixInstance:
    """A = M + M^T + 2n*I for random small M, drawn again while det A = 0,
    and a nonzero s, as one ``FixInstance`` by its checked constructor."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [
            [m[i][j] + m[j][i] + (2 * n if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        A = Mat._of(rows, 1)
        if A.det() != 0:
            break
    while True:
        s = [rng.randint(-3, 3) for _ in range(n)]
        if any(s):
            return FixInstance(A, s)
