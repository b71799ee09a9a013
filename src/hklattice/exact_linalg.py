"""Exact rational matrices and integer lattices.

``Mat`` is an immutable exact rational matrix. ``Lattice`` is a finitely
generated free submodule of Q^n given by a basis, stored in a canonical form
so that structural equality decides equality of the underlying sets of
vectors. ``FiniteAbelianGroup`` holds only the invariant factors of a
finite quotient; the library reads them off ranks mod p
(``h4_model.TorsionQuotient``) or 2x2 determinantal divisors
(``hodge_classes.algebraic_quotient_bound``), with no Smith form.

Canonical lattice form: a pair ``(den, H)`` with ``den`` the smallest
positive integer such that ``den * M`` is an integer lattice and ``H`` the
row-style Hermite normal form of a basis of ``den * M``. Both are uniquely
determined by the module ``M``: any integer ``e`` with ``e * M`` integral is
a multiple of ``den``, and HNF is a canonical form for integer row spans.

Python integers do the work. A ``Mat`` is stored the same way, as integer
rows over its smallest positive denominator, and lattices, their forms and
the rational vectors fed to them are handled as integer rows over one
denominator; ``Fraction`` values are made only at the edges (reading a
``Mat`` entry, ``basis_rows``) and rationals are printed by the one
formatter ``_frac_str``. A ``coset_feasible`` witness is integer numerators
over the lattice's denominator.
Integer rows over a denominator are brought to lowest terms by the one
helper ``_lowest_terms`` (``Mat`` and ``Lattice``); ``h4_model.H4Class``,
a single row, does it with one ``gcd`` over its entries.
The checked constructors (``Mat(rows)``, ``Lattice.from_int_rows``,
``Lattice.from_generators``) take values from outside the library and
check their entries. Values the library builds take the trusted ones,
which only normalize: ``Mat._of`` for matrices (scalar multiples,
inverses, Gram matrices, block sums, the identity) and
``Lattice._from_int_rows`` for lattices. The value types of the other
layers keep the same rule, each fact proved once where the value is made:
``H2Class``, ``ExceptionalClass``, ``H4Class``, ``PicardData``,
``FixInstance`` and ``FourfoldH4`` each have a trusted ``_of``.
``Mat.inverse`` is a fraction-free Gauss-Jordan on the integer rows.

Each job of the layer has one function:

* ``Lattice._from_int_rows`` is the one path to a canonical lattice: the
  HNF of integer rows over a denominator, brought to lowest terms. The
  checked constructors, ``lattice_join`` and ``saturate_in`` end in it.
* ``left_kernel`` is the saturated left kernel of an integer matrix (the
  rows of the HNF transform below the rank). The one orthogonal
  complement in Z^23, ``bb_lattice._perp_rows``, is built on it, behind
  the complement of an exceptional class and transcendental lattices.
* ``_pair`` is the bilinear value u * F * v^T over the sparse rows of F,
  behind the degree-2 form and the degree-4 Fujiki pairing.
* A value kept for the whole process is a ``functools.cache`` function:
  ``_proth_prime`` here, and in ``h4_model`` the Fujiki Gram, its
  determinant, the default lattice and its torsion quotient.

There is one vector API: ``Lattice.contains``, ``coords`` and
``divisibility`` take a vector v and a denominator den (default 1) and
work on v/den. The entries of v may be ints, Fractions or "p/q" strings;
an all-int v is used as it is, so integer numerators over one denominator
need no conversion. ``coset_feasible`` takes its covector the same way.
The three parse v/den (``Lattice._scaled``) into integer numerators and a
multiplier from the one integer entry ``Lattice._multiplier``, which
``h4_model.H4Lattice`` calls with an ``H4Class``'s own denominator: its
numerators are in lowest terms, so den | ``Lattice.den`` decides
integrality with no pass over them. The target of the solve is the
multiplier times the numerators, and no scaled vector is built: the
substitution scales only the columns it changes.

The matrices of the degree-4 lattice are very sparse (its 276x276 HNF basis
has 371 nonzeros), so loops walk nonzeros only, in one sparse row form: per
integer row, a tuple of ``(column, value)`` pairs in ascending column order
(``_sparse_rows``). A ``Lattice`` keeps its basis in that form once, and
basis-value products walk it. Membership, integer coordinates and
divisibility are one triangular solve, which walks a solve plan each
lattice builds once from its sparse HNF rows (``kernels.solve_plan``):
the multi-entry rows by forward substitution on the columns they touch
(96 of 276 on the degree-4 lattice), the pivot-only rows (253 of the 276)
in bulk per pivot value, those off the touched columns read from the
unscaled numerators. ``Lattice`` membership and coordinates read it
through ``kernels.solve_left_int_row``; divisibility, and membership in
the degree-4 lattice, read only the gcd of the coordinates, through
``kernels.solve_content`` (``Lattice._content``), which neither divides
nor reorders. Rational coordinates take the same solve, on the vector or
on the vector times the pivot product, which makes them integral
(``Lattice._q_coords``). A ``Mat`` builds its sparse rows once on demand
(``Mat.sparse_rows``).
Integer rows are combined by the one loop ``_combine_rows`` over sparse
rows, which also lifts coefficient rows through the sparse basis of a
lattice (``saturate_in``, the ``coset_feasible`` witness) and adds the
lift rows of a residue tuple (``h4_model.TorsionQuotient.lift``).

There is one sparse elimination modulo m, ``_echelon_mod``: every rank,
basis and relation mod a prime comes from it or from its back-substituted
reduced basis ``_reduced_basis_mod`` (``h4_model.TorsionQuotient``). Two
certified routines run it modulo proven primes or their product:

* ``certified_kernel`` certifies a claimed rational kernel of sparse rows:
  the candidates are checked exactly over Z and reduced to the canonical
  basis, and the rank modulo one prime of ``_rank_primes`` (32749, then
  Proth primes) proves that they span the whole kernel; Hadamard's bound
  is formed only once a prime fails. Mod 32749 the 420 x 232 deformation
  system, whose rows have at most three nonzeros of up to about 115 bits,
  is eliminated in one-digit CPython ints, in about 0.7 times the time it
  takes mod the first Proth prime.
* ``det_int`` is every determinant of the library: det mod M from the
  pivots and the row-to-pivot-column permutation, where M is the product
  of the Proth primes needed to pass twice Hadamard's bound, so no modulus
  can be unlucky. The elimination runs once, modulo M itself, whose pivots
  are almost always units; a pivot that shares a prime with M drops that
  round, and the primes are then taken one per round and combined by CRT.
  The elimination is bound by interpreter overhead, so its cost grows
  little with the size of M, and only the Proth primes are used.

``saturate_in`` saturates by congruences on the HNF of the coordinate
rows (``_saturation_basis``), without a Smith form; its body
``_saturate_rows`` takes generator rows, so a span is saturated with no
lattice of it built first. The docstrings carry the proofs. Input numbers
are parsed strictly by ``parse_int`` and ``parse_rational`` (and their
vector forms ``int_vector`` and ``fraction_vector``): no float is
truncated and no bool becomes 1.

All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from functools import cache
from itertools import compress, count
from math import gcd, isqrt, lcm, prod

from . import kernels


class AmbientMismatchError(ValueError):
    """Two lattices live in different ambient spaces or carry different forms."""


class NotASublatticeError(ValueError):
    """The claimed sublattice relation does not hold."""


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_int(x) -> int:
    """An exact integer: a Python int, never a bool, a float or a string."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"expected an integer, got {x!r}")


def parse_rational(x) -> Fraction:
    """An exact rational: a Fraction, an int (not a bool) or a "p" / "p/q" string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_TEXT.fullmatch(x):
            raise ValueError(f"expected an integer or a 'p/q' fraction, got {x!r}")
        p, _, q = x.partition("/")
        if q and int(q) == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(p), int(q or 1))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def int_vector(v) -> tuple[int, ...]:
    """An array of exact integers as a tuple; raises like ``parse_int``, and
    refuses a string, a mapping or a non-iterable whole."""
    if isinstance(v, (str, Mapping)) or not isinstance(v, Iterable):
        raise TypeError(f"expected an array of integers, got {v!r}")
    out = tuple(v)
    for x in out:
        if type(x) is not int:
            parse_int(x)
    return out


def fraction_vector(v) -> tuple[Fraction, ...]:
    """Normalize an iterable of ints/Fractions/"p/q" strings to a Fraction tuple."""
    # exact values skip the parser, which only strings and errors need
    return tuple(
        x if type(x) is Fraction else Fraction(x) if type(x) is int else parse_rational(x)
        for x in v
    )


def _frac_str(x, d: int = 1) -> str:
    """The rational x/d (x an int or a Fraction, d > 0) as "p" or "p/q" in
    lowest terms; the one formatter behind every rational in the JSON."""
    p, q = x.numerator, x.denominator * d
    g = gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


def _json_rows(rows, den: int = 1) -> str:
    """``json.dumps`` of the integer rows rows/den as arrays of "p"/"p/q"
    strings, written row by row: no list of strings for the whole matrix.
    Over a denominator, each distinct entry is formatted once."""
    if den == 1:
        fmt = str
    else:
        fmt = {x: _frac_str(x, den) for x in set().union(*rows)}.__getitem__
    return "[" + ", ".join(
        '["' + '", "'.join(map(fmt, r)) + '"]' if r else "[]" for r in rows
    ) + "]"


def _scaled_ints(vectors) -> tuple[int, list[list[int]]]:
    """Smallest d > 0 making the rational vectors integral, and d times them."""
    vecs = [tuple(v) for v in vectors]
    # the entry types of each vector, collected at C speed
    if all({int}.issuperset(map(type, v)) for v in vecs):
        return 1, [list(v) for v in vecs]
    vecs = [fraction_vector(v) for v in vecs]
    d = lcm(*(x.denominator for v in vecs for x in v)) if vecs else 1
    return d, [[x.numerator * (d // x.denominator) for x in v] for v in vecs]


def _scaled_vector(v, den) -> tuple[int, list[int]]:
    """``(D, w)`` with integers w and D > 0 such that v/den = w/D, for v of
    ints, Fractions or "p/q" strings and an int den > 0."""
    if parse_int(den) <= 0:
        raise ValueError("denominator must be positive")
    d, (w,) = _scaled_ints([v])
    return d * den, w


def _lowest_terms(den: int, rows):
    """``(den, rows)`` for the rational rows rows/den (den > 0), divided by
    the gcd of den and every entry; the scan stops once that gcd is 1 and
    the rows then come back as they are."""
    g = den
    for r in rows:
        if g == 1:
            return den, rows
        g = gcd(g, *r)
    if g == 1:
        return den, rows
    return den // g, [[x // g for x in r] for r in rows]


def _sparse_rows(rows) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The one sparse row form: per integer row, its nonzero entries as
    ``(column, value)`` pairs in ascending column order."""
    out = []
    for row in rows:
        # compress keeps the columns of the nonzero entries at C speed
        out.append(tuple([(c, row[c]) for c in compress(range(len(row)), row)]))
    return tuple(out)


def _combine_rows(coeff_rows, rows, n: int) -> list[list[int]]:
    """The integer rows ``sum_j coeffs[j] * rows[j]`` of length n, one per
    coefficient row, for sparse ``rows`` (extra coefficients past
    ``len(rows)`` are ignored)."""
    out = []
    for coeffs in coeff_rows:
        vec = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for k, x in row:
                    vec[k] += c * x
        out.append(vec)
    return out


def _pair(u, v, sparse_rows) -> int:
    """The bilinear value u * F * v^T of integer vectors u and v, for the
    sparse rows of an integer matrix F; walks the nonzeros of u and F."""
    total = 0
    for x, row in zip(u, sparse_rows):
        if x:
            total += x * sum([g * v[k] for k, g in row])
    return total


class Mat:
    """Immutable exact rational matrix, stored as integer rows over one
    denominator.

    The storage is ``(den, rows)``: ``den`` is the smallest positive integer
    with ``den * M`` integral and ``rows`` are the integer entries of
    ``den * M``, so equal matrices have equal storage. Scalar multiples,
    determinant, inverse and JSON run on the integers; a ``Fraction`` is
    made only when an entry is read (``m[i, j]``). A Mat multiplies by
    scalars only, and its JSON is an array of arrays of "p"/"p/q" strings
    (``_json_bytes``); it is built from rational rows by the constructor.
    The symmetry test, the sparse rows and the JSON bytes are computed once
    per matrix.
    """

    __slots__ = ("_den", "_num", "_symmetric", "_json", "_sparse")

    def __init__(self, rows):
        self._set(*_scaled_ints(rows))

    def _set(self, den: int, rows):
        """The one constructor path: integer rows over den > 0, reduced to
        the smallest denominator."""
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if ncols == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        den, rows = _lowest_terms(den, rows)
        self._den = den
        self._num = tuple(tuple(r) for r in rows)
        self._symmetric = None
        self._json = None
        self._sparse = None

    @classmethod
    def _of(cls, rows, den: int) -> "Mat":
        """The matrix rows/den for a list of int rows the library built and
        an int den > 0, without the entry checks of the constructor."""
        m = cls.__new__(cls)
        m._set(den, rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)], 1)

    @property
    def rows(self) -> int:
        return len(self._num)

    @property
    def cols(self) -> int:
        return len(self._num[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._num), len(self._num[0])

    def __getitem__(self, key):
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self is other or (self._den == other._den and self._num == other._num)

    def __hash__(self):
        return hash((self._den, self._num))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            p, q = other.numerator, other.denominator
            return Mat._of([[p * a for a in r] for r in self._num], self._den * q)
        return NotImplemented

    def __rmul__(self, other):
        # only scalars multiply a Mat, and they commute
        return self.__mul__(other)

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            R = self._num
            n = len(R)
            self._symmetric = n == len(R[0]) and all(
                R[i][j] == R[j][i] for i in range(n) for j in range(i)
            )
        return self._symmetric

    def is_integer(self) -> bool:
        return self._den == 1

    def scaled_int_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Smallest d > 0 with d*self integral, and the integer entries of d*self.

        The rows are the matrix's own storage, so do not mutate them.
        """
        return self._den, self._num

    def sparse_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The integer rows of ``scaled_int_rows`` in the sparse row form,
        built once per matrix."""
        if self._sparse is None:
            self._sparse = _sparse_rows(self._num)
        return self._sparse

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return Fraction(det_int(self._num), self._den**self.rows)

    def inverse(self) -> "Mat":
        """Exact inverse by fraction-free Gauss-Jordan elimination.

        With ``self = M / d`` for the integer rows ``M``, Bareiss' one-step
        elimination of ``[M | I]`` applied to every row but the pivot row
        (each division exact) ends at ``[D*I | D*M^-1]`` with ``D = +-det M``,
        so the inverse is ``d / D`` times the right block. Raises
        ``ZeroDivisionError`` on a singular matrix.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        d = self._den
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self._num)]
        prev = 1
        for k in range(n):
            piv = next((i for i in range(k, n) if aug[i][k]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[k], aug[piv] = aug[piv], aug[k]
            rk = aug[k]
            p = rk[k]
            for i in range(n):
                if i != k:
                    f = aug[i][k]
                    aug[i] = [(p * a - f * b) // prev for a, b in zip(aug[i], rk)]
            prev = p
        if prev < 0:
            prev, d = -prev, -d
        return Mat._of([[d * x for x in r[n:]] for r in aug], prev)

    def _json_bytes(self) -> bytes:
        """The matrix as a JSON array of arrays of "p"/"p/q" strings, in
        UTF-8: encoded once per matrix and kept only as these bytes."""
        if self._json is None:
            self._json = _json_rows(self._num, self._den).encode()
        return self._json


class FiniteAbelianGroup:
    """A finite abelian group by invariant factors d1 | d2 | ... | dk, dk >= 2.

    Only the invariant factors are kept; equality and hashing compare them.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors):
        factors = tuple(parse_int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        self.invariant_factors = factors

    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __eq__(self, other):
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __hash__(self):
        return hash(self.invariant_factors)

    def __repr__(self):
        if not self.invariant_factors:
            return "FiniteAbelianGroup(trivial)"
        parts = " x ".join(f"Z/{d}" for d in self.invariant_factors)
        return f"FiniteAbelianGroup({parts})"


class Lattice:
    """A finitely generated free submodule of Q^n in canonical form.

    Stored as ``den`` (smallest positive integer making den*M integral) and
    ``int_basis`` (HNF rows of den*M), so equal modules compare equal. An
    optional ``form`` (symmetric Mat of size ambient_dim) rides along; all
    binary operations demand that both operands carry the same form.

    The basis rows are also kept once in the sparse row form (``_sparse``);
    basis lifts and basis values walk only their nonzeros. A row's pivot is
    its first pair's column. Membership, rational and integer coordinates
    and divisibility are one triangular solve on the lattice's solve plan
    (``_plan``): ``kernels.solve_plan`` of the sparse rows, built on the
    first solve and kept, which splits the rows into those substituted one
    by one and the pivot-only rows solved in bulk per pivot value.
    ``kernels.solve_left_int_row`` reads the coordinates off it
    (``_solve``) and ``kernels.solve_content`` only their gcd
    (``_content``), the divisibility. Both take the target as integer
    numerators and a multiplier (``_scaled``, ``_multiplier``).
    """

    __slots__ = ("ambient_dim", "den", "int_basis", "form", "_sparse", "_plan")

    def __init__(
        self, ambient_dim: int, den: int, int_basis, form=None, _canonical=False, _sparse=None
    ):
        if not _canonical:
            raise TypeError("use Lattice.from_int_rows / from_generators / standard")
        self.ambient_dim = ambient_dim
        self.den = den
        self.int_basis = int_basis
        self.form = form
        self._sparse = _sparse_rows(int_basis) if _sparse is None else _sparse
        self._plan = None

    @classmethod
    def from_int_rows(cls, int_rows, den: int = 1, ambient_dim=None, form=None) -> "Lattice":
        """Lattice spanned by the vectors row/den for integer rows and den > 0;
        entries and den are parsed like ``parse_int``."""
        if parse_int(den) <= 0:
            raise ValueError("denominator must be positive")
        return cls._from_int_rows([int_vector(r) for r in int_rows], den, ambient_dim, form)

    @classmethod
    def _from_int_rows(cls, int_rows, den: int, ambient_dim=None, form=None) -> "Lattice":
        """``from_int_rows`` for int rows the library built and an int den > 0,
        without the entry checks: the one path to a canonical lattice, the
        HNF of the rows with the pair (den, HNF) brought to lowest terms."""
        int_rows = list(int_rows)
        if ambient_dim is None:
            if not int_rows:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = len(int_rows[0])
        if any(len(r) != ambient_dim for r in int_rows):
            raise ValueError("generator length differs from ambient_dim")
        if form is not None:
            _check_form(form, ambient_dim)
        H = kernels.hnf(int_rows) if int_rows else []
        den, H = _lowest_terms(den, H) if H else (1, H)
        return cls(ambient_dim, den, tuple(tuple(r) for r in H), form, _canonical=True)

    @classmethod
    def from_generators(cls, rows, ambient_dim=None, form=None) -> "Lattice":
        """Lattice spanned by possibly dependent rational generators."""
        d, int_rows = _scaled_ints(rows)
        return cls._from_int_rows(int_rows, d, ambient_dim, form)

    @classmethod
    def standard(cls, n: int, form=None) -> "Lattice":
        """Z^n."""
        if form is not None:
            _check_form(form, n)
        eye = tuple(tuple([0] * i + [1] + [0] * (n - 1 - i)) for i in range(n))
        sparse = tuple(((i, 1),) for i in range(n))
        return cls(n, 1, eye, form, _canonical=True, _sparse=sparse)

    @property
    def rank(self) -> int:
        return len(self.int_basis)

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        d = self.den
        return [tuple(Fraction(x, d) for x in row) for row in self.int_basis]

    def with_form(self, form) -> "Lattice":
        if form is not None:
            _check_form(form, self.ambient_dim)
        lat = Lattice(
            self.ambient_dim, self.den, self.int_basis, form, _canonical=True, _sparse=self._sparse
        )
        lat._plan = self._plan
        return lat

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.den == other.den
            and self.int_basis == other.int_basis
            and _same_form(self.form, other.form)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.den, self.int_basis))

    def __repr__(self):
        return f"Lattice(rank {self.rank} in Q^{self.ambient_dim}, den {self.den})"

    def _scaled(self, v, den):
        """The public parse into the solve readers: ``(num, a)`` with ints
        num and ``self.den * v/den = a * num``, a the multiplier of
        ``_multiplier`` or None when that is not integral.

        ``v`` holds ints, Fractions or "p/q" strings; ``den`` is an int > 0.
        """
        den, num = _scaled_vector(v, den)
        if len(num) != self.ambient_dim:
            raise ValueError("vector length differs from ambient_dim")
        b = den // gcd(self.den, den)
        if b == 1:
            return num, self._multiplier(den)
        # b divides every entry exactly when it is their gcd with b; then
        # den // b divides self.den
        if gcd(b, *num) != b:
            return num, None
        return [x // b for x in num], self._multiplier(den // b)

    def _multiplier(self, den):
        """``self.den // den``, or None when den does not divide
        ``self.den``: the integer entry of the vector API. For ints num and
        an int den > 0 such that num/den is in lowest terms (an
        ``H4Class``'s own pair) or den divides ``self.den`` (what
        ``_scaled`` hands over), ``self.den * num/den`` is integral exactly
        when den | ``self.den``, with no pass over the numerators: if it is
        integral, then den / gcd(den, ``self.den``) divides den and every
        numerator, whose gcd is 1 in lowest terms. The readers then take
        num and this multiplier a, and scale only the columns that their
        substitution changes (``kernels.solve_plan``)."""
        a, r = divmod(self.den, den)
        return None if r else a

    def _solve(self, num, a=1):
        """Integer x with ``x * int_basis = a * num``, or None when that is
        not an integer combination of the basis rows:
        ``kernels.solve_left_int_row`` on the lattice's solve plan
        (``_solve_plan``)."""
        return kernels.solve_left_int_row(self._solve_plan(), num, a)

    def _content(self, num, a=1):
        """The gcd of the integer coordinates of ``a * num`` (0 for num =
        0), or None when it is not an integer combination of the basis
        rows: ``kernels.solve_content`` on the lattice's solve plan, with
        no coordinate built."""
        return kernels.solve_content(self._solve_plan(), num, a)

    def _solve_plan(self):
        """``kernels.solve_plan`` of the sparse rows, built on the first
        solve and kept."""
        plan = self._plan
        if plan is None:
            plan = self._plan = kernels.solve_plan(self._sparse, self.ambient_dim)
        return plan

    def _divisibility(self, num, a) -> int:
        """The divisibility of the lattice vector a * num/``self.den`` from
        its content; a is the multiplier, or None (not integral)."""
        c = None if a is None else self._content(num, a)
        if c is None:
            raise ValueError("vector is not in the lattice")
        if not c:
            raise ValueError("divisibility of the zero vector is undefined")
        return c

    def contains(self, v, den: int = 1) -> bool:
        """Whether the rational vector v/den lies in M."""
        num, a = self._scaled(v, den)
        return a is not None and self._solve(num, a) is not None

    def coords(self, v, den: int = 1):
        """Integer coordinates of v/den in the canonical basis, or None."""
        num, a = self._scaled(v, den)
        x = None if a is None else self._solve(num, a)
        return None if x is None else tuple(x)

    def divisibility(self, v, den: int = 1) -> int:
        """Largest n >= 1 with v/(n*den) still in the lattice: the gcd of
        the coordinates of v/den, read off ``_content``."""
        return self._divisibility(*self._scaled(v, den))

    def _pivot_product(self) -> int:
        """Product of the HNF pivots of den * L. The rows restricted to
        their pivot columns are triangular, so this is the covolume of
        den * L projected onto those columns."""
        return prod(row[0][1] for row in self._sparse)

    def _q_coords(self, w):
        """A positive integer multiple of the rational coordinates of the
        integer vector w in the canonical basis, or None exactly when w lies
        outside the Q-span of the lattice.

        The coordinates y solve y * H = den * w for the HNF rows H. Let H_P
        be their triangular block on the pivot columns, with det H_P = P =
        ``_pivot_product()``. A w in the Q-span has y = (den * w)_P * H_P^-1
        = (den * w)_P * adj(H_P) / P, so P * y is an integer vector and the
        triangular solve of P * den * w (``_solve(w, P * den)``) finds it;
        a w outside the Q-span has no rational y, so that solve is None. P
        has 892 bits on the degree-4 lattice, so den * w is solved first: y
        is integral, and found at once, whenever w lies in the lattice.
        """
        y = self._solve(w, self.den)
        if y is None:
            y = self._solve(w, self._pivot_product() * self.den)
        return y

    def gram(self) -> Mat:
        """Gram matrix basis * form * basis^T of the canonical basis."""
        if self.form is None:
            raise ValueError("lattice carries no ambient form")
        if not self.int_basis:
            raise ValueError("rank-0 lattice has no basis matrix")
        df = self.form.scaled_int_rows()[0]
        BF = _combine_rows(self.int_basis, self.form.sparse_rows(), self.ambient_dim)
        B = self._sparse
        return Mat._of(
            [[sum(bf[k] * x for k, x in b) for b in B] for bf in BF],
            df * self.den * self.den,
        )

    def _json_chunks(self) -> tuple[bytes, ...]:
        """The lattice as a JSON object with sorted keys, in UTF-8 chunks
        whose concatenation is the text: ``ambient_dim``, ``basis`` (the
        rows of ``basis_rows`` as arrays of "p"/"p/q" strings) and
        ``form`` (the form's ``_json_bytes``, or null). The form's chunk is
        the bytes its ``Mat`` keeps, so a digest fed chunk by chunk copies
        no form."""
        form = b"null" if self.form is None else self.form._json_bytes()
        basis = _json_rows(self.int_basis, self.den)
        head = f'{{"ambient_dim": {self.ambient_dim}, "basis": {basis}, "form": '
        return head.encode(), form, b"}"


def _check_form(form, n):
    if not isinstance(form, Mat):
        raise TypeError("ambient form must be a Mat")
    if form.shape != (n, n):
        raise ValueError("form size differs from ambient_dim")
    symmetric = form._symmetric
    if symmetric is None:
        symmetric = form.is_symmetric()
    if not symmetric:
        raise ValueError("ambient form must be symmetric")


def _same_form(f, g) -> bool:
    """Equal ambient forms: the same object (the common case), else equal values."""
    return f is g or f == g


def _check_ambient(a: Lattice, b: Lattice):
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatchError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    if not _same_form(a.form, b.form):
        raise AmbientMismatchError("ambient forms differ")


def lattice_join(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both operands."""
    _check_ambient(a, b)
    D = lcm(a.den, b.den)
    fa, fb = D // a.den, D // b.den
    rows = [[x * fa for x in row] for row in a.int_basis]
    rows += [[x * fb for x in row] for row in b.int_basis]
    return Lattice._from_int_rows(rows, D, a.ambient_dim, a.form)


def left_kernel(rows) -> list[list[int]]:
    """A basis of the saturated left kernel {x in Z^m : x * rows = 0} of an
    integer m x n matrix.

    ``kernels.hnf_transform`` gives a unimodular U with U * rows equal to
    the Hermite form stacked over zero rows; the rows of U below the rank
    are a basis of the kernel, and a saturated one because U is unimodular
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4.3).
    """
    _, U, rank = kernels.hnf_transform(rows)
    return U[rank:]


def _coord_matrix(sub: Lattice, sup: Lattice) -> list[list[int]]:
    """Integer coordinates of sub's basis in sup's basis, rows stacked.

    Raises NotASublatticeError unless sub is contained in sup.
    """
    _check_ambient(sub, sup)
    out = []
    for row in sub.int_basis:
        c = sup.coords(row, sub.den)
        if c is None:
            raise NotASublatticeError("vector outside the claimed superlattice")
        out.append(list(c))
    return out


def sublattice_index(sub: Lattice, sup: Lattice) -> int:
    """Index [sup : sub] for a finite-index sublattice, from the HNF pivots.

    The coordinate solves of ``_coord_matrix`` prove sub in sup (else
    ``NotASublatticeError``), and equal ranks then make the Q-spans equal.
    Equal Q-spans have the same HNF pivot columns P, and projecting onto P
    is injective on that span, so the index is the ratio of the projected
    covolumes. The HNF rows on P are triangular, so den * L projects to
    covolume ``_pivot_product`` and L, of rank k, to that over den^k:

        [sup : sub] = (prod sub pivots * sup.den^k) / (prod sup pivots * sub.den^k).
    """
    if sub.rank != sup.rank:
        raise NotASublatticeError("rank mismatch: the index would be infinite")
    _coord_matrix(sub, sup)  # the containment proof; the coordinates are not needed
    k = sub.rank
    return (sub._pivot_product() * sup.den**k) // (sup._pivot_product() * sub.den**k)


def divisibility(v, lat: Lattice) -> int:
    """Largest n >= 1 with v/n still in the lattice."""
    return lat.divisibility(v)


def coset_feasible(lat: Lattice, functional, target, den: int = 1):
    """Decide whether some v in lat has functional(v)/den = target.

    ``functional`` is a covector on the ambient coordinates (ints,
    Fractions or "p/q" strings) and ``den`` an int > 0. The image of lat is
    a cyclic subgroup g*Z of Q with g >= 0, and the equation is solvable
    iff target is a multiple of g (only target 0 when g = 0). Returns
    (feasible, witness, g) with witness None or the integer numerators,
    over ``lat.den``, of an ambient vector of lat (zeros for target 0).
    """
    df, f = _scaled_vector(functional, den)
    if len(f) != lat.ambient_dim:
        raise ValueError("functional length differs from ambient_dim")
    target = parse_rational(target)
    # the basis values are vals[i] / (df * lat.den)
    vals = [sum(f[c] * x for c, x in row) for row in lat._sparse]
    nz = [(i, x) for i, x in enumerate(vals) if x]
    if not nz:
        if target == 0:
            return True, (0,) * lat.ambient_dim, Fraction(0)
        return False, None, Fraction(0)
    # image subgroup generator: gcd over Q of the basis values, taken over
    # the least common denominator L of the nonzero values
    L = df * lat.den
    k = L
    for _, x in nz:
        k = gcd(k, x)
    L //= k
    ints = [(i, x // k) for i, x in nz]
    g = 0
    for _, n in ints:
        g = gcd(g, n)
    gen = Fraction(g, L)
    ratio = target / gen
    if ratio.denominator != 1:
        return False, None, gen
    # Bezout combination of the integer values hits g
    coeff = {}
    acc = 0
    for i, n in ints:
        if acc == 0:
            coeff = {i: 1 if n > 0 else -1}
            acc = abs(n)
        else:
            a, b = _bezout(acc, n)
            coeff = {j: a * c for j, c in coeff.items()}
            coeff[i] = coeff.get(i, 0) + b
            acc = gcd(acc, n)
        if acc == 1:
            break
    m = ratio.numerator
    coeffs = [0] * lat.rank
    for i, c in coeff.items():
        coeffs[i] = m * c
    (wit,) = _combine_rows([coeffs], lat._sparse, lat.ambient_dim)
    return True, tuple(wit), gen


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x*a + y*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_s, -old_t
    return old_s, old_t


def _saturation_basis(rows) -> list[list[int]]:
    """A basis, not reduced, of the saturation (Q-span of the rows) meet Z^n
    of integer rows, by congruences (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4); no Smith form and no n x n transform.

    Let H be the HNF of the rows, of rank k, with pivot columns P, and H_P
    its k x k pivot block: upper triangular with the positive pivots on its
    diagonal, so D = det H_P is their product. Then A = adj(H_P) * H =
    D * H_P^-1 * H is an integer matrix whose P-block is D * I; it is built
    by back-substitution from the last row, A_i = (D * H_i - sum_(j>i)
    H[i][P_j] * A_j) / H[i][P_i], each division exact because adj(H_P) is
    integral.

    * Every v in the Q-span is y * H_P^-1 * H = y * A / D with y = v_P, the
      P-block of H_P^-1 * H being I. If v is integral, so is y. Hence the
      saturation is S = {z * A / D : z in Z^k, z * A = 0 mod D}.
    * The lattice Z = {z : z * A = 0 mod D} is found one column of A at a
      time, keeping a basis of the z that satisfy the columns done so far
      (the identity to start). For the next column, with residues r_i of
      the basis rows mod D, unimodular row operations (extended gcd) leave
      one row with residue g = gcd of the r_i and the others with residue
      0. A combination sum t_i * z_i then has residue t * g mod D, with t
      its coefficient of that row, which is 0 exactly when t is a multiple
      of D / gcd(g, D); so scaling that row by D / gcd(g, D) gives a basis
      of the z that also satisfy this column. A column's condition depends
      only on its residues mod D, so the steps run once per distinct
      nonzero residue column, in sorted order: a repeated column adds no
      condition, and the P-columns, 0 mod D, none at all. Another order
      gives another basis of the same Z.
    * z -> z * A / D is injective (A has rank k), so the rows z * A / D of
      the final basis are a basis of S.
    """
    H = kernels.hnf(rows) if rows else []
    k = len(H)
    if not k:
        return []
    piv = [next(c for c, x in enumerate(r) if x) for r in H]
    D = 1
    for r, c in zip(H, piv):
        D *= r[c]
    if D == 1:
        # H_P is unimodular, so the span is already saturated
        return H
    A: list[list[int]] = [[]] * k
    for i in range(k - 1, -1, -1):
        Hi = H[i]
        row = [D * x for x in Hi]
        for j in range(i + 1, k):
            h = Hi[piv[j]]
            if h:
                row = [a - h * b for a, b in zip(row, A[j])]
        p = Hi[piv[i]]
        A[i] = [a // p for a in row]
    Z = [[int(i == j) for j in range(k)] for i in range(k)]
    cols = set(zip(*[[x % D for x in r] for r in A]))
    cols.discard((0,) * k)
    for col in sorted(cols):
        res = [sum([z * x for z, x in zip(zr, col)]) % D for zr in Z]
        top = None
        for i, r in enumerate(res):
            if not r:
                continue
            if top is None:
                top, g = i, r
                continue
            # [[a, b], [r/e, -g/e]] has determinant -1 and clears row i
            a, b = _bezout(g, r)
            e = gcd(g, r)
            zt, zi = Z[top], Z[i]
            fr, fg = r // e, g // e
            Z[top] = [a * x + b * y for x, y in zip(zt, zi)]
            Z[i] = [fr * x - fg * y for x, y in zip(zt, zi)]
            g = e
        if top is not None:
            m = D // gcd(g, D)
            if m != 1:
                Z[top] = [m * x for x in Z[top]]
    out = []
    for zr in Z:
        # z * A / D, one pass over the dense rows of A per nonzero of z
        row = [0] * len(H[0])
        for z, Ar in zip(zr, A):
            if z:
                row = [s + z * x for s, x in zip(row, Ar)]
        out.append([s // D for s in row])
    return out


def saturate_in(sub: Lattice, sup: Lattice) -> Lattice:
    """Saturation of sub inside sup: (sub tensor Q) intersected with sup."""
    _check_ambient(sub, sup)
    return _saturate_rows(sub.int_basis, sup)


def _saturate_rows(rows, sup: Lattice) -> Lattice:
    """The saturation in sup of the Q-span of integer rows, zero rows
    skipped. A row only matters up to a rational multiple, so its
    coordinates in sup's basis are any integer multiple of the rational
    ones (``sup._q_coords``), made primitive."""
    C = []
    for row in rows:
        if not any(row):
            continue
        c = sup._q_coords(row)
        if c is None:
            raise NotASublatticeError("vector outside the Q-span of the superlattice")
        g = gcd(*c)
        C.append([x // g for x in c])
    # _from_int_rows reduces the lifted rows, so the basis needs no HNF here
    gens = _combine_rows(_saturation_basis(C), sup._sparse, sup.ambient_dim)
    return Lattice._from_int_rows(gens, sup.den, sup.ambient_dim, sup.form)


_PROTH_SHIFT = 126
_PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@cache
def _proth_prime(i: int) -> int:
    """The i-th (from 0) proven prime N = k * 2^126 + 1 over k = 1, 3, 5, ...
    The search continues from the cached prime i - 1, which a first call
    for i computes by recursion; ``_nullspace_primes`` asks in order.

    Proth's theorem: for odd k < 2^n, N = k * 2^n + 1 is prime exactly when
    a^((N-1)/2) = -1 (mod N) for some a. A base giving neither 1 nor -1
    proves N composite; a candidate on which every listed base gives 1 is
    skipped, so the sequence is fixed and every member is certified.
    """
    start = (_proth_prime(i - 1) >> _PROTH_SHIFT) + 2 if i else 1
    for k in count(start, 2):
        N = (k << _PROTH_SHIFT) | 1
        for a in _PROTH_BASES:
            r = pow(a, N >> 1, N)
            if r == N - 1:
                return N
            if r != 1:
                break


def _nullspace_primes():
    """The sequence of ``_proth_prime``, each one searched for once per process."""
    return map(_proth_prime, count())


# the largest prime below 2^15: (p - 1)^2 < 2^30, so residue products are
# one-digit CPython ints
_WORD_PRIME = 32749


def _rank_primes():
    """The primes ``certified_kernel`` tries: ``_WORD_PRIME``, then the
    sequence of ``_nullspace_primes``."""
    yield _WORD_PRIME
    yield from _nullspace_primes()


def _echelon_mod(rows, m: int):
    """Sparse echelon of integer rows modulo m > 1.

    ``rows`` are in the sparse row form. Each step takes the sparsest
    active row, the one of lowest input index among those, pivots at its
    smallest column and clears that column from the other active rows,
    which keeps the fill-in low; rows that vanish mod m drop out, so for a
    prime m the number of pivots is the rank mod m. Returns one
    ``(i, c, v, items)`` per pivot, in elimination order: the input row i,
    the pivot column c, the pivot value v and the rest of the row divided
    by v, as (column, value) pairs on columns that are not earlier pivots.
    Only row additions are applied, so the rows as they stood when chosen
    have the input's determinant mod m. Each pivot must be a unit mod m;
    one that is not (gcd(v, m) > 1, never the case for a prime m) raises
    ``ValueError``.

    A column index (the active rows with a nonzero in each column) finds
    the rows a pivot clears without scanning the others, and the next
    pivot row comes off a heap of (length, row) entries: an entry is
    pushed whenever a row's length changes, and one that no longer matches
    its row is skipped when it comes up.
    """
    live: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    heap = []
    for i, r in enumerate(rows):
        d = {}
        for c, v in r:
            v %= m
            if v:
                d[c] = v
                cols.setdefault(c, set()).add(i)
        if d:
            live[i] = d
            heap.append((len(d), i))
    heapify(heap)
    pivots = []
    while heap:
        n, i = heappop(heap)
        row = live.get(i)
        if row is None or len(row) != n:
            continue
        del live[i]
        for k in row:
            cols[k].discard(i)
        c = min(row)
        v = row.pop(c)
        inv = pow(v, -1, m)
        items = [(k, x * inv % m) for k, x in row.items()]
        for j in cols.pop(c):
            d = live[j]
            n = len(d)
            f = d.pop(c)
            for k, x in items:
                w = d.get(k)
                if w is None:
                    # f * x can vanish mod a composite m: k stays absent
                    w = -f * x % m
                    if w:
                        d[k] = w
                        cols[k].add(j)
                else:
                    w = (w - f * x) % m
                    if w:
                        d[k] = w
                    else:
                        del d[k]
                        cols[k].discard(j)
            if not d:
                del live[j]
            elif len(d) != n:
                heappush(heap, (len(d), j))
        pivots.append((i, c, v, items))
    return pivots


def _reduced_basis_mod(rows, p: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """The reduced echelon basis mod a prime p of the span of sparse
    integer rows, ``{pivot column: sparse row}`` in ascending pivot order,
    entries in [0, p): the pivots of ``_echelon_mod`` back-substituted from
    the last. Each pivot is the smallest column of a vector of the span,
    so the pivots are its leading columns and the basis is canonical,
    whatever the order of the rows."""
    basis: dict[int, tuple[tuple[int, int], ...]] = {}
    for _, c, _, items in reversed(_echelon_mod(rows, p)):
        row = dict(items)
        # a reduced row is 0 on the other pivots, so it adds no pivot key
        for k in [k for k in row if k in basis]:
            x = row.pop(k)
            for j, y in basis[k][1:]:
                row[j] = (row.get(j, 0) - x * y) % p
        basis[c] = ((c, 1), *sorted((j, y) for j, y in row.items() if y))
    return dict(sorted(basis.items()))


def _right_echelon(vectors, ncols: int) -> list[list[int]]:
    """The reduced echelon form from the right of independent integer
    vectors: one vector per column f that is some vector's last nonzero
    entry, in ascending f, zero on the other such columns, primitive and
    positive at f. It depends only on the Q-span. Dependent vectors raise
    ``ArithmeticError``."""
    basis: dict[int, list[int]] = {}
    for v in vectors:
        v = list(v)
        # the basis vectors vanish on each other's columns, so clearing one
        # column never refills another
        for c, w in basis.items():
            if v[c]:
                g = gcd(w[c], v[c])
                a, b = w[c] // g, v[c] // g
                v = [a * x - b * y for x, y in zip(v, w)]
        f = next((c for c in range(ncols - 1, -1, -1) if v[c]), None)
        if f is None:
            raise ArithmeticError("dependent candidate kernel vectors")
        for c, w in basis.items():
            if w[f]:
                g = gcd(v[f], w[f])
                a, b = v[f] // g, w[f] // g
                basis[c] = [a * x - b * y for x, y in zip(w, v)]
        basis[f] = v
    out = []
    for f in sorted(basis):
        g = gcd(*basis[f]) if basis[f][f] > 0 else -gcd(*basis[f])
        out.append([x // g for x in basis[f]])
    return out


def certified_kernel(rows, ncols: int, candidates) -> list[list[int]]:
    """Canonical basis of the rational kernel {x : row . x = 0 for every
    row} of sparse ``rows`` on the columns [0, ncols), certified from
    candidate integer vectors of length ncols claimed to span it; a column
    or a length out of range raises ``ValueError``.

    The canonical basis has one vector x_f per free column f, in ascending
    order of f, where the free columns are those that are Q-combinations of
    earlier columns: x_f is the primitive integer vector with last nonzero
    entry at f, positive there, and zero on the other free columns. It is
    the kernel's reduced echelon form from the right (``_right_echelon``),
    and what back-substitution through a fraction-free echelon form yields,
    made primitive.

    Method (a certifying algorithm, after McConnell-Mehlhorn-Naher-
    Schweitzer 2011): each candidate is checked exactly over Z against
    every row by a sparse product, the k candidates are reduced to the
    canonical basis of their span, and the rank r = ncols - k is certified
    by one sparse echelon ``_echelon_mod`` modulo a prime of the fixed
    sequence ``_rank_primes``: the basis is returned as soon as some prime
    gives rank_p = r. That sequence starts at the word-size prime 32749,
    whose residue products stay below 2^30 (one-digit ints, so the usual
    single elimination is cheap), and goes on with the proven Proth primes
    of ``_nullspace_primes``, which are all distinct from it. When r = 0
    no elimination is needed. Once a prime gives rank_p < r, and only then,
    H = isqrt(product of the r largest squared row norms) + 1 is formed;
    ``ArithmeticError`` is raised once the product of the primes tried,
    32749 included, exceeds H, or at once when fewer than r rows are
    nonzero; it is also raised for a candidate that fails a row and for
    dependent candidates.

    Why the result is certified:

    * rank_p <= rank_Q: a nonzero r x r minor mod p is nonzero over Z.
    * k independent exact solutions give rank_Q <= ncols - k = r.
    * So rank_p = r means rank_Q = r and the kernel has dimension k: it is
      exactly the span of the candidates, and the reduced echelon form
      from the right of that span is unique, so it is the canonical basis.
    * When rank_Q = r, some r x r minor D is nonzero, and Hadamard's
      inequality bounds |D| by the product of the norms of its r rows,
      which is below H. Each prime with rank_p < r divides D; distinct
      primes whose product exceeds H cannot all divide D, so their failure
      proves rank_Q < r: the candidates do not span the kernel. Fewer than
      r nonzero rows prove the same directly.
    """
    if any(not 0 <= c < ncols for row in rows for c, _ in row) or any(
        len(v) != ncols for v in candidates
    ):
        raise ValueError("column index or candidate length does not match the column count")
    for v in candidates:
        if any(sum([a * v[k] for k, a in row]) for row in rows):
            raise ArithmeticError("a candidate is not in the kernel")
    basis = _right_echelon(candidates, ncols)
    r = ncols - len(basis)
    if r == 0:
        return basis
    if sum(1 for row in rows if row) >= r:
        modulus = 1
        for p in _rank_primes():
            if len(_echelon_mod(rows, p)) == r:
                return basis
            if modulus == 1:
                # the first failed prime: a passing proof needs no bound
                norms = sorted(sum(a * a for _, a in row) for row in rows)
                bound = isqrt(prod(norms[-r:])) + 1
            modulus *= p
            if modulus > bound:
                break
    raise ArithmeticError("rank below ncols - k: the candidates miss kernel vectors")


def _det_mod(rows, m: int) -> int:
    """det mod m of the square matrix of sparse ``rows``, from one
    ``_echelon_mod`` (whose ``ValueError`` on a non-unit pivot passes on)."""
    n = len(rows)
    pivots = _echelon_mod(rows, m)
    if len(pivots) < n:
        return 0
    perm = [0] * n
    d = 1
    for i, c, v, _ in pivots:
        perm[i] = c
        d = d * v % m
    # the sign of a permutation is (-1)^(n - number of cycles)
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -d % m if (n - cycles) % 2 else d


def det_int(int_rows) -> int:
    """Determinant of a square integer matrix, by a certified multimodular
    method (Abbott-Bronstein-Mulders 1999).

    With H = isqrt(prod ||row||^2) + 1, the primes needed are the shortest
    prefix of the proven sequence ``_nullspace_primes`` (Proth primes only:
    the modulus must pass 2*H, so the word-size prime that
    ``certified_kernel`` tries first would only add a round) whose product
    M exceeds 2*H. One round, a single sparse elimination ``_echelon_mod``
    modulo M itself, usually gives det mod M: the 276 x 276 Fujiki Gram,
    whose bound needs five primes, is eliminated once, modulo a 667-bit M,
    at little more than the cost of one elimination modulo one prime. If a
    pivot is not a unit mod M (it shares one of the primes, as an entry
    divisible by a Proth prime can make it), that round is dropped and the
    CRT loop takes the primes of the prefix one per round. The residue of
    det in (-M/2, M/2] is returned. A 0x0 matrix has determinant 1; a non-square input raises
    ``ValueError``.

    Why the result is exact:

    * Mod any m, ``_echelon_mod`` applies only row additions, each a unit
      pivot's row times a multiple of its inverse, so the rows R_k as they
      stood when chosen (k-th pivot at row i_k, column c_k, value v_k) have
      the input's determinant in Z/m. R_k is zero on c_1 .. c_(k-1), so in
      the order k of the rows and columns the matrix is triangular, and
      det = sign(i_k -> c_k) * v_1 * ... * v_n mod m: the Leibniz expansion
      of a triangular matrix holds over any commutative ring. Fewer than n
      pivots means a row vanished mod m, and a matrix with a zero row has
      determinant 0 in Z/m.
    * So every round gives det mod its modulus, composite or prime, and no
      modulus is unlucky; a round whose pivot is not a unit gives nothing
      and is not counted. Either the one round modulo M is counted, or the
      rounds modulo the distinct primes of M, which the Chinese remainder
      theorem combines into det mod M.
    * Hadamard's inequality gives |det| <= prod ||row|| < H, and two
      integers of absolute value below H that agree mod M > 2*H are equal,
      so the symmetric residue is det.
    """
    n = len(int_rows)
    if any(len(r) != n for r in int_rows):
        raise ValueError("determinant of a non-square matrix")
    rows = _sparse_rows(int_rows)
    bound = 2 * (isqrt(prod(sum(v * v for _, v in r) for r in rows)) + 1)
    primes, modulus = [], 1
    for p in _nullspace_primes():
        primes.append(p)
        modulus *= p
        if modulus > bound:
            break
    try:
        det = _det_mod(rows, modulus)
    except ValueError:
        # a pivot shares a prime with the product: one prime per round
        det, modulus = 0, 1
        for p in primes:
            det += modulus * ((_det_mod(rows, p) - det) * pow(modulus, -1, p) % p)
            modulus *= p
    return det if 2 * det <= modulus else det - modulus


def signature_symmetric(m: Mat) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Sylvester's law of inertia on an exact LDL^T: symmetric Gaussian
    elimination by congruence over the integers, fraction-free in Bareiss'
    manner, so every pivot is a leading principal minor D_k of a congruent
    matrix and the k-th diagonal entry of D has the sign of D_k * D_(k-1).
    A zero diagonal pivot is avoided by moving in a row with a nonzero
    diagonal; when every remaining diagonal entry is zero, row and column j
    are added to row and column i (giving the diagonal entry 2*a_ij); a
    remaining all-zero row counts as a zero eigenvalue. Cost is n^3 integer
    operations on entries no larger than the minors of the input.
    """
    if not m.is_symmetric():
        raise ValueError("signature of a non-symmetric matrix")
    # scaling by the positive common denominator keeps the inertia
    A = [list(r) for r in m.scaled_int_rows()[1]]
    active = list(range(m.rows))
    n_pos = n_neg = n_zero = 0
    prev = 1
    while active:
        live = [i for i in active if any(A[i][j] for j in active)]
        n_zero += len(active) - len(live)
        active = live
        if not active:
            break
        k = next((i for i in active if A[i][i]), None)
        if k is None:
            k = active[0]
            j = next(j for j in active if A[k][j])
            for t in active:
                A[k][t] += A[j][t]
            for t in active:
                A[t][k] += A[t][j]
        p = A[k][k]
        if (p > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        active = [i for i in active if i != k]
        rk = A[k]
        for i in active:
            ri = A[i]
            aik = ri[k]
            for j in active:
                q, r = divmod(p * ri[j] - aik * rk[j], prev)
                if r:
                    raise ArithmeticError("inexact Bareiss division")
                ri[j] = q
        prev = p
    return n_pos, n_neg, n_zero
