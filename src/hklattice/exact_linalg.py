"""Exact rational matrices and integer lattices.

``Mat`` is an immutable exact rational matrix. ``Lattice`` is a finitely
generated free submodule of Q^n given by a basis, stored in a canonical form
so that structural equality decides equality of the underlying sets of
vectors. ``FiniteAbelianGroup`` holds only the invariant factors of a
finite quotient, which ``quotient_invariants`` reads off one Smith diagonal
(``kernels.snf_diagonal``).

Canonical lattice form: a pair ``(den, H)`` with ``den`` the smallest
positive integer such that ``den * M`` is an integer lattice and ``H`` the
row-style Hermite normal form of a basis of ``den * M``. Both are uniquely
determined by the module ``M``: any integer ``e`` with ``e * M`` integral is
a multiple of ``den``, and HNF is a canonical form for integer row spans.

Python integers do the work. A ``Mat`` is stored the same way, as integer
rows over its smallest positive denominator, and lattices, their forms and
the rational vectors fed to them are handled as integer rows over one
denominator; ``Fraction`` values are made only at the edges (reading a
``Mat`` entry, ``basis_rows``, ``rational_coords``, a ``coset_feasible``
witness) and rationals are printed by the one formatter ``_frac_str``.
Integer rows over a denominator are brought to lowest terms by the one
helper ``_lowest_terms`` (``Mat``, ``Lattice`` and ``h4_model.H4Class``).
``Mat.from_int_rows`` and ``Lattice.from_int_rows`` check their entries;
matrices the library computes (sums, products, transposes, inverses, Gram
matrices) take the private ``Mat._of``, which only normalizes, and
lattices it spans from its own integer rows take
``Lattice._from_int_rows``. ``Mat.inverse`` is a fraction-free
Gauss-Jordan on the integer rows.

Each job of the layer has one function: ``left_kernel`` is the saturated
left kernel of an integer matrix (the rows of the HNF transform below the
rank), behind ``lattice_meet``, orthogonal complements, transcendental
lattices and the deformation polarization kernel; ``_pair`` is the
bilinear value u * F * v^T over the sparse rows of F, behind the degree-2
form and the degree-4 Fujiki pairing.

There is one vector API: ``Lattice.contains``, ``coords`` and
``divisibility`` take a vector v and a denominator den (default 1) and
work on v/den. The entries of v may be ints, Fractions or "p/q" strings;
an all-int v is used as it is, so integer numerators over one denominator
need no conversion. ``coset_feasible`` takes its covector the same way.

The matrices of the degree-4 lattice are very sparse (its 276x276 HNF basis
has 371 nonzeros), so loops walk nonzeros only, in one sparse row form: per
integer row, a tuple of ``(column, value)`` pairs in ascending column order
(``_sparse_rows``). A ``Lattice`` keeps its basis in that form once, and
rational coordinates and basis-value products walk it; membership, integer
coordinates and divisibility call ``kernels.solve_left_int_row`` on the
dense HNF rows. A ``Mat`` builds its sparse rows once on demand
(``Mat.sparse_rows``). Integer rows are combined by the one loop
``_combine_rows`` over sparse rows, which ``combine_basis`` uses to lift
coefficient rows through a lattice basis.

Two certified modular routines share one sparse elimination modulo proven
Proth primes (``_echelon_mod``, which also records its row multipliers, so
its pivots are an LU factorization mod p):

* ``rational_nullspace`` is a p-adic nullspace for large sparse integer
  systems: one elimination, Dixon lifting of the canonical kernel vectors
  through its factors, rational reconstruction, exact verification over Z,
  and a rank bound that proves the verified basis complete.
* ``det_int`` is every determinant of the library: det mod p from the
  pivots and the row-to-pivot-column permutation, combined by CRT until the
  modulus passes twice Hadamard's bound, so no prime can be unlucky.

``saturation_int`` saturates an integer row span by congruences on its
HNF, without a Smith form. The docstrings carry the proofs. Input numbers
are parsed strictly by
``parse_int`` and ``parse_rational`` (and their vector forms ``int_vector``
and ``fraction_vector``): no float is truncated and no bool becomes 1.

All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, lcm

from . import kernels


class NonIntegerMatrixError(ValueError):
    """An operation that requires integer entries got a proper fraction."""


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
    """An iterable of exact integers as a tuple; raises like ``parse_int``."""
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
    ``den * M``, so equal matrices have equal storage. Arithmetic,
    transpose, determinant, inverse and JSON run on the integers; a
    ``Fraction`` is made only when an entry is read (``m[i, j]``, ``row``,
    iteration). Supports +, -, unary -, scalar and matrix multiplication,
    and JSON round-tripping as an array of arrays of "p/q" strings. The
    symmetry test, the sparse rows and the JSON text are computed once per
    matrix.
    """

    __slots__ = ("_den", "_num", "_hash", "_symmetric", "_json", "_sparse")

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
        self._hash = None
        self._symmetric = None
        self._json = None
        self._sparse = None

    @classmethod
    def from_int_rows(cls, rows, den: int = 1) -> "Mat":
        """The matrix rows/den for integer rows and an integer den > 0."""
        if parse_int(den) <= 0:
            raise ValueError("denominator must be positive")
        return cls._of([int_vector(r) for r in rows], den)

    @classmethod
    def _of(cls, rows, den: int) -> "Mat":
        """The matrix rows/den for a list of int rows the library built and
        an int den > 0, without the entry checks of ``from_int_rows``."""
        m = cls.__new__(cls)
        m._set(den, rows)
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls.from_int_rows([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls.from_int_rows([[0] * cols for _ in range(rows)])

    @property
    def rows(self) -> int:
        return len(self._num)

    @property
    def cols(self) -> int:
        return len(self._num[0])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._num), len(self._num[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(x, d) for x in self._num[i])

    def __getitem__(self, key):
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def __iter__(self):
        return (self.row(i) for i in range(len(self._num)))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self is other or (self._den == other._den and self._num == other._num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, self._num))
        return self._hash

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    def _plus(self, other, sign: int) -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        da, db = self._den, other._den
        D = lcm(da, db)
        fa, fb = D // da, sign * (D // db)
        return Mat._of(
            [
                [fa * a + fb * b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._num, other._num)
            ],
            D,
        )

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._plus(other, -1)

    def __neg__(self):
        return Mat._of([[-a for a in r] for r in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            return Mat._of(
                _combine_rows(self._num, other.sparse_rows(), other.cols),
                self._den * other._den,
            )
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            p, q = other.numerator, other.denominator
            return Mat._of([[p * a for a in r] for r in self._num], self._den * q)
        return NotImplemented

    def __rmul__(self, other):
        # a Mat on the left multiplies in its own __mul__, so other is a
        # scalar here, and scalars commute
        return self.__mul__(other)

    def transpose(self) -> "Mat":
        return Mat._of(list(zip(*self._num)), self._den)

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

    def int_rows(self) -> list[list[int]]:
        """Entries as plain ints; raises if any entry is a proper fraction."""
        if self._den != 1:
            raise NonIntegerMatrixError("matrix has non-integer entries")
        return [list(r) for r in self._num]

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

    def to_json(self) -> list[list[str]]:
        d, m = self._den, self._num
        if d == 1:
            return [[str(x) for x in r] for r in m]
        return [[_frac_str(x, d) for x in r] for r in m]

    def json_text(self) -> str:
        """``json.dumps(self.to_json())``, serialized once per matrix."""
        if self._json is None:
            self._json = json.dumps(self.to_json())
        return self._json

    @classmethod
    def from_json(cls, obj) -> "Mat":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(obj)


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

    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_trivial(self) -> bool:
        return not self.invariant_factors

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
    rational coordinates and basis lifts walk only their nonzeros. A row's
    pivot is its first pair's column.
    """

    __slots__ = ("ambient_dim", "den", "int_basis", "form", "_sparse")

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

    @staticmethod
    def _canonicalize(ambient_dim, int_rows, den, form):
        H = kernels.hnf(int_rows) if int_rows else []
        den, H = _lowest_terms(den, H) if H else (1, H)
        return Lattice(
            ambient_dim,
            den,
            tuple(tuple(r) for r in H),
            form,
            _canonical=True,
        )

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
        without the entry checks."""
        int_rows = list(int_rows)
        if ambient_dim is None:
            if not int_rows:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = len(int_rows[0])
        if any(len(r) != ambient_dim for r in int_rows):
            raise ValueError("generator length differs from ambient_dim")
        if form is not None:
            _check_form(form, ambient_dim)
        return cls._canonicalize(ambient_dim, int_rows, den, form)

    @classmethod
    def from_generators(cls, rows, ambient_dim=None, form=None) -> "Lattice":
        """Lattice spanned by possibly dependent rational generators."""
        d, int_rows = _scaled_ints(rows)
        if ambient_dim is None and not int_rows:
            raise ValueError("ambient_dim required for an empty generating set")
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

    def basis(self) -> Mat:
        """Canonical basis as rational rows."""
        if not self.int_basis:
            raise ValueError("rank-0 lattice has no basis matrix")
        return Mat._of(self.int_basis, self.den)

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        d = self.den
        return [tuple(Fraction(x, d) for x in row) for row in self.int_basis]

    def with_form(self, form) -> "Lattice":
        if form is not None:
            _check_form(form, self.ambient_dim)
        return Lattice(
            self.ambient_dim, self.den, self.int_basis, form, _canonical=True, _sparse=self._sparse
        )

    def scaled(self, c) -> "Lattice":
        """The lattice c*M."""
        c = parse_rational(c)
        if c == 0:
            raise ValueError("scaling a lattice by zero")
        p = c.numerator
        return Lattice._canonicalize(
            self.ambient_dim,
            [[p * x for x in row] for row in self.int_basis],
            self.den * c.denominator,
            self.form,
        )

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
        """``self.den * v/den`` as an integer list, or None when not integral.

        ``v`` holds ints, Fractions or "p/q" strings; ``den`` is an int > 0.
        """
        den, num = _scaled_vector(v, den)
        if len(num) != self.ambient_dim:
            raise ValueError("vector length differs from ambient_dim")
        g = gcd(self.den, den)
        a, b = self.den // g, den // g
        if b != 1 and any(x % b for x in num):
            return None
        return [x // b * a for x in num]

    def _solve(self, w):
        """Integer x with ``x * int_basis = w``, or None when w is not an
        integer combination of the basis rows (``kernels.solve_left_int_row``
        on the HNF rows, whose pivots are the sparse rows' first columns)."""
        if not self._sparse:
            return None if any(w) else []
        return kernels.solve_left_int_row(self.int_basis, [row[0][0] for row in self._sparse], w)

    def contains(self, v, den: int = 1) -> bool:
        """Whether the rational vector v/den lies in M."""
        w = self._scaled(v, den)
        return w is not None and self._solve(w) is not None

    def coords(self, v, den: int = 1):
        """Integer coordinates of v/den in the canonical basis, or None."""
        w = self._scaled(v, den)
        x = None if w is None else self._solve(w)
        return None if x is None else tuple(x)

    def divisibility(self, v, den: int = 1) -> int:
        """Largest n >= 1 with v/(n*den) still in the lattice."""
        c = self.coords(v, den)
        if c is None:
            raise ValueError("vector is not in the lattice")
        if not any(c):
            raise ValueError("divisibility of the zero vector is undefined")
        return gcd(*c)

    def _rational_coords_int(self, num, den: int):
        """Coordinates of num/den over Q as (D, c) meaning c/D, or None.

        Fraction-free back-substitution against the HNF basis: the residual
        and the coefficients share one denominator D, raised just enough at
        each pivot to keep the division exact. Each step updates the
        residual at the nonzeros of one basis row.
        """
        if len(num) != self.ambient_dim:
            raise ValueError("vector length differs from ambient_dim")
        res = [x * self.den for x in num]
        D = den
        coeffs: list[int] = []
        for row in self._sparse:
            p, h = row[0]
            x = res[p]
            if not x:
                coeffs.append(0)
                continue
            f = h // gcd(x, h)
            if f != 1:
                res = [y * f for y in res]
                coeffs = [c * f for c in coeffs]
                D *= f
            c = res[p] // h
            coeffs.append(c)
            for k, r in row:
                res[k] -= c * r
        if any(res):
            return None
        return D, coeffs

    def rational_coords(self, v):
        """Coordinates of v in the canonical basis over Q, or None.

        Triangular back-substitution against the HNF basis; returns None when
        v lies outside the Q-span.
        """
        d, (w,) = _scaled_ints([v])
        sol = self._rational_coords_int(w, d)
        if sol is None:
            return None
        D, c = sol
        return tuple(Fraction(x, D) for x in c)

    def spans_same_qspace(self, other: "Lattice") -> bool:
        _check_ambient(self, other)
        return self.rank == other.rank and all(
            other._rational_coords_int(row, self.den) is not None
            for row in self.int_basis
        )

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

    def _basis_json(self) -> list[list[str]]:
        d = self.den
        return [[_frac_str(x, d) for x in row] for row in self.int_basis]

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": self._basis_json(),
            "form": None if self.form is None else self.form.to_json(),
        }

    def json_text(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True)``, with the form's
        text serialized once per form rather than once per call."""
        form = "null" if self.form is None else self.form.json_text()
        basis = json.dumps(self._basis_json())
        return f'{{"ambient_dim": {self.ambient_dim}, "basis": {basis}, "form": {form}}}'

    @classmethod
    def from_json(cls, obj) -> "Lattice":
        form = None if obj.get("form") is None else Mat.from_json(obj["form"])
        return cls.from_generators(
            obj["basis"], ambient_dim=obj["ambient_dim"], form=form
        )


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


def combine_basis(coeff_rows, lat: Lattice) -> tuple[int, list[list[int]]]:
    """Lift integer coefficient rows through the canonical basis of a lattice.

    Returns ``(lat.den, rows)`` with ``rows[i] = sum_j coeff_rows[i][j] *
    lat.int_basis[j]``, so the lifted ambient vectors are ``rows[i] /
    lat.den``; the pair feeds ``Lattice._from_int_rows`` directly.
    """
    return lat.den, _combine_rows(coeff_rows, lat._sparse, lat.ambient_dim)


def lattice_join(a: Lattice, b: Lattice) -> Lattice:
    """Smallest lattice containing both operands."""
    _check_ambient(a, b)
    D = lcm(a.den, b.den)
    fa, fb = D // a.den, D // b.den
    rows = [[x * fa for x in row] for row in a.int_basis]
    rows += [[x * fb for x in row] for row in b.int_basis]
    return Lattice._canonicalize(a.ambient_dim, rows, D, a.form)


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


def lattice_meet(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two lattices as sets of vectors.

    Over a common denominator D the operands are integer row spans A and B;
    a vector lies in both iff it is u*A = -w*B for an integer left-kernel
    element (u | w) of the stacked matrix [[A],[B]], and the images u*A of
    a ``left_kernel`` basis generate the intersection.
    """
    _check_ambient(a, b)
    if not a.int_basis or not b.int_basis:
        return Lattice._canonicalize(a.ambient_dim, [], 1, a.form)
    D = lcm(a.den, b.den)
    fa = D // a.den
    fb = D // b.den
    A = [[x * fa for x in row] for row in a.int_basis]
    B = [[x * fb for x in row] for row in b.int_basis]
    # the first len(A) entries of a kernel row are u
    gens = _combine_rows(left_kernel(A + B), _sparse_rows(A), a.ambient_dim)
    return Lattice._canonicalize(a.ambient_dim, gens, D, a.form)


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
    """Index [sup : sub] for a finite-index sublattice."""
    if sub.rank != sup.rank:
        raise NotASublatticeError("rank mismatch: the index would be infinite")
    if sub.rank == 0:
        return 1
    C = _coord_matrix(sub, sup)
    d = det_int(C)
    if d == 0:
        raise NotASublatticeError("degenerate coordinate matrix")
    return -d if d < 0 else d


def quotient_invariants(sub: Lattice, sup: Lattice) -> FiniteAbelianGroup:
    """Invariant factors of sup/sub: the Smith diagonal of the coordinate
    matrix of sub in sup, without its unit entries."""
    if sub.rank != sup.rank:
        raise NotASublatticeError("rank mismatch: quotient is not finite")
    if sub.rank == 0:
        return FiniteAbelianGroup([])
    return FiniteAbelianGroup([d for d in kernels.snf_diagonal(_coord_matrix(sub, sup)) if d > 1])


def divisibility(v, lat: Lattice) -> int:
    """Largest n >= 1 with v/n still in the lattice."""
    return lat.divisibility(v)


def coset_feasible(lat: Lattice, functional, target, den: int = 1):
    """Decide whether some v in lat has functional(v)/den = target.

    ``functional`` is a covector on the ambient coordinates (ints,
    Fractions or "p/q" strings) and ``den`` an int > 0. The image of lat is
    a cyclic subgroup g*Z of Q with g >= 0, and the equation is solvable
    iff target is a multiple of g (only target 0 when g = 0). Returns
    (feasible, witness, g) with witness an ambient vector or None.
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
            zero = tuple(Fraction(0) for _ in range(lat.ambient_dim))
            return True, zero, Fraction(0)
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
    den, (wit,) = combine_basis([coeffs], lat)
    return True, tuple(Fraction(x, den) for x in wit), gen


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


def saturation_int(rows) -> list[list[int]]:
    """HNF basis of the saturation (Q-span of the rows) meet Z^n of integer
    rows, by congruences (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4); no Smith form and no n x n transform.

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
      of the z that also satisfy this column. The P-columns are 0 mod D
      and need no step.
    * z -> z * A / D is injective (A has rank k), so the rows z * A / D of
      the final basis are a basis of S, and their HNF is returned.
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
    for col in zip(*A):
        col = [x % D for x in col]
        if not any(col):
            continue
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
    n = len(H[0])
    S = _combine_rows(Z, _sparse_rows(A), n)
    return kernels.hnf([[x // D for x in r] for r in S])


def saturate_in(sub: Lattice, sup: Lattice) -> Lattice:
    """Saturation of sub inside sup: (sub tensor Q) intersected with sup."""
    _check_ambient(sub, sup)
    C = []
    for row in sub.int_basis:
        sol = sup._rational_coords_int(row, sub.den)
        if sol is None:
            raise NotASublatticeError("vector outside the Q-span of the superlattice")
        # each row only matters up to a rational multiple
        C.append(sol[1])
    if not C:
        return Lattice._canonicalize(sup.ambient_dim, [], 1, sup.form)
    den, gens = combine_basis(saturation_int(C), sup)
    return Lattice._canonicalize(sup.ambient_dim, gens, den, sup.form)


_PROTH_SHIFT = 126
_PROTH_BASES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _proth_primes():
    """Primes N = k * 2^126 + 1 for k = 1, 3, 5, ..., each proven prime.

    Proth's theorem: for odd k < 2^n, N = k * 2^n + 1 is prime exactly when
    a^((N-1)/2) = -1 (mod N) for some a. A base giving neither 1 nor -1
    proves N composite; a candidate on which every listed base gives 1 is
    skipped, so the sequence is fixed and every member is certified.
    """
    for k in count(1, 2):
        N = (k << _PROTH_SHIFT) | 1
        for a in _PROTH_BASES:
            r = pow(a, N >> 1, N)
            if r == N - 1:
                yield N
                break
            if r != 1:
                break


_PRIMES: list[int] = []
_PRIME_SOURCE = _proth_primes()


def _nullspace_primes():
    """The sequence of ``_proth_primes``, each one searched for once per process."""
    for i in count():
        if i == len(_PRIMES):
            _PRIMES.append(next(_PRIME_SOURCE))
        yield _PRIMES[i]


def _echelon_mod(rows, p: int):
    """Sparse echelon of integer rows modulo the prime p, with its row
    multipliers.

    ``rows`` are in the sparse row form. Each step takes the sparsest
    active row, pivots at its smallest column and clears that column from
    the other active rows, which keeps the fill-in low; rows that vanish
    mod p drop out. Returns one ``(i, c, v, items, mults)`` per pivot, in
    elimination order: the input row i, the pivot column c, the pivot value
    v, the rest of the row divided by v, as (column, value) pairs on
    columns that are not earlier pivots, and the multipliers ``(o, f)``:
    input row o had f times that divided row (with its 1 at c) subtracted.
    Only row additions are applied, so the rows as they stood when chosen
    have the input's determinant mod p.

    Together the pivots are an LU factorization of the pivot rows mod p:
    input row i_k equals v_k * R_k + sum_(j<k) f_j * R_j, for the divided
    rows R_j and the multipliers (i_k, f_j) of the earlier pivots.
    """
    active = []
    for i, r in enumerate(rows):
        d = {}
        for c, v in r:
            v %= p
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
        inv = pow(v, -1, p)
        items = [(k, x * inv % p) for k, x in row.items()]
        mults = []
        remaining = []
        for other in active:
            d = other[1]
            f = d.pop(c, 0)
            if f:
                mults.append((other[0], f))
                for k, x in items:
                    w = (d.get(k, 0) - f * x) % p
                    if w:
                        d[k] = w
                    else:
                        d.pop(k, None)
            if d:
                remaining.append(other)
        active = remaining
        pivots.append((i, c, v, items, mults))
    return pivots


def _kernel_mod(pivots, ncols: int, p: int) -> dict[int, list[int]]:
    """Canonical kernel basis modulo the prime p of the rows that
    ``_echelon_mod`` eliminated into ``pivots``.

    Returns ``{f: x_f}``, in ascending
    f, over the free columns f (those that are combinations of earlier
    columns mod p); x_f has last nonzero entry 1 at f and is zero on the
    other free columns. These conditions fix x_f, so the basis is the
    kernel's echelon form from the right.

    Back-substitution already gives that shape, so no further reduction is
    needed. A pivot row of ``_echelon_mod`` pivots at its smallest column c,
    and the rest of the row lies on later pivots and on free columns, all
    past c; solving the pivots in reverse elimination order therefore finds
    every other unknown of the row already solved. With x_f = 1 at f and 0
    on the other free columns, a pivot c > f sees only columns past f: free
    ones, which are 0, and pivots past c, which are 0 by induction on c
    downwards. So x_c = 0 for every c > f. ``rational_nullspace`` lifts
    these vectors p-adically and relies on this shape.
    """
    pivot_cols = {c for _, c, _, _, _ in pivots}
    basis = {}
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [0] * ncols
        x[f] = 1
        for _, c, _, items, _ in reversed(pivots):
            s = 0
            for k, v in items:
                if x[k]:
                    s += v * x[k]
            x[c] = -s % p
        basis[f] = x
    return basis


def _wang(a: int, m: int, bound: int):
    """``(n, d)`` with n = a*d (mod m), |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None (Wang 1981). Unique when 2*bound^2 < m."""
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _primitive_lift(residues, m: int, bound: int):
    """The primitive integer vector of the rational reconstruction of the
    residues mod m, or None if some entry has none."""
    fracs = []
    for a in residues:
        nd = _wang(a, m, bound)
        if nd is None:
            return None
        fracs.append(nd)
    d = lcm(*(q for _, q in fracs))
    v = [n * (d // q) for n, q in fracs]
    g = gcd(*v)
    return [x // g for x in v]


def _solve_mod(pivots, invs, rhs, x, p: int) -> None:
    """Complete x mod p so that each pivot row of ``_echelon_mod`` takes the
    value rhs[i] at x: forward through the multipliers, back through the
    divided rows.

    ``x`` is preset on the free columns and is overwritten on the pivot
    columns; ``rhs`` maps each pivot row (by input index) to its value and
    is overwritten, and the multipliers may only reach pivot rows; ``invs``
    are the inverses mod p of the pivot values. With the divided rows R_k,
    the values z_k = R_k . x follow in elimination order from input row
    i_k = v_k * R_k + sum_(j<k) f_j * R_j, and x at c_k from R_k . x = z_k
    in reverse order, R_k holding 1 at c_k and otherwise only columns that
    are not earlier pivots.
    """
    z = []
    for (i, _, _, _, mults), inv in zip(pivots, invs):
        zk = rhs[i] * inv % p
        z.append(zk)
        if zk:
            for o, f in mults:
                rhs[o] -= f * zk
    for (_, c, _, items, _), zk in zip(reversed(pivots), reversed(z)):
        s = zk
        for k, v in items:
            if x[k]:
                s -= v * x[k]
        x[c] = s % p


def _row_values(rows, x) -> list[int]:
    """The values row . x of sparse integer rows at a dense vector x."""
    return [sum([a * x[k] for k, a in row]) for row in rows]


def _lifted_kernel(rows, pivots, ncols: int, p: int):
    """The canonical kernel vectors from one elimination mod p, lifted
    p-adically (Dixon 1982), or None when p is proven unlucky.

    For each free column f, x with 1 at f and 0 on the other free columns
    is solved from the pivot rows alone: digit y_0 is the vector of
    ``_kernel_mod``, and each next digit comes from the residual r (the
    pivot rows at the partial sum, over p^t) by one pass of ``_solve_mod``
    and one sparse product. After each digit the partial sum is
    reconstructed by Wang's method; a candidate that satisfies every pivot
    row is the exact solution. It must also vanish past f and satisfy every
    other row, else the prime is unlucky (see ``rational_nullspace``) and
    None is returned.
    """
    invs = [pow(v, -1, p) for _, _, v, _, _ in pivots]
    prows = [rows[i] for i, _, _, _, _ in pivots]
    # only multipliers onto pivot rows reach a value that is read
    used = {i for i, _, _, _, _ in pivots}
    pivots = [
        (i, c, v, items, [(o, f) for o, f in mults if o in used])
        for i, c, v, items, mults in pivots
    ]
    basis = []
    for f, x in _kernel_mod(pivots, ncols, p).items():
        modulus = p
        r = [t // p for t in _row_values(prows, x)]
        while True:
            v = _primitive_lift(x, modulus, isqrt(modulus >> 1))
            if v is not None and not any(_row_values(prows, v)):
                if any(v[f + 1 :]) or any(_row_values(rows, v)):
                    return None
                basis.append(v)
                break
            rhs = {i: -ri for (i, _, _, _, _), ri in zip(pivots, r)}
            y = [0] * ncols
            _solve_mod(pivots, invs, rhs, y, p)
            x = [a + modulus * b for a, b in zip(x, y)]
            r = [(ri + t) // p for ri, t in zip(r, _row_values(prows, y))]
            modulus *= p
    return basis


def rational_nullspace(int_rows, ncols: int) -> list[list[int]]:
    """Canonical basis of the rational kernel {x : row . x = 0 for every row}.

    One vector per free column f, in ascending order of f, where the free
    columns F are those that are Q-combinations of earlier columns (the
    non-pivot columns of the row echelon form). x_f is the primitive
    integer vector with last nonzero entry at f, positive there, and zero
    on F minus f: exactly what back-substitution through a fraction-free
    echelon form yields, made primitive.

    Method (certified p-adic nullspace, after Dixon 1982 and
    Chen-Storjohann 2005): one sparse echelon modulo a prime p of a fixed
    sequence of proven primes of about 130 bits (``_echelon_mod``, with its
    multipliers) gives rank_p pivot rows I, pivot columns P and the free
    set F_p. For each f in F_p, ``_lifted_kernel`` solves the pivot rows
    with x = 1 at f and 0 on F_p minus f by p-adic lifting through that
    one factorization, reconstructs by Wang's method until a candidate
    satisfies every pivot row, and checks it exactly over Z against every
    row, and for zeros past f. The basis is returned when every f passes;
    a failure moves to the next prime, whose elimination starts afresh.

    Why the result is certified:

    * The pivot block (rows I, columns P) is nonsingular mod p, so it is
      nonsingular over Q, and rank_Q >= rank_p. The pivot rows with x fixed
      on F_p therefore have exactly one rational solution, and a candidate
      satisfying them is that solution.
    * A candidate that satisfies every pivot row but fails another row
      proves rank_p < rank_Q: when the ranks are equal the pivot rows span
      the row space over Q. One that satisfies every row but is nonzero
      past f proves F_p != F_Q: were the ranks and free sets equal, it
      would be the canonical x_f (last bullet), which vanishes past f.
      Either way p is unlucky and the next prime is taken.
    * When every x_f, f in F_p, satisfies every row and vanishes past f:
      the |F_p| = n - rank_p vectors are independent kernel vectors (1 at
      f, 0 on F_p minus f), so rank_Q <= rank_p and the ranks are equal.
      Each x_f shows that column f is a Q-combination of earlier columns,
      so F_p lies in F_Q, and |F_Q| = n - rank_Q = |F_p| gives F_p = F_Q.
      A kernel vector is fixed by its entries on F_Q (the pivot block is
      nonsingular), so x_f is the canonical vector, made primitive.

    The loop needs no give-up path. Only finitely many primes divide the
    minors that fix the rank and the free set over Q; for every other
    prime the exact solution is the canonical x_f, which satisfies every
    row and vanishes past f, and the lifting reaches it once p^t exceeds
    twice the product of its numerator and denominator bounds, when
    Wang's reconstruction returns it.
    """
    if any(len(r) != ncols for r in int_rows):
        raise ValueError("row length does not match the column count")
    rows = _sparse_rows(int_rows)
    for p in _nullspace_primes():
        basis = _lifted_kernel(rows, _echelon_mod(rows, p), ncols, p)
        if basis is not None:
            return basis


def det_int(int_rows) -> int:
    """Determinant of a square integer matrix, by a certified multimodular
    method (Abbott-Bronstein-Mulders 1999).

    For each prime p of the proven sequence ``_nullspace_primes`` the
    sparse elimination ``_echelon_mod`` gives det mod p; the residues are
    combined by the Chinese remainder theorem until the modulus M exceeds
    2*H, where H = isqrt(prod ||row||^2) + 1, and the residue in
    (-M/2, M/2] is returned. A 0x0 matrix has determinant 1; a non-square
    input raises ``ValueError``.

    Why the result is exact:

    * Mod p, ``_echelon_mod`` applies only row additions, so the rows R_k
      as they stood when chosen (k-th pivot at row i_k, column c_k, value
      v_k) have the input's determinant mod p. R_k is zero on c_1 .. c_(k-1),
      so in the order k of the rows and columns the matrix is triangular,
      and det = sign(i_k -> c_k) * v_1 * ... * v_n mod p. Fewer than n
      pivots means a row vanished: the rank mod p is below n and det = 0
      mod p.
    * Every prime gives det mod p, so no prime is unlucky, and Hadamard's
      inequality gives |det| <= prod ||row|| < H.
    * Two integers of absolute value below H that agree mod M > 2*H are
      equal, so the symmetric residue is det.
    """
    n = len(int_rows)
    if any(len(r) != n for r in int_rows):
        raise ValueError("determinant of a non-square matrix")
    rows = _sparse_rows(int_rows)
    norms = 1
    for r in rows:
        norms *= sum(v * v for _, v in r)
    bound = 2 * (isqrt(norms) + 1)
    det, modulus = 0, 1
    for p in _nullspace_primes():
        pivots = _echelon_mod(rows, p)
        d = 0
        if len(pivots) == n:
            perm = [0] * n
            d = 1
            for i, c, v, _, _ in pivots:
                perm[i] = c
                d = d * v % p
            # the sign of a permutation is (-1)^(n - number of cycles)
            seen = [False] * n
            cycles = 0
            for i in range(n):
                if not seen[i]:
                    cycles += 1
                    while not seen[i]:
                        seen[i] = True
                        i = perm[i]
            if (n - cycles) % 2:
                d = -d % p
        det += modulus * ((d - det) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > bound:
            break
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
