"""Exact rational matrices and integer lattices.

``Mat`` is an immutable exact rational matrix. ``Lattice`` is a finitely
generated free submodule of Q^n given by a basis, stored in a canonical form
so that structural equality decides equality of the underlying sets of
vectors. ``FiniteAbelianGroup`` records invariant factors of finite
quotients.

Canonical lattice form: a pair ``(den, H)`` with ``den`` the smallest
positive integer such that ``den * M`` is an integer lattice and ``H`` the
row-style Hermite normal form of a basis of ``den * M``. Both are uniquely
determined by the module ``M``: any integer ``e`` with ``e * M`` integral is
a multiple of ``den``, and HNF is a canonical form for integer row spans.

Python integers do the work. A ``Mat`` is stored the same way, as integer
rows over its smallest positive denominator, and lattices, their forms and
the rational vectors fed to them are handled as integer rows over one
denominator; ``Fraction`` values are made only at the edges (reading a
``Mat`` entry, ``basis_rows``, ``rational_coords``) and rationals are
printed by the one formatter ``_frac_str``. ``Mat.inverse`` is a
fraction-free Gauss-Jordan on the integer rows.

The matrices of the degree-4 lattice are very sparse (its 276x276 HNF basis
has 371 nonzeros), so loops walk nonzeros only, in one sparse row form: per
integer row, a tuple of ``(column, value)`` pairs in ascending column order
(``_sparse_rows``). A ``Lattice`` keeps its basis in that form once, and
rational coordinates and basis-value products walk it; membership, integer
coordinates and divisibility still call ``kernels.solve_left_int_row`` on
the dense HNF rows. A ``Mat`` builds its sparse rows once on demand
(``Mat.sparse_rows``). Integer rows are combined by the one loop
``_combine_rows`` over sparse rows, which ``combine_basis`` uses to lift
coefficient rows through a lattice basis.

Two certified modular routines share one sparse elimination modulo proven
Proth primes (``_echelon_mod``):

* ``rational_nullspace`` is a modular nullspace for large sparse integer
  systems: rational reconstruction of the canonical kernel basis, exact
  verification over Z, and a rank bound that proves the verified basis
  complete.
* ``det_int`` is every determinant of the library: det mod p from the
  pivots and the row-to-pivot-column permutation, combined by CRT until the
  modulus passes twice Hadamard's bound, so no prime can be unlucky.

Their docstrings carry the proofs. Input numbers are parsed strictly by
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
    if all(type(x) is int for v in vecs for x in v):
        return 1, [list(v) for v in vecs]
    vecs = [fraction_vector(v) for v in vecs]
    d = lcm(*(x.denominator for v in vecs for x in v)) if vecs else 1
    return d, [[x.numerator * (d // x.denominator) for x in v] for v in vecs]


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
        if den != 1:
            g = den
            for r in rows:
                for x in r:
                    if x:
                        g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                den //= g
                rows = [[x // g for x in r] for r in rows]
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
        m = cls.__new__(cls)
        m._set(den, [int_vector(r) for r in rows])
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
        return Mat.from_int_rows(
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
        return Mat.from_int_rows([[-a for a in r] for r in self._num], self._den)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            return Mat.from_int_rows(
                _combine_rows(self._num, other.sparse_rows(), other.cols),
                self._den * other._den,
            )
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return Mat.from_int_rows([[p * a for a in r] for r in self._num], self._den * q)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat.from_int_rows(zip(*self._num), self._den)

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
        return Mat.from_int_rows([[d * x for x in r[n:]] for r in aug], prev)

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


def hnf(m: Mat) -> Mat:
    """Row-style Hermite normal form of an integer matrix (zero rows dropped)."""
    H = kernels.hnf(m.int_rows())
    if not H:
        raise ValueError("zero matrix has no nonzero HNF rows")
    return Mat(H)


class FiniteAbelianGroup:
    """A finite abelian group by invariant factors d1 | d2 | ... | dk, dk >= 2.

    ``generators`` optionally carries one lift per factor (rational ambient
    vectors whose classes generate the cyclic summands). Equality and hashing
    look at the invariant factors only.
    """

    __slots__ = ("invariant_factors", "generators")

    def __init__(self, invariant_factors, generators=None):
        factors = tuple(int(d) for d in invariant_factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if generators is not None:
            generators = tuple(fraction_vector(g) for g in generators)
            if len(generators) != len(factors):
                raise ValueError("need one generator per invariant factor")
        self.invariant_factors = factors
        self.generators = generators

    @classmethod
    def from_diagonal(cls, diag, generators=None) -> "FiniteAbelianGroup":
        """Torsion part of a SNF diagonal: keep the entries >= 2.

        ``generators``, when given, must align with ``diag``; the lifts for
        dropped entries (units and zeros) are discarded.
        """
        keep = [i for i, d in enumerate(diag) if d > 1]
        gens = None
        if generators is not None:
            gens = [generators[i] for i in keep]
        return cls([diag[i] for i in keep], gens)

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

    def to_json(self) -> dict:
        out = {"invariant_factors": list(self.invariant_factors)}
        out["generators"] = (
            None
            if self.generators is None
            else [[_frac_str(x) for x in g] for g in self.generators]
        )
        return out

    @classmethod
    def from_json(cls, obj) -> "FiniteAbelianGroup":
        return cls(obj["invariant_factors"], obj.get("generators"))


def snf(m: Mat) -> FiniteAbelianGroup:
    """Invariant factors (torsion part) of the cokernel of an integer matrix.

    The matrix is read as a relations matrix: its rows are relations on
    Z^cols, and the result is the torsion of Z^cols / rowspan(m).
    """
    diag = kernels.snf_diagonal(m.int_rows())
    return FiniteAbelianGroup.from_diagonal(diag)


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
        if H:
            g = den
            for row in H:
                for x in row:
                    if x:
                        g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                den //= g
                H = [[x // g for x in row] for row in H]
        else:
            den = 1
        return Lattice(
            ambient_dim,
            den,
            tuple(tuple(r) for r in H),
            form,
            _canonical=True,
        )

    @classmethod
    def from_int_rows(cls, int_rows, den: int = 1, ambient_dim=None, form=None) -> "Lattice":
        """Lattice spanned by the vectors row/den for integer rows and den > 0."""
        int_rows = list(int_rows)
        if ambient_dim is None:
            if not int_rows:
                raise ValueError("ambient_dim required for an empty generating set")
            ambient_dim = len(int_rows[0])
        if any(len(r) != ambient_dim for r in int_rows):
            raise ValueError("generator length differs from ambient_dim")
        if parse_int(den) <= 0:
            raise ValueError("denominator must be positive")
        if form is not None:
            _check_form(form, ambient_dim)
        return cls._canonicalize(ambient_dim, int_rows, den, form)

    @classmethod
    def from_generators(cls, rows, ambient_dim=None, form=None) -> "Lattice":
        """Lattice spanned by possibly dependent rational generators."""
        d, int_rows = _scaled_ints(rows)
        if ambient_dim is None and not int_rows:
            raise ValueError("ambient_dim required for an empty generating set")
        return cls.from_int_rows(int_rows, d, ambient_dim, form)

    @classmethod
    def standard(cls, n: int, form=None) -> "Lattice":
        """Z^n."""
        if form is not None:
            _check_form(form, n)
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(n, 1, eye, form, _canonical=True)

    @property
    def rank(self) -> int:
        return len(self.int_basis)

    def basis(self) -> Mat:
        """Canonical basis as rational rows."""
        if not self.int_basis:
            raise ValueError("rank-0 lattice has no basis matrix")
        return Mat.from_int_rows(self.int_basis, self.den)

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

    def _scaled_int(self, num, den):
        """self.den * num/den as an integer list, or None when not integral."""
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

    def contains_int(self, num, den: int = 1) -> bool:
        """Whether the rational vector num/den (integer num, den > 0) lies in M."""
        w = self._scaled_int(num, den)
        return w is not None and self._solve(w) is not None

    def coords_int(self, num, den: int = 1):
        """Integer coordinates of num/den in the canonical basis, or None."""
        w = self._scaled_int(num, den)
        x = None if w is None else self._solve(w)
        return None if x is None else tuple(x)

    def divisibility_int(self, num, den: int = 1) -> int:
        """Largest n >= 1 with num/(n*den) still in the lattice."""
        c = self.coords_int(num, den)
        if c is None:
            raise ValueError("vector is not in the lattice")
        if not any(c):
            raise ValueError("divisibility of the zero vector is undefined")
        return gcd(*c)

    def contains(self, v) -> bool:
        d, (w,) = _scaled_ints([v])
        return self.contains_int(w, d)

    def coords(self, v):
        """Integer coordinates of v in the canonical basis, or None."""
        d, (w,) = _scaled_ints([v])
        return self.coords_int(w, d)

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
        return Mat.from_int_rows(
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
    lat.den``; the pair feeds ``Lattice.from_int_rows`` directly.
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


def lattice_meet(a: Lattice, b: Lattice) -> Lattice:
    """Intersection of two lattices as sets of vectors.

    Over a common denominator D the operands are integer row spans A and B;
    a vector lies in both iff it is u*A = -w*B for an integer left-kernel
    element (u | w) of the stacked matrix [[A],[B]]. hnf_transform returns a
    basis of that kernel, whose images u*A generate the intersection.
    """
    _check_ambient(a, b)
    if not a.int_basis or not b.int_basis:
        return Lattice._canonicalize(a.ambient_dim, [], 1, a.form)
    D = lcm(a.den, b.den)
    fa = D // a.den
    fb = D // b.den
    A = [[x * fa for x in row] for row in a.int_basis]
    B = [[x * fb for x in row] for row in b.int_basis]
    _, U, rank = kernels.hnf_transform(A + B)
    # the first len(A) entries of a kernel row are u
    gens = _combine_rows(U[rank:], _sparse_rows(A), a.ambient_dim)
    return Lattice._canonicalize(a.ambient_dim, gens, D, a.form)


def _coord_matrix(sub: Lattice, sup: Lattice) -> list[list[int]]:
    """Integer coordinates of sub's basis in sup's basis, rows stacked.

    Raises NotASublatticeError unless sub is contained in sup.
    """
    _check_ambient(sub, sup)
    out = []
    for row in sub.int_basis:
        c = sup.coords_int(row, sub.den)
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
    """Invariant factors of sup/sub with generator lifts (ambient vectors)."""
    if sub.rank != sup.rank:
        raise NotASublatticeError("rank mismatch: quotient is not finite")
    if sub.rank == 0:
        return FiniteAbelianGroup([])
    C = _coord_matrix(sub, sup)
    diag, _, vinv = kernels.smith_normal_form(C, want_vinv=True)
    keep = [i for i, d in enumerate(diag) if d > 1]
    den, lifts = combine_basis([vinv[i] for i in keep], sup)
    return FiniteAbelianGroup(
        [diag[i] for i in keep],
        [[Fraction(x, den) for x in v] for v in lifts],
    )


def divisibility(v, lat: Lattice) -> int:
    """Largest n >= 1 with v/n still in the lattice."""
    d, (w,) = _scaled_ints([v])
    return lat.divisibility_int(w, d)


def coset_feasible(lat: Lattice, functional, target):
    """Decide whether some v in lat has functional(v) = target.

    ``functional`` is a rational covector on the ambient coordinates. The
    image functional(lat) is a cyclic subgroup g*Z of Q; the equation is
    solvable iff g divides target (any target works when the image is all
    zero only if target is zero). Returns (feasible, witness) with witness
    an ambient vector or None.
    """
    df, (f,) = _scaled_ints([functional])
    if len(f) != lat.ambient_dim:
        raise ValueError("functional length differs from ambient_dim")
    target = parse_rational(target)
    # the basis values are vals[i] / (df * den)
    vals = [sum(f[c] * x for c, x in row) for row in lat._sparse]
    nz = [(i, x) for i, x in enumerate(vals) if x]
    if not nz:
        if target == 0:
            zero = tuple(Fraction(0) for _ in range(lat.ambient_dim))
            return True, zero
        return False, None
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
        return False, None
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
    return True, tuple(Fraction(x, den) for x in wit)


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


def saturation_int(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the saturation of an integer row span inside Z^n.

    With U*M*V = D in Smith form, the saturation pulls back from the span of
    the first rank coordinate vectors, i.e. the first rank rows of V^-1.
    """
    diag, _, vinv = kernels.smith_normal_form(rows, want_vinv=True)
    r = sum(1 for d in diag if d)
    return [list(vinv[i]) for i in range(r)]


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


def _echelon_mod(rows, p: int) -> list[tuple[int, int, int, list[tuple[int, int]]]]:
    """Sparse echelon of integer rows modulo the prime p.

    ``rows`` are in the sparse row form. Each step takes the sparsest
    active row, pivots at its smallest column and clears that column from
    the other active rows, which keeps the fill-in low; rows that vanish
    mod p drop out. Returns one ``(i, c, v, items)`` per pivot, in
    elimination order: the input row i, the pivot column c, the pivot value
    v and the rest of the row divided by v, as (column, value) pairs on
    columns that are not earlier pivots. Only row additions are applied, so
    the rows as they stood when chosen have the input's determinant mod p.
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
        remaining = []
        for other in active:
            d = other[1]
            f = d.pop(c, 0)
            if f:
                for k, x in items:
                    w = (d.get(k, 0) - f * x) % p
                    if w:
                        d[k] = w
                    else:
                        d.pop(k, None)
            if d:
                remaining.append(other)
        active = remaining
        pivots.append((i, c, v, items))
    return pivots


def _kernel_mod(rows, ncols: int, p: int) -> dict[int, list[int]]:
    """Canonical kernel basis of sparse integer rows modulo the prime p.

    ``rows`` are in the sparse row form. Returns ``{f: x_f}`` over the
    columns f that are combinations of earlier columns mod p; x_f has last
    nonzero entry 1 at f and is zero on the other such columns.
    """
    pivots = [(c, items) for _, c, _, items in _echelon_mod(rows, p)]
    # back-substitution: a pivot row involves only later pivots and free
    # columns, so solve the pivots in reverse order
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        x = [0] * ncols
        x[f] = 1
        for c, items in reversed(pivots):
            s = 0
            for k, v in items:
                if x[k]:
                    s += v * x[k]
            x[c] = -s % p
        basis.append(x)
    # echelon form from the right: reduced, with the last nonzero entries
    # at distinct columns
    done: dict[int, list[int]] = {}
    for c in range(ncols - 1, -1, -1):
        if not basis:
            break
        piv = next((v for v in basis if v[c]), None)
        if piv is None:
            continue
        basis = [v for v in basis if v is not piv]
        inv = pow(piv[c], -1, p)
        piv = [x * inv % p for x in piv]
        for v in (*basis, *done.values()):
            f = v[c]
            if f:
                for k in range(c + 1):
                    if piv[k]:
                        v[k] = (v[k] - f * piv[k]) % p
        done[c] = piv
    return done


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


def rational_nullspace(int_rows, ncols: int) -> list[list[int]]:
    """Canonical basis of the rational kernel {x : row . x = 0 for every row}.

    One vector per free column f, in ascending order of f, where the free
    columns F are those that are Q-combinations of earlier columns (the
    non-pivot columns of the row echelon form). x_f is the primitive
    integer vector with last nonzero entry at f, positive there, and zero
    on F minus f: exactly what back-substitution through a fraction-free
    echelon form yields, made primitive.

    Method (certified modular nullspace, after Dixon 1982 and
    Chen-Storjohann 2005): for each prime p of a fixed sequence of proven
    primes of about 130 bits, a sparse echelon mod p gives the canonical
    basis mod p and its free set F_p. Primes whose pivot count or free set
    differ from the best seen so far are dropped (a better one restarts the
    accumulation); the others are combined by the Chinese remainder
    theorem. After each prime every entry is reconstructed as a fraction by
    Wang's method, denominators are cleared, each vector is made primitive
    and checked exactly against every row over Z. The loop ends when all
    |F_p| vectors are verified. Reconstruction keeps the shape of the
    residues (the entries 1 at f and 0 on F minus f and past f), so every
    candidate x_f has that shape.

    Why the result is certified:

    * A minor that is nonzero mod p is nonzero over Z, so rank_Q >= rank_p
      and nullity_Q <= nullity_p = |F_p|.
    * Each verified x_f shows that column f is a Q-combination of earlier
      columns, so F_p is contained in F_Q, and the verified vectors are
      independent (distinct last nonzero columns).
    * When all |F_p| vectors verify, |F_Q| <= |F_p| gives F_p = F_Q, and
      the vectors are the unique kernel vectors with the stated shape.

    The loop needs no give-up path: only finitely many primes divide the
    minors that fix the rational echelon structure, every other prime has
    the best key (more pivots, then earlier ones), and the growing modulus
    eventually exceeds twice the product of the numerator and denominator
    bounds of the answer, when reconstruction returns it.
    """
    if any(len(r) != ncols for r in int_rows):
        raise ValueError("row length does not match the column count")
    rows = _sparse_rows(int_rows)
    best = None
    for p in _nullspace_primes():
        kern = _kernel_mod(rows, ncols, p)
        free = sorted(kern)
        pivots = [c for c in range(ncols) if c not in kern]
        key = (len(pivots), [-c for c in pivots])
        if best is None or key > best:
            best, modulus = key, p
            residues = [kern[f] for f in free]
        elif key < best:
            continue
        else:
            inv = pow(modulus, -1, p)
            residues = [
                [a + modulus * ((b - a) * inv % p) for a, b in zip(x, kern[f])]
                for x, f in zip(residues, free)
            ]
            modulus *= p
        bound = isqrt(modulus >> 1)
        basis = []
        for x in residues:
            v = _primitive_lift(x, modulus, bound)
            if v is None or any(sum(c * v[k] for k, c in r) for r in rows):
                break
            basis.append(v)
        if len(basis) == len(residues):
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
            for i, c, v, _ in pivots:
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
