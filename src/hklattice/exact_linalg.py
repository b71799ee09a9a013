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

Python integers do the work: lattices, their forms and the rational vectors
fed to them are handled as integer rows over one positive denominator, and
``Fraction`` values appear only at the edges (``Mat`` entries,
``basis_rows``, ``rational_coords``, JSON). Integer coefficient rows are
lifted through a lattice basis by the one helper ``combine_basis``. Input
numbers are parsed strictly by ``parse_int`` and ``parse_rational`` (and
their vector forms ``int_vector`` and ``fraction_vector``): no float is
truncated and no bool becomes 1.

All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

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


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _ratio_str(x: int, d: int) -> str:
    """_frac_str(Fraction(x, d)) for d > 0, without building the Fraction."""
    g = gcd(x, d)
    if g == d:
        return str(x // d)
    return f"{x // g}/{d // g}"


def _scaled_ints(vectors) -> tuple[int, list[list[int]]]:
    """Smallest d > 0 making the rational vectors integral, and d times them."""
    vecs = [fraction_vector(v) for v in vectors]
    d = lcm(*(x.denominator for v in vecs for x in v)) if vecs else 1
    return d, [[x.numerator * (d // x.denominator) for x in v] for v in vecs]


class Mat:
    """Immutable exact rational matrix.

    Supports +, -, unary -, scalar and matrix multiplication, transpose,
    exact determinant and inverse, and JSON round-tripping as an array of
    arrays of "p/q" strings. Entries read back as reduced Fractions.

    A matrix built by ``from_int_rows`` keeps only its integer rows and
    makes the Fraction entries on first use, so a large integer form (the
    276x276 degree-4 Gram) that is only ever read as integers never holds
    Fractions. The symmetry test and the JSON text are computed once per
    matrix.
    """

    __slots__ = ("_rows", "_int", "_shape", "_hash", "_symmetric", "_json")

    def __init__(self, rows):
        data = tuple(fraction_vector(r) for r in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        ncols = len(data[0])
        if ncols == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        self._rows = data
        self._int = None
        self._shape = (len(data), ncols)
        self._hash = None
        self._symmetric = None
        self._json = None

    @classmethod
    def from_int_rows(cls, rows) -> "Mat":
        """The integer matrix with the given rows (kept as ints, not copied
        to Fractions)."""
        data = tuple(int_vector(r) for r in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        if any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        m = cls.__new__(cls)
        m._rows = None
        m._int = (1, data)
        m._shape = (len(data), len(data[0]))
        m._hash = None
        m._symmetric = None
        m._json = None
        return m

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls([[0] * cols for _ in range(rows)])

    def _fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            d, m = self._int
            self._rows = tuple(tuple(Fraction(x, d) for x in r) for r in m)
        return self._rows

    @property
    def rows(self) -> int:
        return self._shape[0]

    @property
    def cols(self) -> int:
        return self._shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._fractions()[i]

    def rows_tuple(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._fractions()

    def __getitem__(self, key):
        i, j = key
        return self._fractions()[i][j]

    def __iter__(self):
        return iter(self._fractions())

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self is other:
            return True
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        return self.scaled_int_rows() == other.scaled_int_rows()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.scaled_int_rows())
        return self._hash

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols})"

    def __add__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self._shape != other._shape:
            raise ValueError("shape mismatch")
        return Mat(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._fractions(), other._fractions())
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self._shape != other._shape:
            raise ValueError("shape mismatch")
        return Mat(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._fractions(), other._fractions())
            ]
        )

    def __neg__(self):
        return Mat([[-a for a in r] for r in self._fractions()])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            bt = list(zip(*other._fractions()))
            return Mat(
                [[_dot(r, c) for c in bt] for r in self._fractions()]
            )
        if isinstance(other, (int, Fraction)):
            return Mat([[a * other for a in r] for r in self._fractions()])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Mat([[other * a for a in r] for r in self._fractions()])
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat(list(zip(*self._fractions())))

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            if self.rows != self.cols:
                self._symmetric = False
            else:
                R = self._int[1] if self._rows is None else self._rows
                self._symmetric = all(
                    R[i][j] == R[j][i] for i in range(self.rows) for j in range(i)
                )
        return self._symmetric

    def is_integer(self) -> bool:
        if self._int is not None:
            return self._int[0] == 1
        return all(x.denominator == 1 for r in self._rows for x in r)

    def int_rows(self) -> list[list[int]]:
        """Entries as plain ints; raises if any entry is a proper fraction."""
        if not self.is_integer():
            raise NonIntegerMatrixError("matrix has non-integer entries")
        return [list(r) for r in self.scaled_int_rows()[1]]

    def denominator_lcm(self) -> int:
        return self.scaled_int_rows()[0]

    def scaled_int_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """Smallest d > 0 with d*self integral, and the integer entries of d*self.

        Computed once per matrix; the rows are shared, so do not mutate them.
        """
        if self._int is None:
            d, m = _scaled_ints(self._rows)
            self._int = (d, tuple(tuple(r) for r in m))
        return self._int

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        d, m = self.scaled_int_rows()
        return Fraction(kernels.det_bareiss(m), d**self.rows)

    def inverse(self) -> "Mat":
        """Exact inverse by Gauss-Jordan elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = [
            list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(self._fractions())
        ]
        for col in range(n):
            piv = next((i for i in range(col, n) if aug[i][col]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            aug[col], aug[piv] = aug[piv], aug[col]
            pv = aug[col][col]
            if pv != 1:
                aug[col] = [x / pv for x in aug[col]]
            prow = aug[col]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [a - f * b for a, b in zip(aug[i], prow)]
        return Mat([r[n:] for r in aug])

    def to_json(self) -> list[list[str]]:
        d, m = self.scaled_int_rows()
        if d == 1:
            return [[str(x) for x in r] for r in m]
        return [[_ratio_str(x, d) for x in r] for r in m]

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


def _dot(a, b) -> Fraction:
    s = Fraction(0)
    for x, y in zip(a, b):
        if x and y:
            s += x * y
    return s


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
    """

    __slots__ = ("ambient_dim", "den", "int_basis", "form", "_pivots")

    def __init__(self, ambient_dim: int, den: int, int_basis, form=None, _canonical=False):
        if not _canonical:
            raise TypeError("use Lattice.from_rows / from_generators / standard")
        self.ambient_dim = ambient_dim
        self.den = den
        self.int_basis = int_basis
        self.form = form
        self._pivots = kernels.pivot_columns(int_basis) if int_basis else []

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
    def from_rows(cls, rows, ambient_dim=None, form=None) -> "Lattice":
        """Lattice with the given basis; rejects dependent rows."""
        rows = list(rows)
        lat = cls.from_generators(rows, ambient_dim=ambient_dim, form=form)
        if lat.rank != len(rows):
            raise ValueError("basis rows are linearly dependent")
        return lat

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
        d = self.den
        return Mat([[Fraction(x, d) for x in row] for row in self.int_basis])

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        d = self.den
        return [tuple(Fraction(x, d) for x in row) for row in self.int_basis]

    def with_form(self, form) -> "Lattice":
        if form is not None:
            _check_form(form, self.ambient_dim)
        return Lattice(self.ambient_dim, self.den, self.int_basis, form, _canonical=True)

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

    def contains_int(self, num, den: int = 1) -> bool:
        """Whether the rational vector num/den (integer num, den > 0) lies in M."""
        w = self._scaled_int(num, den)
        if w is None:
            return False
        if not self.int_basis:
            return not any(w)
        return kernels.solve_left_int_row(self.int_basis, self._pivots, w) is not None

    def coords_int(self, num, den: int = 1):
        """Integer coordinates of num/den in the canonical basis, or None."""
        w = self._scaled_int(num, den)
        if w is None:
            return None
        if not self.int_basis:
            return () if not any(w) else None
        x = kernels.solve_left_int_row(self.int_basis, self._pivots, w)
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
        each pivot to keep the division exact.
        """
        if len(num) != self.ambient_dim:
            raise ValueError("vector length differs from ambient_dim")
        res = [x * self.den for x in num]
        D = den
        coeffs: list[int] = []
        for row, p in zip(self.int_basis, self._pivots):
            x = res[p]
            if not x:
                coeffs.append(0)
                continue
            h = row[p]
            f = h // gcd(x, h)
            if f != 1:
                res = [y * f for y in res]
                coeffs = [c * f for c in coeffs]
                D *= f
            c = res[p] // h
            coeffs.append(c)
            res = [y - c * r for y, r in zip(res, row)]
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
        df, F = self.form.scaled_int_rows()
        B = self.int_basis
        n = self.ambient_dim
        BF = []
        for b in B:
            acc = [0] * n
            for x, frow in zip(b, F):
                if x:
                    acc = [a + x * f for a, f in zip(acc, frow)]
            BF.append(acc)
        D = df * self.den * self.den
        return Mat(
            [[Fraction(sum(a * c for a, c in zip(bf, b)), D) for b in B] for bf in BF]
        )

    def _basis_json(self) -> list[list[str]]:
        d = self.den
        return [[_ratio_str(x, d) for x in row] for row in self.int_basis]

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
    n = lat.ambient_dim
    out = []
    for coeffs in coeff_rows:
        vec = [0] * n
        for c, row in zip(coeffs, lat.int_basis):
            if c:
                vec = [a + c * x for a, x in zip(vec, row)]
        out.append(vec)
    return lat.den, out


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
    ra = len(A)
    gens = []
    for krow in U[rank:]:
        vec = [0] * a.ambient_dim
        for c, Ai in zip(krow[:ra], A):
            if c:
                vec = [v + c * x for v, x in zip(vec, Ai)]
        gens.append(vec)
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
    d = kernels.det_bareiss(C)
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
    vals = [sum(a * x for a, x in zip(f, row) if a) for row in lat.int_basis]
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
