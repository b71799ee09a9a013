"""The integer routes through the lattice layer agree with the rational
routes they replace: saturation inside the degree-4 lattice, the streamed
basis hash, the integer Gram, the coefficient lift, the one-time form check
and the cached class q."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice.bb_lattice import (
    GRAM,
    ExceptionalClass,
    bb_form,
    delta0,
    gram_mat,
    orth_complement_basis,
    sample_exceptional,
    sample_polarization_even,
    sample_polarization_odd,
)
from hklattice.exact_linalg import (
    AmbientMismatchError,
    Lattice,
    Mat,
    _check_ambient,
    combine_basis,
    fraction_vector,
    int_vector,
    lattice_join,
    lattice_meet,
    parse_int,
    parse_rational,
    saturate_in,
)
from hklattice.h4_model import (
    AMBIENT,
    _inverse_int_symmetric,
    bb_inverse_class,
    fujiki_mat,
    h4_span,
    sym2_embed,
)
from hklattice.hodge_classes import PicardData, minimal_class_search, transcendental

F = Fraction


def _polarizations(n, seed=11):
    rng = random.Random(seed)
    out = []
    for k in range(n):
        if k % 2:
            out.append(sample_polarization_odd(rng))
        else:
            out.append(sample_polarization_even(rng, bool(k % 4)))
    return out


def test_saturate_in_h4_equals_saturate_scale_meet(h4):
    z = Lattice.standard(AMBIENT, form=fujiki_mat())
    for l0 in _polarizations(6):
        span = h4_span([sym2_embed(l0, l0), h4.q])
        old = lattice_meet(
            h4.lattice, saturate_in(span, z).scaled(F(1, h4.lattice.den))
        )
        assert saturate_in(span, h4.lattice) == old


def test_basis_hash_equals_full_json_digest(h4):
    for l0 in _polarizations(2, seed=3):
        pd = PicardData.rank_one(l0)
        rep = minimal_class_search(pd, h4)
        T = transcendental(pd)
        h = hashlib.sha256()
        h.update(json.dumps(rep.search_lattice.to_json(), sort_keys=True).encode())
        h.update(json.dumps(T.to_json(), sort_keys=True).encode())
        assert rep.basis_hash == h.hexdigest()[:16]


def test_json_text_matches_sorted_dumps():
    lats = [
        Lattice.from_generators([[F(1, 2), 1], [0, 3]]),
        Lattice.from_generators([[F(1, 3), F(-2, 5)]], form=Mat([[2, F(1, 2)], [F(1, 2), 0]])),
        Lattice.from_generators([], ambient_dim=2, form=Mat([[1, 0], [0, 1]])),
    ]
    for lat in lats:
        assert lat.json_text() == json.dumps(lat.to_json(), sort_keys=True)


small_rows = st.lists(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=3, max_size=3),
    min_size=1,
    max_size=3,
)
small_forms = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=6, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(small_rows, small_forms)
def test_integer_gram_equals_fraction_product(rows, upper):
    f = [[0] * 3 for _ in range(3)]
    it = iter(upper)
    for i in range(3):
        for j in range(i, 3):
            f[i][j] = f[j][i] = next(it)
    form = Mat(f)
    lat = Lattice.from_generators(rows, ambient_dim=3, form=form)
    if lat.rank == 0:
        return
    B = lat.basis()
    assert lat.gram() == B * form * B.transpose()


@settings(max_examples=60, deadline=None)
@given(small_rows, st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), max_size=3))
def test_combine_basis_equals_fraction_combination(rows, coeffs):
    lat = Lattice.from_generators(rows, ambient_dim=3)
    coeffs = [c[: lat.rank] for c in coeffs]
    den, out = combine_basis(coeffs, lat)
    basis = lat.basis_rows()
    for c, v in zip(coeffs, out):
        want = [sum((x * b[k] for x, b in zip(c, basis)), F(0)) for k in range(3)]
        assert [F(x, den) for x in v] == want


@settings(max_examples=60, deadline=None)
@given(small_rows, st.lists(st.integers(-4, 4), min_size=3, max_size=3), st.integers(1, 7))
def test_rational_coords_reconstruct(rows, coeffs, den):
    lat = Lattice.from_generators(rows, ambient_dim=3)
    basis = lat.basis_rows()
    v = [sum((F(c, den) * b[k] for c, b in zip(coeffs, basis)), F(0)) for k in range(3)]
    c = lat.rational_coords(v)
    assert c is not None
    assert [sum((x * b[k] for x, b in zip(c, basis)), F(0)) for k in range(3)] == v


def test_non_symmetric_form_rejected():
    bad = Mat([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Lattice.from_generators([[1, 0]], form=bad)
    with pytest.raises(ValueError):
        Lattice.from_int_rows([[1, 0]], 1, form=bad)
    with pytest.raises(ValueError):
        Lattice.standard(2, form=bad)
    with pytest.raises(ValueError):
        Lattice.standard(2).with_form(bad)


def test_form_symmetry_checked_once_per_form(monkeypatch):
    calls = []
    original = Mat.is_symmetric

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Mat, "is_symmetric", counting)
    form = Mat([[2, 1], [1, 2]])
    for k in range(1, 5):
        Lattice.from_generators([[k, 0], [0, 1]], form=form)
        Lattice.standard(2, form=form)
    assert len(calls) == 1


def test_equal_forms_built_apart_are_one_ambient():
    a = Lattice.standard(23, form=gram_mat())
    b = Lattice.standard(23, form=Mat(GRAM))
    _check_ambient(a, b)
    assert a == b
    assert lattice_join(a, b) == a
    c = Lattice.standard(23, form=Mat([[int(i == j) for j in range(23)] for i in range(23)]))
    with pytest.raises(AmbientMismatchError):
        _check_ambient(a, c)
    assert a != c


def test_shared_forms():
    assert gram_mat() is gram_mat()
    assert fujiki_mat() is fujiki_mat()


def test_default_q_cached_and_sampled_q_rebuilt(h4):
    q = bb_inverse_class()
    assert bb_inverse_class() is q
    assert bb_inverse_class(ExceptionalClass(delta0())) is q
    d0 = ExceptionalClass(delta0())
    assert bb_inverse_class(d0, orth_complement_basis(d0)) == q
    d = sample_exceptional(random.Random(8))
    qd = bb_inverse_class(d)
    assert qd is not bb_inverse_class(d)
    assert qd == q == h4.q


def test_integer_inverse_of_unimodular_matrix():
    basis = orth_complement_basis(delta0())
    g = [[bb_form(x, y) for y in basis] for x in basis]
    assert _inverse_int_symmetric(g) == Mat(g).inverse().int_rows()
    with pytest.raises(ArithmeticError):
        _inverse_int_symmetric([[2, 0], [0, 1]])


def test_strict_number_parsers():
    assert parse_int(-3) == -3
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError):
            parse_int(bad)
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("7") == 7
    assert parse_rational(F(2, 3)) == F(2, 3)
    for bad in (False, 0.5):
        with pytest.raises(TypeError):
            parse_rational(bad)
    for bad in ("0.5", "1/0", "1e3", " 1", "1/-2"):
        with pytest.raises(ValueError):
            parse_rational(bad)
    assert int_vector([1, -2]) == (1, -2)
    for bad in ([1, True], [1, 2.0], ["3"]):
        with pytest.raises(TypeError):
            int_vector(bad)
    assert fraction_vector([1, "1/2", F(2, 3)]) == (1, F(1, 2), F(2, 3))
    for bad in ([0.5], [True]):
        with pytest.raises(TypeError):
            fraction_vector(bad)
