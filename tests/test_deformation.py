"""The linear fixed-point system attached to a polarized instance: its
solution space is always two-dimensional with explicit generators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklattice import deformation_fix
from hklattice.deformation_fix import (
    FixInstance,
    FixSolution,
    expected_generators,
    random_instance,
    solve_fixed_space,
    verify_generators,
)
from hklattice.exact_linalg import Mat
from oracles import polarization_kernel

F = Fraction


class TestFixInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixInstance(Mat([[1, 2], [3, 4]]), [1, 0])  # not symmetric
        with pytest.raises(ValueError):
            FixInstance(Mat([[1, 1], [1, 1]]), [1, 0])  # singular
        with pytest.raises(ValueError):
            FixInstance(Mat.identity(2), [0, 0])  # zero polarization

    def test_json_roundtrip(self):
        inst = FixInstance(Mat([[2, 1], [1, 2]]), [1, -1])
        obj = inst.to_json()
        back = FixInstance(Mat(obj["A"]), obj["s"])
        assert back.A == inst.A and back.s == inst.s

    def test_from_json_is_strict(self):
        A = [["1", "0"], ["0", "1"]]
        assert FixInstance(Mat(A), ["1", "1/2"]).s == (1, F(1, 2))
        for bad in ([True, 0], [1, 0.5], [1.0, 0]):
            with pytest.raises(TypeError):
                FixInstance(Mat(A), bad)
        with pytest.raises(ValueError):
            FixInstance(Mat(A), ["1", "0.5"])


class TestKernel:
    def test_orthogonality_and_count(self, rng):
        for _ in range(5):
            inst = random_instance(rng, rng.randint(2, 7))
            mus = polarization_kernel(inst)
            assert len(mus) == inst.n - 1
            As = [
                sum(inst.A[(i, j)] * inst.s[j] for j in range(inst.n))
                for i in range(inst.n)
            ]
            for mu in mus:
                assert sum(F(m) * a for m, a in zip(mu, As)) == 0


class TestSolve:
    def test_rows_have_at_most_three_nonzeros(self, rng, monkeypatch):
        systems = []
        real = deformation_fix.certified_kernel

        def recording(rows, ncols, candidates):
            systems.append((rows, ncols))
            return real(rows, ncols, candidates)

        monkeypatch.setattr(deformation_fix, "certified_kernel", recording)
        for n in (2, 5, 21):
            inst = random_instance(rng, n)
            assert solve_fixed_space(inst).dimension == 2
            rows, ncols = systems[-1]
            assert (len(rows), ncols) == (n * (n - 1), n * (n + 1) // 2 + 1)
            assert max(sum(1 for x in r if x) for r in rows) <= 3
        # for s = e_1 the basis of s^perp is e_0, e_2: two nonzeros per row
        solve_fixed_space(FixInstance(Mat([[2, 1, 0], [1, 3, 1], [0, 1, 4]]), [0, 1, 0]))
        assert max(sum(1 for x in r if x) for r in systems[-1][0]) == 2

    def test_inverse_is_computed_once(self, monkeypatch):
        calls = []
        real = Mat.inverse
        monkeypatch.setattr(Mat, "inverse", lambda m: calls.append(m) or real(m))
        inst = FixInstance(Mat([[2, 1], [1, 3]]), [1, 1])
        sol = solve_fixed_space(inst)
        assert verify_generators(sol, inst)
        assert len(calls) == 1
        assert expected_generators(inst)[0][0] is inst.A_inv

    def test_a_wrong_or_short_basis_is_not_the_fixed_space(self):
        # negative controls: (I, 0) is no solution, and (A^-1, 2) alone spans
        # only a line of the two-dimensional fixed space
        inst = FixInstance(Mat([[2, 1], [1, 3]]), [1, 1])
        wrong = FixSolution([(inst.A_inv, F(2)), (Mat.identity(2), F(0))])
        short = FixSolution([(inst.A_inv, F(2))])
        assert not verify_generators(wrong, inst)
        assert not verify_generators(short, inst)

    def test_identity_2x2(self):
        inst = FixInstance(Mat.identity(2), [1, 0])
        sol = solve_fixed_space(inst)
        assert sol.dimension == 2
        assert verify_generators(sol, inst)

    def test_expected_generators_satisfy_system(self):
        # (A^-1, 2): c0*mu - 2*A^-1*A*mu = 2mu - 2mu = 0 for every mu
        inst = FixInstance(Mat([[2, 1], [1, 3]]), [1, 1])
        gens = expected_generators(inst)
        assert len(gens) == 2
        C, c0 = gens[0]
        assert C == inst.A.inverse() and c0 == 2
        C, c0 = gens[1]
        assert c0 == 0
        assert C == Mat(
            [[inst.s[i] * inst.s[j] for j in range(inst.n)] for i in range(inst.n)]
        )

    def test_random_small(self, rng):
        for _ in range(8):
            inst = random_instance(rng, rng.randint(3, 8))
            sol = solve_fixed_space(inst)
            assert sol.dimension == 2, inst.to_json()
            assert verify_generators(sol, inst), inst.to_json()

    def test_scaling_polarization_keeps_space(self, rng):
        inst = random_instance(rng, 5)
        scaled = FixInstance(inst.A, [3 * x for x in inst.s])
        a = solve_fixed_space(inst)
        b = solve_fixed_space(scaled)
        assert a.dimension == b.dimension == 2
        # each spans the other's solution space
        assert verify_generators(a, scaled)
        assert verify_generators(b, inst)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_dimension_always_two(n, seed):
    import random

    inst = random_instance(random.Random(seed), n)
    sol = solve_fixed_space(inst)
    assert sol.dimension == 2
    assert verify_generators(sol, inst)


def test_solution_type_shape(rng):
    inst = random_instance(rng, 3)
    sol = solve_fixed_space(inst)
    assert isinstance(sol, FixSolution)
    for mat, c0 in sol.pairs:
        assert mat.is_symmetric()
        assert mat.shape == (3, 3)
