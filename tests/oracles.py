"""Smith-form routes kept as test oracles for the library's Smith-free ones.

``smith_saturation_int`` is the saturation by a full Smith form with its
right transform; ``SmithTorsionQuotient`` reads the degree-4 torsion
quotient off the Smith form of the coordinate matrix of Z^276 in the
lattice, with the 276 x 276 transforms V and V^-1.
"""

from hklattice import kernels
from hklattice.exact_linalg import _combine_rows, _coord_matrix, _sparse_rows, combine_basis
from hklattice.h4_model import AMBIENT, H4Class, H4Lattice, sym2_lattice


def smith_saturation_int(rows):
    """Basis of the saturation of an integer row span inside Z^n.

    With U*M*V = D in Smith form, the saturation pulls back from the span of
    the first rank coordinate vectors, i.e. the first rank rows of V^-1.
    """
    diag, _, vinv = kernels.smith_normal_form(rows, want_vinv=True)
    r = sum(1 for d in diag if d)
    return [list(vinv[i]) for i in range(r)]


class SmithTorsionQuotient:
    """L / Z^276 by the Smith form: class_of(v) is (y * V) mod diag for the
    coordinates y of v, and generator i lifts to row i of V^-1."""

    def __init__(self, h4: H4Lattice):
        self.h4 = h4
        C = _coord_matrix(sym2_lattice(), h4.lattice)
        diag, V, Vinv = kernels.smith_normal_form(C, want_v=True, want_vinv=True)
        if any(d == 0 for d in diag):
            raise ArithmeticError("quotient is not finite")
        positions = [i for i, dd in enumerate(diag) if dd > 1]
        self.moduli = tuple(diag[i] for i in positions)
        self._residue_cols = _sparse_rows([[row[i] for row in V] for i in positions])
        self._lift_den, lifts = combine_basis([Vinv[i] for i in positions], h4.lattice)
        self._lift_rows = _sparse_rows(lifts)

    def class_of(self, v: H4Class) -> tuple[int, ...]:
        y = self.h4.coords(v)
        if y is None:
            raise ValueError("class is not in the degree-4 lattice")
        return tuple(
            sum([y[j] * x for j, x in col]) % d
            for col, d in zip(self._residue_cols, self.moduli)
        )

    def lift(self, t) -> H4Class:
        (vec,) = _combine_rows([t], self._lift_rows, AMBIENT)
        return H4Class._of(tuple(vec), self._lift_den)
