"""Exact integer and rational lattice computations for a family of
hyperkaehler fourfolds: the rank-23 even lattice of signature (3, 20) on
degree-2 cohomology, the induced lattice in degree-4 cohomology with its
five-torsion quotient, Hodge-class lattices attached to a polarization,
a minimal-cohomology-class criterion, the fixed space of a deformation
operator equation, cubic-fourfold models, and blow-up correspondences.

Everything is exact and runs on Python integers, with no floating point:
matrices, lattices and degree-4 classes are integer rows over one positive
denominator, and ``fractions.Fraction`` values are made only at the edges
(reading an entry, parsing input, printing JSON). The integer-matrix
kernels (Hermite and Smith reduction, triangular solving) are in
``hklattice.kernels``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
