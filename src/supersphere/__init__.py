"""Exact computation for N=2 superconformal super-Riemann spheres.

The library provides, over exact Gaussian-rational scalars:

* finite Grassmann algebras with body/soul decomposition and inversion;
* Laurent superpolynomials and rational superfunctions in one even and
  two odd variables (z, theta+, theta-), with the odd superderivations D+
  and D-;
* N=2 superconformal maps in component form, composition, inversion, and
  the correspondence with N=1 superanalytic maps;
* the two-chart super-Riemann spheres, their transition maps, and the
  complete parametrized automorphism families with validation and group
  structure (double cover, kernels, odd translations);
* the N=2 Neveu-Schwarz Lie superalgebra, its superderivation
  representation, the finite-dimensional subalgebras of infinitesimal
  sphere automorphisms, and exponential flows;
* block matrix Lie superalgebras (osp(2|2), p(2|2)) with verified
  isomorphism tables;
* a deterministic verification campaign exposed through the
  ``supersphere`` command line tool.
"""

from .scalars import GaussianRational, grat, I, ONE, ZERO
from .grassmann import (
    DimensionMismatch,
    GrassmannError,
    NotInvertible,
    Supernumber,
)

__all__ = [
    "GaussianRational",
    "grat",
    "I",
    "ONE",
    "ZERO",
    "DimensionMismatch",
    "GrassmannError",
    "NotInvertible",
    "Supernumber",
]

__version__ = "0.1.0"
