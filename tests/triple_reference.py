"""The tests' reference for composition: full coordinate triples.

`SuperconformalMap.compose` computes the five components of a composite
by closed formulas.  The reference substitutes one expanded triple into
another and reads the result back with `SuperconformalMap.extract`.
"""

from supersphere.superconformal import CoordinateTriple
from supersphere.superfield import (
    RationalSuperfunction,
    Substitution,
    THETA_MINUS,
    THETA_PLUS,
)


def identity_triple(L):
    """The coordinates (z, theta+, theta-) themselves."""
    return CoordinateTriple(
        RationalSuperfunction.z(L),
        RationalSuperfunction.theta(L, THETA_PLUS),
        RationalSuperfunction.theta(L, THETA_MINUS),
    )


def compose_triples(outer, inner):
    """outer after inner, by full substitution of inner into outer."""
    substitution = Substitution(inner.even, (inner.plus, inner.minus))
    return CoordinateTriple(*map(substitution, outer))
