"""The products and the substitution take a shortcut for trivial operands:
a body-only supernumber factor, a superpolynomial factor s z^j, a zero or
unit rational superfunction, and z -> z.  Each shortcut must agree with
the generic path, which distributivity reaches: x * s is compared with
x * (s + y) - x * y for a generic y, so s + y takes no shortcut."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from supersphere.grassmann import DimensionMismatch, Supernumber
from supersphere.randgen import Sampler
from supersphere.superfield import (
    RationalSuperfunction as RSF,
    SuperPolynomial,
    Substitution,
)

L = 6
seeds = st.integers(min_value=0, max_value=2 ** 32)


def _generic(x):
    """True if no operand shortcut applies to x: it has two terms, or one
    with a soul or an odd variable."""
    if isinstance(x, Supernumber):
        return len(x.terms) > 1 or bool(x.terms) and 0 not in x.terms
    terms = x.num.terms if isinstance(x, RSF) else x.terms
    return len(terms) > 1 or any(m for _, m in terms)


def _assert_distributes(x, s, y):
    """x s and s x through the shortcut equal their generic expansions."""
    assume(_generic(s + y))
    assert x * s == x * (s + y) - x * y
    assert s * x == (s + y) * x - y * x


@settings(max_examples=60, deadline=None)
@given(seeds, st.booleans())
# x a bare scalar: 3/2 - i, 1/3 and 1
@example(593999759, True)
@example(122902368, True)
@example(860681051, True)
def test_a_body_only_supernumber_factor_scales(seed, unit):
    sampler = Sampler(random.Random(seed), L)
    x, y = sampler.supernumber(4), sampler.supernumber(4)
    value = 1 if unit else sampler.gaussian_rational(nonzero=True)
    s = Supernumber.scalar(L, value)
    _assert_distributes(x, s, y)
    assert x * s == x.scale(value) == s * x
    if unit:
        # a factor 1 returns the other operand; the left one if both are 1
        assert x * s is x and s * x is (s if x == s else x)


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(-2, 2), st.booleans())
def test_a_scalar_monomial_factor_shifts(seed, j, unit):
    sampler = Sampler(random.Random(seed), L)
    x = sampler.superpoly(z_span=(-2, 3))
    y = sampler.superpoly(z_span=(-2, 3))
    coeff = 1 if unit else sampler.gaussian_rational(nonzero=True)
    s = SuperPolynomial.z_power(L, j, coeff=coeff)
    _assert_distributes(x, s, y)
    if unit:
        assert x * s == x.shift_z(j) == s * x


@settings(max_examples=40, deadline=None)
@given(seeds, st.booleans())
def test_zero_and_unit_rational_factors(seed, unit):
    sampler = Sampler(random.Random(seed), L)
    x, y = sampler.rational_superfunction(), sampler.rational_superfunction()
    s = RSF.one(L) if unit else RSF.zero(L)
    _assert_distributes(x, s, y)
    if unit:
        assert x * s is x and s * x is x
    else:
        assert x * s is s and (s * x).is_zero()


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_z_to_z_returns_a_theta_free_function(seed):
    F = Sampler(random.Random(seed), L).rational_superfunction().theta_component(0)
    assert Substitution(RSF.z(L))(F) is F
    # the generic path: z -> 1/z twice, and only z -> z is the identity
    inv_z = RSF.z_power(L, -1)
    assert F.substitute(inv_z).substitute(inv_z) == F
    assert RSF.z(L).substitute(inv_z) == inv_z


def test_shapes_are_checked_before_any_shortcut():
    with pytest.raises(DimensionMismatch):
        Supernumber.one(L) * Supernumber.one(4)
    with pytest.raises(DimensionMismatch):
        Supernumber.scalar(4, 3) * Supernumber.generator(L, 1)
    for left, right in ((SuperPolynomial.one(L), SuperPolynomial.one(4)),
                        (SuperPolynomial.z_power(L, 2), SuperPolynomial.zero(4)),
                        (RSF.one(L), RSF.zero(4)),
                        (RSF.one(L), RSF.theta(4))):
        for a, b in ((left, right), (right, left)):
            with pytest.raises(ValueError, match="shape mismatch"):
                a * b
    at_z = Substitution(RSF.z(L))
    with pytest.raises(ValueError, match="shape mismatch"):
        at_z(RSF.one(4))
    with pytest.raises(ValueError, match="missing odd substitution image"):
        at_z(RSF.theta(L))
