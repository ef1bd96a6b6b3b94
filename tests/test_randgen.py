"""The sampler's random stream, its draw primitive, and its refusals.

Every suite and benchmark input comes from `randgen.Sampler`, so a fixed
seed must keep giving the same values in the same order: the report
sha256s depend on it.  `test_sampler_stream_is_pinned` fixes the stream
itself, and the primitive tests say which standard-library behaviour the
stream rests on, so a change there is named before a report pin drifts.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersphere.randgen import Sampler
from supersphere.scalars import GaussianRational


def _params_fields(p):
    # the pinned (eps, eps+, eps-) layout: (eps, None, None) for n != 0 and
    # (None, eps+, eps-) at n = 0, whose eps- the sampler used to compute
    # as eps^(-1) (1 - psi1+ psi0- - psi1- psi0+)
    eps = (p.eps, None, None)
    if p.n == 0:
        (pp0, pp1), (pm0, pm1) = p.psi_plus, p.psi_minus
        one = p.eps.one(p.L)
        eps = (None, p.eps, p.eps.inverse() * (one - pp1 * pm0 - pm1 * pp0))
    return (p.n, p.a, p.b, p.c, p.d, *eps, p.psi_plus, p.psi_minus)


def _battery(seed, L):
    """Reprs of every public sampler draw at one seed, then the next random()."""
    rng = random.Random(seed)
    s = Sampler(rng, L)
    items = [
        s.gaussian_rational(), s.gaussian_rational(2, nonzero=True),
        s.supernumber(), s.supernumber(3, parity=1),
        s.supernumber(4, parity=0, bound=L - 2, body=True),
        s.supernumber(2, body=False),
        s.soul(), s.odd(), s.even_invertible(),
        s.superpoly(), s.superpoly(3, (0, 2), parity=1, bound=L - 2),
        s.rational_superfunction(),
        s.rational_superfunction(parity=0, with_denominator=False),
        s.n1_map(), s.superconformal_map(),
        s.sl2_scalars(), s.moebius_supernumbers(),
        *[_params_fields(s.automorphism_params(n)) for n in (-2, -1, 0, 1, 2)],
        s.matrix_group_element(), s.odd_vector(3),
    ]
    items.append(rng.random())
    return repr(items)


# sha256 over seeds 0, 1, 2 of `_battery`; any drifted draw changes it
STREAM_SHA256 = {
    4: "82ab4987e2b07ee807c3493188a83dd9721bccf9aa55e6c399d1931e10b67fa9",
    6: "923aad1a929e5edd06cbc6c26273f76f5e0956d75b880ad3bb4328ee11692269",
    8: "44984306466dbefc6ea65b0392c8cd5f596d8a9cf2dfd1eca5c82fb3c90c832e",
}


@pytest.mark.parametrize("L", sorted(STREAM_SHA256))
def test_sampler_stream_is_pinned(L):
    text = "\n".join(_battery(seed, L) for seed in range(3))
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_SHA256[L]


def test_below_draws_as_randrange():
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        s = Sampler(ours, 4)
        for n in range(1, 65):
            for _ in range(10):
                assert s._below(n) == ref.randrange(n)
        # the offset ranges the sampler draws from
        for a, b in ((-3, 4), (-2, 3), (0, 3), (1, 4), (1, 5), (0, 5)):
            for _ in range(10):
                assert a + s._below(b - a) == ref.randrange(a, b)
        assert ours.random() == ref.random()


def test_below_refuses_an_empty_range():
    s = Sampler(random.Random(0), 4)
    for n in (0, -1):
        with pytest.raises(ValueError):
            s._below(n)


def _reference_gaussian_rational(rng, span, nonzero):
    """The sampler's scalar law, written with randrange and Fraction."""
    def rational():
        return Fraction(rng.randrange(-span, span + 1),
                        (1, 1, 2, 3)[rng.randrange(4)])

    while True:
        if rng.randrange(4) == 0:
            re, im = rational(), rational()
        elif rng.randrange(5) == 0:
            re, im = 0, rational()
        else:
            re, im = rational(), 0
        if re or im or not nonzero:
            return GaussianRational(re, im)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64), span=st.integers(0, 40),
       nonzero=st.booleans())
def test_gaussian_rational_matches_fraction_reference(seed, span, nonzero):
    if nonzero and span == 0:
        span = 1  # the only value in span 0 is zero
    ours, ref = random.Random(seed), random.Random(seed)
    s = Sampler(ours, 4)
    for _ in range(8):
        got = s.gaussian_rational(span, nonzero)
        want = _reference_gaussian_rational(ref, span, nonzero)
        assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
    assert ours.random() == ref.random()


def test_equal_draws_share_one_scalar():
    # each distinct draw gives one canonical scalar, so two samplers on one
    # seed hand out the very same objects, coefficients of supernumbers too
    first, second = Sampler(random.Random(7), 6), Sampler(random.Random(7), 6)
    for span in (3, 2, 1, 0):
        for _ in range(40):
            assert first.gaussian_rational(span) is second.gaussian_rational(span)
    for _ in range(10):
        x, y = first.supernumber(), second.supernumber()
        assert x == y
        assert all(x.terms[m] is y.terms[m] for m in x.terms)


def test_odd_draw_without_odd_monomial_raises():
    s = Sampler(random.Random(1), 2)
    with pytest.raises(ValueError):
        s.odd(1, bound=0)
    with pytest.raises(ValueError):
        s.supernumber(2, parity=1, bound=0)
    with pytest.raises(ValueError):
        s.automorphism_params(1)
    with pytest.raises(ValueError):
        s.gaussian_rational(0, nonzero=True)
    # even draws on no generators are still fine
    assert s.soul(2, parity=0, bound=0).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_generator_bound_outside_the_algebra_raises_before_any_draw(seed):
    # masks above L used to be refused only when a drawn mask overflowed,
    # so seed 2 returned a supernumber and seeds 0, 1, 3, 4, 5 did not
    rng = random.Random(seed)
    s = Sampler(rng, 4)
    state = rng.getstate()
    for bound in (6, 5, -1):
        with pytest.raises(ValueError, match="outside 0..4"):
            s.supernumber(2, bound=bound)
        assert rng.getstate() == state
    assert s.supernumber(2, bound=4).L == 4
