import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from supersphere import superfield
from supersphere.grassmann import DimensionMismatch, NotInvertible, Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import GaussianRational, grat
from supersphere.superfield import (
    PoleAtPoint,
    RationalSuperfunction as RSF,
    SingularComposition,
    ScalarPoly,
    SuperPoint,
    SuperPolynomial,
    THETA_MINUS,
    THETA_PLUS,
    apply_D,
    apply_D_minus,
    apply_D_plus,
)

L = 6


def rsf_z():
    return RSF.z(L)


def thetas():
    return RSF.theta(L, THETA_PLUS), RSF.theta(L, THETA_MINUS)


def zero_point(z_value):
    return SuperPoint(z_value, (Supernumber.zero(L), Supernumber.zero(L)))


class TestScalarPoly:
    def test_divmod_and_gcd(self):
        rng = random.Random(5)

        def rand_poly(maxdeg):
            coeffs = {k: grat(rng.randrange(-3, 4), rng.randrange(-1, 2))
                      for k in range(rng.randrange(1, maxdeg + 2))}
            coeffs[rng.randrange(maxdeg + 1)] = grat(rng.randrange(1, 3))
            return ScalarPoly(coeffs)

        for _ in range(150):
            a, b = rand_poly(6), rand_poly(3)
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree() < b.degree()
            g = a.gcd(b)
            assert a.divmod(g)[1].is_zero() and b.divmod(g)[1].is_zero()

    def test_division_by_a_non_monic_linear_divisor(self):
        # the quotient by z - root is scaled by 1/lead; the remainder is p(root)
        p = ScalarPoly({3: grat(3), 1: grat(-1), 0: grat(5)})
        d = ScalarPoly({1: grat(2, 1), 0: grat(-1)})
        q, r = p.divmod(d)
        assert q * d + r == p
        assert q.degree() == 2
        assert r == ScalarPoly({0: p.eval_scalar(grat(2, 1).inverse())})
        assert not r.is_zero()

    def test_gcd_of_shared_factor(self):
        f = ScalarPoly({1: grat(1), 0: grat(-2)})  # z - 2
        a = f * f * ScalarPoly({1: grat(1)})
        b = f * ScalarPoly({0: grat(3), 1: grat(1)})
        assert a.gcd(b) == f

    def test_gcd_with_a_power_of_one_linear_factor(self):
        # a power of z - r knows its root, so each gcd with it counts the
        # multiplicity of r, by synthetic division where the other
        # operand's roots are not known; two operands born from
        # coefficients with several roots each take Euclid's algorithm
        rng = random.Random(6)
        for _ in range(60):
            r = grat(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                     rng.randrange(-2, 3))
            s = r + grat(rng.randrange(1, 4))
            lin = ScalarPoly({1: grat(1), 0: -r})
            m, j = rng.randrange(1, 5), rng.randrange(0, 5)
            other = lin ** j * ScalarPoly({1: grat(2), 0: grat(-2) * s})
            expected = lin ** min(m, j)
            assert (lin ** m).gcd(other) == expected
            assert other.gcd(lin ** m) == expected
            mixed = lin ** m * ScalarPoly({1: grat(1), 0: -(s + grat(0, 1))})
            assert mixed.gcd(other) == expected
            # the same factors, read back from coefficients: unknown roots
            far = ScalarPoly({1: grat(1), 0: -(s + grat(0, 2))})
            born = ScalarPoly(mixed.coeffs), ScalarPoly((other * far).coeffs)
            assert born[0].roots() is None and born[1].roots() is None
            assert born[0].gcd(born[1]) == expected

    def test_monic_and_eval(self):
        p = ScalarPoly({2: grat(2), 0: grat(-4)})
        monic, lc = p.monic()
        assert lc == grat(2)
        assert monic == ScalarPoly({2: grat(1), 0: grat(-2)})
        assert p.eval_scalar(grat(3)) == grat(14)

    def test_foreign_operands_raise_type_error(self):
        p = ScalarPoly({1: grat(1), 0: grat(1)})
        for op, apply in (("[+]", lambda: p + 1), ("-", lambda: p - 1),
                          ("[*]", lambda: p * 2)):
            with pytest.raises(TypeError, match=f"for {op}: 'ScalarPoly'"):
                apply()


class TestOddDerivatives:
    def test_left_derivative_convention(self):
        tp, tm = thetas()
        z = rsf_z()
        assert apply_D_plus(tp) == RSF.one(L)
        # the plus derivative strips a leading theta+
        assert (tp * tm * z).diff_theta(THETA_PLUS) == tm * z
        # the minus derivative walks past theta+ and picks up a sign
        assert (tp * tm).diff_theta(THETA_MINUS) == -tp
        assert tm.diff_theta(THETA_MINUS) == RSF.one(L)

    def test_quotient_derivative(self):
        z = rsf_z()
        assert z.inverse().diff_z() == RSF.z_power(L, -2, coeff=grat(-1))
        f = RSF.one(L) / (z * z - RSF.one(L))
        num = (z * z - RSF.one(L))
        assert f.diff_z() * num * num == grat(-2) * z

    def test_derivation_identities(self):
        z = rsf_z()
        tp, tm = thetas()
        F = z ** 3
        anti = apply_D_plus(apply_D_minus(F)) + apply_D_minus(apply_D_plus(F))
        assert anti == RSF.z_power(L, 2, coeff=grat(6))
        G = tp * tm * (z ** 2)
        assert apply_D_plus(apply_D_plus(G)).is_zero()
        assert apply_D_minus(apply_D_minus(G)).is_zero()

    def test_super_leibniz_on_samples(self):
        s = Sampler(random.Random(17), L)
        # sampled functions are almost never invertible, so the divisors
        # get a nonzero scalar added, as in `sampled_rsf`; they come from
        # their own stream, which leaves the products' operands as they were
        divisors = Sampler(random.Random(18), L)
        for _ in range(40):
            p = s.rng.randrange(2)
            F = s.rational_superfunction(parity=p, max_terms=3)
            G = s.rational_superfunction(max_terms=3)
            Q = (divisors.rational_superfunction(parity=0, max_terms=3)
                 + divisors.gaussian_rational(nonzero=True))
            assert not Q.body_is_zero()
            for sign in (+1, -1):
                lhs = apply_D(F * G, sign)
                rhs = apply_D(F, sign) * G + (F * apply_D(G, sign)).scale_left(
                    grat((-1) ** p))
                assert lhs == rhs
                # the graded quotient rule for an even divisor
                quotient = (apply_D(F, sign) * Q - (F * apply_D(Q, sign))
                            .scale_left(grat((-1) ** p))) / Q ** 2
                assert apply_D(F / Q, sign) == quotient


class TestEvaluation:
    def test_square_against_direct_product(self):
        z_val = Supernumber.one(L) + Supernumber.monomial(L, (1, 2))
        point = zero_point(z_val)
        assert (rsf_z() ** 2).evaluate(point) == z_val * z_val

    def test_reciprocal_against_inverse(self):
        z_val = Supernumber.one(L) + Supernumber.monomial(L, (1, 2))
        point = zero_point(z_val)
        assert rsf_z().inverse().evaluate(point) == z_val.inverse()

    def test_pole_detection(self):
        soulful = Supernumber.monomial(L, (1, 2))
        with pytest.raises(PoleAtPoint):
            rsf_z().inverse().evaluate(zero_point(soulful))
        with pytest.raises(PoleAtPoint):
            (RSF.one(L) / (rsf_z() - RSF.one(L))).evaluate(
                zero_point(Supernumber.one(L)))

    def test_evaluation_is_multiplicative(self):
        s = Sampler(random.Random(23), L)
        for _ in range(30):
            F = s.rational_superfunction(max_terms=3, with_denominator=False)
            G = s.rational_superfunction(max_terms=3, with_denominator=False)
            body = grat(s.rng.randrange(1, 5))
            point = SuperPoint(
                Supernumber.scalar(L, body) + s.soul(2, 0),
                (s.odd(1), s.odd(1)),
            )
            assert (F * G).evaluate(point) == F.evaluate(point) * G.evaluate(point)

    def test_point_parity_validation(self):
        zero = Supernumber.zero(L)
        with pytest.raises(ValueError, match="must be even"):
            SuperPoint(Supernumber.generator(L, 1), (zero, zero))
        with pytest.raises(ValueError, match="odd supernumbers"):
            SuperPoint(Supernumber.one(L), (Supernumber.one(L), zero))
        # a point carries exactly one theta+ and one theta- value
        for thetas in ((), (zero,), (zero, zero, zero)):
            with pytest.raises(ValueError, match="one theta\\+ and one theta-"):
                SuperPoint(Supernumber.one(L), thetas)

    def test_point_shape_must_match_the_function(self):
        with pytest.raises(DimensionMismatch):
            rsf_z().evaluate(SuperPoint(Supernumber.one(L + 1), (
                Supernumber.zero(L + 1), Supernumber.zero(L + 1))))

    def test_a_supernumber_operand_must_match_the_superpolynomial(self):
        P = SuperPolynomial.theta(L) + SuperPolynomial.z_power(L, 1)
        other = Supernumber.generator(L - 2, 1)
        for operation in (lambda: P * other, lambda: P.scale_left(other),
                          lambda: P + other, lambda: P - other):
            with pytest.raises(DimensionMismatch):
                operation()


class TestSubstitution:
    def test_identity_function(self):
        z = rsf_z()
        tp, tm = thetas()
        w = z + tp * tm
        assert z.substitute(w, (tp, tm)) == w

    def test_square_with_nilpotent_shift(self):
        z = rsf_z()
        tp, tm = thetas()
        w = z + tp * tm
        # oracle: expand the square by hand, (theta+ theta-)^2 = 0
        expected = z ** 2 + grat(2) * (z * tp * tm)
        assert (z ** 2).substitute(w, (tp, tm)) == expected

    def test_moebius_involution(self):
        z = rsf_z()
        tp, tm = thetas()
        assert z.inverse().substitute(z.inverse(), (tp, tm)) == z

    def test_odd_images_substitute(self):
        z = rsf_z()
        tp, tm = thetas()
        F = tp * z + tm * tp
        out = F.substitute(z, (tm, tp))  # swap the odd variables
        # oracle: theta- theta+ = -theta+ theta-, and the swap images
        # multiply back to theta+ theta-, so the signs cancel
        assert out == tm * z + tp * tm

    def test_associativity_on_samples(self):
        s = Sampler(random.Random(31), L)
        tp, tm = thetas()
        for _ in range(12):
            F = s.rational_superfunction(max_terms=3)
            terms = {
                (1, 0): s.even_invertible(2, L - 2),
                (0, 0): s.supernumber(2, 0, L - 2),
                (0, 1): s.odd(1, L - 2),
                (0, 2): s.odd(1, L - 2),
            }
            w1 = RSF(SuperPolynomial(L, terms))
            terms2 = dict(terms)
            terms2[(1, 0)] = s.even_invertible(2, L - 2)
            w2 = RSF(SuperPolynomial(L, terms2))
            inner = w2.substitute(w1, (tp, tm))
            assert F.substitute(inner, (tp, tm)) == \
                F.substitute(w2, (tp, tm)).substitute(w1, (tp, tm))

    def test_singular_composition(self):
        z = rsf_z()
        tp, tm = thetas()
        soul = RSF.from_constant(L, Supernumber.monomial(L, (1, 2)))
        with pytest.raises(SingularComposition):
            z.inverse().substitute(soul, (tp, tm))


class TestCanonicalForm:
    def test_grassmann_denominator_cleared(self):
        a = Supernumber.one(L) + Supernumber.monomial(L, (1, 2))
        den = RSF(SuperPolynomial(L, {(1, 0): a, (0, 0): Supernumber.one(L)}))
        f = RSF.one(L) / den
        # denominator is a plain scalar polynomial, monic
        assert f.den.leading() == grat(1)
        assert f * den == RSF.one(L)

    def test_cross_multiplication_equality(self):
        z = rsf_z()
        one = RSF.one(L)
        f = (z * z - one) / (z - one)
        g = z + one
        assert f == g

    def test_zero_body_not_invertible(self):
        odd = RSF.from_constant(L, Supernumber.generator(L, 1))
        with pytest.raises(NotInvertible):
            odd.inverse()

    def test_cancellation_by_a_power_of_one_linear_factor(self):
        # the gcd is (z - r)**j for the smallest multiplicity j of r among
        # the scalar components of the numerator
        r = grat(Fraction(3, 2), -1)
        lin = ScalarPoly({1: grat(1), 0: -r})
        body = lin ** 2 * ScalarPoly({1: grat(1), 0: grat(5)})
        soul = lin * ScalarPoly({0: grat(3)})
        terms = {}
        for k in range(4):
            coeffs = {0: body.coeffs.get(k, grat(0)), 0b11: soul.coeffs.get(k, grat(0))}
            terms[(k, 0)] = Supernumber(L, coeffs)
        num = SuperPolynomial(L, terms)
        F = RSF(num, lin ** 3)
        assert F.den == lin ** 2
        assert F.num.mul_scalar_poly(lin ** 3) == num.mul_scalar_poly(F.den)
        assert RSF(num, lin * ScalarPoly({1: grat(1), 0: grat(7)})).den == \
            ScalarPoly({1: grat(1), 0: grat(7)})

    @pytest.mark.parametrize("make_zero", [
        lambda F: F - F,
        lambda F: F * 0,
        lambda F: F * grat(0),
        lambda F: 0 * F,
        lambda F: F.theta_component(1 << THETA_MINUS),
        lambda F: F.diff_theta(THETA_PLUS),
        lambda F: RSF(F.num - F.num, F.den),
    ], ids=["sub", "mul", "mul_scalar", "rmul", "theta_component",
            "diff_theta", "constructor"])
    def test_zero_has_denominator_one(self, make_zero):
        z = rsf_z()
        F = RSF.one(L) / (z - RSF.from_constant(L, grat(2)))
        assert F.den == ScalarPoly({1: grat(1), 0: grat(-2)})
        zero = make_zero(F)
        assert zero.is_zero()
        assert zero.den.is_one()
        assert zero == RSF.zero(L)

    def test_laurent_normalization(self):
        num = SuperPolynomial(L, {(0, 0): Supernumber.one(L)})
        f = RSF(num, ScalarPoly({3: grat(2)}))
        assert f == RSF.z_power(L, -3, coeff=grat("1/2"))
        assert f.den.is_one()

    def test_extension_stability(self):
        s = Sampler(random.Random(41), L)
        shifts = Sampler(random.Random(42), L)  # its own stream, as above
        for _ in range(20):
            F = s.rational_superfunction(max_terms=3)
            G = s.rational_superfunction(max_terms=3)
            assert (F * G).extend(L + 2) == F.extend(L + 2) * G.extend(L + 2)
            assert apply_D_plus(F).extend(L + 2) == apply_D_plus(F.extend(L + 2))
            assert F.diff_z().extend(L + 2) == F.extend(L + 2).diff_z()
            H = F + shifts.gaussian_rational(nonzero=True)
            assert not H.body_is_zero()
            assert H.inverse().extend(L + 2) == H.extend(L + 2).inverse()

    def test_parity_bookkeeping(self):
        tp, tm = thetas()
        z = rsf_z()
        psi = RSF.from_constant(L, Supernumber.generator(L, 1))
        assert (tp * psi).is_even()
        assert (tp * z).is_odd()
        assert (z + tp * tm).is_even()
        mixed = z + tp
        assert mixed.parity() is None


def sampled_rsf(seed):
    """A Sampler RSF.  Half of those with a denominator get a numerator in
    which some components are multiples of it, so that taking components,
    differentiating in theta or scaling by a supernumber can cancel.
    Sampled numerators seldom have a body, so half get a scalar added,
    which makes them invertible."""
    s = Sampler(random.Random(seed), L)
    F = s.rational_superfunction(max_terms=3)
    if not F.den.is_one() and s.rng.randrange(2):
        num = s.superpoly(max_terms=2).mul_scalar_poly(F.den) + s.superpoly(max_terms=1)
        F = RSF(num, F.den)
    if s.rng.randrange(2):
        F = F + s.gaussian_rational(nonzero=True)
    return F


def assert_canonical(F):
    assert F.den.leading() == grat(1)
    assert 0 in F.den.coeffs  # den(0) != 0
    if F.is_zero():
        assert F.den.is_one()
    again = RSF(F.num, F.den)
    assert again.num == F.num and again.den == F.den


seeds = st.integers(min_value=0, max_value=2 ** 32)
rsfs = seeds.map(sampled_rsf)
supernumbers = seeds.map(lambda seed: Sampler(random.Random(seed), L).supernumber(2))

def reference_evaluate(F, point):
    """F at point, computed directly in the Grassmann algebra: the sum of
    theta^M c z^k over den(z), with the odd monomial theta^M on the left.
    A pole raises NotInvertible, from 1/z or from 1/den(z)."""
    z = point.z
    num = Supernumber.zero(z.L)
    for (k, mask), c in F.num.coefficients().items():
        value = c * z ** k
        for b in (THETA_MINUS, THETA_PLUS):
            if mask & (1 << b):
                value = point.thetas[b] * value
        num = num + value
    den = Supernumber.zero(z.L)
    for k, c in F.den.coeffs.items():
        den = den + (z ** k).scale(c)
    return num * den.inverse()


def evaluation_case(seed):
    """A Sampler function with a Laurent numerator and one or two linear
    denominator factors, at a point with nonzero odd values whose body is
    0, 1 or a root of the denominator, so that both kinds of pole occur."""
    s = Sampler(random.Random(seed), L)
    factors = [s.rational_superfunction(max_terms=2, z_span=(-2, 2))
               for _ in range(1 + s.rng.randrange(2))]
    roots = [-F.den.coeffs.get(0, grat(0)) for F in factors if not F.den.is_one()]
    body = s.rng.choice([grat(0), grat(1), *roots])
    z = Supernumber.scalar(L, body) + s.soul(2, 0)
    F = factors[0] if len(factors) == 1 else factors[0] * factors[1]
    return F, SuperPoint(z, (s.odd(1), s.odd(1)))


@settings(deadline=None, max_examples=60)
@given(seeds)
@example(2)  # z with zero body meets a negative power of z
@example(9)  # z at the root of the denominator
@example(61)  # z at a root of a product of two distinct linear factors
@example(170)  # the same denominator, away from its roots
def test_evaluation_matches_the_direct_reference(seed):
    F, point = evaluation_case(seed)
    try:
        want = reference_evaluate(F, point)
    except NotInvertible:
        with pytest.raises(PoleAtPoint):
            F.evaluate(point)
    else:
        assert F.evaluate(point) == want


def value_read_case(seed):
    """A Sampler numerator with odd variables and powers of z down to
    z^(-2), over up to two linear factors whose roots are in 0..3."""
    s = Sampler(random.Random(seed), L)
    den = ScalarPoly.one()
    for _ in range(s.rng.randrange(3)):
        den = den * ScalarPoly({1: grat(1), 0: grat(-s.rng.randrange(4))})
    return RSF(s.superpoly(max_terms=4, z_span=(-2, 2)), den)


@settings(deadline=None, max_examples=60)
@given(seeds)
@example(0)  # a pole at 3, the denominator's root
@example(30)  # theta-free, with a Laurent numerator: poles at 0 and 2
@example(17)  # poles at 0, 2 and 3, one point regular
def test_values_at_integer_points_are_the_evaluations(seed):
    """values_at reads F(z, 0, 0) as `evaluate` does, and raises PoleAtPoint
    where it does; several points in one call give the values one by one,
    and the theta-free part of F has the same values."""
    F = value_read_case(seed)
    want = {}
    for z in range(4):
        try:
            want[z] = F.evaluate(zero_point(Supernumber.scalar(L, z)))
        except PoleAtPoint:
            with pytest.raises(PoleAtPoint, match=f"a pole at z = {z}"):
                F.values_at((z,))
        else:
            assert F.values_at((z,)) == [want[z]]
    regular = sorted(want)
    assert F.values_at(regular) == [want[z] for z in regular]
    assert F.theta_component(0).values_at(regular) == [want[z] for z in regular]
    if len(regular) < 4:
        with pytest.raises(PoleAtPoint):
            F.values_at(range(4))


# numerators with a component that the denominator divides: it cancels
# after diff_theta or theta_component (_THETA_PART) and after scaling by
# z[1] (_GENERATOR_PART)
_Z1 = Supernumber.generator(L, 1)
_ZP1 = ScalarPoly({1: grat(1), 0: grat(1)})
_THETA_PART = RSF(SuperPolynomial(L, {
    (1, 1): Supernumber.one(L), (0, 1): Supernumber.one(L),
    (0, 0): Supernumber.monomial(L, (1, 2)),
}), _ZP1)  # (t+ (z+1) + z[1]z[2]) / (z+1)
_GENERATOR_PART = RSF(SuperPolynomial(L, {
    (1, 0): Supernumber.one(L), (0, 0): Supernumber.one(L) + _Z1,
}), _ZP1)  # (z + 1 + z[1]) / (z+1)
# canonical, but its square is 2 z[1]z[2]z[3]z[4] (z + 1) / (z + 1)**2:
# over Grassmann coefficients a power of a canonical form can cancel
_SQUARE_CANCELS = RSF(SuperPolynomial(L, {
    (1, 0): Supernumber.monomial(L, (1, 2)),
    (0, 0): Supernumber.monomial(L, (1, 2)) + Supernumber.monomial(L, (3, 4)),
}), _ZP1)  # (z[1]z[2] (z + 1) + z[3]z[4]) / (z + 1)


@settings(deadline=None)
@given(rsfs, rsfs, supernumbers, seeds)
@example(_THETA_PART, RSF.z(L), _Z1, 0)
@example(_GENERATOR_PART, RSF.z(L), _Z1, 0)
# the trivial operands of the product and substitution shortcuts
@example(RSF.one(L), RSF.zero(L), Supernumber.one(L), 0)
@example(RSF.zero(L), RSF.one(L), Supernumber.scalar(L, grat(0, 2)), 0)
@example(_GENERATOR_PART, RSF.z_power(L, -2, coeff=grat(3)), Supernumber.one(L), 0)
@example(RSF.z_power(L, 2, coeff=grat(-1)), _THETA_PART, Supernumber.scalar(L, 5), 0)
def test_canonical_form_after_every_operation(F, G, s, seed):
    sampler = Sampler(random.Random(seed), L)
    c = sampler.gaussian_rational()
    P = sampler.superpoly(max_terms=3)
    n = sampler.rng.randrange(-2, 4)
    tp, tm = thetas()
    w = rsf_z() + sampler.rational_superfunction(max_terms=2, parity=0)
    images = (tp + sampler.rational_superfunction(max_terms=2, parity=1),
              tm + sampler.rational_superfunction(max_terms=2, parity=1))
    results = [
        F + G, F - G, F + c, c - F, -F,
        F * G, F * P, P * F, F * c, c * F, F * s, s * F,
        F.diff_z(), F.diff_theta(THETA_PLUS), F.diff_theta(THETA_MINUS),
        F.extend(L + 2), apply_D_plus(F), apply_D_minus(F),
    ]
    results += [F.theta_component(mask) for mask in range(4)]
    if c:
        results.append(F / c)
    if s.body():
        results.append(F / s)
    if not G.body_is_zero():
        results.append(F / G)
    if not F.body_is_zero():
        results += [F.inverse(), F ** n, c / F, s / F]
    elif n >= 0:
        results.append(F ** n)
    try:
        results.append(F.substitute(w, images))
    except SingularComposition:
        pass
    for result in results:
        assert_canonical(result)
        # a known root map multiplies out to the denominator
        roots = result.den.roots()
        if roots is not None:
            product = ScalarPoly.one()
            for root, m in roots.items():
                product = _long_product(product, _long_power(root, m))
            assert product == result.den


def test_cancelling_components_leave_no_denominator():
    assert _THETA_PART.diff_theta(THETA_PLUS) == RSF.one(L)
    assert _THETA_PART.theta_component(1 << THETA_PLUS) == RSF.one(L)
    assert _GENERATOR_PART * _Z1 == RSF.from_constant(L, _Z1)
    assert _Z1 * _GENERATOR_PART == RSF.from_constant(L, _Z1)
    assert _SQUARE_CANCELS ** 2 == RSF.from_constant(
        L, Supernumber.monomial(L, (1, 2, 3, 4)).scale(2)) / (RSF.z(L) + 1)


def test_left_operands_without_an_rsf_operator():
    sampler = Sampler(random.Random(43), L)
    for _ in range(40):
        F = sampled_rsf(sampler.rng.getrandbits(32))
        s = sampler.supernumber(2)
        P = sampler.superpoly(max_terms=3)
        assert s * F == F.scale_left(s)
        assert P * F == RSF(P) * F
        if not F.body_is_zero():
            assert s / F == F.inverse().scale_left(s)
            assert P / F == RSF(P) * F.inverse()
        S = RSF.from_constant(L, s)
        assert s + F == F + s == S + F
        assert s - F == S - F
        assert P + F == F + P == RSF(P) + F
        assert P - F == RSF(P) - F
        assert F - P == F - RSF(P)
        if not RSF(P).body_is_zero():
            assert F / P == F * RSF(P).inverse()
    P = SuperPolynomial.z_power(L, 1) + 2
    assert (RSF.z(L) + 1) / P == (RSF.z(L) + 1) * RSF(P).inverse()
    assert (RSF.z(L) + 2) / P == RSF.one(L)
    # the operators give way to the other operand, so Python raises the
    # usual TypeError for a type none of them knows
    s, P, F, other = Supernumber.one(L), SuperPolynomial.one(L), rsf_z(), object()
    for left, right in ((s, other), (P, other), (F, other), (other, F), (s, 1.5)):
        with pytest.raises(TypeError, match="unsupported operand"):
            left + right
        with pytest.raises(TypeError, match="unsupported operand"):
            left - right
    for left, right in ((F, other), (other, F)):
        with pytest.raises(TypeError, match="unsupported operand type.s. for /"):
            left / right
    # a string is no scalar operand of a product either
    for left in (s, P, F):
        for text in ("1/2", "abc"):
            with pytest.raises(TypeError):
                left * text


def test_subtraction_is_one_normalisation(monkeypatch):
    calls = []
    cancel = superfield._cancel_common_factor

    def counting(num, den):
        calls.append(den)
        return cancel(num, den)

    sampler = Sampler(random.Random(59), L)
    for _ in range(40):
        F = sampled_rsf(sampler.rng.getrandbits(32))
        G = sampled_rsf(sampler.rng.getrandbits(32))
        if sampler.rng.randrange(2):
            G = RSF(G.num, F.den)  # usually the same denominator as F
        if not sampler.rng.randrange(5):
            G = F
        P = G.num  # a superpolynomial left operand goes through __rsub__
        expected = [F + (-G), RSF(P) + (-F)]
        monkeypatch.setattr(superfield, "_cancel_common_factor", counting)
        counts = []
        differences = []
        for left, right in ((F, G), (P, F)):
            calls.clear()
            differences.append(left - right)
            counts.append(len(calls))
        monkeypatch.undo()
        assert differences == expected
        for difference in differences:
            assert_canonical(difference)
        # one normalisation, skipped only when the result has denominator 1
        # (a zero operand would skip it too; sampled ones are never zero)
        constant_den = (F.den.is_one() and G.den.is_one()) or F == G
        assert counts == [0 if constant_den else 1, 0 if F.den.is_one() else 1]


def _linear_factor(root):
    return ScalarPoly({1: grat(1), 0: -root})


def quotient_operand(seed):
    """A `sampled_rsf`, or a sampled numerator over (z - r)**m, or over
    (z - r1)**a (z - r2)**b with r1 != r2, which half the time is built
    from its coefficients: its roots are not known, so its gcds take the
    Euclid path.  Half of the sampled numerators get a scalar added: they
    are invertible."""
    s = Sampler(random.Random(seed), L)
    kind = s.rng.randrange(3)
    if kind == 0:
        return sampled_rsf(seed)
    r1 = s.gaussian_rational(nonzero=True)
    den = _linear_factor(r1) ** s.rng.randint(1, 3)
    if kind == 2:
        r2 = r1 + s.gaussian_rational(nonzero=True)
        den = den * _linear_factor(r2) ** s.rng.randint(1, 2)
        if s.rng.randrange(2):
            den = ScalarPoly(den.coeffs)
    num = s.superpoly(max_terms=3)
    if s.rng.randrange(2):
        num = num + s.gaussian_rational(nonzero=True)
    return RSF(num, den)


def _power_by_products(F, n):
    """F**n as |n| normalised products, the reference for __pow__."""
    base = F if n >= 0 else F.inverse()
    out = RSF.one(L)
    for _ in range(abs(n)):
        out = out * base
    return out


def _full_quotient_rule(F):
    """(P' Q - P Q') / Q**2, the reference for diff_z."""
    P, Q = F.num, F.den
    return RSF(P.diff_z().mul_scalar_poly(Q) - P.mul_scalar_poly(Q.derivative()),
               Q * Q)


@settings(deadline=None)
@given(seeds.map(quotient_operand), st.integers(min_value=-2, max_value=3))
@example(_SQUARE_CANCELS, 2)
@example(_SQUARE_CANCELS, 3)
def test_power_and_derivative_match_references(F, n):
    if n < 0 and F.body_is_zero():
        n = -n
    power = F ** n
    assert_canonical(power)
    assert power == _power_by_products(F, n)
    derivative = F.diff_z()
    assert_canonical(derivative)
    assert derivative == _full_quotient_rule(F)


# theta+ theta- z + z[1]z[2]: its square is 2 theta+ theta- z z[1]z[2] and
# its cube vanishes, so a power loop must stop at the zero product
_NILPOTENT_POLY = SuperPolynomial(L, {
    (1, 3): Supernumber.one(L), (0, 0): Supernumber.monomial(L, (1, 2)),
})


# z[1]z[2] + z[3]z[4]: its square is 2 z[1]z[2]z[3]z[4], its cube zero
_NILPOTENT_SOUL = Supernumber(L, {0b11: 1, 0b1100: 1})
_ONES = {GaussianRational: grat(1), ScalarPoly: ScalarPoly.one(),
         Supernumber: Supernumber.one(L), SuperPolynomial: SuperPolynomial.one(L)}


@pytest.mark.parametrize("P", [
    _NILPOTENT_POLY,
    SuperPolynomial.zero(L),
    SuperPolynomial.one(L),
    Sampler(random.Random(61), L).superpoly(max_terms=3),
    Sampler(random.Random(62), L).superpoly(max_terms=2, z_span=(-2, 2)),
    grat(Fraction(2, 3), -1),
    grat(0),
    ScalarPoly({0: grat(2, 1), 2: grat(-1)}),
    ScalarPoly({0: 3, 1: 1}),  # z + 3 multiplies by its root map
    _NILPOTENT_SOUL,
    Supernumber.scalar(L, 2) + _NILPOTENT_SOUL,
    Sampler(random.Random(63), L).supernumber(),
])
def test_superpolynomial_power_is_the_repeated_product(P):
    """One power serves all four types; n = 0 gives the type's one."""
    product = _ONES[type(P)]
    for n in range(5):
        assert P ** n == product, n
        product = product * P
    if P is _NILPOTENT_POLY or P is _NILPOTENT_SOUL:
        assert P ** 2 and not P ** 3
    if isinstance(P, Supernumber) and P.body():
        assert P ** -2 == (P * P).inverse()
    if isinstance(P, (ScalarPoly, SuperPolynomial)):
        with pytest.raises(ValueError):
            P ** -1


@pytest.mark.parametrize("x, y", [
    (Supernumber(L, {0: 1, 0b101: grat(2, 1), 0b11: -3}),
     Supernumber(L, {0b11: 3, 0b1000: 1})),
    (ScalarPoly({0: 1, 2: grat(0, 1), 5: 7}), ScalarPoly({2: grat(0, -1), 1: 1})),
    (Sampler(random.Random(64), L).superpoly(max_terms=4),
     Sampler(random.Random(65), L).superpoly(max_terms=4)),
])
def test_a_sum_stores_no_zero_terms(x, y):
    def stored(v):
        return v.coeffs if isinstance(v, ScalarPoly) else v.terms

    assert stored(x + (-x)) == {}
    total = stored(x + y)
    assert all(total.values())
    assert stored((x + y) + (-x)) == stored(y)


def test_adding_zero_normalises_nothing(monkeypatch):
    F = RSF(_NILPOTENT_POLY, _ZP1)
    zero = RSF.zero(L)
    calls = []
    monkeypatch.setattr(superfield, "_cancel_common_factor",
                        lambda num, den: calls.append(den))
    assert F + zero is F and zero + F is F and F - zero is F
    assert not calls


def _long_product(p, q):
    """Coefficient convolution: the generic product, computed here."""
    out = {}
    for i, a in p.coeffs.items():
        for j, b in q.coeffs.items():
            out[i + j] = out.get(i + j, grat(0)) + a * b
    return ScalarPoly(out)


def _long_division(p, q):
    """Schoolbook long division by q, computed here."""
    rem = dict(p.coeffs)
    quo = {}
    d, lc = q.degree(), q.leading()
    for k in range(p.degree(), d - 1, -1):
        c = rem.pop(k, grat(0))
        if not c:
            continue
        quo[k - d] = c / lc
        for j, b in q.coeffs.items():
            if j < d:
                rem[k - d + j] = rem.get(k - d + j, grat(0)) - quo[k - d] * b
    return ScalarPoly(quo), ScalarPoly(rem)


scalar_roots = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)


def _long_power(root, j):
    out = ScalarPoly.one()
    for _ in range(j):
        out = _long_product(out, _linear_factor(root))
    return out


@settings(deadline=None, max_examples=60)
@given(scalar_roots, scalar_roots, st.integers(0, 8), st.integers(0, 8))
@example(grat(0), grat(1), 3, 2)
@example(grat(2), grat(2), 8, 8)
def test_linear_power_closed_forms_match_long_arithmetic(r, s, a, b):
    """(z - r)**a times or over (z - r)**b is a closed-form power of z - r
    whose root map is {r: a + b} or {r: a - b}; powers of two roots
    multiply by convolution, and their product divides back exactly to
    the known factor.  Every result agrees with long multiplication and
    division."""
    p, q = _long_power(r, a), _long_power(r, b)
    product = p * q
    assert product == _long_product(p, q)
    assert dict(product.roots()) == ({r: a + b} if a + b else {})
    assert _long_power(r, a).divmod(q) == _long_division(p, q)
    if a >= b:
        assert dict(p.divmod(q)[0].roots()) == ({r: a - b} if a > b else {})

    mixed = _long_power(s, b)
    if r != s and a and b:
        fresh = _long_power(r, a)
        with mock.patch.object(superfield, "_from_roots",
                               side_effect=AssertionError("closed form used")):
            two = fresh * mixed
            assert fresh.divmod(mixed) == _long_division(p, mixed)
        assert two == _long_product(p, mixed)
        assert dict(two.roots()) == {r: a, s: b}
        quotient, remainder = two.divmod(_long_power(s, b))
        assert quotient == p and remainder.is_zero()
        assert dict(quotient.roots()) == {r: a}
        assert (quotient, remainder) == _long_division(two, mixed)


_SUM_ROOTS = (grat(1), grat(-2), grat(1, 1))


def lcm_sum_terms(seed):
    """2-4 (sign, numerator, denominator) terms, the first sign positive,
    whose denominators are all equal, all powers of linear factors (with
    shared roots, and 1), or `quotient_operand` denominators."""
    s = Sampler(random.Random(seed), L)
    kind = s.rng.randrange(3)
    shared = quotient_operand(seed).den
    terms = []
    for j in range(s.rng.randint(2, 4)):
        if kind == 0:
            den = shared
        elif kind == 1:
            den = _linear_factor(s.rng.choice(_SUM_ROOTS)) ** s.rng.randint(0, 3)
        else:
            den = quotient_operand(s.rng.getrandbits(32)).den
        sign = 1 if not j else s.rng.choice((1, -1))
        terms.append((sign, s.superpoly(max_terms=3), den))
    return terms


@settings(deadline=None, max_examples=60)
@given(seeds.map(lcm_sum_terms))
def test_lcm_sum_is_the_sum_over_the_least_common_denominator(terms):
    num, den = superfield.lcm_sum(terms)
    # the reference cross-multiplies over the product of the denominators
    product = ScalarPoly.one()
    for _, _, d in terms:
        product = product * d
    reference = SuperPolynomial.zero(L)
    for sign, n, d in terms:
        part = n.mul_scalar_poly(product.divmod(d)[0])
        reference = reference + part if sign > 0 else reference - part
    assert RSF(num, den) == RSF(reference, product)
    assert all(den.divmod(d)[1].is_zero() for _, _, d in terms)
    assert product.divmod(den)[1].is_zero()
    if len({d for _, _, d in terms}) == 1:
        assert den == terms[0][2]


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_a_laurent_numerator_substitutes_as_a_pole_at_zero(seed):
    """F(w) = (F z**k)(w) / w**k: the powers of z that a Laurent numerator
    carries are the pole at 0 of the one cache of inverse powers."""
    s = Sampler(random.Random(seed), L)
    F = s.rational_superfunction(max_terms=3, z_span=(-3, 2))
    k = max(-F.num.min_z(), 0) + s.rng.randrange(2)
    tp, tm = thetas()
    w = rsf_z() + s.gaussian_rational(nonzero=True) \
        + s.rational_superfunction(max_terms=2, parity=0)
    images = (tp + s.rational_superfunction(max_terms=2, parity=1),
              tm + s.rational_superfunction(max_terms=2, parity=1))
    if w.body_is_zero():
        return
    shifted = (F * RSF.z(L) ** k).substitute(w, images)
    assert F.substitute(w, images) == shifted * w.inverse() ** k


def nested_product(x, y):
    """The reference product over the nested form, one supernumber per
    (z exponent, odd mask): t^M1 c1 * t^M2 c2 = sign t^(M1|M2) c1' c2,
    where c1' is c1 with its odd part negated when t^M2 is odd (c1 moves
    past it), and sign is -1 when the theta- of t^M1 passes the theta+
    of t^M2."""
    out = {}
    for (k1, m1), c1 in x.coefficients().items():
        for (k2, m2), c2 in y.coefficients().items():
            if m1 & m2:
                continue
            p = (c1.grade_involution() if m2.bit_count() & 1 else c1) * c2
            if m1 >> THETA_MINUS & 1 and m2 >> THETA_PLUS & 1:
                p = -p
            key = (k1 + k2, m1 | m2)
            out[key] = out[key] + p if key in out else p
    return SuperPolynomial(x.L, out)


def mixed_superpoly(sampler):
    """A superpolynomial of mixed parity; over L > 0 generators it has odd
    coefficients after theta+, after theta- and after both."""
    x = sampler.superpoly(max_terms=4, z_span=(-2, 3))
    if sampler.L:
        x = x + SuperPolynomial(sampler.L, {
            (k, mask): sampler.odd(2) for k, mask in ((0, 1), (1, 2), (-1, 3))})
    return x


@pytest.mark.parametrize("generators", [0, 6, 8])
@settings(deadline=None, max_examples=40)
@given(seeds)
def test_the_flat_product_is_the_nested_product(generators, seed):
    sampler = Sampler(random.Random(seed), generators)
    x, y = mixed_superpoly(sampler), mixed_superpoly(sampler)
    assert x * y == nested_product(x, y)
    assert y * x == nested_product(y, x)
    assert x * x == nested_product(x, x)
