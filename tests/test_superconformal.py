import random

import pytest

from supersphere.grassmann import NotInvertible, Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import I, grat
from supersphere.spheres import (
    SphereAutomorphism,
    transition_inverse as sphere_transition_inverse,
)
from supersphere.superconformal import (
    CoordinateTriple,
    N1SuperanalyticMap,
    NotInvertibleComponent,
    NotSuperconformal,
    SuperconformalMap,
    from_n1,
    to_n1,
)
from supersphere.superfield import (
    RationalSuperfunction as RSF,
    ScalarPoly,
    SuperPolynomial,
    THETA_MINUS,
    THETA_PLUS,
    apply_D,
)

L = 6


def transition(n):
    return SuperconformalMap(
        RSF.z_power(L, -1),
        RSF.z_power(L, n - 1, coeff=I),
        RSF.z_power(L, -n - 1, coeff=I),
    )


def moebius_map(a, b, c, d):
    num = SuperPolynomial(L, 2, {(1, 0): Supernumber.scalar(L, a),
                                 (0, 0): Supernumber.scalar(L, b)})
    den = ScalarPoly({1: grat(c), 0: grat(d)})
    f = RSF(num, den)
    czd = RSF(SuperPolynomial(L, 2, {(1, 0): Supernumber.scalar(L, c),
                                     (0, 0): Supernumber.scalar(L, d)}))
    return SuperconformalMap(f, czd.inverse(), czd.inverse())


class TestConstraint:
    def test_identity_passes(self):
        assert SuperconformalMap.identity(L).check().ok

    def test_transitions_pass(self):
        # f' = -z^-2 must equal g+ g- = (i z^(n-1))(i z^(-n-1))
        for n in range(-4, 5):
            report = transition(n).check()
            assert report.ok, (n, report)

    def test_square_fails(self):
        one = RSF.one(L)
        bad = SuperconformalMap(RSF.z(L) ** 2, one, one)
        report = bad.check()
        assert not report.ok
        assert report.failures == ("constraint",)

    def test_vanishing_g_body_reported(self):
        soul = RSF.from_constant(L, Supernumber.monomial(L, (1, 2)))
        one = RSF.one(L)
        probe = SuperconformalMap(RSF.z(L), one + soul - one, one,
                                  coefficient_bound=False)
        report = probe.check()
        assert "g_plus_body" in report.failures


class TestExpansion:
    def test_identity_expands_to_coordinates(self):
        assert SuperconformalMap.identity(L).expand() == CoordinateTriple.identity(L)

    def test_transition_expansion(self):
        n = 3
        triple = transition(n).expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        assert triple.even == RSF.z_power(L, -1)
        assert triple.plus == tp * RSF.z_power(L, n - 1, coeff=I)
        assert triple.minus == tm * RSF.z_power(L, -n - 1, coeff=I)

    def test_odd_shift_expansion(self):
        # components (f = z, g = 1, psi+ = zeta1, psi- = 0)
        zeta1 = RSF.from_constant(L, Supernumber.generator(L, 1))
        one = RSF.one(L)
        m = SuperconformalMap(RSF.z(L), one, one, zeta1)
        triple = m.expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        assert triple.even == RSF.z(L) + tm * zeta1
        assert triple.plus == zeta1 + tp
        assert triple.minus == tm
        # oracle: the defining conditions hold on the expansion
        for sign, image in ((+1, triple.minus), (-1, triple.plus)):
            assert apply_D(image, sign).is_zero()
        for sign, image, other in ((+1, triple.plus, triple.minus),
                                   (-1, triple.minus, triple.plus)):
            residual = apply_D(triple.even, sign) - other * apply_D(image, sign)
            assert residual.is_zero()

    def test_expand_rejects_invalid(self):
        one = RSF.one(L)
        bad = SuperconformalMap(RSF.z(L) ** 2, one, one)
        with pytest.raises(NotSuperconformal):
            bad.expand()


class TestExtraction:
    def test_roundtrip_on_samples(self):
        s = Sampler(random.Random(7), L)
        for _ in range(25):
            m = s.superconformal_map()
            assert SuperconformalMap.extract(m.expand()) == m

    def test_swapped_thetas_rejected(self):
        triple = CoordinateTriple.identity(L)
        swapped = CoordinateTriple(triple.even, triple.minus, triple.plus)
        with pytest.raises(NotSuperconformal):
            SuperconformalMap.extract(swapped)


class TestComposition:
    def test_identity_composes(self):
        ident = SuperconformalMap.identity(L)
        assert ident.compose(ident) == ident

    def test_double_transition(self):
        m = transition(0)
        minus_one = RSF.from_constant(L, grat(-1))
        assert m.compose(m) == SuperconformalMap(RSF.z(L), minus_one, minus_one)

    def test_moebius_composition_is_matrix_product(self):
        # oracle: multiply the 2x2 matrices over the scalars
        m1 = moebius_map(1, 2, 0, 1)
        m2 = moebius_map(3, 1, 2, 1)
        composite = m2.compose(m1)
        a = grat(3) * grat(1) + grat(1) * grat(0)
        b = grat(3) * grat(2) + grat(1) * grat(1)
        c = grat(2) * grat(1) + grat(1) * grat(0)
        d = grat(2) * grat(2) + grat(1) * grat(1)
        expected = moebius_map(a, b, c, d)
        assert composite.f == expected.f

    def test_composition_closure_and_associativity(self):
        s = Sampler(random.Random(11), L)
        for _ in range(10):
            m1, m2, m3 = (s.superconformal_map() for _ in range(3))
            c = m2.compose(m1)
            assert c.check().ok
            assert m3.compose(m2).compose(m1) == m3.compose(m2.compose(m1))

    def test_matches_full_triple_composition(self):
        # reference: compose the full coordinate triples, then extract
        pairs = []
        s = Sampler(random.Random(17), L)
        for _ in range(12):
            pairs.append((s.superconformal_map(), s.superconformal_map()))
        for n in range(-4, 5):
            sn = Sampler(random.Random(1700 + n), L)
            for _ in range(2):
                T1, T2 = (SphereAutomorphism.build(sn.automorphism_params(n))
                          for _ in range(2))
                pairs.append((T1.southern, T2.southern))
            if abs(n) in (2, 3):
                south = T1.southern
                pairs.append((transition(n), south))
                pairs.append((south.compose(transition(n)),
                              sphere_transition_inverse(n, L)))
        for m1, m2 in pairs:
            composite = m2.compose(m1)
            assert composite == SuperconformalMap.extract(
                m2.expand().compose(m1.expand()))
            for name, comp in composite.components().items():
                if comp.is_zero():
                    assert comp.den.is_one(), name
                else:
                    assert comp.den.leading() == grat(1), name
                    assert comp.den.eval_scalar(grat(0)), name
                # canonical: normalising again changes nothing
                renormalised = RSF(comp.num, comp.den)
                assert (renormalised.num, renormalised.den) == \
                    (comp.num, comp.den), name

    def test_transform_law(self):
        s = Sampler(random.Random(13), L)
        for _ in range(8):
            m = s.superconformal_map()
            G = s.rational_superfunction(max_terms=3, with_denominator=False)
            triple = m.expand()
            images = (triple.plus, triple.minus)
            for sign, image in ((+1, triple.plus), (-1, triple.minus)):
                lhs = apply_D(G.substitute(triple.even, images), sign)
                rhs = apply_D(image, sign) * apply_D(G, sign).substitute(
                    triple.even, images)
                assert lhs == rhs


class TestInversion:
    def test_identity(self):
        ident = SuperconformalMap.identity(L)
        assert ident.invert() == ident

    def test_transitions(self):
        for n in (-3, 0, 2):
            m = transition(n)
            inv = m.invert()
            assert m.compose(inv) == SuperconformalMap.identity(L)
            assert inv.compose(m) == SuperconformalMap.identity(L)

    def test_moebius_inverse_matrix(self):
        # oracle: the matrix inverse of (a b; c d) with det 1 is (d -b; -c a)
        m = moebius_map(3, 1, 2, 1)
        inv = m.invert()
        assert inv.f == moebius_map(1, -1, -2, 3).f
        assert m.compose(inv) == SuperconformalMap.identity(L)

    def test_inverse_with_souls(self):
        s = Sampler(random.Random(19), L)
        for _ in range(6):
            params_map = moebius_map(1, 0, 0, 1)
            zeta = RSF.from_constant(L, s.odd(1, L - 2))
            one = RSF.one(L)
            m = SuperconformalMap(RSF.z(L), one, one, zeta, RSF.zero(L))
            inv = m.invert()
            assert m.compose(inv) == SuperconformalMap.identity(L)
            assert inv.compose(m) == SuperconformalMap.identity(L)

    def test_non_moebius_rejected(self):
        one = RSF.one(L)
        z = RSF.z(L)
        # a valid superconformal map whose body is z^2 - not invertible
        m = SuperconformalMap(z * z, z * grat(2), one)
        assert m.check().ok
        with pytest.raises(NotInvertible):
            m.invert()


class TestN1Correspondence:
    def test_shifted_origin_example(self):
        z = RSF.z(L)
        one = RSF.one(L)
        zero = RSF.zero(L)
        h = N1SuperanalyticMap(z, one, zero, one)
        m = from_n1(h)
        assert m.check().ok
        triple = m.expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        half = grat("1/2")
        assert triple.even == z + tp * half
        assert triple.plus == tp
        assert triple.minus == one * half + tm
        assert to_n1(m) == h

    def test_transition_image(self):
        for n in (-2, 0, 1, 4):
            h = to_n1(transition(n))
            assert h.f1 == RSF.z_power(L, -1)
            assert h.xi.is_zero()
            assert h.psi.is_zero()
            assert h.g == RSF.z_power(L, n - 1, coeff=I)

    def test_roundtrips_on_samples(self):
        s = Sampler(random.Random(29), L)
        for _ in range(25):
            h = s.n1_map()
            m = from_n1(h)
            assert m.check().ok
            assert to_n1(m) == h
            assert from_n1(to_n1(m)) == m

    def test_vanishing_g_rejected(self):
        z = RSF.z(L)
        zero = RSF.zero(L)
        soul = RSF.from_constant(L, Supernumber.monomial(L, (1, 2)))
        with pytest.raises(NotInvertibleComponent):
            N1SuperanalyticMap(z, zero, zero, soul)

    def test_n1_expansion_pair(self):
        z = RSF.z(L)
        one = RSF.one(L)
        zero = RSF.zero(L)
        h = N1SuperanalyticMap(z, one, zero, one)
        even, odd = h.expand()
        theta = RSF.theta(L, 0, n_odd=1)
        z1 = RSF.z(L, n_odd=1)
        assert even == z1 + theta
        assert odd == theta
