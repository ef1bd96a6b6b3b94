import random
import re

import pytest

from supersphere import spheres, superfield
from supersphere.grassmann import Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import HALF, I, grat
from supersphere.spheres import (
    AutomorphismParams,
    InvalidParams,
    MatrixGroupElement,
    NotInFamily,
    SphereAutomorphism,
    acts_identically,
    allowed_pole_check,
    build_map,
    conjugated_translation_coeffs,
    group_action,
    in_action_kernel,
    invsqrt_one_plus_soul,
    normalize_determinant,
    odd_translation,
    recover_moebius,
    to_north,
    transition,
    transition_inverse,
    validate_map,
    _linear,
    _poly,
    _psi,
    _psi_coeffs,
)
from supersphere.superconformal import SuperconformalMap, completing_g, to_n1
from supersphere.superfield import RationalSuperfunction as RSF
from supersphere.superfield import (
    ScalarPoly,
    SuperPoint,
    SuperPolynomial,
    THETA_MINUS,
    THETA_PLUS,
)

L = 6
one = Supernumber.one(L)
zero = Supernumber.zero(L)


def gen(j):
    return Supernumber.generator(L, j)


def matrix_from_scalars(a, b, c, d, eps):
    """The matrix group element with scalar entries over L generators."""
    return MatrixGroupElement(*(Supernumber.scalar(L, v) for v in (a, b, c, d, eps)))


def swap(m):
    """sigma m sigma for sigma(z, t+, t-) = (z, t-, t+): a twist-n family
    member becomes a twist-(-n) one."""
    return SuperconformalMap(m.f, m.g_minus, m.g_plus, m.psi_minus, m.psi_plus)


class TestTransition:
    def test_components(self):
        t0 = transition(0, L)
        assert t0.g_plus == RSF.z_power(L, -1, coeff=I)
        assert t0.g_minus == RSF.z_power(L, -1, coeff=I)
        t1 = transition(1, L)
        assert t1.g_plus == RSF.from_constant(L, I)
        assert t1.g_minus == RSF.z_power(L, -2, coeff=I)

    def test_superconformal_across_twists(self):
        for n in range(-6, 7):
            assert transition(n, L).check().ok

    def test_n1_image(self):
        for n in range(-6, 7):
            h = to_n1(transition(n, L))
            assert h.f1 == RSF.z_power(L, -1)
            assert h.g == RSF.z_power(L, n - 1, coeff=I)
            assert h.xi.is_zero() and h.psi.is_zero()

    def test_closed_inverse(self):
        for n in (-4, 0, 3):
            assert transition(n, L).compose(transition_inverse(n, L)) == \
                SuperconformalMap.identity(L)
            assert transition(n, L).invert() == transition_inverse(n, L)

    def test_sphere_wrapper(self):
        t = transition(2, L)
        assert t.check().ok
        body = t.moebius_body()
        a, b, c, d = body
        assert (a, b, c, d) == (grat(0), grat(1), grat(1), grat(0))


class TestDeterminantHelpers:
    def test_invsqrt_series(self):
        s = gen(1) * gen(2)
        x = one + s.scale(4)
        root_inv = invsqrt_one_plus_soul(x)
        assert root_inv * root_inv * x == one

    def test_normalize_soul_determinant(self):
        a = one + gen(1) * gen(2)
        b = gen(3) * gen(4)
        c = zero
        d = one
        a2, b2, c2, d2 = normalize_determinant(a, b, c, d)
        assert a2 * d2 - b2 * c2 == one

    def test_reject_body_determinant(self):
        with pytest.raises(InvalidParams):
            normalize_determinant(one.scale(2), zero, zero, one)


class TestBuild:
    def test_identity_every_regime(self):
        for n in (-3, -2, -1, 0, 1, 2, 3):
            T = group_action(n, MatrixGroupElement.identity(L))
            assert T.southern == SuperconformalMap.identity(L)

    def test_translation_example(self):
        params = AutomorphismParams(
            3, one, zero, zero, one, eps=one,
            psi_minus=[gen(1), zero, zero, zero, zero])
        T = SphereAutomorphism.build(params)
        m = T.southern
        assert m.f == RSF.z(L)
        assert m.psi_minus == RSF.from_constant(L, gen(1))
        assert m.g_plus == RSF.one(L)
        assert m.g_minus == RSF.one(L)
        triple = m.expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        zeta = RSF.from_constant(L, gen(1))
        assert triple.even == RSF.z(L) + tp * zeta
        assert triple.plus == tp
        assert triple.minus == zeta + tm

    def test_zero_regime_constraint(self):
        # g- is completed from g+, and it is the paper's g- with
        # eps- = eps^(-1) (1 - psi1+ psi0- - psi1- psi0+)
        params = AutomorphismParams(0, one, zero, zero, one,
                                    eps=one + gen(1) * gen(2),
                                    psi_plus=[gen(1), gen(2)],
                                    psi_minus=[gen(3), gen(4)])
        m = SphereAutomorphism.build(params).southern
        assert m.check().ok
        assert m == _handwritten_map(params)

    def test_zero_regime_eps_condition_enforced(self):
        # eps+ eps- is tied by construction; eps itself must be invertible
        with pytest.raises(InvalidParams, match="eps must be even and invertible"):
            AutomorphismParams(0, one, zero, zero, one, eps=gen(1) * gen(2),
                               psi_plus=[zero, zero], psi_minus=[zero, zero])

    @pytest.mark.parametrize("n", range(-4, 5))
    def test_factors_place_eps_and_derive_the_other(self, n):
        # the short-side g carries eps, and the completed tower-side g
        # carries the factor the paper derives from it: eps^(-1), or eps-
        # at n = 0; both as the closed forms of `_handwritten_map`
        s = Sampler(random.Random(300 + n), L)
        for _ in range(4):
            p = s.automorphism_params(n)
            m = build_map(p)
            assert m == _handwritten_map(p)
            assert m.check().ok

    def test_determinant_enforced(self):
        with pytest.raises(InvalidParams):
            AutomorphismParams(2, one.scale(2), zero, zero, one, eps=one,
                               psi_minus=[zero] * 4)

    def test_parity_enforced(self):
        with pytest.raises(InvalidParams):
            AutomorphismParams(2, one, zero, zero, one, eps=one,
                               psi_minus=[one, zero, zero, zero])

    def test_coefficient_bound_enforced(self):
        with pytest.raises(InvalidParams):
            AutomorphismParams(2, one, zero, zero, one, eps=one,
                               psi_minus=[gen(L - 1), zero, zero, zero])


class TestValidate:
    def test_roundtrip_every_regime(self):
        s = Sampler(random.Random(3), L)
        for n in (-4, -2, -1, 0, 1, 2, 4):
            p = s.automorphism_params(n)
            m = build_map(p)
            recovered = validate_map(m, n)
            assert build_map(recovered) == m
            # recovery is canonical: a second pass is a fixed point
            assert validate_map(build_map(recovered), n) == recovered

    def test_sign_tie_break(self):
        s = Sampler(random.Random(5), L)
        p = s.automorphism_params(2)
        flipped = AutomorphismParams(
            2, -p.a, -p.b, -p.c, -p.d,
            eps=p.eps.scale(-1), psi_minus=[-x for x in p.psi_minus])
        m1 = build_map(p)
        m2 = build_map(flipped)
        assert m1 == m2  # the double cover collapses the two parameter sets
        assert validate_map(m1, 2) == validate_map(m2, 2)

    # each rejection and recovery case also runs on its theta+- swapped
    # twist, sigma m sigma at -n, where psi+ and psi- trade roles

    def test_foreign_psi_rejected(self):
        params = AutomorphismParams(2, one, zero, zero, one, eps=one,
                                    psi_minus=[zero] * 4)
        m = build_map(params)
        forged = SuperconformalMap(
            m.f, m.g_plus, m.g_minus,
            m.psi_plus + RSF.from_constant(L, gen(1)), m.psi_minus)
        for case, n, short in ((forged, 2, "[+]"), (swap(forged), -2, "-")):
            with pytest.raises(NotInFamily, match=f"psi{short} must vanish"):
                validate_map(case, n)

    @pytest.mark.parametrize("n", [0, 1, -1, 3, -3])
    def test_degree_overflow_rejected(self, n):
        # _psi_coeffs reads _psi back; a psi of degree l over (cz+d)^(l-1)
        # is outside the family, on the tower side and on both at n = 0
        s = Sampler(random.Random(70 + n), L)
        p = s.automorphism_params(n)
        m = build_map(p)
        czd = _linear(L, p.c, p.d)
        inv = czd.inverse()
        psi = {"+": p.psi_plus, "-": p.psi_minus}
        for coeffs in psi.values():
            read = _psi_coeffs(_psi(L, coeffs, inv), czd, len(coeffs), "psi", n)
            assert read == list(coeffs)
        towers = "+-" if n == 0 else spheres.sides(n, "+", "-")[1]
        for side in towers:
            parts = {k: _psi(L, psi[k], inv) for k in "+-"}
            parts[side] = (_poly(L, psi[side] + (gen(1),))
                           * inv ** (len(psi[side]) - 1))
            forged = SuperconformalMap(m.f, m.g_plus, m.g_minus,
                                       parts["+"], parts["-"])
            message = f"psi{side} has degree outside the family bound"
            with pytest.raises(NotInFamily, match=re.escape(message)):
                validate_map(forged, n)

    def test_single_coefficient_recovery(self):
        params = AutomorphismParams(1, one, zero, zero, one, eps=one,
                                    psi_plus=[zero],
                                    psi_minus=[zero, zero, gen(1)])
        m = build_map(params)
        recovered = validate_map(m, 1)
        mirrored = validate_map(swap(m), -1)
        for short, tower in ((recovered.psi_plus, recovered.psi_minus),
                             (mirrored.psi_minus, mirrored.psi_plus)):
            assert tower[2] == gen(1)
            assert tower[0] == zero
            assert list(short) == [zero]

    def test_wrong_twist_rejected(self):
        params = AutomorphismParams(3, one, zero, one, one, eps=one,
                                    psi_minus=[zero] * 5)
        m = build_map(params)
        for case, n in ((m, 2), (swap(m), -2)):
            with pytest.raises(NotInFamily):
                validate_map(case, n)

    @pytest.mark.parametrize("n", [-1, -2, -3, -6])
    def test_mirror_regimes_match_handwritten_formulas(self, n):
        s = Sampler(random.Random(41 - n), L)
        for _ in range(3):
            p = s.automorphism_params(n)
            m = _handwritten_mirror_map(p)
            assert build_map(p) == m
            assert validate_map(m, n) == _handwritten_mirror_params(m, n)
            # a twist -n member is superconformal but outside the family,
            # and both reject it with the same complaint about psi-
            foreign = build_map(s.automorphism_params(-n))
            with pytest.raises(NotInFamily) as folded:
                validate_map(foreign, n)
            with pytest.raises(NotInFamily) as handwritten:
                _handwritten_mirror_params(foreign, n)
            assert str(folded.value) == str(handwritten.value)
            assert str(folded.value).startswith("psi- must")


def substitution_recovery(m):
    """(a, b, c, d) by composing f with the inverse scalar Moebius map and
    reading the soul correction off derivatives at z = 0."""
    a0, b0, c0, d0 = m.moebius_body()
    lam = (a0 * d0 - b0 * c0).inverse().sqrt()
    a0, b0, c0, d0 = (x * lam for x in (a0, b0, c0, d0))
    if not spheres._positive_leading((d0, c0, b0, a0)):
        a0, b0, c0, d0 = -a0, -b0, -c0, -d0
    fhat = m.f.substitute(RSF(SuperPolynomial(L, {(1, 0): d0, (0, 0): -b0}),
                              ScalarPoly({1: -c0, 0: a0})))
    origin = SuperPoint(zero, (zero, zero))
    e0, e1, e2 = (F.evaluate(origin)
                  for F in (fhat, fhat.diff_z(), fhat.diff_z().diff_z()))
    d_hat = invsqrt_one_plus_soul(e1)
    b_hat = e0 * d_hat
    c_hat = (e2 * d_hat ** 3).scale(grat("-1/2"))
    a_hat = (one + b_hat * c_hat) * d_hat.inverse()
    return (a_hat.scale(a0) + b_hat.scale(c0), a_hat.scale(b0) + b_hat.scale(d0),
            c_hat.scale(a0) + d_hat.scale(c0), c_hat.scale(b0) + d_hat.scale(d0))


@pytest.mark.parametrize("n", [-3, 0, 2])
def test_one_substitution_inverts_its_argument_once(n, monkeypatch):
    """The components of I_n^(-1) carry z^(-1), z^(n-1) and z^(-n-1):
    every negative power of z is a power of the one cached 1/w."""
    s = Sampler(random.Random(n), L)
    w = RSF.z(L) + s.even_invertible(2, L - 2)
    at_w = superfield.Substitution(w)
    calls = []
    inverse = RSF.inverse

    def counting(F):
        calls.append(F)
        return inverse(F)

    monkeypatch.setattr(RSF, "inverse", counting)
    images = [at_w(F) for F in transition_inverse(n, L).components().values()]
    monkeypatch.undo()
    assert calls == [w]
    assert images[:3] == [w ** -1, (w ** (n - 1)).scale_left(-I),
                          (w ** (-n - 1)).scale_left(-I)]


# integer Moebius bodies, each with the point z0 recovery reads f at
RECOVERY_BODIES = {
    "pole at 0": ((0, -1, 1, 0), 1),     # d body 0: Laurent numerators
    "polynomial f": ((1, 2, 0, 1), 0),   # c body 0
    "pole at 1": ((0, 1, -1, 1), 0),
    "pole at 2": ((0, -1, 1, -2), 0),    # the tie-break flips its sign
}


@pytest.mark.parametrize("body", sorted(RECOVERY_BODIES))
@pytest.mark.parametrize("n", [-3, -1, 0, 1, 2])
def test_point_recovery_matches_substitution_recovery(body, n):
    s = Sampler(random.Random(f"{body}:{n}"), L)
    scalars, z0 = RECOVERY_BODIES[body]
    entries = [Supernumber.scalar(L, x) + s.soul(2, 0, L - 2) for x in scalars]
    p = s.automorphism_params(n)
    fields = dict(eps=p.eps, psi_plus=p.psi_plus, psi_minus=p.psi_minus)
    p = AutomorphismParams(n, *normalize_determinant(*entries), **fields)
    m = build_map(p)
    assert spheres._regular_point(m.f, grat(scalars[2]), grat(scalars[3])) == z0
    assert recover_moebius(m) == substitution_recovery(m)
    assert build_map(validate_map(m, n)) == m


@pytest.mark.parametrize("n", [-2, 0, 3])
def test_recovery_reads_values_only(n, monkeypatch):
    """recover_moebius reads values of f: it takes no derivative and does
    not regroup the flat terms by z power."""
    m = build_map(Sampler(random.Random(40 + n), L).automorphism_params(n))

    def forbidden(*args):
        raise AssertionError("recovery read more than values of f")

    for cls, name in ((RSF, "diff_z"), (SuperPolynomial, "diff_z"),
                      (ScalarPoly, "derivative"), (SuperPolynomial, "coefficients")):
        monkeypatch.setattr(cls, name, forbidden)
    recovered = recover_moebius(m)
    monkeypatch.undo()
    assert recovered == substitution_recovery(m)


def test_regular_point_skips_poles_and_the_moebius_root():
    # a Laurent numerator rules out 0 and c0 z + d0 = z - 1 rules out 1
    laurent = RSF(SuperPolynomial(L, {(-1, 0): one}),
                  ScalarPoly({2: grat(1), 0: grat(-9)}))
    assert spheres._regular_point(laurent, grat(1), grat(-1)) == 2
    assert spheres._regular_point(laurent, grat(1), grat(-2)) == 1
    # from start = 2 on, z - 2 rules out 2 and the pole rules out 3
    assert spheres._regular_point(laurent, grat(1), grat(-2), start=2) == 4
    # c0 z + d0 = z rules out 0, the poles at 1 and 2 the next two
    poles = RSF(SuperPolynomial(L, {(0, 0): one}),
                ScalarPoly({2: grat(1), 1: grat(-3), 0: grat(2)}))
    assert spheres._regular_point(poles, grat(1), grat(0)) == 3


# (a, b, c, d) of a twist-3 member, with the point z0 where recovery reads
# f and the point where the eps read takes the short-side g: z0, unless
# c z0 + d = 1 exactly there while c z + d is not 1 everywhere
SOUL = gen(1) * gen(2)
EPS_READ_POINTS = {
    "c = 0, d = 1": ((one, zero, zero, one), 0, 0),
    "c = z1z2, d = 1": ((one, zero, SOUL, one), 0, 1),
    "c = 1 + z1z2, d = -z1z2": ((zero, SOUL - one, one + SOUL, -SOUL), 1, 2),
    # c z + d = 1 at z = 1, but recovery reads f at z0 = 0
    "c = z1z2, d = 1 - z1z2": ((one + SOUL, zero, SOUL, one - SOUL), 0, 0),
}


@pytest.mark.parametrize("case", sorted(EPS_READ_POINTS))
def test_eps_is_read_where_c_z_plus_d_is_not_one(case):
    """A pole of the short-side g at the read point is reported there; one
    at the other of z0 and the next regular point goes unseen by the read
    and fails the comparison with the family's g."""
    entries, z0, read = EPS_READ_POINTS[case]
    member = build_map(AutomorphismParams(3, *entries, one,
                                          psi_minus=[zero] * 5))
    assert spheres._regular_point(member.f, entries[2].body(),
                                  entries[3].body()) == z0
    for pole in {z0, spheres._regular_point(member.f, entries[2].body(),
                                            entries[3].body(), z0 + 1)}:
        g_plus = member.g_plus + RSF(
            SuperPolynomial(L, {(0, 0): gen(3) * gen(4)}),
            ScalarPoly({1: grat(1), 0: grat(-pole)}))
        forged = SuperconformalMap(member.f, g_plus, member.g_minus,
                                   member.psi_plus, member.psi_minus)
        message = (f"a component has a pole at z = {read}" if pole == read
                   else "short-side g differs")
        with pytest.raises(NotInFamily, match=message):
            validate_map(forged, 3)
    assert validate_map(member, 3) == AutomorphismParams(
        3, *entries, one, psi_minus=[zero] * 5)


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 3])
def test_data_that_is_no_parameter_set_is_not_in_family(n):
    # f = z + z[5] z[6] is superconformal with g+- = 1, but b = z[5] z[6]
    # uses generators above L - 2, so no parameter set holds it
    high = Supernumber.monomial(L, (L - 1, L))
    f = RSF(SuperPolynomial(L, {(1, 0): one, (0, 0): high}))
    m = SuperconformalMap(f, RSF.one(L), RSF.one(L), coefficient_bound=False)
    assert m.check().ok
    with pytest.raises(NotInFamily, match="no parameter set"):
        validate_map(m, n)


@pytest.mark.parametrize("n", range(-4, 5))
def test_non_superconformal_map_is_not_in_family(n):
    # recovery reads f and psi+- exactly, compares the short-side g with the
    # family's and checks the constraint, which fixes the tower-side g: as
    # strict as comparing with the member its parameters build.  It gives
    # back the parameters of a member, up to the sign tie-break of the
    # double cover, and rejects the member with one g times the constant
    # 1 + z[1]z[2], which the point read of eps absorbs on the short side,
    # or the short-side g times 1 + z[1]z[2] z, which it cannot absorb
    def with_g(m, short, tower):
        g_plus, g_minus = spheres.sides(n, short, tower)
        return SuperconformalMap(m.f, g_plus, g_minus, m.psi_plus,
                                 m.psi_minus)

    s = Sampler(random.Random(60 + n), L)
    factor = one + gen(1) * gen(2)
    for _ in range(3):
        p = s.automorphism_params(n)
        m = build_map(p)
        q = validate_map(m, n)
        canonical = spheres._positive_leading(
            [v.body() for v in (p.d, p.c, p.b, p.a)])
        assert (q == p) is canonical and build_map(q) == m
        short, tower = spheres.sides(n, m.g_plus, m.g_minus)
        for bad in (with_g(m, short, tower.scale_left(factor)),
                    with_g(m, short.scale_left(factor), tower)):
            assert bad.check().failures == ("constraint",)
            with pytest.raises(NotInFamily, match="superconformal constraint"):
                validate_map(bad, n)
        bad = with_g(m, short * _linear(L, gen(1) * gen(2), one), tower)
        with pytest.raises(NotInFamily, match="short-side g differs"):
            validate_map(bad, n)


def test_even_psi_is_not_in_family_at_n_zero():
    # superconformal, but psi+ = 1 and psi- = z have even coefficients, and
    # they make delta + y+-(z0) a non-unit: parity is checked before eps
    m = SuperconformalMap(RSF.z(L), RSF.from_constant(L, 2), RSF.one(L),
                          RSF.one(L), RSF.z(L), coefficient_bound=False)
    assert m.check().ok
    with pytest.raises(NotInFamily, match="psi coefficients must be odd"):
        validate_map(m, 0)


# _cancel_common_factor calls in one build_map + validate_map round trip,
# as measured with each power, derivative and difference normalised once,
# with validate_map building nothing, the tower g divided by the short g's
# factors for n != 0 and f checked cross-multiplied; normalising factor by
# factor again, rebuilding the member in validate_map, or the generic
# inverse of the short g at n = +-1, exceeds them
NORMALISATION_BUDGET = {0: 12, 1: 7, -1: 7, 3: 8, -3: 8}


def params_with_a_pole(s, n):
    p = s.automorphism_params(n)
    while not p.c.body():  # c z + d has a root: denominators are not constant
        p = s.automorphism_params(n)
    return p


def round_trip_params(n):
    return params_with_a_pole(Sampler(random.Random(100 + n), L), n)


@pytest.mark.parametrize("n", sorted(NORMALISATION_BUDGET))
def test_round_trip_normalisation_budget(n, monkeypatch):
    p = round_trip_params(n)
    calls = []
    cancel = superfield._cancel_common_factor

    def counting(num, den):
        calls.append(den)
        return cancel(num, den)

    monkeypatch.setattr(superfield, "_cancel_common_factor", counting)
    m = build_map(p)
    recovered = validate_map(m, n)
    monkeypatch.undo()
    assert build_map(recovered) == m
    assert len(calls) <= NORMALISATION_BUDGET[n]


@pytest.mark.parametrize("n", [n for n in range(-4, 5) if n])
def test_tower_g_divides_by_the_short_g_factors(n):
    # for n != 0 build_map divides by the short-side g = eps (c z + d)^(|n|-1)
    # through _short_g at 1/(c z + d) and eps^(-1); the reference completes
    # the tower g with the generic inverse of that g
    s = Sampler(random.Random(400 + n), L)
    for p in (params_with_a_pole(s, n), s.automorphism_params(n),
              s.automorphism_params(n)):
        czd = _linear(L, p.c, p.d)
        inv = czd.inverse()
        g_s = (czd ** (abs(n) - 1)).scale_left(p.eps)
        factor_inverse, j = spheres._short_g(p, inv)
        assert j == 0
        assert factor_inverse.scale_left(p.eps.inverse()) * g_s == RSF.one(L)
        f = _linear(L, p.a, p.b) * inv
        psi_plus, psi_minus = _psi(L, p.psi_plus, inv), _psi(L, p.psi_minus, inv)
        g_t = completing_g(f, g_s.inverse(), psi_plus, psi_minus)
        m = build_map(p)
        assert m == SuperconformalMap(f, *spheres.sides(n, g_s, g_t),
                                      psi_plus, psi_minus)
        assert m.check().ok


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("f, g_plus, message", [
    (RSF.z_power(L, 2), RSF.one(L), "body of f is not a Moebius map"),
    (RSF.z_power(L, 1, coeff=HALF), RSF.one(L),
     "Moebius determinant is not a square"),
    # z + z[1]z[2] z^2 would be z/(1 - z[1]z[2] z), a Moebius map
    (RSF(SuperPolynomial(L, {(1, 0): one, (3, 0): gen(1) * gen(2)})),
     RSF.one(L), "f is not of the form"),
    (RSF.z(L), RSF.z_power(L, -1), "a component has a pole at z = 0"),
], ids=["z^2", "z/2", "soul z^3", "g+ = 1/z"])
def test_forged_map_is_rejected_for_its_condition(f, g_plus, message, n):
    # each forgery breaks one condition of recovery: f's body, its
    # determinant over Q(i) (over C, z/2 with a matching g is a member),
    # f's soul, or the short-side g's regularity at the read point
    m = SuperconformalMap(f, g_plus, RSF.one(L), coefficient_bound=False)
    with pytest.raises(NotInFamily, match=message):
        validate_map(m, n)


@pytest.mark.parametrize("n", [-3, 0, 1, 4])
def test_family_pair_builds_each_member_once_and_checks_the_composite(
        n, monkeypatch):
    # build(p1), build(p2), compose and build(composite.params): the two
    # members are built, superconformal by construction, and never checked;
    # validate_map checks the composite once and builds nothing, and
    # rebuilding from its recovered parameters reuses the composite
    s = Sampler(random.Random(200 + n), L)
    p1, p2 = s.automorphism_params(n), s.automorphism_params(n)
    calls = {"build_map": 0, "check": 0}
    uncounted_build, check = spheres.build_map, SuperconformalMap.check

    def counting_build(p):
        calls["build_map"] += 1
        return uncounted_build(p)

    def counting_check(m):
        calls["check"] += 1
        return check(m)

    monkeypatch.setattr(spheres, "build_map", counting_build)
    monkeypatch.setattr(SuperconformalMap, "check", counting_check)
    composite = SphereAutomorphism.build(p2).compose(SphereAutomorphism.build(p1))
    rebuilt = SphereAutomorphism.build(composite.params)
    assert calls == {"build_map": 2, "check": 1}
    assert rebuilt.southern == uncounted_build(composite.params)
    assert rebuilt.southern is composite.southern  # no second copy is kept
    # parameters a caller constructs are rebuilt, unchecked, on every build
    SphereAutomorphism.build(p1)
    SphereAutomorphism.build(p1)
    assert calls == {"build_map": 4, "check": 1}


def test_automorphisms_are_equal_by_twist_and_southern_map():
    """`==` (the benchmark's closure check `rebuilt == composite`): the
    same twist and southern map, whatever object holds them."""
    s = Sampler(random.Random(7), L)
    p = s.automorphism_params(2)
    T = SphereAutomorphism.build(p)
    assert T == SphereAutomorphism.build(p)
    assert T == SphereAutomorphism.from_map(build_map(p), 2)
    assert T != SphereAutomorphism.build(s.automorphism_params(2))
    identity = SuperconformalMap.identity(L)
    assert SphereAutomorphism.from_map(identity, 0) != \
        SphereAutomorphism.from_map(identity, 1)
    assert T != T.southern


def _round_trip(n):
    validate_map(build_map(round_trip_params(n)), n)


def _family_pair(n):
    # both members have a pole, at different points: the composite's
    # products carry two roots
    s = Sampler(random.Random(200 + n), L)
    p1, p2 = params_with_a_pole(s, n), params_with_a_pole(s, n)
    SphereAutomorphism.build(p2).compose(SphereAutomorphism.build(p1))


@pytest.mark.parametrize("run, n", [
    *((_round_trip, n) for n in sorted(NORMALISATION_BUDGET)),
    *((_family_pair, n) for n in (-3, 0, 1, 4)),
])
def test_family_denominators_never_run_euclid(run, n, monkeypatch):
    """Every denominator that building, recovering or composing members
    makes is a product of known linear factors: it carries its root map,
    so neither the gcd loop of Euclid nor cancellation by it runs."""
    euclid, unknown = [], []
    loop, cancel = superfield._euclid, superfield._cancel_common_factor

    def counting_loop(a, b):
        euclid.append((a, b))
        return loop(a, b)

    def counting_cancel(num, den):
        if den.degree() > 0 and den.roots() is None:
            unknown.append(den)
        return cancel(num, den)

    monkeypatch.setattr(superfield, "_euclid", counting_loop)
    monkeypatch.setattr(superfield, "_cancel_common_factor", counting_cancel)
    run(n)
    assert euclid == [] and unknown == []


def count_family_calls(monkeypatch):
    """Counters of `validate_map` and `SphereAutomorphism.compose` calls."""
    calls = {"validate_map": 0, "compose": 0}
    validate, compose = spheres.validate_map, SphereAutomorphism.compose

    def counting_validate(m, n):
        calls["validate_map"] += 1
        return validate(m, n)

    def counting_compose(self, other):
        calls["compose"] += 1
        return compose(self, other)

    monkeypatch.setattr(spheres, "validate_map", counting_validate)
    monkeypatch.setattr(SphereAutomorphism, "compose", counting_compose)
    return calls


@pytest.mark.parametrize("n", [-3, 2])
def test_translation_laws_neither_invert_nor_recover(n, monkeypatch):
    # every law compares composed maps, the conjugation law included:
    # act t(u) against t(w) act, with no inverse and no recovery
    from supersphere.campaign import CampaignConfig, registry
    cfg = CampaignConfig(generators=6, samples=3, n_range=(n,), seed=5)
    calls = count_family_calls(monkeypatch)
    inverts = []
    invert = SuperconformalMap.invert

    def counting_invert(self):
        inverts.append(self)
        return invert(self)

    monkeypatch.setattr(SuperconformalMap, "invert", counting_invert)
    _, suite = registry(cfg)[f"spheres.translations.n={n}"]
    outcome = suite(cfg, random.Random(1))
    assert outcome.status == "pass"
    assert calls == {"validate_map": 0, "compose": 0}
    assert inverts == []


@pytest.mark.parametrize("n", [0, 3])
def test_closure_inverse_law_recovers_only_the_inverse(n, monkeypatch):
    # one recovery per drawn pair's composite, two for the canonical
    # recovery law, one in T.invert() and, for |n| >= 2, one for the
    # forged shape; the inverse law composes maps
    from supersphere.campaign import CampaignConfig, registry
    cfg = CampaignConfig(generators=6, samples=2, n_range=(n,), seed=5)
    calls = count_family_calls(monkeypatch)
    _, suite = registry(cfg)[f"spheres.closure.n={n}"]
    outcome = suite(cfg, random.Random(1))
    assert outcome.status == "pass"
    assert calls == {"validate_map": cfg.samples + 3 + (abs(n) >= 2),
                     "compose": cfg.samples}


class TestGroupLaw:
    def test_compose_with_inverse(self):
        s = Sampler(random.Random(11), L)
        for n in (-2, 0, 3):
            T = SphereAutomorphism.build(s.automorphism_params(n))
            assert T.compose(T.invert()).southern == SuperconformalMap.identity(L)

    def test_moebius_parameters_multiply(self):
        alpha = matrix_from_scalars(1, 2, 0, 1, 1)
        beta = matrix_from_scalars(1, 0, 3, 1, 1)
        n = 2
        composite = group_action(n, alpha).compose(group_action(n, beta))
        product = alpha.compose(beta)
        expected = group_action(n, product)
        assert composite.southern == expected.southern

    def test_translation_addition(self):
        u = [gen(1), zero, gen(2), zero, zero]
        v = [gen(3), gen(4), zero, zero, gen(1)]
        total = [a + b for a, b in zip(u, v)]
        lhs = odd_translation(3, u).compose(odd_translation(3, v))
        assert lhs.southern == odd_translation(3, total).southern

    def test_closure_randomized(self):
        s = Sampler(random.Random(13), L)
        for n in (-3, 0, 2):
            for _ in range(5):
                T1 = SphereAutomorphism.build(s.automorphism_params(n))
                T2 = SphereAutomorphism.build(s.automorphism_params(n))
                composite = T1.compose(T2)
                assert composite.params.n == n
                assert build_map(composite.params) == composite.southern


class TestNorthernChart:
    def test_identity(self):
        T = group_action(3, MatrixGroupElement.identity(L))
        assert T.northern() == SuperconformalMap.identity(L)

    def test_moebius_flip(self):
        # a pure Moebius automorphism has northern body (d z + c)/(b z + a)
        alpha = matrix_from_scalars(3, 2, 4, 3, 1)
        T = group_action(2, alpha)
        northern = T.northern()
        body = northern.moebius_body()
        a, b, c, d = body
        # proportional to (3, 4, 2, 3): cross-ratios agree
        assert a * grat(4) == b * grat(3)
        assert c * grat(3) == d * grat(2)

    def test_formula_cross_check(self):
        s = Sampler(random.Random(17), L)
        for n in (-3, -1, 0, 1, 3):
            for _ in range(4):
                T = SphereAutomorphism.build(s.automorphism_params(n))
                chart = to_north(T)
                assert not chart.mismatches, (n, chart.mismatches)
                assert chart.map.check().ok

    def test_pole_constraint(self):
        s = Sampler(random.Random(19), L)
        for n in (-2, 0, 2):
            for _ in range(4):
                T = SphereAutomorphism.build(s.automorphism_params(n))
                assert allowed_pole_check(T, T.northern()) == []

    def test_pole_location_with_nonzero_b(self):
        alpha = matrix_from_scalars(2, 1, 1, 1, 1)
        T = group_action(2, alpha)
        northern = T.northern()
        chart_failures = allowed_pole_check(T, northern)
        assert chart_failures == []
        # the denominator really is a power of (z + a_B/b_B) = (z + 2)
        assert northern.f.den.eval_scalar(grat(-2)) == grat(0)


class TestDoubleCover:
    def test_kernel_examples(self):
        ident = MatrixGroupElement.identity(L)
        negative_both = ident.negate_matrix(negate_eps=True)
        negative_matrix = ident.negate_matrix(negate_eps=False)
        # even twist: (-id, -id) acts as the identity
        assert group_action(0, negative_both).southern == \
            SuperconformalMap.identity(L)
        assert group_action(2, negative_both).southern == \
            SuperconformalMap.identity(L)
        # odd twist: (-id, id) acts as the identity
        assert group_action(1, negative_matrix).southern == \
            SuperconformalMap.identity(L)
        assert group_action(-1, negative_matrix).southern == \
            SuperconformalMap.identity(L)
        # and the wrong pairing does not
        assert group_action(0, negative_matrix).southern != \
            SuperconformalMap.identity(L)
        assert group_action(1, negative_both).southern != \
            SuperconformalMap.identity(L)

    def test_two_to_one(self):
        s = Sampler(random.Random(23), L)
        for n in (-1, 0, 2, 3):
            for _ in range(6):
                alpha = s.matrix_group_element()
                beta = s.matrix_group_element()
                assert acts_identically(n, alpha, beta) == \
                    in_action_kernel(n, alpha, beta)
                kernel_gen = MatrixGroupElement.identity(L).negate_matrix(
                    negate_eps=(n % 2 == 0))
                assert acts_identically(n, alpha, alpha.compose(kernel_gen))

    def test_action_matches_family_with_trivial_odd_part(self):
        s = Sampler(random.Random(29), L)
        for n in (-2, 0, 1, 3):
            alpha = s.matrix_group_element()
            T = group_action(n, alpha)
            assert T.southern.psi_plus.is_zero()
            assert T.southern.psi_minus.is_zero()
            assert T.southern.check().ok


class TestOddTranslations:
    def test_zero_vector_is_identity(self):
        T = odd_translation(2, [zero] * 4)
        assert T.southern == SuperconformalMap.identity(L)

    def test_displayed_action(self):
        T = odd_translation(2, [zero, zero, zero, gen(1)])
        triple = T.southern.expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        poly = RSF(SuperPolynomial(L, {(3, 0): gen(1)}))
        assert triple.even == RSF.z(L) + tp * poly
        assert triple.plus == tp
        # the third coordinate carries the derivative correction forced by
        # superconformality
        correction = tp * tm * poly.diff_z()
        assert triple.minus == poly + tm - correction

    def test_mirrored_regime(self):
        T = odd_translation(-2, [gen(1), zero, zero, zero])
        triple = T.southern.expand()
        tp = RSF.theta(L, THETA_PLUS)
        tm = RSF.theta(L, THETA_MINUS)
        zeta = RSF.from_constant(L, gen(1))
        assert triple.even == RSF.z(L) + tm * zeta
        assert triple.plus == zeta + tp
        assert triple.minus == tm

    def test_composition_is_addition(self):
        s = Sampler(random.Random(31), L)
        for n in (2, 4, -3):
            rank = abs(n) + 2
            u = s.odd_vector(rank)
            v = s.odd_vector(rank)
            lhs = odd_translation(n, u).compose(odd_translation(n, v))
            rhs = odd_translation(n, [a + b for a, b in zip(u, v)])
            assert lhs.southern == rhs.southern

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidParams):
            odd_translation(2, [zero] * 3)
        with pytest.raises(InvalidParams):
            odd_translation(1, [zero] * 3)

    def test_conjugation_transform(self):
        s = Sampler(random.Random(37), L)
        for n in (2, -2, 3):
            rank = abs(n) + 2
            u = s.odd_vector(rank)
            alpha = s.matrix_group_element()
            A = group_action(n, alpha)
            conj = A.compose(odd_translation(n, u)).compose(A.invert())
            predicted = conjugated_translation_coeffs(n, alpha, u)
            tower = conj.params.psi_minus if n >= 2 else conj.params.psi_plus
            assert list(tower) == list(predicted)
            assert conj.params.a == one and conj.params.b == zero


# The paper's closed forms, kept as the reference that build_map must
# reproduce.  `_handwritten_map` writes every n >= 0 component, both g+-
# included, as build_map did before it completed the tower-side g from the
# constraint; `_handwritten_mirror_map` writes the n = -1 and n <= -2
# regimes as they were before they were derived from n > 0 by the theta+-
# swap.


def _handwritten_map(p):
    if p.n < 0:
        return _handwritten_mirror_map(p)
    n = p.n
    czd = _linear(L, p.c, p.d)
    inv = czd.inverse()
    f = _linear(L, p.a, p.b) * inv
    eps_inv = p.eps.inverse()
    if n == 0:
        (pp0, pp1), (pm0, pm1) = p.psi_plus, p.psi_minus
        psi_p = _linear(L, pp1, pp0) * inv
        psi_m = _linear(L, pm1, pm0) * inv
        # g+- = eps+- (c z + d + y+-) / (c z + d)^2, with y+- linear and
        # eps+ eps- = 1 - psi1+ psi0- - psi1- psi0+
        eps_minus = eps_inv * (one - pp1 * pm0 - pm1 * pp0)
        g = {}
        for sign, eps in ((+1, p.eps), (-1, eps_minus)):
            s = grat(sign)
            lead = (pp1 * pm1 * p.d).scale(-s)
            const = ((pp0 * pm0 * p.c).scale(s)
                     - ((pp1 * pm0 - pm1 * pp0) * p.d).scale(s)
                     - pp1 * pm1 * pp0 * pm0 * p.d)
            g[sign] = (czd.scale_left(eps)
                       + _linear(L, eps * lead, eps * const)) * inv ** 2
        return SuperconformalMap(f, g[+1], g[-1], psi_p, psi_m)
    if n == 1:
        psi_p = RSF.from_constant(L, p.psi_plus[0])
        psi_m = _poly(L, p.psi_minus) * inv ** 2
        t0, t1, t2 = p.psi_minus
        corr = _poly(L, [
            p.psi_plus[0] * (t1 * p.d - t0 * p.c.scale(2)),
            p.psi_plus[0] * (t2 * p.d.scale(2) - t1 * p.c),
        ])
        g_m = (czd + corr).scale_left(eps_inv) * inv ** 3
        return SuperconformalMap(f, RSF.from_constant(L, p.eps), g_m,
                                 psi_p, psi_m)
    inv_t = inv ** (n + 1)
    return SuperconformalMap(f, (czd ** (n - 1)).scale_left(p.eps),
                             inv_t.scale_left(eps_inv),
                             RSF.zero(L), _poly(L, p.psi_minus) * inv_t)


def _handwritten_mirror_map(p):
    n = p.n
    czd = _linear(L, p.c, p.d)
    inv = czd.inverse()
    f = _linear(L, p.a, p.b) * inv
    if n == -1:
        eps_inv = p.eps.inverse()
        psi_m = RSF.from_constant(L, p.psi_minus[0])
        inv2 = inv * inv
        psi_p = _poly(L, p.psi_plus) * inv2
        g_m = RSF.from_constant(L, p.eps)
        pp0, pp1, pp2 = p.psi_plus
        corr = _poly(L, [
            (pp1 * p.d - pp0 * p.c.scale(2)) * p.psi_minus[0],
            (pp2 * p.d.scale(2) - pp1 * p.c) * p.psi_minus[0],
        ])
        g_p = (RSF.from_constant(L, eps_inv) * inv2
               - corr.scale_left(eps_inv) * (inv2 * inv))
        return SuperconformalMap(f, g_p, g_m, psi_p, psi_m)
    psi_p = _poly(L, p.psi_plus) * inv ** (-n + 1)
    g_p = RSF.from_constant(L, p.eps.inverse()) * inv ** (-n + 1)
    g_m = RSF.from_constant(L, p.eps) * czd ** (-n - 1)
    return SuperconformalMap(f, g_p, g_m, psi_p, RSF.zero(L))


def _constant_or_fail(F, what):
    value = F.as_constant()
    if value is None:
        raise NotInFamily(f"{what} must be constant")
    return value


def _coeffs_over(F, czd, power, length, what):
    """The coefficients of F = (polynomial of degree < length) / czd**power."""
    poly = (F * czd ** power).as_superpolynomial()
    if poly is None or poly.min_z() < 0 or poly.max_z() >= length:
        raise NotInFamily(f"{what} is not of degree < {length} over "
                          f"(c z + d)^{power}")
    return [poly.coefficients().get((k, 0), zero) for k in range(length)]


def _handwritten_mirror_params(m, n):
    report = m.check()
    if not report.ok:
        raise NotInFamily(f"map fails superconformality: {list(report.failures)}")
    a, b, c, d = recover_moebius(m)
    czd = _linear(L, c, d)
    if n == -1:
        psi_m = _constant_or_fail(m.psi_minus, "psi-")
        psi_p = _coeffs_over(m.psi_plus, czd, 2, 3, "psi+")
        eps = _constant_or_fail(m.g_minus, "g-")
        params = AutomorphismParams(-1, a, b, c, d, eps=eps,
                                    psi_plus=psi_p, psi_minus=[psi_m])
    else:
        if not m.psi_minus.is_zero():
            raise NotInFamily("psi- must vanish for n <= -2")
        psi_p = _coeffs_over(m.psi_plus, czd, -n + 1, -n + 2, "psi+")
        eps = _constant_or_fail(m.g_minus * czd.inverse() ** (-n - 1),
                                "g- shape")
        if not eps.body():
            raise NotInFamily("eps must be invertible")
        params = AutomorphismParams(n, a, b, c, d, eps=eps, psi_plus=psi_p)
    if _handwritten_mirror_map(params) != m:
        raise NotInFamily("map differs from the family member its data suggests")
    return params
