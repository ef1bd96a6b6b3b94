import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersphere import nsalgebra as ns
from supersphere.grassmann import Supernumber
from supersphere.scalars import ZERO, grat
from supersphere.superfield import SuperPolynomial, THETA_MINUS, THETA_PLUS
from triple_reference import compose_triples


def e(key):
    return ns.NSElement.basis(key)


class TestBrackets:
    def test_supercharge_anticommutator(self):
        got = ns.bracket(e(ns.Gp(1)), e(ns.Gm(-1)))
        assert got == ns.NSElement({ns.L(0): grat(2), ns.J(0): grat(1)})

    def test_virasoro_central_term(self):
        # [L_2, L_-2] = 4 L_0 + (1/12)(8 - 2) d
        got = ns.bracket(e(ns.L(2)), e(ns.L(-2)))
        assert got == ns.NSElement({ns.L(0): grat(4),
                                    ns.CENTRAL: grat(Fraction(1, 2))})
        # (1/12)(1 - 1) d: no central term at m = 1
        assert ns.bracket(e(ns.L(1)), e(ns.L(-1))) == \
            ns.NSElement({ns.L(0): grat(2)})

    def test_same_sign_supercharges_vanish(self):
        assert ns.bracket(e(ns.Gp(1)), e(ns.Gp(3))).is_zero()
        assert ns.bracket(e(ns.Gm(-1)), e(ns.Gm(-1))).is_zero()

    def test_charge_rotations(self):
        assert ns.bracket(e(ns.J(1)), e(ns.J(-1))) == \
            ns.NSElement({ns.CENTRAL: grat(Fraction(1, 3))})
        assert ns.bracket(e(ns.L(2)), e(ns.J(1))) == \
            ns.NSElement({ns.J(3): grat(-1)})
        assert ns.bracket(e(ns.J(0)), e(ns.Gm(5))) == \
            ns.NSElement({ns.Gm(5): grat(-1)})

    def test_central_element_is_central(self):
        for key in (ns.L(2), ns.J(-1), ns.Gp(3), ns.CENTRAL):
            assert ns.bracket(e(ns.CENTRAL), e(key)).is_zero()

    def test_skew_supersymmetry(self):
        rng = random.Random(3)
        keys = ns.band_symbols(3)
        for _ in range(60):
            k1 = keys[rng.randrange(len(keys))]
            k2 = keys[rng.randrange(len(keys))]
            u, v = e(k1), e(k2)
            sign = (-1) ** (ns.key_parity(k1) * ns.key_parity(k2))
            assert ns.bracket(u, v) == ns.bracket(v, u).scale(grat(-sign))

    def test_half_integer_indices_rejected(self):
        with pytest.raises(ValueError):
            ns.Gp(2)


class TestJacobi:
    def test_exhaustive_band_two(self):
        assert ns.jacobi_check(2) == []

    def test_single_triples(self):
        assert ns.jacobi_defect(e(ns.L(1)), e(ns.L(-1)), e(ns.L(0))).is_zero()
        assert ns.jacobi_defect(e(ns.Gp(1)), e(ns.Gm(-1)), e(ns.J(0))).is_zero()


class TestRepresentation:
    def test_charge_rotation_field(self):
        field = ns.representation(ns.J(0))
        assert field.c_x.is_zero()
        assert field.c_plus == SuperPolynomial(0, {(0, 1): grat(-1)})
        assert field.c_minus == SuperPolynomial(0, {(0, 2): grat(1)})

    def test_lowest_supercharge_field(self):
        field = ns.representation(ns.Gp(-1))
        assert field.c_plus == SuperPolynomial(0, {(0, 0): grat(-1)})
        assert field.c_x == SuperPolynomial(0, {(0, 2): grat(1)})
        assert field.c_minus.is_zero()

    def test_central_maps_to_zero(self):
        assert ns.representation(ns.CENTRAL).is_zero()

    def test_bracket_images(self):
        # [rep L_1, rep L_-1] equals rep(2 L_0)
        got = ns.representation(ns.L(1)).bracket(ns.representation(ns.L(-1)))
        assert got == ns.represent(e(ns.L(0)).scale(2))
        # odd pair lands on 2 L_0 + J_0
        got = ns.representation(ns.Gp(1)).bracket(ns.representation(ns.Gm(-1)))
        assert got == ns.represent(
            ns.NSElement({ns.L(0): grat(2), ns.J(0): grat(1)}))
        # the central part of [L_2, L_-2] disappears in the representation
        got = ns.representation(ns.L(2)).bracket(ns.representation(ns.L(-2)))
        assert got == ns.represent(e(ns.L(0)).scale(4))

    def test_band_two_pairs(self):
        assert ns.representation_check(2) == []


class TestSubalgebras:
    def test_twist_zero_basis(self):
        basis = ns.subalgebra_basis(0)
        keys = {k for element in basis for k in element.terms}
        assert keys == {ns.L(-1), ns.L(0), ns.L(1), ns.J(0),
                        ns.Gp(-1), ns.Gp(1), ns.Gm(-1), ns.Gm(1)}
        # pair count of the closure table for eight basis elements
        assert len(basis) * (len(basis) + 1) // 2 == 36

    def test_twist_five_tower(self):
        basis = ns.subalgebra_basis(5)
        odd = [el for el in basis if el.parity() == 1]
        assert len(odd) == 7
        keys = [list(el.terms)[0] for el in odd]
        assert keys[0] == ns.Gm(-1) and keys[-1] == ns.Gm(11)

    def test_negative_one_contains_high_plus(self):
        basis = ns.subalgebra_basis(-1)
        keys = {k for el in basis for k in el.terms}
        assert ns.Gp(3) in keys

    def test_dimensions(self):
        for n in range(-6, 7):
            even, odd = ns.subalgebra_dimensions(n)
            assert even == 4
            assert odd == (4 if abs(n) <= 2 else abs(n) + 2)
        # the two rules agree at |n| = 2
        assert ns.subalgebra_dimensions(2)[1] == 4 == 2 + 2

    def test_closure(self):
        for n in range(-6, 7):
            span = ns.Span(ns.subalgebra_basis(n))
            assert ns.closure_violations(span) == ([], [])

    def test_sigma_tables(self):
        for n in (2, 3, 4, -2, -3, -4):
            assert ns.sigma_action_violations(n) == []

    def test_tower_boundary(self):
        u = e(ns.L(1)) - e(ns.J(1)).scale(3)
        assert ns.bracket(u, e(ns.Gm(7))).is_zero()

    def test_span_solver(self):
        basis = ns.subalgebra_basis(0)
        target = ns.bracket(e(ns.Gp(1)), e(ns.Gm(-1)))
        span = ns.Span(basis)
        coeffs = span.coordinates(target)
        assert coeffs is not None
        rebuilt = ns.NSElement.zero()
        for c, b in zip(coeffs, basis):
            rebuilt = rebuilt + b.scale(c)
        assert rebuilt == target
        assert span.coordinates(e(ns.L(5))) is None


def _reference_solve(target, basis):
    """(rank, coordinates or None): one Gauss-Jordan per target, the loop
    the campaign ran before bases were eliminated once (`ns.Span`)."""
    keys = sorted(
        {k for e in basis for k in e.terms} | set(target.terms), key=ns.key_str
    )
    if not keys:
        return 0, [ZERO] * len(basis)
    rows = [[e.terms.get(k, ZERO) for e in basis] + [target.terms.get(k, ZERO)]
            for k in keys]
    ncols = len(basis)
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return r, None
    coeffs = [ZERO] * ncols
    for i, c in enumerate(pivot_cols):
        coeffs[c] = rows[i][ncols]
    return r, coeffs


SPAN_KEYS = [ns.L(-1), ns.L(0), ns.L(1), ns.J(0), ns.Gp(1), ns.Gm(-1)]
OUTSIDE_KEYS = [ns.L(5), ns.Gp(3), ns.CENTRAL]
small_scalars = st.builds(
    lambda a, b, d: grat(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3))


def _elements(keys, min_size=0):
    return st.dictionaries(st.sampled_from(keys), small_scalars,
                           min_size=min_size, max_size=4).map(ns.NSElement)


def _combination(coeffs, elements):
    out = ns.NSElement.zero()
    for c, x in zip(coeffs, elements):
        out = out + x.scale(c)
    return out


@st.composite
def span_cases(draw):
    """A basis, possibly empty or dependent, and a target of one of four
    kinds: inside the span, random, with a key outside the basis, zero."""
    basis = draw(st.lists(_elements(SPAN_KEYS, min_size=1), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if basis else 0):
        coeffs = draw(st.lists(small_scalars, min_size=len(basis),
                               max_size=len(basis)))
        basis.append(_combination(coeffs, basis))
    basis = draw(st.permutations(basis))
    kind = draw(st.sampled_from(["inside", "random", "outside", "zero"]))
    if kind == "inside":
        coeffs = draw(st.lists(small_scalars, min_size=len(basis),
                               max_size=len(basis)))
        target = _combination(coeffs, basis)
    elif kind == "random":
        target = draw(_elements(SPAN_KEYS, min_size=1))
    elif kind == "outside":
        key = draw(st.sampled_from(OUTSIDE_KEYS))
        coeff = draw(small_scalars.filter(bool))
        target = draw(_elements(SPAN_KEYS)) + ns.NSElement.basis(key, coeff)
    else:
        target = ns.NSElement.zero()
    return basis, target


@settings(max_examples=150, deadline=None)
@given(span_cases())
def test_span_matches_one_elimination_per_target(case):
    basis, target = case
    span = ns.Span(basis)
    rank, coeffs = _reference_solve(target, basis)
    assert span.rank == rank
    got = span.coordinates(target)
    assert got == coeffs
    if got is not None:
        assert _combination(got, basis) == target


# Hand-written negative-twist bases: the reference that the swap images
# returned by `subalgebra_basis` must span.


def _handwritten_negative_basis(n):
    even = [
        e(ns.L(-1)),
        e(ns.L(0)) - e(ns.J(0)).scale(grat(Fraction(n, 2))),
        e(ns.L(1)) - e(ns.J(1)).scale(n),
        e(ns.J(0)),
    ]
    if n == -1:
        odd_keys = [ns.Gp(-1), ns.Gp(1), ns.Gp(3), ns.Gm(-1)]
    else:
        odd_keys = [ns.Gp(2 * k - 1) for k in range(0, -n + 2)]
    return even + [e(k) for k in odd_keys]


@pytest.mark.parametrize("n", range(-6, 0))
def test_swapped_basis_spans_the_handwritten_one(n):
    span = ns.Span(ns.subalgebra_basis(n))
    reference = _handwritten_negative_basis(n)
    assert span.rank == ns.Span(reference).rank == len(reference)
    assert all(span.coordinates(x) is not None for x in reference)


def test_twist_minus_one_basis_order():
    assert ns.subalgebra_basis(-1)[3:] == [
        e(ns.J(0)).scale(-1), e(ns.Gm(-1)), e(ns.Gp(-1)), e(ns.Gp(1)),
        e(ns.Gp(3))]


BAND3_KEYS = ns.band_symbols(3)


@settings(max_examples=80, deadline=None)
@given(_elements(BAND3_KEYS), _elements(BAND3_KEYS))
def test_swap_is_an_involutive_automorphism(u, v):
    assert ns.swap(ns.swap(u)) == u
    assert ns.swap(ns.bracket(u, v)) == ns.bracket(ns.swap(u), ns.swap(v))


def _swap_phis(p):
    """p with phi+ and phi- exchanged; phi+ phi- turns into -phi+ phi-."""
    out = {}
    for (k, mask), c in p.terms.items():
        swapped = ((mask & 1) << 1) | (mask >> 1)
        out[(k, swapped)] = -c if mask == 3 else c
    return SuperPolynomial(p.L, out)


@pytest.mark.parametrize("key", ns.band_symbols(2))
def test_swap_conjugates_the_representation_by_the_phi_swap(key):
    field = ns.representation(key)
    swapped = ns.represent(ns.swap(e(key)))
    assert swapped.c_x == _swap_phis(field.c_x)
    assert swapped.c_plus == _swap_phis(field.c_minus)
    assert swapped.c_minus == _swap_phis(field.c_plus)


class TestFlows:
    def test_translation_flow(self):
        series = ns.flow(e(ns.L(-1)), order=4)
        x = SuperPolynomial.z_power(0, 1)
        assert series.rows[0][0] == x
        assert series.rows[1][0] == SuperPolynomial.one(0)
        assert series.rows[2][0].is_zero()
        assert series.rows[1][1].is_zero() and series.rows[1][2].is_zero()

    def test_odd_flow_exact(self):
        series = ns.flow(e(ns.Gp(-1)))
        assert len(series.rows) == 2
        L = 4
        xi = Supernumber.generator(L, 1)
        x_out, plus_out, minus_out = series.evaluate(xi)
        x = SuperPolynomial.z_power(L, 1)
        phi_plus = SuperPolynomial.theta(L, THETA_PLUS)
        phi_minus = SuperPolynomial.theta(L, THETA_MINUS)
        # (x + phi- xi, xi + phi+, phi-)
        assert x_out == x + phi_minus.scale_right(xi)
        assert plus_out == SuperPolynomial.constant(L, xi) + phi_plus
        assert minus_out == phi_minus

    def test_special_flow_series(self):
        n = 2
        series = ns.flow(e(ns.L(1)) - e(ns.J(1)).scale(n), order=5)
        for k in range(6):
            assert series.rows[k][0] == SuperPolynomial.z_power(0, k + 1)
        # phi+ side carries (1 - y x)^(n-1) = 1 - y x for n = 2
        assert series.rows[1][1] == SuperPolynomial(
            0, {(1, 1): grat(-1)})
        assert series.rows[2][1].is_zero()

    def test_flow_parameter_parity_checked(self):
        series = ns.flow(e(ns.Gp(-1)))
        with pytest.raises(ValueError):
            series.evaluate(Supernumber.one(4))

    def test_odd_flows_compose_additively(self):
        L = 6
        xi1 = Supernumber.generator(L, 1)
        xi2 = Supernumber.generator(L, 2)
        series = ns.flow(e(ns.Gm(3)))

        def as_triple(value):
            from supersphere.superfield import RationalSuperfunction
            from supersphere.superconformal import CoordinateTriple
            coords = series.evaluate(value)
            return CoordinateTriple(*(RationalSuperfunction(c) for c in coords))

        lhs = compose_triples(as_triple(xi1), as_triple(xi2))
        rhs = as_triple(xi1 + xi2)
        assert lhs == rhs

    def test_exponential_coefficients(self):
        series = ns.exp_coefficient_series(Fraction(1, 2), 4)
        assert series[2] == grat(Fraction(1, 8))
        assert series[3] == grat(Fraction(1, 48))


# ---------------------------------------------------------------------------
# the pair and multiset reductions cannot hide a failure
# ---------------------------------------------------------------------------

BASIS_BRACKET = ns._basis_bracket


def with_constant(k1, k2, key, delta):
    """`_basis_bracket` with delta added to the key coefficient of the
    ordered structure constant [k1, k2] only."""
    def mutant(a, b):
        out = BASIS_BRACKET(a, b)
        if (a, b) == (k1, k2):
            out = dict(out)
            out[key] = out.get(key, ZERO) + delta
        return out
    return mutant


def ordered_verdict(band):
    """The laws of `jacobi_check` and `representation_check`, evaluated on
    every ordered pair and triple of the band: True when all hold."""
    elements = [e(k) for k in ns.band_symbols(band)]
    for u in elements:
        for v in elements:
            sign = (-1) ** (u.parity() * v.parity())
            if ns.bracket(u, v) + ns.bracket(v, u).scale(sign):
                return False
            if any(not piece.is_zero()
                   for piece in ns.representation_defect(u, v)):
                return False
            if any(ns.jacobi_defect(u, v, w) for w in elements):
                return False
    return True


def ordered_closure_violations(span):
    """`closure_violations` the way it ran before: every ordered pair."""
    bad = []
    for i, u in enumerate(span.basis):
        for j, v in enumerate(span.basis):
            product = ns.bracket(u, v)
            if product.central_coefficient():
                bad.append((i, j, "central term"))
            elif span.coordinates(product) is None:
                bad.append((i, j, "outside span"))
    return bad


def test_broken_antisymmetry_fails_every_reduced_suite(monkeypatch):
    from supersphere.campaign import CampaignConfig, run_campaign
    # [L(1), L(-1)] = 3 L(0), while [L(-1), L(1)] stays -2 L(0)
    monkeypatch.setattr(ns, "_basis_bracket",
                        with_constant(ns.L(1), ns.L(-1), ns.L(0), grat(1)))
    cfg = CampaignConfig(generators=4, band=1, flow_order=3,
                         n_range=(-1, 0, 1), samples=2, seed=99)
    named = ["L(-1)", "L(1)"]
    for cid in ("ns.jacobi", "ns.representation", "ns.subalgebras"):
        record = run_campaign(cfg, only=cid)["checks"][0]
        assert record["status"] == "fail"
        skew = [f for f in record["failures"]
                if f["law"] == "graded antisymmetry"]
        assert [f["counterexample"]["keys"] for f in skew] == [named]
    # every subalgebra bracket stays in its span: closure holds
    assert record["failures"] == skew


def test_doubled_virasoro_central_term_still_fails_jacobi(monkeypatch):
    def doubled(k1, k2):
        out = BASIS_BRACKET(k1, k2)
        if k1[0] == k2[0] == "L" and ns.CENTRAL in out:
            out = {**out, ns.CENTRAL: out[ns.CENTRAL] * 2}
        return out

    monkeypatch.setattr(ns, "_basis_bracket", doubled)
    violations = ns.jacobi_check(3)
    # antisymmetry holds, so the 84 ordered violations fold into 14 multisets
    assert len(violations) == 14
    assert {law for law, _, _ in violations} == {"super-Jacobi identity"}
    assert ns.representation_check(1) == []


symbols_one = ns.band_symbols(1)


@st.composite
def single_constant_mutants(draw):
    k1 = draw(st.sampled_from(symbols_one))
    k2 = draw(st.sampled_from(symbols_one))
    keys = sorted(BASIS_BRACKET(k1, k2), key=ns.key_str)
    key = draw(st.sampled_from(keys + [ns.CENTRAL, ns.L(0), ns.Gp(1)]))
    delta = draw(st.sampled_from(
        [grat(1), grat(-1), grat(Fraction(1, 2)), grat(0, 1)]))
    return k1, k2, key, delta


@settings(max_examples=40, deadline=None)
@given(single_constant_mutants())
def test_reduced_checks_agree_with_the_ordered_loop(mutant):
    # The loop without its antisymmetry law passes four band-1 mutants that
    # add a central term to one order only, such as [J(1), J(1)] = d; the
    # reduced checks fail them through that law.
    from unittest import mock
    with mock.patch.object(ns, "_basis_bracket", with_constant(*mutant)):
        reduced = not ns.jacobi_check(1) and not ns.representation_check(1)
        assert reduced == ordered_verdict(1)


def test_closure_items_match_the_ordered_loop():
    # twist bases without one even element leave the span on both orders
    # of some pairs; a whole basis closes
    for n, drop, closed in ((0, 2, False), (3, 1, False), (-2, None, True)):
        basis = [x for i, x in enumerate(ns.subalgebra_basis(n)) if i != drop]
        span = ns.Span(basis)
        skew, bad = ns.closure_violations(span)
        assert skew == [] and bad == ordered_closure_violations(span)
        assert (bad == []) == closed


def test_pair_brackets_bracket_each_unordered_pair_once(monkeypatch):
    calls = []
    bracket = ns.bracket

    def counting(u, v):
        calls.append((u, v))
        return bracket(u, v)

    monkeypatch.setattr(ns, "bracket", counting)
    size = len(ns.subalgebra_basis(2))
    assert ns.closure_violations(ns.Span(ns.subalgebra_basis(2))) == ([], [])
    assert len(calls) == size * (size + 1) // 2
