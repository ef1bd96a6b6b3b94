"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance): the verified statements are
polynomial identities over Q(i), so equality either holds or it does not.
Each test prints a single PASS line on success; pytest reports the FAIL
side.  Random data is seed-fixed and desk-scale.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from supersphere import nsalgebra as ns
from supersphere import matrixalgebra as msa
from supersphere.campaign import CampaignConfig, report_bytes, run_campaign
from supersphere.grassmann import NotInvertible, Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import I, grat
from supersphere.spheres import (
    MatrixGroupElement,
    SphereAutomorphism,
    acts_identically,
    allowed_pole_check,
    group_action,
    in_action_kernel,
    odd_translation,
    to_north,
    transition,
)
from supersphere.superconformal import N1SuperanalyticMap, from_n1, to_n1
from supersphere.superfield import (
    RationalSuperfunction as RSF,
    SuperPolynomial,
    THETA_MINUS,
    THETA_PLUS,
    apply_D_minus,
    apply_D_plus,
)

LEDGER_PATH = Path(__file__).resolve().parent.parent / "discrepancy_ledger.json"


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_grassmann_laws():
    L = 6
    s = Sampler(random.Random(101), L)
    one = Supernumber.one(L)
    start = time.perf_counter()
    for _ in range(500):
        x = s.supernumber(6)
        y = s.supernumber(6)
        z = s.supernumber(6)
        assert (x * y) * z == x * (y * z)
        p = s.rng.randrange(2)
        q = s.rng.randrange(2)
        xh = s.supernumber(4, parity=p)
        yh = s.supernumber(4, parity=q)
        assert xh * yh == (yh * xh).scale((-1) ** (p * q))
        assert (x.soul() ** (L + 1)).is_zero()
        if x.body():
            inv = x.inverse()
            assert x * inv == one and inv * x == one
        else:
            with pytest.raises(NotInvertible):
                x.inverse()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(1, f"grassmann laws, 500 samples at L=6 in {elapsed:.2f}s")


def test_criterion_02_derivation_identities():
    L = 6
    s = Sampler(random.Random(102), L)
    for _ in range(200):
        F = s.rational_superfunction(max_terms=4, z_span=(-2, 4))
        assert apply_D_plus(apply_D_plus(F)).is_zero()
        assert apply_D_minus(apply_D_minus(F)).is_zero()
        anti = apply_D_plus(apply_D_minus(F)) + apply_D_minus(apply_D_plus(F))
        assert anti == F.diff_z() * grat(2)
    report(2, "odd derivations square to zero and anticommute to 2 d/dz, "
              "200 samples")


def test_criterion_03_superconformal_closure():
    L = 6
    start = time.perf_counter()
    s = Sampler(random.Random(103), L)
    for _ in range(100):
        m1 = s.superconformal_map()
        m2 = s.superconformal_map()
        assert m2.compose(m1).check().ok
    for n in range(-4, 5):
        sn = Sampler(random.Random(1030 + n), L)
        for _ in range(100):
            T1 = SphereAutomorphism.build(sn.automorphism_params(n))
            T2 = SphereAutomorphism.build(sn.automorphism_params(n))
            composite = T2.compose(T1)  # parameter recovery happens inside
            assert composite.params.n == n
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"closure: 100 map pairs and 9x100 family pairs in {elapsed:.1f}s")


def test_criterion_04_n1_correspondence_roundtrip():
    L = 6
    s = Sampler(random.Random(104), L)
    for _ in range(200):
        h = s.n1_map()
        m = from_n1(h)
        assert to_n1(m) == h
        assert from_n1(to_n1(m)) == m
    z = RSF.z(L)
    one = RSF.one(L)
    h = N1SuperanalyticMap(z, one, RSF.zero(L), one)
    triple = from_n1(h).expand()
    tp = RSF.theta(L, THETA_PLUS)
    tm = RSF.theta(L, THETA_MINUS)
    half = grat(Fraction(1, 2))
    assert triple.even == z + tp * half
    assert triple.plus == tp
    assert triple.minus == one * half + tm
    report(4, "N=1 correspondence roundtrips, 200 samples, "
              "shifted-origin example exact")


def test_criterion_05_transition_consistency():
    L = 6
    for n in range(-6, 7):
        t = transition(n, L)
        assert t.check().ok
        h = to_n1(t)
        assert h.f1 == RSF.z_power(L, -1)
        assert h.xi.is_zero() and h.psi.is_zero()
        assert h.g == RSF.z_power(L, n - 1, coeff=I)
    report(5, "transition maps superconformal with exact N=1 images, "
              "n in [-6, 6]")


def test_criterion_06_chart_cross_check():
    L = 6
    discrepancies = []
    for n in range(-3, 4):
        s = Sampler(random.Random(1060 + n), L)
        for _ in range(100):
            T = SphereAutomorphism.build(s.automorphism_params(n))
            chart = to_north(T)
            # the composition side is authoritative and must be consistent
            assert chart.map.check().ok
            assert allowed_pole_check(T, chart.map) == []
            for name in chart.mismatches:
                discrepancies.append({
                    "twist": n,
                    "component": name,
                })
    if discrepancies:
        LEDGER_PATH.write_text(json.dumps(discrepancies, indent=2))
    assert not discrepancies or LEDGER_PATH.exists()
    suffix = (f"; {len(discrepancies)} formula discrepancies itemized"
              if discrepancies else "; closed formulas agree everywhere")
    report(6, "northern charts valid on 7x100 automorphisms" + suffix)


def test_criterion_07_algebra_consistency():
    assert ns.jacobi_check(3) == []
    assert ns.representation_check(3) == []
    report(7, "super-Jacobi exhaustive and representation exact on band 3")


def test_criterion_08_subalgebras():
    for n in range(-6, 7):
        basis = ns.subalgebra_basis(n)
        assert ns.closure_violations(ns.Span(basis)) == ([], [])
        even, odd = ns.subalgebra_dimensions(n)
        assert even == 4
        assert odd == (4 if abs(n) <= 2 else abs(n) + 2)
        assert len(basis) == even + odd
        if abs(n) >= 2:
            assert ns.sigma_action_violations(n) == []
    report(8, "twist subalgebras closed with stated dimensions and "
              "derivation tables, n in [-6, 6]")


def test_criterion_09_matrix_tables():
    ledger = []
    nsside_broken = False
    for label, table in (("osp", msa.osp_table()),
                         ("p+", msa.p_table(+1)),
                         ("p-", msa.p_table(-1))):
        outcome = msa.verify_table(table)
        assert outcome["injective"], label
        for item in outcome["mismatches"]:
            if item["expected"] in ("no central term",
                                    "bracket inside the span"):
                nsside_broken = True
            ledger.append(dict(item, table=label))
    for n in (2, 3, -2, -3):
        outcome = msa.GnSemidirect(n).verify()
        for item in outcome["mismatches"]:
            if item["expected"] in ("no central term",
                                    "bracket inside the span"):
                nsside_broken = True
            ledger.append(dict(item, table=f"semidirect n={n}"))
    assert not nsside_broken
    if ledger:
        LEDGER_PATH.write_text(json.dumps(ledger, indent=2))
        report(9, f"matrix tables verified with {len(ledger)} recorded "
                  "discrepancies")
    else:
        report(9, "matrix tables verified, every bracket pair matches")


def test_criterion_10_flows():
    order = 8
    L = 6
    e = ns.NSElement.basis
    s = Sampler(random.Random(110), L)
    one = Supernumber.one(L)
    zero = Supernumber.zero(L)

    def exp_soul(y, rate):
        out = Supernumber.one(L)
        power = Supernumber.one(L)
        factor = grat(1)
        for k in range(1, L + 1):
            power = power * y
            if power.is_zero():
                break
            factor = factor * grat(Fraction(rate)) * grat(Fraction(1, k))
            out = out + power.scale(factor)
        return out

    def match(series, param, automorphism):
        coords = series.evaluate(param)
        expansion = automorphism.southern.expand(checked=False)
        got = tuple(RSF(c) for c in coords)
        assert got[0] == expansion.even
        assert got[1] == expansion.plus
        assert got[2] == expansion.minus

    y = s.soul(2, 0, L - 2)
    xi = s.odd(1, L - 2)
    for n in (-3, 0, 2, 4):
        match(ns.flow(e(ns.L(-1)), order), y,
              group_action(n, MatrixGroupElement(one, y, zero, one, one)))
        a = exp_soul(y, Fraction(1, 2))
        d = exp_soul(y, Fraction(-1, 2))
        match(ns.flow(e(ns.L(0)) - e(ns.J(0)).scale(grat(Fraction(n, 2))), order),
              y, group_action(n, MatrixGroupElement(a, zero, zero, d, one)))
        match(ns.flow(e(ns.J(0)), order), y,
              group_action(n, MatrixGroupElement(one, zero, zero, one,
                                                 exp_soul(y, 1))))
        match(ns.flow(e(ns.L(1)) - e(ns.J(1)).scale(n), order), y,
              group_action(n, MatrixGroupElement(one, zero, -y, one, one)))
    for n in (2, 3, -2):
        for k in range(abs(n) + 2):
            coeffs = [zero] * (abs(n) + 2)
            coeffs[k] = xi
            G = ns.Gm if n >= 2 else ns.Gp
            match(ns.flow(e(G(2 * k - 1))), xi, odd_translation(n, coeffs))

    # formal expansions to order 8 against the closed forms
    x = SuperPolynomial.z_power(0, 1)
    phip = SuperPolynomial.theta(0, THETA_PLUS)
    phim = SuperPolynomial.theta(0, THETA_MINUS)
    translate = ns.flow(e(ns.L(-1)), order)
    assert translate.rows[1][0] == SuperPolynomial.one(0)
    assert all(r[0].is_zero() for r in translate.rows[2:])
    scale = ns.flow(e(ns.L(0)), order)
    ex = ns.exp_coefficient_series(1, order)
    eh = ns.exp_coefficient_series(Fraction(1, 2), order)
    for k in range(order + 1):
        assert scale.rows[k][0] == x.scale_left(ex[k])
        assert scale.rows[k][1] == phip.scale_left(eh[k])
    charge = ns.flow(e(ns.J(0)), order)
    em = ns.exp_coefficient_series(-1, order)
    for k in range(order + 1):
        assert charge.rows[k][2] == phim.scale_left(em[k])
    for n in (-2, 0, 3):
        special = ns.flow(e(ns.L(1)) - e(ns.J(1)).scale(n), order)
        for k in range(order + 1):
            assert special.rows[k][0] == SuperPolynomial.z_power(0, k + 1)
            binom = Fraction(1)
            for i in range(k):
                binom *= Fraction(n - 1 - i, i + 1)
            coeff = grat(binom * (-1) ** k)
            expected = (SuperPolynomial.z_power(0, k).scale_left(coeff) * phip
                        if coeff else SuperPolynomial.zero(0))
            assert special.rows[k][1] == expected
        shift = ns.flow(e(ns.L(0)) - e(ns.J(0)).scale(grat(Fraction(n, 2))),
                        order)
        ep = ns.exp_coefficient_series(Fraction(1 - n, 2), order)
        emn = ns.exp_coefficient_series(Fraction(1 + n, 2), order)
        for k in range(order + 1):
            assert shift.rows[k][0] == x.scale_left(ex[k])
            assert shift.rows[k][1] == phip.scale_left(ep[k])
            assert shift.rows[k][2] == phim.scale_left(emn[k])
    report(10, "closed-form flows exact for nilpotent parameters and to "
               "order 8 formally; diagonal flow matches the action with ad=1")


def test_criterion_11_group_structure():
    L = 6
    for parity, twist in ((0, 2), (1, 3)):
        s = Sampler(random.Random(1110 + parity), L)
        for i in range(200):
            n = twist if i % 2 == 0 else twist - 2 * (1 if twist > 0 else -1)
            alpha = s.matrix_group_element()
            beta = s.matrix_group_element()
            assert acts_identically(n, alpha, beta) == \
                in_action_kernel(n, alpha, beta)
            kernel_gen = MatrixGroupElement.identity(L).negate_matrix(
                negate_eps=(parity == 0))
            wrong_gen = MatrixGroupElement.identity(L).negate_matrix(
                negate_eps=(parity == 1))
            assert acts_identically(n, alpha, alpha.compose(kernel_gen))
            assert not acts_identically(n, alpha, alpha.compose(wrong_gen))
    s = Sampler(random.Random(1119), L)
    for n in (2, 3, 4, 5, 6, -2, -4, -6):
        rank = abs(n) + 2
        u = s.odd_vector(rank)
        v = s.odd_vector(rank)
        lhs = odd_translation(n, u).compose(odd_translation(n, v))
        rhs = odd_translation(n, [a + b for a, b in zip(u, v)])
        assert lhs.southern == rhs.southern
        assert lhs.southern == odd_translation(n, v).compose(
            odd_translation(n, u)).southern
        recovered = lhs.params.psi_minus if n >= 2 else lhs.params.psi_plus
        assert len(recovered) == rank
        assert list(recovered) == [a + b for a, b in zip(u, v)]
    report(11, "double cover kernel matches the twist parity on 2x200 "
               "samples; translations abelian of rank |n|+2 for |n| in [2,6]")


def test_criterion_12_determinism():
    cfg = CampaignConfig(generators=4, band=1, flow_order=3,
                         n_range=(-1, 0, 1), samples=2, seed=424242)
    first = report_bytes(run_campaign(cfg))
    second = report_bytes(run_campaign(cfg))
    assert first == second
    assert json.loads(first.decode())["summary"]["failed"] == 0
    report(12, "identical seeds produce byte-identical reports")
