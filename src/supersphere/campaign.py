"""The verification campaign: every checkable law as a registered suite.

Each suite draws its randomness from a seed derived from the campaign
seed and the suite id, so reports are deterministic given the
configuration and independent of execution order.  Counterexamples
serialize the offending operands for replay.

A law part fails when its verdict is false, and also when it raises one
of the package's own verdicts, `NotSuperconformal`, `InvalidParams` or
`NotInFamily`: the message becomes its `error` operand (`Outcome.check`).
Any other exception ends the suite in "error".

Suite ids follow a dotted scheme (grassmann.laws, spheres.closure.n=2,
ns.jacobi, ...); `registry` lists them for a configuration and
`run_campaign` executes them all, or one of them, into a JSON-ready
report.

The full campaign runs its suites on every usable CPU: this process on
one, a forked worker on each other, and gathers the records in registry
order, so the report bytes are those of a run in this process alone.
With `timings`, a suite's `elapsed_ms` is its own wall time while other
suites run beside it.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, fields

from .scalars import HALF, GaussianRational, grat, ratio
from .grassmann import NotInvertible, Supernumber
from .superfield import (
    RationalSuperfunction,
    SuperPoint,
    SuperPolynomial,
    THETA_MINUS,
    THETA_PLUS,
    apply_D,
    apply_D_minus,
    apply_D_plus,
)
from .superconformal import (
    CoordinateTriple,
    N1SuperanalyticMap,
    NotSuperconformal,
    SuperconformalMap,
    from_n1,
    to_n1,
)
from . import spheres
from .spheres import (
    MatrixGroupElement,
    NotInFamily,
    SphereAutomorphism,
    allowed_pole_check,
    conjugated_translation_coeffs,
    group_action,
    acts_identically,
    in_action_kernel,
    odd_translation,
    to_north,
    transition,
    transition_inverse,
)
from . import nsalgebra as ns
from . import matrixalgebra as msa
from .randgen import Sampler
from . import textio


class UsageError(Exception):
    """Unknown check id or invalid configuration."""


@dataclass
class CampaignConfig:
    generators: int = 6
    band: int = 3
    flow_order: int = 8
    n_range: tuple = tuple(range(-4, 5))
    samples: int = 25
    seed: int = 20100217
    timings: bool = False

    def validate(self):
        if self.generators < 4:
            raise UsageError("generators must be at least 4")
        if self.band < 1:
            raise UsageError("band must be at least 1")
        if self.flow_order < 2:
            raise UsageError("flow order must be at least 2")
        if not self.n_range:
            raise UsageError("n range must be nonempty")
        if self.samples < 1:
            raise UsageError("samples must be positive")


# the package's verdicts that fail the law part raising them
_LAW_ERRORS = (NotSuperconformal, spheres.InvalidParams, NotInFamily,
               textio.ParseError)


class Outcome:
    """Result of one suite run.

    Counterexample operands and discrepancy items are kept in their JSON
    forms (`textio.to_json`), so a report holds what a replay needs.
    """

    def __init__(self, samples=0):
        self.samples = samples
        self.failures = []
        self.discrepancies = []

    def fail(self, law_part, **operands):
        self.failures.append({
            "law": law_part,
            "counterexample": textio.to_json(operands) if operands else None,
        })

    def check(self, law_part, holds, **operands):
        """The verdict holds() returns.  A falsy one fails law_part with
        operands; one of `_LAW_ERRORS` raised fails it with the message
        as the `error` operand too, and gives None.  Any other exception
        propagates, so the suite ends in "error"."""
        try:
            verdict = holds()
        except _LAW_ERRORS as exc:
            self.fail(law_part, error=str(exc), **operands)
            return None
        if not verdict:
            self.fail(law_part, **operands)
        return verdict

    def note_discrepancy(self, **item):
        self.discrepancies.append(textio.to_json(item))

    @property
    def status(self):
        if self.failures:
            return "fail"
        if self.discrepancies:
            return "discrepancies"
        return "pass"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _suite_grassmann_laws(cfg, rng):
    out = Outcome(cfg.samples)
    L = cfg.generators
    s = Sampler(rng, L)
    one = Supernumber.one(L)
    for _ in range(cfg.samples):
        x = s.supernumber(6)
        y = s.supernumber(6)
        z = s.supernumber(6)
        out.check("associativity", lambda: (x * y) * z == x * (y * z),
                  x=x, y=y, z=z)
        out.check("distributivity", lambda: x * (y + z) == x * y + x * z,
                  x=x, y=y, z=z)
        xh = s.supernumber(4, parity=rng.randrange(2))
        yh = s.supernumber(4, parity=rng.randrange(2))
        sign = (-1) ** ((xh.parity() or 0) * (yh.parity() or 0))
        out.check("supercommutativity",
                  lambda: xh * yh == (yh * xh).scale(sign), x=xh, y=yh)
        if xh and yh and xh.parity() is not None and yh.parity() is not None:
            product = xh * yh
            out.check("grading", lambda: not product or product.parity()
                      == (xh.parity() + yh.parity()) % 2, x=xh, y=yh)
        out.check("nilpotency", lambda: (x.soul() ** (L + 1)).is_zero(), x=x)
        body, rest = x.body_soul()
        out.check("body-soul split",
                  lambda: Supernumber.scalar(L, body) + rest == x, x=x)
        if body:
            inv = x.inverse()
            out.check("two-sided inverse",
                      lambda: x * inv == one and inv * x == one, x=x)
        else:
            out.check("zero-body inversion accepted",
                      lambda: _raises(NotInvertible, x.inverse), x=x)
        # functorial extension and restriction
        out.check("restrict after extend",
                  lambda: x.extend(L + 2).restrict(L) == x, x=x)
        out.check("extension is multiplicative",
                  lambda: (x * y).extend(L + 2)
                  == x.extend(L + 2) * y.extend(L + 2), x=x, y=y)
    return out


def _raises(error, call, *args):
    """Whether call(*args) raises error: the verdict of a law part that
    expects a rejection."""
    try:
        call(*args)
    except error:
        return True
    return False


def _suite_superfield_operators(cfg, rng):
    out = Outcome(cfg.samples)
    L = cfg.generators
    s = Sampler(rng, L)
    for _ in range(cfg.samples):
        F = s.rational_superfunction()
        out.check("D+ squares to zero",
                  lambda: apply_D_plus(apply_D_plus(F)).is_zero(), F=F)
        out.check("D- squares to zero",
                  lambda: apply_D_minus(apply_D_minus(F)).is_zero(), F=F)
        out.check("anticommutator is twice d/dz",
                  lambda: apply_D_plus(apply_D_minus(F))
                  + apply_D_minus(apply_D_plus(F)) == F.diff_z() * grat(2),
                  F=F)
        p = rng.randrange(2)
        q = rng.randrange(2)
        Fh = s.rational_superfunction(parity=p, max_terms=3)
        Gh = s.rational_superfunction(parity=q, max_terms=3)
        out.check("super-Leibniz rule",
                  lambda: apply_D_plus(Fh * Gh) == apply_D_plus(Fh) * Gh
                  + (Fh * apply_D_plus(Gh)).scale_left(grat((-1) ** p)),
                  F=Fh, G=Gh)
        # evaluation is a homomorphism
        point = _safe_point(s, rng)
        F2 = s.rational_superfunction(max_terms=3, with_denominator=False)
        G2 = s.rational_superfunction(max_terms=3, with_denominator=False)
        out.check("evaluation homomorphism", lambda: (F2 * G2).evaluate(point)
                  == F2.evaluate(point) * G2.evaluate(point), F=F2, G=G2)
        # substitution associativity on even affine-plus-nilpotent arguments
        w1 = _even_argument(s, rng)
        w2 = _even_argument(s, rng)
        thetas = (RationalSuperfunction.theta(L, THETA_PLUS),
                  RationalSuperfunction.theta(L, THETA_MINUS))
        out.check("substitution associativity",
                  lambda: F.substitute(w2.substitute(w1, thetas), thetas)
                  == F.substitute(w2, thetas).substitute(w1, thetas),
                  F=F, w1=w1, w2=w2)
        # operating commutes with extending the algebra
        out.check("extension stability", lambda: apply_D_plus(F).extend(L + 2)
                  == apply_D_plus(F.extend(L + 2)), F=F)
    return out


def _safe_point(s, rng):
    L = s.L
    body = grat(rng.randrange(1, 4))
    z = Supernumber.scalar(L, body) + s.soul(2, 0)
    return SuperPoint(z, (s.odd(1), s.odd(1)))


def _even_argument(s, rng):
    """alpha z + beta + theta terms, with invertible body slope."""
    L = s.L
    terms = {
        (1, 0): s.even_invertible(2, L - 2),
        (0, 0): s.supernumber(2, 0, L - 2),
        (0, 1 << THETA_PLUS): s.odd(1, L - 2),
        (0, 1 << THETA_MINUS): s.odd(1, L - 2),
        (0, (1 << THETA_PLUS) | (1 << THETA_MINUS)): s.soul(1, 0, L - 2),
    }
    return RationalSuperfunction(SuperPolynomial(L, terms))


def _suite_superconformal_closure(cfg, rng):
    out = Outcome(cfg.samples)
    L = cfg.generators
    s = Sampler(rng, L)
    for i in range(cfg.samples):
        m1 = s.superconformal_map()
        m2 = s.superconformal_map()
        out.check("composition stays superconformal",
                  lambda: m2.compose(m1).check(), m1=m1, m2=m2)
        if i % 4 == 0:
            # the derivations transform homogeneously of degree one
            G = s.rational_superfunction(max_terms=3, with_denominator=False)
            triple = m1.expand()
            images = (triple.plus, triple.minus)
            for sign, image in ((+1, triple.plus), (-1, triple.minus)):
                out.check("derivation transform law", lambda: apply_D(
                    G.substitute(triple.even, images), sign)
                    == apply_D(image, sign)
                    * apply_D(G, sign).substitute(triple.even, images),
                    m=m1, G=G)
        if i % 5 == 0:
            m3 = s.superconformal_map()
            out.check("composition associativity",
                      lambda: m3.compose(m2).compose(m1)
                      == m3.compose(m2.compose(m1)), m1=m1, m2=m2, m3=m3)
    return out


def _suite_superconformal_roundtrip(cfg, rng):
    out = Outcome(cfg.samples)
    L = cfg.generators
    s = Sampler(rng, L)
    for _ in range(cfg.samples):
        h = s.n1_map()
        m = from_n1(h)
        out.check("correspondence output is superconformal", m.check, h=h)
        out.check("N=1 -> N=2 -> N=1 roundtrip", lambda: to_n1(m) == h, h=h)
        out.check("N=2 -> N=1 -> N=2 roundtrip",
                  lambda: from_n1(to_n1(m)) == m, m=m)
    # the shifted-origin example: (z + theta, theta) maps to a
    # superconformal function that does not vanish at the origin
    z = RationalSuperfunction.z(L)
    one = RationalSuperfunction.one(L)
    zero = RationalSuperfunction.zero(L)
    h = N1SuperanalyticMap(z, one, zero, one)
    tp = RationalSuperfunction.theta(L, THETA_PLUS)
    tm = RationalSuperfunction.theta(L, THETA_MINUS)
    out.check("shifted-origin example expansion", lambda: from_n1(h).expand()
              == CoordinateTriple(z + tp * HALF, tp, one * HALF + tm))
    out.check("shifted-origin example roundtrip",
              lambda: to_n1(from_n1(h)) == h)
    return out


def _suite_spheres_transition(cfg, rng):
    out = Outcome()
    L = cfg.generators
    span = _cheap_twists(cfg)
    z_power = RationalSuperfunction.z_power
    zero = RationalSuperfunction.zero(L)
    # double transition flips the odd signs; closed-form inverse inverts
    minus_one = RationalSuperfunction.from_constant(L, grat(-1))
    flip = SuperconformalMap(RationalSuperfunction.z(L), minus_one, minus_one)
    for n in span:
        t = transition(n, L)
        out.check(f"transition n={n} superconformal", t.check)
        out.check(f"N=1 image of transition n={n}", lambda: to_n1(t)
                  == N1SuperanalyticMap(z_power(L, -1), zero, zero, z_power(
                      L, n - 1, coeff=GaussianRational(0, 1))))
        out.check(f"transition squared n={n}", lambda: t.compose(t) == flip)
        out.check(f"transition inverse n={n}", lambda: t.compose(
            transition_inverse(n, L)) == SuperconformalMap.identity(L))
        if n in (min(span), 0, max(span)):
            out.check(f"generic inversion of transition n={n}",
                      lambda: t.invert() == transition_inverse(n, L))
        out.samples += 1
    return out


# the law part that every sampled draw of the sphere suites runs in, so a
# draw that the package rejects fails it; its operand is the draw's sample
# index (the suite's seed replays it), and the rest of that sample is skipped
_DRAWN = "sampled parameters are family members"


def _member(s, n):
    """A drawn twist-n parameter set and the automorphism built from it."""
    p = s.automorphism_params(n)
    return p, SphereAutomorphism.build(p)


def _suite_spheres_closure(cfg, rng, n):
    out = Outcome(cfg.samples)
    s = Sampler(rng, cfg.generators)
    composite = None
    for i in range(cfg.samples):
        drawn = out.check(_DRAWN, lambda: (_member(s, n), _member(s, n)),
                          sample=i)
        if drawn is None:
            continue
        (p1, T1), (p2, T2) = drawn
        composite = out.check(
            "closure under composition", lambda: T2.compose(T1),
            p1=p1, p2=p2) or composite
    # recovered parameters rebuild the composite; read back from JSON
    # they carry no verified member, so build_map runs
    if composite is not None:
        data = textio.params_to_json(composite.params)
        out.check("recovered parameters rebuild the composite",
                  lambda: SphereAutomorphism.build(textio.params_from_json(
                      data)).southern == composite.southern, params=data)
    # recovery is canonical: validating the map built afresh from recovered
    # parameters gives them back, and a member it rejects fails the law
    drawn = out.check(_DRAWN, lambda: _member(s, n), sample=cfg.samples)
    if drawn is not None:
        p, T = drawn
        out.check("parameter recovery is canonical",
                  lambda: spheres.validate_map(spheres.build_map(
                      first := spheres.validate_map(T.southern, n)), n)
                  == first, p=p)
        # inversion stays in the family
        out.check("inverse composes to the identity",
                  lambda: T.southern.compose(T.invert().southern)
                  == SuperconformalMap.identity(cfg.generators), p=p)
    # a wrong shape is rejected
    wrong = abs(n) >= 2 and out.check(
        _DRAWN, lambda: spheres.build_map(s.automorphism_params(n)),
        sample=cfg.samples + 1)
    if wrong:
        bump = RationalSuperfunction.from_constant(
            cfg.generators, Supernumber.generator(cfg.generators, 1))
        short, tower = spheres.sides(n, wrong.psi_plus, wrong.psi_minus)
        forged = SuperconformalMap(wrong.f, wrong.g_plus, wrong.g_minus,
                                   *spheres.sides(n, short + bump, tower))
        out.check("shape violation accepted", lambda: _raises(
            NotInFamily, spheres.validate_map, forged, n), m=forged)
    return out


def _suite_spheres_north(cfg, rng, n):
    out = Outcome(cfg.samples)
    s = Sampler(rng, cfg.generators)
    for i in range(cfg.samples):
        drawn = out.check(_DRAWN, lambda: _member(s, n), sample=i)
        if drawn is None:
            continue
        p, T = drawn
        chart = to_north(T)
        out.check("northern map superconformal", chart.map.check, p=p)
        pole_failures = allowed_pole_check(T, chart.map)
        if pole_failures:
            out.fail("northern poles confined to -a_B/b_B",
                     p=p, failures=pole_failures)
        for name in chart.mismatches:
            out.note_discrepancy(component=name, p=p,
                                 composed=chart.map.components()[name],
                                 formula=chart.formula.components()[name])
    return out


def _suite_spheres_cover(cfg, rng, parity):
    out = Outcome(cfg.samples)
    members = [n for n in cfg.n_range if n % 2 == parity] or [parity]
    s = Sampler(rng, cfg.generators)
    identity = MatrixGroupElement.identity(cfg.generators)
    kernel_gen = identity.negate_matrix(negate_eps=(parity == 0))
    wrong_gen = identity.negate_matrix(negate_eps=(parity == 1))
    for i in range(cfg.samples):
        n = members[i % len(members)]
        drawn = out.check(_DRAWN, lambda: (s.matrix_group_element(),
                                           s.matrix_group_element()),
                          sample=i)
        if drawn is None:
            continue
        alpha, beta = drawn
        same = alpha.compose(kernel_gen)
        out.check("kernel element acts trivially",
                  lambda: acts_identically(n, alpha, same), n=n, alpha=alpha)
        out.check("kernel membership predicate",
                  lambda: in_action_kernel(n, alpha, same), n=n, alpha=alpha)
        other = alpha.compose(wrong_gen)
        out.check("only the stated kernel collapses",
                  lambda: not acts_identically(n, alpha, other),
                  n=n, alpha=alpha)
        out.check("kernel predicate rejects the wrong sign",
                  lambda: not in_action_kernel(n, alpha, other),
                  n=n, alpha=alpha)
        out.check("two-to-one correspondence",
                  lambda: acts_identically(n, alpha, beta)
                  == in_action_kernel(n, alpha, beta),
                  n=n, alpha=alpha, beta=beta)
    return out


def _suite_spheres_translations(cfg, rng, n):
    """Odd translations t(u) of the twist-n sphere, |n| >= 2.

    Every law compares southern maps: t(u) t(v) against t(u + v) and
    t(v) t(u), and act(alpha) t(u) against t(w) act(alpha) for the
    predicted w = `conjugated_translation_coeffs`, which holds exactly
    when act(alpha) t(u) act(alpha)^(-1) = t(w); no law inverts a map or
    recovers parameters."""
    out = Outcome(cfg.samples)
    s = Sampler(rng, cfg.generators)
    rank = abs(n) + 2
    L = cfg.generators
    zero = Supernumber.zero(L)
    for i in range(cfg.samples):
        drawn = out.check(_DRAWN, lambda: (s.odd_vector(rank),
                                           s.odd_vector(rank),
                                           s.matrix_group_element()),
                          sample=i)
        if drawn is None:
            continue
        u, v, alpha = drawn
        tu = odd_translation(n, u).southern
        tv = odd_translation(n, v).southern
        tu_tv = tu.compose(tv)
        out.check("translations add", lambda: tu_tv == odd_translation(
            n, [a + b for a, b in zip(u, v)]).southern, u=u, v=v)
        out.check("translations commute", lambda: tu_tv == tv.compose(tu),
                  u=u, v=v)
        act = group_action(n, alpha).southern
        out.check("conjugation acts by the polynomial transform",
                  lambda: odd_translation(n, conjugated_translation_coeffs(
                      n, alpha, u)).southern.compose(act) == act.compose(tu),
                  u=u, alpha=alpha)
    # the stated rank: single-degree generators are independent members
    for k in range(rank):
        coeffs = [zero] * rank
        coeffs[k] = Supernumber.generator(L, 1)
        out.check("generator at each degree", lambda: [
            x for x in odd_translation(n, coeffs).params.tower if x]
            == [Supernumber.generator(L, 1)], degree=k)
    out.samples += rank
    return out


def _suite_ns_jacobi(cfg, rng):
    """Graded antisymmetry on every unordered pair of band symbols, then
    the super-Jacobi sum on every multiset of three (`ns.jacobi_check`):
    the sum over a permutation of a triple is the sum over the triple up
    to sign.  The samples count the ordered triples that this covers."""
    return _record_violations(Outcome(len(ns.band_symbols(cfg.band)) ** 3),
                              ns.jacobi_check(cfg.band))


def _suite_ns_representation(cfg, rng):
    """Graded antisymmetry on the band, then rep([u, v]) = [rep u, rep v]
    on every unordered pair (`ns.representation_check`): both sides take
    the same sign when u and v swap.  The samples count ordered pairs."""
    return _record_violations(Outcome(len(ns.band_symbols(cfg.band)) ** 2),
                              ns.representation_check(cfg.band))


def _record_violations(out, violations):
    """out, failing each of the first ten (law, keys, defect)."""
    for law, keys, defect in violations[:10]:
        out.fail(law, keys=[ns.key_str(k) for k in keys], defect=repr(defect))
    return out


def _suite_ns_subalgebras(cfg, rng):
    """A symbol pair breaking graded antisymmetry fails that law once, not
    once per twist; closure fails on brackets that leave the span."""
    out = Outcome()
    skew = []
    for n in _cheap_twists(cfg):
        out.samples += 1
        basis = ns.subalgebra_basis(n)
        span = ns.Span(basis)
        twist_skew, bad = ns.closure_violations(span)
        skew += [v for v in twist_skew if v not in skew]
        if bad:
            out.fail(f"closure of the twist-{n} subalgebra", pairs=bad[:5])
        got = tuple(sum(e.parity() == k for e in basis) for k in (0, 1))
        out.check(f"dimensions of the twist-{n} subalgebra",
                  lambda: got == ns.subalgebra_dimensions(n), got=got)
        out.check(f"basis solvability for twist {n}",
                  lambda: span.rank == len(basis))
        if abs(n) >= 2:
            sigma_bad = ns.sigma_action_violations(n)
            if sigma_bad:
                out.fail(f"derivation table for twist {n}",
                         items=[(i, k, repr(g), repr(w))
                                for i, k, g, w in sigma_bad[:5]])
    return _record_violations(out, skew)


def _suite_matrix_osp(cfg, rng):
    out = Outcome()
    table = msa.osp_table()
    _record_table(out, msa.verify_table(table), "table injectivity",
                  "matrix shape constraint",
                  [msa.shape_violations(m, msa.OSP_SHAPE) for _, m in table])
    return out


def _suite_matrix_p(cfg, rng):
    out = Outcome()
    for sign in (+1, -1):
        table = msa.p_table(sign)
        # image 3 is the gl(1) part, outside the p(2|2) shape
        _record_table(out, msa.verify_table(table),
                      f"injectivity of the twist {sign} table",
                      "p-shape of an image matrix",
                      [[] if idx == 3 else msa.shape_violations(m, msa.P_SHAPE)
                       for idx, (_, m) in enumerate(table)])
    return out


def _suite_matrix_semidirect(cfg, rng):
    out = Outcome()
    for n in (2, 3, -2, -3):
        _record_table(out, msa.GnSemidirect(n).verify(), n=n)
    return out


def _record_table(out, report, injectivity=None, shape=None, shapes=(),
                  **context):
    """Record one verified basis-to-matrix table in out.

    Its size**2 bracket pairs count as samples.  A central term or a
    bracket outside the span fails the source algebra's law; any other
    mismatch is a discrepancy, tagged with context.  A table that is not
    injective fails the law named `injectivity`, and each image whose
    list of broken constraints in `shapes` is nonempty fails the law `shape`.
    """
    out.samples += report["size"] ** 2
    for item in report["mismatches"]:
        if item["expected"] in ("no central term", "bracket inside the span",
                                "graded antisymmetry"):
            out.fail("source bracket consistency", **item)
        else:
            out.note_discrepancy(**item, **context)
    if injectivity and not report["injective"]:
        out.fail(injectivity)
    for index, bad in enumerate(shapes):
        if bad:
            out.fail(shape, index=index, broken=bad)


def _expected_flow_rows(kind, n, order, L):
    """Taylor rows of the closed-form flows, built independently."""
    sp = SuperPolynomial
    x = sp.z_power(L, 1)
    phip = sp.theta(L, THETA_PLUS)
    phim = sp.theta(L, THETA_MINUS)
    zero = sp.zero(L)
    one_rows = []
    if kind == "translate":
        one_rows = [(x, phip, phim), (sp.one(L), zero, zero)]
        one_rows += [(zero, zero, zero)] * (order - 1)
    elif kind == "charge":
        ex = ns.exp_coefficient_series(1, order)
        em = ns.exp_coefficient_series(-1, order)
        one_rows = [
            (x if k == 0 else zero,
             phip.scale_left(ex[k]), phim.scale_left(em[k]))
            for k in range(order + 1)
        ]
    elif kind == "special":
        # (x/(1-yx), phi+ (1-yx)^(n-1), phi- (1-yx)^(-n-1))
        one_rows = []
        for k in range(order + 1):
            xb = sp.z_power(L, k + 1)
            cp = _binom(n - 1, k) * (-1) ** k
            cm = _binom(-n - 1, k) * (-1) ** k
            one_rows.append((
                xb,
                sp.z_power(L, k).scale_left(grat(cp)) * phip if cp else zero,
                sp.z_power(L, k).scale_left(grat(cm)) * phim if cm else zero,
            ))
    elif kind == "shift":
        ex = ns.exp_coefficient_series(1, order)
        ep = ns.exp_coefficient_series(ratio(1 - n, 2), order)
        em = ns.exp_coefficient_series(ratio(1 + n, 2), order)
        one_rows = [
            (x.scale_left(ex[k]), phip.scale_left(ep[k]), phim.scale_left(em[k]))
            for k in range(order + 1)
        ]
    return one_rows


def _binom(a, k):
    """a choose k for any integer a; each partial product is an integer."""
    out = 1
    for i in range(k):
        out = out * (a - i) // (i + 1)
    return out


def _flow_matches(series, expected):
    rows = series.rows + [(SuperPolynomial.zero(0),) * 3] * (
        len(expected) - len(series.rows))
    for row, want in zip(rows, expected):
        for got, exp in zip(row, want):
            if got != exp:
                return False
    return True


def _suite_flows_closed_forms(cfg, rng):
    out = Outcome()
    order = cfg.flow_order
    e = ns.NSElement.basis
    sp = SuperPolynomial
    cases = [
        ("translation", e(ns.L(-1)), "translate", 0),
        ("dilation", e(ns.L(0)), "shift", 0),
        ("charge rotation", e(ns.J(0)), "charge", 0),
    ]
    for n in (-3, -1, 0, 1, 2, 4):
        cases.append((f"special conformal, twist {n}",
                      e(ns.L(1)) - e(ns.J(1)).scale(n), "special", n))
        cases.append((f"diagonal shift, twist {n}",
                      e(ns.L(0)) - e(ns.J(0)).scale(ratio(n, 2)),
                      "shift", n))
    for name, element, kind, n in cases:
        out.samples += 1
        series = ns.flow(element, order)
        if not _flow_matches(series, _expected_flow_rows(kind, n, order, 0)):
            out.fail(f"{name} flow",
                     rows=[tuple(map(str, r)) for r in series.rows[:3]])
    # odd flows terminate after the linear row and match the closed maps
    L0 = 0
    x = sp.z_power(L0, 1)
    phip = sp.theta(L0, THETA_PLUS)
    phim = sp.theta(L0, THETA_MINUS)
    zero = sp.zero(L0)
    pair = (1 << THETA_PLUS) | (1 << THETA_MINUS)
    for k in range(0, 4):
        out.samples += 2
        xk = sp.z_power(L0, k)
        bump = SuperPolynomial(L0, {(k - 1, pair): grat(k)}) if k else zero
        for label, generator, other, plus, minus in (
                ("raising", ns.Gp, phim, xk + bump, zero),
                ("lowering", ns.Gm, phip, zero, xk - bump)):
            want = [(x, phip, phim),
                    (other.scale_left(grat(-1)) * xk, plus, minus)]
            out.check(f"{label} flow at degree {k}", lambda: _flow_matches(
                ns.flow(e(generator(2 * k - 1))), want))
    return out


def _suite_flows_group(cfg, rng):
    out = Outcome()
    L = cfg.generators
    s = Sampler(rng, L)
    e = ns.NSElement.basis
    one = Supernumber.one(L)
    zero = Supernumber.zero(L)

    def check_match(label, series, param, build):
        out.check(label, lambda: tuple(
            RationalSuperfunction(c) for c in series.evaluate(param))
            == build().southern.expand(checked=False), param=param)
        out.samples += 1

    for n in sorted(set(cfg.n_range) | {0, 2, -2}):
        y = s.soul(2, 0, L - 2)
        # each even flow at parameter y against its matrix (a, b, c, d; eps):
        # the diagonal shift has a = d^{-1} = exp(y/2), the charge eps = exp(y)
        for label, element, alpha in (
                ("translation", e(ns.L(-1)), (one, y, zero, one, one)),
                ("diagonal", e(ns.L(0)) - e(ns.J(0)).scale(ratio(n, 2)),
                 (_exp_soul(y, HALF), zero, zero,
                  _exp_soul(y, ratio(-1, 2)), one)),
                ("charge", e(ns.J(0)), (one, zero, zero, one, _exp_soul(y, 1))),
                ("special", e(ns.L(1)) - e(ns.J(1)).scale(n),
                 (one, zero, -y, one, one))):
            check_match(f"{label} flow vs action, twist {n}",
                        ns.flow(element, cfg.flow_order), y,
                        lambda: group_action(n, MatrixGroupElement(*alpha)))
    for n in _tower_twists(cfg):
        for k, g in enumerate(ns.subalgebra_basis(n)[4:]):
            xi = s.odd(1, L - 2)
            coeffs = [zero] * (abs(n) + 2)
            coeffs[k] = xi
            check_match(f"odd flow vs translation, twist {n} degree {k}",
                        ns.flow(g), xi, lambda: odd_translation(n, coeffs))
    return out


def _exp_soul(y, rate):
    """exp(rate*y) for a soul y, as a terminating series."""
    out = Supernumber.one(y.L)
    power = Supernumber.one(y.L)
    factor = grat(1)
    for k in range(1, y.L + 1):
        power = power * y
        if power.is_zero():
            break
        factor = factor * rate * ratio(1, k)
        out = out + power.scale(factor)
    return out


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------

def _cheap_twists(cfg):
    """Twists -6 .. 6 and cfg.n_range, for laws cheap enough to sweep."""
    return sorted(set(range(-6, 7)) | set(cfg.n_range))


def _tower_twists(cfg):
    """The twists with an odd translation tower, |n| >= 2; +-2 always."""
    return sorted({m for m in set(cfg.n_range) | {2, -2} if abs(m) >= 2})


# Every suite once, in report order, as (id, runner, values, law).  A suite
# with values runs once for each value in values(cfg), as
# runner(cfg, rng, value), under the id formatted with that value.
_SUITES = (
    ("grassmann.laws", _suite_grassmann_laws, None,
     "generator relations, grading, body/soul, inversion, functorial maps"),
    ("superfield.operators", _suite_superfield_operators, None,
     "odd derivations square to zero and anticommute to twice d/dz; Leibniz; "
     "evaluation and substitution laws"),
    ("superconformal.closure", _suite_superconformal_closure, None,
     "superconformality survives composition; derivations transform "
     "homogeneously"),
    ("superconformal.roundtrip", _suite_superconformal_roundtrip, None,
     "the N=1 correspondence is a two-sided inverse"),
    ("spheres.transition", _suite_spheres_transition, None,
     "chart transitions are superconformal with the stated N=1 image"),
    ("spheres.closure.n={}", _suite_spheres_closure, lambda cfg: cfg.n_range,
     "automorphism family closed under composition with exact parameter "
     "recovery"),
    ("spheres.north.n={}", _suite_spheres_north, lambda cfg: cfg.n_range,
     "northern chart agrees with the closed transformation formulas and pole "
     "constraint"),
    ("spheres.cover.even", _suite_spheres_cover, lambda cfg: (0,),
     "matrix action is two-to-one with kernel (-id, -id) for even twists"),
    ("spheres.cover.odd", _suite_spheres_cover, lambda cfg: (1,),
     "matrix action is two-to-one with kernel (-id, id) for odd twists"),
    ("spheres.translations.n={}", _suite_spheres_translations, _tower_twists,
     "odd translations form an abelian group of rank |n|+2 with polynomial "
     "conjugation"),
    ("ns.jacobi", _suite_ns_jacobi, None,
     "super-Jacobi identity on the full index band"),
    ("ns.representation", _suite_ns_representation, None,
     "superderivations represent the algebra with central charge zero"),
    ("ns.subalgebras", _suite_ns_subalgebras, None,
     "twist subalgebras close with the stated dimensions and derivation tables"),
    ("matrix.osp", _suite_matrix_osp, None,
     "twist-0 basis maps isomorphically into osp(2|2)"),
    ("matrix.p", _suite_matrix_p, None,
     "twist +-1 bases map isomorphically into gl(1) + p(2|2)"),
    ("matrix.semidirect", _suite_matrix_semidirect, None,
     "twist |n|>=2 algebras are (sl2 + gl1) acting on an abelian odd tower"),
    ("flows.closed-forms", _suite_flows_closed_forms, None,
     "exponential flows reproduce their closed forms to the working order"),
    ("flows.group", _suite_flows_group, None,
     "flows with nilpotent parameters specialize the sphere group action"),
)


def _bind(runner, value):
    return lambda cfg, rng: runner(cfg, rng, value)


def registry(cfg):
    """Ordered mapping of check id to (law, runner) for a configuration."""
    cfg.validate()
    checks = {}
    for cid, runner, values, law in _SUITES:
        if values is None:
            checks[cid] = (law, runner)
        else:
            for value in values(cfg):
                checks[cid.format(value)] = (law, _bind(runner, value))
    return checks


def _run_one(cid, law, fn, cfg):
    """Run one suite into its report record.

    A suite that raises is recorded with status "error" and the
    exception's type and message, so the campaign goes on to the next.
    """
    rng = random.Random(f"{cfg.seed}:{cid}")
    start = time.perf_counter()
    try:
        outcome = fn(cfg, rng)
        error = None
    except Exception as exc:
        outcome = Outcome()
        error = {"type": type(exc).__name__, "message": str(exc)}
    elapsed = time.perf_counter() - start
    record = {
        "id": cid,
        "law": law,
        "status": "error" if error else outcome.status,
        "samples": outcome.samples,
        "failures": outcome.failures,
        "discrepancies": outcome.discrepancies,
    }
    if error:
        record["error"] = error
    if cfg.timings:
        record["elapsed_ms"] = round(elapsed * 1000, 3)
    return record


# a forked worker's configuration and (id, law, suite) list, set by `_adopt`
_FORKED = None


def _adopt(cfg, items, cpus):
    """Start a worker on its own CPU: left to the scheduler, workers
    forked on an idle box can share one CPU for their first second."""
    global _FORKED
    _FORKED = cfg, items
    os.sched_setaffinity(0, {cpus.get()})


def _run_forked(k):
    cfg, items = _FORKED
    return _run_one(*items[k], cfg)


def _worker_cpus(count):
    """The CPUs to run `count` suites on, the first for this process and
    one per forked worker; none, to run them all here, with one CPU,
    without fork and `sched_getaffinity` (outside Linux), or under a
    tracer or profiler, which would not see the workers' calls."""
    if not hasattr(os, "sched_getaffinity") or sys.gettrace() \
            or sys.getprofile():
        return []
    cpus = sorted(os.sched_getaffinity(0))[:count]
    return cpus if len(cpus) > 1 else []


def _lost(exc):
    def suite(cfg, rng):
        raise exc
    return suite


def _run_all(checks, cfg):
    """The records of `checks`, a registry mapping, in its order.

    The suites are lined up with the per-twist sphere suites, the long
    ones, first.  This process runs the front of the line, one share of
    it per CPU, and the workers take the rest, so which suites run here
    does not depend on timing.  Suites run here are timed between this
    process's own work, like a serial run's.  Workers inherit the suites through fork, since `_bind`'s lambdas do not
    pickle, and take them as indices.  Each suite a dead worker leaves
    without a record is recorded as raising `BrokenProcessPool`.
    """
    items = [(cid, law, fn) for cid, (law, fn) in checks.items()]
    cpus = _worker_cpus(len(items))
    if not cpus:
        return [_run_one(*item, cfg) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    fork = get_context("fork")
    free = fork.SimpleQueue()
    for cpu in cpus[1:]:
        free.put(cpu)
    pool = ProcessPoolExecutor(len(cpus) - 1, mp_context=fork,
                               initializer=_adopt, initargs=(cfg, items, free))
    line = sorted(range(len(items)), key=lambda k: ".n=" not in items[k][0])
    mine = len(line) - len(line) // len(cpus) * (len(cpus) - 1)
    try:
        sent = {k: pool.submit(_run_forked, k) for k in line[mine:]}
        records = {k: _run_one(*items[k], cfg) for k in line[:mine]}
        for k, future in sent.items():
            try:
                records[k] = future.result()
            except BrokenProcessPool as exc:
                records[k] = _run_one(*items[k][:2], _lost(exc), cfg)
    finally:
        pool.shutdown(cancel_futures=True)
    return [records[k] for k in range(len(items))]


def _config_dict(cfg):
    """The configuration as the report records it: every field but timings."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg)
           if f.name != "timings"}
    out["n_range"] = list(cfg.n_range)
    return out


def run_campaign(cfg, only=None):
    """Run every registered suite, or only the one with id `only` (in
    this process).

    Deterministic for a fixed config; an unknown id raises UsageError.
    """
    checks = registry(cfg)
    if only is not None:
        if only not in checks:
            known = ", ".join(sorted(checks))
            raise UsageError(f"unknown check id {only!r}; known ids: {known}")
        checks = {only: checks[only]}
    records = _run_all(checks, cfg)
    failed = sum(r["status"] == "fail" for r in records)
    noted = sum(r["status"] == "discrepancies" for r in records)
    errors = sum(r["status"] == "error" for r in records)
    summary = {
        "total": len(records),
        "failed": failed,
        "with_discrepancies": noted,
        "status": "fail" if failed else "error" if errors else "pass",
    }
    if errors:
        # only present when a suite raised, so error-free reports keep
        # their bytes
        summary["errors"] = errors
    return {
        "schema": 1,
        "config": _config_dict(cfg),
        "checks": records,
        "summary": summary,
    }


def report_bytes(report):
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
