"""N=2 superconformal maps in component form.

A superanalytic coordinate change (z, theta+, theta-) -> (zt, tt+, tt-) is
superconformal when the odd superderivations D+ and D- transform
homogeneously of degree one, which comes down to the two conditions

    D+- tt-+ = 0,        D+- zt - tt-+ * (D+- tt+-) = 0,

with D+- tt+- not identically zero.  Such a map is determined by five
component functions of z alone: even f, g+, g- and odd psi+, psi-, through

    zt  = f + theta+ g+ psi- + theta- g- psi+ + theta+ theta- (psi+ psi-)'
    tt+- = psi+- + theta+- g+- +- theta+ theta- (psi+-)'

subject to the constraint

    f' = (psi+)' psi- - psi+ (psi-)' + g+ g-.

This module stores maps by their components, expands them to full
coordinate triples, extracts components back, composes, inverts, and
converts to and from N=1 superanalytic maps (coefficients restricted two
generators below the ambient algebra so odd partials stay well defined).

Composition computes only the five components of the composite, by
closed formulas in the outer components at the inner f1 (see
SuperconformalMap.compose).  Setting odd variables to zero commutes with
substitution, so f and psi+- need only the image z -> f1, and g+ (g-)
only the one with theta- = 0 (theta+ = 0), where z -> f1 + theta X with X
odd.  For theta-free h, Taylor's theorem gives h(f1 + theta X) = h(f1) +
theta X h'(f1) exactly, as (theta X)**2 = 0; so one theta-free
substitution z -> f1 does all the work.

Inversion, too, works on the five components only.  The scalar part (a
Moebius map in z together with the body factors of g+-) is inverted in
closed form; Newton steps through `compose` then remove the nilpotent
error, each step composing with a first-order inverse of the error, which
`from_n1` makes exactly superconformal.  `expand` gives the full triple
as a plain `CoordinateTriple` record; the tests compose such triples by
full substitution and read them back by `extract`, an independent
reference for composition.
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import HALF, grat
from .grassmann import NotInvertible
from .superfield import (
    RationalSuperfunction,
    ScalarPoly,
    Substitution,
    SuperPolynomial,
    SuperfieldError,
    THETA_MINUS,
    THETA_PLUS,
    apply_D,
    lcm_sum,
)


class NotSuperconformal(SuperfieldError):
    """A coordinate triple fails the superconformality conditions."""


class NotInvertibleComponent(SuperfieldError):
    """A component function that must be invertible has zero body."""


# a full coordinate map (even, odd+, odd-) in (z, theta+, theta-)
CoordinateTriple = namedtuple("CoordinateTriple", "even plus minus")


class CheckReport:
    """Outcome of a superconformality check, with the failed clauses."""

    __slots__ = ("failures",)

    def __init__(self, failures):
        self.failures = tuple(failures)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "CheckReport(ok)"
        return f"CheckReport(failed={list(self.failures)})"


class _ComponentMap:
    """A map by its components, theta-free functions of z over L generators
    in `__slots__`, named `_NAMES`; unless coefficient_bound is false,
    they use generators 1..L-2 only, leaving room for the odd variables."""

    __slots__ = ()
    _NAMES = ()

    def __init__(self, *components, coefficient_bound=True):
        L = getattr(components[0], "L", None)
        for slot, name, F in zip(self.__slots__, self._NAMES, components):
            if not isinstance(F, RationalSuperfunction):
                raise TypeError(f"component {name} must be a rational superfunction")
            if F.L != L:
                raise ValueError(f"component {name} has L = {F.L}, wanted {L}")
            if not F.is_theta_free():
                raise ValueError(f"component {name} must not contain odd variables")
            if coefficient_bound and L >= 2 and not F.num.in_subalgebra(L - 2):
                raise ValueError(f"component {name} uses generators above {L - 2}; "
                                 "coefficients must leave room for the odd variables")
            setattr(self, slot, F)

    @property
    def L(self):
        return getattr(self, self.__slots__[0]).L

    def components(self):
        return {name: getattr(self, slot)
                for name, slot in zip(self._NAMES, self.__slots__)}

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.components() == other.components()

    def __repr__(self):
        comps = ", ".join(f"{k}={v!r}" for k, v in self.components().items())
        return f"{type(self).__name__}({comps})"


class SuperconformalMap(_ComponentMap):
    """An N=2 superconformal map, stored by its five component functions."""

    __slots__ = ("f", "g_plus", "g_minus", "psi_plus", "psi_minus")
    _NAMES = ("f", "g+", "g-", "psi+", "psi-")

    def __init__(self, f, g_plus, g_minus, psi_plus=None, psi_minus=None,
                 coefficient_bound=True):
        zero = RationalSuperfunction.zero(getattr(f, "L", None))
        psi = [zero if p is None else p for p in (psi_plus, psi_minus)]
        super().__init__(f, g_plus, g_minus, *psi, coefficient_bound=coefficient_bound)

    @classmethod
    def identity(cls, L):
        one = RationalSuperfunction.one(L)
        return cls(RationalSuperfunction.z(L), one, one)

    # -- the defining constraint ------------------------------------------

    def check(self):
        """Diagnose the superconformality constraint clause by clause.

        g+ g- = f' - (psi+)' psi- + psi+ (psi-)' (`_constraint_rest`) is
        tested as one `lcm_sum`, the sum of rational superfunctions, over
        monic scalar denominators: no zero divisors, so this is the verdict
        of comparing the normalised sides.
        """
        failures = []
        gp, gm = self.g_plus, self.g_minus
        rest = _constraint_rest(self.f, self.psi_plus, self.psi_minus)
        if lcm_sum([(1, *rest), (-1, gp.num * gm.num, gp.den * gm.den)])[0]:
            failures.append("constraint")
        if gp.body_is_zero():
            failures.append("g_plus_body")
        if gm.body_is_zero():
            failures.append("g_minus_body")
        return CheckReport(failures)

    # -- expansion and extraction -------------------------------------------

    def expand(self, checked=True):
        """The full coordinate triple (zt, tt+, tt-)."""
        if checked:
            report = self.check()
            if not report.ok:
                raise NotSuperconformal(f"components fail {list(report.failures)}")
        L = self.L
        tp = RationalSuperfunction.theta(L, THETA_PLUS)
        tm = RationalSuperfunction.theta(L, THETA_MINUS)
        tptm = tp * tm
        zt = (
            self.f
            + tp * (self.g_plus * self.psi_minus)
            + tm * (self.g_minus * self.psi_plus)
            + tptm * (self.psi_plus * self.psi_minus).diff_z()
        )
        ttp = self.psi_plus + tp * self.g_plus + tptm * self.psi_plus.diff_z()
        ttm = self.psi_minus + tm * self.g_minus - tptm * self.psi_minus.diff_z()
        return CoordinateTriple(zt, ttp, ttm)

    @classmethod
    def extract(cls, triple):
        """Read components off a coordinate triple, checking the two
        defining conditions first: the tests' reference reader."""
        for sign, image in ((+1, triple.minus), (-1, triple.plus)):
            if not apply_D(image, sign).is_zero():
                label = "D+ tt-" if sign > 0 else "D- tt+"
                raise NotSuperconformal(f"{label} is not zero")
        for sign, image in ((+1, triple.plus), (-1, triple.minus)):
            opposite = triple.minus if sign > 0 else triple.plus
            residual = apply_D(triple.even, sign) \
                - opposite * apply_D(image, sign)
            if not residual.is_zero():
                label = "D+" if sign > 0 else "D-"
                raise NotSuperconformal(
                    f"{label} zt - tt * {label} tt does not vanish"
                )
        f = triple.even.theta_component(0)
        psi_plus = triple.plus.theta_component(0)
        psi_minus = triple.minus.theta_component(0)
        g_plus = triple.plus.theta_component(1 << THETA_PLUS)
        g_minus = triple.minus.theta_component(1 << THETA_MINUS)
        return cls(f, g_plus, g_minus, psi_plus, psi_minus)

    # -- group operations ----------------------------------------------------

    def compose(self, inner):
        """self after inner, by the closed component formulas.

        With pi = psi1+ psi1- from the inner map and F, G+-, P = psi2+,
        M = psi2- the outer components at f1 (P' etc.: derivative, then f1):

            f    = F + psi1+ (G+ M) + psi1- (G- P) + pi (P' M + P M')
            psi+ = P + psi1+ G+ + pi P'
            psi- = M + psi1- G- - pi M'
            g+   = g1+ (G+ + 2 psi1- P' - pi G+')
            g-   = g1- (G- + 2 psi1+ M' + pi G-')

        They follow from the Taylor step of the module docstring: one
        Substitution(f1) serves every evaluation, a derivative only where
        its odd factor is nonzero.  f is formed as the equal F + psi+ M -
        P psi-.  Callers check the result (validate_map, closure laws).
        """
        at_f1 = Substitution(inner.f)
        F, G_plus, G_minus, P, M = map(at_f1, (
            self.f, self.g_plus, self.g_minus, self.psi_plus, self.psi_minus))
        psi_plus, psi_minus = inner.psi_plus, inner.psi_minus
        pi = psi_plus * psi_minus
        zero = RationalSuperfunction.zero(self.L)

        def prime_at_f1(c, odd_factor):
            # every term holding c' at f1 carries odd_factor
            return at_f1(c.diff_z()) if odd_factor else zero

        dP = prime_at_f1(self.psi_plus, psi_minus)
        dM = prime_at_f1(self.psi_minus, psi_plus)
        dG_plus = prime_at_f1(self.g_plus, pi)
        dG_minus = prime_at_f1(self.g_minus, pi)
        plus = P + psi_plus * G_plus + pi * dP
        minus = M + psi_minus * G_minus - pi * dM
        return SuperconformalMap(
            F + plus * M - P * minus,
            inner.g_plus * (G_plus + grat(2) * (psi_minus * dP) - pi * dG_plus),
            inner.g_minus * (G_minus + grat(2) * (psi_plus * dM) + pi * dG_minus),
            plus, minus,
        )

    def moebius_body(self):
        """(a, b, c, d) scalars with body(f) = (a z + b)/(c z + d), or None.

        The representative is only determined up to scale; callers
        normalize the determinant themselves.
        """
        num_body = self.f.num.body_scalar_poly()
        if not num_body:
            return None
        v = min(min(num_body), 0)
        p = ScalarPoly({k - v: c for k, c in num_body.items()})
        q = self.f.den.shift(-v) if v else self.f.den
        g = p.gcd(q)
        p, q = p.divmod(g)[0], q.divmod(g)[0]
        if p.degree() > 1 or q.degree() > 1:
            return None
        zero = grat(0)
        a, b = p.coeffs.get(1, zero), p.coeffs.get(0, zero)
        c, d = q.coeffs.get(1, zero), q.coeffs.get(0, zero)
        if not (a * d - b * c):
            return None
        return a, b, c, d

    def invert(self):
        """The inverse map, by Newton steps on the closed composition.

        Requires body(f) to be a Moebius map with invertible determinant
        and g+- to have nonvanishing body.  The start g inverts the scalar
        part: (f0^-1, 1/g+_B, 1/g-_B at f0^-1), superconformal as
        f0' = g+_B g-_B.  While e = self o g is not the identity, g becomes
        g o e1, e1 the first-order inverse of e; each step at least doubles
        the soul degree of e - id, so ceil(log2(L - 1)) steps suffice.
        """
        moebius = self.moebius_body()
        if moebius is None:
            raise NotInvertible("body of f is not an invertible Moebius map")
        if self.g_plus.body_is_zero() or self.g_minus.body_is_zero():
            raise NotInvertible("g+ or g- has vanishing body")
        a, b, c, d = moebius
        L = self.L
        f0_inv = RationalSuperfunction(
            SuperPolynomial(L, {(1, 0): grat(d), (0, 0): -grat(b)}),
            ScalarPoly({1: -c, 0: a}),
        )
        g = SuperconformalMap(
            f0_inv,
            _scalar_part(self.g_plus).substitute(f0_inv).inverse(),
            _scalar_part(self.g_minus).substitute(f0_inv).inverse(),
        )
        identity = SuperconformalMap.identity(L)
        for _ in range(L):
            e = self.compose(g)
            if e == identity:
                return g
            g = g.compose(_first_order_inverse(e))
        raise NotInvertible("Newton steps did not reach the identity")


def _constraint_rest(f, psi_plus, psi_minus):
    """f' - (psi+)' psi- + psi+ (psi-)', which the constraint equates with
    g+ g-, as the unreduced (numerator, lcm) pair of `lcm_sum`.  A
    constant f has f' = 0 over 1, and a zero psi drops both psi terms."""
    terms = [(1, *f.diff_z_parts())]
    if psi_plus and psi_minus:
        for sign, (ln, ld), (rn, rd) in (
                (-1, psi_plus.diff_z_parts(), (psi_minus.num, psi_minus.den)),
                (1, (psi_plus.num, psi_plus.den), psi_minus.diff_z_parts())):
            if ln and rn:
                terms.append((sign, ln * rn, ld * rd))
    return lcm_sum(terms)


def completing_g(f, g_inverse, psi_plus, psi_minus, scale=None):
    """The g that makes (f, g, psi+, psi-) with either g in either place
    superconformal, from the other g's inverse, scale * g_inverse (an even
    supernumber scale, or None for one): `_constraint_rest` (one
    `lcm_sum`), scaled before its one normalisation, times g_inverse."""
    num, den = _constraint_rest(f, psi_plus, psi_minus)
    if scale is not None:
        num = num.scale_left(scale)
    return RationalSuperfunction(num, den) * g_inverse


def _first_order_inverse(e):
    """The inverse of e up to the square of e - id: with to_n1(e) =
    (f1, xi, psi, g), the map from_n1(2 z - f1, -xi, -psi, 2 - g), exactly
    superconformal."""
    h = to_n1(e)
    two_z = RationalSuperfunction.z_power(e.L, 1, coeff=grat(2))
    return from_n1(N1SuperanalyticMap(two_z - h.f1, -h.xi, -h.psi, 2 - h.g,
                                      coefficient_bound=False))


def _scalar_part(F):
    """The scalar body rational function of a theta-free component."""
    body = F.num.body_scalar_poly()
    num = SuperPolynomial(F.L, {(k, 0): c for k, c in body.items()})
    return RationalSuperfunction(num, F.den)


# ---------------------------------------------------------------------------
# the correspondence with N=1 superanalytic maps
# ---------------------------------------------------------------------------


class N1SuperanalyticMap(_ComponentMap):
    """An invertible N=1 superanalytic map (f1 + theta xi, psi + theta g).

    Its odd variable theta is theta+: a function free of theta- is a
    function of (z, theta), with the same d/dz and d/dtheta.  Component
    coefficients live two generators below the ambient algebra, matching
    the superconformal side of the correspondence; g must have nonvanishing
    body.
    """

    __slots__ = _NAMES = ("f1", "xi", "psi", "g")

    def __init__(self, f1, xi, psi, g, coefficient_bound=True):
        super().__init__(f1, xi, psi, g, coefficient_bound=coefficient_bound)
        if self.g.body_is_zero():
            raise NotInvertibleComponent("g must have nonvanishing body")

    def expand(self):
        """The coordinate pair (f1 + theta+ xi, psi + theta+ g)."""
        theta = RationalSuperfunction.theta(self.L, THETA_PLUS)
        return (self.f1 + theta * self.xi, self.psi + theta * self.g)


def to_n1(m):
    """The N=1 superanalytic map corresponding to a superconformal one."""
    f1 = m.f + m.psi_plus * m.psi_minus
    xi = grat(2) * (m.g_plus * m.psi_minus)
    return N1SuperanalyticMap(f1, xi, m.psi_plus, m.g_plus,
                              coefficient_bound=False)


def from_n1(h):
    """The superconformal map corresponding to an N=1 superanalytic one.

    The output satisfies the superconformal constraint by construction;
    the caller can confirm with .check().
    """
    g_inv = h.g.inverse()
    f = h.f1 - (h.psi * h.xi) * g_inv * HALF
    g_minus = h.f1.diff_z() * g_inv - (h.psi.diff_z() * h.xi) * (g_inv * g_inv)
    psi_minus = h.xi * g_inv * HALF
    return SuperconformalMap(f, h.g, g_minus, h.psi, psi_minus,
                             coefficient_bound=False)
