"""Super-Riemann spheres and their automorphism groups.

For each integer n the sphere is the genus-zero N=2 superconformal
supermanifold glued from two coordinate charts by the transition map

    I_n(z, theta+, theta-) = (1/z, i theta+ z^(n-1), i theta- z^(-n-1)).

The swap sigma(z, theta+, theta-) = (z, theta-, theta+) is superconformal
and sigma I_n sigma = I_(-n), so Aut(S_(-n)) = sigma Aut(S_n) sigma.  The
code writes each n != 0 family once, for n > 0, and `sides` derives n < 0
from it by trading the + and - components.

An automorphism is determined by its southern-chart map, which belongs to
a parametrized family depending on the regime of n.  The Moebius part is
always f = (a z + b)/(c z + d) with even a, b, c, d and a d - b c = 1
exactly.  Each psi is a polynomial of degree < l with odd coefficients
over (c z + d)^(l - 1) (`_psi`), where (l+, l-) =
`AutomorphismParams.psi_lengths(n)` is, for n >= 0,

    n      0       1       >= 2
    l+     2       1       0        (psi+ vanishes for l+ = 0)
    l-     2       3       n + 2

The short-side g (g+ for n >= 0) is eps (c z + d + y+) / (c z + d)^2 with
y+ linear in z (`_y_linear`) for n = 0, and eps (c z + d)^(n-1) for n >= 1.

Every regime has one free invertible even factor eps, carried by the
short-side g.  The tower-side g is not written out: the superconformal
constraint fixes it from f, psi+- and the short-side g, and
`superconformal.completing_g` computes it, dividing by the short-side g
through that g's own factors eps^(-1) (c z + d)^(1-|n|) for n != 0.

Parameters are recovered from a map exactly: the scalar Moebius part is
normalized to determinant one (sign fixed by a deterministic tie-break;
the two-fold ambiguity is precisely the double cover below), the soul
corrections are read off values of f at three regular points, and
the regime shapes are pinned by exact reads of f and psi+-, by comparing
the short-side g with the family's and by the constraint, which leaves
the tower-side g one solution.
Recovered parameters carry the map they were verified against, so
building from them again does not rebuild it; parameters a caller
constructs are rebuilt on every build.

The matrix group SL(2) x GL(1) over the even coefficient algebra acts by

    (z, theta+, theta-) -> ((a z + b)/(c z + d),
                            theta+ eps (c z + d)^(n-1),
                            theta- eps^(-1) (c z + d)^(-n-1)),

a double cover of the even automorphism component with kernel generated by
(-id, -id) for even n and (-id, id) for odd n.  For |n| >= 2 the odd
coefficient vectors act as an abelian group of translations.
"""

from __future__ import annotations

from collections import namedtuple

from .scalars import I as IMAG, NotASquare, ONE, grat, ratio
from .grassmann import Supernumber
from .superfield import (
    PoleAtPoint,
    RationalSuperfunction,
    SuperPolynomial,
    SuperfieldError,
    Substitution,
)
from .superconformal import SuperconformalMap, completing_g


class SphereError(SuperfieldError):
    pass


class InvalidParams(SphereError):
    """Automorphism parameters violate a regime constraint."""


class NotInFamily(SphereError):
    """A superconformal map does not belong to the automorphism family."""


def transition(n, L):
    """The chart transition map of the sphere with twist n."""
    return SuperconformalMap(
        RationalSuperfunction.z_power(L, -1),
        RationalSuperfunction.z_power(L, n - 1, coeff=IMAG),
        RationalSuperfunction.z_power(L, -n - 1, coeff=IMAG),
    )


def transition_inverse(n, L):
    """Closed form of I_n^(-1): I_n with g+- negated, -i in place of i."""
    t = transition(n, L)
    return SuperconformalMap(t.f, -t.g_plus, -t.g_minus)


# ---------------------------------------------------------------------------
# automorphism parameters
# ---------------------------------------------------------------------------


def invsqrt_one_plus_soul(x):
    """(1 + s)**(-1/2) for an even supernumber with body one, exactly."""
    if x.body() != ONE:
        raise InvalidParams("inverse square root needs body exactly one")
    # the binomial series: c_k = c_(k-1) (1 - 2k) / (2k)
    return x.soul_series(ONE, lambda k: grat(1 - 2 * k) / (2 * k))


def normalize_determinant(a, b, c, d):
    """Rescale an even quadruple so that a d - b c = 1.

    Only determinants of the form 1 + soul are accepted: a general complex
    determinant would need a square root that Q(i) usually lacks.
    """
    det = a * d - b * c
    if det.body() != ONE:
        raise InvalidParams(
            "determinant body must be exactly one; rescale the inputs first"
        )
    lam = invsqrt_one_plus_soul(det)
    return a * lam, b * lam, c * lam, d * lam


def sides(n, plus, minus):
    """The (short, tower) sides of a (plus, minus) pair.

    For n >= 0 the short side is + (g+ carrying eps) and the tower is -;
    sigma trades them for n < 0.  The swap is an involution, so the same
    call also places a (short, tower) pair back as (plus, minus).
    """
    return (plus, minus) if n >= 0 else (minus, plus)


def _positive_leading(values):
    """True if the first nonzero scalar has Re > 0, or Re = 0 and Im > 0."""
    for v in values:
        if v:
            return v.re > 0 or (v.re == 0 and v.im > 0)
    return True


class AutomorphismParams:
    """The regime-dependent parameter tuple of a sphere automorphism.

    psi_plus and psi_minus are coefficient lists indexed by z-degree; the
    constant psi of the n = +-1 regimes sits in the length-one list.  eps
    is the one free invertible factor, carried by the short-side g (see
    `sides`); `build_map` completes the other g.
    """

    __slots__ = ("n", "L", "a", "b", "c", "d", "eps", "psi_plus", "psi_minus",
                 "_member")

    def __init__(self, n, a, b, c, d, eps, psi_plus=(), psi_minus=()):
        self.n = n
        self.L = a.L
        self.a, self.b, self.c, self.d = a, b, c, d
        self.eps = eps
        self.psi_plus = tuple(psi_plus)
        self.psi_minus = tuple(psi_minus)
        self.validate()
        self._member = None  # the verified map; only validate_map sets it

    @staticmethod
    def psi_lengths(n):
        """(len psi_plus, len psi_minus) for the regime of n: the short
        side has max(2 - |n|, 0) coefficients and the tower |n| + 2."""
        k = abs(n)
        return sides(n, max(2 - k, 0), k + 2)

    def validate(self):
        bound = self.L - 2
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not (v.is_even() and v.in_subalgebra(bound)):
                raise InvalidParams(f"{name} must be even with generators <= {bound}")
        if self.a * self.d - self.b * self.c != Supernumber.one(self.L):
            raise InvalidParams("determinant a d - b c must be exactly one")
        want_plus, want_minus = self.psi_lengths(self.n)
        if len(self.psi_plus) != want_plus or len(self.psi_minus) != want_minus:
            raise InvalidParams(
                f"regime n={self.n} wants psi lengths ({want_plus}, {want_minus})"
            )
        for side, coeffs in (("psi+", self.psi_plus), ("psi-", self.psi_minus)):
            for j, v in enumerate(coeffs):
                if not (v.is_odd() and v.in_subalgebra(bound)):
                    raise InvalidParams(
                        f"{side}[{j}] must be odd with generators <= {bound}"
                    )
        if not (self.eps.is_even() and self.eps.body()
                and self.eps.in_subalgebra(bound)):
            raise InvalidParams("eps must be even and invertible")

    @property
    def tower(self):
        """The psi coefficient list of degree |n| + 1 on the tower side."""
        return sides(self.n, self.psi_plus, self.psi_minus)[1]

    def __eq__(self, other):
        if not isinstance(other, AutomorphismParams):
            return NotImplemented
        return (
            self.n == other.n
            and (self.a, self.b, self.c, self.d)
            == (other.a, other.b, other.c, other.d)
            and self.eps == other.eps
            and self.psi_plus == other.psi_plus
            and self.psi_minus == other.psi_minus
        )

    def __repr__(self):
        return (f"AutomorphismParams(n={self.n}, a={self.a}, b={self.b}, "
                f"c={self.c}, d={self.d})")


# ---------------------------------------------------------------------------
# building the southern map from parameters
# ---------------------------------------------------------------------------


def _linear(L, lead, const):
    """The polynomial lead*z + const as a rational superfunction."""
    return RationalSuperfunction(
        SuperPolynomial(L, {(1, 0): lead, (0, 0): const})
    )


def _poly(L, coeffs):
    """sum coeffs[j] z^j as a rational superfunction."""
    return RationalSuperfunction(
        SuperPolynomial(L, {(j, 0): c for j, c in enumerate(coeffs)})
    )


def _y_linear(psi_plus, psi_minus, c, d):
    """(lead, const) of the linear y+ with g+ = eps (c z + d + y+) /
    (c z + d)^2 in the n = 0 regime, from the psi coefficient lists."""
    (pp0, pp1), (pm0, pm1) = psi_plus, psi_minus
    return (-(pp1 * pm1 * d),
            pp0 * pm0 * c - (pp1 * pm0 - pm1 * pp0) * d
            - pp1 * pm1 * pp0 * pm0 * d)


def _psi(L, coeffs, inv):
    """sum coeffs[j] z^j * inv^(len(coeffs) - 1) for inv = 1/(c z + d): the
    psi of every regime, zero for no coefficients."""
    return _poly(L, coeffs) * inv ** max(len(coeffs) - 1, 0)


def _short_g(p, czd):
    """(F, j) with the short-side g of the member with parameters p equal
    to eps F / czd^j, for czd = c z + d.  For n != 0, F is a power of czd
    alone, so F at czd = 1/(c z + d) is eps g^(-1)."""
    k = abs(p.n)
    if k == 0:
        lead, const = _y_linear(p.psi_plus, p.psi_minus, p.c, p.d)
        return _linear(p.L, p.c + lead, p.d + const), 2
    return czd ** (k - 1), 0


def build_map(p):
    """The southern-chart superconformal map of the automorphism with
    parameters p: f, psi+- (`_psi`) and the short-side g (`_short_g`),
    placed through `sides`.  The tower-side g is the superconformal
    completion `completing_g`, so the map is superconformal by
    construction.  It divides by the short-side g through that g's own
    factors, eps^(-1) (1/(c z + d))^(|n| - 1), for n != 0, and through
    the generic inverse for n = 0."""
    L = p.L
    czd = _linear(L, p.c, p.d)
    inv = czd.inverse()
    f = _linear(L, p.a, p.b) * inv
    psi_plus, psi_minus = _psi(L, p.psi_plus, inv), _psi(L, p.psi_minus, inv)
    num, j = _short_g(p, czd)
    g_s = num.scale_left(p.eps) * inv ** j
    if p.n:
        g_t = completing_g(f, _short_g(p, inv)[0], psi_plus, psi_minus,
                           p.eps.inverse())
    else:
        g_t = completing_g(f, g_s.inverse(), psi_plus, psi_minus)
    return SuperconformalMap(f, *sides(p.n, g_s, g_t), psi_plus, psi_minus)


class SphereAutomorphism:
    """An automorphism of the sphere with twist n, held by its southern map."""

    __slots__ = ("n", "params", "southern")

    def __init__(self, n, params, southern):
        self.n = n
        self.params = params
        self.southern = southern

    @classmethod
    def build(cls, params):
        """Parameters from `validate_map` bring the member it verified;
        any others are built every time, storing nothing."""
        southern = params._member
        if southern is None:
            southern = build_map(params)
        return cls(params.n, params, southern)

    @classmethod
    def from_map(cls, m, n):
        return cls(n, validate_map(m, n), m)

    @property
    def L(self):
        return self.params.L

    def compose(self, other):
        """Group law; the composite is validated back into the family."""
        if self.n != other.n:
            raise SphereError("automorphisms of different spheres")
        composite = self.southern.compose(other.southern)
        return SphereAutomorphism.from_map(composite, self.n)

    def invert(self):
        inverse = self.southern.invert()
        return SphereAutomorphism.from_map(inverse, self.n)

    def northern(self):
        """The map in the northern chart, I_n^(-1) . T . I_n."""
        inv = transition_inverse(self.n, self.L)
        return inv.compose(self.southern.compose(transition(self.n, self.L)))

    def __eq__(self, other):
        if not isinstance(other, SphereAutomorphism):
            return NotImplemented
        return self.n == other.n and self.southern == other.southern

    def __repr__(self):
        return f"SphereAutomorphism(n={self.n}, {self.params!r})"


# ---------------------------------------------------------------------------
# parameter recovery
# ---------------------------------------------------------------------------


def _regular_point(f, c0, d0, start=0):
    """The first z0 >= start with c0 z0 + d0 != 0 where f is regular."""
    z0 = max(start, 0 if f.num.min_z() >= 0 else 1)
    while not (c0 * z0 + d0 and f.den.eval_scalar(z0)):
        z0 += 1
    return z0


def _moebius_and_points(m):
    """`recover_moebius`'s (a, b, c, d), and the points z0 and z1 it read f at."""
    scalars = m.moebius_body()
    if scalars is None:
        raise NotInFamily("body of f is not a Moebius map")
    a0, b0, c0, d0 = scalars
    det = a0 * d0 - b0 * c0
    try:
        lam = det.inverse().sqrt()
    except NotASquare as exc:
        raise NotInFamily(f"Moebius determinant is not a square: {exc}") from exc
    a0, b0, c0, d0 = a0 * lam, b0 * lam, c0 * lam, d0 * lam
    if not _positive_leading((d0, c0, b0, a0)):
        a0, b0, c0, d0 = -a0, -b0, -c0, -d0

    L = m.L
    z0 = _regular_point(m.f, c0, d0)
    z1 = _regular_point(m.f, c0, d0, z0 + 1)
    z2 = _regular_point(m.f, c0, d0, z1 + 1)
    f0, f1, f2 = m.f.values_at((z0, z1, z2))
    u1, u2 = ((f - f0).inverse().scale(z - z0) for f, z in ((f1, z1), (f2, z2)))
    cd0 = (u1 - u2).scale(ratio(1, z1 - z2))  # c delta
    delta0 = c0 * z0 + d0  # the body of delta, so x = (delta/delta0)^2 is 1 + soul
    x = (u1 - cd0.scale(z1 - z0)).scale((delta0 * delta0).inverse())
    root = invsqrt_one_plus_soul(x)
    delta, inv = (x * root).scale(delta0), root.scale(delta0.inverse())
    a, c = (Supernumber.one(L) + f0 * cd0) * inv, cd0 * inv
    b, d = f0 * delta - a.scale(z0), delta - c.scale(z0)

    if m.f.num * _linear(L, c, d).num != \
            _linear(L, a, b).num.mul_scalar_poly(m.f.den):
        raise NotInFamily("f is not of the form (a z + b)/(c z + d)")
    return (a, b, c, d), (z0, z1)


def recover_moebius(m):
    """Exact (a, b, c, d) with f = (a z + b)/(c z + d) and det one.

    The scalar part (a0, b0, c0, d0) is normalized by an exact
    Gaussian-rational square root and the sign tie-break.  The soul
    correction is read off f at the regular point z0 and the next two,
    z1 and z2: as f(x) - f(y) = (x - y)/((c x + d)(c y + d)), with
    delta = c z0 + d and h_i = z_i - z0,
        h_i / (f(z_i) - f(z0)) = delta^2 + c delta h_i
    gives c delta and delta^2; delta is the root with body c0 z0 + d0,
    and a z0 + b = f(z0) delta, a delta = 1 + f(z0) c delta by the
    determinant.  A unimodular quadruple with a given body sign is unique,
    and f (c z + d) = a z + b, checked cross-multiplied as
    N_f (c z + d) = (a z + b) D_f, confirms it.
    """
    return _moebius_and_points(m)[0]


def _psi_coeffs(F, czd, length, what, n):
    """The coefficient list of F = `_psi`(L, coeffs, 1/czd) with
    len(coeffs) = length, or NotInFamily naming F as `what`.  The
    coefficients must be odd: at n = 0 an even psi can make the eps read
    divide by a non-unit."""
    poly = (F * czd ** max(length - 1, 0)).as_superpolynomial()
    if poly is None or any(not 0 <= k < length for k, _ in poly.terms):
        if length == 0:
            raise NotInFamily(
                f"{what} must vanish for n {'>= 2' if n > 0 else '<= -2'}")
        if length == 1:
            raise NotInFamily(f"{what} must be constant")
        if poly is None:
            raise NotInFamily(
                f"{what} has a denominator outside (c z + d)^{length - 1}")
        raise NotInFamily(f"{what} has degree outside the family bound")
    coeffs = [Supernumber.zero(F.L)] * length
    for (k, _), coeff in poly.coefficients().items():
        coeffs[k] = coeff
    if not all(v.is_odd() for v in coeffs):
        raise NotInFamily("psi coefficients must be odd")
    return coeffs


def validate_map(m, n):
    """Recover AutomorphismParams from a map, or raise NotInFamily.

    psi+- are read by `_psi_coeffs`; eps is read from one value of the
    short-side g, at the point z0 where `recover_moebius` reads f, or at
    the next one, z1, if c z0 + d = 1 there while c z + d is not 1
    everywhere.  With z that point and delta = c z + d, eps is
    g_short(z) delta^(1 - |n|) for n != 0 and
    g+(z) delta^2 / (delta + y+(z)) for n = 0, where the linear y+ is
    given by g+ = eps (c z + d + y+) / (c z + d)^2.  Data that is no
    parameter set is not in the family either.  The reads pin f and psi+-
    exactly; the short-side g must be `_short_g` ("short-side g differs
    from the family's"), and, as it is invertible, the constraint leaves
    the tower-side g one solution, which `check()` tests ("map fails the
    superconformal constraint").  The returned parameters carry the map
    itself, which `SphereAutomorphism.build` returns as it is.
    """
    (a, b, c, d), (z0, z1) = _moebius_and_points(m)
    L = m.L
    czd = _linear(L, c, d)
    # where c z0 + d = 1 every power of c z + d is 1, so the eps read could
    # not see a wrong exponent; no two points both give 1
    z = z1 if (c or d != 1) and c.scale(z0) + d == 1 else z0
    delta = c.scale(z) + d
    psi_plus, psi_minus = (
        _psi_coeffs(F, czd, length, what, n) for F, length, what in zip(
            (m.psi_plus, m.psi_minus), AutomorphismParams.psi_lengths(n),
            ("psi+", "psi-")))
    g_s = sides(n, m.g_plus, m.g_minus)[0]
    try:
        [value] = g_s.values_at((z,))
    except PoleAtPoint as exc:
        raise NotInFamily(f"a component has {exc}") from exc
    if n == 0:
        lead, const = _y_linear(psi_plus, psi_minus, c, d)
        eps = value * delta * delta * (delta + lead.scale(z) + const).inverse()
    else:
        eps = value * delta ** (1 - abs(n))
    try:
        params = AutomorphismParams(n, a, b, c, d, eps, psi_plus, psi_minus)
    except InvalidParams as exc:
        raise NotInFamily(f"recovered data is no parameter set: {exc}") from exc

    num, j = _short_g(params, czd)
    if g_s * czd ** j != num.scale_left(eps):
        raise NotInFamily("short-side g differs from the family's")
    if not m.check().ok:
        raise NotInFamily("map fails the superconformal constraint")
    params._member = m
    return params


# ---------------------------------------------------------------------------
# the northern chart and the pole constraint
# ---------------------------------------------------------------------------


# The composition-side northern map plus the closed-formula cross-check.
# The composed map is authoritative; `mismatches` names each component
# where the closed transformation formulas disagree with it.
NorthernChart = namedtuple("NorthernChart", "map formula mismatches")


def northern_formula(T):
    """The closed transformation formulas for the northern components."""
    m = T.southern
    n = T.n
    L = m.L
    at_inv_z = Substitution(RationalSuperfunction.z_power(L, -1))
    f1, psi_p1, psi_m1, g_p1, g_m1 = map(
        at_inv_z, (m.f, m.psi_plus, m.psi_minus, m.g_plus, m.g_minus))
    f1_inv = f1.inverse()

    def fpow(k):
        return f1 ** k if k >= 0 else f1_inv ** (-k)

    f_t = f1_inv
    psi_pt = (psi_p1 * fpow(n - 1)).scale_left(-IMAG)
    psi_mt = (psi_m1 * fpow(-n - 1)).scale_left(-IMAG)
    cross = psi_p1 * psi_m1
    g_pt = (RationalSuperfunction.z_power(L, n - 1) * g_p1 * fpow(n - 2)
            * (f1 - cross.scale_left(grat(n - 1))))
    g_mt = (RationalSuperfunction.z_power(L, -n - 1) * g_m1 * fpow(-n - 2)
            * (f1 - cross.scale_left(grat(n + 1))))
    return SuperconformalMap(f_t, g_pt, g_mt, psi_pt, psi_mt,
                             coefficient_bound=False)


def to_north(T):
    """Northern map by composition, cross-checked against the closed
    formulas; disagreements are reported, never patched."""
    composed = T.northern()
    formula = northern_formula(T)
    mismatches = tuple(
        name for name, comp in composed.components().items()
        if comp != formula.components()[name]
    )
    return NorthernChart(composed, formula, mismatches)


def allowed_pole_check(T, composed):
    """Check that the northern components `composed` of T only blow up at
    z = -a_B/b_B."""
    a_body = T.params.a.body()
    b_body = T.params.b.body()
    failures = []
    for name, comp in composed.components().items():
        pole_at_zero = comp.num.min_z() < 0
        den = comp.den
        if b_body:
            root = -(a_body / b_body)
            roots = den.roots()
            if roots is None or roots.keys() - {root}:
                failures.append(f"{name}: denominator is not a power of (z - {root})")
            if pole_at_zero and root != grat(0):
                failures.append(f"{name}: pole at 0 but only {root} is allowed")
        else:
            if den.degree() > 0:
                failures.append(f"{name}: finite pole but none is allowed")
            if pole_at_zero:
                failures.append(f"{name}: pole at 0 but none is allowed")
    return failures


# ---------------------------------------------------------------------------
# the group action, kernels, odd translations
# ---------------------------------------------------------------------------


class MatrixGroupElement:
    """An element (a, b, c, d; eps) of SL(2) x GL(1) over the even part."""

    __slots__ = ("a", "b", "c", "d", "eps")

    def __init__(self, a, b, c, d, eps):
        for name, v in (("a", a), ("b", b), ("c", c), ("d", d), ("eps", eps)):
            if not isinstance(v, Supernumber) or not v.is_even():
                raise InvalidParams(f"{name} must be an even supernumber")
        if a * d - b * c != Supernumber.one(a.L):
            raise InvalidParams("matrix part must have determinant one")
        if not eps.body():
            raise InvalidParams("eps must be invertible")
        self.a, self.b, self.c, self.d, self.eps = a, b, c, d, eps

    @classmethod
    def identity(cls, L):
        one = Supernumber.one(L)
        zero = Supernumber.zero(L)
        return cls(one, zero, zero, one, one)

    def compose(self, other):
        return MatrixGroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.eps * other.eps,
        )

    def invert(self):
        return MatrixGroupElement(self.d, -self.b, -self.c, self.a,
                                  self.eps.inverse())

    def negate_matrix(self, negate_eps):
        return MatrixGroupElement(-self.a, -self.b, -self.c, -self.d,
                                  -self.eps if negate_eps else self.eps)

    def __eq__(self, other):
        if not isinstance(other, MatrixGroupElement):
            return NotImplemented
        return (self.a, self.b, self.c, self.d, self.eps) == \
            (other.a, other.b, other.c, other.d, other.eps)

    def __repr__(self):
        return (f"MatrixGroupElement(a={self.a}, b={self.b}, c={self.c}, "
                f"d={self.d}, eps={self.eps})")


def group_action(n, alpha):
    """The automorphism (z, t+, t-) -> ((az+b)/(cz+d), t+ eps (cz+d)^(n-1),
    t- eps^(-1) (cz+d)^(-n-1)) as a family member."""
    L = alpha.a.L
    plus_len, minus_len = AutomorphismParams.psi_lengths(n)
    zero = Supernumber.zero(L)
    eps = alpha.eps if n >= 0 else alpha.eps.inverse()
    params = AutomorphismParams(n, alpha.a, alpha.b, alpha.c, alpha.d, eps,
                                [zero] * plus_len, [zero] * minus_len)
    return SphereAutomorphism.build(params)


def acts_identically(n, alpha, beta):
    """True when both matrix elements act as the same automorphism."""
    return group_action(n, alpha).southern == group_action(n, beta).southern


def in_action_kernel(n, alpha, beta):
    """True when alpha beta^(-1) lies in the order-two kernel K for n mod 2."""
    q = alpha.compose(beta.invert())
    L = q.a.L
    identity = MatrixGroupElement.identity(L)
    if q == identity:
        return True
    generator = identity.negate_matrix(negate_eps=(n % 2 == 0))
    return q == generator


def odd_translation(n, coeffs):
    """The abelian translation automorphism for an odd coefficient vector.

    For n >= 2 the vector feeds psi-; for n <= -2 it feeds psi+.  Entries
    are indexed by z-degree and must be odd with generators <= L - 2.
    """
    if abs(n) < 2:
        raise InvalidParams("odd translations exist for |n| >= 2")
    coeffs = tuple(coeffs)
    if len(coeffs) != abs(n) + 2:
        raise InvalidParams(f"need {abs(n) + 2} coefficients for n={n}")
    L = coeffs[0].L
    one = Supernumber.one(L)
    zero = Supernumber.zero(L)
    psi_plus, psi_minus = sides(n, (), coeffs)
    params = AutomorphismParams(n, one, zero, zero, one, eps=one,
                                psi_plus=psi_plus, psi_minus=psi_minus)
    return SphereAutomorphism.build(params)


def conjugated_translation_coeffs(n, alpha, coeffs):
    """Coefficient vector of alpha . T(coeffs) . alpha^(-1).

    Conjugation sends the degree-(|n|+1) coefficient polynomial U to

        eps^(-+1) * (a - c z)^(|n|+1) * U((d z - b)/(a - c z)),

    with the weight eps^(-1) for n >= 2 and eps for n <= -2.
    """
    L = alpha.a.L
    lin_num = SuperPolynomial(L, {(1, 0): alpha.d, (0, 0): -alpha.b})
    lin_den = SuperPolynomial(L, {(1, 0): -alpha.c, (0, 0): alpha.a})
    top = abs(n) + 1
    acc = SuperPolynomial.zero(L)
    num_pow = SuperPolynomial.one(L)
    den_pows = [SuperPolynomial.one(L)]
    for _ in range(top):
        den_pows.append(den_pows[-1] * lin_den)
    for j, u in enumerate(coeffs):
        term = (num_pow * den_pows[top - j]).scale_left(u)
        acc = acc + term
        num_pow = num_pow * lin_num
    weight = sides(n, alpha.eps, alpha.eps.inverse())[1]
    out = [Supernumber.zero(L) for _ in range(top + 1)]
    for (k, mask), coeff in acc.coefficients().items():
        if mask:
            raise SphereError("a conjugated translation has an odd variable")
        out[k] = weight * coeff
    return out
