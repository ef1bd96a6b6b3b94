"""Laurent superpolynomials and rational superfunctions.

Functions of one even variable z and the two odd variables theta+ and
theta- are represented exactly.  A superpolynomial is a finite sum of terms

    t^M * c * z^k

where t^M is an ordered monomial in the odd variables (theta+ before
theta-), c is a supernumber coefficient and k is a (possibly negative)
integer.  Odd monomials are kept on the left of their coefficients, so
theta+ and theta- are the two lowest generators of one Grassmann algebra
on L + 2 generators, and each term is stored flat, as one of its
monomials: {(k, theta bits | generator mask << 2): Q(i) scalar}.  A
product of two terms takes the sign of sorting that algebra's monomial
z^a z^b, the parity of the pairs of a generator of b below one of a.
Odd differentiation is the left partial derivative:

    d/dtheta+ (theta+ A) = A,   d/dtheta- (theta+ theta- A) = -theta+ A.

A rational superfunction is a superpolynomial numerator over a monic
denominator polynomial in z with plain Q(i) coefficients.  Denominators
with supernumber coefficients never appear in the canonical form: writing
D = B + S with B the scalar body polynomial and S the nilpotent rest,

    1/D = sum_j (-1)**j S**j / B**(j+1)

terminates, so any such denominator is absorbed into the numerator.  The
constructor cancels the gcd of the denominator with the scalar
components of the numerator, so every rational superfunction is in one
canonical form, unique for its value, and == compares fields.  No gcd
theory over a non-domain is ever needed.  The families' denominators are
products of linear factors over Q(i), so each carries its root map
(`ScalarPoly.roots`), read from coefficients only where it is born from
them; Euclid's algorithm serves only denominators of unknown roots.

The odd superderivations

    D+ = d/dtheta+ + theta- d/dz,      D- = d/dtheta- + theta+ d/dz

satisfy (D+)**2 = (D-)**2 = 0 and D+D- + D-D+ = 2 d/dz; the verification
suites check these as operator identities.
"""

from __future__ import annotations

import math
from collections import Counter

from .scalars import (
    ONE,
    SCALAR_TYPES,
    ZERO,
    add_terms,
    add_triple,
    divide_by_linear,
    grat,
    power,
    reduce_triples,
    triples,
)
from .grassmann import (
    DimensionMismatch,
    NotInvertible,
    Supernumber,
    _above_parity,
)

THETA_PLUS = 0
THETA_MINUS = 1
ODD_NAMES = ("t+", "t-")  # theta+ and theta- in the text and JSON forms
_NO_ROOTS = Counter()  # the constants' root map; no map changes in place


class SuperfieldError(Exception):
    pass


class PoleAtPoint(SuperfieldError):
    """Denominator body vanishes at the evaluation point."""


class SingularComposition(SuperfieldError):
    """Denominator body vanishes identically after substitution."""


# ---------------------------------------------------------------------------
# scalar polynomials (denominators)
# ---------------------------------------------------------------------------


class ScalarPoly:
    """Polynomial in z with Q(i) coefficients and nonnegative exponents.

    Built from known factors (`_from_roots`, products, scaling, exact
    quotients, gcds) it carries its root map, else `_find_roots` reads it
    from the coefficients; `gcd` runs Euclid only if both maps are unknown.
    """

    # _roots caches roots(); it is unset until known or first asked for
    __slots__ = ("coeffs", "_roots")

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, c in coeffs.items():
                if k < 0:
                    raise ValueError("scalar polynomials use nonnegative exponents")
                c = grat(c)
                if c:
                    clean[k] = c
        self.coeffs = clean

    @classmethod
    def _make(cls, coeffs, roots=None):
        # internal fast path: exponents nonnegative, coefficients nonzero
        out = cls.__new__(cls)
        out.coeffs = coeffs
        if roots is not None:
            out._roots = roots
        return out

    @classmethod
    def one(cls):
        return cls._make({0: ONE}, _NO_ROOTS)

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == {0: ONE}

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def valuation(self):
        return min(self.coeffs) if self.coeffs else 0

    def leading(self):
        return self.coeffs[self.degree()]

    def __eq__(self, other):
        return isinstance(other, ScalarPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return ScalarPoly._make(add_terms(self.coeffs, other.coeffs))

    def __neg__(self):
        return ScalarPoly._make({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ScalarPoly):
            return NotImplemented
        if other.is_one():
            return self
        if self.is_one():
            return other
        left, right = self.roots(), other.roots()
        roots = None if left is None or right is None else left + right
        acc = {}
        right = triples(other.coeffs.items())
        for k1, a1, b1, d1 in triples(self.coeffs.items()):
            for k2, a2, b2, d2 in right:
                add_triple(acc, k1 + k2, a1 * a2 - b1 * b2,
                           a1 * b2 + b1 * a2, d1 * d2)
        return ScalarPoly._make(reduce_triples(acc), roots)

    def scale(self, c):
        c = grat(c)
        if not c:
            return ScalarPoly._make({})
        return ScalarPoly._make({k: c * v for k, v in self.coeffs.items()},
                                getattr(self, "_roots", None))

    def shift(self, n):
        """Multiply by z**n (n may be negative if valuation allows)."""
        if not self.coeffs:
            return self
        if self.valuation() + n < 0:
            raise ValueError("shift would create negative exponents")
        return ScalarPoly._make({k + n: c for k, c in self.coeffs.items()})

    def __pow__(self, n):
        return power(self, n, ScalarPoly.one)

    def monic(self):
        """Return (monic polynomial, leading coefficient)."""
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no monic form")
        lc = self.leading()
        if lc == ONE:
            return self, lc
        return self.scale(lc.inverse()), lc

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_one():
            return self, ScalarPoly._make({})
        n = self.degree()
        d = other.degree()
        if n < d:
            return ScalarPoly._make({}), self
        left, right = self.roots(), other.roots()
        if left is not None and right is not None and not right - left:
            quotient = _from_roots(left - right, self.leading() / other.leading())
            return quotient, ScalarPoly._make({})
        rem = _dense(self.coeffs)
        lc_inv = other.leading().inverse()
        quo = [ZERO] * (n - d + 1)
        ocoef = _dense(other.coeffs)
        for k in range(n, d - 1, -1):
            c = rem[k]
            if not c:
                continue
            q = c * lc_inv
            quo[k - d] = q
            rem[k] = ZERO
            base = k - d
            for j in range(d):
                oc = ocoef[j]
                if oc:
                    rem[base + j] = rem[base + j] - q * oc
        rem = rem[:d]
        return (
            ScalarPoly._make({k: c for k, c in enumerate(quo) if c}),
            ScalarPoly._make({k: c for k, c in enumerate(rem) if c}),
        )

    def gcd(self, other):
        """The monic gcd: each root's least multiplicity if either operand
        knows its roots, else (or for a zero operand) Euclid's algorithm."""
        left, right = self.roots(), other.roots()
        if left is None:
            self, other, left, right = other, self, right, left
        if left is None or other.is_zero():
            return _euclid(self, other)
        common = left & (right if right is not None else _divide_out(other, left)[0])
        return self.monic()[0] if common == left else _from_roots(common)

    def roots(self):
        """{root: multiplicity} with self == leading() * prod (z - root)**
        multiplicity, or None where that is not known."""
        try:
            return self._roots
        except AttributeError:
            self._roots = roots = self._find_roots()
            return roots

    def _find_roots(self):
        """The root map of c or c (z - r)**m, read from the coefficients."""
        m = self.degree()
        coeffs = self.coeffs
        expected = coeffs.get(m - 1)
        if expected is None:  # 0, c or c z**m
            return +Counter({ZERO: m}) if len(coeffs) == 1 else None
        s = expected / (coeffs[m] * m)
        # the coefficient e_k of z**k in (z + s)**m is C(m, k) s**(m - k),
        # so (m - k) e_k = (k + 1) s e_(k+1)
        for k in range(m - 2, -1, -1):
            c = coeffs.get(k)
            if c is None or c * (m - k) != expected * s * (k + 1):
                return None
            expected = c
        return Counter({-s: m})

    def derivative(self):
        return ScalarPoly._make({k - 1: c * k for k, c in self.coeffs.items() if k})

    def eval_scalar(self, x):
        out = ZERO
        for k, c in self.coeffs.items():
            out = out + c * (x ** k)
        return out

    def __repr__(self):
        if not self.coeffs:
            return "ScalarPoly(0)"
        parts = [f"({c})*z^{k}" for k, c in sorted(self.coeffs.items())]
        return "ScalarPoly(" + " + ".join(parts) + ")"


def _dense(coeffs, v=0):
    """The nonempty sparse {k: c} as the dense list of c_(v), ..., c_(top)."""
    out = [ZERO] * (max(coeffs) - v + 1)
    for k, c in coeffs.items():
        out[k - v] = c
    return out


def _from_roots(roots, lead=ONE):
    """lead * prod (z - root)**j over the root map, in closed form."""
    out = ScalarPoly._make({0: lead}, _NO_ROOTS)
    for root, j in roots.items():
        s, coeffs, power = -root, {}, ONE
        for k in range(j, -1, -1):
            if power:
                coeffs[k] = power * math.comb(j, k)
            power = power * s
        out = out * ScalarPoly._make(coeffs, Counter({root: j}))
    return out


def _divide_out(poly, roots):
    """(multiplicities, quotient): each root out of poly as often as it goes."""
    dense, found = _dense(poly.coeffs), Counter()
    for root in roots:
        chain = _divide_out_root(dense, root, len(dense))
        found[root], dense = len(chain) - 1, chain[-1]
    return +found, ScalarPoly._make({k: c for k, c in enumerate(dense) if c})


def _euclid(a, b):
    """The monic gcd of two polynomials whose roots are not known."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a if a.is_zero() else a.monic()[0]


# ---------------------------------------------------------------------------
# superpolynomials
# ---------------------------------------------------------------------------


class SuperPolynomial:
    """Laurent polynomial in z and the odd variables, over a Grassmann algebra.

    terms maps (z exponent, mask) to a nonzero Q(i) scalar: each term is
    one monomial of the Grassmann algebra on L + 2 generators whose two
    lowest are theta+ (bit 0) and theta- (bit 1); generator j of the
    coefficient algebra is bit j + 1.  The constructor takes the nested
    form {(z exponent, odd mask): supernumber or scalar}, and
    `coefficients` gives it back.
    """

    __slots__ = ("L", "terms")

    def __init__(self, L, terms=None):
        self.L = L
        flat = {}
        if terms:
            for (k, mask), coeff in terms.items():
                if not 0 <= mask < 4:
                    raise ValueError(f"odd monomial {mask} out of range")
                if not isinstance(coeff, Supernumber):
                    coeff = Supernumber.scalar(L, coeff)
                if coeff.L != L:
                    raise ValueError("coefficient generator count mismatch")
                for g, q in coeff.terms.items():
                    flat[(k, mask | g << 2)] = q
        self.terms = flat

    @classmethod
    def _make(cls, L, terms):
        out = cls.__new__(cls)
        out.L = L
        out.terms = terms
        return out

    @classmethod
    def zero(cls, L):
        return cls._make(L, {})

    @classmethod
    def constant(cls, L, value):
        if not isinstance(value, Supernumber):
            value = Supernumber.scalar(L, value)
        elif value.L != L:
            raise DimensionMismatch(f"a constant over {value.L} generators, "
                                    f"wanted {L}")
        return cls._make(L, {(0, g << 2): q for g, q in value.terms.items()})

    @classmethod
    def one(cls, L):
        return cls._make(L, {(0, 0): ONE})

    @classmethod
    def z_power(cls, L, k, coeff=ONE):
        return cls(L, {(k, 0): coeff})

    @classmethod
    def theta(cls, L, which=THETA_PLUS):
        if which not in (THETA_PLUS, THETA_MINUS):
            raise ValueError("odd variable index out of range")
        return cls._make(L, {(0, 1 << which): ONE})

    def coefficients(self):
        """The nested form {(z exponent, odd mask): nonzero supernumber}."""
        grouped = {}
        for (k, m), q in self.terms.items():
            grouped.setdefault((k, m & 3), {})[m >> 2] = q
        return {key: Supernumber._make(self.L, c) for key, c in grouped.items()}

    def _check(self, other):
        if self.L != other.L:
            raise ValueError("superpolynomial shape mismatch")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.L == other.L and self.terms == other.terms

    def __hash__(self):
        return hash((self.L, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, SuperPolynomial):
            if not isinstance(other, (Supernumber,) + SCALAR_TYPES):
                return NotImplemented
            other = SuperPolynomial.constant(self.L, other)
        self._check(other)
        return SuperPolynomial._make(self.L, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial._make(self.L, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SuperPolynomial):
            if not isinstance(other, (Supernumber,) + SCALAR_TYPES):
                return NotImplemented
            other = SuperPolynomial.constant(self.L, other)
        return self + (-other)

    def __mul__(self, other):
        """The product: one Grassmann product over the flat terms, whose
        sign moves each left monomial's generators, the odd variables
        among them, past the right one's.  A factor s z^j with no odd
        variable and a scalar s commutes with everything, so the product
        is the other factor shifted by j and scaled by s, with no sign;
        for s = 1 it is `shift_z(j)`, which keeps the other's terms."""
        if not isinstance(other, SuperPolynomial):
            if not isinstance(other, (Supernumber,) + SCALAR_TYPES):
                return NotImplemented
            return self.scale_right(other)
        self._check(other)
        if not self.terms or not other.terms:
            return SuperPolynomial._make(self.L, {})
        for x, mono in ((self, other), (other, self)):
            if len(mono.terms) == 1:
                [((j, m), s)] = mono.terms.items()
                if not m:
                    return x.shift_z(j) if s == ONE else SuperPolynomial._make(
                        self.L, {(k + j, xm): q * s for (k, xm), q in x.terms.items()})
        # one unreduced [a, b, d] per key, reduced once after every product
        # has been added; the sum step is `scalars.add_triple`, written out
        acc = {}
        gcd = math.gcd
        right = triples(other.terms.items())
        for (k1, m1), a1, b1, d1 in triples(self.terms.items()):
            above = _above_parity(m1)
            for (k2, m2), a2, b2, d2 in right:
                if m1 & m2:
                    continue
                pa = a1 * a2 - b1 * b2
                pb = a1 * b2 + b1 * a2
                pd = d1 * d2
                if (above & m2).bit_count() & 1:
                    pa = -pa
                    pb = -pb
                key = (k1 + k2, m1 | m2)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = [pa, pb, pd]
                elif cur[2] == pd:
                    cur[0] += pa
                    cur[1] += pb
                else:
                    d = cur[2]
                    g = gcd(d, pd)
                    f = pd // g
                    e = d // g
                    cur[0] = cur[0] * f + pa * e
                    cur[1] = cur[1] * f + pb * e
                    cur[2] = d * f
        return SuperPolynomial._make(self.L, reduce_triples(acc))

    def scale_right(self, value):
        """Multiply every coefficient on the right by a supernumber."""
        return self * SuperPolynomial.constant(self.L, value)

    def scale_left(self, value):
        """Multiply by a supernumber on the left (signs from odd monomials)."""
        return SuperPolynomial.constant(self.L, value) * self

    def mul_scalar_poly(self, poly):
        if poly.is_one():
            return self
        return self * SuperPolynomial._make(
            self.L, {(j, 0): q for j, q in poly.coeffs.items()})

    def shift_z(self, n):
        return SuperPolynomial._make(
            self.L, {(k + n, m): c for (k, m), c in self.terms.items()})

    def __pow__(self, n):
        return power(self, n, lambda: SuperPolynomial.one(self.L))

    # -- calculus ------------------------------------------------------------

    def diff_z(self):
        return SuperPolynomial._make(self.L, {
            (k - 1, m): q if k == 1 else q * k
            for (k, m), q in self.terms.items() if k})

    def diff_theta(self, which):
        """Left partial derivative with respect to an odd variable."""
        if which not in (THETA_PLUS, THETA_MINUS):
            raise ValueError("odd variable index out of range")
        bit = 1 << which
        below = bit - 1
        terms = {}
        for (k, m), c in self.terms.items():
            if not m & bit:
                continue
            if (m & below).bit_count() & 1:
                c = -c
            terms[(k, m ^ bit)] = c
        return SuperPolynomial._make(self.L, terms)

    # -- structure -----------------------------------------------------------

    def min_z(self):
        return min((k for k, _ in self.terms), default=0)

    def max_z(self):
        return max((k for k, _ in self.terms), default=0)

    def theta_component(self, mask):
        """The theta-free superpolynomial A_M with self = sum t^M A_M."""
        return SuperPolynomial._make(self.L, {
            (k, m ^ mask): q for (k, m), q in self.terms.items() if m & 3 == mask})

    def body_scalar_poly(self):
        """Scalar Laurent part: bodies of the theta-free coefficients.

        Returned as an exponent-to-coefficient dict (may contain negative
        exponents).
        """
        return {k: q for (k, m), q in self.terms.items() if not m}

    def parity(self):
        """Total parity if homogeneous, else None."""
        seen = {m.bit_count() & 1 for _, m in self.terms}
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

    def is_even(self):
        return self.parity() == 0 or self.is_zero()

    def is_odd(self):
        return self.is_zero() or self.parity() == 1

    def in_subalgebra(self, limit):
        """True if every coefficient uses only generators 1..limit."""
        return all(m < 4 << limit for _, m in self.terms)

    def extend(self, L_new):
        if L_new < self.L:
            raise DimensionMismatch(f"cannot extend from {self.L} to {L_new}")
        return SuperPolynomial._make(L_new, dict(self.terms))

    def __repr__(self):
        return f"SuperPolynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (k, m), c in sorted(self.coefficients().items(),
                                key=lambda kc: (kc[0][1], kc[0][0])):
            mono = "".join(name for b, name in enumerate(ODD_NAMES) if m >> b & 1)
            zpart = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            pieces = [p for p in (mono, f"({c})", zpart) if p]
            parts.append("*".join(pieces))
        return " + ".join(parts)


class SuperPoint:
    """An evaluation point: an even z and odd theta+ and theta- values."""

    __slots__ = ("z", "thetas")

    def __init__(self, z, thetas):
        if not isinstance(z, Supernumber):
            raise TypeError("z must be a supernumber")
        if not z.is_even():
            raise ValueError("z value must be even")
        thetas = tuple(thetas)
        if len(thetas) != 2:
            raise ValueError("a point has one theta+ and one theta- value")
        for t in thetas:
            if not isinstance(t, Supernumber) or not t.is_odd():
                raise ValueError("theta values must be odd supernumbers")
            if t.L != z.L:
                raise ValueError("point components over different algebras")
        self.z = z
        self.thetas = thetas


# ---------------------------------------------------------------------------
# rational superfunctions
# ---------------------------------------------------------------------------


class RationalSuperfunction:
    """Superpolynomial numerator over a monic scalar polynomial in z.

    Canonical form, enforced by the constructor for every value: the
    denominator is monic with nonzero constant term (powers of z are moved
    into the Laurent numerator) and shares no scalar polynomial factor
    with the numerator; zero has denominator 1.  Equal values have equal
    canonical forms, so == compares fields.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = ScalarPoly.one()
        elif den.is_zero():
            raise ZeroDivisionError("zero denominator")
        elif num.is_zero():
            den = ScalarPoly.one()
        v = den.valuation()
        if v:
            den = den.shift(-v)
            num = num.shift_z(-v)
        if not den.is_one():
            den, lc = den.monic()
            if lc != ONE:
                num = num.scale_right(lc.inverse())
            num, den = _cancel_common_factor(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_constant(cls, L, value):
        return cls(SuperPolynomial.constant(L, value))

    @classmethod
    def zero(cls, L):
        return cls(SuperPolynomial.zero(L))

    @classmethod
    def one(cls, L):
        return cls.from_constant(L, ONE)

    @classmethod
    def z(cls, L):
        return cls(SuperPolynomial.z_power(L, 1))

    @classmethod
    def z_power(cls, L, k, coeff=ONE):
        return cls(SuperPolynomial.z_power(L, k, coeff))

    @classmethod
    def theta(cls, L, which=THETA_PLUS):
        return cls(SuperPolynomial.theta(L, which))

    @property
    def L(self):
        return self.num.L

    def _check(self, other):
        if self.num.L != other.num.L:
            raise ValueError("rational superfunction shape mismatch")

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_theta_free(self):
        return all(not m & 3 for (_, m) in self.num.terms)

    def parity(self):
        return self.num.parity()

    def is_even(self):
        return self.num.is_even()

    def is_odd(self):
        return self.num.is_odd()

    def body_is_zero(self):
        """True if the scalar body part vanishes identically."""
        return not self.num.body_scalar_poly()

    def as_superpolynomial(self):
        """Exact superpolynomial form, or None if the denominator survives."""
        return self.num if self.den.is_one() else None

    def as_constant(self):
        """The constant supernumber value, or None."""
        poly = self.as_superpolynomial()
        if poly is None or any(k or m & 3 for k, m in poly.terms):
            return None
        return Supernumber._make(
            self.L, {m >> 2: q for (_, m), q in poly.terms.items()})

    # -- arithmetic ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalSuperfunction):
            return NotImplemented
        # canonical forms are unique: equal values have equal fields
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        raise TypeError("rational superfunctions are not hashable")

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def _combine(self, other, sign):
        """self + sign * other over the least common denominator,
        normalised once; a zero operand costs nothing."""
        if not isinstance(other, RationalSuperfunction):
            other = self._lift(other)
            if other is None:
                return NotImplemented
        self._check(other)
        if not other.num.terms:
            return self
        if not self.num.terms and sign > 0:
            return other
        return RationalSuperfunction(*lcm_sum(
            [(1, self.num, self.den), (sign, other.num, other.den)]))

    def __neg__(self):
        return RationalSuperfunction(-self.num, self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other._combine(self, -1)

    def _lift(self, other):
        """other as a rational superfunction over this algebra, or None."""
        if isinstance(other, SuperPolynomial):
            return RationalSuperfunction(other)
        if isinstance(other, (Supernumber,) + SCALAR_TYPES):
            return RationalSuperfunction.from_constant(self.L, other)
        return None

    def __mul__(self, other):
        if isinstance(other, SuperPolynomial):
            other = RationalSuperfunction(other)
        if isinstance(other, RationalSuperfunction):
            self._check(other)
            # a zero factor is the product, and a unit factor returns the
            # other, which is canonical already
            for x, y in ((self, other), (other, self)):
                if not y.num.terms:
                    return y
                if y.den.is_one() and y.num.terms == {(0, 0): ONE}:
                    return x
            return RationalSuperfunction(self.num * other.num, self.den * other.den)
        if not isinstance(other, (Supernumber,) + SCALAR_TYPES):
            return NotImplemented
        return RationalSuperfunction(self.num.scale_right(other), self.den)

    def __rmul__(self, other):
        if isinstance(other, SuperPolynomial):
            return RationalSuperfunction(other) * self
        if isinstance(other, (Supernumber,) + SCALAR_TYPES):
            return self.scale_left(other)
        return NotImplemented

    def scale_left(self, value):
        return RationalSuperfunction(self.num.scale_left(value), self.den)

    def inverse(self):
        """Reciprocal; needs a nonvanishing scalar body part.

        The numerator is split as z**v * (B + S), B the scalar body
        polynomial and S nilpotent, read off its terms; the finite
        geometric series clears S.
        """
        v = self.num.min_z()
        body, soul = {}, {}
        for (k, m), q in self.num.terms.items():
            if m:
                soul[(k - v, m)] = q
            else:
                body[k - v] = q
        if not body:
            raise NotInvertible("rational superfunction has zero body part")
        body = ScalarPoly._make(body)
        if body.roots() is None:  # 0 and den's roots may leave one factor
            found, rest = _divide_out(body, (ZERO, *(self.den.roots() or ())))
            if rest.roots() is not None:
                body = ScalarPoly._make(body.coeffs, found + rest.roots())
        # numerator of 1/(B+S): sum_j (-S)^j B^(J-j) by Horner in B, over
        # B^(J+1), where (-S)^J is the last nonzero power
        step = -SuperPolynomial._make(self.L, soul)
        acc, power, J = SuperPolynomial.one(self.L), step, 0
        while power:
            acc = acc.mul_scalar_poly(body) + power
            power, J = power * step, J + 1
        num = acc.mul_scalar_poly(self.den).shift_z(-v)
        return RationalSuperfunction(num, body ** (J + 1))

    def __truediv__(self, other):
        if isinstance(other, SCALAR_TYPES):
            other = grat(other)
        elif isinstance(other, SuperPolynomial):
            other = RationalSuperfunction(other)
        elif not isinstance(other, (RationalSuperfunction, Supernumber)):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse().__rmul__(other)

    def __pow__(self, n):
        """num**n / den**n, normalised once.  The one normalisation stays:
        Gauss's lemma fails over Grassmann coefficients, so a power of a
        canonical numerator can share a factor with den**n.  The first
        power is self, which is canonical already."""
        if not isinstance(n, int):
            return NotImplemented
        if n == 1:
            return self
        if n < 0:
            return self.inverse() ** (-n)
        return RationalSuperfunction(self.num ** n, self.den ** n)

    # -- calculus ------------------------------------------------------------

    def diff_z(self):
        return RationalSuperfunction(*self.diff_z_parts())

    def diff_z_parts(self):
        """The derivative as an unreduced (numerator, denominator) pair, by
        the reduced quotient rule: with g = gcd(Q, Q'),
        (P/Q)' = (P' (Q/g) - P (Q'/g)) / (Q (Q/g)).  For Q = (z - r)**m
        the denominator is (z - r)**(m + 1) at once, not Q**2 with m - 1
        factors z - r cancelled back out."""
        num, den = self.num, self.den
        if den.is_one():
            return num.diff_z(), den
        d_den = den.derivative()
        g = den.gcd(d_den)
        q, _ = den.divmod(g)
        dq, _ = d_den.divmod(g)
        return num.diff_z().mul_scalar_poly(q) - num.mul_scalar_poly(dq), den * q

    def diff_theta(self, which):
        return RationalSuperfunction(self.num.diff_theta(which), self.den)

    def evaluate(self, point):
        """Exact value at a point: the substitution of its constants."""
        if point.z.L != self.L:
            raise DimensionMismatch(
                f"point over {point.z.L} generators, function over {self.L}")
        z, *thetas = (RationalSuperfunction.from_constant(self.L, v)
                      for v in (point.z, *point.thetas))
        try:
            return Substitution(z, thetas)(self).as_constant()
        except SingularComposition as exc:
            raise PoleAtPoint(str(exc)) from exc

    def values_at(self, points):
        """[F(z, 0, 0) for z in points] at integer points z, in one pass over
        the flat terms: per point, one Q(i) sum per generator mask of the
        theta-free terms times z^k / den(z).  A pole raises PoleAtPoint."""
        ks = {k for k, _ in self.num.terms}
        weights = []  # per point, {k: z^k / den(z) as an unreduced triple}
        for z in points:
            q = self.den.eval_scalar(z)
            if not q or (not z and min(ks, default=0) < 0):
                raise PoleAtPoint(f"a pole at z = {z}")
            [(_, qa, qb, qd)] = triples([(None, q.inverse())])
            weights.append({k: (qa * z ** k, qb * z ** k, qd) if k >= 0
                            else (qa, qb, qd * z ** -k) for k in ks})
        sums = [{} for _ in weights]
        for (k, m), a, b, d in triples(self.num.terms.items()):
            if not m & 3:
                for acc, (wa, wb, wd) in zip(sums, (w[k] for w in weights)):
                    add_triple(acc, m >> 2, a * wa - b * wb, a * wb + b * wa, d * wd)
        return [Supernumber._make(self.L, reduce_triples(acc)) for acc in sums]

    def extend(self, L_new):
        return RationalSuperfunction(self.num.extend(L_new), self.den)

    # -- substitution ---------------------------------------------------------

    def substitute(self, w, odd_images=()):
        """Compose with z -> w and theta_b -> odd_images[b]; see Substitution."""
        return Substitution(w, odd_images)(self)

    def theta_component(self, mask):
        """Theta-free part A_M of the decomposition sum t^M A_M."""
        return RationalSuperfunction(self.num.theta_component(mask), self.den)

    def __repr__(self):
        if self.den.is_one():
            return f"RSF({self.num})"
        return f"RSF(({self.num}) / {self.den})"


def lcm_sum(terms):
    """sum(sign * num / den) for (sign, num, den) terms, the first sign
    positive, as the unreduced pair (numerator, lcm of the denominators):
    each further term costs one gcd, none if its den is the running lcm."""
    (_, total, common), *rest = terms
    for sign, num, den in rest:
        if den != common:
            shared = common.gcd(den)
            left, right = den.divmod(shared)[0], common.divmod(shared)[0]
            total = total.mul_scalar_poly(left)
            num = num.mul_scalar_poly(right)
            common = common * left
        total = total + num if sign > 0 else total - num
    return total, common


class Substitution:
    """The change of variables z -> w, theta_b -> odd_images[b].

    w must be an even rational superfunction; odd images must be given
    for every odd variable actually used.  A Laurent numerator z**v P is
    read as P over the pole z**(-v) at root 0.  Each theta component of P
    is evaluated at w by fraction-free Horner (`_poly_at`): w is even, so
    it commutes with every coefficient.  Every pole comes from one cache
    (`_pole`): (z - r)**m, r = 0 included, becomes (1/(w - r))**m, and a
    denominator with several roots 1/den(w); so applying one Substitution
    to several functions (the components of a map) inverts each once.
    At w = z a theta-free function is returned as it is, and at
    w = z**(+-1) each Horner step is a shift (`SuperPolynomial.__mul__`).
    """

    __slots__ = ("w", "odd_images", "_inverse_powers", "_identity")

    def __init__(self, w, odd_images=()):
        if not isinstance(w, RationalSuperfunction):
            w = RationalSuperfunction(w)
        odd_images = tuple(odd_images)
        for img in odd_images:
            if img.L != w.L:
                raise ValueError("substitution images have mismatched shapes")
        self.w = w
        self.odd_images = odd_images
        self._inverse_powers = {}  # root or den -> [1, Y, Y**2, ...]
        self._identity = w.den.is_one() and w.num.terms == {(1, 0): ONE}

    def __call__(self, F):
        w = self.w
        w._check(F)
        if self._identity and F.is_theta_free():
            return F
        v = min(F.num.min_z(), 0)
        comps = {}
        for (k, m), q in F.num.terms.items():
            comps.setdefault(m & 3, {}).setdefault(k - v, {})[(0, m & ~3)] = q
        result = RationalSuperfunction.zero(w.L)
        for mask, coeffs in sorted(comps.items()):
            total = _poly_at(coeffs, w)
            if mask:
                prefix = None
                for b in (THETA_PLUS, THETA_MINUS):
                    if mask & (1 << b):
                        if b >= len(self.odd_images):
                            raise ValueError("missing odd substitution image")
                        img = self.odd_images[b]
                        prefix = img if prefix is None else prefix * img
                total = prefix * total
            result = result + total
        roots = F.den.roots()
        poles = [(F.den, 1)] if roots is None else list(roots.items())
        for key, m in (poles + [(ZERO, -v)] if v else poles):
            result = result * self._pole(key, m)
        return result

    def _pole(self, key, m):
        """Y**m from the cache of powers of Y: Y = 1/(w - key) for a root
        key, and Y = 1/key(w) for a denominator key of unknown roots."""
        powers = self._inverse_powers.get(key)
        if powers is None:
            w = self.w
            base = (_poly_at({k: {(0, 0): q} for k, q in key.coeffs.items()}, w)
                    if isinstance(key, ScalarPoly) else w - key)
            if base.body_is_zero():
                raise SingularComposition(
                    "denominator body vanishes after substitution")
            powers = [RationalSuperfunction.one(w.L), base.inverse()]
            self._inverse_powers[key] = powers
        while len(powers) <= m:
            powers.append(powers[-1] * powers[1])
        return powers[m]


def _cancel_common_factor(num, den):
    """Divide out the gcd of den with the scalar content of num: root by
    root when den's roots are known, by Euclid's algorithm otherwise."""
    if den.degree() < 1:
        return num, den
    comps = {}
    for (k, m), q in num.terms.items():
        comps.setdefault(m, {})[k] = q
    shifts = {key: min(poly) for key, poly in comps.items()}
    # low-degree components constrain the gcd fastest
    order = sorted(comps, key=lambda key: max(comps[key]) - shifts[key])
    roots = den.roots()
    if roots is None:
        g, polys = den, {}
        for key in order:
            polys[key] = ScalarPoly._make(
                {k - shifts[key]: q for k, q in comps[key].items()})
            g = g.gcd(polys[key])
            if g.degree() < 1:
                return num, den
        den_new, dense = den.divmod(g)[0], {}
        for key, poly in polys.items():
            quo, rem = poly.divmod(g)
            if not rem.is_zero():
                raise SuperfieldError("the gcd leaves a remainder")
            dense[key] = _dense(quo.coeffs)
    else:
        # each root's multiplicity in the gcd is its least among the
        # components: one chain of synthetic divisions per component
        dense, common = {}, Counter()
        for root, j in roots.items():
            chains = {}
            for key in order:
                start = dense.get(key) or _dense(comps[key], shifts[key])
                chains[key] = chain = _divide_out_root(start, root, j)
                j = len(chain) - 1
                if not j:
                    break
            if j:
                common[root] = j
                dense.update((key, chain[j]) for key, chain in chains.items())
        if not common:
            return num, den
        den_new = _from_roots(roots - common)
    terms = {(k, m): q for m, coeffs in dense.items()
             for k, q in enumerate(coeffs, shifts[m]) if q}
    return SuperPolynomial._make(num.L, terms), den_new


def _divide_out_root(dense, root, cap):
    """[p, p/(z - root), ...]: exact quotients of the dense list p, at most cap."""
    chain = [dense]
    while len(chain) <= cap and len(dense) > 1:
        dense, remainder = divide_by_linear(dense, root)
        if remainder:
            break
        chain.append(dense)
    return chain


def _poly_at(coeffs, w):
    """p(w) for p = sum of c_k z**k and an even w, exactly.

    coeffs maps each nonnegative exponent k to the flat terms of the
    theta-free constant c_k.  Fraction-free Horner: with w = Wn/Wd, the
    sum of c_k Wn**k Wd**(top-k) is normalised once over Wd**top.
    """
    L = w.L
    top = max(coeffs)
    wn, wd = w.num, w.den
    wd_power = ScalarPoly.one()
    acc = SuperPolynomial._make(L, coeffs[top])
    for k in range(top - 1, -1, -1):
        acc = acc * wn
        wd_power = wd_power * wd
        c = coeffs.get(k)
        if c is not None:
            acc = acc + SuperPolynomial._make(L, c).mul_scalar_poly(wd_power)
    return RationalSuperfunction(acc, wd_power)


# ---------------------------------------------------------------------------
# the odd superderivations
# ---------------------------------------------------------------------------


def apply_D(F, sign):
    """D+ (sign=+1) or D- (sign=-1) applied to a function of (z, theta+, theta-)."""
    which = THETA_PLUS if sign > 0 else THETA_MINUS
    other = THETA_MINUS if sign > 0 else THETA_PLUS
    theta_other = RationalSuperfunction.theta(F.L, other)
    return F.diff_theta(which) + theta_other * F.diff_z()


def apply_D_plus(F):
    return apply_D(F, +1)


def apply_D_minus(F):
    return apply_D(F, -1)
