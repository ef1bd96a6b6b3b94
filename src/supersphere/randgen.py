"""Seeded random generation of algebra elements, maps, and parameters.

Every sampler draws from a caller-supplied random.Random, so a fixed seed
reproduces the exact element stream.  Term counts and degrees are kept
small: identities checked by the suites are polynomial in the
coefficients, so exactness makes small samples conclusive while keeping
cross-multiplication sizes desk-scale.

The stream is a contract, pinned by `tests/test_randgen.py` and the report
sha256s.  `rng` must be a `random.Random`: every bounded choice is drawn
from the bits `randrange` would use, through `Sampler._below` or, for the
scalars, the same rejection loops written out in `gaussian_rational`.  A
scalar draw is (numerator, denominator index) for each part, and each
distinct draw gives one shared canonical `GaussianRational` (`_SHARED`),
so equal draws are the same immutable object.
"""

from __future__ import annotations

from .scalars import _canonical, grat
from .grassmann import Supernumber
from .superfield import RationalSuperfunction, ScalarPoly, SuperPolynomial
from .superconformal import N1SuperanalyticMap, from_n1
from .spheres import AutomorphismParams, MatrixGroupElement, normalize_determinant


_DENOMINATORS = (1, 1, 2, 3)

# (numerator, denominator index) of the real and the imaginary part of a
# scalar draw -> its canonical scalar, built once: a value depends on its
# key alone and scalars are immutable, so every sampler shares the table.
# It holds at most (2 span + 1)^2 16 keys per span.
_SHARED = {}


def _scalar(p, i, r, j):
    q, t = _DENOMINATORS[i], _DENOMINATORS[j]
    return _canonical(p * t, r * q, q * t)


class Sampler:
    """Random elements over the Grassmann algebra on L generators."""

    def __init__(self, rng, L):
        self.rng = rng
        self.L = L
        self._bits = rng.getrandbits

    def _below(self, n):
        """rng.randrange(n), drawn from the same bits as CPython draws it."""
        if n < 1:
            raise ValueError(f"empty range below {n}")
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            r = self._bits(k)
        return r

    def gaussian_rational(self, span=3, nonzero=False):
        """A scalar with parts p/q, p in -span..span and q drawn from
        (1, 1, 2, 3): both parts with chance 1/4, else only the imaginary
        part with chance 1/5, else only the real part.  The loops below
        are `_below(4)` for the kind, `_below(5)` for the part, and per
        part `_below(2 span + 1)` and `_below(4)`, in that order."""
        if nonzero and not span:
            raise ValueError("no nonzero scalar in span 0")
        bits = self._bits
        n = 2 * span + 1
        k = n.bit_length()
        while True:
            kind = bits(3)
            while kind >= 4:
                kind = bits(3)
            if kind:
                part = bits(3)
                while part >= 5:
                    part = bits(3)
            p = bits(k)
            while p >= n:
                p = bits(k)
            q = bits(3)
            while q >= 4:
                q = bits(3)
            p -= span
            if not kind:
                r = bits(k)
                while r >= n:
                    r = bits(k)
                t = bits(3)
                while t >= 4:
                    t = bits(3)
                key = (p, q, r - span, t)
            elif part:
                key = (p, q, 0, 0)
            else:
                key = (0, 0, p, q)
            if key[0] or key[2] or not nonzero:
                value = _SHARED.get(key)
                if value is None:
                    value = _SHARED[key] = _scalar(*key)
                return value

    def supernumber(self, max_terms=4, parity=None, bound=None, body=None):
        """A sparse supernumber; parity and generator bound are optional."""
        bound = self.L if bound is None else bound
        if not 0 <= bound <= self.L:
            raise ValueError(f"generator bound {bound} is outside 0..{self.L}")
        if parity == 1 and bound == 0:
            raise ValueError("no odd monomial on 0 generators")
        bits, draw = self._bits, self.gaussian_rational
        terms = {}
        for _ in range(1 + self._below(max_terms)):
            mask = bits(bound)
            while parity is not None and mask.bit_count() % 2 != parity:
                mask = bits(bound)
            if body is False and mask == 0:
                continue
            terms[mask] = draw(nonzero=True)
        if body is True:
            terms[0] = draw(nonzero=True)
        return Supernumber._make(self.L, terms)

    def soul(self, max_terms=3, parity=None, bound=None):
        return self.supernumber(max_terms, parity, bound, body=False)

    def odd(self, max_terms=2, bound=None):
        """A random odd element (possibly zero)."""
        return self.supernumber(max_terms, parity=1, bound=bound, body=False)

    def even_invertible(self, max_terms=3, bound=None):
        return self.supernumber(max_terms, parity=0, bound=bound, body=True)

    def superpoly(self, max_terms=4, z_span=(0, 4), parity=None, bound=None):
        terms = {}
        for _ in range(1 + self._below(max_terms)):
            k = z_span[0] + self._below(z_span[1] + 1 - z_span[0])
            mask = self._below(4)
            coeff_parity = None
            if parity is not None:
                coeff_parity = (parity + mask.bit_count()) % 2
            terms[(k, mask)] = self.supernumber(2, coeff_parity, bound)
        return SuperPolynomial(self.L, terms)

    def rational_superfunction(self, max_terms=4, z_span=(0, 3), parity=None,
                               with_denominator=True):
        num = self.superpoly(max_terms, z_span, parity)
        if with_denominator and self._below(2):
            den = ScalarPoly({1: grat(1), 0: self.gaussian_rational(2)})
        else:
            den = ScalarPoly.one()
        return RationalSuperfunction(num, den)

    # -- maps -----------------------------------------------------------------

    def n1_map(self):
        """A random invertible N=1 superanalytic map with small components."""
        bound = self.L - 2
        L = self.L
        f1_terms = {(1, 0): self.supernumber(2, 0, bound, body=True)}
        for k in (0, 2):
            if self._below(2):
                f1_terms[(k, 0)] = self.supernumber(2, 0, bound)
        f1 = RationalSuperfunction(SuperPolynomial(L, f1_terms))
        xi = self._odd_poly()
        psi = self._odd_poly()
        g_terms = {(0, 0): self.even_invertible(2, bound)}
        if self._below(2):
            g_terms[(1, 0)] = self.soul(1, 0, bound)
        g = RationalSuperfunction(SuperPolynomial(L, g_terms))
        return N1SuperanalyticMap(f1, xi, psi, g)

    def _odd_poly(self):
        """An odd polynomial of degree at most 2 over generators 1..L-2."""
        terms = {}
        for k in range(3):
            if self._below(2):
                value = self.odd(1, self.L - 2)
                if value:
                    terms[(k, 0)] = value
        return RationalSuperfunction(SuperPolynomial(self.L, terms))

    def superconformal_map(self):
        """A random valid superconformal map, via the N=1 correspondence."""
        return from_n1(self.n1_map())

    # -- automorphism data ------------------------------------------------------

    def sl2_scalars(self):
        """Random integer (a, b, c, d) with determinant one."""
        a, b, c, d = 1, 0, 0, 1
        for _ in range(1 + self._below(3)):
            x = -2 + self._below(5)
            if self._below(2):
                a, b = a + x * c, b + x * d
            else:
                c, d = c + x * a, d + x * b
        return a, b, c, d

    def moebius_supernumbers(self):
        """Even (a, b, c, d) with soul corrections and determinant one."""
        entries = [Supernumber.scalar(self.L, x) for x in self.sl2_scalars()]
        for _ in range(self._below(3)):
            which = self._below(4)
            entries[which] = entries[which] + self.soul(1, 0, self.L - 2)
        return normalize_determinant(*entries)

    def automorphism_params(self, n):
        bound = self.L - 2
        a, b, c, d = self.moebius_supernumbers()
        plus_len, minus_len = AutomorphismParams.psi_lengths(n)
        psi_plus = [self.odd(1, bound) for _ in range(plus_len)]
        psi_minus = [self.odd(1, bound) for _ in range(minus_len)]
        return AutomorphismParams(n, a, b, c, d,
                                  self.even_invertible(2, bound),
                                  psi_plus, psi_minus)

    def matrix_group_element(self):
        a, b, c, d = self.moebius_supernumbers()
        return MatrixGroupElement(a, b, c, d,
                                  self.even_invertible(2, self.L - 2))

    def odd_vector(self, length):
        return [self.odd(1, self.L - 2) for _ in range(length)]
