"""Exact arithmetic in finite Grassmann algebras.

A Grassmann algebra on L generators z[1], ..., z[L] is the associative
algebra over Q(i) with relations

    z[j] * z[k] = -z[k] * z[j]      (j != k)
    z[j] * z[j] = 0.

A supernumber is a Q(i)-linear combination of the 2**L sorted generator
monomials.  Monomials are stored as integer bitmasks (bit j-1 set means
generator j is present), which makes the reordering sign a popcount
computation.  The semantic definition is the sorted label list; the bitmask
is only a faithful encoding of it.

Supernumbers are immutable and canonical: zero coefficients are never
stored, so structural equality is mathematical equality.  The body of a
supernumber is its empty-monomial coefficient; the soul is the (nilpotent)
rest.  A supernumber is invertible exactly when its body is nonzero, via
the terminating geometric series on the soul.
"""

from __future__ import annotations

import functools
import math

from .scalars import (
    ONE,
    SCALAR_TYPES,
    ZERO,
    add_terms,
    grat,
    power,
    reduce_triples,
    triples,
)


class GrassmannError(Exception):
    pass


class DimensionMismatch(GrassmannError):
    """Operands live over different generator counts."""


class NotInvertible(GrassmannError):
    """Inversion requested for an element with zero body."""


def mask_from_labels(labels, L):
    """Bitmask for a strictly increasing tuple of generator labels."""
    mask = 0
    prev = 0
    for j in labels:
        if not prev < j <= L:
            raise ValueError(f"labels must be strictly increasing in 1..{L}: {labels}")
        mask |= 1 << (j - 1)
        prev = j
    return mask


def labels_from_mask(mask):
    labels = []
    j = 1
    while mask:
        if mask & 1:
            labels.append(j)
        mask >>= 1
        j += 1
    return tuple(labels)


@functools.lru_cache(maxsize=None)
def _above_parity(a):
    """Bit j set iff an odd number of a's generators lie above bit j."""
    out = 0
    parity = 0
    for j in range(a.bit_length() - 1, -1, -1):
        if parity:
            out |= 1 << j
        parity ^= a >> j & 1
    return out


def mul_into(acc, left, right):
    """Add the Grassmann product left * right into acc, unreduced.

    left and right are `scalars.triples` lists of (mask, a, b, d); acc
    maps masks to [a, b, d] sums, reduced later by `scalars.reduce_triples`.
    The sign of z^g1 z^g2 is the parity of _above_parity(g1) & g2: each
    generator of g2 below one of g1 is one transposition.  The sum step
    is `scalars.add_triple`, written out here: this loop runs once per
    term pair, and the call cost 3% of a dense product.
    """
    gcd = math.gcd
    for g1, a1, b1, d1 in left:
        above = _above_parity(g1)
        for g2, a2, b2, d2 in right:
            if g1 & g2:
                continue
            pa = a1 * a2 - b1 * b2
            pb = a1 * b2 + b1 * a2
            pd = d1 * d2
            if (above & g2).bit_count() & 1:
                pa = -pa
                pb = -pb
            g = g1 | g2
            cur = acc.get(g)
            if cur is None:
                acc[g] = [pa, pb, pd]
            elif cur[2] == pd:
                cur[0] += pa
                cur[1] += pb
            else:
                d = cur[2]
                q = gcd(d, pd)
                f = pd // q
                e = d // q
                cur[0] = cur[0] * f + pa * e
                cur[1] = cur[1] * f + pb * e
                cur[2] = d * f


class Supernumber:
    """An element of the Grassmann algebra on L generators."""

    __slots__ = ("L", "terms")

    def __init__(self, L, terms=None):
        self.L = L
        clean = {}
        if terms:
            limit = 1 << L
            for mask, coeff in terms.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"monomial {mask:b} does not fit in {L} generators")
                c = grat(coeff)
                if c:
                    clean[mask] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, L, value):
        out = cls.__new__(cls)
        out.L = L
        c = grat(value)
        out.terms = {0: c} if c else {}
        return out

    @classmethod
    def generator(cls, L, j):
        if not 1 <= j <= L:
            raise ValueError(f"generator index {j} out of range 1..{L}")
        return cls._make(L, {1 << (j - 1): ONE})

    @classmethod
    def monomial(cls, L, labels, coeff=ONE):
        return cls(L, {mask_from_labels(labels, L): grat(coeff)})

    @classmethod
    def zero(cls, L):
        return cls._make(L, {})

    @classmethod
    def one(cls, L):
        return cls._make(L, {0: ONE})

    @classmethod
    def _make(cls, L, terms):
        # internal fast path: terms already canonical
        out = cls.__new__(cls)
        out.L = L
        out.terms = terms
        return out

    # -- structure ---------------------------------------------------------

    def body(self):
        return self.terms.get(0, ZERO)

    def soul(self):
        return Supernumber._make(self.L, {m: c for m, c in self.terms.items() if m})

    def body_soul(self):
        return self.body(), self.soul()

    def is_zero(self):
        return not self.terms

    def parity(self):
        """0 or 1 for homogeneous elements, None for mixed, 0 for zero."""
        if not self.terms:
            return 0
        parities = {mask.bit_count() & 1 for mask in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def is_even(self):
        return all(mask.bit_count() & 1 == 0 for mask in self.terms)

    def is_odd(self):
        return all(mask.bit_count() & 1 for mask in self.terms)

    def even_part(self):
        return Supernumber._make(
            self.L, {m: c for m, c in self.terms.items() if m.bit_count() & 1 == 0}
        )

    def odd_part(self):
        return Supernumber._make(
            self.L, {m: c for m, c in self.terms.items() if m.bit_count() & 1}
        )

    def grade_involution(self):
        """Negate odd-monomial coefficients (the parity automorphism)."""
        return Supernumber._make(
            self.L,
            {m: (-c if m.bit_count() & 1 else c) for m, c in self.terms.items()},
        )

    def in_subalgebra(self, limit):
        """True if every monomial uses only generators 1..limit."""
        return all(mask.bit_length() <= limit for mask in self.terms)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.L != other.L:
            raise DimensionMismatch(
                f"operands over {self.L} and {other.L} generators; "
                "extend or restrict explicitly"
            )

    def __add__(self, other):
        if not isinstance(other, Supernumber):
            if not isinstance(other, SCALAR_TYPES):
                return NotImplemented
            return self + Supernumber.scalar(self.L, other)
        self._check(other)
        return Supernumber._make(self.L, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return Supernumber._make(self.L, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Supernumber):
            if not isinstance(other, SCALAR_TYPES):
                return NotImplemented
            return self - Supernumber.scalar(self.L, other)
        return self + (-other)

    def __mul__(self, other):
        """The Grassmann product.  A factor exactly 1 returns the other
        operand itself, as values are immutable; the left one where both
        are 1.  Any other body-only factor commutes with everything, so it
        scales the other operand."""
        if not isinstance(other, Supernumber):
            if not isinstance(other, SCALAR_TYPES):
                return NotImplemented
            return self.scale(other)
        self._check(other)
        if not self.terms or not other.terms:
            return Supernumber._make(self.L, {})
        for x, y in ((self, other), (other, self)):
            if len(y.terms) == 1 and 0 in y.terms:
                s = y.terms[0]
                if s == ONE:
                    return x
                if x.terms != {0: ONE}:  # else the next pair returns y
                    return x.scale(s)
        acc = {}
        mul_into(acc, triples(self.terms.items()), triples(other.terms.items()))
        return Supernumber._make(self.L, reduce_triples(acc))

    def scale(self, value):
        """self times the scalar value; self itself for 1 (values are immutable)."""
        c0 = grat(value)
        if c0 == ONE:
            return self
        if not c0:
            return Supernumber._make(self.L, {})
        return Supernumber._make(self.L, {m: c0 * c for m, c in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self.inverse() if n < 0 else self, abs(n),
                     lambda: Supernumber.one(self.L))

    def inverse(self):
        """Two-sided inverse, defined exactly when the body is nonzero.

        1/(b + s) = sum_n (-1)**n s**n / b**(n+1).
        """
        body = self.body()
        if not body:
            raise NotInvertible("supernumber with zero body has no inverse")
        inv_b = body.inverse()
        return self.soul_series(inv_b, lambda k: -inv_b)

    def soul_series(self, c0, ratio):
        """sum_k c_k s**k for the soul s, c_k = c_(k-1) ratio(k), up to the
        first zero power of s: the soul is nilpotent, so the sum is finite."""
        soul = term = self.soul()
        out = Supernumber.scalar(self.L, c0)
        coeff = c0
        k = 1
        while term.terms:
            coeff = coeff * ratio(k)
            out = out + term.scale(coeff)
            term = term * soul
            k += 1
        return out

    def __truediv__(self, other):
        if isinstance(other, Supernumber):
            return self * other.inverse()
        if not isinstance(other, SCALAR_TYPES):
            return NotImplemented
        return self.scale(grat(other).inverse())

    # -- functorial maps ---------------------------------------------------

    def extend(self, L_new):
        """View this element in the larger algebra on L_new generators."""
        if L_new < self.L:
            raise DimensionMismatch(f"cannot extend from {self.L} to {L_new}")
        return Supernumber._make(L_new, dict(self.terms))

    def restrict(self, L_new):
        """Drop every monomial using a generator above L_new."""
        if L_new > self.L:
            raise DimensionMismatch(f"cannot restrict from {self.L} to {L_new}")
        limit = 1 << L_new
        return Supernumber._make(
            L_new, {m: c for m, c in self.terms.items() if m < limit}
        )

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Supernumber):
            return self.L == other.L and self.terms == other.terms
        if isinstance(other, SCALAR_TYPES):
            return self == Supernumber.scalar(self.L, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.L, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Supernumber(L={self.L}, {self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            coeff = self.terms[mask]
            if mask == 0:
                parts.append(str(coeff))
                continue
            mono = "".join(f"z[{j}]" for j in labels_from_mask(mask))
            if coeff == ONE:
                parts.append(mono)
            elif coeff == -ONE:
                parts.append(f"-{mono}")
            else:
                text = str(coeff)
                if "+" in text[1:] or "-" in text[1:]:
                    text = text if text.startswith("(") else f"({text})"
                parts.append(f"{text}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

