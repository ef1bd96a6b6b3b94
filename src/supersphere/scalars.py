"""Exact Gaussian-rational scalars.

Every coefficient in this library is an element of Q(i): a complex number
whose real and imaginary parts are exact rationals.  All identities checked
by the verification suites are polynomial identities over this field, so
equality is always exact and never a tolerance question.

A scalar is stored as (a + b*i)/d with Python integers a, b, d, where
d > 0 and gcd(a, b, d) = 1.  This form is canonical, so equality
compares the integer triple, and each field operation costs one integer
gcd.  Sums of products (Grassmann and polynomial products, matrix
entries) are instead accumulated as unreduced triples and reduced once
per output coefficient (`triples`, `add_triple`, `reduce_triples`,
`dot`).  `gauss_jordan` is the one row reduction of scalar matrices, and
`add_terms` and `power` are the one sparse sum and power of every layer.
GaussianRational is the one scalar type of the arithmetic, whose operators
take it and int only; fractions.Fraction is read (the constructor) and
written (`re`, `im`) only where a scalar crosses text.  `ratio` builds
an integer ratio p/q directly as the triple (p, 0, q).
"""

from __future__ import annotations

import math
from fractions import Fraction

_gcd = math.gcd


class NotASquare(ArithmeticError):
    """Raised when an exact square root does not exist in Q(i)."""


def _new(a, b, d):
    # internal: (a, b, d) is already in canonical form
    out = object.__new__(GaussianRational)
    out._a = a
    out._b = b
    out._d = d
    return out


def _canonical(a, b, d):
    """The scalar (a + b*i)/d for integers a, b and d != 0, in canonical form.

    Every triple that is not already canonical is reduced here, to
    d > 0 and gcd(a, b, d) = 1.
    """
    if d < 0:
        a, b, d = -a, -b, -d
    g = _gcd(a, b, d)
    if g != 1:
        if not g:
            raise ZeroDivisionError("division by zero in Q(i)")
        a //= g
        b //= g
        d //= g
    return _new(a, b, d)


def _rational_parts(value):
    """(numerator, denominator) of an int or anything Fraction accepts
    except a binary float, which would not be the decimal it was written as."""
    if type(value) is int:
        return value, 1
    if isinstance(value, float):
        raise TypeError(f"inexact float {value!r} is not a Q(i) scalar; "
                        "pass an int, a Fraction or a string")
    q = value if isinstance(value, Fraction) else Fraction(value)
    return q.numerator, q.denominator


class GaussianRational:
    """An element re + i*im of Q(i), stored as (a + b*i)/d in lowest terms."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        p, q = _rational_parts(re)
        r, s = _rational_parts(im)
        return _canonical(p * s, r * q, q * s)

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        return NotImplemented

    def __hash__(self):
        # an equal int hashes alike; any other value by its canonical triple
        if not self._b and self._d == 1:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            if d1 == 1:
                return _new(self._a + other._a, self._b + other._b, 1)
            return _canonical(self._a + other._a, self._b + other._b, d1)
        return _canonical(self._a * d2 + other._a * d1,
                          self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            if d1 == 1:
                return _new(self._a - other._a, self._b - other._b, 1)
            return _canonical(self._a - other._a, self._b - other._b, d1)
        return _canonical(self._a * d2 - other._a * d1,
                          self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                if self._d == 1:
                    return _new(self._a * other, self._b * other, 1)
                return _canonical(self._a * other, self._b * other, self._d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._a, self._b
        c, e = other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _new(a * c - b * e, a * e + b * c, 1)
        return _canonical(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def inverse(self):
        # 1/((a + bi)/d) = d (a - bi) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        if not b:
            if not a:
                raise ZeroDivisionError("division by zero in Q(i)")
            return _canonical(d, 0, a)
        return _canonical(d * a, -d * b, a * a + b * b)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return power(self.inverse() if n < 0 else self, abs(n), lambda: ONE)

    def sqrt(self):
        """Exact square root in Q(i), or raise NotASquare.

        A root (p + q*i)/(2d) of (a + b*i)/d has p**2 = 2d(n + a) and
        q**2 = 2d(n - a) with n**2 = a**2 + b**2, so p, q and n are
        integers whenever the root exists.  The root returned has p >= 0
        and q of the sign of b (q >= 0 on the reals).
        """
        a, b, d = self._a, self._b, self._d
        n = math.isqrt(a * a + b * b)
        p = math.isqrt(2 * d * (n + a))
        q = math.isqrt(2 * d * (n - a))
        root = _canonical(p, q if b >= 0 else -q, 2 * d)
        if root * root != self:
            raise NotASquare(f"{self} is not a square in Q(i)")
        return root

    def __repr__(self):
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def __str__(self):
        if not self._b:
            return str(self.re)
        if not self._a:
            return f"{self.im}i"
        im = self.im
        sign = "+" if im >= 0 else "-"
        return f"({self.re}{sign}{abs(im)}i)"


def divide_by_linear(coeffs, root):
    """(quotient, remainder) of sum(coeffs[k] * z**k) by z - root.

    coeffs is a nonempty dense list of GaussianRationals, lowest degree
    first; so is the quotient.  Synthetic division on the integer triples
    directly, with one reduction per coefficient.
    """
    ra, rb, rd = root._a, root._b, root._d
    acc = coeffs[-1]
    a, b, d = acc._a, acc._b, acc._d
    out = [acc]
    for k in range(len(coeffs) - 2, -1, -1):
        # acc * root + coeffs[k]
        c = coeffs[k]
        ta, tb, td = ra * a - rb * b, ra * b + rb * a, rd * d
        cd = c._d
        if cd == td:
            acc = _canonical(ta + c._a, tb + c._b, td)
        else:
            acc = _canonical(ta * cd + c._a * td, tb * cd + c._b * td, td * cd)
        a, b, d = acc._a, acc._b, acc._d
        out.append(acc)
    remainder = out.pop()
    out.reverse()
    return out, remainder


def triples(items):
    """[(key, a, b, d)] for (key, GaussianRational) pairs.

    Sums of products are accumulated on these integers, unreduced, in
    {key: [a, b, d]} dicts (`add_triple`) and brought to canonical form
    once per key (`reduce_triples`).
    """
    return [(key, x._a, x._b, x._d) for key, x in items]


def add_triple(acc, key, a, b, d):
    """Add (a + b*i)/d to acc[key]; a sum keeps the lcm of its denominators."""
    s = acc.get(key)
    if s is None:
        acc[key] = [a, b, d]
    elif s[2] == d:
        s[0] += a
        s[1] += b
    else:
        sd = s[2]
        g = _gcd(sd, d)
        f = d // g
        e = sd // g
        s[0] = s[0] * f + a * e
        s[1] = s[1] * f + b * e
        s[2] = sd * f


def add_terms(left, right):
    """left + right for sparse {key: coefficient} dicts, zeros dropped."""
    out = dict(left)
    for key, c in right.items():
        s = out.get(key)
        if s is None:
            out[key] = c
        else:
            s = s + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def power(base, n, one):
    """base**n for an integer n >= 0, one factor at a time (squaring would
    square large superpolynomials), ending at a zero power of a nilpotent;
    one() makes the unit for n = 0."""
    if n < 0:
        raise ValueError("a negative power needs an inverse")
    out = base if n else one()
    for _ in range(n - 1):
        out = out * base
        if not out:
            break
    return out


def reduce_triples(acc):
    """{key: GaussianRational} from {key: [a, b, d]}, dropping zeros."""
    return {key: _new(a, b, 1) if d == 1 else _canonical(a, b, d)
            for key, (a, b, d) in acc.items() if a or b}


def dot(xs, ys):
    """sum(x * y for x, y in zip(xs, ys)), reduced once at the end."""
    a = b = 0
    d = 1
    for x, y in zip(xs, ys):
        xa, xb, ya, yb = x._a, x._b, y._a, y._b
        pa = xa * ya - xb * yb
        pb = xa * yb + xb * ya
        pd = x._d * y._d
        if pd != d:
            # as in add_triple: both sides to the lcm of the denominators
            g = _gcd(d, pd)
            e, f = d // g, pd // g
            a, b, d = a * f, b * f, d * f
            pa, pb = pa * e, pb * e
        a += pa
        b += pb
    return _new(a, b, 1) if d == 1 else _canonical(a, b, d)


def gauss_jordan(rows, ncols):
    """Reduce lists of scalars in place over their first ncols columns.

    Returns the pivot columns: row i < len(pivots) has 1 in column
    pivots[i] and every other row 0 there; the later rows are zero over all
    ncols columns.  Columns past ncols take part in every row operation, so
    appended columns record it.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = [x * inv for x in rows[r]]
        support = [k for k, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for k in support:
                    row[k] = row[k] - f * prow[k]
        pivots.append(c)
        r += 1
    return pivots


def _coerce(value):
    if type(value) is GaussianRational:
        return value
    if isinstance(value, int):
        return _new(int(value), 0, 1)
    return None


def grat(re=0, im=0):
    """Shorthand constructor for a GaussianRational."""
    if type(re) is GaussianRational and not im:
        return re
    return GaussianRational(re, im)


def ratio(p, q):
    """The real scalar p/q for integers p and q != 0."""
    return _canonical(p, 0, q)


# every layer's scalar operands: the one scalar type and int (no Fraction)
SCALAR_TYPES = (int, GaussianRational)

ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)
HALF = _new(1, 0, 2)
