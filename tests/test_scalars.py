import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from supersphere.grassmann import Supernumber
from supersphere.scalars import GaussianRational, NotASquare, grat
from supersphere.superfield import RationalSuperfunction, ScalarPoly, SuperPolynomial
from supersphere.textio import parse_coefficient


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = grat("3/2")
    b = grat(1, -2)
    assert a + b == GaussianRational(Fraction(5, 2), -2)
    assert a * grat(0, 1) == grat(0, "3/2")
    assert (b * b.inverse()) == grat(1)
    assert grat(2) ** -2 == grat("1/4")


def test_binary_floats_are_refused():
    for make in (lambda: grat(0.1), lambda: GaussianRational(0.5),
                 lambda: grat(1, 0.25), lambda: Supernumber.scalar(6, 0.1),
                 lambda: ScalarPoly({0: 0.1})):
        with pytest.raises(TypeError):
            make()
    assert grat("-1/2") == grat(Fraction(-1, 2))


def test_parse_forms():
    assert parse_coefficient("3/2") == grat("3/2")
    assert parse_coefficient("-1/3i") == grat(0, "-1/3")
    assert parse_coefficient("(3/2+1i)") == grat("3/2", 1)
    assert parse_coefficient("(2-1i)") == grat(2, -1)


@given(gaussians, gaussians, gaussians)
def test_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(gaussians)
def test_inverse_roundtrip(a):
    if a:
        assert a * a.inverse() == grat(1)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


def test_str_parse_roundtrip():
    for value in (grat(2), grat("-7/3"), grat(0, "2/5"), grat(1, -1),
                  grat("-1/2", "-3/4")):
        assert parse_coefficient(str(value)) == value


# (value, its root), or None where Q(i) has no root
SQRT_TABLE = [
    (grat("9/4"), grat("3/2")),
    (grat(-1), grat(0, 1)),
    (grat(-4), grat(0, 2)),
    (grat(0, 2), grat(1, 1)),
    (grat(0, -2), grat(1, -1)),
    (grat(3, 4), grat(2, 1)),
    (grat(0), grat(0)),
    (grat(2), None),
    (grat(-2), None),
    (grat(5), None),      # its norm 25 is a square, yet it has no root
    (grat(1, 1), None),   # its norm 2 is not a square
]


def test_sqrt_table():
    for value, root in SQRT_TABLE:
        if root is None:
            with pytest.raises(NotASquare):
                value.sqrt()
        else:
            assert value.sqrt() == root


@given(gaussians)
def test_gaussian_sqrt_of_squares(a):
    root = (a * a).sqrt()
    assert root * root == a * a


def test_gaussian_sqrt_failures():
    with pytest.raises(NotASquare):
        grat(2).sqrt()
    with pytest.raises(NotASquare):
        grat(0, 1).sqrt()  # sqrt(i) is not Gaussian rational
    assert grat(-4).sqrt() == grat(0, 2)
    assert grat(0, 2).sqrt() * grat(0, 2).sqrt() == grat(0, 2)


# -- the integer-backed form against a reference on pairs of Fractions -------

pairs = st.tuples(rationals, rationals)


def _canonical(x):
    """Assert the stored form (a + b*i)/d has d > 0 and gcd(a, b, d) = 1."""
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0 and math.gcd(a, b, d) == 1
    return x


def _value(x):
    return (_canonical(x).re, x.im)


def _ref_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _ref_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


def _ref_str(p):
    re, im = p
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)"


def _rational_root(q):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _ref_has_root(p):
    # u + iv squares to re + i im iff u^2 = (S + re)/2, v^2 = (S - re)/2
    # with S = |re + i im| rational
    re, im = p
    norm = _rational_root(re * re + im * im)
    if norm is None:
        return False
    return (_rational_root((norm + re) / 2) is not None
            and _rational_root((norm - re) / 2) is not None)


@given(pairs, pairs)
def test_field_operations_match_fraction_pairs(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    assert _value(x) == p and _value(y) == q
    assert _value(x + y) == (p[0] + q[0], p[1] + q[1])
    assert _value(x - y) == (p[0] - q[0], p[1] - q[1])
    assert _value(-x) == (-p[0], -p[1])
    assert _value(x * y) == _ref_mul(p, q)
    if any(q):
        assert _value(y.inverse()) == _ref_inverse(q)
        assert _value(x / y) == _ref_mul(p, _ref_inverse(q))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y


@given(pairs, st.integers(min_value=-4, max_value=4))
def test_powers_match_fraction_pairs(p, n):
    x = GaussianRational(*p)
    if n < 0 and not any(p):
        with pytest.raises(ZeroDivisionError):
            x ** n
        return
    expected = (Fraction(1), Fraction(0))
    base = p if n >= 0 else _ref_inverse(p)
    for _ in range(abs(n)):
        expected = _ref_mul(expected, base)
    assert _value(x ** n) == expected


@given(pairs, st.integers(min_value=-9, max_value=9),
       st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_mixed_operands_and_equality(p, k, q):
    x = GaussianRational(*p)
    assert _value(x + k) == (p[0] + k, p[1])
    assert _value(k - x) == (k - p[0], -p[1])
    assert _value(x * k) == (p[0] * k, p[1] * k)
    assert (x == k) == (p == (k, 0))
    assert GaussianRational(k) == k
    assert GaussianRational(q) == GaussianRational(q.numerator) / q.denominator


@given(pairs, pairs, st.integers(-10 ** 30, 10 ** 30))
@example((Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(0)), -1)
@example((Fraction(1, 3), Fraction(-1, 3)), (Fraction(2, 3), Fraction(1, 3)), 0)
def test_equal_scalars_hash_equal(p, q, k):
    """One value reached by two different sums hashes alike, and a scalar
    equal to an int hashes like that int (-1 included, whose hash is -2)."""
    x, y = GaussianRational(*p), GaussianRational(*q)
    left, right = x + y, (x - k) + (y + k)
    assert left == right and hash(left) == hash(right)
    whole = (x + k) - x
    assert whole == k and hash(whole) == hash(k)


SCALAR_OPERANDS = [
    lambda: grat(1, 1),
    lambda: Supernumber.one(4) + Supernumber.monomial(4, (1, 2)),
    lambda: SuperPolynomial.z_power(4, 1),
    lambda: RationalSuperfunction.z_power(4, -1),
]


@pytest.mark.parametrize("make", SCALAR_OPERANDS,
                         ids=["scalar", "supernumber", "superpolynomial",
                              "superfunction"])
def test_a_fraction_is_not_an_operand(make):
    """Fraction is read only where a scalar crosses text: no operator takes
    it, on either side, and no scalar equals one."""
    x, q = make(), Fraction(1, 2)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(TypeError):
            op(x, q)
        with pytest.raises(TypeError):
            op(q, x)
    assert grat(1) != Fraction(1) and Fraction(1) != grat(1)


@given(pairs, pairs)
def test_equality_and_hash_follow_the_value(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    assert (x == y) == (p == q)
    same = (x + y) - y
    assert same == x and hash(same) == hash(x)
    assert hash(GaussianRational(x.re, x.im)) == hash(x)
    assert bool(x) == any(p)


@given(pairs)
def test_str_parse_and_repr(p):
    x = GaussianRational(*p)
    assert str(x) == _ref_str(p)
    assert _value(parse_coefficient(str(x))) == p
    assert repr(x) == f"GaussianRational({p[0]}, {p[1]})"


@given(pairs)
def test_sqrt_matches_fraction_pairs(p):
    x = GaussianRational(*p)
    for value, ref in ((x, p), (x * x, _ref_mul(p, p))):
        if _ref_has_root(ref):
            root = _canonical(value.sqrt())
            assert _value(root * root) == ref
        else:
            with pytest.raises(NotASquare):
                value.sqrt()
