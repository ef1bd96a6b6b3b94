import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersphere.grassmann import (
    DimensionMismatch,
    NotInvertible,
    Supernumber,
    labels_from_mask,
    mask_from_labels,
)
from supersphere.matrixalgebra import Matrix
from supersphere.scalars import GaussianRational, grat
from supersphere.spheres import invsqrt_one_plus_soul
from supersphere.superfield import ScalarPoly, SuperPolynomial

L = 6

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


def supernumbers(generators=L, max_terms=5):
    return st.dictionaries(
        st.integers(min_value=0, max_value=(1 << generators) - 1),
        coeffs,
        max_size=max_terms,
    ).map(lambda terms: Supernumber(generators, terms))


def homogeneous(generators=L, parity=0):
    mask_values = [m for m in range(1 << generators)
                   if m.bit_count() % 2 == parity]
    return st.dictionaries(
        st.sampled_from(mask_values), coeffs, max_size=4
    ).map(lambda terms: Supernumber(generators, terms))


def test_generator_relations():
    z1 = Supernumber.generator(L, 1)
    z2 = Supernumber.generator(L, 2)
    assert z1 * z2 == Supernumber.monomial(L, (1, 2))
    assert z2 * z1 == Supernumber.monomial(L, (1, 2), grat(-1))
    assert (z1 * z1).is_zero()


def test_distributes_over_simple_sum():
    z1 = Supernumber.generator(L, 1)
    z2 = Supernumber.generator(L, 2)
    one = Supernumber.one(L)
    product = (one + z1) * (one + z2)
    assert product == one + z1 + z2 + z1 * z2


def test_mask_labels_roundtrip():
    assert labels_from_mask(mask_from_labels((1, 3, 6), L)) == (1, 3, 6)
    with pytest.raises(ValueError):
        mask_from_labels((3, 1), L)
    with pytest.raises(ValueError):
        mask_from_labels((1, 7), L)


def test_body_soul_examples():
    z12 = Supernumber.monomial(L, (1, 2))
    x = Supernumber.scalar(L, 3) + z12
    body, soul = x.body_soul()
    assert body == grat(3)
    assert soul == z12
    assert Supernumber.generator(L, 1).body_soul() == (
        grat(0), Supernumber.generator(L, 1))
    assert Supernumber.zero(L).body_soul() == (grat(0), Supernumber.zero(L))


def test_inverse_examples():
    two = Supernumber.scalar(L, 2)
    assert two.inverse() == Supernumber.scalar(L, "1/2")
    x = Supernumber.one(L) + Supernumber.monomial(L, (1, 2))
    inv = x.inverse()
    # oracle: multiplying back must give exactly one
    assert x * inv == Supernumber.one(L)
    assert inv == Supernumber.one(L) + Supernumber.monomial(L, (1, 2), grat(-1))
    with pytest.raises(NotInvertible):
        Supernumber.generator(L, 1).inverse()


def test_equality_with_every_scalar_type():
    half = Supernumber.scalar(4, Fraction(1, 2))
    assert half == grat(Fraction(1, 2))
    assert half != grat(Fraction(1, 3))
    assert half != 1
    assert Supernumber.one(4) == 1
    assert Supernumber.one(4) != 2
    assert Supernumber.zero(4) == 0
    # a soul makes it differ from every scalar
    x = Supernumber.one(4) + Supernumber.monomial(4, (1, 2))
    assert x != 1 and x != grat(1)


def test_extend_restrict_examples():
    z12 = Supernumber.monomial(2, (1, 2))
    assert z12.extend(4) == Supernumber.monomial(4, (1, 2))
    mixed = Supernumber.generator(4, 1) + Supernumber.generator(4, 3)
    assert mixed.restrict(2) == Supernumber.generator(2, 1)
    x = Supernumber.one(4) + Supernumber.monomial(4, (2, 4), grat(0, 1))
    assert x.extend(6).restrict(4) == x
    with pytest.raises(DimensionMismatch):
        x.extend(3)
    with pytest.raises(DimensionMismatch):
        x.restrict(5)


def test_dimension_mismatch_in_product():
    with pytest.raises(DimensionMismatch):
        Supernumber.one(4) * Supernumber.one(6)


@settings(max_examples=60)
@given(supernumbers(), supernumbers(), supernumbers())
def test_associativity_and_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60)
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_supercommutativity(p, q, data):
    x = data.draw(homogeneous(parity=p))
    y = data.draw(homogeneous(parity=q))
    sign = (-1) ** (p * q)
    assert x * y == (y * x).scale(sign)
    product = x * y
    if product:
        assert product.parity() == (p + q) % 2


@settings(max_examples=60)
@given(supernumbers())
def test_nilpotency_and_inverse(x):
    assert (x.soul() ** (L + 1)).is_zero()
    if x.body():
        inv = x.inverse()
        assert inv == reference_inverse(x)
        assert x * inv == Supernumber.one(L)
        assert inv * x == Supernumber.one(L)
    else:
        with pytest.raises(NotInvertible):
            x.inverse()


def reference_inverse(x):
    """The geometric series of `Supernumber.inverse` as its own loop."""
    body, soul = x.body_soul()
    inv_b = body.inverse()
    out = Supernumber.scalar(x.L, inv_b)
    power = Supernumber.one(x.L)
    coeff = inv_b
    for _ in range(x.L):
        power = power * soul
        if power.is_zero():
            break
        coeff = -coeff * inv_b
        out = out + power.scale(coeff)
    return out


def reference_invsqrt(x):
    """The binomial series of `spheres.invsqrt_one_plus_soul` as its own loop."""
    soul = x.soul()
    out = Supernumber.one(x.L)
    power = Supernumber.one(x.L)
    coeff = grat(1)
    for k in range(1, x.L // 2 + 2):
        power = power * soul
        if power.is_zero():
            break
        coeff = coeff * grat(-2 * k + 1) / grat(2 * k)
        out = out + power.scale(coeff)
    return out


@settings(max_examples=60)
@given(homogeneous(parity=0), coeffs)
def test_soul_series_matches_the_reference_loops(x, body):
    soul = x.soul()
    if body:
        assert (soul + body).inverse() == reference_inverse(soul + body)
    one_plus = soul + 1
    assert invsqrt_one_plus_soul(one_plus) == reference_invsqrt(one_plus)


@settings(max_examples=40)
@given(supernumbers(generators=4), supernumbers(generators=4))
def test_extension_is_multiplicative(x, y):
    assert (x * y).extend(6) == x.extend(6) * y.extend(6)
    assert (x + y).extend(6) == x.extend(6) + y.extend(6)
    assert x.extend(6).restrict(4) == x


def test_parity_queries():
    x = Supernumber.one(L) + Supernumber.monomial(L, (1, 2))
    assert x.parity() == 0 and x.is_even()
    y = Supernumber.generator(L, 3) + Supernumber.monomial(L, (1, 2, 4))
    assert y.parity() == 1 and y.is_odd()
    assert (x + y).parity() is None
    assert (x + y).even_part() == x
    assert (x + y).odd_part() == y
    assert Supernumber.zero(L).parity() == 0


def test_grade_involution_is_product_twist():
    x = Supernumber.generator(L, 1) + Supernumber.one(L)
    assert x.grade_involution() == Supernumber.one(L) - Supernumber.generator(L, 1)


# -- products against a label-list oracle ---------------------------------
#
# The reference multiplies sorted label lists: the sign of a product
# monomial is (-1) to the number of transpositions that sort the
# concatenated labels, and the sum uses only GaussianRational * and +.
# Odd variables of a superpolynomial are the labels -2 (theta+) and -1
# (theta-), which sort before every generator because t^M stands on the
# left of its coefficient.

varied = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


def _sorted_with_sign(labels):
    inversions = sum(1 for i in range(len(labels))
                     for j in range(i + 1, len(labels)) if labels[i] > labels[j])
    return tuple(sorted(labels)), -1 if inversions % 2 else 1


def _reference_product(xs, ys):
    """{key: coeff} of the product of {(k, labels): coeff} sums."""
    out = {}
    for (k1, l1), c1 in xs.items():
        for (k2, l2), c2 in ys.items():
            if set(l1) & set(l2):
                continue
            labels, sign = _sorted_with_sign(l1 + l2)
            key = (k1 + k2, labels)
            out[key] = out.get(key, GaussianRational(0)) + c1 * c2 * sign
    return {key: c for key, c in out.items() if c}


def _odd_labels(m):
    return tuple(-2 + b for b in range(2) if m >> b & 1)


def _labelled(x):
    """A Supernumber, SuperPolynomial or ScalarPoly as {(k, labels): coeff}."""
    if isinstance(x, Supernumber):
        return {(0, labels_from_mask(g)): c for g, c in x.terms.items()}
    if isinstance(x, ScalarPoly):
        return {(k, ()): c for k, c in x.coeffs.items()}
    return {(k, _odd_labels(m & 3) + labels_from_mask(m >> 2)): c
            for (k, m), c in x.terms.items()}


def _is_canonical(c):
    return (type(c) is GaussianRational and c._d > 0
            and math.gcd(c._a, c._b, c._d) == 1)


def _assert_matches_reference(product, x, y):
    got = _labelled(product)
    for c in got.values():
        assert c and _is_canonical(c)
    assert got == _reference_product(_labelled(x), _labelled(y))


def dense_supernumbers(generators):
    return st.dictionaries(
        st.integers(min_value=0, max_value=(1 << generators) - 1),
        varied, max_size=12,
    ).map(lambda terms: Supernumber(generators, terms))


def theta_superpolys(generators):
    return st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(0, 3)),
        dense_supernumbers(generators).filter(bool),
        max_size=4,
    ).map(lambda terms: SuperPolynomial(generators, terms))


@pytest.mark.parametrize("generators", [6, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_supernumber_product_matches_label_oracle(generators, data):
    x = data.draw(dense_supernumbers(generators))
    y = data.draw(dense_supernumbers(generators))
    _assert_matches_reference(x * y, x, y)
    # the odd-odd pairs of a square cancel; an odd element squares to zero
    _assert_matches_reference(x * x, x, x)
    odd = x.odd_part()
    assert (odd * odd).terms == {}


@pytest.mark.parametrize("generators", [6, 8])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_superpolynomial_product_matches_label_oracle(generators, data):
    P = data.draw(theta_superpolys(generators))
    Q = data.draw(theta_superpolys(generators))
    _assert_matches_reference(P * Q, P, Q)
    # an element of odd total parity squares to zero: its theta and
    # generator signs cancel the pairs against each other
    odd = SuperPolynomial(generators, {
        (k, m): c.even_part() if m.bit_count() % 2 else c.odd_part()
        for (k, m), c in P.coefficients().items()})
    _assert_matches_reference(odd * odd, odd, odd)
    assert (odd * odd).terms == {}
    # scalar polynomials: S(z) S(-z) is even, its odd coefficients cancel
    S = ScalarPoly(data.draw(st.dictionaries(st.integers(0, 4), varied,
                                             max_size=4)))
    S_minus = ScalarPoly({k: -c if k % 2 else c for k, c in S.coeffs.items()})
    _assert_matches_reference(P.mul_scalar_poly(S), P, S)
    _assert_matches_reference(S * S_minus, S, S_minus)
    assert all(k % 2 == 0 for k in (S * S_minus).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.data())
def test_matrix_product_matches_plain_sums(size, data):
    entries = st.lists(st.lists(varied, min_size=size, max_size=size),
                       min_size=size, max_size=size)
    A = Matrix(data.draw(entries))
    B = Matrix(data.draw(entries))
    zero = GaussianRational(0)
    expected = [[sum((A.rows[i][k] * B.rows[k][j] for k in range(size)), zero)
                 for j in range(size)] for i in range(size)]
    got = A * B
    assert [list(row) for row in got.rows] == expected
    assert all(_is_canonical(c) for row in got.rows for c in row)
    # a 2x2 matrix times its adjugate: the off-diagonal sums cancel to zero
    (a, b), (c, d) = (A.rows[0][0], B.rows[0][0]), (A.rows[-1][-1], B.rows[-1][-1])
    M = Matrix([[a, b], [c, d]])
    det = a * d - b * c
    product = M * Matrix([[d, -b], [-c, a]])
    assert product == Matrix([[det, 0], [0, det]])
