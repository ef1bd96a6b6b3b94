"""The N=2 Neveu-Schwarz Lie superalgebra and its superderivation picture.

Basis symbols: a central element d, even elements L(m) and J(m) for
integer m, and odd elements G+(r), G-(r) for half-integer r (stored as the
odd integer 2r).  The nonzero brackets are

    [L_m, L_n]   = (m - n) L_{m+n} + (1/12)(m^3 - m) delta_{m+n,0} d
    [J_m, J_n]   = (1/3) m delta_{m+n,0} d
    [L_m, J_n]   = -n J_{m+n}
    [L_m, G+-_r] = (m/2 - r) G+-_{m+r}
    [J_m, G+-_r] = +- G+-_{m+r}
    [G+_r, G-_s] = 2 L_{r+s} + (r - s) J_{r+s}
                    + (1/3)(r - 1/2)(r + 1/2) delta_{r+s,0} d

with same-sign G brackets vanishing and skew supersymmetry fixing the
remaining orders.

The superderivations on Laurent polynomials in an even x and odd phi+,
phi-,

    L_n  -> -(x^{n+1} d/dx + ((n+1)/2) x^n (phi+ d/dphi+ + phi- d/dphi-))
    J_n  -> -x^n (phi+ d/dphi+ - phi- d/dphi-)
    G+-_{n-1/2} -> -(x^n (d/dphi+- - phi-+ d/dx)
                     +- n x^{n-1} phi+ phi- d/dphi+-)

represent the algebra with central charge zero.  For each integer twist n
the infinitesimal automorphisms of the corresponding sphere form a
finite-dimensional subalgebra with even part spanned by L(-1),
L(0) - (n/2) J(0), L(1) - n J(1), J(0) and an odd part of dimension 4 for
|n| <= 2 and |n| + 2 for |n| >= 2.

Exponential flows of subalgebra elements act on the coordinates; they are
computed as truncated series in the flow parameter and compared against
closed forms.  With a soul or odd parameter the series terminates and the
comparison is exact.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ONE, ZERO, add_terms, dot, gauss_jordan, grat, ratio
from .grassmann import Supernumber
from .superfield import SuperPolynomial, THETA_MINUS, THETA_PLUS


def L(m):
    return ("L", m)


def J(m):
    return ("J", m)


def Gp(r2):
    if r2 % 2 == 0:
        raise ValueError("G indices are half-integers: pass an odd 2r")
    return ("G", +1, r2)


def Gm(r2):
    if r2 % 2 == 0:
        raise ValueError("G indices are half-integers: pass an odd 2r")
    return ("G", -1, r2)


CENTRAL = ("d",)


def key_parity(key):
    return 1 if key[0] == "G" else 0


def key_str(key):
    if key == CENTRAL:
        return "d"
    if key[0] == "G":
        sign = "+" if key[1] > 0 else "-"
        return f"G{sign}({key[2]}/2)"
    return f"{key[0]}({key[1]})"


class NSElement:
    """A finite Q(i)-linear combination of basis symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                c = grat(coeff)
                if c:
                    clean[key] = c
        self.terms = clean

    @classmethod
    def basis(cls, key, coeff=ONE):
        return cls({key: coeff})

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NSElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return NSElement(add_terms(self.terms, other.terms))

    def __neg__(self):
        return NSElement({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = grat(value)
        return NSElement({k: value * c for k, c in self.terms.items()})

    def parity(self):
        parities = {key_parity(k) for k in self.terms} or {0}
        return parities.pop() if len(parities) == 1 else None

    def central_coefficient(self):
        return self.terms.get(CENTRAL, ZERO)

    def __repr__(self):
        if not self.terms:
            return "NSElement(0)"
        parts = []
        for key in sorted(self.terms, key=key_str):
            c = self.terms[key]
            parts.append(f"({c})*{key_str(key)}")
        return "NSElement(" + " + ".join(parts) + ")"


def _basis_bracket(k1, k2):
    """Structure constants on basis symbols, as a key -> coefficient dict;
    a coefficient may be zero."""
    if k1 == CENTRAL or k2 == CENTRAL:
        return {}
    t1, t2 = k1[0], k2[0]
    if t1 == "L" and t2 == "L":
        m, n = k1[1], k2[1]
        out = {L(m + n): grat(m - n)}
        if m + n == 0:
            out[CENTRAL] = ratio(m ** 3 - m, 12)
        return out
    if t1 == "L" and t2 == "J":
        m, n = k1[1], k2[1]
        return {J(m + n): grat(-n)}
    if t1 == "J" and t2 == "L":
        return _flip(_basis_bracket(k2, k1), 0, 0)
    if t1 == "J" and t2 == "J":
        m, n = k1[1], k2[1]
        return {CENTRAL: ratio(m, 3)} if m + n == 0 else {}
    if t1 == "L" and t2 == "G":
        m, (_, s, r2) = k1[1], k2
        return {("G", s, r2 + 2 * m): ratio(m - r2, 2)}
    if t1 == "G" and t2 == "L":
        return _flip(_basis_bracket(k2, k1), 0, 1)
    if t1 == "J" and t2 == "G":
        m, (_, s, r2) = k1[1], k2
        return {("G", s, r2 + 2 * m): grat(s)}
    if t1 == "G" and t2 == "J":
        return _flip(_basis_bracket(k2, k1), 1, 0)
    # G with G
    (_, s1, r2), (_, s2, s2r) = k1, k2
    if s1 == s2:
        return {}
    if s1 < 0:
        # odd-odd skew symmetry carries a plus sign
        return _basis_bracket(k2, k1)
    r, s = r2, s2r
    out = {L((r + s) // 2): grat(2), J((r + s) // 2): ratio(r - s, 2)}
    if r + s == 0:
        out[CENTRAL] = ratio(r * r - 1, 12)
    return out


def _flip(table, p1, p2):
    """[v,u] = -(-1)^{p1 p2} [u,v] given the table for [u,v]."""
    return dict(table) if p1 and p2 else {k: -c for k, c in table.items()}


def bracket(u, v):
    """The Lie superbracket, extended bilinearly from the basis."""
    terms = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            c12 = c1 * c2
            for key, c in _basis_bracket(k1, k2).items():
                terms[key] = terms.get(key, ZERO) + c12 * c
    return NSElement(terms)


def jacobi_defect(u, v, w, inner=bracket):
    """The super-Jacobi sum; zero exactly when the identity holds.  The
    inner brackets [u, v], [v, w], [w, u] come from inner(x, y): a table
    lookup for a caller that meets each pair in many triples."""
    pu, pv, pw = u.parity(), v.parity(), w.parity()
    if None in (pu, pv, pw):
        raise ValueError("Jacobi check needs parity-homogeneous elements")
    total = NSElement()
    for x, y, z, both_odd in ((u, v, w, pu * pw), (v, w, u, pv * pu),
                              (w, u, v, pw * pv)):
        term = bracket(inner(x, y), z)
        total = total - term if both_odd else total + term
    return total


def band_symbols(band):
    """All basis symbols with indices in [-band, band], plus the center."""
    keys = [CENTRAL]
    for m in range(-band, band + 1):
        keys.append(L(m))
        keys.append(J(m))
    r2 = -2 * band + 1
    while r2 <= 2 * band - 1:
        keys.append(Gp(r2))
        keys.append(Gm(r2))
        r2 += 2
    return keys


def graded_pairs(elements, violations):
    """(i, j) for i <= j over parity-homogeneous elements, yielded once
    graded antisymmetry, [k2, k1] = -(-1)^{|k1||k2|} [k1, k2], is checked on
    each unordered pair of symbols in their support; a pair breaking it goes
    to violations as ("graded antisymmetry", (k1, k2), defect).  Where it
    holds, [e_j, e_i] follows from [e_i, e_j] by bilinearity."""
    keys = list(dict.fromkeys(k for e in elements for k in e.terms))
    for a, k1 in enumerate(keys):
        for k2 in keys[a:]:
            sign = (-1) ** (key_parity(k1) * key_parity(k2))
            defect = NSElement(_basis_bracket(k2, k1)) + NSElement(
                _basis_bracket(k1, k2)).scale(sign)
            if defect:
                violations.append(("graded antisymmetry", (k1, k2), defect))
    for i in range(len(elements)):
        for j in range(i, len(elements)):
            yield i, j


def jacobi_check(band):
    """Verify super-Jacobi on the band; violations as (law, keys, defect).

    A cyclic shift of (u, v, w) permutes the three terms of the sum, and
    with graded antisymmetry on the band (`graded_pairs`) a transposition
    multiplies it by -(-1)^(|u||v| + |v||w| + |w||u|), so only the
    multisets k1 <= k2 <= k3 of the band are evaluated."""
    keys = band_symbols(band)
    elements = [NSElement.basis(k) for k in keys]
    table = {(id(x), id(y)): bracket(x, y) for x in elements for y in elements}

    def inner(x, y):
        return table[id(x), id(y)]

    violations = []
    for i, j in graded_pairs(elements, violations):
        for k in range(j, len(keys)):
            defect = jacobi_defect(elements[i], elements[j], elements[k],
                                   inner)
            if defect:
                violations.append(("super-Jacobi identity",
                                   (keys[i], keys[j], keys[k]), defect))
    return violations


# ---------------------------------------------------------------------------
# the superderivation representation
# ---------------------------------------------------------------------------

PHI_PLUS = THETA_PLUS
PHI_MINUS = THETA_MINUS


class DerivationField:
    """A superderivation c_x d/dx + c_+ d/dphi+ + c_- d/dphi-.

    The coefficients are Laurent superpolynomials in (x, phi+, phi-); the
    action on arbitrary superpolynomials is the super-Leibniz extension of
    the action on the three generators, with coefficients multiplying from
    the left.
    """

    __slots__ = ("parity", "c_x", "c_plus", "c_minus")

    def __init__(self, parity, c_x, c_plus, c_minus):
        self.parity = parity
        self.c_x = c_x
        self.c_plus = c_plus
        self.c_minus = c_minus

    @classmethod
    def zero(cls, parity=0, L=0):
        z = SuperPolynomial.zero(L)
        return cls(parity, z, z, z)

    def coefficients(self):
        return (self.c_x, self.c_plus, self.c_minus)

    def is_zero(self):
        return all(c.is_zero() for c in self.coefficients())

    def __eq__(self, other):
        if not isinstance(other, DerivationField):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __add__(self, other):
        return DerivationField(self.parity, *(
            a + b for a, b in zip(self.coefficients(), other.coefficients())))

    def scale(self, value):
        return DerivationField(self.parity, *(
            c.scale_left(value) for c in self.coefficients()))

    def apply(self, F):
        """Apply the derivation to a superpolynomial."""
        out = self.c_x * F.diff_z()
        out = out + self.c_plus * F.diff_theta(PHI_PLUS)
        out = out + self.c_minus * F.diff_theta(PHI_MINUS)
        return out

    def bracket(self, other):
        """[X, Y] = XY - (-1)^{parity product} YX, again a derivation."""
        sign = (-1) ** (self.parity * other.parity)
        L_ = self.c_x.L
        gens = (
            SuperPolynomial.z_power(L_, 1),
            SuperPolynomial.theta(L_, PHI_PLUS),
            SuperPolynomial.theta(L_, PHI_MINUS),
        )
        coeffs = []
        for g in gens:
            term = self.apply(other.apply(g))
            swap = other.apply(self.apply(g))
            coeffs.append(term - swap if sign > 0 else term + swap)
        return DerivationField((self.parity + other.parity) % 2, *coeffs)

    def __repr__(self):
        return (f"DerivationField(d/dx: {self.c_x}, d/dphi+: {self.c_plus}, "
                f"d/dphi-: {self.c_minus})")


def representation(key):
    """The superderivation representing a basis symbol (central -> 0)."""
    def poly(entries):
        return SuperPolynomial(0, entries)  # zero coefficients drop out

    zero = poly({})
    if key == CENTRAL:
        return DerivationField(0, zero, zero, zero)
    if key[0] == "L":
        n = key[1]
        half = ratio(n + 1, 2)
        return DerivationField(0, poly({(n + 1, 0): grat(-1)}),
                               poly({(n, 1 << PHI_PLUS): -half}),
                               poly({(n, 1 << PHI_MINUS): -half}))
    if key[0] == "J":
        n = key[1]
        return DerivationField(0, zero, poly({(n, 1 << PHI_PLUS): grat(-1)}),
                               poly({(n, 1 << PHI_MINUS): grat(1)}))
    _, sign, r2 = key
    n = (r2 + 1) // 2
    # d/dphi+- carries G+-'s own part, d/dx the opposite phi
    own = poly({(n, 0): grat(-1),
                (n - 1, (1 << PHI_PLUS) | (1 << PHI_MINUS)): grat(-sign * n)})
    other = poly({(n, 1 << (PHI_MINUS if sign > 0 else PHI_PLUS)): grat(1)})
    return DerivationField(1, other,
                           *((own, zero) if sign > 0 else (zero, own)))


def represent(element):
    """Linear extension of the representation; the center acts by zero."""
    parities = {key_parity(k) for k in element.terms if k != CENTRAL}
    parity = parities.pop() if len(parities) == 1 else 0
    out = DerivationField.zero(parity)
    for key, coeff in element.terms.items():
        out = out + representation(key).scale(coeff)
    return out


def representation_defect(u, v):
    """rep([u,v]), where the center acts by zero, minus [rep u, rep v]."""
    expected = represent(bracket(u, v))
    got = represent(u).bracket(represent(v))
    return tuple(e - g for e, g in zip(expected.coefficients(),
                                       got.coefficients()))


def representation_check(band):
    """Verify the central-charge-zero representation on the band pairs,
    each unordered pair once: with graded antisymmetry (`graded_pairs`) and
    `DerivationField.bracket`'s formula both sides of a swapped pair take
    the sign -(-1)^(|u||v|).  Violations as (law, keys, defect)."""
    keys = band_symbols(band)
    elements = [NSElement.basis(k) for k in keys]
    violations = []
    for i, j in graded_pairs(elements, violations):
        defect = representation_defect(elements[i], elements[j])
        if any(not piece.is_zero() for piece in defect):
            violations.append(("central-charge-zero representation",
                               (keys[i], keys[j]), defect))
    return violations


# ---------------------------------------------------------------------------
# the subalgebras of infinitesimal sphere automorphisms
# ---------------------------------------------------------------------------


def swap(element):
    """The automorphism J(m) -> -J(m), G+-(r) -> G-+(r), fixing L(m) and d.

    It conjugates the representation by the coordinate swap
    (x, phi+, phi-) -> (x, phi-, phi+), which carries the twist-n sphere to
    twist -n (`spheres.sides`).
    """
    terms = {}
    for key, c in element.terms.items():
        if key[0] == "J":
            c = -c
        elif key[0] == "G":
            key = ("G", -key[1], key[2])
        terms[key] = c
    return NSElement(terms)


def subalgebra_basis(n):
    """Basis of the infinitesimal automorphisms of the twist-n sphere.

    Always four even elements; the odd elements are the four G's nearest
    zero for |n| <= 1 and the single-sign tower G_{-1/2} ... G_{|n|+1/2}
    for |n| >= 2.  For n < 0 the basis is the swap image of the twist -n
    basis, element by element.
    """
    if n < 0:
        return [swap(e) for e in subalgebra_basis(-n)]
    half_n = ratio(n, 2)
    even = [
        NSElement.basis(L(-1)),
        NSElement.basis(L(0)) - NSElement.basis(J(0)).scale(half_n),
        NSElement.basis(L(1)) - NSElement.basis(J(1)).scale(n),
        NSElement.basis(J(0)),
    ]
    if n == 0:
        odd_keys = [Gp(-1), Gp(1), Gm(-1), Gm(1)]
    elif n == 1:
        odd_keys = [Gp(-1), Gm(-1), Gm(1), Gm(3)]
    else:
        odd_keys = [Gm(2 * k - 1) for k in range(0, n + 2)]
    return even + [NSElement.basis(k) for k in odd_keys]


def subalgebra_dimensions(n):
    """(even, odd) dimensions of the twist-n subalgebra."""
    return 4, (4 if abs(n) <= 2 else abs(n) + 2)


class Span:
    """The span of a list of NSElements, eliminated once for many targets.

    [B | I], B the key-by-basis coefficient matrix, is reduced once to
    [R | E]; `coordinates(t)` is then one sparse product E t.
    """

    __slots__ = ("basis", "size", "rank", "pivots", "_columns")

    def __init__(self, basis):
        keys = sorted({k for e in basis for k in e.terms}, key=key_str)
        size = len(basis)
        rows = [[e.terms.get(k, ZERO) for e in basis]
                + [ONE if j == i else ZERO for j in range(len(keys))]
                for i, k in enumerate(keys)]
        self.basis = tuple(basis)
        self.size = size
        self.pivots = gauss_jordan(rows, size)
        self.rank = len(self.pivots)
        self._columns = {k: [row[size + j] for row in rows]
                         for j, k in enumerate(keys)}

    def coordinates(self, target):
        """Exact coordinates of target (zero off the pivots), or None."""
        coords = [ZERO] * self.size
        if not target.terms:
            return coords
        columns = []
        for key in target.terms:
            column = self._columns.get(key)
            if column is None:
                return None
            columns.append(column)
        values = list(target.terms.values())
        image = [dot(row, values) for row in zip(*columns)]
        if any(image[self.rank:]):
            return None
        for c, x in zip(self.pivots, image):
            coords[c] = x
        return coords


def pair_brackets(span, flag):
    """(skew, items): the `graded_pairs` violations of span's basis (eliminated
    once, when `span` was built), and the items flag(i, j, [b_i, b_j], its
    coordinates or None) that are not None, in ordered pair order.  A mirror
    (j, i), j > i, is bracketed only when (i, j) gives an item: a flag that
    respects the antisymmetry sign gives the mirror an item exactly then."""
    skew, items = [], {}
    for i, j in graded_pairs(span.basis, skew):
        for a, b in ((i, j), (j, i))[:2 - (i == j)]:
            product = bracket(span.basis[a], span.basis[b])
            item = flag(a, b, product, span.coordinates(product))
            if item is None:
                break
            items[a, b] = item
    return skew, [items[pair] for pair in sorted(items)]


def closure_violations(span):
    """(skew, bad): the `graded_pairs` violations of span's basis, and
    (i, j, reason) for each bracket pair that leaves the span or carries a
    central term."""
    return pair_brackets(span, lambda i, j, product, coords: (
        (i, j, "central term") if product.central_coefficient()
        else (i, j, "outside span") if coords is None else None))


@lru_cache(maxsize=None)
def tower_weights(n):
    """How the four even basis elements act on the odd tower, |n| >= 2.

    Entry i is (shift, weights): the i-th element of `subalgebra_basis(n)`
    sends the k-th tower element e_k to weights[k] e_{k+shift}, for
    k = 0 .. |n|+1.  With e_k = G-_{k-1/2} (G+ and the swapped basis for
    n <= -2):
        L(-1)            -> -k e_{k-1}
        L(0) - n/2 J(0)  -> (-k + (|n|+1)/2) e_k
        L(1) - n J(1)    -> (-k + |n| + 1) e_{k+1}
        +-J(0)           -> -e_k
    """
    if abs(n) < 2:
        raise ValueError("the odd tower exists for |n| >= 2")
    ks = range(abs(n) + 2)
    return (
        (-1, tuple(grat(-k) for k in ks)),
        (0, tuple(ratio(-2 * k + abs(n) + 1, 2) for k in ks)),
        (1, tuple(grat(-k + abs(n) + 1) for k in ks)),
        (0, (grat(-1),) * len(ks)),
    )


def sigma_action_violations(n):
    """(index, k, got, want) for each bracket of an even basis element with
    the k-th tower element that disagrees with `tower_weights(n)`."""
    table = tower_weights(n)
    basis = subalgebra_basis(n)
    tower = basis[4:]
    bad = []
    for k, g in enumerate(tower):
        for idx, (u, (shift, weights)) in enumerate(zip(basis, table)):
            j = k + shift
            want = (tower[j].scale(weights[k]) if 0 <= j < len(tower)
                    else NSElement.zero())
            got = bracket(u, g)
            if got != want:
                bad.append((idx, k, got, want))
    return bad


# ---------------------------------------------------------------------------
# exponential flows
# ---------------------------------------------------------------------------


class FlowSeries:
    """exp(-t X) applied to (x, phi+, phi-), as Taylor rows in t.

    rows[k] is the coordinate triple multiplying t**k (t written on the
    left).  For an odd generator the series breaks off after the linear
    row; for even generators it is truncated at the requested order.
    """

    __slots__ = ("parity", "rows")

    def __init__(self, parity, rows):
        self.parity = parity
        self.rows = rows

    def evaluate(self, value):
        """Substitute a supernumber parameter; exact when it is nilpotent."""
        if value.parity() != self.parity and value:
            raise ValueError("parameter parity must match the generator")
        L_ = value.L
        power = Supernumber.one(L_)
        out = None
        for k, row in enumerate(self.rows):
            if k:
                power = power * value
                if power.is_zero():
                    break
            triple = tuple(comp.extend(L_).scale_left(power) for comp in row)
            out = triple if out is None else tuple(
                a + b for a, b in zip(out, triple)
            )
        return out


def flow(element, order=8):
    """The exponential flow of an infinitesimal transformation."""
    X = represent(element)
    L_ = X.c_x.L
    coords = (
        SuperPolynomial.z_power(L_, 1),
        SuperPolynomial.theta(L_, PHI_PLUS),
        SuperPolynomial.theta(L_, PHI_MINUS),
    )
    rows = [coords]
    if X.parity == 1:
        rows.append(tuple(-X.apply(g) for g in coords))
        return FlowSeries(1, rows)
    current = coords
    factor = ONE
    for k in range(1, order + 1):
        current = tuple(X.apply(g) for g in current)
        factor = factor * ratio(-1, k)
        rows.append(tuple(g.scale_left(factor) for g in current))
    return FlowSeries(0, rows)


def exp_coefficient_series(rate, order):
    """[rate**k / k!] for comparing flows against exponentials."""
    rate = grat(rate)
    out = [ONE]
    acc = ONE
    for k in range(1, order + 1):
        acc = acc * rate * ratio(1, k)
        out.append(acc)
    return out
