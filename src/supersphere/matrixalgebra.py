"""Block matrix Lie superalgebras and verified isomorphism tables.

gl(2|2) matrices are graded by 2x2 blocks: the diagonal blocks are even,
the off-diagonal blocks odd.  The superbracket of parity-homogeneous
matrices is X Y - (-1)^(parity product) Y X.

The tables in this module map bases of the infinitesimal automorphism
algebras to matrices:

* twist 0 onto osp(2|2), the matrices of the template `OSP_SHAPE`;
* twist +-1 onto gl(1) acting on p(2|2), the matrices of `P_SHAPE` with
  the gl(1) generator added on the lower diagonal block;
* twist |n| >= 2 onto (sl(2) + gl(1)) acting on an abelian odd tower,
  held as semidirect-product data.

Each shape is written once, as a template of signed symbols parsed at
import: `shape_violations` checks a matrix against it, and `_image` builds
every in-shape image from symbol values.  The sl(2) values of the three
even generators every twist shares are written once, in `_SL2_VALUES`.

The tables are data; the homomorphism property is the test.  The checker
compares the image of every basis bracket against the bracket of images
and itemizes disagreements instead of adjusting any matrix.

Each entry of a computed matrix or vector is one `scalars.dot`, reduced
once: entry (i, j) of X Y -+ Y X dots row i of X, then of -+Y, with
column j of Y, then of X; entry k of sum(c M) dots the coordinates with
entry k of the images.
"""

from __future__ import annotations

from .scalars import HALF, ONE, ZERO, dot, gauss_jordan, grat
from . import nsalgebra as ns
from .nsalgebra import Span


class ParityError(ValueError):
    """A graded matrix operation received a non-homogeneous operand."""


class Matrix:
    """A square matrix over Q(i), with block grading when the size is 4."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(grat(x) for x in row) for row in rows)
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("matrix must be square")
        self.rows = rows

    @classmethod
    def _make(cls, rows):
        # internal: rows is already a square tuple of GaussianRational tuples
        out = object.__new__(cls)
        out.rows = rows
        return out

    @classmethod
    def zero(cls, size):
        return cls._make(((ZERO,) * size,) * size)

    @property
    def size(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        return Matrix._make(tuple(tuple(x + y for x, y in zip(r1, r2))
                                  for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self):
        return Matrix._make(tuple(tuple(-x for x in row) for row in self.rows))

    def scale(self, value):
        value = grat(value)
        return Matrix._make(tuple(
            tuple(value * x for x in row) for row in self.rows))

    def __mul__(self, other):
        cols = tuple(zip(*other.rows))
        return Matrix._make(tuple(
            tuple(dot(row, col) for col in cols) for row in self.rows))

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def flatten(self):
        return tuple(x for row in self.rows for x in row)

    def commutator(self, other):
        return self._bracket(other, -1)

    def _bracket(self, other, sign):
        """X Y + sign Y X, each entry one `dot` over both products."""
        ys = other.rows if sign > 0 else (-other).rows
        cols = tuple(a + b for a, b in zip(zip(*other.rows), zip(*self.rows)))
        return Matrix._make(tuple(
            tuple(dot(left, col) for col in cols)
            for left in (x + y for x, y in zip(self.rows, ys))))

    # -- 4x4 block grading --------------------------------------------------

    def block_parity(self):
        """0 for diagonal-block support, 1 for off-diagonal, None if mixed."""
        if self.size != 4:
            raise ValueError("block grading is defined for 4x4 matrices")
        half = 2
        even = odd = False
        for i in range(4):
            for j in range(4):
                if self.rows[i][j]:
                    if (i < half) == (j < half):
                        even = True
                    else:
                        odd = True
        if even and odd:
            return None
        return 1 if odd else 0

    def superbracket(self, other, parities=None):
        """[self, other]; parities, if given, are the two block parities,
        found once by a caller that brackets the same matrices often."""
        p1, p2 = parities or (self.block_parity(), other.block_parity())
        if p1 is None or p2 is None:
            raise ParityError("superbracket needs parity-homogeneous matrices")
        return self._bracket(other, -1 if (p1 * p2) % 2 == 0 else 1)

    def supertrace(self):
        if self.size != 4:
            raise ValueError("supertrace is defined for the 4x4 block form")
        r = self.rows
        return r[0][0] + r[1][1] - r[2][2] - r[3][3]

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.rows
        )
        return f"Matrix([{body}])"


def _template(*rows):
    """A matrix shape, one string of signed symbols per row: entry (i, j)
    is (sign, symbol), and the symbol 0 marks an entry that vanishes."""
    return tuple(tuple((-1, entry[1:]) if entry.startswith("-") else (1, entry)
                       for entry in row.split())
                 for row in rows)


OSP_SHAPE = _template(" a  b  s  q",
                      " c -a -r -p",
                      " p  q  d  0",
                      " r  s  0 -d")
P_SHAPE = _template(" a  b  p  q",
                    " c -a  q  r",
                    " 0  s -a -c",
                    "-s  0 -b  a")
_SL2_SHAPE = _template(" a  b",
                       " c -a")
# the sl(2) values of the first three basis elements of every twist:
# L(-1), L(0) - (n/2) J(0) and L(1) - n J(1)
_SL2_VALUES = ({"b": 1}, {"a": HALF}, {"c": -1})


def shape_violations(m, shape):
    """The entries of m that break the shape, each naming its symbol.

    The first entry of each symbol fixes the symbol's value; each later
    entry of it, and each 0 entry, is one constraint.
    """
    values = {"0": ZERO}
    out = []
    # both are square, so the rows decide the size
    for i, (row, symbols) in enumerate(zip(m.rows, shape, strict=True)):
        for j, (x, (sign, symbol)) in enumerate(zip(row, symbols)):
            value = x if sign > 0 else -x
            if values.setdefault(symbol, value) != value:
                signed = "-" + symbol if sign < 0 else symbol
                out.append(f"entry ({i},{j}) is not {signed}")
    return out


def _image(shape, values):
    """The matrix of the shape whose symbols take the given values, the
    other symbols 0."""
    return Matrix._make(tuple(
        tuple(grat(sign * values[symbol]) if symbol in values else ZERO
              for sign, symbol in row)
        for row in shape))


def osp_table():
    """The twist-0 basis mapped into osp(2|2): the sl(2) triple, then
    J(0) and the four odd generators, each image one symbol."""
    return list(zip(ns.subalgebra_basis(0), [
        _image(OSP_SHAPE, values) for values in (
            *_SL2_VALUES, {"d": 1}, {"q": 1}, {"p": 1}, {"s": 1}, {"r": 1})
    ], strict=True))


def p_table(sign):
    """The twist +1 or -1 basis mapped into gl(1) + p(2|2).

    One image list serves both signs: the twist -1 basis is the swap image
    of the twist +1 basis, and the swap is an automorphism.
    """
    if sign not in (1, -1):
        raise ValueError("sign selects the twist +1 or -1 table")
    in_shape = [_image(P_SHAPE, values) for values in (
        *_SL2_VALUES, {"s": 1}, {"p": 2}, {"q": -1}, {"r": 2})]
    # J(0) is the gl(1) generator, outside the p(2|2) shape
    charge = Matrix([[0, 0, 0, 0], [0, 0, 0, 0],
                     [0, 0, 1, 0], [0, 0, 0, 1]])
    return list(zip(ns.subalgebra_basis(sign),
                    in_shape[:3] + [charge] + in_shape[3:], strict=True))


def verify_table(pairs):
    """Check a basis-to-matrix table for the homomorphism property.

    Returns a report dict: bracket mismatches are itemized as
    {pair, expected, got} (`_homomorphism_mismatches`, which eliminates the
    basis once per call); images must also be linearly independent.
    """
    sources = [e for e, _ in pairs]
    images = [m for _, m in pairs]
    flat = [list(m.flatten()) for m in images]
    parity = [m.block_parity() for m in images]
    return {
        "mismatches": _homomorphism_mismatches(
            sources, images, _combine_matrices, lambda i, j:
            images[i].superbracket(images[j], (parity[i], parity[j]))),
        "injective": len(gauss_jordan(flat, len(flat[0]))) == len(flat),
        "size": len(pairs),
    }


def _homomorphism_mismatches(basis, images, combine, image_bracket):
    """{pair, expected, got} for each basis bracket that the images break.

    A bracket must have no central term and lie in the span of the basis,
    which is eliminated once per call (`Span`), not once per pair; its
    image, combine(images, coordinates), must equal image_bracket(i, j),
    the bracket of images i and j.  Both sides are graded antisymmetric
    (images keep their sources' parities), so a pair j > i is bracketed
    only when (i, j) mismatches (`ns.pair_brackets`); a symbol pair that
    breaks the source's antisymmetry leads, expecting "graded antisymmetry".
    """
    def mismatch(i, j, target, coords):
        if target.central_coefficient():
            expected, got = "no central term", repr(target)
        elif coords is None:
            expected, got = "bracket inside the span", repr(target)
        else:
            want, have = combine(images, coords), image_bracket(i, j)
            if want == have:
                return None
            expected, got = repr(want), repr(have)
        return {"pair": (i, j), "expected": expected, "got": got}

    skew, mismatches = ns.pair_brackets(Span(basis), mismatch)
    return [{"pair": (ns.key_str(k1), ns.key_str(k2)), "expected": law,
             "got": repr(defect)}
            for law, (k1, k2), defect in skew] + mismatches


def _combine_matrices(images, coords):
    """sum(c M) over the nonzero coordinates, each entry one `dot`."""
    size = images[0].size
    used = [(c, m.rows) for c, m in zip(coords, images) if c]
    cs = [c for c, _ in used]
    return Matrix._make(tuple(
        tuple(dot(cs, [m[i][j] for _, m in used]) for j in range(size))
        for i in range(size)))


# ---------------------------------------------------------------------------
# the semidirect data for |n| >= 2
# ---------------------------------------------------------------------------


class SemidirectElement:
    """(sl2 part, gl1 part, odd tower coefficient vector)."""

    __slots__ = ("mat", "gl1", "vector")

    def __init__(self, mat, gl1, vector):
        self.mat = mat
        self.gl1 = grat(gl1)
        self.vector = tuple(grat(x) for x in vector)

    def __eq__(self, other):
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return (self.mat, self.gl1, self.vector) == \
            (other.mat, other.gl1, other.vector)

    def __repr__(self):
        return f"SemidirectElement({self.mat!r}, gl1={self.gl1}, v={self.vector})"


# the four even generators in the order of `GnSemidirect.sigma`: the sl(2)
# triple, then the gl(1) charge
_ACTING_IMAGES = tuple((_image(_SL2_SHAPE, values), ZERO)
                       for values in _SL2_VALUES) + ((Matrix.zero(2), ONE),)

# where `GnSemidirect._acting_entries` reads the sl(2) part: the entry
# (i, j) of each image's one symbol, and w, one over the image there, which
# turns the entry of a combination of the images into its coordinate
_SL2_READS = tuple(
    next((i, j, x.inverse()) for i, row in enumerate(m.rows)
         for j, x in enumerate(row) if x)
    for m, _ in _ACTING_IMAGES[:3])
_ACTING_WEIGHTS = tuple(w for _, _, w in _SL2_READS) + (ONE,)


class GnSemidirect:
    """(sl2 + gl1) acting on the abelian odd tower of the twist-n algebra.

    The four even basis elements act on the tower coefficients (indexed
    by k = 0 .. |n|+1) by the table `ns.tower_weights(n)`.
    """

    __slots__ = ("n", "rank")

    def __init__(self, n):
        if abs(n) < 2:
            raise ValueError("semidirect data exists for |n| >= 2")
        self.n = n
        self.rank = abs(n) + 2

    def sigma(self, index, vector):
        """Apply the action of the index-th even generator to a vector."""
        if index not in range(4):
            raise IndexError("four even generators")
        shift, weights = ns.tower_weights(self.n)[index]
        out = [ZERO] * self.rank
        for k, (c, w) in enumerate(zip(vector, weights, strict=True)):
            if c and 0 <= k + shift < self.rank:
                out[k + shift] = c * w
        return tuple(out)

    def basis_images(self):
        """Images of the full twist-n basis as semidirect elements."""
        zero_vec = (ZERO,) * self.rank
        out = [SemidirectElement(m, s, zero_vec) for m, s in _ACTING_IMAGES]
        for k in range(self.rank):
            vec = [ZERO] * self.rank
            vec[k] = ONE
            out.append(SemidirectElement(Matrix.zero(2), ZERO, vec))
        return out

    def bracket(self, x, y):
        """[u + v, u' + v'] = [u, u'] + sigma_u(v') - sigma_{u'}(v).

        The odd-odd part vanishes: the tower is abelian.  The sign in
        front of sigma_{u'}(v) is plain because the acting part is even.
        """
        cs, moved = [], []
        for idx, (w, ex, ey) in enumerate(zip(_ACTING_WEIGHTS,
                                              self._acting_entries(x),
                                              self._acting_entries(y))):
            if ex:
                cs.append(ex * w)
                moved.append(self.sigma(idx, y.vector))
            if ey:
                cs.append(-ey * w)
                moved.append(self.sigma(idx, x.vector))
        return SemidirectElement(
            x.mat.commutator(y.mat), ZERO,
            [dot(cs, [v[k] for v in moved]) for k in range(self.rank)])

    def _acting_entries(self, x):
        """The entries of x's even part that, times `_ACTING_WEIGHTS`, are
        its coordinates along the four acting generators; a zero entry is
        never weighed."""
        m = x.mat.rows
        return [m[i][j] for i, j, _ in _SL2_READS] + [x.gl1]

    def verify(self):
        """Homomorphism check of the semidirect data against the algebra;
        the twist-n basis is eliminated once per call."""
        basis = ns.subalgebra_basis(self.n)
        images = self.basis_images()
        return {"mismatches": _homomorphism_mismatches(
            basis, images, _combine,
            lambda i, j: self.bracket(images[i], images[j])),
            "size": len(basis)}


def _combine(images, coords):
    """sum(c image) over the nonzero coordinates, each entry one `dot`."""
    used = [(c, img) for c, img in zip(coords, images) if c]
    cs = [c for c, _ in used]
    return SemidirectElement(
        _combine_matrices([img.mat for img in images], coords),
        dot(cs, [img.gl1 for _, img in used]),
        [dot(cs, [img.vector[k] for _, img in used])
         for k in range(len(images[0].vector))])
