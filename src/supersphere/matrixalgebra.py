"""Block matrix Lie superalgebras and verified isomorphism tables.

gl(2|2) matrices are graded by 2x2 blocks: the diagonal blocks are even,
the off-diagonal blocks odd.  The superbracket of parity-homogeneous
matrices is X Y - (-1)^(parity product) Y X.

The tables in this module map bases of the infinitesimal automorphism
algebras to matrices:

* twist 0 onto osp(2|2), matrices of the shape
      [[a, b, s, q], [c, -a, -r, -p], [p, q, d, 0], [r, s, 0, -d]];
* twist +-1 onto gl(1) acting on p(2|2), matrices of the shape
      [[a, b, p, q], [c, -a, q, r], [0, s, -a, -c], [-s, 0, -b, a]]
  with the gl(1) generator added on the lower diagonal block;
* twist |n| >= 2 onto (sl(2) + gl(1)) acting on an abelian odd tower,
  held as semidirect-product data.

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


def osp_pattern_violations(m):
    """Constraints of the osp(2|2) shape that the matrix breaks."""
    r = m.rows
    checks = [
        (r[1][1] == -r[0][0], "lower-right of sl2 block"),
        (r[3][3] == -r[2][2], "even diagonal block trace"),
        (not r[2][3], "entry (2,3)"),
        (not r[3][2], "entry (3,2)"),
        (r[0][2] == r[3][1], "s entries"),
        (r[0][3] == r[2][1], "q entries"),
        (r[1][2] == -r[3][0], "r entries"),
        (r[1][3] == -r[2][0], "p entries"),
    ]
    return [label for ok, label in checks if not ok]


def p_pattern_violations(m):
    """Constraints of the p(2|2) shape that the matrix breaks."""
    r = m.rows
    checks = [
        (r[1][1] == -r[0][0], "upper even block is traceless"),
        (r[2][2] == -r[0][0], "lower block repeats -a"),
        (r[3][3] == r[0][0], "lower block repeats a"),
        (r[2][3] == -r[1][0], "-c entry"),
        (r[3][2] == -r[0][1], "-b entry"),
        (not r[2][0], "entry (2,0)"),
        (not r[3][1], "entry (3,1)"),
        (r[3][0] == -r[2][1], "s antisymmetry"),
        (r[0][3] == r[1][2], "q symmetry"),
    ]
    return [label for ok, label in checks if not ok]


def _sl2_into_osp(a, b, c):
    return Matrix([
        [a, b, 0, 0],
        [c, -a, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])


def _sl2_into_p(a, b, c):
    return Matrix([
        [a, b, 0, 0],
        [c, -a, 0, 0],
        [0, 0, -a, -c],
        [0, 0, -b, a],
    ])


def osp_table():
    """The twist-0 basis mapped into osp(2|2)."""
    return list(zip(ns.subalgebra_basis(0), [
        _sl2_into_osp(0, 1, 0),
        _sl2_into_osp(HALF, 0, 0),
        _sl2_into_osp(0, 0, -1),
        Matrix([[0, 0, 0, 0], [0, 0, 0, 0],
                [0, 0, 1, 0], [0, 0, 0, -1]]),
        Matrix([[0, 0, 0, 1], [0, 0, 0, 0],
                [0, 1, 0, 0], [0, 0, 0, 0]]),
        Matrix([[0, 0, 0, 0], [0, 0, 0, -1],
                [1, 0, 0, 0], [0, 0, 0, 0]]),
        Matrix([[0, 0, 1, 0], [0, 0, 0, 0],
                [0, 0, 0, 0], [0, 1, 0, 0]]),
        Matrix([[0, 0, 0, 0], [0, 0, -1, 0],
                [0, 0, 0, 0], [1, 0, 0, 0]]),
    ], strict=True))


def p_table(sign):
    """The twist +1 or -1 basis mapped into gl(1) + p(2|2).

    One image list serves both signs: the twist -1 basis is the swap image
    of the twist +1 basis, and the swap is an automorphism.
    """
    if sign not in (1, -1):
        raise ValueError("sign selects the twist +1 or -1 table")
    return list(zip(ns.subalgebra_basis(sign), [
        _sl2_into_p(0, 1, 0),
        _sl2_into_p(HALF, 0, 0),
        _sl2_into_p(0, 0, -1),
        Matrix([[0, 0, 0, 0], [0, 0, 0, 0],
                [0, 0, 1, 0], [0, 0, 0, 1]]),
        Matrix([[0, 0, 0, 0], [0, 0, 0, 0],
                [0, 1, 0, 0], [-1, 0, 0, 0]]),
        Matrix([[0, 0, 2, 0], [0, 0, 0, 0],
                [0, 0, 0, 0], [0, 0, 0, 0]]),
        Matrix([[0, 0, 0, -1], [0, 0, -1, 0],
                [0, 0, 0, 0], [0, 0, 0, 0]]),
        Matrix([[0, 0, 0, 0], [0, 0, 0, 2],
                [0, 0, 0, 0], [0, 0, 0, 0]]),
    ], strict=True))


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


# the four even generators in the order of `GnSemidirect.sigma`
_ACTING_IMAGES = (
    (Matrix([[0, 1], [0, 0]]), ZERO),
    (Matrix([[HALF, 0], [0, -HALF]]), ZERO),
    (Matrix([[0, 0], [-1, 0]]), ZERO),
    (Matrix.zero(2), ONE),
)


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
        for idx, (cx, cy) in enumerate(zip(self._acting_coordinates(x),
                                           self._acting_coordinates(y))):
            if cx:
                cs.append(cx)
                moved.append(self.sigma(idx, y.vector))
            if cy:
                cs.append(-cy)
                moved.append(self.sigma(idx, x.vector))
        return SemidirectElement(
            x.mat.commutator(y.mat), ZERO,
            [dot(cs, [v[k] for v in moved]) for k in range(self.rank)])

    def _acting_coordinates(self, x):
        """Coordinates of x's even part along the four acting generators."""
        m = x.mat.rows
        return (m[0][1], m[0][0] * 2, -m[1][0], x.gl1)

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
