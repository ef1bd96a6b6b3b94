import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from supersphere import matrixalgebra as msa
from supersphere import nsalgebra as ns
from supersphere.campaign import CampaignConfig, run_campaign
from supersphere.scalars import ZERO, GaussianRational, grat


def osp_image(key):
    for element, matrix in msa.osp_table():
        if element == ns.NSElement.basis(key):
            return matrix
    raise KeyError(key)


class TestMatrixBasics:
    def test_sl2_commutator(self):
        E = msa.Matrix([[0, 1], [0, 0]])
        F = msa.Matrix([[0, 0], [1, 0]])
        H = msa.Matrix([[1, 0], [0, -1]])
        assert E.commutator(F) == H

    def test_block_parity(self):
        even = msa.Matrix([[1, 0, 0, 0], [0, 2, 0, 0],
                           [0, 0, 3, 0], [0, 0, 0, 4]])
        odd = msa.Matrix([[0, 0, 1, 0], [0, 0, 0, 0],
                          [0, 1, 0, 0], [0, 0, 0, 0]])
        assert even.block_parity() == 0
        assert odd.block_parity() == 1
        assert (even + odd).block_parity() is None

    def test_superbracket_parity_error(self):
        mixed = msa.Matrix([[1, 0, 1, 0], [0, 0, 0, 0],
                            [0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(msa.ParityError):
            mixed.superbracket(mixed)

    def test_odd_anticommutator(self):
        # same-sign supercharges in the twist-0 table anticommute to zero
        got = osp_image(ns.Gp(-1)).superbracket(osp_image(ns.Gp(1)))
        assert got.is_zero()

    def test_supertrace_of_brackets(self):
        rng = random.Random(5)
        images = [m for _, m in msa.osp_table()]
        for _ in range(30):
            x = images[rng.randrange(len(images))]
            y = images[rng.randrange(len(images))]
            assert x.superbracket(y).supertrace() == ZERO

    def test_matrix_super_jacobi(self):
        rng = random.Random(7)
        images = [m for _, m in msa.osp_table()]
        for _ in range(25):
            x, y, z = (images[rng.randrange(len(images))] for _ in range(3))
            px, py, pz = (m.block_parity() for m in (x, y, z))
            total = x.superbracket(y).superbracket(z).scale(
                grat((-1) ** (px * pz)))
            total = total + y.superbracket(z).superbracket(x).scale(
                grat((-1) ** (py * px)))
            total = total + z.superbracket(x).superbracket(y).scale(
                grat((-1) ** (pz * py)))
            assert total.is_zero()


class TestOspTable:
    def test_charge_rotation_image(self):
        got = osp_image(ns.J(0))
        assert got == msa.Matrix([[0, 0, 0, 0], [0, 0, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, -1]])

    def test_dimensions(self):
        table = msa.osp_table()
        evens = [m for _, m in table if m.block_parity() == 0]
        odds = [m for _, m in table if m.block_parity() == 1]
        assert len(evens) == 4 and len(odds) == 4

    def test_shape(self):
        for _, matrix in msa.osp_table():
            assert msa.shape_violations(matrix, msa.OSP_SHAPE) == []

    def test_homomorphism(self):
        report = msa.verify_table(msa.osp_table())
        assert report["mismatches"] == []
        assert report["injective"]

    def test_sample_bracket_pair(self):
        # [G+_{1/2}, G-_{-1/2}] maps to the image of 2 L_0 + J_0
        got = osp_image(ns.Gp(1)).superbracket(osp_image(ns.Gm(-1)))
        expected = osp_image(ns.L(0)).scale(2) + osp_image(ns.J(0))
        assert got == expected


class TestPTables:
    def test_doubled_entry(self):
        table = msa.p_table(+1)
        by_source = {tuple(sorted(e.terms)): m for e, m in table}
        image = by_source[tuple(sorted({ns.Gm(-1): grat(1)}))]
        assert image == msa.Matrix([[0, 0, 2, 0], [0, 0, 0, 0],
                                    [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_homomorphism_both_signs(self):
        for sign in (+1, -1):
            report = msa.verify_table(msa.p_table(sign))
            assert report["mismatches"] == [], sign
            assert report["injective"]

    def test_shape_excluding_external_charge(self):
        for sign in (+1, -1):
            for idx, (_, matrix) in enumerate(msa.p_table(sign)):
                if idx == 3:  # J(0) sits outside the p-shape
                    assert msa.shape_violations(matrix, msa.P_SHAPE) != []
                else:
                    assert msa.shape_violations(matrix, msa.P_SHAPE) == []

    def test_dimensions(self):
        table = msa.p_table(+1)
        inner = [m for idx, (_, m) in enumerate(table) if idx != 3]
        evens = [m for m in inner if m.block_parity() == 0]
        odds = [m for m in inner if m.block_parity() == 1]
        assert len(evens) == 3 and len(odds) == 4


def free_symbols(shape):
    return {symbol for row in shape for _, symbol in row} - {"0"}


def test_each_shape_has_a_symbol_per_in_shape_image():
    # with injectivity, the in-shape images then span their shape
    assert len(free_symbols(msa.OSP_SHAPE)) == len(msa.osp_table()) == 8
    in_p_shape = [m for _, m in msa.p_table(+1)
                  if not msa.shape_violations(m, msa.P_SHAPE)]
    assert len(free_symbols(msa.P_SHAPE)) == len(in_p_shape) == 7


def test_shape_violations_name_the_symbol_and_entry():
    rows = [list(row) for row in osp_image(ns.L(0)).rows]
    rows[1][1], rows[2][3] = grat(1), grat(2)
    assert msa.shape_violations(msa.Matrix(rows), msa.OSP_SHAPE) == [
        "entry (1,1) is not -a", "entry (2,3) is not 0"]


def test_table_sources_are_the_twist_bases():
    assert [e for e, _ in msa.osp_table()] == ns.subalgebra_basis(0)
    for sign in (+1, -1):
        assert [e for e, _ in msa.p_table(sign)] == ns.subalgebra_basis(sign)


class TestSemidirect:
    def test_verify_all(self):
        for n in (2, 3, -2, -3):
            report = msa.GnSemidirect(n).verify()
            assert report["mismatches"] == [], n

    def test_even_part_matches_sl2(self):
        sd = msa.GnSemidirect(3)
        images = [image.mat for image in sd.basis_images()[:4]]
        assert images[1] == msa.Matrix([["1/2", 0], [0, "-1/2"]])
        assert images[0].commutator(images[2]) == \
            images[1].scale(-2)  # [E, F'] = -H with F' = -F

    def test_pure_acting_bracket(self):
        sd = msa.GnSemidirect(2)
        images = sd.basis_images()
        got = sd.bracket(images[0], images[2])
        assert got.mat == images[0].mat.commutator(images[2].mat)
        assert not any(got.vector)

    def test_charge_acts_by_minus_one(self):
        sd = msa.GnSemidirect(4)
        vec = [ZERO] * sd.rank
        vec[2] = grat(1)
        moved = sd.sigma(3, vec)
        assert moved[2] == grat(-1)

    def test_ideal_is_abelian(self):
        sd = msa.GnSemidirect(3)
        images = sd.basis_images()
        for i in range(4, len(images)):
            for j in range(4, len(images)):
                got = sd.bracket(images[i], images[j])
                assert got.mat.is_zero() and not any(got.vector)

    def test_rejects_small_twists(self):
        with pytest.raises(ValueError):
            msa.GnSemidirect(1)

    def test_sigma_checks_its_index_before_the_vector(self):
        sd = msa.GnSemidirect(2)
        for index in (7, -1):
            with pytest.raises(IndexError, match="four even generators"):
                sd.sigma(index, (ZERO,) * 4)
            with pytest.raises(IndexError, match="four even generators"):
                sd.sigma(index, (grat(1),) + (ZERO,) * 3)
        for length in (3, 5):
            with pytest.raises(ValueError):
                sd.sigma(1, (grat(1),) * length)

    def test_sigma_drops_terms_shifted_off_the_tower(self):
        sd = msa.GnSemidirect(-3)
        ones = (grat(1),) * sd.rank
        assert sd.sigma(0, ones) == tuple(grat(-k) for k in range(1, 5)) + (ZERO,)
        assert sd.sigma(2, ones) == (ZERO,) + tuple(grat(4 - k) for k in range(4))
        # index 3 is swap(J(0)) = -J(0) here, which acts by -1
        assert sd.sigma(3, ones) == tuple(-x for x in ones)


# ---------------------------------------------------------------------------
# the fused bracket and combination against entrywise references
# ---------------------------------------------------------------------------

small_scalars = st.one_of(
    st.just(ZERO),
    st.builds(grat, st.fractions(-3, 3, max_denominator=4),
              st.fractions(-3, 3, max_denominator=4)),
)


@st.composite
def graded_matrices(draw):
    """A parity-homogeneous 4x4 matrix and its parity."""
    parity = draw(st.integers(0, 1))
    rows = [[draw(small_scalars) if ((i < 2) != (j < 2)) == parity else 0
             for j in range(4)] for i in range(4)]
    return msa.Matrix(rows), parity


def square_matrices(size):
    return st.lists(st.lists(small_scalars, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(msa.Matrix)


def ref_product(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


def ref_bracket(x, y, sign):
    """X Y - sign Y X, entrywise."""
    xy, yx = ref_product(x.rows, y.rows), ref_product(y.rows, x.rows)
    return [[a - sign * b for a, b in zip(r1, r2)] for r1, r2 in zip(xy, yx)]


def assert_canonical_rows(m):
    assert type(m.rows) is tuple
    for row in m.rows:
        assert type(row) is tuple
        assert all(type(x) is GaussianRational for x in row)


@settings(max_examples=60, deadline=None)
@given(graded_matrices(), graded_matrices())
def test_superbracket_matches_entrywise_reference(xp, yp):
    (x, p1), (y, p2) = xp, yp
    got = x.superbracket(y)
    assert_canonical_rows(got)
    assert [list(r) for r in got.rows] == ref_bracket(x, y, (-1) ** (p1 * p2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(
    lambda n: st.tuples(square_matrices(n), square_matrices(n))))
def test_commutator_matches_entrywise_reference(pair):
    x, y = pair
    got = x.commutator(y)
    assert_canonical_rows(got)
    assert [list(r) for r in got.rows] == ref_bracket(x, y, 1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda n: st.lists(
    st.tuples(small_scalars, square_matrices(n)), min_size=1, max_size=8)))
def test_combine_matrices_matches_entrywise_reference(terms):
    coords = [c for c, _ in terms]
    images = [m for _, m in terms]
    got = msa._combine_matrices(images, coords)
    assert_canonical_rows(got)
    size = images[0].size
    want = [[sum((c * m.rows[i][j] for c, m in terms), ZERO)
             for j in range(size)] for i in range(size)]
    assert [list(r) for r in got.rows] == want


# ---------------------------------------------------------------------------
# graded antisymmetry of the image brackets, which lets the homomorphism
# check bracket each unordered pair once
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(graded_matrices(), graded_matrices())
def test_superbracket_is_graded_antisymmetric(xp, yp):
    (x, p1), (y, p2) = xp, yp
    assert y.superbracket(x) == x.superbracket(y).scale(-(-1) ** (p1 * p2))
    assert x.superbracket(y, (p1, p2)) == x.superbracket(y)


@st.composite
def semidirect_operands(draw):
    """A twist, and two homogeneous elements of its semidirect data: an
    even one (sl2 and gl1 parts) or an odd one (a tower vector)."""
    n = draw(st.sampled_from([2, 3, -2, -4]))
    sd = msa.GnSemidirect(n)
    items = []
    for _ in range(2):
        if draw(st.booleans()):
            a, b, c, g = (draw(small_scalars) for _ in range(4))
            items.append(msa.SemidirectElement(
                msa.Matrix([[a, b], [c, -a]]), g, (ZERO,) * sd.rank))
        else:
            vector = [draw(small_scalars) for _ in range(sd.rank)]
            items.append(msa.SemidirectElement(msa.Matrix.zero(2), ZERO, vector))
    return sd, items[0], items[1]


def negated(x):
    return msa.SemidirectElement(-x.mat, -x.gl1, [-c for c in x.vector])


@settings(max_examples=60, deadline=None)
@given(semidirect_operands())
def test_semidirect_bracket_is_graded_antisymmetric(case):
    # even-even and even-odd pairs flip sign; odd-odd brackets vanish
    sd, x, y = case
    assert sd.bracket(y, x) == negated(sd.bracket(x, y))


def ordered_mismatches(pairs):
    """`verify_table`'s mismatch list the way it ran before: every ordered
    pair of the table bracketed on both sides."""
    basis = [e for e, _ in pairs]
    images = [m for _, m in pairs]
    span = ns.Span(basis)
    out = []
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            target = ns.bracket(u, v)
            coords = span.coordinates(target)
            if target.central_coefficient():
                expected, got = "no central term", repr(target)
            elif coords is None:
                expected, got = "bracket inside the span", repr(target)
            else:
                want = msa._combine_matrices(images, coords)
                have = images[i].superbracket(images[j])
                if want == have:
                    continue
                expected, got = repr(want), repr(have)
            out.append({"pair": (i, j), "expected": expected, "got": got})
    return out


@st.composite
def table_entry_mutants(draw):
    """A table with one entry of one image changed inside its own block
    parity, so the image stays homogeneous."""
    table = draw(st.sampled_from(
        [msa.osp_table(), msa.p_table(+1), msa.p_table(-1)]))
    idx = draw(st.integers(0, len(table) - 1))
    parity = table[idx][1].block_parity()
    i, j = draw(st.sampled_from([(i, j) for i in range(4) for j in range(4)
                                 if ((i < 2) != (j < 2)) == parity]))
    return with_entry(table, idx, i, j, draw(small_scalars))


@settings(max_examples=40, deadline=None)
@given(table_entry_mutants())
def test_table_mismatches_match_the_ordered_loop(table):
    assert msa.verify_table(table)["mismatches"] == ordered_mismatches(table)


def test_tables_bracket_each_unordered_pair_once(monkeypatch):
    calls = []
    superbracket = msa.Matrix.superbracket

    def counting(x, y, parities=None):
        calls.append(parities)
        return superbracket(x, y, parities)

    monkeypatch.setattr(msa.Matrix, "superbracket", counting)
    assert msa.verify_table(msa.osp_table())["mismatches"] == []
    assert len(calls) == 8 * 9 // 2 and None not in calls


# ---------------------------------------------------------------------------
# a one-entry fault in a table is itemized, and each mismatch list is pinned
# ---------------------------------------------------------------------------


def with_entry(table, idx, i, j, value):
    """The table with entry (i, j) of its idx-th image replaced."""
    element, matrix = table[idx]
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = value
    return table[:idx] + [(element, msa.Matrix(rows))] + table[idx + 1:]


def fingerprint(mismatches):
    blob = json.dumps(mismatches, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def suite_record(cid):
    cfg = CampaignConfig(generators=4, band=1, flow_order=3,
                         n_range=(-1, 0, 1), samples=2, seed=99)
    return run_campaign(cfg, only=cid)["checks"][0]


def test_osp_entry_mutant_is_itemized(monkeypatch):
    # the G+(-1/2) image with entry (0, 3) changed from 1 to 2
    mutated = with_entry(msa.osp_table(), 4, 0, 3, 2)
    monkeypatch.setattr(msa, "osp_table", lambda: mutated)
    mismatches = msa.verify_table(msa.osp_table())["mismatches"]
    assert [m["pair"] for m in mismatches] == [
        (0, 5), (2, 4), (4, 2), (4, 5), (4, 6), (4, 7),
        (5, 0), (5, 4), (6, 4), (7, 4)]
    assert mismatches[0] == {
        "pair": (0, 5),
        "expected": "Matrix([0 0 0 -2; 0 0 0 0; 0 -1 0 0; 0 0 0 0])",
        "got": "Matrix([0 0 0 -1; 0 0 0 0; 0 -1 0 0; 0 0 0 0])"}
    assert fingerprint(mismatches) == OSP_MUTANT_SHA256
    record = suite_record("matrix.osp")
    assert record["status"] != "pass"
    assert record["discrepancies"] == mismatches


def test_p_entry_mutant_is_itemized(monkeypatch):
    # the G-(3/2) image of the twist +1 table with entry (1, 3) 2 -> 3
    mutated = with_entry(msa.p_table(+1), 7, 1, 3, 3)
    original = msa.p_table
    monkeypatch.setattr(
        msa, "p_table", lambda sign: mutated if sign > 0 else original(sign))
    mismatches = msa.verify_table(msa.p_table(+1))["mismatches"]
    assert [m["pair"] for m in mismatches] == [
        (0, 7), (2, 6), (4, 7), (6, 2), (7, 0), (7, 4)]
    assert mismatches[0] == {
        "pair": (0, 7),
        "expected": "Matrix([0 0 0 2; 0 0 2 0; 0 0 0 0; 0 0 0 0])",
        "got": "Matrix([0 0 0 3; 0 0 3 0; 0 0 0 0; 0 0 0 0])"}
    assert fingerprint(mismatches) == P_MUTANT_SHA256
    record = suite_record("matrix.p")
    assert record["status"] != "pass"
    assert record["discrepancies"] == mismatches


def test_sigma_weight_mutant_is_itemized(monkeypatch):
    # L(0) - n/2 J(0) weighs e_0 by |n| + 1 instead of (|n| + 1)/2
    original = msa.GnSemidirect.sigma

    def doubled(self, index, vector):
        out = list(original(self, index, vector))
        if index == 1:
            out[0] = out[0] * 2
        return tuple(out)

    monkeypatch.setattr(msa.GnSemidirect, "sigma", doubled)
    mismatches = msa.GnSemidirect(2).verify()["mismatches"]
    assert [m["pair"] for m in mismatches] == [(1, 4), (4, 1)]
    assert "GaussianRational(3/2, 0)" in mismatches[0]["expected"]
    assert "GaussianRational(3, 0)" in mismatches[0]["got"]
    assert fingerprint(mismatches) == SIGMA_MUTANT_SHA256
    record = suite_record("matrix.semidirect")
    assert record["status"] != "pass"
    assert [d for d in record["discrepancies"] if d["n"] == 2] == \
        [dict(m, n=2) for m in mismatches]


OSP_MUTANT_SHA256 = (
    "79b2aeaf03f78459bd05ed9ea8b0644a10203b5340925ccbb799f4b2bea6fb34")
P_MUTANT_SHA256 = (
    "2132429c1a0e6b3257df0991c1c192814d337cd0b27549b2547253c4a97e8491")
SIGMA_MUTANT_SHA256 = (
    "37d7e527df2f6e0f0bf815e408472641ed7f87877b9eadc487021a8946c11f7f")
