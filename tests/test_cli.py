import ast
import hashlib
import inspect
import json
import random

import pytest

from supersphere import campaign
from supersphere import matrixalgebra as msa
from supersphere import nsalgebra as ns
from supersphere import spheres, textio
from supersphere.campaign import (
    CampaignConfig,
    Outcome,
    UsageError,
    registry,
    report_bytes,
    run_campaign,
)
from supersphere.cli import main, parse_n_range
from supersphere.grassmann import Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import HALF
from supersphere.superconformal import SuperconformalMap


def tiny_config(**overrides):
    base = dict(generators=4, band=1, flow_order=3, n_range=(-1, 0, 1),
                samples=2, seed=99)
    base.update(overrides)
    return CampaignConfig(**base)


def test_registry_is_total_for_the_covered_theory():
    """Every claim family has at least one registered check."""
    ids = set(registry(tiny_config()))
    required_prefixes = [
        "grassmann.laws",
        "superfield.operators",
        "superconformal.closure",
        "superconformal.roundtrip",
        "spheres.transition",
        "spheres.closure.",
        "spheres.north.",
        "spheres.cover.",
        "spheres.translations.",
        "ns.jacobi",
        "ns.representation",
        "ns.subalgebras",
        "matrix.osp",
        "matrix.p",
        "matrix.semidirect",
        "flows.closed-forms",
        "flows.group",
    ]
    for prefix in required_prefixes:
        assert any(cid.startswith(prefix) for cid in ids), prefix
    # ids appear exactly once by construction of the mapping; the twist
    # ranges expand per configuration
    assert "spheres.closure.n=0" in ids
    assert len(ids) == len(set(ids))


TWISTS = tuple(range(-4, 5))
LAWS = {
    "closure": "automorphism family closed under composition with exact "
               "parameter recovery",
    "north": "northern chart agrees with the closed transformation formulas "
             "and pole constraint",
    "translations": "odd translations form an abelian group of rank |n|+2 "
                    "with polynomial conjugation",
}
DEFAULT_REGISTRY = [
    ("grassmann.laws",
     "generator relations, grading, body/soul, inversion, functorial maps"),
    ("superfield.operators",
     "odd derivations square to zero and anticommute to twice d/dz; "
     "Leibniz; evaluation and substitution laws"),
    ("superconformal.closure",
     "superconformality survives composition; derivations transform "
     "homogeneously"),
    ("superconformal.roundtrip", "the N=1 correspondence is a two-sided inverse"),
    ("spheres.transition",
     "chart transitions are superconformal with the stated N=1 image"),
    *[(f"spheres.closure.n={n}", LAWS["closure"]) for n in TWISTS],
    *[(f"spheres.north.n={n}", LAWS["north"]) for n in TWISTS],
    ("spheres.cover.even",
     "matrix action is two-to-one with kernel (-id, -id) for even twists"),
    ("spheres.cover.odd",
     "matrix action is two-to-one with kernel (-id, id) for odd twists"),
    *[(f"spheres.translations.n={n}", LAWS["translations"])
      for n in (-4, -3, -2, 2, 3, 4)],
    ("ns.jacobi", "super-Jacobi identity on the full index band"),
    ("ns.representation",
     "superderivations represent the algebra with central charge zero"),
    ("ns.subalgebras",
     "twist subalgebras close with the stated dimensions and derivation "
     "tables"),
    ("matrix.osp", "twist-0 basis maps isomorphically into osp(2|2)"),
    ("matrix.p", "twist +-1 bases map isomorphically into gl(1) + p(2|2)"),
    ("matrix.semidirect",
     "twist |n|>=2 algebras are (sl2 + gl1) acting on an abelian odd tower"),
    ("flows.closed-forms",
     "exponential flows reproduce their closed forms to the working order"),
    ("flows.group",
     "flows with nilpotent parameters specialize the sphere group action"),
]


def test_default_registry_ids_and_laws_are_pinned():
    """Each id and law string, in report order, without running a suite."""
    assert [(cid, law) for cid, (law, _) in registry(CampaignConfig()).items()] \
        == DEFAULT_REGISTRY


def test_counterexample_operands_take_their_json_forms():
    L = 6
    s = Sampler(random.Random(3), L)
    x = s.supernumber(4)
    F = s.rational_superfunction()
    m = s.superconformal_map()
    p = s.automorphism_params(2)
    h = s.n1_map()
    out = Outcome()
    out.fail("law", x=x, F=F, m=m, p=p, h=h, xs=[x, x], pair=(1, 2), n=3,
             note="s")
    out.fail("bare law")
    first, bare = out.failures
    ce = first["counterexample"]
    assert first["law"] == "law"
    assert textio.supernumber_from_json(ce["x"], L) == x
    assert textio.rsf_from_json(ce["F"], L) == F
    assert textio.map_from_json(ce["m"]) == m
    assert textio.params_from_json(ce["p"]) == p
    assert textio.map_from_json(ce["h"]) == h
    assert ce["xs"] == [textio.supernumber_to_json(x)] * 2
    assert ce["pair"] == (1, 2) and ce["n"] == 3 and ce["note"] == "s"
    json.dumps(ce)
    assert bare == {"law": "bare law", "counterexample": None}
    out.note_discrepancy(component="f", p=p)
    assert out.discrepancies == [{"component": "f",
                                  "p": textio.params_to_json(p)}]


def test_check_returns_the_verdict_and_records_a_failing_law_part():
    L = 6
    s = Sampler(random.Random(3), L)
    x = s.supernumber(4)
    alpha = s.matrix_group_element()
    out = Outcome()
    assert out.check("holds", lambda: x, x=x) is x
    assert out.failures == []
    assert out.check("false", lambda: 0, x=x, alpha=alpha) == 0

    def rejects():
        raise spheres.NotInFamily("off the family")

    assert out.check("raises", rejects, alpha=alpha) is None
    with pytest.raises(ValueError):
        out.check("other", lambda: int("x"), x=x)
    false, raised = out.failures
    assert false["law"] == "false" and raised["law"] == "raises"
    assert textio.supernumber_from_json(false["counterexample"]["x"], L) == x
    assert false["counterexample"]["alpha"] == raised["counterexample"]["alpha"]
    assert raised["counterexample"]["error"] == "off the family"
    assert {k: textio.supernumber_from_json(v, L) for k, v in
            raised["counterexample"]["alpha"].items()} == \
        {k: getattr(alpha, k) for k in ("a", "b", "c", "d", "eps")}
    json.dumps(out.failures)


def probe(error):
    """A stand-in for a package function that raises error("probe")."""
    def raising(*args):
        raise error("probe")
    return raising


def transition_inverse_laws(span):
    """The law parts of spheres.transition that call transition_inverse."""
    laws = []
    for n in span:
        laws.append(f"transition inverse n={n}")
        if n in (span[0], 0, span[-1]):
            laws.append(f"generic inversion of transition n={n}")
    return laws


PROBED_LAW_PARTS = [
    ("spheres.transition", "transition_inverse",
     transition_inverse_laws(range(-6, 7))),
    ("superconformal.roundtrip", "to_n1",
     ["N=1 -> N=2 -> N=1 roundtrip", "N=2 -> N=1 -> N=2 roundtrip"] * 2
     + ["shifted-origin example roundtrip"]),
    ("flows.group", "group_action",
     [f"{label} flow vs action, twist {n}" for n in (-2, -1, 0, 1, 2)
      for label in ("translation", "diagonal", "charge", "special")]),
]


@pytest.mark.parametrize("error", campaign._LAW_ERRORS)
@pytest.mark.parametrize("cid, name, laws", PROBED_LAW_PARTS,
                         ids=[cid for cid, _, _ in PROBED_LAW_PARTS])
def test_a_package_verdict_fails_the_law_part_that_raises_it(
        cid, name, laws, error, monkeypatch):
    """Each law part that calls the probed function fails with the message
    as its `error` operand, and the suite ends in fail, not in error."""
    monkeypatch.setattr(campaign, name, probe(error))
    record = run_campaign(tiny_config(), only=cid)["checks"][0]
    assert record["status"] == "fail"
    assert [f["law"] for f in record["failures"]] == laws
    assert all(f["counterexample"]["error"] == "probe"
               for f in record["failures"])


@pytest.mark.parametrize("cid, name, laws", PROBED_LAW_PARTS,
                         ids=[cid for cid, _, _ in PROBED_LAW_PARTS])
def test_any_other_exception_in_a_law_part_ends_the_suite_in_error(
        cid, name, laws, monkeypatch):
    monkeypatch.setattr(campaign, name, probe(ValueError))
    record = run_campaign(tiny_config(), only=cid)["checks"][0]
    assert record["status"] == "error"
    assert record["error"] == {"type": "ValueError", "message": "probe"}


def truncated_invsqrt(x):
    """(1 + s)^(-1/2) cut to 1 - s/2: wrong exactly when s^2 != 0."""
    one = x.one(x.L)
    return one - (x - one).scale(HALF)


# the truncation only shows on a draw whose determinant soul squares to
# nonzero, so each suite runs at a seed where one of its first two draws does
DRAW_PROBES = [
    ("spheres.closure.n=2", 2, "determinant a d - b c must be exactly one", 0),
    ("spheres.north.n=0", 2, "determinant a d - b c must be exactly one", 0),
    ("spheres.translations.n=-2", 6, "matrix part must have determinant one",
     1),
]


@pytest.mark.parametrize("cid, seed, message, sample", DRAW_PROBES,
                         ids=[cid for cid, *_ in DRAW_PROBES])
def test_a_rejected_draw_fails_its_law_part(cid, seed, message, sample,
                                            monkeypatch):
    """Every sampled draw of a sphere suite runs inside a law part, so a
    defect that makes the package reject its own draws fails that part,
    with the sample index to replay it, and the suite ends in fail."""
    monkeypatch.setattr(spheres, "invsqrt_one_plus_soul", truncated_invsqrt)
    cfg = CampaignConfig(generators=6, band=1, flow_order=2,
                         n_range=(-2, 0, 2), samples=2, seed=seed)
    record = run_campaign(cfg, only=cid)["checks"][0]
    assert record["status"] == "fail"
    assert {"law": campaign._DRAWN,
            "counterexample": {"error": message, "sample": sample}
            } in record["failures"]


def test_the_law_error_rule_is_written_once():
    """No suite catches an exception itself: `Outcome.check` is the one
    place that turns a package verdict into a failed law part."""
    tree = ast.parse(inspect.getsource(campaign))
    suites = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("_suite_")]
    assert len(suites) == 17
    assert [f.name for f in suites
            if any(isinstance(node, ast.Try) for node in ast.walk(f))] == []
    catching = [handler for node in ast.walk(tree)
                if isinstance(node, ast.Try) for handler in node.handlers
                if getattr(handler.type, "id", None) == "_LAW_ERRORS"]
    check = inspect.getsource(Outcome.check)
    assert len(catching) == 1 and "except _LAW_ERRORS" in check


def test_cover_counterexamples_carry_their_matrix_operands(monkeypatch):
    """A kernel predicate read at the wrong parity fails the cover laws,
    and each counterexample carries the drawn alpha (and beta for the
    two-to-one law) to replay."""
    in_kernel = campaign.in_action_kernel
    monkeypatch.setattr(campaign, "in_action_kernel",
                        lambda n, a, b: in_kernel(n + 1, a, b))
    cfg = tiny_config()
    for cid in ("spheres.cover.even", "spheres.cover.odd"):
        record = run_campaign(cfg, only=cid)["checks"][0]
        assert record["status"] == "fail"
        for failure in record["failures"]:
            example = failure["counterexample"]
            assert example["n"] in cfg.n_range
            assert_matrix_group_element(example["alpha"], cfg.generators)
            if failure["law"] == "two-to-one correspondence":
                assert_matrix_group_element(example["beta"], cfg.generators)


def test_campaign_passes_and_is_deterministic():
    cfg = tiny_config()
    first = run_campaign(cfg)
    second = run_campaign(cfg)
    assert first["summary"]["failed"] == 0
    assert report_bytes(first) == report_bytes(second)
    # a different seed still passes but may differ byte-for-byte
    other = run_campaign(tiny_config(seed=100))
    assert other["summary"]["failed"] == 0


def test_check_single_and_unknown_id():
    cfg = tiny_config()
    report = run_campaign(cfg, only="ns.jacobi")
    assert report["summary"]["total"] == 1
    assert report["checks"][0]["id"] == "ns.jacobi"
    assert report["checks"][0]["status"] == "pass"
    with pytest.raises(UsageError):
        run_campaign(cfg, only="bogus")


def test_report_bytes_are_pinned():
    """Behaviour guard: a change that alters any check's outcome, sample
    count or report layout changes these digests."""
    cfg = tiny_config()

    def digest(report):
        return hashlib.sha256(report_bytes(report)).hexdigest()

    assert digest(run_campaign(cfg)) == \
        "25e35b80bce5d3554a64062d1047d548a11aa20ac292a9cbc4fcbba934eaf883"
    assert digest(run_campaign(cfg, only="ns.jacobi")) == \
        "be810c1185b48b39141a54bba28f329fa29caa9bb76623c03b00e95a3055960a"
    assert digest(run_campaign(cfg, only="spheres.closure.n=1")) == \
        "7c08615f3634cdfeba671e10ed621f16fa65ddbb7fb9ec784f5db1b6fa64b92e"
    towers = tiny_config(generators=6, n_range=(-3, 2))
    assert digest(run_campaign(towers, only="spheres.translations.n=2")) == \
        "f40fa8d680e8f0f0184b171e05a24b617c9c0d649875e4d4408056c5121ce4ab"
    assert digest(run_campaign(towers, only="spheres.translations.n=-3")) == \
        "79743169e03d25686dbed540f214d33d8dde3686fed290f084e2b07a302651b4"


def test_default_report_bytes_are_pinned():
    """The bytes `supersphere --report` writes with no other flag: the
    fingerprint that every behaviour-preserving change keeps."""
    report = report_bytes(run_campaign(CampaignConfig()))
    assert hashlib.sha256(report).hexdigest() == \
        "f23cae9e69ec1a3e503d3b6a5306693bd6b8a11ce56fa69c6cf7dd4e2a6d3706"


def test_closure_rebuilds_the_composite_from_its_json_params(monkeypatch):
    """"recovered parameters rebuild the composite" reads the composite's
    parameters back from JSON, which carry no verified member, so the suite
    runs build_map on them; a wrong rebuild fails the law."""
    read_back, built = [], []
    params_from_json, build_map = textio.params_from_json, spheres.build_map

    def recording_read(data):
        read_back.append(params_from_json(data))
        return read_back[-1]

    def recording_build(p):
        built.append(p)
        return build_map(p)

    monkeypatch.setattr(textio, "params_from_json", recording_read)
    monkeypatch.setattr(spheres, "build_map", recording_build)
    record = run_campaign(tiny_config(), only="spheres.closure.n=1")["checks"][0]
    assert record["status"] == "pass"
    assert len(read_back) == 1
    assert any(p is read_back[0] for p in built)

    def wrong_rebuild(p):
        if any(p is q for q in read_back):
            return SuperconformalMap.identity(p.L)
        return build_map(p)

    monkeypatch.setattr(spheres, "build_map", wrong_rebuild)
    record = run_campaign(tiny_config(), only="spheres.closure.n=1")["checks"][0]
    assert [f["law"] for f in record["failures"]] == [
        "recovered parameters rebuild the composite"]


@pytest.mark.parametrize("eps", ["dropped", []], ids=["dropped", "empty"])
def test_a_params_form_the_reader_refuses_fails_the_rebuild_law(
        eps, monkeypatch):
    """A writer that drops "eps", or writes it empty (eps = 0 is no
    invertible factor), gives a form params_from_json refuses with a
    ParseError; "recovered parameters rebuild the composite" then fails
    with that message and the form as operands, and the suite ends in
    fail, not in error."""
    params_to_json = textio.params_to_json

    def faulty_writer(p):
        data = params_to_json(p)
        if eps == "dropped":
            del data["eps"]
        else:
            data["eps"] = eps
        return data

    monkeypatch.setattr(textio, "params_to_json", faulty_writer)
    record = run_campaign(tiny_config(), only="spheres.closure.n=1")["checks"][0]
    assert record["status"] == "fail"
    [failure] = record["failures"]
    assert failure["law"] == "recovered parameters rebuild the composite"
    assert failure["counterexample"]["error"].startswith("params_from_json: ")
    assert ("eps" in failure["counterexample"]["params"]) == (eps != "dropped")


def test_recovery_is_canonical_rebuilds_the_recovered_params(monkeypatch):
    """"parameter recovery is canonical" validates the map that build_map
    makes afresh from the recovered parameters, not the member that
    validate_map left in them; a wrong build_map fails the law."""
    build_map = spheres.build_map

    def identity_for_recovered(p):
        if p._member is not None:
            return SuperconformalMap.identity(p.L)
        return build_map(p)

    monkeypatch.setattr(spheres, "build_map", identity_for_recovered)
    record = run_campaign(tiny_config(), only="spheres.closure.n=1")["checks"][0]
    assert record["status"] == "fail"
    assert [f["law"] for f in record["failures"]] == [
        "parameter recovery is canonical"]


def assert_matrix_group_element(form, L):
    """form reads back to five entries (a, b, c, d; eps) with a d - b c = 1."""
    g = {k: textio.supernumber_from_json(v, L) for k, v in form.items()}
    assert sorted(g) == ["a", "b", "c", "d", "eps"]
    assert g["a"] * g["d"] - g["b"] * g["c"] == Supernumber.one(L)


def conjugation_failures(cfg, n):
    """The failures of spheres.translations.n=n, each checked to be the
    conjugation law with u and alpha's five entries as operands."""
    record = run_campaign(cfg, only=f"spheres.translations.n={n}")["checks"][0]
    assert record["status"] == "fail"
    for failure in record["failures"]:
        assert failure["law"] == "conjugation acts by the polynomial transform"
        example = failure["counterexample"]
        assert len(example["u"]) == abs(n) + 2
        assert_matrix_group_element(example["alpha"], cfg.generators)
    return record["failures"]


@pytest.mark.parametrize("n", [2, -3])
def test_wrong_conjugation_weight_fails_its_law_with_operands(n, monkeypatch):
    """The law compares whole maps, so a predicted vector off by eps^2
    fails every sample where that changes it.  It may not: with
    eps = 1 + s, a soul s that kills every entry leaves the vector as it
    is."""
    predict = campaign.conjugated_translation_coeffs
    changed = []

    def off_by_eps_squared(n, alpha, coeffs):
        w = predict(n, alpha, coeffs)
        wrong = [alpha.eps * alpha.eps * x for x in w]
        changed.append(wrong != w)
        return wrong

    monkeypatch.setattr(campaign, "conjugated_translation_coeffs",
                        off_by_eps_squared)
    cfg = tiny_config(generators=6, n_range=(n,))
    failures = conjugation_failures(cfg, n)
    assert len(changed) == cfg.samples
    assert len(failures) == sum(changed) >= 1
    assert not any("error" in f["counterexample"] for f in failures)


def test_conjugate_outside_the_family_fails_its_law_with_operands(
        monkeypatch):
    """A predicted vector that is no translation vector (an even entry)
    makes odd_translation raise InvalidParams; that fails the conjugation
    law with an error operand, and the suite does not end in error."""
    predict = campaign.conjugated_translation_coeffs

    def with_even_entry(n, alpha, coeffs):
        w = predict(n, alpha, coeffs)
        return [Supernumber.one(alpha.a.L)] + w[1:]

    monkeypatch.setattr(campaign, "conjugated_translation_coeffs",
                        with_even_entry)
    cfg = tiny_config(generators=6, n_range=(2,))
    failures = conjugation_failures(cfg, 2)
    assert len(failures) == cfg.samples
    for failure in failures:
        assert "must be odd" in failure["counterexample"]["error"]


def short_side_exponent_mutant():
    """spheres._short_g with the short-side g = eps (c z + d)^|n| in place
    of eps (c z + d)^(|n| - 1).  build_map still completes the tower-side
    g from the constraint, so every member is superconformal, but for
    |n| >= 2 it is no member of the twist-n family.  Building and recovery
    both read the helper, so both see the mutant."""
    source = inspect.getsource(spheres._short_g)
    assert source.count("czd ** (k - 1)") == 1
    namespace = dict(vars(spheres))
    exec(source.replace("czd ** (k - 1)", "czd ** k"), namespace)
    return namespace["_short_g"]


@pytest.mark.parametrize("cid, law", [
    ("spheres.closure.n=3", "parameter recovery is canonical"),
    ("spheres.north.n=3", "northern poles confined to -a_B/b_B"),
    ("spheres.translations.n=3", "conjugation acts by the polynomial transform"),
    ("flows.group", "diagonal flow vs action, twist 3"),
])
def test_short_side_exponent_mutant_fails_a_named_law(cid, law, monkeypatch):
    """The mutant's members pass check(), so building one raises nothing,
    and recovery rejects them as a law failure: the suite ends in fail with
    the law it breaks, not in error."""
    monkeypatch.setattr(spheres, "_short_g", short_side_exponent_mutant())
    # seed 99 draws the recovery law a member with c = 0 and d = 1 exactly:
    # c z + d is 1 everywhere, so the mutant builds that member unchanged
    seed = 1 if cid.startswith("spheres.closure") else 99
    cfg = tiny_config(generators=6, n_range=(3,), seed=seed)
    record = run_campaign(cfg, only=cid)["checks"][0]
    assert record["status"] == "fail"
    assert law in [f["law"] for f in record["failures"]]


def test_short_side_exponent_mutant_is_rejected_where_d_is_one(monkeypatch):
    """a = c = d = 1, b = 0, and a = d = 1, b = 0 with the soul c = z1 z2:
    c z + d is 1 at z = 0 only, and the eps read avoids that point, where
    every power of c z + d reads 1 and recovery would agree with the
    mutant's build."""
    L = 6
    one, zero = Supernumber.one(L), Supernumber.zero(L)
    monkeypatch.setattr(spheres, "_short_g", short_side_exponent_mutant())
    soul = Supernumber.generator(L, 1) * Supernumber.generator(L, 2)
    for c in (one, soul):
        p = spheres.AutomorphismParams(3, one, zero, c, one, one,
                                       psi_minus=[zero] * 5)
        member = spheres.build_map(p)
        with pytest.raises(spheres.NotInFamily, match="short-side g differs"):
            spheres.validate_map(member, 3)


def test_dependent_twist_basis_fails_solvability(monkeypatch):
    real_basis = ns.subalgebra_basis

    def repeated_odd(n):
        # the last odd element repeats the one before it, so the parity
        # counts stay right and only the rank drops
        basis = real_basis(n)
        return basis[:-1] + [basis[-2]]

    monkeypatch.setattr(ns, "subalgebra_basis", repeated_odd)
    record = run_campaign(tiny_config(), only="ns.subalgebras")["checks"][0]
    assert record["status"] == "fail"
    laws = {f["law"] for f in record["failures"]}
    assert {f"basis solvability for twist {n}" for n in range(-6, 7)} <= laws
    assert not any(law.startswith("dimensions") for law in laws)


def test_table_mismatches_are_classified_alike(monkeypatch):
    mismatches = [
        {"pair": (0, 1), "expected": "no central term", "got": "1"},
        {"pair": (1, 0), "expected": "bracket inside the span", "got": "x"},
        {"pair": (1, 1), "expected": "M", "got": "N"},
    ]
    monkeypatch.setattr(msa, "verify_table", lambda pairs: {
        "mismatches": mismatches, "injective": True, "size": len(pairs)})
    monkeypatch.setattr(msa.GnSemidirect, "verify", lambda self: {
        "mismatches": mismatches, "size": 1})
    for cid, copies, extra in (("matrix.osp", 1, [{}]),
                               ("matrix.p", 2, [{}, {}]),
                               ("matrix.semidirect", 4,
                                [{"n": n} for n in (2, 3, -2, -3)])):
        record = run_campaign(tiny_config(), only=cid)["checks"][0]
        assert record["status"] == "fail", cid
        assert record["failures"] == copies * [
            {"law": "source bracket consistency", "counterexample": item}
            for item in mismatches[:2]]
        assert record["discrepancies"] == [dict(mismatches[2], **tag)
                                           for tag in extra]


def test_raising_suite_is_recorded_and_the_run_goes_on(monkeypatch, tmp_path,
                                                       capsys):
    cfg = tiny_config()
    clean = run_campaign(cfg)
    real_registry = campaign.registry

    def raising_suite(cfg, rng):
        raise ZeroDivisionError("sampled an edge case")

    def registry_with_raiser(cfg):
        checks = real_registry(cfg)
        law, _ = checks["spheres.closure.n=0"]
        checks["spheres.closure.n=0"] = (law, raising_suite)
        return checks

    monkeypatch.setattr(campaign, "registry", registry_with_raiser)
    report = run_campaign(cfg)
    assert [r["id"] for r in report["checks"]] == \
        [r["id"] for r in clean["checks"]]
    for got, want in zip(report["checks"], clean["checks"]):
        if got["id"] == "spheres.closure.n=0":
            assert got == {
                "id": want["id"], "law": want["law"], "status": "error",
                "samples": 0, "failures": [], "discrepancies": [],
                "error": {"type": "ZeroDivisionError",
                          "message": "sampled an edge case"},
            }
        else:
            assert got == want
    assert report["summary"] == dict(clean["summary"], status="error", errors=1)
    json.loads(report_bytes(report))

    args = ["--generators", "4", "--band", "1", "--flow-order", "3",
            "--n-range=-1..1", "--samples", "2", "--seed", "99",
            "--report", str(tmp_path / "report.json")]
    assert main(args) == 3
    out = capsys.readouterr().out
    assert "ERROR spheres.closure.n=0 (0 samples) ZeroDivisionError: " \
        "sampled an edge case" in out
    assert "raised an error" in out
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["summary"]["errors"] == 1


def test_twist_range_parsing():
    assert parse_n_range("-2..2") == (-2, -1, 0, 1, 2)
    assert parse_n_range("-3,0,4") == (-3, 0, 4)
    for bad in ("5..1", "1..x", "1.5..3"):
        with pytest.raises(UsageError):
            parse_n_range(bad)


def test_cli_exit_codes(tmp_path):
    report_path = tmp_path / "report.json"
    args = ["--generators", "4", "--band", "1", "--flow-order", "3",
            "--n-range=-1..1", "--samples", "2", "--seed", "99",
            "--report", str(report_path)]
    assert main(args) == 0
    data = json.loads(report_path.read_text())
    assert data["summary"]["status"] == "pass"
    assert data["config"]["generators"] == 4
    assert main(["--check", "bogus"]) == 2
    assert main(["--generators", "2"]) == 2


def test_cli_single_check_and_list(capsys):
    assert main(["--check", "matrix.osp", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS matrix.osp" in out
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "ns.jacobi" in out


def test_config_validation():
    with pytest.raises(UsageError):
        CampaignConfig(generators=3).validate()
    with pytest.raises(UsageError):
        CampaignConfig(band=0).validate()
    with pytest.raises(UsageError):
        CampaignConfig(n_range=()).validate()
    with pytest.raises(UsageError):
        CampaignConfig(flow_order=1).validate()


def test_flow_order_below_two_is_a_usage_error(capsys):
    """Order 1 truncates the flows below the souls' nilpotency order,
    so true laws would fail; order 2 suffices for two-term souls."""
    assert main(["--check", "flows.group", "--flow-order", "1"]) == 2
    assert "flow order must be at least 2" in capsys.readouterr().err
    assert main(["--check", "flows.group", "--flow-order", "0"]) == 2
    assert main(["--check", "flows.group", "--flow-order", "2"]) == 0
    assert "PASS flows.group" in capsys.readouterr().out
