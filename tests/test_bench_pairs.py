"""The pure functions of tools/bench_pairs.py, which every BENCH_*.json
relies on: seed parsing, quartiles, the verdict of the gain rule and the
regressions beside it, and the opcode count beside the wall clock, in
total and per campaign suite."""

import importlib.util
import random
import re
import statistics
import sys
from collections import Counter
from pathlib import Path

import pytest

from supersphere import campaign
from supersphere.randgen import Sampler

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_WORKLOADS_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs_workloads", _PATH.parent.parent / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_WORKLOADS_SPEC)
sys.modules[_WORKLOADS_SPEC.name] = workloads   # for its dataclass
_WORKLOADS_SPEC.loader.exec_module(workloads)


def test_parse_seeds_reads_single_seeds_and_ranges():
    assert bench_pairs.parse_seeds("7") == [7]
    assert bench_pairs.parse_seeds("1301-1303,1310") == [1301, 1302, 1303, 1310]
    assert bench_pairs.parse_seeds("5,3-4") == [5, 3, 4]
    with pytest.raises(ValueError):
        bench_pairs.parse_seeds("a-b")


def test_quartiles_are_inclusive_and_ordered():
    assert bench_pairs.quartiles([1, 2, 3, 4, 5]) == {
        "median": 3, "q1": 2, "q3": 4}
    values = [0.52, 0.49, 0.61, 0.50, 0.55, 0.47]
    q = bench_pairs.quartiles(values)
    assert q["median"] == statistics.median(values)
    assert q["q1"] <= q["median"] <= q["q3"]


def _summary(wins, pairs, gap, iqr):
    return {"closure": {"pairs": pairs, "wall_s": {
        "change_better_in": wins, "median_gap": gap, "parent_iqr": iqr}}}


@pytest.mark.parametrize("wins, pairs, gap, iqr, met", [
    (9, 10, 0.05, 0.02, True),    # nine of ten is enough
    (10, 10, 0.05, 0.02, True),
    (8, 10, 0.05, 0.02, False),   # too few wins
    (9, 10, 0.02, 0.02, False),   # the gap must exceed the IQR
    (9, 10, 0.01, 0.02, False),
    (10, 11, 0.05, 0.02, True),   # ceil(0.9 * 11) = 10
    (9, 11, 0.05, 0.02, False),
    (8, 8, 0.05, 0.02, True),     # ceil(0.9 * 8) = 8
    (7, 8, 0.05, 0.02, False),
    (10, 10, -0.05, 0.0, False),  # a worse median is never a gain
])
def test_verdict_is_the_gain_rule(wins, pairs, gap, iqr, met):
    verdict = bench_pairs.verdict(_summary(wins, pairs, gap, iqr),
                                  "closure:wall_s")
    assert verdict["met"] is met
    assert (verdict["workload"], verdict["metric"]) == ("closure", "wall_s")
    assert verdict["change_better_in"] == wins and verdict["pairs"] == pairs


def test_summarise_feeds_the_verdict():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.25}
    pairs = [{"parent": {"wall_s": p, "failed": 0, "attempted": 10},
              "change": {"wall_s": c, "failed": 0, "attempted": 10}}
             for p, c in zip([1.0, 1.1, 0.9, 1.0], [0.8, 0.85, 0.95, 0.8])]
    row = bench_pairs.summarise(pairs, [metric])["wall_s"]
    assert row["change_better_in"] == 3
    assert row["median_gap"] == pytest.approx(1.0 - 0.825)
    assert row["within_bound"]
    verdict = bench_pairs.verdict({"closure": {"pairs": 4, "wall_s": row}},
                                  "closure:wall_s")
    assert not verdict["met"]  # 3 wins of 4 is below ceil(0.9 * 4) = 4


_METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "op_tail_ms", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def _workload(factors):
    """summarise over four pairs whose change runs are the parent's times
    factors[metric], or equal to them."""
    def run(p, factor):
        return {**{m["name"]: p * factor(m["name"]) for m in _METRICS},
                "failed": 0, "attempted": 1}

    pairs = [{"parent": run(p, lambda name: 1),
              "change": run(p, lambda name: factors.get(name, 1))}
             for p in [1.0, 1.1, 0.9, 1.0]]
    return bench_pairs.summarise(pairs, _METRICS)


def test_verdict_lists_every_metric_outside_its_bound():
    summary = {
        "closure": _workload({"wall_s": 0.8, "op_tail_ms": 1.3}),
        # 20% is inside the 25% bound; 11% is outside the 10% one
        "campaign": _workload({"wall_s": 1.2, "peak_rss_mb": 1.11}),
    }
    verdict = bench_pairs.verdict(summary, "closure:wall_s")
    assert verdict["met"]  # the gain half holds; the list shows the other
    assert [(r["workload"], r["metric"]) for r in verdict["regressions"]] == [
        ("closure", "op_tail_ms"), ("campaign", "peak_rss_mb")]
    assert [r["change_pct"] for r in verdict["regressions"]] == [
        pytest.approx(30), pytest.approx(11)]
    quiet = bench_pairs.verdict({"closure": _workload({"wall_s": 0.8})},
                                "closure:wall_s")
    assert quiet["regressions"] == []


def test_no_loss_lists_regressions_and_unresolved_metrics():
    summary = {
        "closure": _workload({"wall_s": 0.8}),
        "campaign": _workload({"peak_rss_mb": 1.11}),
    }
    # a parent spread wider than the bound: quartile distance 0.1 of 1.0
    parent = [0.9, 0.95, 1.0, 1.05, 1.1]
    summary["algebra"] = {"wall_s": _row(parent, parent[::-1], bound=0.05),
                          "op_p50_ms": _row(parent, [1.3] * 5)}
    assert bench_pairs.no_loss(summary) == {
        "regressions": [
            {"workload": "campaign", "metric": "peak_rss_mb",
             "change_pct": pytest.approx(11)},
            {"workload": "algebra", "metric": "op_p50_ms",
             "change_pct": pytest.approx(30)}],
        "unresolved": [
            {"workload": "algebra", "metric": "wall_s",
             "change_pct": pytest.approx(0)}],
    }
    assert bench_pairs.no_loss({"closure": summary["closure"]}) == {
        "regressions": [], "unresolved": []}


def _row(parent_runs, change_runs, bound=0.25, better="lower"):
    metric = {"name": "m", "better": better, "bound": bound}
    pairs = [{"parent": {"m": p, "failed": 0, "attempted": 1},
              "change": {"m": c, "failed": 0, "attempted": 1}}
             for p, c in zip(parent_runs, change_runs)]
    return bench_pairs.summarise(pairs, [metric])["m"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent median 1.0 and quartile distance 0.1
    parent = [0.9, 0.95, 1.0, 1.05, 1.1]
    level = [1.1, 0.9, 1.05, 0.95, 1.0]
    row = _row(parent, level)
    assert row["within_bound"] and row["resolved"]
    # under a 5% bound the same spread hides the bound
    row = _row(parent, level, bound=0.05)
    assert row["within_bound"] and not row["resolved"]
    # unless every change run beats every parent run
    assert _row(parent, [0.8, 0.85, 0.7, 0.75, 0.8], bound=0.05)["resolved"]
    # 0.9 ties the best parent run, and a tie is no win
    assert not _row(parent, [0.8, 0.85, 0.9, 0.75, 0.8],
                    bound=0.05)["resolved"]
    # a higher-is-better metric wins upwards
    assert _row(parent, [p + 1 for p in parent], bound=0.05,
                better="higher")["resolved"]
    assert not _row(parent, [p - 1 for p in parent], bound=0.05,
                    better="higher")["resolved"]


@pytest.mark.parametrize("claim", [
    "closure:wall",        # a metric typo
    "closure",             # no metric
    "campaign:wall_s",     # a workload the set does not run
    "closure:wall_s:x",
    ":wall_s",
    "closure:scalars.calls",  # a per-layer count is no end-to-end metric
])
def test_check_claim_rejects_what_the_set_cannot_judge(claim):
    with pytest.raises(ValueError, match="--claim"):
        bench_pairs.check_claim(claim, ["closure", "algebra"],
                                ["wall_s", "op_p50_ms"])


def test_check_claim_accepts_a_run_workload_and_end_to_end_metric():
    bench_pairs.check_claim("algebra:op_p50_ms", ["closure", "algebra"],
                            ["wall_s", "op_p50_ms"])


def test_bad_claim_exits_before_any_pair(monkeypatch, tmp_path, capsys):
    spec = (_PATH.parent.parent / "BENCHMARK.json").read_text()
    monkeypatch.setattr(bench_pairs, "git", lambda *args:
                        spec if args[0] == "show" else "0" * 40)

    def no_pairs(*args, **kwargs):
        raise AssertionError("the set started")

    monkeypatch.setattr(bench_pairs, "export", no_pairs)
    monkeypatch.setattr(bench_pairs, "run_child", no_pairs)
    out = tmp_path / "BENCH_x.json"
    with pytest.raises(SystemExit) as exited:
        bench_pairs.main(["--parent", "HEAD~1", "--workload", "closure",
                          "--seeds", "1-2", "--claim", "closure:wall",
                          "--out", str(out)])
    assert exited.value.code == 2
    assert "'closure:wall'" in capsys.readouterr().err
    assert not out.exists()


def test_two_counts_of_one_op_are_equal():
    """The opcode count is deterministic: the same benchmark op, counted
    twice, runs the same opcodes.  One untraced run fills the caches first
    (an `lru_cache` hit runs no opcodes); the tool counts every pass in a
    fresh child, so its counts all start from empty caches."""
    s = Sampler(random.Random(5), workloads.CLOSURE_L)
    op = (workloads.family_pair, -2, s.automorphism_params(-2),
          s.automorphism_params(-2))
    assert op[0](*op[1:]) is True
    first, second = bench_pairs.opcodes(*op), bench_pairs.opcodes(*op)
    assert first == second and first[0] is True and first[1] > 10_000


def test_compare_gives_the_change_in_percent():
    assert bench_pairs.compare(200, 150) == {
        "parent": 200, "change": 150, "change_pct": -25.0}
    # a suite one side lacks has no change
    assert bench_pairs.compare(None, 7)["change_pct"] is None
    assert bench_pairs.compare(7, None)["change_pct"] is None


def tiny_campaign():
    """A campaign config small enough to trace in a second, run once
    untraced, so that its caches are filled."""
    cfg = campaign.CampaignConfig(generators=4, band=1, flow_order=2,
                                  n_range=(2,), samples=1)
    campaign.run_campaign(cfg)
    return cfg


def test_suite_opcodes_split_a_tiny_campaign():
    """Each suite's count is the opcodes of its `_run_one` call; counted
    alone, after an untraced run has filled the caches, a suite runs the
    opcodes it ran inside the whole campaign."""
    cfg = tiny_campaign()
    report, total, suites, _ = bench_pairs.opcodes(
        campaign.run_campaign, cfg, within=campaign._run_one)
    assert report["summary"]["status"] == "pass"
    assert list(suites) == list(campaign.registry(cfg))
    assert all(count > 0 for count in suites.values())
    assert sum(suites.values()) < total
    cid = "spheres.translations.n=2"
    _, alone, parts, _ = bench_pairs.opcodes(
        campaign.run_campaign, cfg, cid, within=campaign._run_one)
    assert parts == {cid: suites[cid]} and alone > suites[cid]
    # without `within` nothing is split
    assert bench_pairs.opcodes(len, [])[1:] == (0, {}, Counter())


def test_the_busiest_functions_of_a_tiny_campaign_fit_in_its_total():
    """Every opcode is one function's own, so the own counts sum to the
    total; the busiest listed are the largest of them, so they sum to no
    more than it, and each is named by its file, line and name."""
    _, total, _, own = bench_pairs.opcodes(campaign.run_campaign,
                                           tiny_campaign())
    assert sum(own.values()) == total
    functions = bench_pairs.busiest(own)
    assert len(functions) == bench_pairs.TOP_FUNCTIONS
    assert sum(functions.values()) <= total
    assert list(functions.values()) == sorted(own.values(), reverse=True)[
        :bench_pairs.TOP_FUNCTIONS]
    assert all(re.fullmatch(r"\S+/\S+\.py:\d+ \S+", key) for key in functions)
    assert any(key.startswith("supersphere/") for key in functions)
