"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_harness.py

Runs every workload at --seconds 1, its smallest size, untraced and twice
traced, and checks that every metric named in BENCHMARK.json is emitted,
that two traced runs give identical counts, that a planted wrong result is
counted as failed, and that the benchmark refuses to run without the
package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from supersphere import spheres  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert len(result["metrics"]) == len(SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_emit_every_layer_metric_with_repeatable_counts(workload):
    first = result_of(bench(workload, 1))
    second = result_of(bench(workload, 1))
    names = [spec["name"] for spec in SPEC["per_layer"]]
    assert sorted(first["metrics"]) == sorted(names)
    for spec in SPEC["per_layer"]:
        assert first["metrics"][spec["name"]]["unit"] == spec["unit"]
        if spec["unit"] in ("s", "%") or spec["name"] == "trace.overhead_ratio":
            continue  # times and shares of time vary; the rest are counts
        assert (first["metrics"][spec["name"]]["value"]
                == second["metrics"][spec["name"]]["value"]), spec["name"]
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_planted_wrong_composite_is_counted_as_failed(monkeypatch):
    original = spheres.SphereAutomorphism.compose

    def perturbed(self, other):
        composite = original(self, other)
        # right parameters, wrong map: the rebuild check must catch it
        return spheres.SphereAutomorphism(composite.n, composite.params,
                                          other.southern)

    monkeypatch.setattr(spheres.SphereAutomorphism, "compose", perturbed)
    result = run.measure("closure", 5, 0.01)
    # the warm-up op and the nine family pairs of the one pass fail; the
    # superconformal map pair does not compose automorphisms
    assert result["passes"] == 1
    assert result["attempted"] == 11
    assert result["failed"] == 10
    assert all("wrong result" in line for line in result["failures"])


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("closure", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
