"""The benchmark's own ops, run once each at the default test run.

`perfbench/workloads.py` defines the ops that the benchmark times, and an
op fails when it returns anything but True or raises.  This module runs
each workload's warm-up, one pinned `closure` pass, one `algebra` pass and
one `campaign` pass per pinned report, so a change that breaks an op (a
composite that no longer equals its rebuild, a campaign report whose bytes
move) fails here and not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from supersphere import campaign, textio
from supersphere.spheres import SphereAutomorphism

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads   # dataclasses look the module up here
_SPEC.loader.exec_module(workloads)

SEED = 3


def _failed(ops):
    return [(op.label, op.error) for op in ops if op.error is not None]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_up_ops_pass(name):
    ops = workloads.WORKLOADS[name]().warm_up(SEED)
    assert ops and not _failed(ops)


@pytest.mark.parametrize("name", ["closure", "algebra"])
def test_one_pinned_pass_passes(name):
    workload = workloads.WORKLOADS[name]()
    [ops] = workload.make_passes(SEED, 1)
    done = workload.run_pass(ops)
    assert len(done) == len(ops) and not _failed(done)


def test_closure_composites_rebuild_from_json(monkeypatch):
    """`family_pair` compares the composite with `build(composite.params)`,
    which returns the member recovery verified, so it builds nothing.  Here
    each composite of the warm-up and of one pinned pass is rebuilt from its
    JSON parameters, as the campaign does, which runs `build_map` on the
    benchmark's own inputs."""
    calls = []

    def family_pair_from_json(n, p1, p2):
        calls.append(n)
        composite = SphereAutomorphism.build(p2).compose(
            SphereAutomorphism.build(p1))
        params = textio.params_from_json(
            textio.params_to_json(composite.params))
        return params.n == n and SphereAutomorphism.build(params) == composite

    monkeypatch.setattr(workloads, "family_pair", family_pair_from_json)
    workload = workloads.Closure()
    warm = workload.warm_up(SEED)
    [ops] = workload.make_passes(SEED, 1)
    done = workload.run_pass(ops)
    assert not _failed(warm) and not _failed(done)
    assert len(calls) == 1 + len(workloads.TWISTS)


@pytest.mark.parametrize("seed", sorted(workloads.CAMPAIGN_SHA256))
def test_campaign_pass_keeps_its_pinned_report(seed):
    workload = workloads.Campaign()
    cfg = workload.config(seed)
    ops = workload.run_pass(cfg)
    # run_pass appends a failed "report" op when a suite is missing, a law
    # fails or the report's sha256 differs from CAMPAIGN_SHA256[seed]
    assert [op.label for op in ops] == list(campaign.registry(cfg))
    assert not _failed(ops)
