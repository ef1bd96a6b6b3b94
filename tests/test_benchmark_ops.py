"""The benchmark's own ops, run once each at the default test run.

`perfbench/workloads.py` defines the ops that the benchmark times, and an
op fails when it returns anything but True or raises.  This module runs
each workload's warm-up, one pinned `closure` pass, one `algebra` pass and
one `campaign` pass per pinned report, so a change that breaks an op (a
composite that no longer equals its rebuild, a campaign report whose bytes
move) fails here and not only when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from supersphere import campaign, textio
from supersphere.spheres import SphereAutomorphism

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look the module up here
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")
bench_run = _load("perfbench_run", "run.py")

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


class _RecordingTracer:
    """The part of `layertrace.Tracer` that `install_counters` uses; it
    records the (module, qualname) of every hook."""

    def __init__(self):
        self.counts, self.maxima, self.hooked = {}, {}, []

    def hook(self, module, qualname, counter):
        self.hooked.append((module, qualname))


def _unresolved(module, qualname):
    """True unless qualname is a function of supersphere.module, or a
    method of one of its classes, defined there: what the tracer wraps."""
    owner = importlib.import_module(f"supersphere.{module}")
    for part in qualname.split("."):
        owner = vars(owner).get(part)
        if owner is None:
            return True
    return False


def test_every_counter_hook_resolves_in_the_package():
    """A renamed hook target zeroes its per-layer counter, which a traced
    run shows only as `missing_hooks`; here it fails Tier-1."""
    tracer = _RecordingTracer()
    bench_run.install_counters(tracer)
    assert tracer.hooked
    assert [hook for hook in tracer.hooked if _unresolved(*hook)] == []
