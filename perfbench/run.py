"""Run one supersphere benchmark workload and print its metrics.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program under test is the source tree
in `src/`; nothing is installed.  Every measurement happens in a fresh
child interpreter started from this script, one child at a time:

* `--trace 0` starts SETUP_SAMPLES children.  Each one imports the
  package, generates its inputs and runs one warm-up op; the time from its
  launch to that point (on the system-wide monotonic clock) is one
  `setup_s` sample.  The last child then runs the timed passes and reports
  the end-to-end metrics.  Times are scaled to the reference machine's
  speed (see `Speedometer`).
* `--trace 1` starts one child that installs the layer tracer
  (`layertrace.py`) and reports the per-layer metrics.  It runs a fixed
  number of passes, each untraced and then traced, so its counts repeat
  exactly for a given seed and `--seconds`.

Output: one `env` line, one line per metric with its unit, and as the last
line a JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when the run completed, even if some ops failed; it is
2 when the run could not be made, for example without `src/supersphere`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# all children of one run together; the run then ends within 180 s
RUN_TIMEOUT_S = 170
# One calibration slice, and its median time on the reference machine (a
# 2-core x86 box, CPython 3.11.7).
CAL_ITERATIONS = 4000
CAL_REF_S = 0.022
# between ops, a slice runs once this much time has passed since the last
# one: calibration then takes about 8% of the timed phase
CAL_EVERY_S = 0.25
CAL_BURST = 4
SETUP_CAL_SLICES = 10
# a traced run makes one pass pair (untraced, traced) per this many nominal
# pass times of --seconds; tracing costs about 1.5x to 3x
TRACE_BUDGET_SHARE = 4

COUNTERS = (
    "grassmann.term_pairs",
    "superfield.normalisations",
    "superfield.nonconstant_denominators",
    "superfield.cancel_hits",
    "superfield.gcd_calls",
    "superfield.substitute_calls",
    "superconformal.compose_calls",
    "superconformal.check_calls",
    "spheres.build_calls",
    "spheres.validate_calls",
    "nsalgebra.bracket_calls",
    "matrixalgebra.superbracket_calls",
    "textio.report_bytes",
    "campaign.suites",
)
RAISED_LAYERS = ("grassmann", "superfield", "spheres")


def load_spec():
    """BENCHMARK.json: the workload names and the metrics to print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "supersphere").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(workload, seed, seconds):
    from supersphere import scalars
    backend = getattr(scalars, "MPQ", None)
    if backend is None:
        backend = type(scalars.GaussianRational(1).re)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# the child: set-up, timed passes, tracing
# ---------------------------------------------------------------------------


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def set_up(name, seed, passes):
    """Inputs for `passes` passes plus the warm-up op, run once."""
    from workloads import WORKLOADS
    wl = WORKLOADS[name]()
    warm = wl.warm_up(seed)
    inputs = wl.make_passes(seed, passes)
    return wl, inputs, warm


def input_passes(name, seconds):
    """Passes sized to take about `seconds` on the reference machine."""
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    return max(wl.min_passes, math.ceil(seconds / wl.nominal_pass_s))


def calibration_slice():
    """Seconds taken by a fixed stdlib workload: Fraction arithmetic, as in
    the package's scalars, run by the same interpreter."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_ITERATIONS + 1):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return perf_counter() - start


class Speedometer:
    """How much slower than the reference machine this one runs just now.

    On the reference machine, which is shared with other tenants, the speed
    drifts by up to 1.6x within minutes and by 1.4x within seconds, the
    same for every program.  So calibration slices run between the ops of
    every timed pass (`tick`), and every time is divided by `slowness()`:
    the mean slice time over the reference slice time.  The result reads in
    seconds of the reference machine.  A change to the package moves it;
    the calibration, which uses no package code, does not move.
    """

    def __init__(self):
        self.slices = []
        self.next_at = perf_counter()

    def burst(self, count):
        self.slices.extend(calibration_slice() for _ in range(count))
        self.next_at = perf_counter() + CAL_EVERY_S

    def tick(self):
        if perf_counter() >= self.next_at:
            self.burst(1)

    def spent(self):
        return sum(self.slices)

    def slowness(self):
        return statistics.fmean(self.slices) / CAL_REF_S


def setup_slowness():
    """Slowness measured just after a child's set-up."""
    speed = Speedometer()
    speed.burst(SETUP_CAL_SLICES)
    return speed.slowness()


def measure(name, seed, seconds, started=None):
    """Untraced run: every generated pass, so `wall_s` covers fixed work.

    `started` is the monotonic time at which the interpreter was launched.
    """
    wl, inputs, ops = set_up(name, seed, input_passes(name, seconds))
    setup_s = None if started is None else monotonic() - started
    setup_slow = setup_slowness()
    speed = Speedometer()
    pass_times = []
    timed_ops = []
    speed.burst(CAL_BURST)
    for batch in inputs:
        start, calibrating = perf_counter(), speed.spent()
        got = wl.run_pass(batch, speed.tick)
        pass_times.append(perf_counter() - start
                          - (speed.spent() - calibrating))
        timed_ops.extend(got)
    speed.burst(CAL_BURST)
    slow = speed.slowness()
    ops = ops + timed_ops
    latencies = [op.seconds / slow for op in timed_ops]
    tail, beyond = percentile(latencies, wl.tail_percentile)
    failures = [op for op in ops if op.error is not None]
    return {
        "setup_s": setup_s,
        "setup_slowness": setup_slow,
        "slowness": slow,
        "raw_wall_s": sum(pass_times),
        "passes": len(pass_times),
        "slowest_pass_s": max(pass_times),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"{op.label}: {op.error}" for op in failures[:10]],
        "tail": {"percentile": wl.tail_percentile, "samples": len(latencies),
                 "beyond": beyond},
        "metrics": {
            "wall_s": sum(pass_times) / slow,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def install_counters(tracer):
    """Counters at the boundaries the per-layer metrics name."""
    counts, maxima = tracer.counts, tracer.maxima

    def count(key):
        def counter(args, result):
            counts[key] += 1
        return counter

    def term_pairs(args, result):
        a, b = args
        if hasattr(b, "terms"):
            counts["grassmann.term_pairs"] += len(a.terms) * len(b.terms)

    def normalisation(args, result):
        counts["superfield.normalisations"] += 1
        before = args[1].degree()
        if before >= 1:
            counts["superfield.nonconstant_denominators"] += 1
            if result[1].degree() < before:
                counts["superfield.cancel_hits"] += 1
        maxima["superfield.max_den_degree"] = max(
            maxima["superfield.max_den_degree"], before)

    def report_size(args, result):
        counts["textio.report_bytes"] += len(result)

    tracer.hook("grassmann", "Supernumber.__mul__", term_pairs)
    tracer.hook("superfield", "_cancel_common_factor", normalisation)
    tracer.hook("superfield", "ScalarPoly.gcd", count("superfield.gcd_calls"))
    tracer.hook("superfield", "RationalSuperfunction.substitute",
                count("superfield.substitute_calls"))
    tracer.hook("superconformal", "SuperconformalMap.compose",
                count("superconformal.compose_calls"))
    tracer.hook("superconformal", "SuperconformalMap.check",
                count("superconformal.check_calls"))
    tracer.hook("spheres", "SphereAutomorphism.build",
                count("spheres.build_calls"))
    tracer.hook("spheres", "validate_map", count("spheres.validate_calls"))
    tracer.hook("nsalgebra", "bracket", count("nsalgebra.bracket_calls"))
    tracer.hook("matrixalgebra", "Matrix.superbracket",
                count("matrixalgebra.superbracket_calls"))
    tracer.hook("campaign", "report_bytes", report_size)
    tracer.hook("campaign", "_run_one", count("campaign.suites"))


def trace(name, seed, seconds):
    """Traced run: a fixed number of passes, each run untraced then traced.

    Running the same pass both ways makes the overhead ratio compare equal
    work; the counts come from set-up and the traced runs only.
    """
    from layertrace import LAYERS, Tracer
    from workloads import WORKLOADS

    nominal = WORKLOADS[name].nominal_pass_s
    pairs = max(1, int(seconds // (TRACE_BUDGET_SHARE * nominal)))
    tracer = Tracer()
    install_counters(tracer)
    tracer.install()
    try:
        wl, inputs, ops = set_up(name, seed, pairs)
    finally:
        tracer.uninstall()
    times = {False: [], True: []}
    slowest = []
    for k, batch in enumerate(inputs):
        for traced in (False, True):
            if traced:
                tracer.op = k
                tracer.install()
            try:
                start = perf_counter()
                got = wl.run_pass(batch)
                elapsed = perf_counter() - start
            finally:
                tracer.uninstall()
            times[traced].append(elapsed)
            if not traced and name == "campaign":
                slowest.append(100 * max(op.seconds for op in got) / elapsed)
            ops.extend(got)

    # Layer times are reported as shares of the time spent in all layers: a
    # bypassed layer's time is exactly 0 s on every run, and shares taken
    # within one run do not move with the machine's speed.
    layer_s = sum(tracer.self_s[layer] for layer in LAYERS)
    metrics = {"trace.layer_s": layer_s}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.layer_calls(layer)
        metrics[f"{layer}.self_pct"] = 100 * tracer.self_s[layer] / layer_s
    for key in COUNTERS:
        metrics[key] = tracer.counts[key]
    metrics["superfield.max_den_degree"] = tracer.maxima["superfield.max_den_degree"]
    base = tracer.counts["superfield.nonconstant_denominators"]
    metrics["superfield.cancel_hit_ratio"] = (
        tracer.counts["superfield.cancel_hits"] / base if base else 0.0)
    for layer in RAISED_LAYERS:
        metrics[f"{layer}.raised"] = tracer.raised[layer]
    metrics["campaign.slowest_suite_pct"] = (
        statistics.median(slowest) if slowest else 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(times[True]) / statistics.median(times[False]))
    slowest_spans = {}
    for layer, span_name, start, end, _, op in tracer.spans:
        if end - start > slowest_spans.get(layer, ("", 0.0))[1]:
            slowest_spans[layer] = (span_name, end - start, op)
    failures = [op for op in ops if op.error is not None]
    return {
        "passes": len(inputs),
        "attempted": len(ops),
        "failed": len(failures),
        "failures": [f"{op.label}: {op.error}" for op in failures[:10]],
        "missing_hooks": tracer.missing_hooks,
        "spans": len(tracer.spans),
        "slowest_spans": slowest_spans,
        "by_caller": {layer: tracer.by_caller(layer) for layer in LAYERS},
        "self_s": {layer: tracer.self_s[layer] for layer in LAYERS},
        "metrics": metrics,
    }


def child(args):
    sys.path.insert(0, str(SRC))
    if args.role == "probe":
        set_up(args.workload, args.seed, input_passes(args.workload, args.seconds))
        result = {"setup_s": monotonic() - args.started,
                  "setup_slowness": setup_slowness()}
    elif args.role == "trace":
        result = trace(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds,
                         args.started)
    result["env"] = environment(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# the parent: starts the children and prints the result
# ---------------------------------------------------------------------------


class RunError(Exception):
    pass


def run_child(args, role, deadline):
    """Run one child to the end and return the JSON object it printed.

    The child is killed if it is still running at the monotonic `deadline`.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--role", role,
           "--started", repr(monotonic())]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(0.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{role} child ran past the {RUN_TIMEOUT_S} s "
                       f"limit of a run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{role} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def parent(args, spec):
    if not (SRC / "supersphere" / "__init__.py").is_file():
        raise RunError(f"no package source at {SRC / 'supersphere'}")
    deadline = monotonic() + RUN_TIMEOUT_S
    if args.trace:
        result = run_child(args, "trace", deadline)
    else:
        probes = [run_child(args, "probe", deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        result = run_child(args, "measure", deadline)
        setups = [child["setup_s"] / child["setup_slowness"]
                  for child in probes + [result]]
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples"] = setups
        result["raw_setup_samples"] = [child["setup_s"]
                                       for child in probes + [result]]
    env = result["env"]
    print("env " + json.dumps(env, sort_keys=True))
    for failure in result["failures"]:
        print(f"failed op {failure}")
    if args.trace:
        for hook in result["missing_hooks"]:
            print(f"counter target not found: {hook}")
        print(f"spans kept {result['spans']}")
        for layer, (span_name, seconds, op) in result["slowest_spans"].items():
            where = "set-up" if op is None else f"pass {op}"
            print(f"slowest span in {layer}: {span_name} {seconds:.4f} s, "
                  f"{where}")
        for layer, seconds in result["self_s"].items():
            print(f"self time {layer} {seconds} s")
        for layer, callers in result["by_caller"].items():
            for caller, (calls, seconds) in callers.items():
                print(f"calls {layer} <- {caller}: {calls} in {seconds:.4f} s")
    else:
        tail = result["tail"]
        print(f"op_tail_ms is p{tail['percentile']} of {tail['samples']} ops, "
              f"{tail['beyond']} beyond it; {result['passes']} passes, the "
              f"slowest {result['slowest_pass_s']:.4f} s")
        print(f"slowness {result['slowness']} (mean calibration slice over "
              f"{CAL_REF_S} s); unscaled wall_s {result['raw_wall_s']} s")
        print(f"setup_s samples {result['setup_samples']}, unscaled "
              f"{result['raw_setup_samples']}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac {failed_frac} ({result['failed']} of "
          f"{result['attempted']} ops)")
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        key, unit = metric["name"], metric["unit"]
        value = result["metrics"][key]
        print(f"{key} {value} {unit}")
        metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("probe", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.role:
        return child(args)
    try:
        return parent(args, spec)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
