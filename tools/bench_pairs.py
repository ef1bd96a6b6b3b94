"""Run perfbench in alternating parent/change pairs and write a BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --workload closure \\
        --seeds 1301-1310 --seconds 15 --trace-seed 1311 \\
        --claim closure:wall_s --out BENCH_label.json

Run it from inside the repository.  Both sides are exported with
`git archive` into fresh temporary directories (under $TMPDIR), so neither
has a bytecode cache, and every child runs with PYTHONDONTWRITEBYTECODE=1,
so none is written.  `--change` defaults to HEAD; to measure work that is
not committed yet, stage it and pass `--change "$(git stash create)"`.

For each workload, pair k runs `perfbench/run.py --trace 0` on the k-th
seed on both sides, the parent first in even pairs and the change first in
odd ones.  The output records each side's `env` line per workload (runs
differ only in the seed), every pair, and per end-to-end metric of
BENCHMARK.json each side's median and quartiles (`statistics.quantiles`,
inclusive), the number of pairs the change won (ties count for neither),
the median gap in the better direction, the parent's quartile distance,
whether the change's median stays within the metric's regression bound,
and whether that is resolved: it is not when the parent's quartile
distance exceeds the bound times the parent's median, unless every change
run beats every parent run.  `--claim W:M` adds the verdict of the gain
rule: the change wins at least nine tenths of the pairs and the median gap
exceeds the parent's quartile distance.  W must be one of the
`--workload` values and M an end-to-end metric; any other claim stops
before the first pair.  Every set, with or without a claim, writes the
other half of the rule (`no_loss`): `regressions`, every workload and
metric whose change median is outside its bound, and `unresolved`, every
one whose parent spread hides its bound.  `--trace-seed S` adds one
`--trace 1` run per side and workload with every per-layer count, and a
deterministic cost beside the wall clock: the Python opcodes of one pass
of `make_passes(S, 1)`, counted with `sys.settrace` and
`f_trace_opcodes` (`opcodes`) in a child started in each side's tree,
which imports that tree's `perfbench/workloads.py` under
PYTHONHASHSEED=0.  The file records both counts, the change in % and
each side's failed ops of that pass, and for `campaign`, whose pass runs
one pinned configuration, the same per suite (`suites`), so it shows
where a saving sits.  Beside them, `functions` lists each side's 15
functions with the most opcodes of their own in that pass, as
"dir/file:line name" -> count, to size a change before it is made.  The
file is rewritten after every pair, so an interrupted set keeps its
pairs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

CHILD_TIMEOUT_S = 600
TOP_FUNCTIONS = 15  # the busiest functions a traced pass lists per side
HERE = Path(__file__).resolve().parent
# the child that counts a pass: cwd is an exported tree, and this file
# (which the parent revision may lack) is imported from HERE
OPCODE_CHILD = """\
import json, sys
sys.path[:0] = [{here!r}, "src", "perfbench"]
from bench_pairs import pass_opcodes
print(json.dumps(pass_opcodes({workload!r}, {seed})))
"""


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, where):
    """The tree of rev, extracted into the fresh directory where."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    where.mkdir()
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return where


def parse_seeds(text):
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_child(tree, workload, seed, seconds, trace):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    final = json.loads(lines[-1])
    run = {name: m["value"] for name, m in final["metrics"].items()}
    run.update(failed=final["failed"], attempted=final["attempted"])
    env_line = next(line for line in lines if line.startswith("env "))
    metric_lines = {f"{name} {m['value']} {m['unit']}"
                    for name, m in final["metrics"].items()}
    run["info"] = [line for line in lines[:-1]
                   if line != env_line and line not in metric_lines]
    return json.loads(env_line[4:]), run


def opcodes(call, *args, within=None):
    """(call(*args), the number of Python opcodes it ran on this thread,
    {first argument: opcodes} over the calls of the function `within`,
    its own and those of everything it called, and a Counter of each code
    object's own opcodes), counted with `sys.settrace` and
    `f_trace_opcodes`.  Work inside C, such as big-integer arithmetic or a
    cache hit, counts nothing."""
    count = 0
    code = getattr(within, "__code__", None)
    starts, parts, own = {}, {}, Counter()

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
            own[frame.f_code] += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            if frame.f_code is code:
                starts[frame] = count
        elif event == "return" and frame.f_code is code:
            key = frame.f_locals[code.co_varnames[0]]
            parts[key] = parts.get(key, 0) + count - starts.pop(frame)
        return trace

    sys.settrace(trace)
    try:
        result = call(*args)
    finally:
        sys.settrace(None)
    return result, count, parts, own


def busiest(own):
    """{"dir/file:line name": own opcodes} of the TOP_FUNCTIONS code objects
    of an `opcodes` Counter that ran the most opcodes themselves."""
    return {f"{Path(c.co_filename).parent.name}/{Path(c.co_filename).name}:"
            f"{c.co_firstlineno} {c.co_name}": n
            for c, n in own.most_common(TOP_FUNCTIONS)}


def pass_opcodes(workload, seed):
    """The opcodes and failed ops of one pass of `make_passes(seed, 1)` of
    a workload, the opcodes of each campaign suite the pass runs
    (`suites`, by suite id: the calls of `campaign._run_one`, empty for
    the other workloads) and its `busiest` functions (`functions`); the
    inputs are made untraced.  Runs in OPCODE_CHILD."""
    from workloads import WORKLOADS
    from supersphere import campaign
    wl = WORKLOADS[workload]()
    [inputs] = wl.make_passes(seed, 1)
    done, count, suites, own = opcodes(
        wl.run_pass, inputs, within=getattr(campaign, "_run_one", None))
    return {"opcodes": count,
            "failed": sum(op.error is not None for op in done),
            "suites": suites,
            "functions": busiest(own)}


def compare(parent, change):
    """Both sides' counts of one thing and the change in %; a count one
    side lacks is None, and so is its change."""
    return {"parent": parent, "change": change,
            "change_pct": (100 * (change / parent - 1)
                           if parent and change is not None else None)}


def run_opcode_child(tree, workload, seed):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    code = OPCODE_CHILD.format(here=str(HERE), workload=workload, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"opcode count of {workload} in {tree} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs, metrics):
    out = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs)
                   for side in ("parent", "change")},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs)
                      for side in ("parent", "change")},
    }
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        parent_runs = [p["parent"][name] for p in pairs]
        change_runs = [p["change"][name] for p in pairs]
        parent = quartiles(parent_runs)
        change = quartiles(change_runs)
        gap = sign * (parent["median"] - change["median"])
        iqr = parent["q3"] - parent["q1"]
        out[name] = {
            "parent": parent,
            "change": change,
            "change_pct": 100 * (change["median"] / parent["median"] - 1),
            "change_better_in": sum(
                sign * (p["parent"][name] - p["change"][name]) > 0
                for p in pairs),
            "median_gap": gap,
            "parent_iqr": iqr,
            "bound": metric["bound"],
            "within_bound": -gap <= metric["bound"] * parent["median"],
            # a spread wider than the bound cannot show a regression within
            # it, unless every change run beats every parent run
            "resolved": (iqr <= metric["bound"] * parent["median"]
                         or all(sign * (p - c) > 0 for p in parent_runs
                                for c in change_runs)),
        }
    return out


def check_claim(claim, workloads, metrics):
    """ValueError unless claim is W:M with W one of the workloads to run
    and M an end-to-end metric, so a typo stops the set before any pair."""
    workload, sep, metric = claim.partition(":")
    if not sep or workload not in workloads or metric not in metrics:
        raise ValueError(f"--claim {claim!r} is not W:M with W in "
                         f"{sorted(set(workloads))} and M in {sorted(metrics)}")


def no_loss(summary):
    """The no-loss half of the rule, over every workload of the summary:
    the metrics whose change median is outside its bound (`regressions`)
    and those whose parent spread is too wide to tell (`unresolved`)."""
    def failing(check):
        return [{"workload": name, "metric": key,
                 "change_pct": value["change_pct"]}
                for name, rows in summary.items()
                for key, value in rows.items()
                if isinstance(value, dict) and value.get(check) is False]

    return {"regressions": failing("within_bound"),
            "unresolved": failing("resolved")}


def verdict(summary, claim):
    workload, metric = claim.split(":")
    row = summary[workload][metric]
    pairs = summary[workload]["pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "change_better_in": row["change_better_in"],
        "pairs": pairs,
        "median_gap": row["median_gap"],
        "parent_iqr": row["parent_iqr"],
        "met": (row["change_better_in"] >= math.ceil(0.9 * pairs)
                and row["median_gap"] > row["parent_iqr"]),
        **no_loss(summary),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="comma-separated seeds or ranges, e.g. 1301-1310")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim", help="WORKLOAD:METRIC of the claimed gain")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    spec = json.loads(git("show", f"{revs['change']}:BENCHMARK.json"))
    if args.claim:
        try:
            check_claim(args.claim, args.workload,
                        [m["name"] for m in spec["end_to_end"]])
        except ValueError as exc:
            parser.error(str(exc))
    result = {
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "pairing": ("alternating parent/change, parent first in even pairs; "
                    "each side a fresh git archive export without bytecode "
                    "cache, PYTHONDONTWRITEBYTECODE=1 on both"),
        **revs,
        "seeds": args.seeds,
        "env": {},
        "pairs": [],
        "summary": {},
        "regressions": [],
        "unresolved": [],
        "traced": {},
        "opcodes": {},
    }

    def save():
        args.out.write_text(json.dumps(result, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: export(rev, Path(tmp) / side)
                 for side, rev in revs.items()}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "pair": k, "seed": seed,
                        "first": order[0]}
                for side in order:
                    env, pair[side] = run_child(trees[side], workload, seed,
                                                args.seconds, 0)
                    result["env"].setdefault(workload, {})[side] = env
                pairs.append(pair)
                result["pairs"].append(pair)
                save()
                print(f"{workload} pair {k} seed {seed} done", flush=True)
            result["summary"][workload] = summarise(pairs, spec["end_to_end"])
            result.update(no_loss(result["summary"]))
            if args.trace_seed is not None:
                traced = {side: run_child(trees[side], workload,
                                          args.trace_seed, args.seconds, 1)[1]
                          for side in ("parent", "change")}
                result["traced"][workload] = {
                    m["name"]: {side: traced[side][m["name"]]
                                for side in ("parent", "change")}
                    for m in spec["per_layer"]}
                counts = {side: run_opcode_child(trees[side], workload,
                                                 args.trace_seed)
                          for side in ("parent", "change")}
                parent, change = (counts[side]["suites"]
                                  for side in ("parent", "change"))
                result["opcodes"][workload] = {
                    "seed": args.trace_seed,
                    **compare(counts["parent"]["opcodes"],
                              counts["change"]["opcodes"]),
                    "failed": {side: counts[side]["failed"]
                               for side in ("parent", "change")},
                    "suites": {cid: compare(parent.get(cid), change.get(cid))
                               for cid in {**parent, **change}},
                    "functions": {side: counts[side]["functions"]
                                  for side in ("parent", "change")},
                }
            save()
    if args.claim:
        result["verdict"] = verdict(result["summary"], args.claim)
        save()
        print(json.dumps(result["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
