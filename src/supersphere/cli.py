"""Command line entry point for the verification campaign.

    supersphere --generators 6 --band 3 --samples 50 --seed 7 --report out.json
    supersphere --check ns.jacobi
    supersphere --list

Exit codes: 0 all checks pass, 1 at least one failure, 2 usage error,
3 no failure but at least one suite raised an error (recorded in the
report with status "error"; the other suites still run).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .campaign import (
    CampaignConfig,
    UsageError,
    registry,
    report_bytes,
    run_campaign,
)


def parse_n_range(text):
    """Parse '-4..4' or a comma list like '-2,0,3' into a tuple of ints."""
    text = text.strip()
    try:
        if ".." not in text:
            return tuple(int(part) for part in text.split(",") if part.strip())
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad twist range {text!r}") from exc
    if hi < lo:
        raise UsageError(f"empty twist range {text!r}")
    return tuple(range(lo, hi + 1))


def build_parser():
    defaults = CampaignConfig()
    parser = argparse.ArgumentParser(
        prog="supersphere",
        description="Exact verification campaign for N=2 superconformal "
                    "sphere geometry and the Neveu-Schwarz algebra.",
    )
    parser.add_argument("--generators", type=int, default=defaults.generators,
                        metavar="L",
                        help="Grassmann generator count (minimum 4)")
    parser.add_argument("--band", type=int, default=defaults.band,
                        help="index band for algebra-wide checks")
    parser.add_argument("--flow-order", type=int, default=defaults.flow_order,
                        help="truncation order for formal flow parameters "
                             "(minimum 2)")
    parser.add_argument("--n-range", type=str,
                        default=",".join(map(str, defaults.n_range)),
                        metavar="LO..HI",
                        help="sphere twists to cover, e.g. -4..4 or -2,0,2")
    parser.add_argument("--samples", type=int, default=defaults.samples,
                        help="random samples per suite")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="campaign seed; reports are deterministic in it")
    parser.add_argument("--report", type=str, default=None, metavar="PATH",
                        help="write the JSON report here")
    parser.add_argument("--check", type=str, default=None, metavar="ID",
                        help="run a single registered check")
    parser.add_argument("--timings", action="store_true",
                        help="include each suite's wall-clock time, taken "
                             "while other suites run in parallel, in the "
                             "report (breaks byte-for-byte determinism)")
    parser.add_argument("--list", action="store_true", dest="list_checks",
                        help="list registered check ids and exit")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = {f.name: getattr(args, f.name) for f in fields(CampaignConfig)}
        values["n_range"] = parse_n_range(args.n_range)
        cfg = CampaignConfig(**values)
        cfg.validate()
        if args.list_checks:
            for cid, (law, _) in registry(cfg).items():
                print(f"{cid:32s} {law}")
            return 0
        report = run_campaign(cfg, only=args.check)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    for record in report["checks"]:
        marker = {"pass": "PASS", "fail": "FAIL", "discrepancies": "NOTE",
                  "error": "ERROR"}[record["status"]]
        line = f"{marker} {record['id']} ({record['samples']} samples)"
        if record["failures"]:
            line += f" failures: {[f['law'] for f in record['failures']]}"
        if record["discrepancies"]:
            line += f" discrepancies: {len(record['discrepancies'])}"
        if "error" in record:
            line += f" {record['error']['type']}: {record['error']['message']}"
        print(line)
    summary = report["summary"]
    line = f"{summary['total']} checks, {summary['failed']} failed"
    if "errors" in summary:
        line += f", {summary['errors']} raised an error"
    print(line)

    if args.report:
        try:
            with open(args.report, "wb") as handle:
                handle.write(report_bytes(report))
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    if summary["failed"]:
        return 1
    return 3 if "errors" in summary else 0


if __name__ == "__main__":
    sys.exit(main())
