"""The three benchmark workloads: closure, algebra and campaign.

A workload turns a seed into a list of passes.  A pass is a fixed batch of
operations ("ops"); every op ends in an exact verdict.  The runner times
the passes, so `wall_s` (their total) and the op latencies describe the
same amount of work on every commit.

Every workload times pinned inputs, so that a run's medians move with
the program and the machine and not with the seed: op costs spread widely
with the inputs (a family pair costs from 10 ms to 700 ms).
`closure` and `algebra` pin the content of pass k and let the seed pick
the order of the passes; `campaign` runs pinned configurations, in a
fixed order.  Inputs are generated during set-up, except that campaign
suites sample inside the runner exactly as the command line tool does.

An op is correct when it returns True.  It fails when it returns anything
else or raises; raising the exception a law expects is handled inside the
op and is not a failure.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

from supersphere import campaign
from supersphere import matrixalgebra as msa
from supersphere import nsalgebra as ns
from supersphere import spheres
from supersphere.grassmann import NotInvertible, Supernumber
from supersphere.randgen import Sampler


@dataclass
class Op:
    label: str
    seconds: float
    error: str | None = None


def timed(label, check, *args):
    """Run one op; a False result or an exception makes it a failed op."""
    start = perf_counter()
    try:
        ok = check(*args)
        error = None if ok is True else "wrong result"
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        error = f"{type(exc).__name__}: {exc}"
    return Op(label, perf_counter() - start, error)


# ---------------------------------------------------------------------------
# closure: acceptance criterion 3, family pairs for twists -4..4
# ---------------------------------------------------------------------------

TWISTS = tuple(range(-4, 5))
CLOSURE_L = 6


def family_pair(n, p1, p2):
    """Compose two family members; the composite must rebuild exactly."""
    first = spheres.SphereAutomorphism.build(p1)
    second = spheres.SphereAutomorphism.build(p2)
    composite = second.compose(first)  # parameter recovery happens inside
    rebuilt = spheres.SphereAutomorphism.build(composite.params)
    return composite.params.n == n and rebuilt == composite


def map_pair(m1, m2):
    return m2.compose(m1).check().ok


class _OpLists:
    """Passes that are lists of (label, check, *args) ops."""

    min_passes = 1

    def run_pass(self, ops, between=None):
        """Run every op; `between` is called after each one."""
        done = []
        for label, check, *args in ops:
            done.append(timed(label, check, *args))
            if between is not None:
                between()
        return done


class Closure(_OpLists):
    """Acceptance criterion 3's own inputs, in an order the seed picks.

    Pair k of twist n is the k-th pair criterion 3 draws from
    Random(1030 + n), and map pair k the k-th it draws from Random(103).
    A pair costs from about 10 ms to 700 ms depending on its parameters, so
    fresh random pairs for every seed would move a run's median and p90 by
    more than a regression bound; every run therefore times the same pairs,
    as the acceptance test does.
    """

    name = "closure"
    nominal_pass_s = 1.6     # one pass on a 2-core x86 box, CPython 3.11
    tail_percentile = 90     # 10 ops a pass: ten beyond p90 from 10 passes

    def warm_up(self, seed):
        s = Sampler(random.Random("closure:warm-up"), CLOSURE_L)
        return [timed("family n=1", family_pair, 1,
                      s.automorphism_params(1), s.automorphism_params(1))]

    def make_passes(self, seed, count):
        samplers = {n: Sampler(random.Random(1030 + n), CLOSURE_L)
                    for n in TWISTS}
        maps = Sampler(random.Random(103), CLOSURE_L)
        passes = []
        for _ in range(count):
            ops = [(f"family n={n}", family_pair, n,
                    s.automorphism_params(n), s.automorphism_params(n))
                   for n, s in samplers.items()]
            ops.append(("map pair", map_pair,
                        maps.superconformal_map(), maps.superconformal_map()))
            passes.append(ops)
        random.Random(f"{seed}:order").shuffle(passes)
        return passes


# ---------------------------------------------------------------------------
# algebra: Grassmann laws at L=6 and L=8, NS and matrix algebra checks
# ---------------------------------------------------------------------------

GRASSMANN_TERMS = 32
ALGEBRA_BAND = 3
TABLES = {
    "osp": msa.osp_table,
    "p+": lambda: msa.p_table(+1),
    "p-": lambda: msa.p_table(-1),
}
SEMIDIRECT_TWISTS = (2, 3, -2, -3)
# only these mismatches mean the NS side itself is wrong; others are
# discrepancies that criterion 9 records without failing
_NS_SIDE_BROKEN = ("no central term", "bracket inside the span")


def grassmann_law(x, y, z):
    """Associativity, distributivity and the two-sided inverse."""
    if (x * y) * z != x * (y * z):
        return False
    if x * (y + z) != x * y + x * z:
        return False
    if x.body():
        inv = x.inverse()
        one = Supernumber.one(x.L)
        return x * inv == one and inv * x == one
    try:
        x.inverse()
    except NotInvertible:
        return True
    return False


def jacobi(u, v, w):
    return ns.jacobi_defect(u, v, w).is_zero()


def representation(u, v):
    return all(piece.is_zero() for piece in ns.representation_defect(u, v))


def _ns_side_ok(outcome):
    return not any(item["expected"] in _NS_SIDE_BROKEN
                   for item in outcome["mismatches"])


def table(label):
    outcome = msa.verify_table(TABLES[label]())
    return outcome["injective"] and _ns_side_ok(outcome)


def semidirect(n):
    return _ns_side_ok(msa.GnSemidirect(n).verify())


class Algebra(_OpLists):
    """Pass k is drawn from Random(f"algebra:{k}"); the seed orders passes."""

    name = "algebra"
    nominal_pass_s = 0.5
    tail_percentile = 95     # 122 ops a pass: ten beyond p95 from 2 passes
    # per pass: 40 + 40 Grassmann samples, 30 Jacobi triples, 10
    # representation pairs, one table and one semidirect tower.  The
    # Grassmann samples are two thirds of the ops, so the median op is one
    # of them, and the two halves take about the same time.
    grassmann_per_L = 40
    jacobi_per_pass = 30
    representation_per_pass = 10

    def __init__(self):
        self.keys = ns.band_symbols(ALGEBRA_BAND)

    def _basis(self, rng):
        return ns.NSElement.basis(self.keys[rng.randrange(len(self.keys))])

    def warm_up(self, seed):
        s = Sampler(random.Random("algebra:warm-up"), 8)
        return [timed("grassmann L=8", grassmann_law,
                      s.supernumber(GRASSMANN_TERMS),
                      s.supernumber(GRASSMANN_TERMS),
                      s.supernumber(GRASSMANN_TERMS))]

    def make_passes(self, seed, count):
        passes = [self._make_pass(k) for k in range(count)]
        random.Random(f"{seed}:order").shuffle(passes)
        return passes

    def _make_pass(self, k):
        rng = random.Random(f"algebra:{k}")
        ops = []
        for L in (6, 8):
            s = Sampler(rng, L)
            for _ in range(self.grassmann_per_L):
                ops.append((f"grassmann L={L}", grassmann_law,
                            s.supernumber(GRASSMANN_TERMS),
                            s.supernumber(GRASSMANN_TERMS),
                            s.supernumber(GRASSMANN_TERMS)))
        for _ in range(self.jacobi_per_pass):
            ops.append(("jacobi", jacobi, self._basis(rng), self._basis(rng),
                        self._basis(rng)))
        for _ in range(self.representation_per_pass):
            ops.append(("representation", representation, self._basis(rng),
                        self._basis(rng)))
        label = sorted(TABLES)[rng.randrange(len(TABLES))]
        ops.append((f"table {label}", table, label))
        n = SEMIDIRECT_TWISTS[rng.randrange(len(SEMIDIRECT_TWISTS))]
        ops.append((f"semidirect n={n}", semidirect, n))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# campaign: the runner on pinned configurations; one op is one suite
# ---------------------------------------------------------------------------

# The default campaign takes about 80 s on a 2-core x86 box, so a pass runs a
# scaled configuration with the default's suites (all twists -4..4) and
# about the default's time shares: the sphere suites scale with `samples`,
# while the NS and matrix suites cost the same at any `samples`, so
# `samples` is cut only to 5 and `band` to 1.  Users run the campaign on a
# pinned configuration and compare report bytes, so this workload does the
# same: pass k runs the k-th pinned seed and checks the sha256 of its
# report.  The seed does not change these inputs: a campaign's cost depends
# on the parameters it samples (at samples=2, seeds cost from 4 s to 9 s),
# too wide a spread for steady figures if the seed picked the campaign.
CAMPAIGN_SCALE = dict(generators=6, band=1, flow_order=8,
                      n_range=tuple(range(-4, 5)), samples=5)
CAMPAIGN_SHA256 = {
    20100217: "9fcf14c7dce822b49873fd082906a6b786b41618f177d9940cda1e9e94ee9f95",
    20100218: "8b2a2c0510ba2141d2061641b6c410c4871527ce5bc9b3cf555de54c79a22681",
}
WARM_UP_SUITE = "spheres.transition"


def _suite_passes(cfg, cid):
    _, suite = campaign.registry(cfg)[cid]
    return suite(cfg, random.Random(f"{cfg.seed}:{cid}")).status == "pass"


class Campaign:
    name = "campaign"
    nominal_pass_s = 18
    min_passes = len(CAMPAIGN_SHA256)   # every pinned report once
    tail_percentile = 87      # 2 x 39 suites: ten beyond p87

    def config(self, seed):
        return campaign.CampaignConfig(seed=seed, timings=True,
                                       **CAMPAIGN_SCALE)

    def warm_up(self, seed):
        cfg = self.config(min(CAMPAIGN_SHA256))
        return [timed(f"suite {WARM_UP_SUITE}", _suite_passes, cfg,
                      WARM_UP_SUITE)]

    def make_passes(self, seed, count):
        pinned = list(CAMPAIGN_SHA256)
        return [self.config(pinned[k % len(pinned)]) for k in range(count)]

    def run_pass(self, cfg, between=None):
        """Run one campaign; `between` is called before each suite.

        It is slipped in by wrapping the runner's `_run_one` for the pass;
        a runner without `_run_one` runs with nothing between its suites.
        """
        expected = list(campaign.registry(cfg))
        run_one = getattr(campaign, "_run_one", None)

        def between_suites(*args):
            between()
            return run_one(*args)

        if between is not None and run_one is not None:
            campaign._run_one = between_suites
        try:
            report = campaign.run_campaign(cfg)
        except Exception as exc:  # one raising suite loses the whole pass
            error = f"{type(exc).__name__}: {exc}"
            return [Op(cid, 0.0, error) for cid in expected]
        finally:
            if run_one is not None:
                campaign._run_one = run_one
        ops = []
        for record in report["checks"]:
            seconds = record.pop("elapsed_ms") / 1000
            error = None if record["status"] != "fail" else "law failed"
            ops.append(Op(record["id"], seconds, error))
        # the bytes --report writes, once the timing fields are stripped
        digest = hashlib.sha256(campaign.report_bytes(report)).hexdigest()
        if [op.label for op in ops] != expected:
            ops.append(Op("report", 0.0, "suites missing from the report"))
        elif report["summary"]["failed"] != 0:
            ops.append(Op("report", 0.0, "summary counts failures"))
        elif digest != CAMPAIGN_SHA256[cfg.seed]:
            ops.append(Op("report", 0.0, f"report sha256 {digest} differs "
                                         f"from the pinned one"))
        return ops


WORKLOADS = {w.name: w for w in (Closure, Algebra, Campaign)}
