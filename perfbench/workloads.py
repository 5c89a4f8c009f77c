"""The benchmark's workloads: jobs built from a seed, each with its check.

A job is one CLI invocation (config text -> parse -> run -> serialize) or,
where the CLI cannot express the problem, one library call.  A check
compares the job's exact outputs with pinned values or an independent
oracle and tests the invariants the report promises.  It returns a list
of problems, empty when the output is correct.

Why each workload exists (ROADMAP items 2-5 are the optimisations it is
meant to expose or to bypass):

count-direct   quadratic surds, exponents <= 2, no lower-order terms.
               Nearly all time is the per-n certified floor loop of
               direct_count; the sieve, inner_count, equidist and dioph
               are never touched.  The pair's x = 10^6 density point is
               the single-process baseline for the workers=2 count.
count-routes   both exact routes at x = 10^5 on a mixed problem set:
               n^m beyond 64 bits, multi-term brackets, Liouville
               multipliers.  Carries the whole Moebius route and the
               regime where a 64-bit fast path would fall back.
analysis       discrepancy, weyl, dioph and bounds jobs that never reach
               the counting routes: the bypass for every counting change
               and the target of the reciprocal-sum and ETK-bound work.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from beattysieve import cli, counting
from beattysieve.counting import ProblemSpec
from beattysieve.realnum import parse_real

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "fixtures" / "density_goldens.json"

WORKLOADS = ("count-direct", "count-routes", "analysis")
COMMANDS = ("count_direct", "count_mobius", "density", "discrepancy",
            "weyl", "dioph", "bounds")

# sqrt(d) whose continued fractions pass q = 10^300 after 691-726
# convergents, so the seed changes which surd is measured but not how
# much work the dioph job does (sqrt(26) needs 299 convergents, sqrt(3)
# needs 1050).
SURD_POOL = (19, 22, 23, 29, 31, 33, 45, 57, 61, 75, 76, 86, 88, 92, 94)
SQRT2 = "surd:(0+1*sqrt(2))/1"
SQRT3 = "surd:(0+1*sqrt(3))/1"
# The fixture's pair grid stops at 10^5; this is the pair's count at 10^6.
PAIR_AT_1E6 = 832462
# c_1 = 2, c_{j+1} = max(c_j + 1, floor(c_j^tau)); sum of 2^-c_j.
LIOUVILLE_COUNT = "liouville:base=2,rule=poly,tau=2,c1=2,depth=8"
LIOUVILLE_DIOPH = "liouville:base=2,rule=poly,tau=3/2,c1=2,depth=8"
DENSITY_GRID = (1000, 10_000, 100_000, 1_000_000)
ROUTES_X = 100_000
DIOPH_MAX_Q = 10 ** 300


@dataclass
class Job:
    name: str
    command: str                       # one of COMMANDS
    config: Optional[str] = None       # key=value text of a CLI job
    call: Optional[Callable] = None    # library call returning a CountResult
    check: Callable = field(default=lambda payload, done: [])
    pooled: bool = False               # runs worker processes


def surd(d: int) -> str:
    return f"surd:(0+1*sqrt({d}))/1"


def config_text(**keys) -> str:
    return "".join(f"{k}={v}\n" for k, v in keys.items())


def run_job(job: Job):
    """Run one job as the CLI would; returns (results payload, payload bytes).

    Library entry points are looked up on their modules at call time, so
    a tracer that patched those modules sees the calls.
    """
    if job.config is None:
        res = job.call()
        payload = {"x": res.x, "count": res.count, "method": res.method}
        return payload, json.dumps(payload, sort_keys=True).encode()
    report = cli.run_config(cli.parse_config_text(job.config))
    cli.report_json(report)
    return report["results"], cli.payload_bytes(report)


# ---------------------------------------------------------------------------
# checks


def _density_check(expected):
    def check(p, done):
        if p["counts"] != list(expected):
            return [f"counts {p['counts']} != pinned {list(expected)}"]
        return []
    return check


def _count_check(x, pinned=None, agrees_with=None):
    def check(p, done):
        errs = []
        if not 0 <= p["count"] <= x:
            errs.append(f"count {p['count']} outside [0, {x}]")
        if pinned is not None and p["count"] != pinned:
            errs.append(f"count {p['count']} != pinned {pinned}")
        if agrees_with is not None:
            other = done.get(agrees_with)
            if other is None or other["count"] != p["count"]:
                got = None if other is None else other["count"]
                errs.append(f"mobius {p['count']} != direct {got}")
        return errs
    return check


def _dioph_check(expected_fn):
    def check(p, done):
        convs = p["convergents"]
        got = [(c["a"], c["q"]) for c in convs]
        errs = []
        if got != expected_fn():
            errs.append("convergents differ from the oracle")
        qs = [q for _, q in got]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            errs.append("denominators not strictly increasing")
        if any(Decimal(c["quality_lo"]) > Decimal(c["quality_hi"])
               for c in convs):
            errs.append("quality enclosure has lo > hi")
        return errs
    return check


def _discrepancy_check(p, done):
    lower, exact, upper = p["box_lower"], p["exact"], p["et_upper"]
    if exact is None:
        return [] if lower <= upper else ["box_lower > et_upper"]
    return [] if lower <= exact <= upper else \
        ["box_lower <= exact <= et_upper broken"]


def _sum_check(p, done):
    """|S| of an N-term exponential sum lies in [0, N + rounding budget]."""
    n = p["N"]
    budget = p.get("error_bound", p.get("sum_error_bound"))
    mag = p.get("magnitude", p.get("actual"))
    return [] if 0 <= mag <= n + budget else [f"|S| = {mag} outside [0, N]"]


def _reciprocal_check(p, done):
    lo, hi = p["enclosure"]
    return [] if lo <= p["exact_sum"] <= hi else ["exact_sum outside enclosure"]


def _linear_check(p, done):
    errs = []
    if p["value"] != 3 * 1000 / 12 + 12:
        errs.append(f"linear bound {p['value']} != 262")
    if p["exact_check"]["certified"] is not True:
        errs.append("linear reciprocal cap not certified")
    return errs


def _monotone_check(p, done):
    return [] if p["nondecreasing"] is True else ["monotone check not True"]


# ---------------------------------------------------------------------------
# oracles for the dioph jobs, independent of the package's enclosures


def _sqrt_cf(d: int):
    """Partial quotients of sqrt(d) by the exact periodic recurrence."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    while True:
        yield a
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den


def _euclid(fr: Fraction):
    num, den = fr.numerator, fr.denominator
    while den:
        a, rem = divmod(num, den)
        yield a
        num, den = den, rem


def _liouville_cf(tau: Fraction, c1: int, bits: int):
    """Partial quotients of sum 2^-c_j certified to `bits` bits.

    The series lies in [S, S + 2^-bits] for S the sum over c_j <= bits,
    so the quotients shared by both ends belong to the true value.
    """
    p, q = tau.numerator, tau.denominator
    exps = [c1]
    while True:
        nxt = max(exps[-1] + 1, _iroot(exps[-1] ** p, q))
        if nxt > bits:
            break
        exps.append(nxt)
    lo = sum(Fraction(1, 1 << c) for c in exps)
    for a, b in zip(_euclid(lo), _euclid(lo + Fraction(1, 1 << bits))):
        if a != b:
            return
        yield a


def _iroot(n: int, k: int) -> int:
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def convergent_pairs(quotients, max_q: int) -> list:
    """(a, q) for every convergent with q <= max_q.

    Follows the package's convention: when the zeroth and first
    convergents both have q = 1, the zeroth is dropped.  Raises when the
    quotients run out before the denominators pass max_q.
    """
    pairs = []
    p_prev, q_prev, p_cur, q_cur = 1, 0, None, None
    for j, a in enumerate(quotients):
        if j == 0:
            p_cur, q_cur = a, 1
        else:
            p_cur, q_cur, p_prev, q_prev = (a * p_cur + p_prev,
                                            a * q_cur + q_prev, p_cur, q_cur)
        if q_cur > max_q:
            if len(pairs) >= 2 and pairs[0][1] == pairs[1][1] == 1:
                pairs = pairs[1:]
            return pairs
        pairs.append((p_cur, q_cur))
    raise ValueError("oracle quotients ended before max_q")


# ---------------------------------------------------------------------------
# workload builders


def _pinned_density() -> dict:
    """Exact density counts by experiment name and x, from the fixture."""
    with open(GOLDENS, encoding="utf-8") as fh:
        gold = json.load(fh)
    out = {name: dict(zip(entry["grid"], entry["counts"]))
           for name, entry in gold.items()}
    out["pair_sqrt2_sqrt3"].setdefault(10 ** 6, PAIR_AT_1E6)
    return out


def _count_direct() -> list:
    pinned = _pinned_density()
    grid = ",".join(map(str, DENSITY_GRID))
    pair = pinned["pair_sqrt2_sqrt3"]
    single = pinned["single_sqrt2"]
    return [
        Job("density pair_sqrt2_sqrt3", "density",
            config_text(command="density", alphas=f"{SQRT2},{SQRT3}",
                        ms="1,2", grid=grid, workers=1),
            check=_density_check([pair[x] for x in DENSITY_GRID])),
        Job("density single_sqrt2", "density",
            config_text(command="density", alphas=SQRT2, ms="1",
                        grid=grid, workers=1),
            check=_density_check([single[x] for x in DENSITY_GRID])),
        Job("count direct pair x=1e6 workers=2", "count_direct",
            config_text(command="count", alphas=f"{SQRT2},{SQRT3}",
                        ms="1,2", x=10 ** 6, method="direct", workers=2),
            check=_count_check(10 ** 6, pinned=pair[10 ** 6]), pooled=True),
    ]


def _count_routes(rng: random.Random) -> list:
    x = ROUTES_X
    pinned_pair = _pinned_density()["pair_sqrt2_sqrt3"][x]
    picks = rng.sample(SURD_POOL, 6)
    liouville = parse_real(LIOUVILLE_COUNT)
    cli_problems = [
        ("pair", dict(alphas=f"{SQRT2},{SQRT3}", ms="1,2"), pinned_pair),
        ("three (1,2,4)", dict(alphas=",".join(surd(d) for d in picks[:3]),
                               ms="1,2,4"), None),
        ("two (1,3)", dict(alphas=",".join(surd(d) for d in picks[3:5]),
                           ms="1,3"), None),
        ("pair lower_2", dict(alphas=f"{SQRT2},{SQRT3}", ms="1,2",
                              lower_2=f"1/2,{SQRT2}"), None),
    ]
    jobs = []
    for label, keys, pinned in cli_problems:
        for method in ("direct", "mobius"):
            agrees = f"{label} direct" if method == "mobius" else None
            jobs.append(Job(
                f"{label} {method}", f"count_{method}",
                config_text(command="count", x=x, method=method, **keys),
                check=_count_check(x, pinned, agrees)))
    # The CLI splits alphas= on commas, so Liouville multipliers are
    # counted through the library.
    lib_problems = [
        ("liouville", ProblemSpec((liouville,), (1,))),
        ("liouville+surd (1,2)",
         ProblemSpec((liouville, parse_real(surd(picks[5]))), (1, 2))),
    ]
    for label, problem in lib_problems:
        jobs.append(Job(f"{label} direct", "count_direct",
                        call=lambda pr=problem: counting.direct_count(pr, x),
                        check=_count_check(x)))
        jobs.append(Job(f"{label} mobius", "count_mobius",
                        call=lambda pr=problem: counting.mobius_count(pr, x),
                        check=_count_check(x, None, f"{label} direct")))
    return jobs


def _analysis(rng: random.Random, seed: int) -> list:
    a, b, c, d, e = rng.sample(SURD_POOL, 5)
    pair = f"{surd(a)},{surd(b)}"
    return [
        Job("discrepancy k=2 d=3 n=2000 h=20 (sampled boxes)", "discrepancy",
            config_text(command="discrepancy", alphas=pair, ms="1,2", d=3,
                        n=2000, h=20, seed=seed),
            check=_discrepancy_check),
        Job("discrepancy k=1 n=20000", "discrepancy",
            config_text(command="discrepancy", alphas=surd(c), ms="1",
                        n=20000),
            check=_discrepancy_check),
        Job("weyl k=2 d=3 n=20000", "weyl",
            config_text(command="weyl", alphas=pair, ms="1,2", d=3,
                        n=20000, h="1,1"),
            check=_sum_check),
        Job("dioph surd max_q=1e300", "dioph",
            config_text(command="dioph", alpha=surd(d), max_q=DIOPH_MAX_Q),
            check=_dioph_check(functools.cache(
                lambda: convergent_pairs(_sqrt_cf(d), DIOPH_MAX_Q)))),
        Job("dioph liouville mode=exp max_q=1e300", "dioph",
            config_text(command="dioph", alpha=LIOUVILLE_DIOPH,
                        max_q=DIOPH_MAX_Q, mode="exp"),
            check=_dioph_check(functools.cache(lambda: convergent_pairs(
                _liouville_cf(Fraction(3, 2), 2, 8192),
                DIOPH_MAX_Q)))),
        Job("bounds reciprocal k=n=3000", "bounds",
            config_text(command="bounds", bound="reciprocal", alpha=surd(e),
                        k=3000, n=3000),
            check=_reciprocal_check),
        Job("bounds quadratic n=2000", "bounds",
            config_text(command="bounds", bound="quadratic", alpha=surd(e),
                        h=1, n=2000),
            check=_sum_check),
        Job("bounds poly_sum n=5000", "bounds",
            config_text(command="bounds", bound="poly_sum", alpha=surd(e),
                        m=2, h=1, n=5000),
            check=_sum_check),
        Job("bounds linear with alpha", "bounds",
            config_text(command="bounds", bound="linear", q=12, h=3, n=1000,
                        alpha=surd(e)),
            check=_linear_check),
        Job("bounds monotone", "bounds",
            config_text(command="bounds", bound="monotone", u=2, v=4,
                        m_max=6, variant="u_over_v"),
            check=_monotone_check),
    ]


def build(workload: str, seed: int) -> list:
    """The workload's jobs, ready to run: every config parsed and every
    ProblemSpec built once, as a CLI run would before computing."""
    rng = random.Random(seed)
    if workload == "count-direct":
        jobs = _count_direct()
    elif workload == "count-routes":
        jobs = _count_routes(rng)
    elif workload == "analysis":
        jobs = _analysis(rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        if job.config is not None:
            raw = cli.parse_config_text(job.config)
            if "alphas" in raw:
                cli.build_problem(cli._Config(raw))
    return jobs
