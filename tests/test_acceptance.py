"""Acceptance gate: eight executable checks with pinned tolerances.

Each test computes its measurements, records a one-line scoreboard entry
(PASS/FAIL plus the measured numbers) before asserting, so a red run
still prints the full picture at the end of the session.  Expected
values live here and in fixtures/ — a change that moves a measurement
outside its pinned window must fail red rather than re-baseline itself.
"""

import json
import random
import time
from fractions import Fraction

from beattysieve import ProblemSpec
from beattysieve.cli import payload_bytes, run_config
from beattysieve.counting import (dec_str, direct_count, inv_zeta,
                                  mobius_count, theoretical_gamma,
                                  theoretical_gamma_star)
from beattysieve.equidist import (discrepancy_report, linear_sum_exact,
                                  monotone_check, nu_sequence,
                                  quadratic_bound, reciprocal_sum)
from beattysieve.realnum import golden_ratio, sqrt2, sqrt3

from conftest import (brute_extreme_discrepancy_1d, liouville_tau2,
                      record_acceptance)

COUNT_GRID = (100, 1000, 10_000, 100_000)
WALL_BUDGET_S = 600.0


def test_criterion_1_exact_route_agreement(matrix):
    """Both counting routes agree exactly across the benchmark matrix."""
    start = time.perf_counter()
    mismatches = []
    for idx, problem in enumerate(matrix):
        for x in COUNT_GRID:
            direct = direct_count(problem, x).count
            mobius = mobius_count(problem, x).count
            if direct != mobius:
                mismatches.append((idx, x, direct, mobius))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < WALL_BUDGET_S
    detail = (f"{len(matrix)} problems x sizes up to {COUNT_GRID[-1]:,}: "
              f"{len(mismatches)} route mismatches in {elapsed:.1f}s "
              f"(budget {WALL_BUDGET_S:.0f}s)")
    record_acceptance(1, "exact route agreement", ok, detail)
    assert mismatches == []
    assert elapsed < WALL_BUDGET_S


def _density_criterion(number, name, fx, zeta_s):
    problem = ProblemSpec(tuple(fx["alphas"]), tuple(fx["ms"]))
    target = inv_zeta(zeta_s)
    counts = [direct_count(problem, x).count for x in fx["grid"]]
    errors = [abs(Fraction(c, x) - target)
              for x, c in zip(fx["grid"], counts)]
    tol = Fraction(fx["tolerance"])
    strict = all(a > b for a, b in zip(errors, errors[1:]))
    endpoint = errors[0] > errors[-1]
    checks = {
        "target": dec_str(target, 30) == fx["target"],
        "counts": counts == fx["counts"],
        "final": errors[-1] < tol,
        "monotone": strict == fx["strictly_decreasing"],
        "endpoint": endpoint and fx["endpoint_decrease"],
    }
    detail = (f"counts {'match' if checks['counts'] else 'DIFFER from'} "
              f"frozen run; final abs err {dec_str(errors[-1], 3)} < "
              f"{fx['tolerance']} at x={fx['grid'][-1]:,}; error decrease "
              f"endpoint-to-endpoint but not strict (as frozen)"
              if strict == fx["strictly_decreasing"] and not strict
              else f"counts={counts}, errors strict={strict}")
    record_acceptance(number, name, all(checks.values()), detail)
    assert checks["target"], (dec_str(target, 30), fx["target"])
    assert counts == fx["counts"]
    assert errors[-1] < tol
    assert strict == fx["strictly_decreasing"]
    assert endpoint


def test_criterion_2_single_coordinate_density(density_goldens):
    """Single-multiplier density approaches 1/zeta(2) within 1e-2."""
    _density_criterion(2, "single-coordinate density",
                       density_goldens["single_sqrt2"], zeta_s=2)


def test_criterion_3_pair_density(density_goldens):
    """Two-coordinate density approaches 1/zeta(3) within 1e-2."""
    _density_criterion(3, "pair density",
                       density_goldens["pair_sqrt2_sqrt3"], zeta_s=3)


def test_criterion_4_error_exponents():
    """Closed-form error exponents reproduce the worked values exactly."""
    gamma_cases = [
        ((1,), Fraction(1), Fraction(1, 5)),
        ((1,), Fraction(3, 2), Fraction(2, 13)),
        ((1, 2), Fraction(1), Fraction(1, 16)),
        ((1, 3), Fraction(1), Fraction(1, 48)),
    ]
    star_cases = [
        ((1,), Fraction(1), Fraction(1)),
        ((1, 2), Fraction(1, 3), None),
        ((1, 2), Fraction(1, 4), Fraction(1, 6)),
    ]
    got_gamma = [theoretical_gamma(ms, tau) for ms, tau, _ in gamma_cases]
    got_star = [theoretical_gamma_star(ms, t) for ms, t, _ in star_cases]
    want_gamma = [w for *_, w in gamma_cases]
    want_star = [w for *_, w in star_cases]
    ok = got_gamma == want_gamma and got_star == want_star
    detail = ("gamma = 1/5, 2/13, 1/16, 1/48 and gamma* = 1, None, 1/6 "
              "reproduced exactly" if ok else
              f"gamma {got_gamma} vs {want_gamma}; "
              f"gamma* {got_star} vs {want_star}")
    record_acceptance(4, "error exponents", ok, detail)
    assert got_gamma == want_gamma
    assert got_star == want_star


def _suite_problem(entry) -> ProblemSpec:
    lower = entry["lower"]
    lower_terms = ()
    if lower is not None:
        lower_terms = tuple(None if g is None else tuple(g) for g in lower)
    return ProblemSpec(tuple(entry["alphas"]), tuple(entry["ms"]),
                       lower_terms)


def test_criterion_5_discrepancy_sandwich(lemma_constants):
    """Lower bound <= exact (dim 1) <= Erdős–Turán–Koksma bound, suite-wide."""
    et = lemma_constants["erdos_turan"]
    headroom = lemma_constants["rerun_headroom"]
    violations = []
    brute_gap = 0.0
    ratio = {}
    for entry in et["suite"]:
        k = len(entry["ms"])
        try:
            problem = _suite_problem(entry)
            ps = nu_sequence(problem, entry["d"], entry["N"])
            rep = discrepancy_report(ps, et["H"])
        except Exception as exc:  # construction enforces the sandwich
            violations.append((entry["alphas"], entry["N"], repr(exc)))
            continue
        if k == 1:
            if not rep.box_lower <= rep.exact <= rep.et_upper:
                violations.append((entry["alphas"], entry["N"], "order"))
            brute = brute_extreme_discrepancy_1d(ps.points[:, 0])
            brute_gap = max(brute_gap, abs(brute - rep.exact))
            lower = rep.exact
        else:
            if not rep.box_lower <= rep.et_upper:
                violations.append((entry["alphas"], entry["N"], "order"))
            lower = rep.box_lower
        ratio[k] = max(ratio.get(k, 0.0), lower / rep.et_upper)
    pinned = {int(k): v for k, v in et["max_lower_over_upper"].items()}
    r_ok = set(ratio) == set(pinned) and all(
        pinned[k] / headroom <= ratio[k] <= pinned[k] * headroom
        for k in ratio)
    ok = not violations and brute_gap < 1e-12 and r_ok
    detail = (f"{len(et['suite'])} point sets at H={et['H']}: "
              f"{len(violations)} ordering violations; exact vs "
              f"order-statistic brute force gap {brute_gap:.1e}; max "
              f"lower/upper {{1: {ratio.get(1, 0):.4f}, "
              f"2: {ratio.get(2, 0):.5f}}} within {headroom}x of frozen "
              f"{{1: {pinned[1]:.4f}, 2: {pinned[2]:.5f}}}")
    record_acceptance(5, "discrepancy sandwich", ok, detail)
    assert violations == []
    assert brute_gap < 1e-12
    assert set(ratio) == set(pinned)
    for k, value in ratio.items():
        assert pinned[k] / headroom <= value <= pinned[k] * headroom


def test_criterion_6_exponential_sum_bounds(lemma_constants):
    """Certified linear caps plus frozen quadratic/reciprocal ratios."""
    headroom = lemma_constants["rerun_headroom"]
    uncertified = 0
    total = 0
    for spec in (sqrt2(), sqrt3(), golden_ratio(), liouville_tau2()):
        for N in (100, 1000, 10_000):
            for h in range(1, 101):
                total += 1
                if not linear_sum_exact(spec, h, N).certified:
                    uncertified += 1

    quad = lemma_constants["quadratic_ratio_sq"]
    gq = quad["grid"]
    max_sq = 0.0
    for text in gq["alphas"]:
        for h in gq["h"]:
            for N in gq["N"]:
                rep = quadratic_bound(text, h, gq["d"], N)
                max_sq = max(max_sq, rep.ratio_sq)

    rec = lemma_constants["reciprocal_ratio"]
    gr = rec["grid"]
    max_ratio = 0.0
    for text in gr["alphas"]:
        for K in gr["K"]:
            for N in gr["N"]:
                rep = reciprocal_sum(text, K, N)
                max_ratio = max(max_ratio, rep.ratio)

    ok = (uncertified == 0 and max_sq < gq["ceiling"]
          and quad["max"] / headroom <= max_sq <= quad["max"] * headroom
          and rec["max"] / headroom <= max_ratio <= rec["max"] * headroom)
    detail = (f"linear: {uncertified}/{total} caps uncertified; quadratic "
              f"ratio^2 max {max_sq:.6f} (frozen {quad['max']:.6f}, ceiling "
              f"{gq['ceiling']:g}); reciprocal ratio max {max_ratio:.6f} "
              f"(frozen {rec['max']:.6f}); headroom {headroom}x")
    record_acceptance(6, "exponential sum bounds", ok, detail)
    assert uncertified == 0
    assert max_sq < gq["ceiling"]
    assert quad["max"] / headroom <= max_sq <= quad["max"] * headroom
    assert rec["max"] / headroom <= max_ratio <= rec["max"] * headroom


def test_criterion_7_monotone_lemmas():
    """Chain inequalities hold on hypothesis-satisfying samples."""
    rng = random.Random(20260815)
    samples = 10_000
    bad_uv = 0
    for _ in range(samples):
        u = rng.randint(1, 30)
        v = u * u + rng.randint(0, 100)       # hypothesis: v >= u^2
        M = rng.randint(2, 12)
        if not monotone_check(u, v, M, "u_over_v"):
            bad_uv += 1
    bad_vu = 0
    for _ in range(samples):
        v = rng.randint(1, 5)
        M = rng.randint(2, 8)
        u = v ** M + rng.randint(0, 1000)     # hypothesis: u >= v^M
        if not monotone_check(u, v, M, "v_over_u"):
            bad_vu += 1
    spot = [
        monotone_check(Fraction(5, 2), 7, 6, "u_over_v"),
        monotone_check(Fraction(53, 2), Fraction(3, 2), 8, "v_over_u"),
    ]
    ok = bad_uv == 0 and bad_vu == 0 and all(spot)
    detail = (f"{samples} samples per variant: {bad_uv} + {bad_vu} "
              f"violations; exact-rational spot checks "
              f"{'pass' if all(spot) else 'FAIL'}")
    record_acceptance(7, "monotone chain lemmas", ok, detail)
    assert bad_uv == 0
    assert bad_vu == 0
    assert all(spot)


def test_criterion_8_deterministic_reports(matrix):
    """Report payloads are byte-identical from run to run."""
    picks = [matrix[0], matrix[4], matrix[7], matrix[10]]
    problems = []
    for idx, problem in enumerate(picks):
        desc = problem.describe()
        raw = {"command": "count",
               "alphas": ",".join(desc["alphas"]),
               "ms": ",".join(str(m) for m in desc["ms"]),
               "x": "10000"}
        payloads = [payload_bytes(run_config(raw)) for _ in range(3)]
        if len(set(payloads)) != 1:
            problems.append(f"set {idx}: payload varies between runs")
        count = json.loads(payloads[0])["results"]["count"]
        mobius = run_config(dict(raw, method="mobius"))["results"]["count"]
        if mobius != count:
            problems.append(f"set {idx}: mobius {mobius} != direct {count}")
    ok = not problems
    detail = (f"{len(picks)} configs x 3 runs at x=10,000: payloads "
              f"byte-identical, independent route agrees" if ok
              else "; ".join(problems))
    record_acceptance(8, "deterministic reports", ok, detail)
    assert problems == []
