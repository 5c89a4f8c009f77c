#!/usr/bin/env python3
"""Regenerate the frozen fixture files under fixtures/.

Two files are produced, both deterministic given the package version:

* ``density_goldens.json`` — exact coprimality counts for the two
  benchmark density experiments, together with the observed relative
  errors against 1/zeta(k+1) and the observed monotonicity of the error
  sequence at decade spacing.  The counts are exact integers computed by
  the direct route and double-checked against the Moebius route.

* ``lemma_constants.json`` — empirically measured constants for the
  exponential-sum bound checks: the worst ratio-squared for the
  quadratic-sum bound, the worst exact/bound ratio for the reciprocal
  minimum sum, and, per dimension, the largest ratio of the discrepancy
  lower bound to the Erdos–Turan–Koksma upper bound across the
  50-point-set suite.
  Re-runs are expected to reproduce these within +1%.

Run from the repository root:

    python3 demos/regenerate_fixtures.py [--out-dir fixtures] [--workers N]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from fractions import Fraction

from beattysieve import (
    ProblemSpec,
    dec_str,
    direct_count,
    discrepancy_report,
    inv_zeta,
    mobius_count,
    nu_sequence,
    quadratic_bound,
    reciprocal_sum,
)
from beattysieve.realnum import LiouvilleSeries, golden_ratio, parse_real, sqrt2, sqrt3


def _alpha_texts(*specs) -> list[str]:
    return [s.text() for s in specs]


LIOUVILLE = LiouvilleSeries(2, "poly", Fraction(2), c1=2)

DENSITY_CASES = {
    "single_sqrt2": {
        "alphas": _alpha_texts(sqrt2()),
        "ms": [1],
        "grid": [10**3, 10**4, 10**5, 10**6],
        "tolerance": "1e-2",
    },
    "pair_sqrt2_sqrt3": {
        "alphas": _alpha_texts(sqrt2(), sqrt3()),
        "ms": [1, 2],
        "grid": [10**2, 10**3, 10**4, 10**5],
        "tolerance": "1e-2",
    },
}

QUADRATIC_GRID = {
    "alphas": _alpha_texts(sqrt2(), sqrt3(), golden_ratio()),
    "h": list(range(1, 11)),
    "N": [50, 200, 1000],
    "d": 1,
    "ceiling": 16.0,
}

RECIPROCAL_GRID = {
    "alphas": _alpha_texts(sqrt2(), sqrt3(), golden_ratio(), LIOUVILLE),
    "K": [10, 100, 1000],
    "N": [10, 100],
}

ET_H = 20


def sandwich_suite() -> list[dict]:
    """The 50 deterministic point sets used for the discrepancy sandwich."""
    singles = _alpha_texts(sqrt2(), sqrt3(), golden_ratio(), LIOUVILLE)
    suite = []
    for alpha in singles:
        for d in (1, 2, 3):
            for n in (128, 1000):
                suite.append({"alphas": [alpha], "ms": [1], "d": d, "N": n,
                              "lower": None})
    s2, s3, phi = _alpha_texts(sqrt2(), sqrt3(), golden_ratio())
    pairs = [
        ([s2, s3], [1, 2]), ([s3, phi], [1, 2]), ([phi, s2], [1, 2]),
        ([s2, phi], [1, 3]), ([s3, s2], [1, 3]), ([phi, s3], [1, 3]),
    ]
    for alphas, ms in pairs:
        for d in (1, 2):
            for n in (200, 1000):
                suite.append({"alphas": alphas, "ms": ms, "d": d, "N": n,
                              "lower": None})
    for n in (200, 1000):
        suite.append({"alphas": [s2, s3], "ms": [1, 2], "d": 1, "N": n,
                      "lower": [None, ["1/2"]]})
    assert len(suite) == 50
    return suite


def build_problem(entry: dict) -> ProblemSpec:
    alphas = tuple(parse_real(t) for t in entry["alphas"])
    lower = entry.get("lower")
    return ProblemSpec(alphas, tuple(entry["ms"]),
                       () if lower is None else tuple(
                           None if e is None else tuple(e) for e in lower))


def density_goldens(workers: int) -> dict:
    out = {}
    for name, case in DENSITY_CASES.items():
        problem = build_problem(case)
        target = inv_zeta(problem.ms[-1] + 1)
        counts, rel_errors = [], []
        for x in case["grid"]:
            res = direct_count(problem, x, workers=workers)
            counts.append(res.count)
            rel_errors.append(abs(Fraction(res.count, x) - target))
        # cross-check the smallest grid point through the Moebius route
        x0 = case["grid"][0]
        assert mobius_count(problem, x0).count == counts[0], name
        decreasing = all(a > b for a, b in zip(rel_errors, rel_errors[1:]))
        out[name] = dict(
            case,
            counts=counts,
            target=dec_str(target, 30),
            rel_errors=[dec_str(e, 15) for e in rel_errors],
            final_error=dec_str(rel_errors[-1], 15),
            final_within_tolerance=rel_errors[-1] < Fraction(1, 100),
            strictly_decreasing=decreasing,
            endpoint_decrease=rel_errors[0] > rel_errors[-1],
        )
        print(f"  {name}: counts={counts} strictly_decreasing={decreasing}")
    return out


def lemma_constants() -> dict:
    worst_q, where_q = 0.0, None
    g = QUADRATIC_GRID
    for alpha in g["alphas"]:
        spec = parse_real(alpha)
        for h in g["h"]:
            for n in g["N"]:
                rep = quadratic_bound(spec, h, g["d"], n)
                if rep.ratio_sq > worst_q:
                    worst_q, where_q = rep.ratio_sq, {"alpha": alpha, "h": h,
                                                      "N": n}
    print(f"  quadratic: max ratio_sq={worst_q:.6f} at {where_q}")

    worst_r, where_r = 0.0, None
    g = RECIPROCAL_GRID
    for alpha in g["alphas"]:
        spec = parse_real(alpha)
        for k in g["K"]:
            for n in g["N"]:
                rep = reciprocal_sum(spec, k, n)
                ratio = rep.ratio
                if ratio > worst_r:
                    worst_r, where_r = ratio, {"alpha": alpha, "K": k, "N": n,
                                               "q": rep.q}
    print(f"  reciprocal: max ratio={worst_r:.6f} at {where_r}")

    suite = sandwich_suite()
    ratio = {1: 0.0, 2: 0.0}
    for entry in suite:
        problem = build_problem(entry)
        ps = nu_sequence(problem, entry["d"], entry["N"])
        rep = discrepancy_report(ps, ET_H)
        lower = float(rep.exact) if rep.exact is not None else rep.box_lower
        # how much of the Erdos-Turan-Koksma bound the witness reaches
        ratio[problem.k] = max(ratio[problem.k], lower / rep.et_upper)
    print(f"  erdos-turan-koksma: max lower/upper (k=1)={ratio[1]:.6f} "
          f"(k=2)={ratio[2]:.6f}")

    return {
        "quadratic_ratio_sq": {"max": worst_q, "at": where_q,
                               "grid": QUADRATIC_GRID},
        "reciprocal_ratio": {"max": worst_r, "at": where_r,
                             "grid": RECIPROCAL_GRID},
        "erdos_turan": {
            "H": ET_H,
            "suite": suite,
            "max_lower_over_upper": {str(k): v for k, v in ratio.items()},
        },
        "rerun_headroom": 1.01,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="fixtures")
    parser.add_argument("--workers", type=int,
                        default=min(8, os.cpu_count() or 1))
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    t0 = time.perf_counter()
    print("density goldens:")
    goldens = density_goldens(args.workers)
    print("lemma constants:")
    constants = lemma_constants()

    for name, payload in (("density_goldens.json", goldens),
                          ("lemma_constants.json", constants)):
        path = os.path.join(args.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    print(f"done in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
