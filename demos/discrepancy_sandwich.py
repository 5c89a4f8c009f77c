#!/usr/bin/env python3
"""Discrepancy of the fractional-part sequences behind the sieve.

For each divisor d the Moebius route counts how often a vector of
fractional parts falls in a shrinking box; its error is controlled by
the discrepancy of the point set.  This demo computes, for real point
sets produced by the library, the exact extreme discrepancy (dimension
1), the star discrepancy from one sweep of the critical grid (a
certified lower bound in any dimension; the sweep skips the cuts that
provably cannot win, and the demo prints how many it scored), and the
Erdos–Turan–Koksma upper bound from exponential sums, with the constants
of Kuipers–Niederreiter's Theorem 2.5 — and shows the sandwich holds.
"""

from beattysieve import (
    ProblemSpec,
    discrepancy_exact_1d,
    discrepancy_report,
    nu_sequence,
)
from beattysieve.realnum import golden_ratio, sqrt2, sqrt3


def main() -> int:
    print("== dimension 1: {sqrt(2) * 3 * n}, N = 1000 ==")
    problem = ProblemSpec((sqrt2(),), (1,))
    ps = nu_sequence(problem, 3, 1000)
    rep = discrepancy_report(ps, H=20)
    print(f"  exact extreme discrepancy  = {float(rep.exact):.6f}")
    print(f"  box lower bound            = {rep.box_lower:.6f}")
    print(f"  ETK upper bound (H=20)     = {rep.et_upper:.6f}")
    print(f"  sandwich: {rep.box_lower:.6f} <= {float(rep.exact):.6f} "
          f"<= {rep.et_upper:.6f}\n")

    print("== golden ratio: the lowest-discrepancy 1d sequence ==")
    for n in (100, 1000):
        psg = nu_sequence(ProblemSpec((golden_ratio(),), (1,)), 1, n)
        d_n = float(discrepancy_exact_1d(psg))
        print(f"  N={n:5d}  D_N = {d_n:.6f}   N*D_N = {d_n * n:.3f}")
    print()

    print("== dimension 2: ({sqrt2 n}, {sqrt3 n^2}) scaled by d=2 ==")
    problem2 = ProblemSpec((sqrt2(), sqrt3()), (1, 2))
    ps2 = nu_sequence(problem2, 2, 1000)
    rep2 = discrepancy_report(ps2, H=20)
    print(f"  star discrepancy D*_N      = {rep2.box_lower:.6f} "
          "(of the stored points)")
    print(f"  box sweep scored {rep2.sweep.cuts_scored} of "
          f"{rep2.sweep.cuts} cuts; the rest provably could not win")
    print(f"  ETK upper bound (H=20)     = {rep2.et_upper:.4f}\n")

    print("== the Weyl terms feeding the upper bound (largest first) ==")
    print("  h         |S_h|       r(h)")
    for h, mag, r in sorted(rep2.weyl_terms, key=lambda t: -t[1])[:5]:
        print(f"  {str(h):9s} {mag:10.4f}  {r:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
