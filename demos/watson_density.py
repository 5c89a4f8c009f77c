#!/usr/bin/env python3
"""The classic single-multiplier density: gcd(n, floor(n*sqrt(2))) = 1.

Counts by two fully independent exact routes — a direct gcd sweep with
certified floors, and a Moebius-weighted divisibility decomposition —
then compares the empirical density against 1/zeta(2) = 6/pi^2.
"""

import time
from fractions import Fraction

from beattysieve import (
    ProblemSpec,
    dec_str,
    direct_count,
    inv_zeta,
    mobius_count,
)
from beattysieve.cli import report_csv, run_config
from beattysieve.realnum import sqrt2


def main() -> int:
    problem = ProblemSpec((sqrt2(),), (1,))
    target = inv_zeta(2)
    print(f"target density 1/zeta(2) = {dec_str(target, 20)}\n")

    print(f"{'x':>9} {'direct':>9} {'mobius':>9} {'density':>12} "
          f"{'|err|':>12} {'time':>7}")
    for x in (10**3, 10**4, 10**5):
        t0 = time.perf_counter()
        d = direct_count(problem, x)
        m = mobius_count(problem, x)
        dt = time.perf_counter() - t0
        assert d.count == m.count, "the two exact routes must agree"
        dens = Fraction(d.count, x)
        print(f"{x:>9} {d.count:>9} {m.count:>9} {dec_str(dens, 10):>12} "
              f"{dec_str(abs(dens - target), 10):>12} {dt:>6.2f}s")

    print("\nfitted error exponent over the decade grid:")
    report = run_config({"command": "density", "alphas": sqrt2().text(),
                         "ms": "1", "grid": "1000,10000,100000", "tau": "1"})
    res = report["results"]
    print(f"  |N(x) - x/zeta(2)| ~ x^{res['fitted_exponent']:.3f}"
          f"   (gamma_hat = {res['gamma_hat']:.3f},"
          f" theoretical gamma = {res['theoretical_gamma']})")

    print("\nCSV of the run:")
    print(report_csv(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
