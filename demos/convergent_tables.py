#!/usr/bin/env python3
"""Continued-fraction convergents, approximation windows, and type.

For each multiplier the demo prints its convergent ladder with certified
approximation qualities, locates the best approximation with denominator
in a window (lower, Q], and estimates the irrationality type from the
tail of the ladder.  Quadratic surds hover near type 1; a Liouville-type
series shows its engineered excess.
"""

from fractions import Fraction

from beattysieve import convergents, estimate_type, find_window
from beattysieve.cli import report_csv, run_config
from beattysieve.realnum import LiouvilleSeries, golden_ratio, sqrt2


def main() -> int:
    print("== convergents of sqrt(2), denominators up to 10^4 ==")
    rows = convergents(sqrt2(), 10**4)
    for c in rows[:8]:
        print(f"  a/q = {c.a}/{c.q:<5}  |q*alpha - a| in "
              f"[{float(c.quality.lo):.6f}, {float(c.quality.hi):.6f}]")
    print(f"  ... {len(rows)} convergents total\n")

    print("== best approximation with denominator in (Q^varpi, Q] ==")
    w = find_window(rows, 10**3, Fraction(1, 2), "polynomial")
    print(f"  Q = 10^3: picked a/q = {w.a}/{w.q}, window ({w.lower:.2f}, "
          f"{w.Q:.0f}], satisfied = {w.satisfied}\n")

    print("== irrationality type estimates (tail of the ladder) ==")
    for name, spec, max_q in (
        ("sqrt(2)", sqrt2(), 10**6),
        ("golden ratio", golden_ratio(), 10**6),
        ("liouville tau=2", LiouvilleSeries(2, "poly", Fraction(2), c1=2),
         10**6),
    ):
        est = estimate_type(convergents(spec, max_q), max_q, "polynomial")
        print(f"  {name:16s} tau_hat = {est.tau_hat:.6f}  "
              f"from {len(est.samples)} convergents")

    print("\n== the same idea in exponential mode ==")
    liou = LiouvilleSeries(2, "exp", Fraction(1, 2), c1=2)
    est = estimate_type(convergents(liou, 10**8), 10**8, "exponential")
    print(f"  theta_hat = {est.tau_hat:.6f}")

    print("\n== CSV of the sqrt(2) ladder (first lines) ==")
    report = run_config({"command": "dioph", "alpha": sqrt2().text(),
                         "max_q": str(rows[4].q)})
    print(report_csv(report).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
