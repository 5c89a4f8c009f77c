#!/usr/bin/env python3
"""Tuple coprimality: gcd(n, floor(a1*n), floor(a2*n^2), ...) = 1.

With k floor coordinates the density becomes 1/zeta(k+1).  This demo
runs two multi-coordinate problems, shows both exact routes agreeing,
and adds a lower-order polynomial inside one floor to show the counting
machinery does not care.
"""

import time
from fractions import Fraction

from beattysieve import ProblemSpec, dec_str, direct_count, inv_zeta, mobius_count
from beattysieve.realnum import golden_ratio, sqrt2, sqrt3


def show(problem: ProblemSpec, xs, label: str) -> None:
    k = problem.k
    target = inv_zeta(k + 1)
    print(f"{label}   (k = {k}, target 1/zeta({k + 1}) = "
          f"{dec_str(target, 12)})")
    for x in xs:
        t0 = time.perf_counter()
        d = direct_count(problem, x)
        m = mobius_count(problem, x)
        assert d.count == m.count
        err = abs(Fraction(d.count, x) - target)
        print(f"  x={x:>7}  count={d.count:>7}  "
              f"density={dec_str(Fraction(d.count, x), 10)}  "
              f"|err|={dec_str(err, 8)}  [{time.perf_counter() - t0:.2f}s]")
    print()


def main() -> int:
    show(ProblemSpec((sqrt2(), sqrt3()), (1, 2)),
         (10**3, 10**4, 10**5), "n, floor(sqrt(2) n), floor(sqrt(3) n^2)")
    show(ProblemSpec((sqrt2(), sqrt3(), golden_ratio()), (1, 2, 4)),
         (10**3, 10**4), "n, floor(sqrt2 n), floor(sqrt3 n^2), floor(phi n^4)")
    show(ProblemSpec((sqrt2(), golden_ratio()), (1, 3),
                     lower_terms=(None, ("1/2", sqrt3()))),
         (10**3, 10**4),
         "n, floor(sqrt2 n), floor(phi n^3 + sqrt3 n + 1/2)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
