"""Time the isolated layer cases that no workload reaches at its sizes.

    python3 perfbench/isolated.py

mobius_sieve(10^7) (about 170 MB of working arrays), reciprocal_sum at
K = N = 10^4 and zeta_int(3, 1024), each run once.  Not part of the
benchmark runs; NOTES.md records its numbers.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from beattysieve import mobius_sieve, reciprocal_sum, sqrt2, zeta_int  # noqa

CASES = {
    "mobius_sieve(10^7)": lambda: mobius_sieve(10 ** 7),
    "reciprocal_sum(sqrt2, K=N=10^4)": lambda: reciprocal_sum(
        sqrt2(), 10 ** 4, 10 ** 4),
    "zeta_int(3, 1024)": lambda: zeta_int(3, 1024),
}

if __name__ == "__main__":
    for name, case in CASES.items():
        t0 = time.perf_counter()
        case()
        print(f"{name}: {time.perf_counter() - t0:.2f} s", flush=True)
