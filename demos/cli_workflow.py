#!/usr/bin/env python3
"""The reproducible-experiment workflow: config in, report out.

Experiments are described by small key=value config files; the `count`,
`density`, `dioph`, `discrepancy`, `weyl`, and `bounds` subcommands turn
them into JSON reports (and CSV tables where a table is natural).  The
report payload is deterministic: rerun the same config and the bytes
match.
"""

import json

from beattysieve.cli import (parse_config_text, payload_bytes, report_csv,
                             run_config)

COUNT_CONFIG = """
# coprimality of (n, floor(sqrt2 n), floor(sqrt3 n^2)) up to x
command = count
alphas  = surd:(0+1*sqrt(2))/1, surd:(0+1*sqrt(3))/1
ms      = 1, 2
x       = 20000
method  = direct
"""

DENSITY_CONFIG = """
command = density
alphas  = surd:(0+1*sqrt(2))/1
ms      = 1
grid    = 1000, 10000, 100000
tau     = 1
"""


def main() -> int:
    print("== count: the two exact routes, compared ==")
    report = run_config(parse_config_text(COUNT_CONFIG))
    print(json.dumps(report["results"], indent=2, sort_keys=True))
    other = run_config(parse_config_text(
        COUNT_CONFIG.replace("method  = direct", "method  = mobius")))
    agree = other["results"]["count"] == report["results"]["count"]
    print(f"  mobius route count = {other['results']['count']}, "
          f"agreement = {agree}")

    print("\n== determinism: payload bytes across two runs ==")
    blobs = [payload_bytes(run_config(parse_config_text(COUNT_CONFIG)))
             for _ in range(2)]
    print(f"  run 1: {len(blobs[0])} bytes")
    print(f"  run 2: {len(blobs[1])} bytes, identical = {blobs[0] == blobs[1]}")

    print("\n== density: the error-exponent experiment ==")
    report = run_config(parse_config_text(DENSITY_CONFIG))
    res = report["results"]
    print(f"  gamma_hat = {res['gamma_hat']:.4f} "
          f"(theoretical gamma = {res['theoretical_gamma']})")
    print("  CSV:")
    for line in report_csv(report).rstrip().splitlines():
        print("   ", line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
