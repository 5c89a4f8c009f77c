"""Set-up probe: import the package, build a workload's jobs, say "ready".

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this from process start to the "ready" line; that span is
the benchmark's setup_s (imports, parsing every config, building every
ProblemSpec).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
