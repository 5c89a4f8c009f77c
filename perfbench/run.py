"""beattysieve benchmark: one workload, closed loop, one job at a time.

    python3 perfbench/run.py --workload count-routes --seed 1 \
        --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src.  The
workload's jobs run one after another in this process, pass after pass,
until the next pass would end after --seconds.  Caches the package keeps
are cleared before every pass, so each pass does the work a fresh CLI
process would.

Times are paced (see pace.py): the host's speed is sampled during every
job, and a job's time is multiplied by that speed, which gives the
seconds the job would take on a host of fixed, nominal speed.  Raw times
are printed beside them.

--trace 0 reports the end-to-end metrics of untraced passes.  wall_s and
cpu_s sum, over the workload's jobs, each job's median paced time over
the run's passes.  setup_s is the median paced time of fresh processes,
one started after each pass, that import the package, parse every
config and build every ProblemSpec.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over traced passes, raw
times), the paced per-command times of the untraced ones, and
trace.overhead_s, the traced minus the untraced paced wall time.

Every job's output is checked (see workloads.py); a job that raises or
fails its check counts in `failed`.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace as pacing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUP_PROBES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
# traced functions reported per layer; each gets calls, incl_s and self_s
LAYER_FUNCTIONS = (
    "realnum.bounds", "realnum.dist_nearest_int",
    "realnum.LinearForm.phase_frac", "realnum.LinearForm.frac_unit",
    "counting.direct_count", "counting.mobius_count",
    "counting.inner_count", "counting.mobius_sieve", "counting.zeta_int",
    "counting.density_experiment",
    "dioph.convergents", "dioph.estimate_type",
    "equidist.nu_sequence", "equidist.et_koksma_upper",
    "equidist.discrepancy_box_lower", "equidist.discrepancy_exact_1d",
    "equidist.weyl_sum", "equidist.reciprocal_sum",
    "equidist.quadratic_bound", "equidist.weyl_bound_report",
    "equidist.linear_sum_exact",
    "cli.parse_config_text", "cli.run_config",
)
LAYER_EXTRAS = {
    "realnum.bounds.max_prec": "bits",
    "counting.direct_count.n_evaluated": "count",
    "counting.direct_count.parallel_eff": "ratio",
    "counting.inner_count.n_scanned": "count",
    "counting.mobius_sieve.bytes_computed": "B",
    "dioph.convergents.returned": "count",
    "equidist.nu_sequence.points": "count",
    "equidist.et_koksma_upper.frequencies": "count",
    "equidist.discrepancy_box_lower.boxes_checked": "count",
    "cli.serialize_s": "s",
    "trace.overhead_s": "s",
}
# counts derived from call arguments rather than measured
COMPUTED = ("counting.direct_count.n_evaluated",
            "counting.inner_count.n_scanned",
            "counting.mobius_sieve.bytes_computed")


def per_layer_units(commands) -> dict:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.incl_s"] = "s"
        units[f"{fn}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    for cmd in commands:
        units[f"{cmd}_s"] = "s"
    return units


def clear_caches() -> None:
    """Empty every functools cache in the package's modules."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("beattysieve"):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest finished child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def run_pass(jobs, workloads, pace=None, sample=True) -> dict:
    """One closed-loop pass over the jobs.

    Returns {"jobs": name -> (command, wall s, cpu s, sha256, error,
    speed), "failures": [...]}.  With a `Pace`, speed is the job's mean
    host speed (see pace.py), from kernel runs between the jobs and, if
    `sample`, during them; the sampler's own time is taken out of the
    job's wall and CPU time.  Without one, speed is None.
    """
    clear_caches()
    done = {}
    out = {"jobs": {}, "failures": []}
    before = pacing.bracket() if pace else None
    for job in jobs:
        if pace:
            pace.start(sample=sample and not job.pooled)
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            payload, blob = workloads.run_job(job)
            error = None
        except Exception as exc:       # a failed job is a result, not a stop
            payload, blob, error = None, b"", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        speed = None
        if pace:
            pace.stop()
            wall -= pace.spent
            cpu -= pace.spent
            after = pacing.bracket()
            speed = pacing.speed(before + pace.samples + after)
            before = after
        if error is None:
            try:
                errs = job.check(payload, done)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(errs) or None
            done[job.name] = payload
        if error is not None:
            out["failures"].append(f"{job.name}: {error}")
        out["jobs"][job.name] = (job.command, wall, cpu,
                                 hashlib.sha256(blob).hexdigest(), error,
                                 speed)
    return out


def per_job(passes, paced: bool) -> dict:
    """name -> (command, median wall s, median cpu s) over the passes,
    in paced seconds (times speed) if `paced`."""
    out = {}
    for name, (cmd, *_) in passes[0]["jobs"].items():
        runs = [p["jobs"][name] for p in passes]
        scale = [r[5] if paced else 1.0 for r in runs]
        out[name] = (cmd,
                     statistics.median(r[1] * k for r, k in zip(runs, scale)),
                     statistics.median(r[2] * k for r, k in zip(runs, scale)))
    return out


def command_times(times, commands) -> dict:
    """Each command's summed job time, from `per_job`."""
    return {f"{cmd}_s": sum(w for c, w, _ in times.values() if c == cmd)
            for cmd in commands}


def measure_setup(workload: str, seed: int, pace) -> float:
    """Paced seconds from starting a fresh interpreter to its jobs being
    ready.  The host's speed is sampled in this process meanwhile; the
    probe runs on the other core, so the sampler's time is not taken
    out."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    before = pacing.bracket()
    pace.start()
    t0 = time.perf_counter()
    proc = subprocess.Popen(probe, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    finally:
        pace.stop()
        proc.stdout.close()
        status = proc.wait(timeout=60)
    if status != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed")
    return (t1 - t0) * pacing.speed(before + pace.samples + pacing.bracket())


def machine_facts() -> dict:
    import numpy
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "cpu_model": None, "caches": {},
             "python": platform.python_version(),
             "numpy": numpy.__version__}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts["caches"][f"L{level}"] = size
    return facts


def report_jobs(passes) -> None:
    for name, (cmd, _, _, sha, error, _) in passes[0]["jobs"].items():
        runs = [p["jobs"][name] for p in passes]
        walls = [r[1] for r in runs]
        speeds = [r[5] for r in runs]
        shas = {r[3] for r in runs}
        state = "ok" if error is None else f"FAILED ({error})"
        print(f"job  raw min {min(walls):8.4f} s  median "
              f"{statistics.median(walls):8.4f} s  paced median "
              f"{statistics.median(w * k for w, k in zip(walls, speeds)):8.4f}"
              f" s  speed {min(speeds):.2f}-{max(speeds):.2f}  {cmd:13s} "
              f"sha256={sha[:16]}{'' if len(shas) == 1 else ' (varies)'}  "
              f"{name}  {state}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.setdefault("BEATTYSIEVE_FIXTURE_DIR", str(ROOT / "fixtures"))
    try:
        jobs = workloads.build(args.workload, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"workload set-up failed: {exc}", file=sys.stderr)
        return 2

    print(f"# beattysieve benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"labels computed={','.join(COMPUTED)} measured=all other metrics"
          " (every working set here is far below L3)")

    # Set-up probes are spread between the passes, so that they sample the
    # host's load over the whole run.
    # Traced passes are not sampled during their jobs: the sampler's time
    # would land in the spans' self times.
    untraced, traced, layers, setup = [], [], [], []
    start = time.perf_counter()
    with pacing.Pace() as pace:
        while True:
            t0 = time.perf_counter()
            untraced.append(run_pass(jobs, workloads, pace))
            if args.trace:
                with Tracer() as tracer:
                    traced.append(run_pass(jobs, workloads, pace,
                                           sample=False))
                layers.append(tracer.metrics())
            else:
                setup.append(measure_setup(args.workload, args.seed, pace))
            now = time.perf_counter()
            if now + (now - t0) - start > args.seconds:
                break
        while not args.trace and len(setup) < MIN_SETUP_PROBES:
            setup.append(measure_setup(args.workload, args.seed, pace))

    passes = untraced + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    commands = sorted({job.command for job in jobs},
                      key=workloads.COMMANDS.index)
    report_jobs(untraced)
    for failure in sorted(set(failures)):
        print(f"failure {failure}")
    paced = per_job(untraced, paced=True)
    cmd_times = command_times(paced, commands)
    print("per-command paced " + "  ".join(f"{k}={v:.4f} s"
                                           for k, v in cmd_times.items()))
    walls = [sum(j[1] for j in p["jobs"].values()) for p in untraced]
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; "
          f"raw pass wall median {statistics.median(walls):.4f} s, "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    print(f"failed_frac {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")

    if args.trace:
        missing = [fn for fn in LAYER_FUNCTIONS
                   if f"{fn}.calls" not in layers[0]]
        if missing:
            print(f"note: not in the package, reported as 0: {missing}")
        units = per_layer_units(workloads.COMMANDS)
        # counts repeat exactly between traced passes; keep them integers
        values = {key: (statistics.median if unit in ("s", "ratio")
                        else statistics.median_low)(m.get(key, 0)
                                                    for m in layers)
                  for key, unit in units.items()}
        values.update({f"{c}_s": 0.0 for c in workloads.COMMANDS})
        values.update(cmd_times)
        values["trace.overhead_s"] = (
            sum(w for _, w, _ in per_job(traced, paced=True).values())
            - sum(w for _, w, _ in paced.values()))
        for name, value in sorted(layers[0].items()):
            if name not in units and value:
                print(f"layer {name} = {value}")
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(w for _, w, _ in paced.values()),
            "cpu_s": sum(c for _, _, c in paced.values()),
            "peak_rss_mb": peak_rss_mb(),
        }
    for key, unit in units.items():
        print(f"metric {key} = {values[key]!r} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
