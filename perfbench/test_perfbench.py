"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run small versions of the jobs, so they finish in seconds.
"""

import inspect
import json
import signal
import sys

import pytest

import pace as pacing
import run
import workloads
from tracer import Tracer
from workloads import Job, config_text

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PAIR = f"{workloads.SQRT2},{workloads.SQRT3}"


def small_jobs():
    """A few seconds' worth of jobs touching every traced layer."""
    liouville = workloads.parse_real(workloads.LIOUVILLE_COUNT)
    problem = workloads.ProblemSpec((liouville,), (1,))
    return [
        Job("density", "density",
            config_text(command="density", alphas=PAIR, ms="1,2",
                        grid="1000,2000,5000")),
        Job("count w2", "count_direct",
            config_text(command="count", alphas=PAIR, ms="1,2", x=5000,
                        workers=2), pooled=True),
        Job("pair direct", "count_direct",
            config_text(command="count", alphas=PAIR, ms="1,2", x=1000),
            check=workloads._count_check(1000, 824)),
        Job("pair mobius", "count_mobius",
            config_text(command="count", alphas=PAIR, ms="1,2", x=1000,
                        method="mobius"),
            check=workloads._count_check(1000, 824, "pair direct")),
        Job("liouville direct", "count_direct",
            call=lambda: workloads.counting.direct_count(problem, 500)),
        Job("dioph", "dioph",
            config_text(command="dioph", alpha=workloads.SQRT2,
                        max_q=10 ** 6),
            check=workloads._dioph_check(lambda: workloads.convergent_pairs(
                workloads._sqrt_cf(2), 10 ** 6))),
        Job("discrepancy", "discrepancy",
            config_text(command="discrepancy", alphas=workloads.SQRT2,
                        ms="1", n=200, h=5),
            check=workloads._discrepancy_check),
        Job("weyl", "weyl",
            config_text(command="weyl", alphas=PAIR, ms="1,2", n=200,
                        h="1,1"),
            check=workloads._sum_check),
    ]


def package_bindings():
    """Every name bound in a beattysieve module or a RealSpec/LinearForm
    class, with the identity of what it is bound to."""
    owners = [m for n, m in sys.modules.items()
              if n.startswith("beattysieve") and m is not None]
    realnum = sys.modules["beattysieve.realnum"]
    todo = [realnum.RealSpec, realnum.LinearForm]
    while todo:
        cls = todo.pop()
        owners.append(cls)
        todo.extend(cls.__subclasses__())
    return {(id(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_original():
    from beattysieve import cli, counting
    before = package_bindings()
    original = counting.direct_count
    with Tracer() as tracer:
        assert cli.direct_count is counting.direct_count is not original
        result = run.run_pass(small_jobs(), workloads)
    assert result["failures"] == []
    after = package_bindings()
    assert {k: after.get(k) for k in before} == before
    assert counting.direct_count is original
    assert not any(hasattr(f, "__wrapped__")
                   for f in vars(counting).values() if inspect.isfunction(f))
    assert tracer.stats["counting.direct_count"].calls == 6


def test_paced_pass_samples_every_job_and_stops_the_alarm():
    handler = signal.getsignal(signal.SIGALRM)
    with pacing.Pace() as pace:
        result = run.run_pass(small_jobs(), workloads, pace)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert result["failures"] == []
    for cmd, wall, cpu, sha, error, speed in result["jobs"].values():
        assert wall > 0 and speed > 0
    times = run.per_job([result], paced=True)
    raw = run.per_job([result], paced=False)
    for name, (_, wall, _) in times.items():
        assert wall == raw[name][1] * result["jobs"][name][5]


def test_self_time_never_exceeds_inclusive_time():
    with Tracer() as tracer:
        run.run_pass(small_jobs(), workloads)
    assert len(tracer.stats) > 20
    for name, st in tracer.stats.items():
        assert 0 <= st.self_s <= st.incl_s + 1e-9, name
    m = tracer.metrics()
    assert m["counting.mobius_count.incl_s"] >= m["counting.inner_count.incl_s"]
    assert m["counting.inner_count.calls"] > 0
    assert m["realnum.bounds.calls"] > 0
    assert m["counting.direct_count.parallel_eff"] > 0


def test_printed_names_match_benchmark_json(monkeypatch, capsys):
    assert workloads.WORKLOADS == tuple(w["name"]
                                        for w in BENCHMARK["workloads"])
    monkeypatch.setattr(workloads, "build", lambda name, seed: small_jobs())
    monkeypatch.setattr(run, "MIN_SETUP_PROBES", 1)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "analysis", "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)]) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def test_tampered_pin_makes_failed_frac_positive(monkeypatch, capsys):
    pinned = workloads._pinned_density()
    pinned["pair_sqrt2_sqrt3"][workloads.ROUTES_X] += 1
    monkeypatch.setattr(workloads, "_pinned_density", lambda: pinned)
    jobs = [j for j in workloads.build("count-routes", 0)
            if j.name == "pair direct"]
    monkeypatch.setattr(workloads, "build", lambda name, seed: jobs)
    monkeypatch.setattr(run, "MIN_SETUP_PROBES", 1)
    assert run.main(["--workload", "count-routes", "--seed", "0",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_route_disagreement_fails_the_check():
    check = workloads._count_check(100, None, "direct")
    assert check({"count": 60}, {"direct": {"count": 60}}) == []
    assert check({"count": 61}, {"direct": {"count": 60}})


def test_convergent_oracles():
    assert workloads.convergent_pairs(workloads._sqrt_cf(2), 100) == [
        (1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]
    # sqrt(3) = [1; 1, 2, ...]: the zeroth convergent 1/1 is dropped
    assert workloads.convergent_pairs(workloads._sqrt_cf(3), 10)[:2] == [
        (2, 1), (5, 3)]


def test_unknown_workload_exits_nonzero(capsys):
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "1"]) \
        == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_are_seeded_and_named_uniquely(workload):
    a = workloads.build(workload, 3)
    b = workloads.build(workload, 3)
    assert [j.config for j in a] == [j.config for j in b]
    assert len({j.name for j in a}) == len(a)
    assert {j.command for j in a} <= set(workloads.COMMANDS)
