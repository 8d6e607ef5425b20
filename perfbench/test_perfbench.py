"""Self-tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from moonshine import cli  # noqa: E402


def first_jobs(wl, seed, n):
    stream = wl.stream(random.Random(f"{type(wl).__name__}-{seed}"))
    return [next(stream) for _ in range(n)]


def run_list(wl, jobs, execute=None):
    tally = worker.Tally()
    for job in jobs:
        tally.run(wl, job, execute)
    return worker.timed_result(wl, tally)


def test_oracles_match_known_values():
    assert oracles.eisenstein(4, 3) == [1, 240, 2160]
    assert oracles.delta(4) == [0, 1, -24, 252]
    assert str(oracles.bernoulli(12)) == "-691/2730"
    j = [1, 744, 196884, 21493760, 864299970]
    assert oracles.j_identity_holds(j)
    assert not oracles.j_identity_holds(j[:3] + [21493761] + j[4:])
    assert oracles.prime_factors(1200) == [2, 2, 2, 2, 3, 5, 5]


def _corrupt_series(job, result):
    rc, out = result
    return rc, out.replace("21493760", "21493761")


def _corrupt_groups(job, result):
    return (3, result[1]) if job.kind == "cli" else (result[0], set())


def _corrupt_sl2z(job, result):
    if job.kind == "reduce":
        star, m, word = result
        return star, m * workloads.sl2z.T, word
    if job.kind == "equiv":
        return None if result is not None else workloads.sl2z.T
    return result[0], workloads.sl2z.T


@pytest.mark.parametrize("name, corrupt", [("series", _corrupt_series),
                                           ("groups", _corrupt_groups),
                                           ("sl2z", _corrupt_sl2z)])
def test_corrupted_output_is_counted(name, corrupt):
    wl = workloads.WORKLOADS[name]()
    jobs = [job for job in first_jobs(wl, 3, 40)
            if name != "series" or job.payload[0] == "j" and int(job.payload[2]) > 3]
    assert run_list(wl, jobs)["failed"] == 0

    wl = workloads.WORKLOADS[name]()
    target = jobs[len(jobs) // 2]

    def execute(job):
        result = wl.execute(job)
        return corrupt(job, result) if job is target else result

    result = run_list(wl, jobs, execute)
    assert result["failed"] >= 1
    assert result["metrics"]["failed_ratio"][0] > 0


def test_self_times_add_up_to_job_wall_time():
    wl = workloads.Series()
    jobs = [workloads.Job("cli", ["j", "--order", "60"], ("j", 60, False), ()),
            workloads.Job("cli", ["knz", "--order", "4"], ("knz", 0), ())]
    original = cli.main
    with tracing.Tracer() as tracer:
        root = tracer.wrap("bench.job", wl.execute)
        for index, job in enumerate(jobs):
            tracer.job = index
            wl.check(job, root(job))
    assert cli.main is original
    own = tracer.self_times()
    resolution = time.get_clock_info("perf_counter").resolution
    for index in range(len(jobs)):
        spans = [(s, t) for s, t in zip(tracer.spans, own) if s[4] == index]
        (root_span,) = [s for s, _ in spans if s[0] == "bench.job"]
        wall = root_span[2] - root_span[1]
        assert len(spans) > 5
        assert abs(sum(t for _, t in spans) - wall) <= resolution * len(spans) + 1e-12
    calls, _ = tracer.rollup()
    assert calls["cli.main"] == 2 and calls["monster.knz"] == 1 and calls["qseries.bimul"] > 0


def test_second_seed_same_names_and_anchors():
    names = {}
    for seed in (1, 2):
        for name, factory in workloads.WORKLOADS.items():
            wl = factory()
            result = run_list(wl, first_jobs(wl, seed, 30))
            assert result["failed"] == 0
            names.setdefault(name, []).append(sorted(result["metrics"]))
    assert all(a == b for a, b in names.values())
    for factory in workloads.WORKLOADS.values():
        a, b = factory(), factory()
        assert [j.expect for j in a.anchors()] == [j.expect for j in b.anchors()]
        assert first_jobs(a, 1, 5) != first_jobs(b, 2, 5)
