"""One workload in its own fresh, single-threaded process.

Started by ``run.py`` with ``src`` on PYTHONPATH; prints one JSON object as
its last line.  An untraced run is a closed loop with one client: the next
job is drawn only after the previous one finished and was checked.  It
times every job from outside, checks it after the timer stops and runs the
anchors at evenly spaced moments of the ``--seconds`` window.  A traced run
replays a fixed job list twice, untraced and then traced, and reports the
per-layer rollup and the ratio of the two wall times.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

import setup_probe
import tracing
import workloads

clock = time.perf_counter
# Latency slots allocated up front, so that the harness's own memory, and
# with it peak_rss_mb, does not grow with the number of jobs a run completes.
CAPACITY = 1 << 18


class Tally:
    """Latencies, check results and mix properties of the jobs run so far."""

    def __init__(self):
        self.slots = array("d", [0.0]) * CAPACITY
        self.count = 0
        self.failed = 0
        self.tags = Counter()
        self.output_bytes = 0

    def run(self, wl, job, execute=None):
        """Time one job from outside, then check its output; ``execute``
        replaces ``wl.execute``."""
        start = clock()
        try:
            result = (execute or wl.execute)(job)
        except Exception:
            self._record(clock() - start)
            self._fail(job, traceback.format_exc())
        else:
            self._record(clock() - start)
            self._check(wl, job, result)
        self.tags.update(job.tags)

    def _record(self, seconds):
        if self.count < len(self.slots):
            self.slots[self.count] = seconds
        else:
            self.slots.append(seconds)
        self.count += 1

    @property
    def latencies(self):
        return self.slots[:self.count]

    def _check(self, wl, job, result):
        if job.kind == "cli":
            self.output_bytes += len(result[1].encode())
        try:
            ok = wl.check(job, result)
        except Exception:
            self._fail(job, traceback.format_exc())
        else:
            if not ok:
                self._fail(job, "output failed its check")

    def _fail(self, job, detail):
        """Count a failed job; the first few are described on stderr."""
        self.failed += 1
        if self.failed <= 10:
            print(f"failed {job.kind} job {job.payload!r:.200}: {detail}", file=sys.stderr)

    def mix(self):
        return {tag: round(count / self.count, 4) for tag, count in sorted(self.tags.items())}


def run_window(wl, seed, seconds, execute=None):
    """Closed loop for ``seconds`` of wall time; every anchor runs once."""
    stream = wl.stream(random.Random(f"{type(wl).__name__}-{seed}"))
    anchors = wl.anchors()
    tally = Tally()
    start = clock()
    done = 0
    while True:
        elapsed = clock() - start
        if done < len(anchors) and elapsed >= done * seconds / len(anchors):
            job = anchors[done]
            done += 1
        elif elapsed < seconds:
            job = next(stream)
        else:
            break
        tally.run(wl, job, execute)
    return tally


def fixed_jobs(wl, seed):
    """The traced run's list: TRACE_JOBS stream jobs with the anchors spread in."""
    stream = wl.stream(random.Random(f"{type(wl).__name__}-{seed}"))
    jobs = [next(stream) for _ in range(wl.TRACE_JOBS)]
    anchors = wl.anchors()
    for k, job in reversed(list(enumerate(anchors))):
        jobs.insert(k * len(jobs) // len(anchors), job)
    return jobs


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def timed_result(wl, tally):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(tally.latencies)
    n = len(lat)
    p95 = percentile(lat, 95)
    failed = tally.failed + wl.finish()
    return {
        "attempted": n,
        "failed": failed,
        "metrics": {
            "jobs_per_s": (n / sum(lat), "1/s"),
            "job_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "job_p95_ms": (p95 * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "failed_ratio": (failed / n, "ratio"),
        },
        "samples_beyond_p95": sum(v > p95 for v in lat),
        "mix": tally.mix(),
    }


def traced_result(name, seed, out_dir):
    plain_wl = workloads.WORKLOADS[name]()
    plain = Tally()
    for job in fixed_jobs(plain_wl, seed):
        plain.run(plain_wl, job)
    # Fresh inputs for the second pass: groups cache their elements.
    wl = workloads.WORKLOADS[name]()
    traced = Tally()
    with tracing.Tracer() as tracer:
        root = tracer.wrap("bench.job", wl.execute)
        for index, job in enumerate(fixed_jobs(wl, seed)):
            tracer.job = index
            traced.run(wl, job, root)
    tracer.write_jsonl(out_dir / f"spans-{name}-seed{seed}.jsonl")
    failed = plain.failed + plain_wl.finish() + traced.failed + wl.finish()
    ratio = sum(traced.latencies) / sum(plain.latencies)
    return {
        "attempted": plain.count + traced.count,
        "failed": failed,
        "metrics": tracing.layer_metrics(tracer, traced.output_bytes, ratio),
        "mix": traced.mix(),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    setup_probe.first_calls(args.workload)
    if args.trace:
        result = traced_result(args.workload, args.seed, args.out_dir)
    else:
        wl = workloads.WORKLOADS[args.workload]()
        result = timed_result(wl, run_window(wl, args.seed, args.seconds))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
