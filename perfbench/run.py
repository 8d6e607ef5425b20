"""Benchmark entry point.

    python3 perfbench/run.py --workload {series,groups,sl2z,all} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
(set-up time from fresh interpreters, then one worker process that runs the
workload's closed loop); ``--trace 1`` prints the per-layer metrics of a
traced run.  Every metric is printed as ``workload name value unit``, then
the run record, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the three workloads one after another and prefixes metric names with
the workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("series", "groups", "sl2z")
SETUP_PROBES = 7
DEADLINE_S = 170          # a whole run must end within 180 s


def run_record(seed):
    """Context stored with every result, to compare runs on a shared box."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "seed": seed, "loadavg_1m": os.getloadavg()[0]}


def setup_seconds(workload, env, deadline):
    """Median of SETUP_PROBES fresh-interpreter set-ups, after one warm-up
    that also writes the bytecode caches."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def run_workload(workload, args, env, deadline):
    result = {}
    if not args.trace:
        result["setup_s"] = setup_seconds(workload, env, deadline)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out-dir", str(OUT)],
        env=env, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    result.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    if not args.trace:
        result["metrics"]["setup_s"] = (result.pop("setup_s"), "s")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "moonshine" / "__init__.py").is_file():
        print(f"error: no moonshine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("MOONSHINE_ELEMENT_CAP", None)
    record = run_record(args.seed)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args, env, deadline)
        except subprocess.CalledProcessError as exc:
            print(f"error: {name} worker exited {exc.returncode}\n{exc.stderr}", file=sys.stderr)
            return 1
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not finish within {DEADLINE_S} s", file=sys.stderr)
            return 1
    record["jobs"] = {name: r["attempted"] for name, r in results.items()}
    record["mix"] = {name: r["mix"] for name, r in results.items()}

    metrics = {}
    for name, r in results.items():
        for metric, (value, unit) in sorted(r["metrics"].items()):
            print(f"{name:7} {metric:28} {value:>16.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            if metric != "failed_ratio":
                metrics[key] = {"value": value, "unit": unit}
        if "samples_beyond_p95" in r:
            print(f"{name:7} {'(job samples / beyond p95)':28} "
                  f"{r['attempted']:>10} / {r['samples_beyond_p95']}")
    print("record " + json.dumps(record, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"record": record, "results": results}, fh, indent=1, sort_keys=True)
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
