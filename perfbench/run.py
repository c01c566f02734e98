"""Benchmark of the cohw workbench.  Run from the repository root:

    python3 perfbench/run.py --workload linear --seed 1 --seconds 30 --trace 0

Workloads: linear, unipotent, finite, corpus (see workloads.py).  Each
run starts one workload process (worker.py) that does its set-up and then
runs jobs one at a time, closed loop, checking every output.  With
``--trace 0`` the last line printed is the job-level result: jobs_per_s,
job_ms_p50, job_ms_p90, setup_s and peak_rss_mb, plus attempted and
failed jobs (their ratio is fail_ratio).  setup_s is the median over
the measured launch and set-up-only launches before and after it.  All
times are scaled to the host's nominal speed (hostspeed.py).
With ``--trace 1`` the workload's pass runs untraced and then traced,
and the last line holds the per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up-only launches, half before and half after the measured one so
# that a short burst of load on the host does not meet them all: at least
# MIN and at most MAX on each side, and none started after BUDGET seconds
# of set-up launches on that side
SETUP_LAUNCHES_MIN, SETUP_LAUNCHES_MAX, SETUP_BUDGET_S = 1, 8, 4.0
WORKER_TIMEOUT = 170


def launch(workload, seed, seconds, trace, setup_only):
    """Start worker.py; return (seconds until it printed READY, parsed
    result line or None).  Raises RuntimeError if the worker fails."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(seed), str(seconds), str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(ROOT),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None or (not setup_only and not lines):
        raise RuntimeError("worker exited with code %d" % code)
    return ready, (None if setup_only else json.loads(lines[-1]))


def setup_launches(args, gauge):
    """(set-up seconds, gauge mark) of set-up-only launches, one after
    another."""
    setups = []
    begun = time.perf_counter()
    while len(setups) < SETUP_LAUNCHES_MAX and (
            len(setups) < SETUP_LAUNCHES_MIN or
            time.perf_counter() - begun < SETUP_BUDGET_S):
        mark = gauge.mark()
        setups.append((launch(args.workload, args.seed, args.seconds,
                              args.trace, True)[0], mark))
    return setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cohw", "cli.py")):
        print("error: no cohw sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts, so that the
    # host speed probes time the CPU the jobs run on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # the host's speed is probed before and after every launch, and each
    # set-up time is scaled to the host's nominal speed (hostspeed.py)
    gauge = hostspeed.Gauge(0)
    try:
        setups = setup_launches(args, gauge) if not args.trace else []
        mark = gauge.mark()
        ready, result = launch(args.workload, args.seed, args.seconds,
                               args.trace, False)
        setups.append((ready, mark))
        setups += setup_launches(args, gauge) if not args.trace else []
    except (RuntimeError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    gauge.close()
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(
            gauge.scale(secs, mark) for secs, mark in setups)
    units = {m["name"]: m["unit"] for m in workloads.load_benchmark()[
        "per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(values))
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    print("workload %s, seed %d: %d job runs, fail_ratio %.4f"
          % (args.workload, args.seed, attempted, failed / attempted))
    for name in sorted(units):
        print("  %-44s %14.6f %s" % (name, values[name], units[name]))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
