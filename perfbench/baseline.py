"""Run the benchmark over several seeds and record the results.

    python3 perfbench/baseline.py OUT.json [--seeds 1-10]
        [--second-seeds 11-20] [--trace-seed 0]

For every workload (those BENCHMARK.json gates and ``unipotent``) this
runs ``run.py --trace 0`` once per seed and keeps each end-to-end
metric's values, median and spread (distance between the first and third
quartile over the median), then runs ``run.py --trace 1`` once at the
trace seed for the per-layer metrics.  Gated workloads run a second batch
over the second seeds, and each metric's drift (how much worse the second
median is than the first, as a share of the first) is recorded beside its
bound.  The machine and Python details go into the same file, which is
rewritten after each workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=200, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def batch(name, seeds, seconds, bench):
    """One run per seed: each end-to-end metric's values, median and
    spread, and the jobs attempted and failed."""
    runs = [run_once(name, seed, seconds, 0) for seed in seeds]
    e2e = {}
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        e2e[metric["name"]] = {"median": med, "spread": (q[2] - q[0]) / med,
                               "bound": metric["bound"],
                               "unit": metric["unit"], "values": values}
    return {"seeds": seeds, "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--second-seeds", type=seed_range,
                        default=seed_range("11-20"))
    parser.add_argument("--trace-seed", type=int, default=0)
    args = parser.parse_args()
    bench = workloads.load_benchmark()
    names = list(workloads.ROUNDS)
    gated = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                          "python": platform.python_version()},
              "run_seconds": seconds, "trace_seed": args.trace_seed,
              "workloads": {}}
    for name in names:
        batches = [batch(name, args.seeds, seconds, bench)]
        if name in gated:
            batches.append(batch(name, args.second_seeds, seconds, bench))
        traced = run_once(name, args.trace_seed, seconds, 1)
        entry = {"batches": batches,
                 "per_layer": {k: v["value"]
                               for k, v in traced["metrics"].items()},
                 "traced_failed": traced["failed"]}
        if len(batches) == 2:
            entry["drift"] = {
                m["name"]: (batches[1]["end_to_end"][m["name"]]["median"] /
                            batches[0]["end_to_end"][m["name"]]["median"]
                            - 1) * (1 if m["better"] == "lower" else -1)
                for m in bench["end_to_end"]}
        record["workloads"][name] = entry
        print(name, [{k: (round(v["median"], 4), round(v["spread"], 3))
                      for k, v in b["end_to_end"].items()} for b in batches],
              entry.get("drift"), flush=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
