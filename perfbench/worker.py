"""The workload process of the cohw benchmark (started by run.py).

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up is ``import cohw.cli``, building the first pass and one untimed
warm-up job of each kind; then the worker prints ``READY``.  With
``--setup-only`` it stops there.  Otherwise, with TRACE 0 it runs
successive passes of the workload's seeded job stream (the same mix, new
instances), one job at a time, until SECONDS have passed and at least
MIN_PASSES ran, and prints the job-level results as one JSON line; with
TRACE 1 it runs the first pass untraced twice and then traced, and prints
the per-layer results.
"""

import json
import math
import os
import resource
import statistics
import sys
import time

start = time.perf_counter()
import cohw.cli  # noqa: E402
IMPORT_S = time.perf_counter() - start

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

ROOT = os.path.dirname(workloads.HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_PASSES = 3
PROBE_EVERY_S = 0.2


def quantile(values, q):
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) *
                                                  (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) +
                     a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-th percentile: the mean of all
    order statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution
    around rank pn.  It leans on several ranks instead of the two next to
    pn, so the few slow jobs near a tail percentile move it less."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    cdf = [beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def run_jobs(runner, jobs, fresh, tracer=None):
    """Run jobs in order, one at a time, probing the host's speed between
    them (before every fresh-process job, else every PROBE_EVERY_S).
    Returns (records, total): one (job, seconds, output, ok, child) record
    per job, with its wall time scaled to the host's nominal speed
    (hostspeed.py), and the sum of those seconds."""
    gauge = hostspeed.Gauge(0 if fresh else PROBE_EVERY_S)
    timed = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        mark = gauge.mark()
        job_start = time.perf_counter()
        output, ok, child = runner.run(job, fresh)
        timed.append((job, time.perf_counter() - job_start, output, ok,
                      child, mark))
    gauge.close()
    records = [(job, gauge.scale(secs, mark), output, ok, child)
               for job, secs, output, ok, child, mark in timed]
    return records, sum(r[1] for r in records)


def peak_rss_mb(fresh):
    who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def job_metrics(records, pass_len):
    """Job-level metrics over the job runs of whole passes of ``pass_len``
    jobs: jobs_per_s is jobs over their summed (scaled) time, and each
    latency percentile is the mean over the passes of a pass's
    Harrell-Davis estimate.  Returns (metrics, jobs whose output is
    wrong)."""
    ms = [secs * 1e3 for _, secs, *_ in records]
    passes = [ms[i:i + pass_len] for i in range(0, len(ms), pass_len)]
    return {"jobs_per_s": 1e3 * len(ms) / sum(ms),
            "job_ms_p50": statistics.mean(hd_quantile(p, 50) for p in passes),
            "job_ms_p90": statistics.mean(hd_quantile(p, 90) for p in passes),
            }, sum(not r[3] for r in records)


SUITE_NAMES = [name for name, *_ in cohw.cli.SUITES]
# Per-layer metrics named after a method span are named after the method.
METHOD_SPANS = {
    "cosimpl.check_identities": "cosimpl.CosimplicialGroup.check_identities",
    "nilpotent.bch": "nilpotent.NilpotentLieAlgebra.bch",
    "nilpotent.algebra_init": "nilpotent.NilpotentLieAlgebra.__init__",
    "nilpotent.check_bracket": "nilpotent.LieMorphism.check_bracket",
}


def kind_medians(records):
    """Median ms per job kind ("cmd:<command>" or a suite name)."""
    by_kind = {}
    for job, secs, *_ in records:
        by_kind.setdefault(job.kind, []).append(secs * 1e3)
    return {kind: statistics.median(ms) for kind, ms in by_kind.items()}


def merge(summaries):
    spans, counters, cells, sympy_jobs, wrapped = {}, {}, {}, 0, set()
    for s in summaries:
        for name, (calls, self_s) in s["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, n in s["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for size, n in s["rref_cells"].items():
            cells[int(size)] = cells.get(int(size), 0) + n
        sympy_jobs += s["sympy_jobs"]
        wrapped.update(s["wrapped"])
    return spans, counters, cells, sympy_jobs, wrapped


def layer_metrics(names, summaries, import_times, records, overhead):
    """The per-layer metrics ``names`` (those BENCHMARK.json lists), from
    merged trace summaries and the untraced records:

    - ``<module>.calls``/``.self_s``: all spans of one of the modules;
    - ``<span>.calls``/``.self_s``: one wrapped function or method;
    - ``cli.<command>.ms``, ``cli.verify.<suite>.ms_per_instance``: median
      job time of that kind, 0 where the workload does not run it;
    - the probe counters, ``cli.sympy_jobs``, ``cli.import_s`` and
      ``trace.overhead_ratio``.

    Raises ValueError for a name that matches none of these."""
    spans, counters, cells, sympy_jobs, wrapped = merge(summaries)
    kinds = kind_medians(records)
    scalar = counters.get("exactla.mat_mul.scalar_muls", 0)
    sizes = sorted(size for size, n in cells.items() for _ in range(n))
    special = {
        "exactla.mat_mul.scalar_muls": scalar,
        "exactla.mat_mul.nonzero_share": (
            counters.get("exactla.mat_mul.nonzero_muls", 0) / scalar
            if scalar else 0.0),
        "exactla.rref.cells_p90": quantile(sizes, 90) if sizes else 0,
        "cli.sympy_jobs": sympy_jobs,
        "cli.import_s": statistics.median(import_times),
        "trace.overhead_ratio": overhead,
    }
    m = {}
    for name in names:
        head, last = name.rsplit(".", 1)
        span = METHOD_SPANS.get(head, head)
        command = head.split("cli.", 1)[-1]
        suite = head.split("cli.verify.", 1)[-1]
        if name in special:
            m[name] = special[name]
        elif last in ("calls", "self_s") and head in MODULES:
            m[name] = sum(v[last == "self_s"] for n, v in spans.items()
                          if n.split(".")[0] == head)
        elif last in ("calls", "self_s") and span in wrapped:
            m[name] = spans.get(span, (0, 0.0))[last == "self_s"]
        elif last == "ms" and head == "cli." + command and \
                command in cohw.cli.COMMANDS:
            m[name] = kinds.get("cmd:" + command, 0.0)
        elif last == "ms_per_instance" and head == "cli.verify." + suite \
                and suite in SUITE_NAMES:
            m[name] = kinds.get(suite, 0.0)
        else:
            raise ValueError("unknown per-layer metric %r" % name)
    return m


def traced_run(jobs, fresh, runner, names, spans_path=None):
    """Run the pass three times: untraced to fill caches, untraced to
    measure, then traced; check that all give byte-identical outputs.
    Returns (per-layer metrics, jobs attempted, jobs failed)."""
    warm, _ = run_jobs(runner, jobs, fresh)
    plain, plain_total = run_jobs(runner, jobs, fresh)
    tracer = None
    if fresh:
        runner.traced_children = True
        traced, traced_total = run_jobs(runner, jobs, fresh)
        runner.traced_children = False
        summaries = [r[4] for r in traced if r[4] is not None]
        imports = [s["import_s"] for s in summaries]
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_total = run_jobs(runner, jobs, fresh,
                                           tracer=tracer)
        finally:
            tracer.uninstall()
        summaries = [tracer.summary()]
        imports = [IMPORT_S]
    failed = sum(1 for w, p, t in zip(warm, plain, traced)
                 if not (w[3] and p[3] and t[3]) or not w[2] == p[2] == t[2])
    if fresh and len(summaries) != len(traced):
        failed += len(traced) - len(summaries)
    metrics = layer_metrics(names, summaries, imports, plain,
                            traced_total / plain_total)
    if tracer is not None and spans_path is not None:
        tracer.write_spans(spans_path)
    return metrics, 3 * len(jobs), failed


def timed_run(first, passes, fresh, runner, seconds):
    """Run the pass ``first`` and then the next of ``passes``, one after
    another, until ``seconds`` have passed and at least MIN_PASSES ran."""
    deadline = time.perf_counter() + seconds
    records = run_jobs(runner, first, fresh)[0]
    done = 1
    while done < MIN_PASSES or time.perf_counter() < deadline:
        records += run_jobs(runner, next(passes), fresh)[0]
        done += 1
    metrics, failed = job_metrics(records, len(first))
    metrics["peak_rss_mb"] = peak_rss_mb(fresh)
    return metrics, len(records), failed


def main(argv):
    name, seed, seconds, trace = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    workload = workloads.Workload(name, int(seed))
    passes = workload.passes()
    jobs = next(passes)
    runner = workloads.Runner(ROOT, workloads.load_golden())
    warm_failed = 0
    for job in workload.warmups():
        warm_failed += not runner.run(job)[1]
    print("READY", flush=True)
    if setup_only:
        return 0
    if trace == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        names = [m["name"] for m in workloads.load_benchmark()["per_layer"]]
        metrics, attempted, failed = traced_run(
            jobs, workload.fresh, runner, names,
            os.path.join(OUT_DIR, "spans-%s-%s.tsv" % (name, seed)))
    else:
        metrics, attempted, failed = timed_run(jobs, passes, workload.fresh,
                                               runner, float(seconds))
    print(json.dumps({"attempted": attempted, "failed": failed + warm_failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
