"""Tests of the benchmark itself (not part of the cohw test suite).

    python3 -m pytest -q perfbench
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Job, Runner, Workload, command_key  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    return Runner(ROOT, workloads.load_golden())


def test_self_times_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # b carries 0.5 s of tracer bookkeeping after its child returned
    spans = [("a", 0.0, 10.0, -1, 0, 0.0),
             ("b", 1.0, 4.0, 0, 0, 0.5),
             ("c", 2.0, 3.0, 1, 0, 0.0),
             ("d", 5.0, 9.0, 0, 0, 0.0)]
    assert self_times(spans) == [3.0, 1.5, 1.0, 4.0]


def test_child_set_up_counts_as_parent_overhead(monkeypatch):
    # a clock that ticks once per reading: the parent reads entry 1 and
    # start 2; its child reads entry 3, start 4 and end 5, then charges
    # 4 - 3 before and 6 - 5 after its span to the parent; the parent
    # ends at 7
    from cohw import exactla
    import tracer as tracer_module
    ticks = iter(range(1, 100))
    monkeypatch.setattr(tracer_module.time, "perf_counter",
                        lambda: float(next(ticks)))
    tracer = Tracer()
    tracer.install()
    try:
        exactla.rank([[1, 2], [2, 4]])
    finally:
        tracer.uninstall()
    assert [s[1:3] + s[5:] for s in tracer.spans] == [(2.0, 7.0, 2.0),
                                                      (4.0, 5.0, 0.0)]


def test_tracer_records_nesting_and_restores_functions():
    from cohw import exactla
    original = exactla.rref
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = 7
        assert exactla.rank([[1, 2], [2, 4]]) == 1
    finally:
        tracer.uninstall()
    assert exactla.rref is original
    names = [s[0] for s in tracer.spans]
    assert names == ["exactla.rank", "exactla.rref"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.rref_cells == {4: 1}


def test_traced_and_untraced_outputs_are_identical(runner):
    jobs = Workload("finite", 3).rounds(1) + [
        j for j in Workload("unipotent", 3).rounds(1)
        if j.kind in ("bch", "twisted-conjugation", "cmd:hodge-classify")]
    plain, _ = worker.run_jobs(runner, jobs, False)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _ = worker.run_jobs(runner, jobs, False, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(r[3] for r in plain + traced)
    assert [r[2] for r in plain] == [r[2] for r in traced]
    assert tracer.spans


def test_traced_run_reports_overhead_and_bypass_facts(runner):
    jobs = Workload("finite", 0).rounds(1)
    names = [m["name"] for m in workloads.load_benchmark()["per_layer"]]
    metrics, attempted, failed = worker.traced_run(jobs, False, runner,
                                                   names)
    assert sorted(metrics) == sorted(names)
    assert failed == 0 and attempted == 3 * len(workloads.ROUNDS["finite"])
    assert metrics["trace.overhead_ratio"] > 0
    # finite enumerates through lookup tables: no linear algebra, no sympy
    assert metrics["exactla.calls"] == 0
    assert metrics["cli.sympy_jobs"] == 0
    assert metrics["cosimpl.pi1_finite.calls"] > 0
    with pytest.raises(ValueError):
        worker.traced_run(jobs, False, runner, ["exactla.no_such.calls"])


def test_gauge_scales_by_the_probes_around_a_job(monkeypatch):
    # probes read 2 ms, then 4 ms: a 30 ms job between them ran at a third
    # of the nominal 1 ms speed, a job after the last probe at a quarter
    import hostspeed
    readings = iter([0.002, 0.004])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(readings))
    monkeypatch.setattr(hostspeed, "NOMINAL_S", 0.001)
    gauge = hostspeed.Gauge(0)
    first = gauge.mark()
    second = gauge.mark()
    assert gauge.scale(0.030, first) == pytest.approx(0.010)
    assert gauge.scale(0.040, second) == pytest.approx(0.010)


def test_job_metrics_take_every_job_run():
    job = Job("twist", tag="0:twist:0")
    records = [(job, secs, "out", secs < 0.004, None)
               for secs in (0.001, 0.002, 0.003, 0.004)]
    metrics, failed = worker.job_metrics(records, 2)
    assert metrics["jobs_per_s"] == pytest.approx(4 / 0.010)
    # two passes, (1, 2) and (3, 4): Harrell-Davis weights are symmetric
    # around the median
    assert metrics["job_ms_p50"] == pytest.approx(2.5)
    assert 2.5 < metrics["job_ms_p90"] < 3.5
    assert failed == 1


def test_harrell_davis_quantile():
    for x in (0.1, 0.5, 0.9):
        assert worker.beta_cdf(x, 1, 1) == pytest.approx(x)
        assert worker.beta_cdf(x, 2, 1) == pytest.approx(x ** 2)
        assert worker.beta_cdf(x, 1, 2) == pytest.approx(1 - (1 - x) ** 2)
    assert worker.hd_quantile([7.0], 90) == 7.0
    assert worker.hd_quantile([5.0] * 40, 90) == pytest.approx(5.0)
    values = list(range(1, 101))
    assert worker.hd_quantile(values, 50) == pytest.approx(50.5)
    assert 89 < worker.hd_quantile(values, 90) < 92


@pytest.mark.parametrize("fresh", [False, True])
def test_one_altered_golden_line_counts_as_failure(fresh):
    argv = list(workloads.CORPUS_COMMANDS[0])
    golden = workloads.load_golden()
    assert Runner(ROOT, golden).run(Job("cmd:validate", argv=argv),
                                    fresh)[1]
    gold = golden[command_key(argv)]
    lines = gold["stdout"].splitlines(keepends=True)
    lines[-1] = lines[-1].replace("ok", "OK")
    gold["stdout"] = "".join(lines)
    records, _ = worker.run_jobs(Runner(ROOT, golden),
                                 [Job("cmd:validate", argv=argv)], fresh)
    failed = sum(1 for r in records if not r[3])
    assert failed / len(records) > 0


def test_hodge_invariant_matches_reference_classes():
    f = workloads.Fraction
    zero = (f(0), f(0))
    assert workloads.hodge_invariant([zero, zero, (f(1), f(2))]) == 2
    assert workloads.hodge_invariant([(f(1), f(0)), (f(0), f(2)), zero]) == 1
    assert workloads.hodge_invariant([zero, zero, zero]) == 0


def test_seeded_hodge_classify_is_checked(runner):
    job = next(j for j in Workload("unipotent", 5).rounds(1)
               if j.kind == "cmd:hodge-classify")
    out, ok, _ = runner.run(job)
    assert ok
    wrong = out.replace("normal form: 0, 0, ", "normal form: 0, 0, 1+")
    assert not runner.check(job.argv, wrong.rsplit("exit=", 1)[0], 0)


@pytest.mark.parametrize("suite", sorted(workloads.SHAPES))
def test_stratified_seeds_draw_their_scheduled_shape(suite):
    draw, schedule = workloads.SHAPES[suite]
    seeds = workloads.ShapedSeeds(4, suite)
    for want in schedule * 2:
        tag = seeds.take()
        assert tag.startswith("4:%s:" % suite)
        assert draw(workloads.random.Random(tag)) == want


def test_job_streams_follow_the_seed():
    a = [repr(j) for j in Workload("linear", 1).rounds(1)]
    assert a == [repr(j) for j in Workload("linear", 1).rounds(1)]
    assert a != [repr(j) for j in Workload("linear", 2).rounds(1)]
    assert all(repr(j).split(", ")[1].startswith("1:")
               for j in Workload("finite", 1).rounds(1)
               if j.argv is None)
