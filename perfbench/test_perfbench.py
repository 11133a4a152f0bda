"""Tests of the benchmark itself (not of gruss_lab).

    python3 -m pytest -q perfbench
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Job

sys.path.insert(0, str(run.SRC))
from gruss_lab import cli  # noqa: E402
from gruss_lab.harness import TrialSummary  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: per-layer metrics that count work; they must repeat exactly for a seed
EXACT = sorted(
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] in ("count", "bytes")
    or m["name"] in ("scalar_distance.delta.gap_max", "scalar_distance.is_normal.per_delta")
)


@pytest.fixture
def threads_env(monkeypatch):
    def use(workload):
        monkeypatch.setenv("GRUSS_LAB_THREADS", str(workload.threads))
    return use


def test_a_job_that_raises_is_counted_and_the_run_continues(monkeypatch):
    # a known defect: a non-finite ratio reaches the JSON emitter outside
    # route()'s error handler, so route() raises instead of exiting 1
    def infinite_ratio(trials, seed=0, k=3, threads=None):
        return TrialSummary(trials=trials, violations=1, worst_margin=-1.0,
                            worst_instance={"trialIndex": 0}, seed=seed, wall_time_ms=0.0,
                            check="explore", family="two-positive", worst_ratio=math.inf)

    workload = WORKLOADS["explore-k3"]
    jobs = workload.jobs(0, Path("."))
    first, second = next(jobs), next(jobs)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "explore_two_positive", infinite_ratio)
        raised = run.run_job(cli, first)
    passed = run.run_job(cli, second)
    assert raised.failure == "ValueError"
    assert passed.failure is None and passed.latency_s > 0


def test_the_gate_rejects_answers_that_differ_from_the_reference():
    workload = WORKLOADS["lemma2-positive"]
    job = next(workload.jobs(3, Path(".")))
    out = run.io.StringIO()
    with run.redirect_stdout(out):
        code = cli.route(job.argv)
    assert job.check(code, out.getvalue()) is None

    report = json.loads(out.getvalue())
    result = report["result"]
    wrong_index = dict(result, worstInstance=dict(result["worstInstance"],
                       trialIndex=(result["worstInstance"]["trialIndex"] + 1) % workload.trials))
    wrong_margin = dict(result, worstMargin=result["worstMargin"] * (1 + 1e-4) + 1e-4)
    for bad in (wrong_index, wrong_margin):
        assert job.check(code, json.dumps(dict(report, result=bad))) is not None
    assert job.check(2, out.getvalue()) is not None


def test_every_job_in_one_certify_cycle_passes_the_gate(tmp_path):
    jobs = WORKLOADS["certify-maps"].jobs(11, tmp_path)
    outcomes = [run.run_job(cli, next(jobs)) for _ in range(6)]
    assert [o.failure for o in outcomes] == [None] * 6


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path, threads_env):
    workload = WORKLOADS[name]
    threads_env(workload)
    count = 6 if name == "certify-maps" else 2
    runs = []
    for attempt in range(2):
        (tmp_path / str(attempt)).mkdir()
        jobs = workload.jobs(5, tmp_path / str(attempt))
        metrics, outcomes, _, _ = run.traced_pass(cli, jobs, count, workload.threads)
        assert [o.failure for o in outcomes] == [None] * count
        runs.append({k: metrics[k] for k in EXACT})
    assert runs[0] == runs[1]
    assert set(EXACT) <= set(metrics)


def test_traced_metrics_cover_the_spec(tmp_path, threads_env):
    workload = WORKLOADS["explore-k3"]
    threads_env(workload)
    metrics, _, _, tracer = run.traced_pass(cli, workload.jobs(2, tmp_path), 1, workload.threads)
    names = {m["name"] for m in SPEC["per_layer"]} - {"tracing.throughput_diff",
                                                      "tracing.overhead_share"}
    assert names == set(metrics)
    assert metrics["harness.trials"] == workload.trials
    # A and B per trial, plus the worst trial replayed for the report
    assert metrics["scalar_distance.delta.calls"] == 2 * (workload.trials + 1)
    # wrappers are gone again after the pass
    assert cli.route.__module__ == "gruss_lab.cli" and not hasattr(cli.route, "__wrapped__")


def test_trial_spans_on_pool_threads_hang_under_the_suite(tmp_path, threads_env):
    workload = WORKLOADS["theorem-cp-large"]
    threads_env(workload)
    _, _, _, tracer = run.traced_pass(cli, workload.jobs(1, tmp_path), 1, workload.threads)
    spans = tracer.spans
    suite = [s for s in spans if s[4] == "harness.run_trials"]
    trials = [s for s in spans if s[4] == "harness.trial"]
    assert len(suite) == 1 and len(trials) == workload.trials
    assert {s[1] for s in trials} == {suite[0][0]}
    assert all(s[3] != suite[0][3] for s in trials)


def test_workload_names_agree_everywhere():
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_tail_is_the_latency_with_ten_jobs_beyond_it():
    latency, percentile, n = run.tail([float(i) for i in range(40)])
    assert (latency, percentile, n) == (29.0, 75.0, 40)
    assert run.tail([1.0, 2.0])[0] == 2.0


def test_it_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "explore-k3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibrated_times_are_wall_times_over_the_host_speed():
    outcomes = [run.Outcome(0.2, 10, None, 0), run.Outcome(0.4, 10, None, 0),
                run.Outcome(0.3, 10, None, 0)]
    metrics, detail = run.end_to_end(outcomes, [2.0, 2.0, 2.0])
    wall = detail["wall"]
    assert metrics["throughput"] == pytest.approx(2.0 * wall["wall_throughput"])
    assert metrics["job_p50_ms"] == pytest.approx(wall["wall_job_p50_ms"] / 2.0)
    assert metrics["job_tail_ms"] == pytest.approx(wall["wall_job_tail_ms"] / 2.0)


def test_every_timed_job_gets_a_host_speed():
    class InstantCli:
        @staticmethod
        def route(argv):
            return 0

    job = Job(argv=[], ops=1, check=lambda code, stdout: None)
    outcomes, speeds = run.timed_jobs(InstantCli, itertools.repeat(job), 0.6)
    assert len(speeds) == len(outcomes) > 1
    assert all(s > 0 for s in speeds)
