"""gruss-lab benchmark: closed-loop CLI workloads, timed end to end or traced.

    python3 perfbench/run.py --workload explore-k3 --seed 1 --seconds 20 --trace 0

One client submits fixed-size jobs to ``gruss_lab.cli.route(argv)``
in-process, each after the previous one returns (a closed loop), and checks
every answer (see ``workloads.py``); a job that raises or fails the check
counts in ``failed`` and the run goes on.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every metric with its unit, plus ``failed_share`` and the
tail's percentile, and a fuller record (environment, job latencies,
failures) goes to ``.perfbench_out/``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``      median time, over several fresh interpreters, from start
                   to ``import gruss_lab.cli`` returning;
* ``throughput``   ops (trials, or commands for certify-maps) per second
                   spent inside ``route``;
* ``job_p50_ms``   median job latency;
* ``job_tail_ms``  latency at the highest percentile with at least ten jobs
                   beyond it;
* ``peak_rss_mb``  peak resident memory of the process running the jobs.

The times are host-calibrated.  A shared host's speed drifts by a third and
more within seconds, and by as much again between sets of runs minutes
apart, so raw wall times of the same code spread too widely to gate a
change.  The benchmark therefore runs a fixed reference kernel
(``reference_kernel``: numpy and pure-Python work of the kinds the workloads
do, no gruss_lab code) after every ``REF_INTERVAL_S`` of jobs and divides the
job times by the host's speed: the kernel's time over ``REF_NOMINAL_S``.  On
a sequential workload each job is divided by the speed measured around it.
The jobs of the two-thread workload do not follow the single-threaded kernel
from one second to the next, only over minutes, so there every job is
divided by the run's median speed.  ``setup_s`` is calibrated the same way
against a fresh interpreter that imports numpy (``reference_start``), which
tracks process start-up far better than the kernel does.  A time is thus
what it would be on a host that runs the references in their nominal times;
a change in gruss_lab moves it in full, a change of the host's speed mostly
does not.  The raw wall-clock figures are printed beside them (``wall_*``)
and kept in the record.

``--trace 1`` runs a fixed job list (its length depends only on the
workload and ``--seconds``) twice, each job untraced and then with every
gruss_lab public function wrapped (``tracer.py``), and reports the per-layer
metrics of the traced jobs, the tracing overhead, and the spans in
``.perfbench_out/``.

``--workload all`` runs every workload in its own process and prints all of
their metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("explore-k3", "lemma2-positive", "theorem-cp-large", "certify-maps")

SETUP_REPEATS = 7
#: seconds of jobs between two runs of the reference kernel
REF_INTERVAL_S = 0.25
#: about the reference kernel's time on a shared 2-core x86-64 host (Python
#: 3.11, numpy 2 with OpenBLAS); calibrated job times are scaled to it
REF_NOMINAL_S = 0.010
#: about ``reference_start``'s time on the same host; scales ``setup_s``
START_NOMINAL_S = 0.17
#: share of --seconds the untraced half of a traced run is sized to take
TRACE_SHARE = 0.4

@dataclass(frozen=True)
class Outcome:
    """What one job cost and whether its answer passed the gate."""

    latency_s: float
    ops: int
    failure: str | None
    report_bytes: int


_WALL_TIME = re.compile(r'"wallTimeMs": [^,}]+')


def _timing_free_bytes(stdout: str) -> int:
    """Size of the report with its wallTimeMs values written as 0, so it
    repeats exactly for a fixed seed."""
    return len(_WALL_TIME.sub('"wallTimeMs": 0', stdout).encode())


def run_job(cli, job) -> Outcome:
    """Run one job through ``cli.route`` and gate its answer.

    A job that raises or fails the gate is recorded as failed; it never
    stops the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.route(job.argv)
        except Exception as exc:  # contained: counted as a failed job
            return Outcome(time.perf_counter() - start, job.ops, type(exc).__name__, 0)
        latency = time.perf_counter() - start
    text = out.getvalue()
    try:
        failure = job.check(code, text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        failure = f"malformed report: {type(exc).__name__}: {exc}"
    return Outcome(latency, job.ops, failure, _timing_free_bytes(text))


_REF_RNG = np.random.default_rng(0)
_REF_SVD = _REF_RNG.standard_normal((32, 6, 6)) + 1j * _REF_RNG.standard_normal((32, 6, 6))
_REF_HERM = _REF_RNG.standard_normal((8, 8))
_REF_HERM = _REF_HERM + _REF_HERM.T
_REF_MATMUL = _REF_RNG.standard_normal((16, 16, 16)) + 0j
_REF_RECORD = {"rows": 3, "re": [[0.5, 1.5, 2.5]] * 3, "label": "reference"}


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that calls no gruss_lab code:
    batched small SVDs, a symmetric eigensolve and batched matrix products,
    then tuples, dicts, sorting and JSON, the kinds of work the workloads
    spend their time in."""
    start = time.perf_counter()
    for _ in range(25):
        np.linalg.svd(_REF_SVD, compute_uv=False)
        np.linalg.eigh(_REF_HERM)
        _REF_MATMUL @ _REF_MATMUL
        items = [(i, str(i), i * 0.5) for i in range(200)]
        table = {name: (i, x) for i, name, x in items}
        sorted(table.items(), key=lambda kv: -kv[1][1])
        json.dumps([_REF_RECORD] * 20)
    return time.perf_counter() - start


def host_speed(before: float, after: float, nominal: float = REF_NOMINAL_S) -> float:
    """How much slower than nominal the host ran between two reference
    times."""
    return (before + after) / (2.0 * nominal)


def _time_python(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def reference_start(env: dict) -> float:
    """Seconds for a fresh interpreter to start, import numpy and exit: the
    same kind of work as most of ``setup_s``, without gruss_lab."""
    return _time_python("import numpy", env)


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median seconds from a fresh interpreter starting to its
    ``import gruss_lab.cli`` returning (process exit included), each divided
    by the host speed from the ``reference_start`` runs before and after it;
    and the same median wall-clock."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    calibrated, wall = [], []
    before = reference_start(env)
    for _ in range(repeats):
        elapsed = _time_python("import gruss_lab.cli", env)
        after = reference_start(env)
        wall.append(elapsed)
        calibrated.append(elapsed / host_speed(before, after, START_NOMINAL_S))
        before = after
    return statistics.median(calibrated), statistics.median(wall)


def timed_jobs(cli, jobs, seconds: float) -> tuple[list[Outcome], list[float]]:
    """Run jobs one after another for ``seconds`` (at least one job), with the
    reference kernel after every ``REF_INTERVAL_S`` of them.  Returns the
    outcomes and, per job, the host speed around it (see ``host_speed``)."""
    outcomes, speeds = [], []
    before = reference_kernel()
    segment_start = 0
    deadline = time.perf_counter() + seconds
    mark = time.perf_counter()
    while not outcomes or time.perf_counter() < deadline:
        outcomes.append(run_job(cli, next(jobs)))
        if time.perf_counter() - mark >= REF_INTERVAL_S:
            after = reference_kernel()
            speeds.extend([host_speed(before, after)] * (len(outcomes) - segment_start))
            before, segment_start, mark = after, len(outcomes), time.perf_counter()
    if segment_start < len(outcomes):
        speeds.extend([host_speed(before, reference_kernel())] * (len(outcomes) - segment_start))
    return outcomes, speeds


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, jobs): the slowest latency with at least ten jobs
    beyond it (the largest, if there are fewer than eleven jobs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def _throughput(outcomes: list[Outcome]) -> float:
    return sum(o.ops for o in outcomes) / sum(o.latency_s for o in outcomes)


def _latency_metrics(ops: int, latencies: list[float]) -> tuple[dict, float]:
    tail_s, percentile, _ = tail(latencies)
    return {
        "throughput": ops / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1000.0,
        "job_tail_ms": tail_s * 1000.0,
    }, percentile


def end_to_end(outcomes: list[Outcome], speeds: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics from job times divided by the host speeds, and
    beside them (``wall``) the same from raw wall-clock times."""
    ops = sum(o.ops for o in outcomes)
    metrics, percentile = _latency_metrics(
        ops, [o.latency_s / speed for o, speed in zip(outcomes, speeds)])
    wall, _ = _latency_metrics(ops, [o.latency_s for o in outcomes])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, {"tail_percentile": percentile, "jobs": len(outcomes),
                     "host_speed_median": statistics.median(speeds),
                     "wall": {f"wall_{k}": v for k, v in wall.items()}}


def environment(workload) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "GRUSS_LAB_THREADS": workload.threads,
        "commit": commit,
    }


def traced_pass(cli, jobs, count: int, threads: int, untraced=None):
    """Run ``count`` jobs with every gruss_lab public function wrapped.

    When ``untraced`` (a second iterator over the same jobs) is given, each
    traced job runs right after its untraced twin, so the machine's drift
    cancels in the tracing overhead.  Returns the per-layer metrics, the
    traced and the untraced outcomes, and the tracer.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    traced, plain = [], []
    for index in range(count):
        if untraced is not None:
            plain.append(run_job(cli, next(untraced)))
        job = next(jobs)
        tracer.job = index
        tracer.install()
        try:
            traced.append(run_job(cli, job))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer.spans, tracer.counts, threads)
    metrics["cli.report_bytes"] = sum(o.report_bytes for o in traced)
    return metrics, traced, plain, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record (see module docstring)."""
    setup_s, wall_setup_s = (None, None) if trace else measure_setup()

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    os.environ["GRUSS_LAB_THREADS"] = str(workload.threads)
    from gruss_lab import cli

    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # warm up on the first jobs, then start the sequence over
        jobs = workload.jobs(seed, Path(tmp))
        for _ in range(workload.warmup_jobs):
            run_job(cli, next(jobs))
            reference_kernel()
        jobs = workload.jobs(seed, Path(tmp))
        if not trace:
            outcomes, speeds = timed_jobs(cli, jobs, seconds)
            if workload.calibration == "run":
                speeds = [statistics.median(speeds)] * len(speeds)
            metrics, detail = end_to_end(outcomes, speeds)
            metrics["setup_s"] = setup_s
            detail["wall"]["wall_setup_s"] = wall_setup_s
            record.update(detail, calibration=workload.calibration)
        else:
            count = max(1, round(seconds * workload.nominal_jobs_per_s * TRACE_SHARE))
            twin_dir = Path(tmp) / "traced"
            twin_dir.mkdir()
            metrics, traced, outcomes, tracer = traced_pass(
                cli, workload.jobs(seed, twin_dir), count, workload.threads, untraced=jobs)
            metrics["tracing.throughput_diff"] = _throughput(traced) - _throughput(outcomes)
            metrics["tracing.overhead_share"] = _throughput(outcomes) / _throughput(traced) - 1.0
            spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
            tracer.write_spans(spans_path)
            record.update(jobs=count, spans=str(spans_path.relative_to(ROOT)))
            outcomes = outcomes + traced

    failures = [{"job": i, "reason": o.failure} for i, o in enumerate(outcomes) if o.failure]
    record.update(
        latencies_ms=[o.latency_s * 1000.0 for o in outcomes],
        attempted=len(outcomes),
        failed=len(failures),
        failed_share=len(failures) / len(outcomes),
        failures=failures[:50],
        metrics=metrics,
        environment=environment(workload),
    )
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(record: dict, units: dict) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }


def print_summary(record: dict, units: dict) -> None:
    name = record["workload"]
    for key, value in record["metrics"].items():
        print(f"{name:18s} {key:46s} {value:14.6g} {units[key]}")
    if "tail_percentile" in record:
        print(f"{name:18s} {'job_tail percentile / jobs':46s} "
              f"{record['tail_percentile']:14.6g} % of {record['jobs']}")
    if "wall" in record:
        for key, value in record["wall"].items():
            print(f"{name:18s} {key:46s} {value:14.6g} {units[key[5:]]} wall-clock")
        print(f"{name:18s} {'host_speed_median':46s} {record['host_speed_median']:14.6g} "
              f"x nominal time, per {record['calibration']}")
    print(f"{name:18s} {'failed_share':46s} {record['failed_share']:14.6g} "
          f"({record['failed']} of {record['attempted']})")
    for failure in record["failures"][:5]:
        print(f"{name:18s} failed job {failure['job']}: {failure['reason']}")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; metrics keyed '<workload>.<metric>'."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gruss_lab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no gruss_lab sources under {SRC}\n")
        return 1
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        units = _units()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_summary(record, units)
        result = result_line(record, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
