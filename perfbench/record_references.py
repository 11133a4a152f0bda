"""Record the reference answers the ``verify``/``explore`` gate compares with.

    python3 perfbench/record_references.py [--workload NAME ...]

Runs every job seed of each trial workload's pool through the CLI and writes
``[exit code, violations, worst trial index, worstMargin, worstRatio,
latency ms]`` per seed to ``references.json``.  The gate checks the first
five; the latency only sorts the pool into strata.  Jobs run sequentially
(``GRUSS_LAB_THREADS=0``; the answers do not depend on the thread count) and
their latency is host-calibrated like the benchmark's times (``run.py``), so
it measures a job's work rather than the host's speed at the moment.  Run it
on the commit whose answers are the reference (the seed commit), never on a
change under test.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from run import host_speed, reference_kernel  # noqa: E402
from workloads import REFERENCES, WORKLOADS, TrialWorkload, summary_answer  # noqa: E402


def record(workload: TrialWorkload) -> dict:
    os.environ["GRUSS_LAB_THREADS"] = "0"
    from gruss_lab import cli

    answers = {}
    for _ in range(3):
        reference_kernel()  # warm-up
    before = reference_kernel()
    for job_seed in range(workload.pool):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.route(workload.job_argv(job_seed))
            elapsed = time.perf_counter() - start
        after = reference_kernel()
        latency_ms = elapsed * 1000.0 / host_speed(before, after)
        before = after
        answers[str(job_seed)] = [*summary_answer(code, out.getvalue()), latency_ms]
    return answers


def main() -> int:
    trial_workloads = [n for n, w in WORKLOADS.items() if isinstance(w, TrialWorkload)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=trial_workloads)
    args = parser.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in args.workload or trial_workloads:
        refs[name] = record(WORKLOADS[name])
        REFERENCES.write_text(json.dumps(refs, sort_keys=True, indent=0) + "\n")
        print(f"{name}: {len(refs[name])} job seeds recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
