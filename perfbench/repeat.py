"""Repeat the benchmark over several seeds and report medians and spreads.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--first-seed 1]
                                [--traced] [--output summary.json]

Runs ``BENCHMARK.json``'s command once per seed and workload, each in a fresh
process, and prints per workload and end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) as a
share of the median, and the metric's bound.  The environment of each
workload's first run is kept with its numbers.  With ``--traced`` it adds one
traced run per workload (the first seed) and records its per-layer metrics.
``--output`` writes everything as JSON, together with the environment.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} jobs failed",
              file=sys.stderr)
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--output", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {"run_seconds": SPEC["run_seconds"], "runs": args.runs, "workloads": {}}
    for name in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(name, seed, 0) for seed in seeds]
        entry = {"seeds": list(seeds),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            stats = spread(values)
            entry["end_to_end"][metric] = stats
            print(f"{name:18s} {metric:12s} median {stats['median']:12.6g}  "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[metric]}  "
                  f"values {' '.join(f'{v:.5g}' for v in values)}", flush=True)
        record = ROOT / ".perfbench_out" / f"{name}-seed{args.first_seed}-trace0.json"
        entry["environment"] = json.loads(record.read_text())["environment"]
        if args.traced:
            traced = run_once(name, args.first_seed, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry

    if args.output:
        args.output.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
