"""Command-line entry point.

Every subcommand reads/writes JSON only and emits a single report document

    {"command": ..., "config": ..., "result": ..., "residuals": ...,
     "wallTimeMs": ...}

on stdout (or --output).  JSON has no infinities or NaNs, so a non-finite
number is written as the string "inf", "-inf" or "nan".  Exit codes:
0 success, 1 I/O or contract error (with a one-line JSON error object on
stderr), 2 mathematical violation found.  GRUSS_LAB_THREADS caps trial
parallelism (0 = sequential) at the core count; results do not depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .errors import ContractError, DimensionError, GrussLabError, NumericError
from .harness import (
    CounterexampleReport,
    GrussReport,
    TrialSummary,
    check_theorem,
    explore_two_positive,
    reproduce_counterexample,
    run_trials,
)
from .linalg import matrix_from_json, matrix_to_json, operator_norm
from .posmap import NPositivityVerdict, map_from_json, n_positivity_search
from .scalar_distance import DeltaResult, delta
from .stinespring import dilate, dilation_residual, homomorphism_check
from .unitary_sum import decompose_unitary_sum

import numpy as np


def _complex_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _delta_json(d: DeltaResult) -> dict:
    return {
        "value": d.value,
        "minimizer": _complex_json(d.minimizer),
        "method": d.method,
        "certifiedGap": d.certified_gap,
    }


def _verdict_json(v: NPositivityVerdict) -> dict:
    witness = None
    if v.witness_a is not None:
        witness = {"a": matrix_to_json(v.witness_a), "b": matrix_to_json(v.witness_b)}
    return {
        "n": v.n,
        "status": v.status,
        "minValueFound": v.min_value_found,
        "witness": witness,
        "starts": v.starts,
    }


def _gruss_json(r: GrussReport) -> dict:
    return {
        "defect": r.defect,
        "deltaA": _delta_json(r.delta_a),
        "deltaB": _delta_json(r.delta_b),
        "bound": r.bound,
        "margin": r.margin,
        "violated": r.violated,
    }


def _summary_json(s: TrialSummary) -> dict:
    out = {
        "check": s.check,
        "family": s.family,
        "trials": s.trials,
        "violations": s.violations,
        "worstMargin": s.worst_margin,
        "worstInstance": s.worst_instance,
        "seed": s.seed,
        "wallTimeMs": s.wall_time_ms,
    }
    if s.worst_ratio is not None:
        out["worstRatio"] = s.worst_ratio
    if s.worst_formula_residual is not None:
        out["worstFormulaResidual"] = s.worst_formula_residual
    return out


def _counterexample_json(r: CounterexampleReport) -> dict:
    return {
        "defect": r.defect,
        "bound": r.bound,
        "deltaA": r.delta_a,
        "deltaB": r.delta_b,
        "inequalityFails": r.inequality_fails,
    }


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_matrix(path: str):
    return matrix_from_json(_load_json(path))


def _load_map(path: str):
    return map_from_json(_load_json(path))


def _encode_non_finite(obj):
    """Copy of ``obj`` with every non-finite float written as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _encode_non_finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_non_finite(value) for value in obj]
    return obj


def _emit(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:  # a non-finite float somewhere: walk the report
        text = json.dumps(_encode_non_finite(report), sort_keys=True, allow_nan=False)
    text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gruss-lab",
        description="Numerical checks of multiplicativity-defect bounds for positive matrix maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("delta", help="distance of a matrix from the scalars")
    p.add_argument("--matrix", required=True)
    p.add_argument("--method", choices=["auto", "disk", "convex", "grid"], default="auto")
    add_common(p)

    p = sub.add_parser("defect", help="defect/bound report for a (map, A, B) instance")
    p.add_argument("--map", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)

    p = sub.add_parser("verify", help="randomized trial suite for one check")
    p.add_argument("check", choices=["theorem", "lemma1", "lemma2", "corollary"])
    p.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--family", choices=["cp", "choi", "mixed", "positive"], default="cp")
    p.add_argument("--viol-tol", type=float, default=None,
                   help="override the theorem check's violation tolerance "
                        "(default 1e-8*(1+bound); not NaN)")
    add_common(p)

    p = sub.add_parser("counterexample", help="reproduce the fixed transpose-map instance")
    add_common(p)

    p = sub.add_parser("npositive", help="Schmidt-rank-restricted positivity search")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--starts", type=int, default=50)
    add_common(p)

    p = sub.add_parser("decompose", help="write a matrix as an average of m unitaries")
    p.add_argument("--matrix", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=["strict", "relaxed"], default="strict")
    add_common(p)

    p = sub.add_parser("dilate", help="Stinespring dilation of a unital CP map")
    p.add_argument("--map", required=True)
    p.add_argument("--samples", type=int, default=20)
    add_common(p)

    p = sub.add_parser("explore", help="evidence gathering on open questions")
    p.add_argument("topic", choices=["two-positive"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--k", type=int, default=3)
    add_common(p)

    return parser


def _run_command(args: argparse.Namespace) -> tuple[dict, dict, dict, int]:
    """Returns (config, result, residuals, exit_code)."""
    cmd = args.command
    if args.seed < 0:
        raise ContractError(f"--seed must be >= 0, got {args.seed}")

    if cmd == "delta":
        config = {"matrix": args.matrix, "method": args.method}
        c = _load_matrix(args.matrix)
        res = delta(c, args.method)
        achieved = operator_norm(c - res.minimizer * np.eye(c.shape[0]))
        return config, _delta_json(res), {"achievedMinusClaimed": achieved - res.value}, 0

    if cmd == "defect":
        config = {"map": args.map, "a": args.a, "b": args.b}
        phi = _load_map(args.map)
        a = _load_matrix(args.a)
        b = _load_matrix(args.b)
        rep = check_theorem(phi, a, b)
        return config, _gruss_json(rep), {}, 0

    if cmd == "verify":
        try:
            dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
        except ValueError:
            raise ContractError(
                f"--dims must be comma-separated integers, got {args.dims!r}") from None
        config = {"check": args.check, "dims": list(dims), "trials": args.trials,
                  "family": args.family, "seed": args.seed, "violTol": args.viol_tol}
        summary = run_trials(args.check, family=args.family, dims=dims,
                             trials=args.trials, seed=args.seed, viol_tol=args.viol_tol)
        code = 2 if summary.violations > 0 else 0
        return config, _summary_json(summary), {}, code

    if cmd == "counterexample":
        config = {}
        rep = reproduce_counterexample()
        residuals = {
            "defectError": abs(rep.defect - 6.0),
            "boundError": abs(rep.bound - 3.75),
        }
        reproduced = (residuals["defectError"] <= 1e-9 and residuals["boundError"] <= 1e-9
                      and rep.inequality_fails)
        return config, _counterexample_json(rep), residuals, 0 if reproduced else 1

    if cmd == "npositive":
        config = {"map": args.map, "n": args.n, "starts": args.starts, "seed": args.seed}
        phi = _load_map(args.map)
        verdict = n_positivity_search(phi, args.n, starts=args.starts, seed=args.seed)
        return config, _verdict_json(verdict), {}, 0

    if cmd == "decompose":
        config = {"matrix": args.matrix, "m": args.m, "mode": args.mode}
        a = _load_matrix(args.matrix)
        dec = decompose_unitary_sum(a, args.m, mode=args.mode)
        eye = np.eye(a.shape[0])
        unitarity = max(operator_norm(u.conj().T @ u - eye) for u in dec.unitaries)
        result = {
            "m": dec.m,
            "unitaries": [matrix_to_json(u) for u in dec.unitaries],
            "reconstructionError": dec.reconstruction_error,
            "maxUnitarityResidual": unitarity,
        }
        return config, result, {"reconstructionError": dec.reconstruction_error,
                                "maxUnitarityResidual": unitarity}, 0

    if cmd == "dilate":
        config = {"map": args.map, "samples": args.samples, "seed": args.seed}
        phi = _load_map(args.map)
        dil = dilate(phi)
        eye = np.eye(phi.out_dim)
        iso_residual = operator_norm(dil.isometry.conj().T @ dil.isometry - eye)
        max_dilation = dilation_residual(phi, dil, samples=args.samples, seed=args.seed)
        hom = homomorphism_check(dil, samples=args.samples, seed=args.seed)
        result = {
            "envDim": dil.env_dim,
            "isometryResidual": iso_residual,
            "maxDilationResidual": max_dilation,
            "homomorphism": hom,
        }
        return config, result, {"isometryResidual": iso_residual,
                                "maxDilationResidual": max_dilation}, 0

    if cmd == "explore":
        config = {"topic": args.topic, "trials": args.trials, "k": args.k, "seed": args.seed}
        summary = explore_two_positive(args.trials, seed=args.seed, k=args.k)
        return config, _summary_json(summary), {}, 0

    raise ContractError(f"unknown command {cmd!r}")


_ERROR_TYPES = {
    DimensionError: "dimension",
    NumericError: "numeric",
    ContractError: "contract",
}


def _error_type(exc: Exception) -> str:
    for klass, name in _ERROR_TYPES.items():
        if isinstance(exc, klass):
            return name
    if isinstance(exc, (OSError, json.JSONDecodeError)):
        return "io"
    return "internal"


def route(argv=None) -> int:
    """Parse argv, run the subcommand, emit the report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but exit code 2 is reserved for
        # "mathematical violation found"; remap usage problems to 1
        if exc.code == 0:
            return 0
        sys.stderr.write(json.dumps({"error": {"type": "usage",
                                               "message": "invalid arguments"}}) + "\n")
        return 1
    t0 = time.perf_counter()
    try:
        config, result, residuals, code = _run_command(args)
        report = {
            "command": args.command,
            "config": config,
            "result": result,
            "residuals": residuals,
            "wallTimeMs": (time.perf_counter() - t0) * 1000.0,
        }
        _emit(report, args.output)
    except (GrussLabError, OSError, json.JSONDecodeError, ValueError) as exc:
        err = {"error": {"type": _error_type(exc), "message": str(exc)}}
        sys.stderr.write(json.dumps(err) + "\n")
        return 1
    return code


def main() -> None:
    sys.exit(route())


if __name__ == "__main__":
    main()
