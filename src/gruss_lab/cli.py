"""Command-line entry point.

Every subcommand reads/writes JSON only and emits a single report document

    {"command": ..., "config": ..., "result": ..., "residuals": ...,
     "wallTimeMs": ...}

on stdout (or --output).  JSON has no infinities or NaNs, so a non-finite
number is written as the string "inf", "-inf" or "nan".  Exit codes:
0 success, 1 any error (with a one-line JSON error object on stderr, of
type usage, io, dimension, numeric, contract or internal), 2 mathematical
violation found.  GRUSS_LAB_THREADS caps trial parallelism (0 =
sequential) at the core count; results do not depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import fields, is_dataclass

from .errors import ContractError, DimensionError, NumericError
from .harness import (
    CHECKS,
    FAMILIES,
    check_theorem,
    explore_two_positive,
    reproduce_counterexample,
    run_trials,
)
from .linalg import dag, matrix_from_json, matrix_to_json, operator_norm, operator_norms
from .posmap import map_from_json, n_positivity_search
from .scalar_distance import delta
from .stinespring import dilate, dilation_residual, homomorphism_check
from .unitary_sum import decompose_unitary_sum

import numpy as np


def _result_json(result, omit=()) -> dict:
    """A result dataclass as a JSON object: each field under the camelCase
    of its name, complex numbers as {"re", "im"}, nested results alike."""
    out = {}
    for f in fields(result):
        if f.name in omit:
            continue
        value = getattr(result, f.name)
        if is_dataclass(value):
            value = _result_json(value)
        elif isinstance(value, complex):
            value = {"re": float(value.real), "im": float(value.imag)}
        head, *rest = f.name.split("_")
        out[head + "".join(word.capitalize() for word in rest)] = value
    return out


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


class _Parser(argparse.ArgumentParser):
    # argparse prints usage and exits 2 on a usage error, but 2 is reserved
    # for "mathematical violation found": raise, and let route write it
    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gruss-lab",
        description="Numerical checks of multiplicativity-defect bounds for positive matrix maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--output", default=None, help="write the JSON report here instead of stdout")

    p = sub.add_parser("delta", help="distance of a matrix from the scalars")
    p.add_argument("--matrix", required=True)
    add_common(p)

    p = sub.add_parser("defect", help="defect/bound report for a (map, A, B) instance")
    p.add_argument("--map", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)

    p = sub.add_parser("verify", help="randomized trial suite for one check")
    p.add_argument("check", choices=CHECKS)
    p.add_argument("--dims", default="2,3,4", help="comma-separated dimensions")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--family", choices=FAMILIES, default="cp")
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
    p.add_argument("--samples", type=int, default=20,
                   help="no A is drawn: the count is only echoed, in the "
                        "result's homomorphism.samples (default 20)")
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
        config = {"matrix": args.matrix}
        c = _load_matrix(args.matrix)
        res = delta(c)
        achieved = operator_norm(c - res.minimizer * np.eye(c.shape[0]))
        return config, _result_json(res), {"achievedMinusClaimed": achieved - res.value}, 0

    if cmd == "defect":
        config = {"map": args.map, "a": args.a, "b": args.b}
        phi = _load_map(args.map)
        a = _load_matrix(args.a)
        b = _load_matrix(args.b)
        rep = check_theorem(phi, a, b)
        return config, _result_json(rep, omit=("phi", "a", "b")), {}, 0

    if cmd in ("verify", "explore"):
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
        else:
            config = {"topic": args.topic, "trials": args.trials, "k": args.k, "seed": args.seed}
            summary = explore_two_positive(args.trials, seed=args.seed, k=args.k)
        # the explorer's ratio and the corollary's formula residual only when kept
        unset = [name for name in ("worst_ratio", "worst_formula_residual")
                 if getattr(summary, name) is None]
        code = 2 if cmd == "verify" and summary.violations > 0 else 0
        return config, _result_json(summary, omit=unset), {}, code

    if cmd == "counterexample":
        config = {}
        rep = reproduce_counterexample()
        residuals = {
            "defectError": abs(rep.defect - 6.0),
            "boundError": abs(rep.bound - 3.75),
        }
        reproduced = (residuals["defectError"] <= 1e-9 and residuals["boundError"] <= 1e-9
                      and rep.inequality_fails)
        return config, _result_json(rep), residuals, 0 if reproduced else 1

    if cmd == "npositive":
        config = {"map": args.map, "n": args.n, "starts": args.starts, "seed": args.seed}
        phi = _load_map(args.map)
        verdict = n_positivity_search(phi, args.n, starts=args.starts, seed=args.seed)
        result = _result_json(verdict, omit=("witness_a", "witness_b"))
        result["witness"] = None if verdict.witness_a is None else {
            "a": matrix_to_json(verdict.witness_a), "b": matrix_to_json(verdict.witness_b)}
        return config, result, {}, 0

    if cmd == "decompose":
        config = {"matrix": args.matrix, "m": args.m, "mode": args.mode}
        a = _load_matrix(args.matrix)
        dec = decompose_unitary_sum(a, args.m, mode=args.mode)
        u = dec.unitaries
        unitarity = float(operator_norms(dag(u) @ u - np.eye(a.shape[0])).max())
        result = {
            "m": dec.m,
            "unitaries": [matrix_to_json(u) for u in dec.unitaries],
            "reconstructionError": dec.reconstruction_error,
            "maxUnitarityResidual": unitarity,
        }
        return config, result, {"reconstructionError": dec.reconstruction_error,
                                "maxUnitarityResidual": unitarity}, 0

    if cmd == "dilate":
        config = {"map": args.map, "samples": args.samples}
        phi = _load_map(args.map)
        dil = dilate(phi)
        eye = np.eye(phi.out_dim)
        iso_residual = operator_norm(dil.isometry.conj().T @ dil.isometry - eye)
        max_dilation = dilation_residual(phi, dil)
        hom = homomorphism_check(dil, samples=args.samples)
        result = {
            "envDim": dil.env_dim,
            "isometryResidual": iso_residual,
            "maxDilationResidual": max_dilation,
            "homomorphism": hom,
        }
        return config, result, {"isometryResidual": iso_residual,
                                "maxDilationResidual": max_dilation}, 0

    raise ContractError(f"unknown command {cmd!r}")


_ERROR_TYPES = {
    argparse.ArgumentError: "usage",
    DimensionError: "dimension",
    NumericError: "numeric",
    FloatingPointError: "numeric",
    np.linalg.LinAlgError: "numeric",
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
    try:
        args = _build_parser().parse_args(argv)
        t0 = time.perf_counter()
        # an overflow or a NaN in a kernel stops the command as a numeric
        # error, rather than printing a warning and going on with inf or NaN
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config, result, residuals, code = _run_command(args)
        report = {
            "command": args.command,
            "config": config,
            "result": result,
            "residuals": residuals,
            "wallTimeMs": (time.perf_counter() - t0) * 1000.0,
        }
        _emit(report, args.output)
    except SystemExit:  # only --help exits, after printing its text
        return 0
    except Exception as exc:  # any failure, even an unforeseen one, is one JSON line
        err = {"error": {"type": _error_type(exc), "message": str(exc)}}
        sys.stderr.write(json.dumps(err) + "\n")
        return 1
    return code


def main() -> None:
    sys.exit(route())


if __name__ == "__main__":
    main()
