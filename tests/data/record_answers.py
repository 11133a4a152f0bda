"""Record the fixed-seed answer corpus that ``tests/test_answers.py`` replays.

    PYTHONPATH=src python tests/data/record_answers.py

Runs a fixed list of CLI commands in-process through ``cli.route`` and writes
``answers.json`` next to this script.  The list is every check x family at
dims 2,3 and 4,5 (the corollary draws its own family), seeds 0-2, 30 trials;
the explorer at k = 3 and 4, seeds 0-2; the counterexample; one certify-maps
cycle at k = 3 (``npositive``, ``dilate`` in Kraus and Choi form,
``decompose``); and the CI workflow's certify, ``delta`` and ``defect``
commands on its input files.

For each command the corpus keeps its argv, the input files it reads (their
JSON, written to the working directory before the run), its exit code, its
stderr line and the scalar leaves of its report's ``result`` and
``residuals``.  Timings are left out, and so are matrices: a worst instance
is pinned by its trial index and its values, since another BLAS may round a
matrix entry differently.  Re-record only on a change that moves an answer
on purpose, and say in CHANGES.md what moved and why.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "answers.json"


def leaves(report: dict) -> dict:
    """The scalar leaves of a report's result and residuals, by dotted path,
    less lists and matrices ({"rows", "cols", ...}).  The report's clock,
    its top-level wallTimeMs, is in neither, so a clock inside a result
    fails the replay."""
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            if "rows" in value and "cols" in value:
                return
            for key, item in value.items():
                walk(f"{prefix}.{key}", item)
        elif not isinstance(value, list):
            out[prefix] = value

    walk("result", report.get("result", {}))
    walk("residuals", report.get("residuals", {}))
    return out


def run(case: dict, files: dict, workdir: Path) -> dict:
    """Run one corpus command in ``workdir``: its exit code, stderr and leaves."""
    from gruss_lab import cli

    for name in case["files"]:
        (workdir / name).write_text(json.dumps(files[name]))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.route(case["argv"])
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    return {"code": code, "stderr": err.getvalue(),
            "leaves": leaves(json.loads(text)) if text else {}}


def _files() -> dict:
    from gruss_lab import ginibre, map_to_json, matrix_to_json, random_unital_cp, to_choi

    h = 0.7071067811865476
    zero = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    phi = random_unital_cp(3, 3, seed=1)
    a = ginibre(3, seed=2)
    return {
        # the certify-maps cycle at k = 3
        "transpose.json": {"kind": "builtin", "name": "transpose", "dim": 3},
        "choimap.json": {"kind": "builtin", "name": "choiMap", "dim": 3},
        "random-kraus.json": map_to_json(phi),
        "random-choi.json": map_to_json(to_choi(phi)),
        "random-a.json": matrix_to_json(a * 0.5 * (1.0 - 2.0 / 5) / np.linalg.norm(a, 2)),
        # the CI workflow's input files
        "kraus.json": {"kind": "kraus", "ops": [
            {"rows": 3, "cols": 3, "re": [[h, 0, 0], [0, h, 0], [0, 0, h]], "im": zero},
            {"rows": 3, "cols": 3, "re": [[0, 0, h], [h, 0, 0], [0, h, 0]], "im": zero}]},
        "a.json": {"rows": 3, "cols": 3, "re": [[0.3, 0.1, 0], [0, -0.2, 0], [0.1, 0, 0.1]],
                   "im": [[0, 0, 0.1], [0, 0.1, 0], [0, 0, 0]]},
        "hermitian.json": {"rows": 3, "cols": 3,
                           "re": [[1, 0.5, 0], [0.5, -1, 0.2], [0, 0.2, 0.3]],
                           "im": [[0, 0.1, 0], [-0.1, 0, 0.4], [0, -0.4, 0]]},
    }


def _commands() -> list[tuple[list[str], list[str]]]:
    """(argv, input files) of every corpus command, in corpus order."""
    from gruss_lab.harness import CHECKS, FAMILIES

    commands = []
    for dims in ("2,3", "4,5"):
        for seed in range(3):
            tail = ["--dims", dims, "--trials", "30", "--seed", str(seed)]
            for check in CHECKS:
                for family in FAMILIES if check != "corollary" else (None,):
                    family_args = ["--family", family] if family else []
                    commands.append((["verify", check, *family_args, *tail], []))
    for k in (3, 4):
        for seed in range(3):
            commands.append((["explore", "two-positive", "--k", str(k), "--trials", "30",
                              "--seed", str(seed)], []))
    commands.append((["counterexample"], []))
    commands += [
        (["npositive", "--map", "transpose.json", "--n", "2", "--starts", "100", "--seed", "1"],
         ["transpose.json"]),
        (["npositive", "--map", "choimap.json", "--n", "3", "--seed", "1"], ["choimap.json"]),
        (["npositive", "--map", "choimap.json", "--n", "2", "--starts", "50", "--seed", "1"],
         ["choimap.json"]),
        (["dilate", "--map", "random-kraus.json", "--samples", "100", "--seed", "1"],
         ["random-kraus.json"]),
        (["dilate", "--map", "random-choi.json", "--samples", "100", "--seed", "1"],
         ["random-choi.json"]),
        (["decompose", "--matrix", "random-a.json", "--m", "5"], ["random-a.json"]),
        # the CI workflow's certify, delta and defect commands
        (["dilate", "--map", "kraus.json", "--samples", "100", "--seed", "1"], ["kraus.json"]),
        (["decompose", "--matrix", "a.json", "--m", "5"], ["a.json"]),
        (["delta", "--matrix", "hermitian.json", "--method", "auto"], ["hermitian.json"]),
        (["delta", "--matrix", "hermitian.json", "--method", "disk"], ["hermitian.json"]),
        (["delta", "--matrix", "a.json", "--method", "auto"], ["a.json"]),
        (["defect", "--map", "kraus.json", "--a", "hermitian.json", "--b", "a.json"],
         ["kraus.json", "hermitian.json", "a.json"]),
    ]
    return commands


def main() -> int:
    import tempfile

    os.environ["GRUSS_LAB_THREADS"] = "0"
    files = _files()
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, names in _commands():
            case = {"argv": argv, "files": names}
            case.update(run(case, files, Path(tmp)))
            cases.append(case)
    CORPUS.write_text(json.dumps({"files": files, "cases": cases}, indent=1) + "\n")
    print(f"{len(cases)} commands recorded to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
