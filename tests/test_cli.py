"""End-to-end CLI coverage: every subcommand, exit codes, determinism."""

import base64
import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gruss_lab
from gruss_lab import (
    cli,
    dag,
    decompose_unitary_sum,
    from_kraus,
    ginibre,
    haar_unitary,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    rescale_for_decomposition,
)
from gruss_lab.cli import route
from gruss_lab.linalg import operator_norms


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _strip_walltime(report):
    # the report's one clock is its top-level wallTimeMs
    return {k: v for k, v in report.items() if k != "wallTimeMs"}


def _all_numbers_finite(obj):
    if isinstance(obj, dict):
        return all(_all_numbers_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_numbers_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


@pytest.fixture
def fixtures(tmp_path):
    return {
        "id2": _write(tmp_path / "id2.json", matrix_to_json(np.eye(2))),
        "a": _write(tmp_path / "a.json", matrix_to_json(np.array([[1.0, 2.0], [2.0, 4.0]]))),
        "b": _write(tmp_path / "b.json", matrix_to_json(np.diag([1.0, 4.0]))),
        "half": _write(tmp_path / "half.json", matrix_to_json(0.5 * np.eye(2))),
        "tenth": _write(tmp_path / "tenth.json", matrix_to_json(0.1 * np.eye(2))),
        "subnormal": _write(tmp_path / "subnormal.json", matrix_to_json(np.diag([1e-320, 0.0]))),
        "transpose": _write(tmp_path / "t.json", {"kind": "builtin", "name": "transpose", "dim": 2}),
        "idmap": _write(tmp_path / "id_map.json",
                        {"kind": "kraus", "ops": [matrix_to_json(np.eye(2))]}),
        "dim-text": _write(tmp_path / "dim_text.json",
                           {"kind": "builtin", "name": "transpose", "dim": "x"}),
        "dim-fraction": _write(tmp_path / "dim_fraction.json",
                               {"kind": "builtin", "name": "transpose", "dim": 2.7}),
        "in-dim-text": _write(tmp_path / "in_dim_text.json",
                              {"kind": "choi", "inDim": "x", "outDim": 2,
                               "matrix": matrix_to_json(np.eye(4))}),
        "out-dim-text": _write(tmp_path / "out_dim_text.json",
                               {"kind": "choi", "inDim": 2, "outDim": "x",
                                "matrix": matrix_to_json(np.eye(4))}),
        "unitary-conj-builtin": _write(tmp_path / "unitary_conj_builtin.json",
                                       {"kind": "builtin", "name": "unitaryConj", "dim": 3}),
        "transpose-huge": _write(tmp_path / "t_huge.json",
                                 {"kind": "builtin", "name": "transpose", "dim": 1000000}),
        "name-list": _write(tmp_path / "name_list.json",
                            {"kind": "builtin", "name": ["transpose"], "dim": 2}),
        "bool-dims": _write(tmp_path / "bool_dims.json",
                            {"rows": True, "cols": True, "re": [[2.0]], "im": [[0.0]]}),
        "tmp_path": tmp_path,
    }


def _run(capsys, argv):
    code = route(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_delta_identity(capsys, fixtures):
    code, rep = _run(capsys, ["delta", "--matrix", fixtures["id2"]])
    assert code == 0
    assert rep["command"] == "delta"
    assert rep["result"]["value"] == 0.0
    assert rep["result"]["minimizer"] == {"re": 1.0, "im": 0.0}
    assert rep["config"]["method"] == "auto"
    assert _all_numbers_finite(rep)


def test_counterexample_golden(capsys):
    code, rep = _run(capsys, ["counterexample"])
    assert code == 0
    assert rep["result"] == {
        "defect": 6.0,
        "bound": 3.75,
        "deltaA": 2.5,
        "deltaB": 1.5,
        "inequalityFails": True,
    }


def test_defect_fixed_instance(capsys, fixtures):
    code, rep = _run(capsys, ["defect", "--map", fixtures["transpose"],
                              "--a", fixtures["a"], "--b", fixtures["b"]])
    assert code == 0
    res = rep["result"]
    assert res["defect"] == pytest.approx(6.0, abs=1e-12)
    assert res["bound"] == pytest.approx(3.75, abs=1e-12)
    assert res["violated"] is True


def test_verify_deterministic_and_exit_code(capsys):
    code1, rep1 = _run(capsys, ["verify", "theorem", "--dims", "2", "--trials", "10", "--seed", "7"])
    code2, rep2 = _run(capsys, ["verify", "theorem", "--dims", "2", "--trials", "10", "--seed", "7"])
    assert code1 == code2 == 0
    assert rep1["result"] == rep2["result"]
    assert rep1["result"]["violations"] == 0
    assert rep1["config"]["check"] == "theorem"


def test_reports_do_not_depend_on_the_thread_count(capsys, monkeypatch):
    runs = (["verify", "theorem", "--dims", "2,3", "--trials", "24", "--seed", "11"],
            ["explore", "two-positive", "--trials", "24", "--seed", "11"],
            ["verify", "lemma1", "--family", "cp", "--dims", "2,3", "--trials", "24",
             "--seed", "11"])
    for argv in runs:
        reports = []
        for threads in ("0", "4"):
            monkeypatch.setenv("GRUSS_LAB_THREADS", threads)
            code, rep = _run(capsys, argv)
            assert code == 0
            reports.append(_strip_walltime(rep))
        assert reports[0] == reports[1]


def test_seed_is_echoed_only_where_it_is_used(capsys, fixtures):
    runs = {
        "delta": (["delta", "--matrix", fixtures["id2"]], False),
        "defect": (["defect", "--map", fixtures["transpose"], "--a", fixtures["a"],
                    "--b", fixtures["b"]], False),
        "counterexample": (["counterexample"], False),
        "decompose": (["decompose", "--matrix", fixtures["half"], "--m", "5"], False),
        "verify": (["verify", "theorem", "--dims", "2", "--trials", "2"], True),
        "explore": (["explore", "two-positive", "--trials", "2"], True),
        "npositive": (["npositive", "--map", fixtures["transpose"], "--n", "1"], True),
        "dilate": (["dilate", "--map", fixtures["idmap"], "--samples", "2"], False),
    }
    for command, (argv, draws) in runs.items():
        code, rep = _run(capsys, [*argv, "--seed", "3"])
        assert code == 0, command
        assert ("seed" in rep["config"]) == draws, command
        if draws:
            assert rep["config"]["seed"] == 3


def test_verify_invalid_config_errors(capsys):
    code = route(["verify", "corollary", "--dims", "3", "--trials", "5"])
    err = capsys.readouterr().err
    assert code == 1
    parsed = json.loads(err)
    assert parsed["error"]["type"] == "contract"


def test_npositive_transpose(capsys, fixtures):
    code, rep = _run(capsys, ["npositive", "--map", fixtures["transpose"],
                              "--n", "2", "--starts", "20"])
    assert code == 0
    assert rep["result"]["status"] == "certified_not_n_positive"
    assert rep["result"]["minValueFound"] == pytest.approx(-1.0, abs=1e-9)

    code, rep = _run(capsys, ["npositive", "--map", fixtures["transpose"],
                              "--n", "1", "--starts", "20"])
    assert rep["result"]["status"] == "heuristically_n_positive"
    assert rep["result"]["minValueFound"] >= -1e-9


def test_npositive_never_refutes_the_zero_map(capsys, tmp_path):
    # J = 0: heuristic below min(k, d) = 3, the exact CP decision from there
    zero = _write(tmp_path / "zero.json", map_to_json(from_kraus([np.zeros((3, 3))])))
    for n, status in ((1, "heuristically_n_positive"), (2, "heuristically_n_positive"),
                      (3, "certified_cp")):
        code, rep = _run(capsys, ["npositive", "--map", zero, "--n", str(n), "--starts", "5"])
        assert code == 0
        assert rep["result"]["status"] == status
        assert rep["result"]["minValueFound"] == 0.0


def test_decompose(capsys, fixtures):
    code, rep = _run(capsys, ["decompose", "--matrix", fixtures["half"], "--m", "5"])
    assert code == 0
    assert rep["result"]["m"] == 5
    assert len(rep["result"]["unitaries"]) == 5
    assert rep["result"]["reconstructionError"] <= 1e-10
    assert rep["result"]["maxUnitarityResidual"] <= 1e-10


def test_the_unitarity_residual_is_one_norm_batch(capsys, tmp_path):
    # the residual of the (m, n, n) stack of unitaries in one operator_norms
    # call is, bit for bit, the largest of the residuals unitary by unitary
    def one_by_one(unitaries):
        n = unitaries.shape[-1]
        return max(operator_norm(u.conj().T @ u - np.eye(n)) for u in unitaries)

    for n in (2, 3, 4, 8, 16, 32):
        for m in (3, 4, 7, 16, 64):
            scaled, _ = rescale_for_decomposition(ginibre(n, seed=n * m), m)
            u = decompose_unitary_sum(scaled, m).unitaries
            assert float(operator_norms(dag(u) @ u - np.eye(n)).max()) == one_by_one(u)
    a = rescale_for_decomposition(ginibre(5, seed=1), 7)[0]
    code, rep = _run(capsys, ["decompose", "--matrix", _write(tmp_path / "a.json",
                                                              matrix_to_json(a)), "--m", "7"])
    assert code == 0
    u = np.array([matrix_from_json(x) for x in rep["result"]["unitaries"]])
    assert rep["result"]["maxUnitarityResidual"] == one_by_one(u)


def test_decompose_contract_error_exit_one(capsys, fixtures):
    code = route(["decompose", "--matrix", fixtures["id2"], "--m", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"]["type"] == "contract"


def test_dilate(capsys, fixtures):
    code, rep = _run(capsys, ["dilate", "--map", fixtures["idmap"], "--samples", "5"])
    assert code == 0
    assert rep["result"]["envDim"] == 1
    assert rep["result"]["isometryResidual"] <= 1e-12
    assert rep["result"]["maxDilationResidual"] <= 1e-12


def test_a_choi_matrix_that_is_not_hermitian_is_a_contract_error(capsys, tmp_path,
                                                                  non_hermitian_map):
    path = _write(tmp_path / "nh.json", gruss_lab.map_to_json(non_hermitian_map))
    for argv in (["npositive", "--map", path, "--n", "2"],
                 ["npositive", "--map", path, "--n", "1", "--starts", "4"],
                 ["dilate", "--map", path, "--samples", "5"]):
        assert route(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "contract" and "not Hermitian" in error["message"]


def test_explore(capsys):
    code, rep = _run(capsys, ["explore", "two-positive", "--trials", "6", "--seed", "1"])
    assert code == 0
    assert rep["result"]["trials"] == 6
    assert "worstRatio" in rep["result"]
    assert _all_numbers_finite(rep)


def test_output_file(fixtures, capsys):
    out = fixtures["tmp_path"] / "report.json"
    code = route(["counterexample", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["defect"] == 6.0


def test_unknown_flag_rejected(fixtures, capsys):
    code = route(["delta", "--matrix", fixtures["id2"], "--frobnicate", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"]["type"] == "usage"


def test_help_exits_zero(capsys):
    assert route(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, reason", [
    (["delta", "--matrix", "id2", "--frobnicate", "1"],
     "unrecognized arguments: --frobnicate 1"),
    (["delta"], "the following arguments are required: --matrix"),
    # argparse's quoting of the choice list differs between Python versions
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "),
    (["verify", "theorem", "--trials", "many"], "argument --trials: invalid int value: 'many'"),
    # argparse reads a bare -1e-3 as an option; --viol-tol=-1e-3 is the value
    (["verify", "theorem", "--viol-tol", "-1e-3"], "argument --viol-tol: expected one argument"),
], ids=["unknown-flag", "missing-option", "invalid-command", "non-integer", "negative-tol"])
def test_a_usage_error_is_one_json_line_with_argparse_reason(capsys, fixtures, argv, reason):
    # argparse's own usage text would be a second writer to stderr
    code = route([fixtures.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "usage"
    assert error["message"].startswith(reason)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_writes_only_its_text_and_exits_zero(capsys, argv):
    assert route(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: gruss-lab")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["verify", "theorem", "--dims", "2,3", "--trials", "4", "--seed", "3"],
    ["explore", "two-positive", "--trials", "4", "--seed", "3"],
], ids=["verify", "explore"])
def test_a_suite_result_holds_no_clock(capsys, argv):
    # the report's top-level wallTimeMs is its only clock, so a suite's
    # result repeats in full, with no key removed
    (code1, first), (code2, second) = (_run(capsys, argv) for _ in range(2))
    assert code1 == code2 == 0
    assert first["result"] == second["result"]


def test_verify_violation_exit_code(capsys):
    # a negative tolerance flags every trial, exercising the exit-2 path
    code, rep = _run(capsys, ["verify", "theorem", "--dims", "2", "--trials", "3",
                              "--seed", "1", "--viol-tol=-100"])
    assert code == 2
    assert rep["result"]["violations"] == 3


def test_missing_file_is_io_error(capsys):
    code = route(["delta", "--matrix", "/nonexistent/never.json"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"]["type"] == "io"


def test_malformed_matrix_is_contract_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]}))
    code = route(["delta", "--matrix", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err)["error"]["type"] == "dimension"


def _data(*values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@pytest.mark.parametrize("obj, error", [
    ({"rows": 1, "cols": 2, "re": [["1e3", 1.0]], "im": [[0, 0]]}, "contract"),
    ({"rows": 1, "cols": 2, "re": [[1.0, True]], "im": [[0, False]]}, "contract"),
    ({"rows": 1, "cols": 1, "data": "not base64!"}, "contract"),
    ({"rows": 1, "cols": 1, "data": [1.0, 0.0]}, "contract"),
    ({"rows": 1, "cols": 1, "data": _data(1.0, 0.0), "re": [[1.0]], "im": [[0.0]]},
     "contract"),
    ({"rows": 1, "cols": 1, "data": _data(float("nan"), 0.0)}, "contract"),
    ({"rows": 1, "cols": 1, "data": _data(0.0, float("inf"))}, "contract"),
    ({"rows": True, "cols": 1, "data": _data(1.0, 0.0)}, "contract"),
    ({"rows": 2, "cols": 1, "data": _data(1.0, 0.0)}, "dimension"),
], ids=["list-entry-text", "list-entry-bool", "data-not-base64", "data-not-a-string",
        "data-and-re-im", "data-nan", "data-inf", "data-bool-rows", "data-length"])
def test_a_malformed_matrix_is_one_error_line(capsys, tmp_path, obj, error):
    path = _write(tmp_path / "bad.json", obj)
    kraus = _write(tmp_path / "bad_map.json", {"kind": "kraus", "ops": [obj]})
    for argv in (["delta", "--matrix", path], ["dilate", "--map", kraus]):
        code = route(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == error


def test_a_report_matrix_is_its_exact_bytes(capsys, fixtures):
    # a verdict's witness is written in the data layout and reads back bit for bit
    code, rep = _run(capsys, ["npositive", "--map", fixtures["transpose"], "--n", "2",
                              "--starts", "5"])
    assert code == 0
    for name in ("a", "b"):
        obj = rep["result"]["witness"][name]
        assert set(obj) == {"rows", "cols", "data"}
        raw = base64.b64decode(obj["data"], validate=True)
        assert len(raw) == obj["rows"] * obj["cols"] * 16
        assert matrix_to_json(matrix_from_json(obj)) == obj


def test_kraus_operators_of_two_shapes_are_a_dimension_error(capsys, tmp_path):
    ops = [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]
    path = _write(tmp_path / "two_shapes.json", {"kind": "kraus", "ops": ops})
    for argv in (["dilate", "--map", path], ["npositive", "--map", path, "--n", "1"]):
        code = route(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["type"] == "dimension"


def test_non_finite_numbers_are_encoded_not_raised(capsys, tmp_path):
    # JSON has no infinity: the report spells it out instead of crashing
    code, rep = _run(capsys, ["verify", "theorem", "--dims", "2", "--trials", "2",
                              "--viol-tol", "inf"])
    assert code == 0
    assert rep["config"]["violTol"] == "inf"

    # a report that cannot be written is an I/O error, not a traceback
    code = route(["counterexample", "--output", str(tmp_path / "missing" / "report.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["type"] == "io"


@pytest.mark.parametrize("argv", [
    ["defect", "--map", "idmap", "--a", "huge", "--b", "huge"],
    ["npositive", "--map", "huge-kraus", "--n", "1"],
    ["dilate", "--map", "huge-kraus"],
], ids=["defect", "npositive", "dilate"])
def test_an_overflow_in_a_kernel_is_one_numeric_error_line(capsys, fixtures, argv):
    # finite inputs whose products overflow: no warning is printed, and the
    # error blames the arithmetic, not the input
    huge = np.diag([1e200, 1.0])
    fixtures["huge"] = _write(fixtures["tmp_path"] / "huge.json", matrix_to_json(huge))
    fixtures["huge-kraus"] = _write(fixtures["tmp_path"] / "huge_kraus.json",
                                    {"kind": "kraus", "ops": [matrix_to_json(huge)]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = route([fixtures.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "numeric"


def test_a_failed_decomposition_is_a_numeric_error(capsys, fixtures, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "n_positivity_search", fail)
    code = route(["npositive", "--map", fixtures["transpose"], "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err) == {"error": {"type": "numeric",
                                                  "message": "SVD did not converge"}}


@pytest.mark.parametrize("argv", [
    ["npositive", "--map", "transpose", "--n", "2", "--starts", "-3"],
    ["npositive", "--map", "transpose", "--n", "2", "--starts", "0"],
    ["dilate", "--map", "idmap", "--samples", "-2"],
    ["verify", "theorem", "--dims", "2", "--trials", "-1"],
    ["verify", "theorem", "--dims", "2", "--trials", "2", "--seed", "-1"],
    ["explore", "two-positive", "--trials", "2", "--seed", "-1"],
    ["npositive", "--map", "transpose", "--n", "2", "--seed", "-1"],
    ["verify", "theorem", "--dims", "x", "--trials", "2"],
    ["npositive", "--map", "dim-text", "--n", "2"],
    ["npositive", "--map", "dim-fraction", "--n", "2"],
    ["npositive", "--map", "in-dim-text", "--n", "2"],
    ["npositive", "--map", "out-dim-text", "--n", "2"],
    ["delta", "--matrix", "bool-dims"],
    ["verify", "theorem", "--dims", "2", "--trials", "2", "--viol-tol", "nan"],
    ["verify", "lemma1", "--dims", "2", "--trials", "2", "--viol-tol", "1e-3"],
    ["verify", "lemma2", "--dims", "2", "--trials", "2", "--viol-tol", "1e-3"],
    ["verify", "corollary", "--dims", "4", "--trials", "2", "--viol-tol", "1e-3"],
    ["npositive", "--map", "unitary-conj-builtin", "--n", "2"],
    ["npositive", "--map", "name-list", "--n", "2"],
    # beyond MAX_DIM: each would request petabytes, and none may allocate
    ["npositive", "--map", "transpose-huge", "--n", "2"],
    ["verify", "theorem", "--family", "cp", "--dims", "2,1000000", "--trials", "1"],
    ["explore", "two-positive", "--k", "1000000", "--trials", "1"],
    # beyond MAX_UNITARIES: would allocate 30 million unitaries
    ["decompose", "--matrix", "tenth", "--m", "30000000"],
], ids=["starts-negative", "starts-zero", "samples-negative", "trials-negative",
        "verify-seed-negative", "explore-seed-negative", "npositive-seed-negative",
        "dims-text", "builtin-dim-text", "builtin-dim-fraction", "choi-in-dim-text",
        "choi-out-dim-text", "matrix-bool-dims", "viol-tol-nan", "viol-tol-lemma1",
        "viol-tol-lemma2", "viol-tol-corollary", "builtin-unitary-conj",
        "builtin-name-list", "builtin-dim-huge", "verify-dims-huge", "explore-k-huge",
        "decompose-m-huge"])
def test_invalid_counts_and_seeds_are_contract_errors(capsys, fixtures, argv):
    argv = [fixtures.get(arg, arg) for arg in argv]
    code = route(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "contract"


def _one_error_line(capsys, argv):
    code = route(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "contract"


@pytest.mark.parametrize("argv, obj", [
    (["verify", "theorem", "--dims", "", "--trials", "2"], None),
    (["verify", "theorem", "--dims", "1,2", "--trials", "2"], None),
    (["explore", "two-positive", "--k", "1", "--trials", "2"], None),
    (["npositive", "--map", "file", "--n", "2"], [{"kind": "builtin", "name": "transpose",
                                                   "dim": 2}]),
    (["npositive", "--map", "file", "--n", "2"],
     {"kind": "choi", "inDim": 2, "matrix": matrix_to_json(np.eye(4))}),
    (["npositive", "--map", "file", "--n", "2"], {"kind": "builtin", "name": "transpose"}),
    (["npositive", "--map", "transpose", "--n", "0"], None),
    (["decompose", "--matrix", "tenth", "--m", "2"], None),
    (["npositive", "--map", "file", "--n", "1"], {"kind": "builtin", "name": "transpose",
                                                   "dim": 1}),
    (["npositive", "--map", "file", "--n", "1"], {"kind": "builtin", "name": "choiMap",
                                                   "dim": 1}),
], ids=["dims-empty", "dims-one", "explore-k-one", "map-list", "choi-no-out-dim",
        "builtin-no-dim", "npositive-n-zero", "decompose-strict-m-two",
        "builtin-transpose-dim-one", "builtin-choi-map-dim-one"])
def test_outside_input_is_refused_as_one_contract_error_line(capsys, fixtures, argv, obj):
    if obj is not None:
        fixtures["file"] = _write(fixtures["tmp_path"] / "map.json", obj)
    _one_error_line(capsys, [fixtures.get(arg, arg) for arg in argv])


def test_a_unitary_conj_map_reports_as_its_kraus_form(capsys, tmp_path, fixtures):
    u = haar_unitary(2, seed=5)
    conj = _write(tmp_path / "conj.json", {"kind": "unitaryConj", "u": matrix_to_json(u)})
    kraus = _write(tmp_path / "kraus.json", {"kind": "kraus", "ops": [matrix_to_json(u)]})
    reports = []
    for path in (conj, kraus):
        code, rep = _run(capsys, ["defect", "--map", path, "--a", fixtures["a"],
                                  "--b", fixtures["b"]])
        assert code == 0
        reports.append({key: rep[key] for key in ("command", "result", "residuals")})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("obj", [
    {"kind": "unitaryConj"},
    {"kind": "unitaryConj", "u": matrix_to_json(np.array([[1.0, 1.0], [0.0, 1.0]]))},
], ids=["u-missing", "u-not-unitary"])
def test_a_unitary_conj_map_needs_a_unitary_u(capsys, tmp_path, fixtures, obj):
    path = _write(tmp_path / "conj.json", obj)
    _one_error_line(capsys, ["defect", "--map", path, "--a", fixtures["a"],
                             "--b", fixtures["b"]])


_DELTA_KEYS = {"value", "minimizer", "method", "certifiedGap"}
_SUMMARY_KEYS = {"check", "family", "trials", "violations", "worstMargin", "worstInstance",
                 "seed"}
_VERDICT_KEYS = {"n", "status", "minValueFound", "witness", "starts"}


@pytest.mark.parametrize("argv, keys", [
    (["delta", "--matrix", "a", "--method", "auto"], _DELTA_KEYS),
    (["delta", "--matrix", "a", "--method", "disk"], _DELTA_KEYS),
    (["delta", "--matrix", "a", "--method", "grid"], _DELTA_KEYS),
    (["defect", "--map", "transpose", "--a", "a", "--b", "b"],
     {"defect", "deltaA", "deltaB", "bound", "margin", "violated"}),
    (["counterexample"], {"defect", "bound", "deltaA", "deltaB", "inequalityFails"}),
    (["npositive", "--map", "transpose", "--n", "1", "--starts", "3"], _VERDICT_KEYS),
    (["npositive", "--map", "transpose", "--n", "2"], _VERDICT_KEYS),
    (["decompose", "--matrix", "half", "--m", "5"],
     {"m", "unitaries", "reconstructionError", "maxUnitarityResidual"}),
    (["dilate", "--map", "idmap", "--samples", "2"],
     {"envDim", "isometryResidual", "maxDilationResidual", "homomorphism"}),
    (["verify", "theorem", "--dims", "2", "--trials", "2"], _SUMMARY_KEYS),
    (["verify", "corollary", "--dims", "4", "--trials", "2"],
     _SUMMARY_KEYS | {"worstFormulaResidual"}),
    (["explore", "two-positive", "--trials", "0"], _SUMMARY_KEYS | {"worstRatio"}),
    (["explore", "two-positive", "--trials", "2"], _SUMMARY_KEYS | {"worstRatio"}),
], ids=["delta-auto", "delta-disk", "delta-grid", "defect", "counterexample",
        "npositive-search", "npositive-exact", "decompose", "dilate", "verify-theorem",
        "verify-corollary", "explore-no-trials", "explore"])
def test_each_command_reports_exactly_its_result_keys(capsys, fixtures, argv, keys):
    # result keys follow the result's field names, so renaming a field must
    # fail here rather than silently change the wire format
    code, rep = _run(capsys, [fixtures.get(arg, arg) for arg in argv])
    assert code == 0
    result = rep["result"]
    assert set(result) == keys
    for name in ("deltaA", "deltaB"):
        if isinstance(result.get(name), dict):
            assert set(result[name]) == _DELTA_KEYS
    if "minimizer" in result:
        assert set(result["minimizer"]) == {"re", "im"}
    if "witness" in result:
        assert set(result["witness"]) == {"a", "b"}


@pytest.mark.parametrize("exc_type", [MemoryError, TypeError])
def test_an_unforeseen_exception_is_one_internal_error_line(capsys, monkeypatch, exc_type):
    def fail():
        raise exc_type("unforeseen")

    monkeypatch.setattr(cli, "reproduce_counterexample", fail)
    code = route(["counterexample"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"type": "internal", "message": "unforeseen"}}


def test_cli_import_leaves_scipy_unloaded():
    # scipy's import is a large share of start-up and nothing in the package needs it
    src = str(Path(gruss_lab.__file__).resolve().parent.parent)
    for module in ("gruss_lab.cli", "gruss_lab"):
        probe = (f"import sys, {module}; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]", module


def test_disk_route_on_a_subnormal_matrix(capsys, fixtures):
    # ||C|| of a subnormal C is inexact, and dividing by it used to overflow
    code = route(["delta", "--matrix", fixtures["subnormal"], "--method", "disk"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    res = json.loads(captured.out)["result"]
    assert 0.0 <= res["value"] - res["certifiedGap"] <= 5e-321 <= res["value"]


def test_a_usage_error_leaves_the_cached_parser_intact(capsys, fixtures):
    valid = [["delta", "--matrix", fixtures["a"]],
             ["verify", "theorem", "--dims", "2", "--trials", "3", "--seed", "2"]]

    def reports():
        out = []
        for argv in valid:
            code, rep = _run(capsys, argv)
            out.append((code, _strip_walltime(rep)))
        return out

    cli._build_parser.cache_clear()
    fresh = reports()
    first = _run(capsys, valid[0])
    assert route(["verify", "theorem", "--frobnicate"]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err) == {"error": {"type": "usage",
                                     "message": "unrecognized arguments: --frobnicate"}}
    assert (first[0], _strip_walltime(first[1])) == fresh[0]
    assert reports() == fresh
