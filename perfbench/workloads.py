"""Workload definitions: the CLI jobs each workload submits and the gate that
checks every job's answer.

A workload turns the benchmark's workload seed into an endless sequence of
jobs.  Each job is one call of ``gruss_lab.cli.route(argv)``; its ``ops`` is
the number of trials it runs (``verify``/``explore``) or 1 (one
``npositive``/``dilate``/``decompose`` command).

``verify`` and ``explore`` jobs receive only ``--seed``.  Their job seeds
come from a pool whose answers were recorded from the seed commit in
``references.json``; the gate compares against that record.  The workload
seed shuffles the pool within strata of similar recorded latency, and the
sequence takes one job from each stratum in turn, so every run mixes light
and heavy jobs in the pool's proportions (random draws such as Kraus ranks
make job costs differ severalfold).  Jobs past the end of the pool get fresh
seeds and only the invariant part of the gate.

``certify-maps`` inputs are generated here with plain numpy from the
workload seed, never with gruss_lab's samplers, so a change to a sampler
cannot change the inputs.  Their answers are known in closed form.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

#: latency strata the trial-job pools are dealt from
STRATA = 8
#: consecutive pool seeds whose recorded latencies are compared with each other
DRIFT_WINDOW = 32
#: relative tolerance on worstMargin / worstRatio (acceptance criterion 10);
#: values below 1 in magnitude are compared with the same absolute tolerance
VALUE_RTOL = 1e-6
#: acceptance thresholds for the construction residuals
ISOMETRY_TOL = 1e-10
DILATION_TOL = 1e-9
HOMOMORPHISM_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus the gate that judges its outcome.

    ``check(exit_code, stdout)`` returns ``None`` when the answer is correct
    and a one-line reason otherwise.
    """

    argv: list[str]
    ops: int
    check: Callable[[int, str], "str | None"]


def _close(value, ref) -> bool:
    if value is None or ref is None:
        return value is ref
    return abs(value - ref) <= VALUE_RTOL * max(1.0, abs(ref))


def summary_answer(code: int, stdout: str) -> list:
    """The recorded answer of a ``verify``/``explore`` job.

    [exit code, violations (or candidates), worst trial index, worstMargin,
    worstRatio (explore only, else None)].
    """
    if not stdout:
        return [code, None, None, None, None]
    result = json.loads(stdout)["result"]
    worst = result.get("worstInstance") or {}
    return [code, result.get("violations"), worst.get("trialIndex"),
            result.get("worstMargin"), result.get("worstRatio")]


@dataclass(frozen=True)
class TrialWorkload:
    """Repeated ``verify``/``explore`` runs of a fixed trial count."""

    name: str
    argv: tuple[str, ...]
    trials: int
    threads: int
    pool: int
    #: the exit code and violation count every job must report, whatever
    #: its seed (None: any count; the explorer only collects evidence)
    expected_violations: int | None
    #: job rate measured on the seed commit; sizes the traced run only
    nominal_jobs_per_s: float
    warmup_jobs: int = 2
    #: job times are divided by the host speed around each job ("segment")
    #: or by the run's median host speed ("run"); see ``run.py``
    calibration: str = "segment"

    def job_argv(self, job_seed: int) -> list[str]:
        return [*self.argv, "--trials", str(self.trials), "--seed", str(job_seed)]

    def job_seeds(self, seed: int, refs: dict) -> Iterator[int]:
        """The pool dealt stratum by stratum (see the module docstring),
        then fresh seeds past its end."""
        rng = np.random.default_rng(seed)
        # pool seeds were recorded in order with host-calibrated latencies;
        # dividing each by the median of its recording window removes the
        # host drift the calibration left
        latency = np.array([refs[str(s)][5] if str(s) in refs else 1.0
                            for s in range(self.pool)]).reshape(-1, DRIFT_WINDOW)
        work = (latency / np.median(latency, axis=1, keepdims=True)).ravel()
        strata = [list(rng.permutation(stratum))
                  for stratum in np.array_split(np.argsort(work, kind="stable"), STRATA)]
        while any(strata):
            for stratum in rng.permutation(STRATA):
                if strata[stratum]:
                    yield int(strata[stratum].pop())
        yield from itertools.count(self.pool)

    def jobs(self, seed: int, workdir: Path) -> Iterator[Job]:
        refs = load_references().get(self.name, {})
        for job_seed in self.job_seeds(seed, refs):
            ref = refs.get(str(job_seed))
            yield Job(argv=self.job_argv(job_seed), ops=self.trials,
                      check=lambda code, out, ref=ref: self._check(code, out, ref))

    def _check(self, code: int, stdout: str, ref: list | None) -> str | None:
        got = summary_answer(code, stdout)
        if got[1] is None:
            return f"exit code {code} without a report"
        if not 0 <= got[2] < self.trials:
            return f"worst trial index {got[2]} outside [0, {self.trials})"
        if not all(math.isfinite(v) for v in got[3:] if v is not None):
            return "non-finite worst margin or ratio"
        if self.expected_violations is not None and (code, got[1]) != (0, self.expected_violations):
            return f"exit code {code} with {got[1]} violations"
        if ref is None:
            return None
        if got[:3] != ref[:3]:
            return f"(exit, violations, worst index) {got[:3]} != reference {ref[:3]}"
        if not (_close(got[3], ref[3]) and _close(got[4], ref[4])):
            return f"worst margin/ratio {got[3:]} != reference {ref[3:5]}"
        return None


@functools.cache
def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


# ---------------------------------------------------------------------------
# certify-maps: npositive / dilate / decompose on generated inputs


def _matrix_json(a: np.ndarray) -> dict:
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]),
            "re": a.real.tolist(), "im": a.imag.tolist()}


def _ginibre(rng: np.random.Generator, k: int) -> np.ndarray:
    return (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)


def _unital_kraus(rng: np.random.Generator, k: int) -> list[np.ndarray]:
    """k Ginibre Kraus operators, rescaled so sum K K* = I.

    The rank is fixed: the dilation's cost grows with (rank * k)^3, and a
    random rank up to k^2 would let a few jobs dominate a run."""
    ops = [_ginibre(rng, k) for _ in range(k)]
    w, q = np.linalg.eigh(sum(op @ op.conj().T for op in ops))
    inv_sqrt = (q / np.sqrt(w)) @ q.conj().T
    return [inv_sqrt @ op for op in ops]


def _choi_json(ops: list[np.ndarray], k: int) -> dict:
    # J[(i, a), (j, b)] = sum_l K_l[a, i] conj(K_l[b, j]): block (i, j) is Phi(E_ij)
    w = np.stack([op.T.reshape(-1) for op in ops])
    return {"kind": "choi", "inDim": k, "outDim": k, "matrix": _matrix_json(w.T @ w.conj())}


def _report(stdout: str) -> dict:
    return json.loads(stdout)["result"] if stdout else {}


def _check_status(expected: str):
    def check(code: int, stdout: str) -> str | None:
        status = _report(stdout).get("status")
        if code != 0 or status != expected:
            return f"exit code {code}, status {status!r}, expected {expected!r}"
        return None
    return check


def _check_dilate(code: int, stdout: str) -> str | None:
    result = _report(stdout)
    if code != 0 or not result:
        return f"exit code {code} without a report"
    hom = result["homomorphism"]
    if not (result["isometryResidual"] <= ISOMETRY_TOL
            and result["maxDilationResidual"] <= DILATION_TOL
            and hom["max_product_residual"] <= HOMOMORPHISM_TOL
            and hom["max_adjoint_residual"] <= HOMOMORPHISM_TOL
            and hom["unital_exact"]):
        return f"dilation residuals above threshold: {result['isometryResidual']:.2e}, " \
               f"{result['maxDilationResidual']:.2e}, {hom}"
    return None


def _check_decompose(code: int, stdout: str) -> str | None:
    result = _report(stdout)
    if code != 0 or not result:
        return f"exit code {code} without a report"
    if not (result["reconstructionError"] <= RECONSTRUCTION_TOL
            and result["maxUnitarityResidual"] <= UNITARITY_TOL):
        return f"decomposition residuals {result['reconstructionError']:.2e}, " \
               f"{result['maxUnitarityResidual']:.2e} above threshold"
    return None


@dataclass(frozen=True)
class CertifyWorkload:
    """A repeating six-command cycle over maps on M_k, k = 3, 4, 5 in turn."""

    name: str = "certify-maps"
    threads: int = 0
    nominal_jobs_per_s: float = 20.0
    transpose_starts: int = 100
    choi_starts: int = 50
    dilate_samples: int = 100
    warmup_jobs: int = 6
    calibration: str = "segment"

    def jobs(self, seed: int, workdir: Path) -> Iterator[Job]:
        rng = np.random.default_rng(seed)
        cycle = 0
        while True:
            k = 3 + cycle % 3
            kraus = _unital_kraus(rng, k)
            commands = [
                # transpose: positive, not 2-positive (Schmidt-rank search)
                ({"kind": "builtin", "name": "transpose", "dim": k},
                 ["npositive", "--n", "2", "--starts", str(self.transpose_starts)],
                 _check_status("certified_not_n_positive")),
                # trace-type map: (k-1)-positive, not k-positive
                ({"kind": "builtin", "name": "choiMap", "dim": k},
                 ["npositive", "--n", str(k)],
                 _check_status("certified_not_n_positive")),
                ({"kind": "builtin", "name": "choiMap", "dim": k},
                 ["npositive", "--n", str(k - 1), "--starts", str(self.choi_starts)],
                 _check_status("heuristically_n_positive")),
                ({"kind": "kraus", "ops": [_matrix_json(op) for op in kraus]},
                 ["dilate", "--samples", str(self.dilate_samples)], _check_dilate),
                (_choi_json(kraus, k),
                 ["dilate", "--samples", str(self.dilate_samples)], _check_dilate),
            ]
            m = 3 + cycle % 8
            a = _ginibre(rng, k)
            a *= rng.uniform(0.2, 0.95) * (1.0 - 2.0 / m) / np.linalg.norm(a, 2)
            commands.append((_matrix_json(a), ["decompose", "--m", str(m)], _check_decompose))

            for position, (payload, argv, check) in enumerate(commands):
                path = workdir / f"input-{position}.json"
                path.write_text(json.dumps(payload))
                flag = "--matrix" if argv[0] == "decompose" else "--map"
                yield Job(argv=[*argv, flag, str(path), "--seed", str(int(rng.integers(2**31)))],
                          ops=1, check=check)
            cycle += 1


WORKLOADS = {
    w.name: w
    for w in (
        TrialWorkload("explore-k3", ("explore", "two-positive", "--k", "3"), trials=36,
                      threads=0, pool=1024, expected_violations=None,
                      nominal_jobs_per_s=4.5),
        TrialWorkload("lemma2-positive",
                      ("verify", "lemma2", "--family", "positive", "--dims", "2,3"),
                      trials=180, threads=0, pool=1024, expected_violations=0,
                      nominal_jobs_per_s=4.0),
        TrialWorkload("theorem-cp-large",
                      ("verify", "theorem", "--family", "cp", "--dims", "8,16"),
                      trials=6, threads=2, pool=256, expected_violations=0,
                      nominal_jobs_per_s=2.5, calibration="run"),
        CertifyWorkload(),
    )
}
