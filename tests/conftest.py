"""Shared test configuration.

Every ``hypothesis`` property test runs under one profile: examples are
derived from the test itself (``derandomize``), so the suite is
deterministic, no example database is written, and there is no per-example
deadline (the first call of a numpy kernel can be slow).  Tests set only
their own ``max_examples``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import gruss_lab
from gruss_lab import from_choi

settings.register_profile("gruss-lab", deadline=None, derandomize=True, database=None)
settings.load_profile("gruss-lab")


@pytest.fixture
def non_hermitian_map():
    """A unital map on M_2 whose Choi matrix I/2 + (E_00 - E_11) (x) N/4,
    N = [[0, 1], [-1, 0]], is not Hermitian: Phi(E_00) = I/2 + N/4 is not,
    so Phi does not preserve adjoints and is not positive."""
    n = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return from_choi(np.eye(4) / 2 + 0.25 * np.kron(np.diag([1.0, -1.0]), n), 2, 2)


# Linux keeps ru_maxrss across exec, so a child's would start at the forking
# pytest process's RSS; VmHWM is the child's own high-water mark
_PEAK_PROBE = textwrap.dedent("""
    import resource, sys
    from gruss_lab.cli import route
    code = route(sys.argv[1:])
    try:
        with open("/proc/self/status") as status:
            peak = next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:")) / 2**10
    except OSError:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak /= 2**20 if sys.platform == "darwin" else 2**10
    print(peak, file=sys.stderr)
    sys.exit(code)
""")


@pytest.fixture
def run_with_peak(tmp_path):
    """``run(command, map_json, *options)`` runs ``command --map <file>
    *options`` in a child interpreter and returns its report's result and the
    child's own peak RSS in MB."""
    pytest.importorskip("resource")
    src = str(Path(gruss_lab.__file__).resolve().parent.parent)
    runs = []

    def run(command, map_json, *options):
        runs.append(command)
        path = tmp_path / f"map{len(runs)}.json"
        report = tmp_path / f"report{len(runs)}.json"
        path.write_text(json.dumps(map_json))
        proc = subprocess.run([sys.executable, "-c", _PEAK_PROBE, command, "--map", str(path),
                               *options, "--output", str(report)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(report.read_text())["result"], float(proc.stderr.split()[-1])

    return run
