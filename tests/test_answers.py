"""Fixed-seed answers: every command of tests/data/answers.json, replayed.

Exit codes, error lines, counts, trial indices, statuses and flags must
match exactly; each float within 1e-12 * (1 + |recorded|).  The corpus and
the list of commands come from tests/data/record_answers.py.
"""

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def _recorder():
    spec = importlib.util.spec_from_file_location("record_answers", DATA / "record_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_seed_answers_replay(tmp_path):
    recorder = _recorder()
    corpus = json.loads((DATA / "answers.json").read_text())
    assert [[c["argv"], c["files"]] for c in corpus["cases"]] == \
        [list(command) for command in recorder._commands()]
    moved = []
    for case in corpus["cases"]:
        got = recorder.run(case, corpus["files"], tmp_path)
        want = {key: case[key] for key in ("code", "stderr", "leaves")}
        if got["code"] != want["code"] or got["stderr"] != want["stderr"] \
                or got["leaves"].keys() != want["leaves"].keys():
            moved.append((case["argv"], got, want))
            continue
        for key, value in want["leaves"].items():
            now = got["leaves"][key]
            if isinstance(value, float):
                same = isinstance(now, float) and abs(now - value) <= 1e-12 * (1.0 + abs(value))
            else:
                same = type(now) is type(value) and now == value
            if not same:
                moved.append((case["argv"], key, now, value))
    assert not moved, moved
