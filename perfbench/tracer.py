"""In-memory span tracer that wraps gruss_lab's public functions from outside.

``Tracer.install()`` replaces every public function of each gruss_lab module
by a wrapper that records a span, and rebinds the wrapper under every name
that refers to the original in any gruss_lab module (``harness`` imported
``delta``, ``apply`` and ``operator_norm`` directly, so rebinding only the
defining module would miss its calls).  ``uninstall()`` restores the
originals.  Two private functions get hooks too: ``harness._map_over_trials``,
so each trial becomes a span whose parent is the calling suite even on a
worker thread, and ``posmap._alternating_minimum``, counted (not timed) as
one positivity-search start.

Spans are kept per thread in memory as tuples and written out by
``write_spans``; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import numpy as np

MODULES = ("linalg", "scalar_distance", "posmap", "stinespring", "unitary_sum",
           "harness", "cli")
#: helpers too small to be worth a span; their time counts to the caller
UNTRACED = {"linalg.dag", "linalg.as_matrix"}

# span tuple fields
ID, PARENT, JOB, THREAD, NAME, START, END, DIM, FORM, EXTRA = range(10)


_EXTRAS = {
    # per-call work counts, recorded at the boundary where the work happens
    "linalg.operator_norms": lambda args, result: math.prod(args[0].shape[:-2]),
    "posmap.apply": lambda args, result: None if args[0].kraus is None else len(args[0].kraus),
    "scalar_distance.delta": lambda args, result: None if result is None else result.certified_gap,
    "stinespring.homomorphism_check":
        lambda args, result: None if result is None else result["samples"],
}


class Tracer:
    """Records spans of wrapped gruss_lab calls; safe to use from many threads."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        self._counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self._map_rep = None
        self.job = 0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
            self._local.spans = []
            self._local.thread = threading.get_ident()
            with self._lock:
                self._buffers.append(self._local.spans)
        return stack

    def count(self, name: str) -> None:
        with self._lock:
            self._counts[name] += 1

    @property
    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    @property
    def counts(self) -> Counter:
        return Counter(self._counts)

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name: str, fn, parent=None):
        """``fn`` recording a span per call; its parent is the caller's span,
        or ``parent`` when given (a trial run on a pool thread)."""
        local, ids, extra, map_rep = self._local, self._ids, _EXTRAS.get(name), self._map_rep

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._stack()
            sid = next(ids)
            caller = stack[-1] if parent is None else parent
            stack.append(sid)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                first = args[0] if args else None
                if type(first) is np.ndarray:
                    dim, form = (first.shape[-1] if first.ndim else None), None
                elif type(first) is map_rep:
                    dim, form = first.in_dim, first.form
                else:
                    dim = form = None
                local.spans.append((sid, caller, self.job, local.thread, name, start, end,
                                    dim, form, extra(args, result) if extra else None))

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        import importlib

        modules = {m: importlib.import_module(f"gruss_lab.{m}") for m in MODULES}
        self._map_rep = modules["posmap"].MapRep
        namespaces = [importlib.import_module("gruss_lab"), *modules.values()]
        wrappers = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in UNTRACED):
                    continue
                wrappers[id(fn)] = self._wrap(name, fn)

        harness, posmap = modules["harness"], modules["posmap"]
        map_over_trials = harness._map_over_trials
        alternating_minimum = posmap._alternating_minimum

        def traced_map(fn, trials, threads):
            trial = self._wrap("harness.trial", fn, parent=self._stack()[-1])
            return map_over_trials(trial, trials, threads)

        def counted_start(*args, **kwargs):
            self.count("posmap.n_positivity_search.starts")
            return alternating_minimum(*args, **kwargs)

        wrappers[id(map_over_trials)] = traced_map
        wrappers[id(alternating_minimum)] = counted_start

        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: id, parent, job, thread, name, start_ns,
        end_ns, dim, form, extra (times relative to the first span)."""
        spans = sorted(self.spans, key=lambda s: s[START])
        origin = spans[0][START] if spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in spans:
                row = list(s)
                row[START] -= origin
                row[END] -= origin
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> nanoseconds of its interval that no child span covers."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - _covered_ns(s[START], s[END], children[s[ID]])
            for s in spans}


def layer_metrics(spans: list[tuple], counts: Counter, threads: int) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json from one traced run."""
    by_id = {s[ID]: s for s in spans}
    own = self_times(spans)
    calls = Counter()
    self_ms = defaultdict(float)
    for s in spans:
        key = s[NAME] + (f".{s[FORM]}" if s[NAME] == "posmap.apply" else "")
        calls[key] += 1
        self_ms[key] += own[s[ID]] / 1e6

    def has_ancestor(span, names) -> bool:
        parent = by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    svd_in_general = 0
    normal_checks_in_delta = 0
    gap_max = 0.0
    kraus_terms = 0
    samples = 0
    matrices = 0
    trial_ns = 0
    suite_ns = 0
    for s in spans:
        name = s[NAME]
        if name in ("linalg.operator_norm", "linalg.operator_norms"):
            n = 1 if name == "linalg.operator_norm" else s[EXTRA]
            if name == "linalg.operator_norms":
                matrices += n
            if has_ancestor(s, ("scalar_distance.delta_general",)):
                svd_in_general += n
        elif name == "scalar_distance.is_normal":
            normal_checks_in_delta += has_ancestor(s, ("scalar_distance.delta",))
        elif name == "scalar_distance.delta" and s[EXTRA] is not None:
            gap_max = max(gap_max, s[EXTRA])
        elif name == "posmap.apply" and s[EXTRA] is not None:
            kraus_terms += s[EXTRA]
        elif name == "stinespring.homomorphism_check" and s[EXTRA] is not None:
            samples += s[EXTRA]
        elif name == "harness.trial":
            trial_ns += s[END] - s[START]
        elif name in ("harness.run_trials", "harness.explore_two_positive"):
            suite_ns += s[END] - s[START]

    harness_self = sum((v for k, v in self_ms.items() if k.startswith("harness.")), 0.0)
    trials = calls["harness.trial"]
    deltas = calls["scalar_distance.delta"]
    return {
        "scalar_distance.delta.calls": deltas,
        "scalar_distance.delta.gap_max": gap_max,
        "scalar_distance.delta_general.calls": calls["scalar_distance.delta_general"],
        "scalar_distance.delta_general.self_ms": self_ms["scalar_distance.delta_general"],
        "scalar_distance.delta_general.svd_matrices": svd_in_general,
        "scalar_distance.delta_normal.calls": calls["scalar_distance.delta_normal"],
        "scalar_distance.delta_normal.self_ms": self_ms["scalar_distance.delta_normal"],
        "scalar_distance.smallest_enclosing_disk.self_ms":
            self_ms["scalar_distance.smallest_enclosing_disk"],
        "scalar_distance.is_normal.per_delta": normal_checks_in_delta / deltas if deltas else 0.0,
        "linalg.operator_norm.calls": calls["linalg.operator_norm"],
        "linalg.operator_norm.self_ms": self_ms["linalg.operator_norm"],
        "linalg.operator_norms.calls": calls["linalg.operator_norms"],
        "linalg.operator_norms.matrices": matrices,
        "linalg.operator_norms.self_ms": self_ms["linalg.operator_norms"],
        **{f"posmap.apply.{form}.{what}": table[f"posmap.apply.{form}"]
           for form in ("kraus", "choi", "superop")
           for what, table in (("calls", calls), ("self_ms", self_ms))},
        "posmap.apply.kraus.terms": kraus_terms,
        **{f"posmap.{fn}.self_ms": self_ms[f"posmap.{fn}"]
           for fn in ("compose", "mix", "unitalize", "random_unital_cp", "cp_test")},
        "posmap.choi_matrix.calls": calls["posmap.choi_matrix"],
        "posmap.n_positivity_search.calls": calls["posmap.n_positivity_search"],
        "posmap.n_positivity_search.starts": counts["posmap.n_positivity_search.starts"],
        "posmap.n_positivity_search.self_ms": self_ms["posmap.n_positivity_search"],
        "stinespring.dilate.self_ms": self_ms["stinespring.dilate"],
        "stinespring.homomorphism_check.samples": samples,
        "stinespring.homomorphism_check.self_ms": self_ms["stinespring.homomorphism_check"],
        "unitary_sum.decompose_unitary_sum.calls": calls["unitary_sum.decompose_unitary_sum"],
        "unitary_sum.decompose_unitary_sum.self_ms":
            self_ms["unitary_sum.decompose_unitary_sum"],
        "harness.trials": trials,
        "harness.self_ms": harness_self,
        "harness.overhead_us_per_trial": harness_self * 1000.0 / trials if trials else 0.0,
        "harness.check_theorem.self_ms": self_ms["harness.check_theorem"],
        "harness.check_lemma2.self_ms": self_ms["harness.check_lemma2"],
        "harness.gruss_defect.self_ms": self_ms["harness.gruss_defect"],
        "harness.busy_share": trial_ns / (suite_ns * max(1, threads)) if suite_ns else 0.0,
        "cli.route.self_ms": self_ms["cli.route"],
    }
