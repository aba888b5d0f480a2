"""Spans recorded from outside the program, and the per-layer metrics built on them.

Tracing wraps the public functions of ``permz`` as they are bound in the
modules that call them (``permz.experiments.stabilized_census``,
``permz.analysis.window_codes``, ...).  Nothing under ``src/`` is edited:
the wrappers are installed for one traced iteration and removed after it,
so untraced iterations run the program's own functions.  Traced
iterations run in one process (no pool), so spans nest.

Each span records its name, start and end (``time.perf_counter_ns``),
the span that caused it and a few counts taken at the same boundary.
Spans stay in memory and are written out once, at the end of the run.
A span's self time is its duration minus the durations of its children,
so the self times plus the self time of the harness's own root spans
(``unattributed_s``) add up exactly to the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = "bench.iteration"
CODES = "ordinal.window_codes"
CENSUS = "analysis.stabilized_census"
SCAN = "analysis.forbidden_patterns_of_map"


@dataclass
class Span:
    sid: int
    name: str
    start: int
    end: int
    parent: int | None
    attrs: dict = field(default_factory=dict)


def _codes_attrs(args, kwargs, result):
    return {"L": int(args[1] if len(args) > 1 else kwargs["L"]),
            "windows": int(result.size)}


def _census_attrs(args, kwargs, result):
    L = int(args[1] if len(args) > 1 else kwargs["L"])
    return {"windows_coded": len(args[0]) - L + 1,
            "windows_used": int(result.total_windows)}


def _samples_attrs(args, kwargs, result):
    return {"samples": int(result.size)}


def _words_attrs(args, kwargs, result):
    return {"words": int(result.size)}


def _scan_attrs(args, kwargs, result):
    n_orbits = args[2] if len(args) > 2 else kwargs["n_orbits"]
    return {"orbits": int(n_orbits)}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, counts taken when the call returns): every
# binding through which a workload reaches a traced function.
WRAP_POINTS = (
    ("permz.experiments", "run_experiment", "experiments.run_experiment", None),
    ("permz.experiments", "generate", "processes.generate", _samples_attrs),
    ("permz.experiments", "stabilized_census", "analysis.stabilized_census",
     _census_attrs),
    ("permz.experiments", "z_entropy", "entropy.z_entropy", None),
    ("permz.cli", "main", "cli.main", None),
    ("permz.cli", "read_series", "cli.read_series", _file_attrs),
    ("permz.cli", "write_series", "cli.write_series", _file_attrs),
    ("permz.cli", "generate", "processes.generate", _samples_attrs),
    ("permz.cli", "fit_decay", "analysis.fit_decay", None),
    ("permz.analysis", "forbidden_patterns_of_map",
     "analysis.forbidden_patterns_of_map", _scan_attrs),
    ("permz.analysis", "generate", "processes.generate", _samples_attrs),
    ("permz.analysis", "window_codes", "ordinal.window_codes", _codes_attrs),
    ("permz.ordinal", "window_codes", "ordinal.window_codes", _codes_attrs),
    ("permz.ordinal", "visible_curve", "ordinal.visible_curve", None),
    ("permz.entropy", "renyi_entropy", "entropy.renyi_entropy", None),
    ("permz.entropy", "lambert_w", "entropy.lambert_w", None),
    ("permz.rng", "raw_words", "rng.raw_words", _words_attrs),
)


class Recorder:
    """In-memory span store for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.started = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self.started
        self.started += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def call(self, name, fn, args, kwargs, counts):
        sid, parent = self._open()
        start = time.perf_counter_ns()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            attrs = counts(args, kwargs, result) if ok and counts else {}
            self.spans.append(Span(sid, name, start, end, parent, attrs))
        return result

    @contextmanager
    def root(self):
        """One traced iteration: a harness span with the wrappers installed."""
        originals = []
        for module_name, attr, name, counts in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn, counts))
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append(Span(sid, ROOT, start, end, parent))
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def _wrapper(self, name, fn, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path, workload: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "id": s.sid, "parent": s.parent, "workload": workload,
                    "run": self.run_id, **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its children."""
    own = {s.sid: (s.end - s.start) * 1e-9 for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= (s.end - s.start) * 1e-9
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics: for every span name ``<name>.calls``,
    ``<name>.self_s`` and the sum of each count, per traced iteration, and
    the ratios the benchmark names, as ratios of totals."""
    charged = self_times(spans)
    by_id = {s.sid: s for s in spans}
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        own = charged.get(s.sid, 0.0)
        totals[f"{s.name}.calls"] += 1
        totals[f"{s.name}.self_s"] += own
        for key, value in s.attrs.items():
            if key == "L":
                totals[f"{s.name}.L{value}.self_s"] += own
            else:
                totals[f"{s.name}.{key}"] += value
        parent = by_id.get(s.parent)
        if s.name == CODES and parent is not None and parent.name == SCAN:
            totals[f"{SCAN}.orbits_scanned"] += 1
    roots = [s for s in spans if s.name == ROOT]
    wall = sum(s.end - s.start for s in roots) * 1e-9
    n_iter = len(roots) or 1
    m = {key: value / n_iter for key, value in totals.items()}
    m["unattributed_s"] = totals[f"{ROOT}.self_s"] / n_iter
    m["trace.wall_s"] = wall / n_iter

    def ratio(num: str, den: str) -> float:
        return totals[num] / totals[den] if totals[den] else 0.0

    m[f"{CODES}.windows_per_s"] = ratio(f"{CODES}.windows", f"{CODES}.self_s")
    m[f"{CENSUS}.use_ratio"] = ratio(f"{CENSUS}.windows_used", f"{CENSUS}.windows_coded")
    m[f"{SCAN}.orbit_use_ratio"] = ratio(f"{SCAN}.orbits_scanned", f"{SCAN}.orbits")
    return m
