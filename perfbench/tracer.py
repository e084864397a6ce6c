"""Span tracing around the public functions on the ``analyze`` path.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent, matrix id,
work count).  Nothing under ``src/`` changes: the wrappers live here and
are removed again when the traced block ends.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

ROOT_SPAN = "cli.analyze"


def _variation_work(a, *_args, **_kwargs) -> int:
    # absolute differences: rows * (cols choose 2)
    return a.rows * a.cols * (a.cols - 1) // 2


def _mat_mul_work(a, b, *_args, **_kwargs) -> int:
    # multiply-adds of the naive product
    return a.rows * a.cols * b.cols


# (module, attribute its caller looks up, span name, work counter)
PATCHES: tuple[tuple[str, str, str, Optional[Callable[..., int]]], ...] = (
    ("stovar.cli", "parse_matrix", "cli.parse_matrix", None),
    ("stovar.cli", "analysis_report", "cli.analysis_report", None),
    ("json", "dumps", "cli.json_dumps", None),
    ("stovar.analysis", "analyze", "analysis.analyze", None),
    ("stovar.analysis", "stationary_vector", "analysis.stationary_vector", None),
    ("stovar.analysis", "limit_projection", "analysis.limit_projection", None),
    ("stovar.analysis", "decay_bound", "analysis.decay_bound", None),
    ("stovar.analysis", "variation", "core.variation", _variation_work),
    ("stovar.cli", "variation", "core.variation", _variation_work),
    ("stovar.analysis", "mat_mul", "core.mat_mul", _mat_mul_work),
    ("stovar.core", "type_of", "core.type_of", None),  # via ensure_type_one
    ("stovar.cli", "type_of", "core.type_of", None),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    matrix: int  # invocation number; spans of one command share it
    work: int


class Tracer:
    """Collects spans for every traced invocation of the command."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.scale: dict[int, float] = {}  # matrix -> calibration factor of its timings
        self._stack: list[int] = []
        self._matrix = -1

    def _open(self) -> int:
        self.spans.append(None)
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, work: int) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, self._matrix, work)

    def _wrap(self, fn: Callable, name: str, counter: Optional[Callable[..., int]]):
        def traced(*args, **kwargs):
            work = counter(*args, **kwargs) if counter is not None else 0
            index = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, name, start, work)

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, counter in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def command(self, matrix: int):
        """Root span around one whole command invocation."""
        self._matrix = matrix
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, ROOT_SPAN, start, 0)

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, matrix, work."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.matrix, s.work]) + "\n")


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: int = 0


def layer_totals(spans: list[Span], scale: dict[int, float]) -> dict[str, LayerTotals]:
    """Calls, time, self time and work per span name.

    Durations are multiplied by the calibration factor of their matrix.
    Self time is a span's duration less the durations of its direct
    children; spans nest strictly because the command runs on one thread.
    """
    durations = [(s.end - s.start) * scale.get(s.matrix, 1.0) for s in spans]
    child_seconds = [0.0] * len(spans)
    for s, duration in zip(spans, durations):
        if s.parent >= 0:
            child_seconds[s.parent] += duration
    totals: dict[str, LayerTotals] = {}
    for s, duration, children in zip(spans, durations, child_seconds):
        t = totals.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.seconds += duration
        t.self_seconds += duration - children
        t.work += s.work
    return totals
