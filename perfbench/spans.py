"""In-memory span recording and per-layer self time.

The benchmark traces the program from the outside: :func:`instrument`
swaps selected functions and methods for wrappers that open a span on
entry and close it on exit, and puts the originals back when the traced
phase ends.  No program file changes.

A span is ``(id, name, start, end, parent, request)``.  Spans are kept
in a list while the workload runs and written out once at the end.  A
span's *self time* is its duration minus the part of its interval that
its children cover; children on other threads may overlap one another,
so the covered part is the length of the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread.

    A span opened on a thread with no open span of its own becomes a
    child of the innermost span open on the main thread: that is where
    a worker pool's tasks come from (``answer_many`` runs its pipeline
    jobs on pool threads under the caller's ``service`` span).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple[int, str, float, int | None]] = []
        self._local.stack = self._main_stack
        #: Request id the spans opened from now on belong to.
        self.request: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if main else None
        stack.append((next(self._ids), name, self.clock(), parent))

    def close(self) -> None:
        end = self.clock()
        sid, name, start, parent = self._stack().pop()
        self.spans.append(Span(sid, name, start, end, parent, self.request))

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(entry[1] == name for entry in self._stack())

    def wrap(self, name: str, fn: Callable, within: str | None = None) -> Callable:
        """``fn`` traced as ``name``; with ``within``, only while a span
        of that name is open on the calling thread."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if within is not None and not self.inside(within):
                return fn(*args, **kwargs)
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent, s.request]))
                fh.write("\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - covered_length(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self seconds per span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.sid]
    return dict(out)


def instrument(
    recorder: Recorder, targets: list[tuple[object, str, str, str | None]]
) -> Callable[[], None]:
    """Wrap each ``(owner, attribute, span name, within)``; return the undo.

    ``owner`` is a class or a module.  Only attributes the owner defines
    itself are replaced, so wrapping a base-class method covers every
    subclass that inherits it.
    """
    saved = []
    for owner, attr, name, within in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original, within))

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
