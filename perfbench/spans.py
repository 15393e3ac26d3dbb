"""Span recording for the traced benchmark run, plus the statistics the
benchmark reports (medians, ``pmax10`` percentiles, self time).

A span is ``(name, start, end, parent)``; the recorder's ``run_id`` is
shared by every span of one run.  Spans are kept in memory and written
out once, when the run ends.  They are recorded only from the
benchmark's own files: either around a call the benchmark makes
(:meth:`SpanRecorder.span`) or by temporarily replacing a public callable
at the attribute its caller looks it up by (:meth:`SpanRecorder.patch`),
e.g. ``SubscriptionTable.install_many`` or
``repro.sim.runner.build_layered_mesh``.  Nothing under ``src/`` is
edited; :meth:`SpanRecorder.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

#: Index of a span's fields in the recorded tuples.
NAME, START, END, PARENT = range(4)


class SpanRecorder:
    """Nested spans of one run, in memory.

    ``spans[i]`` is ``(name, start, end, parent_index)`` with ``-1`` for a
    root; ``None`` while span ``i`` is still open.  The open-span stack
    gives each new span its parent, so nesting follows the call stack.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> tuple[int, int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, name: str, idx: int, parent: int, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        idx, parent, t0 = self._open(name)
        try:
            yield
        finally:
            self._close(name, idx, parent, t0)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx, parent, t0 = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, idx, parent, t0)

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a class method or a module function)
        by its traced version until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def closed(self) -> list[tuple[str, float, float, int]]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (times relative to the
        first span's start)."""
        spans = self.closed()
        base = spans[0][START] if spans else 0.0
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, round(s - base, 9), round(e - base, 9), parent]
                for name, s, e, parent in spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def under(spans: Sequence[tuple[str, float, float, int]], roots: set[int]) -> set[int]:
    """Indices of the spans in the subtrees of the ``roots`` indices
    (a parent is always recorded before its children)."""
    inside: set[int] = set()
    for idx, (_, _, _, parent) in enumerate(spans):
        if idx in roots or parent in inside:
            inside.add(idx)
    return inside


def summarize(
    spans: Sequence[tuple[str, float, float, int]],
    include: set[int] | None = None,
) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``,
    over the spans whose indices are in ``include`` (default all).

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, _) in enumerate(spans):
        if include is not None and idx not in include:
            continue
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered(children.get(idx, ()), start, end)
    return out


def durations(spans: Sequence[tuple[str, float, float, int]], name: str) -> list[float]:
    """Durations in seconds of every span called ``name``, in order."""
    return [end - start for n, start, end, _ in spans if n == name]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def pmax10(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``: with ``n`` sorted samples, the
    sample at rank ``n - 10`` has exactly ten above it, so its percentile
    is ``100 * (n - 10) / n``.  With ten samples or fewer no percentile
    qualifies and ``(0.0, 0.0, n)`` is returned.
    """
    n = len(values)
    if n <= 10:
        return 0.0, 0.0, n
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n
