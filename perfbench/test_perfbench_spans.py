"""Span recorder and the statistics the benchmark reports."""

from __future__ import annotations

import json
import math

import pytest

import spans
from spans import SpanRecorder, covered, durations, median, pmax10, summarize


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping), and
    # c [8, 12] sticking out past the root's end; a has child d [2, 3].
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("d", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
        ("c", 8.0, 12.0, 0),
        ("a", 20.0, 21.0, -1),
    ]
    out = summarize(tree)
    # Children of root cover [1, 6] and [8, 10]: 7 of its 10 seconds.
    assert out["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    # a: 3 s minus d's 1 s, plus the childless second call's 1 s.
    assert out["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert out["d"]["self_s"] == 1.0
    assert out["b"]["self_s"] == 3.0
    assert out["c"]["self_s"] == 4.0


def test_covered_merges_and_clips():
    assert covered([], 0.0, 5.0) == 0.0
    assert covered([(1.0, 2.0), (1.5, 3.0), (4.0, 9.0)], 0.0, 5.0) == 3.0
    assert covered([(-3.0, -1.0), (6.0, 7.0)], 0.0, 5.0) == 0.0


def test_recorder_nests_by_call_stack_and_restores_patches(tmp_path):
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    original_inner = Layer.__dict__["inner"]
    rec = SpanRecorder(run_id="t")
    rec.patch(Layer, "inner", "layer.inner")
    rec.patch(Layer, "outer", "layer.outer")
    with rec.span("root"):
        assert Layer().outer(1) == 4
    rec.restore()
    assert Layer.__dict__["inner"] is original_inner

    names = [(s[spans.NAME], s[spans.PARENT]) for s in rec.closed()]
    assert names == [("root", -1), ("layer.outer", 0), ("layer.inner", 1)]
    assert len(durations(rec.closed(), "layer.inner")) == 1

    path = tmp_path / "spans.json"
    rec.write(path)
    doc = json.loads(path.read_text())
    assert doc["run_id"] == "t"
    assert [s[0] for s in doc["spans"]] == ["root", "layer.outer", "layer.inner"]


def test_span_closes_when_the_call_raises():
    rec = SpanRecorder(run_id="t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.closed()[0][spans.NAME] == "boom"


def test_median_and_pmax10():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = [float(i) for i in range(1, 101)]
    value, pct, n = pmax10(values)
    # Exactly ten samples (91..100) lie above the 90th of 100.
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(v > value for v in values) == 10
    assert pmax10([1.0] * 10) == (0.0, 0.0, 10)
    value, pct, n = pmax10([float(i) for i in range(11)])
    assert value == 0.0 and math.isclose(pct, 100.0 / 11.0) and n == 11


def test_summary_restricted_to_subtrees():
    tree = [
        ("setup", 0.0, 2.0, -1),
        ("build", 0.5, 1.5, 0),
        ("setup", 3.0, 4.0, -1),
        ("build", 3.1, 3.5, 2),
        ("run", 5.0, 9.0, -1),
    ]
    keep = spans.under(tree, {2, 4})
    assert keep == {2, 3, 4}
    out = summarize(tree, keep)
    assert out["setup"]["calls"] == 1 and math.isclose(out["setup"]["self_s"], 0.6)
    assert math.isclose(out["build"]["total_s"], 0.4)
    assert out["run"]["self_s"] == 4.0
