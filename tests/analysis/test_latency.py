"""Latency analysis tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.latency import (
    LatencyStats,
    _quantile,
    deadline_margins,
    latency_by_subscriber,
    latency_stats,
)
from repro.core.folds import fold_mean
from repro.pubsub.client import SubscriberHandle


def handle(name: str, latencies: list[float], valid: bool = True) -> SubscriberHandle:
    h = SubscriberHandle(name)
    for i, lat in enumerate(latencies):
        h.record(msg_id=i, time=lat, latency_ms=lat, valid=valid)
    return h


class TestQuantile:
    def test_exact_positions(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _quantile(xs, 0.0) == 1.0
        assert _quantile(xs, 0.5) == 3.0
        assert _quantile(xs, 1.0) == 5.0

    def test_interpolation(self):
        assert _quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_sample(self):
        assert _quantile([7.0], 0.9) == 7.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            _quantile([1.0], 1.5)


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([100.0, 200.0, 300.0, 400.0])
        assert stats.count == 4
        assert stats.mean == 250.0
        assert stats.p50 == pytest.approx(250.0)
        assert stats.maximum == 400.0
        assert stats.p90 <= stats.p99 <= stats.maximum

    def test_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_array_summary_equals_per_sample_reference(self):
        # The per-sample Python form (sorted list, left-fold mean) is the
        # reference; the array form must reproduce it bit for bit.
        rng = np.random.default_rng(3)
        for n in (1, 2, 17, 1000):
            samples = rng.gamma(2.0, 400.0, size=n).tolist()
            ordered = sorted(samples)
            expected = (
                n, fold_mean(ordered), _quantile(ordered, 0.5),
                _quantile(ordered, 0.9), _quantile(ordered, 0.99), ordered[-1],
            )
            stats = LatencyStats.from_samples(samples)
            got = (stats.count, stats.mean, stats.p50, stats.p90, stats.p99, stats.maximum)
            assert got == expected

    def test_pooled_over_handles(self):
        stats = latency_stats([handle("S1", [100.0]), handle("S2", [300.0])])
        assert stats.count == 2
        assert stats.mean == 200.0

    def test_valid_only_filter(self):
        h = handle("S1", [100.0])
        h.record(msg_id=99, time=0.0, latency_ms=9_000.0, valid=False)
        assert latency_stats([h]).count == 1
        assert latency_stats([h], valid_only=False).count == 2

    def test_by_subscriber_includes_empty(self):
        out = latency_by_subscriber([handle("S1", [50.0]), handle("S2", [])])
        assert out["S1"].count == 1
        assert out["S2"].count == 0


class TestDeadlineMargins:
    def test_margins(self):
        margins = deadline_margins([handle("S1", [100.0, 900.0])], deadline_ms=1_000.0)
        assert margins == [900.0, 100.0]

    def test_invalid_deadline(self):
        with pytest.raises(ValueError):
            deadline_margins([], deadline_ms=0.0)
