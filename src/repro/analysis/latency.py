"""Delivery-latency distributions.

Pooled statistics stream the shared chunked :class:`DeliveryLog` in one
pass (per-chunk filters, no per-endpoint rescans and no whole-log
gather); quantiles sort the pooled sample, so the result is independent
of chunk boundaries and byte-identical to the pre-chunking gathers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.chunked import grouped_runs, sorted_contains
from repro.core.folds import fold_sum_array
from repro.pubsub.client import DeliveryLog, SubscriberHandle


@dataclass(frozen=True, slots=True)
class LatencyStats:
    """Summary of a latency sample (milliseconds)."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencyStats":
        return cls.from_array(np.asarray(samples, dtype=np.float64))

    @classmethod
    def from_array(cls, samples: np.ndarray) -> "LatencyStats":
        """Summary of a float64 sample without per-sample Python objects:
        a stable sort orders it as ``sorted`` would, and the mean is the
        same left-to-right fold (:func:`fold_sum_array`)."""
        n = int(samples.shape[0])
        if not n:
            return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0)
        ordered = np.sort(samples, kind="stable")
        return cls(
            count=n,
            mean=fold_sum_array(ordered) / n,
            p50=_quantile(ordered, 0.50),
            p90=_quantile(ordered, 0.90),
            p99=_quantile(ordered, 0.99),
            maximum=float(ordered[-1]),
        )


def _quantile(ordered: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile on a pre-sorted sample."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo]) * (1.0 - frac) + float(ordered[hi]) * frac


def _pooled_samples_by_log(
    handles: list[SubscriberHandle], valid_only: bool
) -> dict[int, np.ndarray]:
    """One streaming pass per distinct backing log: latency samples of
    each requested endpoint, keyed by endpoint id.

    Replaces the old per-handle gathers (E scans of an N-row log) with a
    single chunk stream per log — the per-chunk group-by costs one
    boolean mask and one fancy-index per endpoint *with rows in that
    chunk* only.
    """
    by_log: dict[int, tuple[DeliveryLog, set[int]]] = {}
    for h in handles:
        log = h.log
        entry = by_log.setdefault(id(log), (log, set()))
        entry[1].add(h.log_id)
    out: dict[tuple[int, int], list[np.ndarray]] = defaultdict(list)
    for log_key, (log, wanted) in by_log.items():
        wanted_arr = np.fromiter(wanted, dtype=np.int64, count=len(wanted))
        wanted_arr.sort()
        for sub, latency, valid in log.iter_chunks(("sub_id", "latency", "valid")):
            if valid_only:
                sub, latency = sub[valid], latency[valid]
            if not sub.shape[0]:
                continue
            hit = sorted_contains(wanted_arr, sub)
            if not hit.any():
                continue
            sub, latency = sub[hit], latency[hit]
            # One stable grouped argsort per chunk — arrival order kept
            # within each endpoint, O(k log k) in the chunk's matching
            # rows instead of one whole-chunk mask per endpoint.
            order, s_sorted, starts, stops = grouped_runs(sub)
            lat_sorted = latency[order]
            for a, b in zip(starts.tolist(), stops.tolist()):
                out[(log_key, int(s_sorted[a]))].append(lat_sorted[a:b])
    return {
        key: np.concatenate(parts) if len(parts) > 1 else parts[0]
        for key, parts in out.items()
    }


def latency_stats(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> LatencyStats:
    """Pooled latency stats over a set of subscriber endpoints.

    Streams each backing log once; the pooled sample is sorted before
    summarising, so the chunk-order pooling is result-identical to the
    old handle-order gathers."""
    pooled = _pooled_samples_by_log(handles, valid_only)
    if not pooled:
        return LatencyStats.from_samples([])
    return LatencyStats.from_array(np.concatenate(list(pooled.values())))


def _pooled_key(handle: SubscriberHandle) -> tuple[int, int]:
    return (id(handle.log), handle.log_id)


def latency_by_subscriber(
    handles: list[SubscriberHandle], valid_only: bool = True
) -> dict[str, LatencyStats]:
    """Per-subscriber latency stats (subscribers with no deliveries included
    with an empty summary, so tier comparisons stay total).  One chunk
    stream per backing log, not one log scan per subscriber."""
    pooled = _pooled_samples_by_log(handles, valid_only)
    empty = np.empty(0)
    return {
        h.name: LatencyStats.from_array(pooled.get(_pooled_key(h), empty))
        for h in handles
    }


def deadline_margins(
    handles: list[SubscriberHandle], deadline_ms: float
) -> list[float]:
    """``deadline − latency`` per valid delivery against a common deadline.

    Positive margins are slack; the left tail shows how close the scheduler
    runs to the bound (EB runs much closer than FIFO — it spends slack on
    rescuing other messages).
    """
    if deadline_ms <= 0.0:
        raise ValueError("deadline_ms must be positive")
    pooled = _pooled_samples_by_log(handles, valid_only=True)
    empty = np.empty(0)
    # Handle-major, arrival order within each handle — exactly the order
    # the old per-handle gathers produced, from one log pass.
    return [
        deadline_ms - sample
        for h in handles
        for sample in pooled.get(_pooled_key(h), empty).tolist()
    ]
