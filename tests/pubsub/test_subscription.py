"""Subscription table tests."""

from __future__ import annotations

import math

import pytest

from repro.pubsub.filters import Predicate
from repro.pubsub.message import Message
from repro.pubsub.subscription import RowArrays, Subscription, SubscriptionTable, TableRow
from repro.stats.normal import Normal


def sub(name="S1", threshold=5.0, deadline=None, price=None) -> Subscription:
    return Subscription(
        subscriber=name,
        filter=Predicate("A1", "<", threshold),
        deadline_ms=deadline,
        price=price,
    )


def row(subscription=None, next_hop="B2", nn=2, rate=Normal(20.0, 8.0), sources=("B1",)) -> TableRow:
    return TableRow(
        subscription=subscription or sub(),
        next_hop=next_hop,
        nn=nn,
        rate=rate,
        sources=frozenset(sources),
    )


def msg(attrs=None, source="B1", msg_id=1) -> Message:
    return Message(
        msg_id=msg_id,
        publisher="P1",
        source_broker=source,
        attributes=attrs or {"A1": 3.0, "A2": 3.0},
        size_kb=50.0,
        publish_time=0.0,
    )


class TestSubscription:
    def test_validation(self):
        with pytest.raises(ValueError):
            sub(deadline=0.0)
        with pytest.raises(ValueError):
            Subscription("S", Predicate("A", "<", 1.0), price=-1.0)

    def test_row_accessors(self):
        r = row(subscription=sub(deadline=10_000.0, price=2.0))
        assert r.subscriber == "S1"
        assert r.deadline_ms == 10_000.0
        assert r.price == 2.0
        assert not r.is_local

    def test_local_row(self):
        r = row(next_hop=None, nn=0, rate=Normal(0.0, 0.0))
        assert r.is_local


class TestSubscriptionTable:
    def test_install_and_match(self):
        t = SubscriptionTable()
        t.install(row())
        assert len(t) == 1
        assert "S1" in t
        matches = t.match(msg())
        assert [r.subscriber for r in matches] == ["S1"]

    def test_filter_mismatch(self):
        t = SubscriptionTable()
        t.install(row())
        assert t.match(msg(attrs={"A1": 9.0})) == []

    def test_provenance_check(self):
        t = SubscriptionTable()
        t.install(row(sources=("B7",)))
        # Message from B1 must not ride a row installed only for B7 traffic.
        assert t.match(msg(source="B1")) == []
        assert [r.subscriber for r in t.match(msg(source="B7"))] == ["S1"]

    def test_duplicate_subscriber_rejected(self):
        t = SubscriptionTable()
        t.install(row())
        with pytest.raises(KeyError):
            t.install(row())

    def test_uninstall(self):
        t = SubscriptionTable()
        t.install(row())
        t.uninstall("S1")
        assert len(t) == 0
        assert t.match(msg()) == []

    def test_match_grouped(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1"), next_hop=None, nn=0, rate=Normal(0, 0)))
        t.install(row(subscription=sub("S2"), next_hop="B2"))
        t.install(row(subscription=sub("S3"), next_hop="B2"))
        t.install(row(subscription=sub("S4"), next_hop="B3"))
        local, remote = t.match_grouped(msg())
        assert [r.subscriber for r in local] == ["S1"]
        assert sorted(remote) == ["B2", "B3"]
        assert [r.subscriber for r in remote["B2"]] == ["S2", "S3"]

    def test_rows_sorted(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S2")))
        t.install(row(subscription=sub("S1")))
        assert [r.subscriber for r in t.rows()] == ["S1", "S2"]


class TestColumnArrays:
    """The table-level column arrays behind RowGroup gathers."""

    def test_group_arrays_equal_from_rows(self):
        t = SubscriptionTable()
        r1 = row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=3,
                 rate=Normal(20.0, 16.0))
        r2 = row(subscription=sub("S2"), nn=1, rate=Normal(10.0, 4.0))
        t.install(r1)
        t.install(r2)
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        expected = RowArrays.from_rows(group.rows)
        for field in ("nn", "mean", "std", "deadline", "price"):
            assert getattr(group.arrays, field).tolist() == getattr(expected, field).tolist()

    def test_group_rows_and_len(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1")))
        t.install(row(subscription=sub("S2")))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        assert len(group) == 2
        assert group[0].subscriber == "S1"
        assert [r.subscriber for r in group] == ["S1", "S2"]

    def test_multipath_dedup_keeps_lowest_path(self):
        t = SubscriptionTable()
        s = sub("S1")
        t.install(TableRow(subscription=s, next_hop="B2", nn=2,
                           rate=Normal(20.0, 8.0), sources=frozenset({"B1"}), path_id=0))
        t.install(TableRow(subscription=s, next_hop="B2", nn=4,
                           rate=Normal(30.0, 8.0), sources=frozenset({"B1"}), path_id=1))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        assert len(group) == 1
        assert group[0].path_id == 0  # first in (subscriber, path_id) order

    def test_install_after_match_recompiles(self):
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1")))
        assert [r.subscriber for r in t.match(msg())] == ["S1"]
        t.install(row(subscription=sub("S2")))
        assert [r.subscriber for r in t.match(msg())] == ["S1", "S2"]

    def test_group_is_a_snapshot_across_id_reuse(self):
        # A group handed out at match time keeps its values even when a
        # later install reuses its row id for a different row.
        t = SubscriptionTable()
        t.install(row(subscription=sub("S1", deadline=1_000.0), nn=3))
        _, remote = t.match_grouped(msg())
        group = remote["B2"]
        t.uninstall("S1")
        t.install(row(subscription=sub("S2", deadline=9_000.0), nn=5))
        assert group.row_ids.tolist() == [0] and t._n == 1  # id 0 reused
        assert group.arrays.nn.tolist() == [3.0]
        assert group.deadline.tolist() == [1_000.0]
        assert group.subscribers == ["S1"]

    def test_matcher_backend_knob(self):
        for backend in ("vector", "oracle", "brute"):
            t = SubscriptionTable(matcher_backend=backend)
            t.install(row())
            assert [r.subscriber for r in t.match(msg())] == ["S1"]


class TestUninstallSideIndex:
    def test_uninstall_removes_all_paths(self):
        t = SubscriptionTable()
        s = sub("S1")
        for path_id in (0, 1):
            t.install(TableRow(subscription=s, next_hop="B2", nn=2,
                               rate=Normal(20.0, 8.0), sources=frozenset({"B1"}),
                               path_id=path_id))
        t.install(row(subscription=sub("S2")))
        assert "S1" in t and len(t) == 3
        t.uninstall("S1")
        assert "S1" not in t and "S2" in t
        assert len(t) == 1
        assert [r.subscriber for r in t.match(msg())] == ["S2"]

    def test_uninstall_unknown_raises(self):
        t = SubscriptionTable()
        with pytest.raises(KeyError):
            t.uninstall("missing")

    def test_reinstall_after_uninstall(self):
        t = SubscriptionTable()
        t.install(row())
        t.uninstall("S1")
        t.install(row(subscription=sub("S1", threshold=1.0)))
        assert t.match(msg(attrs={"A1": 3.0})) == []
        assert [r.subscriber for r in t.match(msg(attrs={"A1": 0.5}))] == ["S1"]

    def test_churn_does_not_grow_row_storage(self):
        """Install/uninstall cycles reuse freed row ids, so the column
        arrays scale with peak live rows rather than cumulative churn."""
        t = SubscriptionTable()
        t.install(row(subscription=sub("KEEP")))
        for i in range(50):
            t.install(row(subscription=sub(f"S{i}")))
            assert sorted(r.subscriber for r in t.match(msg())) == ["KEEP", f"S{i}"]
            t.uninstall(f"S{i}")
        assert t._n <= 2  # row-id space: live rows plus freed ids
        assert len(t) == 1


class TestRowArrays:
    def test_from_rows(self):
        rows = [
            row(subscription=sub("S1", deadline=10_000.0, price=3.0), nn=2, rate=Normal(20.0, 16.0)),
            row(subscription=sub("S2"), nn=1, rate=Normal(10.0, 4.0)),
        ]
        arrays = RowArrays.from_rows(rows)
        assert len(arrays) == 2
        assert arrays.nn.tolist() == [2.0, 1.0]
        assert arrays.mean.tolist() == [20.0, 10.0]
        assert arrays.std.tolist() == [4.0, 2.0]
        assert arrays.deadline[0] == 10_000.0
        assert math.isinf(arrays.deadline[1])  # unspecified deadline
        assert arrays.price.tolist() == [3.0, 1.0]  # unspecified price -> 1

    def test_empty(self):
        arrays = RowArrays.from_rows([])
        assert len(arrays) == 0
        assert arrays.nn.shape == (0,)
