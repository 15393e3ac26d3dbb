"""``subscribe_all`` against sequential ``subscribe``, and batch atomicity.

A bulk install must leave every broker table exactly as subscribing the
same entries one at a time would: the same row ids (including reuse of
ids freed by earlier uninstalls), the same interned hop, subscriber and
source-set ids, the same version count, bit-identical compiled columns,
the same matcher ids and predicate totals, equal rows and the same
grouped match results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.topology import TopologyError
from repro.pubsub.message import Message
from repro.pubsub.subscription import Subscription
from repro.pubsub.filters import Predicate
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system
from repro.workload.scenarios import (
    Scenario,
    ScaleScenarioSpec,
    build_scale_subscriptions,
    build_subscriptions,
)


def _empty_pair(config: SimulationConfig):
    """Two identical systems without subscriptions (same topology)."""
    first = build_system(config, subscription_builder=lambda rng, topo: [])
    second = build_system(config, subscription_builder=lambda rng, topo: [])
    return first, second


def _population(system, builder) -> list[Subscription]:
    rng = np.random.default_rng(7)
    return builder(rng, system.topology)


def _messages(system, n: int = 40) -> list[Message]:
    rng = np.random.default_rng(11)
    sources = sorted(set(system.topology.publisher_brokers.values()))
    return [
        Message(
            msg_id=k,
            publisher="P",
            source_broker=sources[k % len(sources)],
            attributes={"A1": float(a1), "A2": float(a2)},
            size_kb=5.0,
            publish_time=0.0,
        )
        for k, (a1, a2) in enumerate(rng.uniform(0.0, 10.0, size=(n, 2)))
    ]


def _matcher_state(matcher) -> tuple:
    indexes = {
        key: (idx.values[: idx.n].tobytes(), idx.ids[: idx.n].tolist())
        for key, idx in matcher._indexes.items()
    }
    return (
        list(matcher._keys),
        matcher._required[: len(matcher._keys)].tolist(),
        list(matcher._indexes),
        indexes,
        sorted(matcher._match_all),
        matcher._keys_identity,
    )


def _assert_tables_identical(bulk, seq, messages) -> None:
    assert list(bulk.brokers) == list(seq.brokers)
    for name in bulk.brokers:
        a, b = bulk.brokers[name].table, seq.brokers[name].table
        where = f"table {name}"
        assert a.version == b.version, where
        assert len(a) == len(b), where
        # Row ids and interning.
        assert a._n == b._n, where
        assert a._free_ids == b._free_ids, where
        assert a._sub_id_of == b._sub_id_of, where
        assert a._hop_names == b._hop_names, where
        assert a._hop_id_of == b._hop_id_of, where
        assert a._src_set_by_id == b._src_set_by_id, where
        assert a._rates == b._rates, where
        k = len(a._sub_id_of)
        assert a._sub_row[:k].tolist() == b._sub_row[:k].tolist(), where
        assert a._sub_more_rows == b._sub_more_rows, where
        assert a._live[: a._n].tolist() == b._live[: b._n].tolist(), where
        # Compiled columns, bitwise.
        a._compile()
        b._compile()
        for col in ("_c_cols5", "_c_hop", "_c_sub", "_c_min_msg", "_c_src_set",
                    "_c_rank", "_c_order"):
            assert getattr(a, col).tobytes() == getattr(b, col).tobytes(), (where, col)
        assert a._c_rank_identity == b._c_rank_identity, where
        assert _matcher_state(a._matcher) == _matcher_state(b._matcher), where
        # Row views, including the Normal's variance and the source set.
        rows_a, rows_b = a.rows(), b.rows()
        assert rows_a == rows_b, where
        assert [r.rate.variance for r in rows_a] == [r.rate.variance for r in rows_b]
        assert [r.sources for r in rows_a] == [r.sources for r in rows_b]
        # Grouped matching over a message batch.
        for (la, ra), (lb, rb) in zip(a.match_grouped_many(messages),
                                      b.match_grouped_many(messages)):
            assert la.row_ids.tolist() == lb.row_ids.tolist(), where
            assert list(ra) == list(rb), where
            for hop in ra:
                assert ra[hop].row_ids.tolist() == rb[hop].row_ids.tolist(), where
    assert _matcher_state(bulk._population) == _matcher_state(seq._population)
    assert bulk.subscription_count == seq.subscription_count
    assert {n: h.log_id for n, h in bulk.subscribers.items()} == {
        n: h.log_id for n, h in seq.subscribers.items()
    }
    assert bulk.endpoint_prices().tobytes() == seq.endpoint_prices().tobytes()


SCALE = ScaleScenarioSpec(name="diff-2k", subscribers=2_000)
SCALE_CONFIG = SimulationConfig(seed=3, scenario=Scenario.SSD, topology_spec=SCALE.topology_spec())
PAPER_CONFIG = SimulationConfig(seed=5, scenario=Scenario.SSD)


def _scale_population(rng, topology):
    return build_scale_subscriptions(rng, topology, SCALE)


def _paper_population(rng, topology):
    return build_subscriptions(Scenario.SSD, rng, topology)


@pytest.mark.parametrize(
    "config,builder",
    [(SCALE_CONFIG, _scale_population), (PAPER_CONFIG, _paper_population)],
    ids=["scale-zipf-pool", "paper"],
)
def test_subscribe_all_equals_sequential_subscribe(config, builder):
    bulk, seq = _empty_pair(config)
    population = _population(bulk, builder)
    bulk.subscribe_all(population)
    for subscription in population:
        seq.subscribe(subscription)
    _assert_tables_identical(bulk, seq, _messages(bulk))


def test_subscribe_all_reuses_freed_ids_like_sequential_subscribe():
    bulk, seq = _empty_pair(PAPER_CONFIG)
    population = _population(bulk, _paper_population)
    half = len(population) // 2
    for system in (bulk, seq):
        system.subscribe_all(population[:half])
        # Leave free row ids behind, in a scattered order.
        for subscription in population[:half][::3]:
            system.unsubscribe(subscription.subscriber)
    assert any(t._free_ids for t in (b.table for b in bulk.brokers.values()))
    rest = population[half:] + population[:half][::3]
    bulk.subscribe_all(rest)
    for subscription in rest:
        seq.subscribe(subscription)
    _assert_tables_identical(bulk, seq, _messages(bulk))


class TestSubscribeAllIsAtomic:
    def _state(self, system) -> tuple:
        return (
            system.subscription_count,
            len(system._population),
            sorted(system.subscribers),
            {name: b.table.version for name, b in system.brokers.items()},
            system.delivery_log.endpoint_count,
        )

    def _system(self):
        return build_system(PAPER_CONFIG)

    def test_duplicate_of_existing_subscriber_changes_nothing(self):
        system = self._system()
        before = self._state(system)
        edge = sorted(set(system.topology.subscriber_brokers.values()))[0]
        system.topology.attach_subscriber("NEW1", edge)
        existing = sorted(system.subscribers)[0]
        batch = [
            Subscription("NEW1", Predicate("A1", "<", 5.0)),
            Subscription(existing, Predicate("A1", "<", 5.0)),
        ]
        with pytest.raises(ValueError):
            system.subscribe_all(batch)
        assert self._state(system) == before
        assert "NEW1" not in system.subscribers

    def test_duplicate_within_batch_changes_nothing(self):
        system = self._system()
        before = self._state(system)
        edge = sorted(set(system.topology.subscriber_brokers.values()))[0]
        system.topology.attach_subscriber("NEW1", edge)
        batch = [
            Subscription("NEW1", Predicate("A1", "<", 5.0)),
            Subscription("NEW1", Predicate("A2", "<", 5.0)),
        ]
        with pytest.raises(ValueError):
            system.subscribe_all(batch)
        assert self._state(system) == before

    def test_unattached_subscriber_late_in_batch_changes_nothing(self):
        system = self._system()
        before = self._state(system)
        edge = sorted(set(system.topology.subscriber_brokers.values()))[0]
        system.topology.attach_subscriber("NEW1", edge)
        batch = [
            Subscription("NEW1", Predicate("A1", "<", 5.0)),
            Subscription("NOWHERE", Predicate("A1", "<", 5.0)),
        ]
        with pytest.raises(TopologyError):
            system.subscribe_all(batch)
        assert self._state(system) == before
        # The valid entry still subscribes cleanly afterwards.
        system.subscribe(batch[0])
        assert system.subscription_count == before[0] + 1
