"""Runtime regression tests for the two hand-enforced invariants the
analyzer audits statically (RL004/RL005 and the journal discipline).

The static rules catch violations at the AST; these tests pin the
*runtime* consequence the rules protect, so a drift that slips past the
analyzer (e.g. an action built dynamically) still fails the suite:

- every event the dynamics driver schedules must pickle by reference
  (checkpoint/restore serialises the live heap; closures would poison
  every snapshot taken while a scenario script is pending), and
- every mutating path of :class:`SubscriptionTable` must append to an
  armed journal, or shard replicas silently diverge from the
  coordinator (same-version check passes, different table contents).
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro.pubsub.shard_engine import _replay_ops
from repro.pubsub.subscription import _PATH, RowBatch
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, schedule_dynamics
from repro.workload.dynamics import (
    CascadeOutage,
    ChurnWave,
    FlashCrowd,
    RateBurst,
    ScenarioScript,
)
from repro.workload.scenarios import Scenario


def _config(script: ScenarioScript) -> SimulationConfig:
    return SimulationConfig(
        seed=11,
        scenario=Scenario.SSD,
        strategy="eb",
        publishing_rate_per_min=6.0,
        duration_ms=60_000.0,
        dynamics=script,
    )


FULL_SCRIPT = ScenarioScript((
    RateBurst(0.0, 30_000.0, 2.0),
    ChurnWave(at_ms=10_000.0, leave=2, join=2),
    FlashCrowd(at_ms=20_000.0, count=4),
    CascadeOutage(at_ms=30_000.0, origin="B1", spread_prob=0.5,
                  recover_after_ms=5_000.0),
))


class TestEventActionPicklability:
    def test_scheduled_actions_are_partials_of_named_callables(self):
        # The RL004 contract, checked on the live heap: no action may be
        # a lambda or a function nested inside another function.
        system = build_system(_config(FULL_SCRIPT))
        assert schedule_dynamics(system, _config(FULL_SCRIPT)) is not None
        actions = [ev.action for ev in system.sim._heap if not ev.cancelled]
        assert actions, "script scheduled no events"
        for action in actions:
            fn = action.func if isinstance(action, functools.partial) else action
            name = getattr(fn, "__qualname__", getattr(fn, "__name__", ""))
            assert "<lambda>" not in name, name
            assert "<locals>" not in name, name

    def test_scheduled_actions_pickle_and_restore(self):
        config = _config(FULL_SCRIPT)
        system = build_system(config)
        schedule_dynamics(system, config)
        for ev in system.sim._heap:
            if ev.cancelled:
                continue
            restored = pickle.loads(pickle.dumps(ev.action))
            assert callable(restored)

    def test_cascade_continuation_events_stay_picklable(self):
        # The cascade reschedules itself from *inside* an event action —
        # the follow-up waves must obey the same discipline as the
        # initial script events.
        config = _config(ScenarioScript((
            CascadeOutage(at_ms=1_000.0, origin="B1", spread_prob=1.0,
                          step_ms=500.0, max_depth=3,
                          recover_after_ms=60_000.0),
        )))
        system = build_system(config)
        schedule_dynamics(system, config)
        system.sim.run(until=1_600.0)  # first wave has fired and rescheduled
        pending = [ev.action for ev in system.sim._heap if not ev.cancelled]
        assert pending, "cascade scheduled no continuation"
        for action in pending:
            pickle.loads(pickle.dumps(action))


def _table_pair():
    config = _config(ScenarioScript())
    system = build_system(config)
    name = sorted(system.brokers)[0]
    return system, system.brokers[name].table


def _rows_of(table, subscriber):
    """The subscriber's live rows, in install order."""
    sid = table._sub_id_of[subscriber]
    return table._make_rows(np.array(table._row_ids(sid), dtype=np.int64))


def _subscribers(table):
    return sorted(r.subscriber for r in table.rows())


def _row_id_of_key(table):
    """``(subscriber, path_id) -> row id`` for every live row."""
    return {
        (name, int(table._i[_PATH, row_id])): row_id
        for name, sid in table._sub_id_of.items()
        for row_id in table._row_ids(sid)
    }


class TestJournalCompleteness:
    def test_every_mutation_kind_journals(self):
        system, table = _table_pair()
        table.journal = []
        victim = _subscribers(table)[0]
        rows = _rows_of(table, victim)
        table.uninstall(victim)
        assert table.journal == [("u", victim)]
        table.install(rows[0])
        assert table.journal[-1] == ("i", rows[0])
        if rows[1:]:
            table.install_many(RowBatch.from_rows(rows[1:]))
            assert table.journal[2:] == [("i", r) for r in rows[1:]]
        assert len(table.journal) == 1 + len(rows)

    def test_replayed_replica_matches_coordinator_exactly(self):
        # The property the sharded engine relies on: replaying the
        # journal slice leaves a replica at the same version with the
        # same interned ids, so matching decisions are byte-identical.
        system, table = _table_pair()
        replica = pickle.loads(pickle.dumps(table))
        replica.journal = None
        table.journal = []

        victims = _subscribers(table)[:2]
        stashed = {v: _rows_of(table, v) for v in victims}
        for v in victims:
            table.uninstall(v)
        table.install_many(RowBatch.from_rows(stashed[victims[0]]))

        _replay_ops(replica, table.journal)
        assert replica.version == table.version
        assert _row_id_of_key(replica) == _row_id_of_key(table)
        assert replica._sub_id_of == table._sub_id_of
        assert replica._hop_id_of == table._hop_id_of
        assert sorted(replica._free_ids) == sorted(table._free_ids)

    def test_stale_replica_version_detectable(self):
        # A mutation that bypassed the journal would leave versions
        # equal with different contents; the version counter is the
        # coordinator's staleness check, so it must advance per op.
        _, table = _table_pair()
        table.journal = []
        v0 = table.version
        victim = _subscribers(table)[0]
        table.uninstall(victim)
        assert table.version == v0 + 1
        assert len(table.journal) == 1


@pytest.mark.parametrize("method", ["install", "install_many", "uninstall"])
def test_mutators_exist(method):
    # Guard against a rename silently orphaning the journal tests above.
    from repro.pubsub.subscription import SubscriptionTable

    assert callable(getattr(SubscriptionTable, method))
