"""The benchmark's workloads and one repetition of a workload.

A workload runs on a fixed overlay: the paper's layered mesh, wired and
rated as the program wires it for seed ``OVERLAY_SEED`` (stretched to
the scale population where there is one).  The run's seed draws
everything users bring to that overlay: the subscriber population, the
publication schedule and, for the churn workload, the writes.  Scale
populations come from the program's own builder.  The paper's 160
subscribers and all publications are generated here, with the
program's distributions but stratified: filter thresholds and message
attributes take one value per equal-width stratum, price tiers are
equally filled, and each publisher sends a fixed number of messages at
uniform times (a Poisson stream conditioned on its count).  Every seed
thus carries about the same amount of work.

A repetition ("rep") sets the system up from scratch, drives it to the
horizon through :meth:`PubSubSystem.run` (the configured fused engine)
in fixed slices of simulated time, analyses the finished run and
fingerprints it.  Timed phases:

* ``setup_s``: config to a system ready to run (topology, population,
  ``subscribe_all``, ``warm``, scheduling the publications);
* ``run_s``: the slices to the horizon, including the churn workload's
  write and fault calls, excluding checkpoint save and load;
* ``analysis_s``: ``windowed_metrics`` + ``latency_stats`` over every
  live endpoint + ``revenue_by_tier``.

A workload whose setup or analysis takes milliseconds repeats it
(``setup_repeats``, ``analysis_repeats``) and reports the mean: one
timing of a few milliseconds says more about the machine's momentary
load than about the code.  Each setup builds a fresh system; half of
them run before the simulation and half after the analysis, so the
samples span the rep.  Analysis passes after the first reuse the
delivery log's cached per-endpoint tallies.

With a :class:`~spans.SpanRecorder` the same rep records spans around
every layer call and turns on the engine's existing stage timers
(:mod:`repro.core.profiling`); :func:`layer_metrics` reduces them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.analysis.latency import latency_stats
from repro.analysis.revenue import revenue_by_tier
from repro.analysis.timeseries import windowed_metrics
from repro.core import profiling
from repro.core.queueing import ScheduledQueue
from repro.des.rng import RngStreams
from repro.experiments.scale import series_digest
from repro.network.topology import LayeredMeshSpec, Topology, build_layered_mesh
from repro.pubsub.filters import AndFilter, Predicate
from repro.pubsub.matching import VectorCountingMatcher
from repro.pubsub.subscription import Subscription, SubscriptionTable
from repro.pubsub.system import PubSubSystem
from repro.sim.config import SimulationConfig
from repro.sim.runner import build_system, resume_run, save_run_checkpoint
from repro.workload.scenarios import (
    SSD_PRICE_BY_DEADLINE_MS,
    Scenario,
    ScaleScenarioSpec,
    build_scale_subscriptions,
)
from repro.workload.subscriptions import random_conjunctive_filter

from spans import SpanRecorder, durations, median, pmax10, summarize, under

#: Environment overrides that would change which engine a run uses.
REPRO_ENV = ("REPRO_SENTINEL", "REPRO_SHARDS", "REPRO_SHARD_BACKEND")

#: The seed whose overlay (wiring and link rates) every run uses.
OVERLAY_SEED = 1
#: Simulated length of one ``run(until=...)`` slice.
SLICE_MS = 5_000.0
#: Churn writes land before every second slice, so the slices without
#: writes in between show the steady cost next to the write-affected one.
WRITE_EVERY = 2
#: Bucket of the windowed time series the analysis computes.
WINDOW_MS = 30_000.0
#: Message attribute names and value range (the paper's and the scale
#: family's).
ATTRIBUTES = ("A1", "A2")
VALUE_RANGE = (0.0, 10.0)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed input recipe, seeded per run.

    ``subscribers`` > 0 selects the scale family's skewed population on
    the paper mesh stretched to that size; 0 keeps the paper's 160
    random subscribers.  ``churn`` > 0 makes the rep write between
    slices: every ``WRITE_EVERY`` slices of the publication window it
    unsubscribes ``churn`` subscribers and attaches and subscribes
    ``churn`` new ones; it also takes one edge broker down for
    ``outage_s`` and saves and resumes a checkpoint half way.
    ``setup_repeats`` and ``analysis_repeats`` > 1 time a phase that
    many times and report the mean.
    """

    name: str
    subscribers: int
    strategy: str
    rate_per_min: float
    minutes: float
    size_kb: float
    grace_s: float
    strategy_params: dict[str, Any] = field(default_factory=dict)
    churn: int = 0
    outage_s: float = 45.0
    setup_repeats: int = 1
    analysis_repeats: int = 1

    def topology_spec(self) -> LayeredMeshSpec:
        if self.subscribers:
            return self.scale_spec().topology_spec()
        return LayeredMeshSpec()

    def config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            seed=seed,
            scenario=Scenario.SSD,
            strategy=self.strategy,
            strategy_params=dict(self.strategy_params),
            publishing_rate_per_min=self.rate_per_min,
            duration_ms=self.minutes * 60_000.0,
            grace_ms=self.grace_s * 1000.0,
            message_size_kb=self.size_kb,
            topology_spec=self.topology_spec(),
            engine_backend="fused",
            shards=0,
            log_spill=False,
        )

    def scale_spec(self) -> ScaleScenarioSpec:
        return ScaleScenarioSpec(name=self.name, subscribers=self.subscribers)

    def population(self, rng: np.random.Generator, topology: Topology) -> list[Subscription]:
        if self.subscribers:
            return build_scale_subscriptions(rng, topology, self.scale_spec())
        return paper_population(rng, topology)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fanout-100k",
            subscribers=100_000,
            strategy="eb",
            rate_per_min=10.0,
            minutes=0.5,
            size_kb=5.0,
            grace_s=30.0,
        ),
        Workload(
            name="paper-overload",
            subscribers=0,
            strategy="ebpc",
            strategy_params={"r": 0.5},
            rate_per_min=15.0,
            minutes=10.0,
            size_kb=50.0,
            grace_s=60.0,
            setup_repeats=40,
            analysis_repeats=150,
        ),
        Workload(
            name="churn-20k",
            subscribers=20_000,
            strategy="eb",
            rate_per_min=10.0,
            minutes=2.0,
            size_kb=5.0,
            grace_s=30.0,
            churn=10,
        ),
    )
}


# ---------------------------------------------------------------------- #
# Inputs drawn from the run's seed.
# ---------------------------------------------------------------------- #
def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` values uniform on ``VALUE_RANGE``, one per equal-width
    stratum, in random order."""
    lo, hi = VALUE_RANGE
    return lo + (rng.permutation(n) + rng.random(n)) * ((hi - lo) / n)


def paper_population(rng: np.random.Generator, topology: Topology) -> list[Subscription]:
    """One SSD subscription per attached subscriber, as the program's
    ``build_subscriptions`` draws them (``A1 < x1 & A2 < x2`` with
    uniform thresholds, a uniform price tier), but stratified."""
    names = sorted(topology.subscriber_brokers)
    n = len(names)
    thresholds = [stratified(rng, n) for _ in ATTRIBUTES]
    deadlines = sorted(SSD_PRICE_BY_DEADLINE_MS)
    tiers = rng.permutation(np.arange(n) % len(deadlines)).tolist()
    out = []
    for i, name in enumerate(names):
        dl = deadlines[tiers[i]]
        filt = AndFilter([Predicate(a, "<", float(x[i])) for a, x in zip(ATTRIBUTES, thresholds)])
        out.append(Subscription(name, filt, deadline_ms=dl, price=SSD_PRICE_BY_DEADLINE_MS[dl]))
    return out


def schedule_publications(system: PubSubSystem, workload: Workload, seed: int) -> int:
    """Schedule the run's publications on the simulator; returns the count.

    Each publisher publishes ``rate_per_min * minutes`` messages at
    uniform times over the publication window; each attribute's values
    across all messages are stratified.  Events are the program's own
    ``publish`` calls, bound with ``partial`` so pending publications
    pickle into a checkpoint by reference.
    """
    rng = np.random.default_rng([seed, 0x9B1])
    publishers = sorted(system.topology.publisher_brokers)
    per_publisher = int(round(workload.rate_per_min * workload.minutes))
    n = per_publisher * len(publishers)
    duration_ms = workload.minutes * 60_000.0
    times = np.sort(rng.uniform(0.0, duration_ms, size=(len(publishers), per_publisher)), axis=1)
    values = [stratified(rng, n) for _ in ATTRIBUTES]
    k = 0
    for p, publisher in enumerate(publishers):
        for t in times[p].tolist():
            attributes = {a: float(v[k]) for a, v in zip(ATTRIBUTES, values)}
            system.sim.schedule_at(
                t, partial(system.publish, publisher, attributes, size_kb=workload.size_kb)
            )
            k += 1
    return n


class ChurnPlan:
    """Seeded writes applied at slice boundaries.

    The plan's generator is the benchmark's own (never one of the
    system's streams) and lives outside the system object graph, so a
    checkpoint/resume in the middle leaves the remaining writes
    unchanged.
    """

    def __init__(self, workload: Workload, seed: int, system: PubSubSystem, slices: int) -> None:
        self.workload = workload
        self.rng = np.random.default_rng([seed, 0xC0FFEE])
        self.edges = sorted(set(system.topology.subscriber_brokers.values()))
        duration_ms = workload.minutes * 60_000.0
        self.last_write = int(duration_ms // SLICE_MS) - 1
        self.checkpoint_slice = slices // 2
        self.outage_broker = self.edges[int(self.rng.integers(0, len(self.edges)))]
        self.outage_start = max(1, self.last_write // 4)
        self.outage_end = self.outage_start + int(round(workload.outage_s * 1000.0 / SLICE_MS))
        self.joined = 0

    def apply(self, system: PubSubSystem, k: int) -> bool:
        """Writes due before slice ``k``; returns True if any were made."""
        if k == self.outage_start:
            system.fail_broker(self.outage_broker)
        if k == self.outage_end:
            system.recover_broker(self.outage_broker)
        if 1 <= k <= self.last_write and k % WRITE_EVERY == 0:
            self._churn(system, k)
            return True
        return False

    def _churn(self, system: PubSubSystem, k: int) -> None:
        n = self.workload.churn
        current = sorted(system.subscribers)
        for i in sorted(self.rng.choice(len(current), size=n, replace=False).tolist()):
            system.unsubscribe(current[i])
        deadlines = sorted(SSD_PRICE_BY_DEADLINE_MS)
        for i in range(n):
            name = f"J{k}-{i}"
            edge = self.edges[int(self.rng.integers(0, len(self.edges)))]
            filt = random_conjunctive_filter(self.rng, ATTRIBUTES, VALUE_RANGE)
            dl = deadlines[int(self.rng.integers(0, len(deadlines)))]
            system.topology.attach_subscriber(name, edge)
            system.subscribe(
                Subscription(name, filt, deadline_ms=dl, price=SSD_PRICE_BY_DEADLINE_MS[dl])
            )
            self.joined += 1


# ---------------------------------------------------------------------- #
# One rep.
# ---------------------------------------------------------------------- #
def clear_repro_env() -> None:
    """Drop the overrides that could arm the sentinel or the sharded
    engine behind the config's back."""
    for key in REPRO_ENV:
        os.environ.pop(key, None)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux: KiB units)."""
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw / (1024.0 * 1024.0) if sys.platform == "darwin" else raw / 1024.0


def fingerprint(system: PubSubSystem, series) -> str:
    """The run's output identity: windowed-series digest plus the
    headline counters and the executed-event count."""
    m = system.metrics
    doc = [
        series_digest(series),
        m.published,
        m.deliveries_valid,
        m.deliveries_late,
        repr(float(m.earning)),
        system.sim.executed_events,
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


#: Public callables the traced rep wraps, at the attribute their callers
#: look them up by: (owner, attribute, span name).
TRACED_CALLABLES: tuple[tuple[Any, str, str], ...] = (
    (PubSubSystem, "subscribe_all", "pubsub.subscribe_all"),
    (PubSubSystem, "warm", "pubsub.warm"),
    (PubSubSystem, "subscribe", "pubsub.subscribe"),
    (PubSubSystem, "unsubscribe", "pubsub.unsubscribe"),
    (SubscriptionTable, "install_many", "pubsub.table.install_many"),
    (SubscriptionTable, "match_grouped_many", "pubsub.table.match_grouped_many"),
    (VectorCountingMatcher, "add_many", "pubsub.matcher.add_many"),
    (VectorCountingMatcher, "count", "pubsub.matcher.count"),
    (ScheduledQueue, "pop_best", "core.queue.pop_best"),
    (ScheduledQueue, "prune", "core.queue.prune"),
)


def _no_span(name: str) -> contextlib.AbstractContextManager[None]:
    return contextlib.nullcontext()


def execute(
    workload: Workload,
    seed: int,
    workdir: Path,
    tracer: SpanRecorder | None = None,
    checkpoint: bool = True,
) -> dict[str, Any]:
    """Run one rep; returns its phase times, outputs and fingerprint.

    ``checkpoint=False`` skips the churn workload's mid-run save/resume
    (the uninterrupted reference the tests compare against).
    """
    leftover = [key for key in REPRO_ENV if key in os.environ]
    if leftover:
        raise RuntimeError(f"unset {leftover} before a benchmark rep")
    if tracer is not None:
        for owner, attr, name in TRACED_CALLABLES:
            tracer.patch(owner, attr, name)
    try:
        span = tracer.span if tracer is not None else _no_span
        return _execute(workload, seed, workdir, tracer, span, checkpoint)
    finally:
        profiling.disable()
        if tracer is not None:
            tracer.restore()


def _setup(workload: Workload, seed: int, span) -> tuple[PubSubSystem, SimulationConfig, int]:
    """Config to a system ready to run."""
    config = workload.config(seed)
    with span("network.build_mesh"):
        topology = build_layered_mesh(
            RngStreams(OVERLAY_SEED).get("topology"), workload.topology_spec()
        )

    def population(rng: np.random.Generator, topo: Topology) -> list[Subscription]:
        with span("workload.population"):
            return workload.population(rng, topo)

    with span("sim.build_system"):
        system = build_system(config, topology, subscription_builder=population)
    with span("workload.schedule"):
        publications = schedule_publications(system, workload, seed)
    return system, config, publications


def _analyse(system: PubSubSystem, horizon_ms: float, span):
    with span("analysis.windowed_metrics"):
        series = windowed_metrics(system, WINDOW_MS, horizon_ms)
    with span("analysis.latency_stats"):
        latency = latency_stats(list(system.subscribers.values()))
    with span("analysis.revenue_by_tier"):
        tiers = revenue_by_tier(system)
    if not tiers or latency.count <= 0:
        raise RuntimeError("analysis produced no price tiers or no latency samples")
    return series


def _execute(workload, seed, workdir, tracer, span, checkpoint) -> dict[str, Any]:
    rec: dict[str, Any] = {"workload": workload.name, "seed": seed}
    setup_s: list[float] = []

    def timed_setup():
        gc.collect()
        t0 = perf_counter()
        with span("setup"):
            built = _setup(workload, seed, span)
        setup_s.append(perf_counter() - t0)
        return built

    for _ in range(workload.setup_repeats - workload.setup_repeats // 2):
        system = None
        system, config, publications = timed_setup()
    if system.config.shards or system.config.log_spill or system._engine is None:
        raise RuntimeError("timed runs need the fused engine, shards=0 and spill off")
    rec["publications"] = publications
    rec["table_rows"] = sum(len(b.table) for b in system.brokers.values())
    rec["rss_setup_mb"] = peak_rss_mb()

    horizon = config.horizon_ms
    slices = int(-(-horizon // SLICE_MS))
    plan = ChurnPlan(workload, seed, system, slices) if workload.churn else None
    slice_s: list[float] = []
    after_write: list[bool] = []
    queued_max = 0
    paused = 0.0
    rec["checkpoint_save_s"] = rec["checkpoint_load_s"] = 0.0
    rec["checkpoint_bytes"] = 0
    if tracer is not None:
        profiling.enable()
    t_run = perf_counter()
    with span("run"):
        for k in range(slices):
            wrote = plan.apply(system, k) if plan is not None else False
            ts = perf_counter()
            with span("run.slice"):
                system.run(until=min(horizon, (k + 1) * SLICE_MS))
            slice_s.append(perf_counter() - ts)
            after_write.append(wrote)
            queued_max = max(queued_max, system.total_queued())
            if plan is not None and checkpoint and k == plan.checkpoint_slice:
                tp = perf_counter()
                system, config = _checkpoint_and_resume(system, config, workdir, span, rec)
                paused += perf_counter() - tp
    run_s = perf_counter() - t_run - paused
    prof = profiling.disable()
    rec["rss_run_mb"] = peak_rss_mb()

    t = perf_counter()
    for _ in range(workload.analysis_repeats):
        with span("analysis"):
            series = _analyse(system, horizon, span)
    analysis_s = (perf_counter() - t) / workload.analysis_repeats
    rec["rss_analysis_mb"] = peak_rss_mb()
    for _ in range(workload.setup_repeats // 2):
        timed_setup()

    system.metrics.check_invariants()
    m = system.metrics
    faults = system.faults
    rec.update(
        setup_s=sum(setup_s) / len(setup_s),
        run_s=run_s,
        analysis_s=analysis_s,
        fingerprint=fingerprint(system, series),
        published=m.published,
        deliveries_valid=m.deliveries_valid,
        deliveries_late=m.deliveries_late,
        transmissions=m.transmissions,
        pruned=m.pruned,
        earning=float(m.earning),
        events=system.sim.executed_events,
        log_rows=len(system.delivery_log),
        queued_max=queued_max,
        faults={
            "retries": faults.retries,
            "dead_entries": faults.dead_entries,
            "publish_drops": faults.publish_drops,
        },
        slice_s=slice_s,
        slice_after_write=after_write,
        joined=plan.joined if plan is not None else 0,
    )
    rec["total_s"] = rec["setup_s"] + rec["run_s"] + rec["analysis_s"]
    rec["deliveries_per_s"] = (m.deliveries_valid + m.deliveries_late) / run_s
    rec["peak_rss_mb"] = peak_rss_mb()
    if prof is not None:
        rec["stages"] = prof.report()
    return rec


def _checkpoint_and_resume(system, config, workdir: Path, span, rec):
    """Save the paused run, drop it, and continue from the restored copy."""
    with span("core.checkpoint.save"):
        path, seconds, size = save_run_checkpoint(system, config, workdir)
    rec["checkpoint_save_s"] = seconds
    rec["checkpoint_bytes"] = size
    del system
    gc.collect()
    t = perf_counter()
    with span("core.checkpoint.load"):
        restored, restored_config, _ = resume_run(path, config=config)
    rec["checkpoint_load_s"] = perf_counter() - t
    shutil.rmtree(path)
    return restored, restored_config


# ---------------------------------------------------------------------- #
# Per-layer metrics of a traced rep.
# ---------------------------------------------------------------------- #
#: Engine stage timers (repro.core.profiling) reported per layer.
ENGINE_STAGES = ("pop", "match", "enqueue", "drain", "metrics", "append")


def layer_metrics(rec: dict[str, Any], tracer: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Reduce a traced rep's spans, stage timers and counters to the
    per-layer metrics, as ``name -> (value, unit)``.

    Setup and analysis may have been repeated; their layers are read
    from the setup whose system ran and from the last analysis pass.
    """
    spans = tracer.closed()
    roots: dict[str, list[int]] = {}
    for i, (name, _, _, parent) in enumerate(spans):
        if parent < 0:
            roots.setdefault(name, []).append(i)
    run = roots["run"][0]
    setup = max(i for i in roots["setup"] if i < run)
    summary = summarize(spans, under(spans, {setup, run, roots["analysis"][-1]}))

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(summary.get(name, {}).get("calls", 0))

    out: dict[str, tuple[float, str]] = {
        "network.build_mesh_s": (total("network.build_mesh"), "s"),
        "workload.population_s": (total("workload.population"), "s"),
        "workload.schedule_s": (total("workload.schedule"), "s"),
        "workload.publications": (float(rec["publications"]), "count"),
        "sim.build_system_self_s": (self_s("sim.build_system"), "s"),
        "pubsub.subscribe_all_self_s": (self_s("pubsub.subscribe_all"), "s"),
        "pubsub.warm_s": (total("pubsub.warm"), "s"),
        "setup.unattributed_s": (self_s("setup"), "s"),
        "pubsub.table.install_many_s": (total("pubsub.table.install_many"), "s"),
        "pubsub.table.rows": (float(rec["table_rows"]), "count"),
        "pubsub.table.match_grouped_many_s": (total("pubsub.table.match_grouped_many"), "s"),
        "pubsub.table.match_grouped_many.calls": (calls("pubsub.table.match_grouped_many"), "count"),
        "pubsub.matcher.add_many_s": (total("pubsub.matcher.add_many"), "s"),
        "pubsub.matcher.count_s": (total("pubsub.matcher.count"), "s"),
        "pubsub.matcher.count.calls": (calls("pubsub.matcher.count"), "count"),
    }
    for op in ("subscribe", "unsubscribe"):
        samples = [d * 1000.0 for d in durations(spans, f"pubsub.{op}")]
        value, pct, n = pmax10(samples)
        out[f"pubsub.{op}_ms.p50"] = (median(samples) if samples else 0.0, "ms")
        out[f"pubsub.{op}_ms.pmax10"] = (value, "ms")
        out[f"pubsub.{op}_ms.pmax10_pct"] = (pct, "%")
        out[f"pubsub.{op}_ms.n"] = (float(n), "count")
    slices = rec["slice_s"]
    wrote = rec["slice_after_write"]
    after = [s for s, w in zip(slices, wrote) if w]
    quiet = [s for s, w in zip(slices, wrote) if not w]
    out["run.slice_after_write_s.p50"] = (median(after) if after else 0.0, "s")
    out["run.slice_quiet_s.p50"] = (median(quiet) if quiet else 0.0, "s")
    stages = rec.get("stages", {})
    for stage in ENGINE_STAGES:
        row = stages.get(stage, {"seconds": 0.0, "calls": 0})
        out[f"engine.{stage}_s"] = (float(row["seconds"]), "s")
        out[f"engine.{stage}.calls"] = (float(row["calls"]), "count")
    value, pct, n = pmax10(slices)
    valid, late = rec["deliveries_valid"], rec["deliveries_late"]
    out.update({
        "core.queue.pop_best_s": (total("core.queue.pop_best"), "s"),
        "core.queue.pop_best.calls": (calls("core.queue.pop_best"), "count"),
        "core.queue.prune.calls": (calls("core.queue.prune"), "count"),
        "pubsub.queued_max": (float(rec["queued_max"]), "count"),
        "des.events": (float(rec["events"]), "count"),
        "run.slice_s.p50": (median(slices), "s"),
        "run.slice_s.pmax10": (value, "s"),
        "run.slice_s.pmax10_pct": (pct, "%"),
        "run.slice_s.n": (float(n), "count"),
        "pubsub.transmissions": (float(rec["transmissions"]), "count"),
        "pubsub.deliveries_valid": (float(valid), "count"),
        "pubsub.deliveries_late": (float(late), "count"),
        "pubsub.pruned": (float(rec["pruned"]), "count"),
        "pubsub.valid_ratio": (valid / (valid + late) if valid + late else 0.0, "ratio"),
        "faults.retries": (float(rec["faults"]["retries"]), "count"),
        "faults.dead_entries": (float(rec["faults"]["dead_entries"]), "count"),
        "faults.publish_drops": (float(rec["faults"]["publish_drops"]), "count"),
        "log.rows": (float(rec["log_rows"]), "count"),
        "core.checkpoint.save_s": (total("core.checkpoint.save"), "s"),
        "core.checkpoint.load_s": (total("core.checkpoint.load"), "s"),
        "core.checkpoint.bytes": (float(rec["checkpoint_bytes"]), "bytes"),
        "analysis.windowed_metrics_s": (total("analysis.windowed_metrics"), "s"),
        "analysis.latency_stats_s": (total("analysis.latency_stats"), "s"),
        "analysis.revenue_by_tier_s": (total("analysis.revenue_by_tier"), "s"),
        "mem.rss_setup_mb": (rec["rss_setup_mb"], "MB"),
        "mem.rss_run_mb": (rec["rss_run_mb"], "MB"),
        "mem.rss_analysis_mb": (rec["rss_analysis_mb"], "MB"),
    })
    return out
