"""The benchmark's workloads at tiny sizes, its output checks and its
report format."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import SpanRecorder
from workloads import WORKLOADS, Workload, execute, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant of ``workload``: the same recipe on a small
    population and a one-minute publication window."""
    if workload.subscribers:
        return replace(workload, subscribers=min(workload.subscribers, 320), minutes=1.0,
                       outage_s=35.0)
    return replace(workload, minutes=1.0, setup_repeats=3, analysis_repeats=2)


@pytest.fixture(scope="module")
def traced_churn(tmp_path_factory):
    """One tiny traced churn rep (the workload that touches every layer)."""
    mp = pytest.MonkeyPatch()
    for key in ("REPRO_SENTINEL", "REPRO_SHARDS", "REPRO_SHARD_BACKEND"):
        mp.delenv(key, raising=False)
    try:
        tracer = SpanRecorder(run_id="test")
        rec = execute(tiny(WORKLOADS["churn-20k"]), 3, tmp_path_factory.mktemp("ck"), tracer=tracer)
        rec["layers"] = layer_metrics(rec, tracer)
    finally:
        mp.undo()
    return rec


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES + run.UNGATED)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_printed_metric_names_match_benchmark_json(traced_churn):
    outcome = {"records": [traced_churn], "traced": traced_churn, "failed": 0, "attempted": 2,
               "workload": "churn-20k"}
    e2e = run.end_to_end(outcome)
    layers = run.per_layer(outcome)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for spec in BENCHMARK["end_to_end"]:
        assert e2e[spec["name"]]["unit"] == spec["unit"]
        assert e2e[spec["name"]]["value"] > 0.0
    for spec in BENCHMARK["per_layer"]:
        assert layers[spec["name"]]["unit"] == spec["unit"], spec["name"]


def test_churn_exercises_writes_faults_and_checkpoint(traced_churn):
    layers = {k: v for k, (v, _) in traced_churn["layers"].items()}
    assert traced_churn["joined"] > 0
    assert layers["pubsub.subscribe_ms.n"] == traced_churn["joined"]
    assert layers["pubsub.unsubscribe_ms.n"] == traced_churn["joined"]
    assert layers["faults.retries"] > 0
    assert layers["core.checkpoint.bytes"] > 0
    assert layers["core.checkpoint.load_s"] > 0
    assert layers["run.slice_after_write_s.p50"] > 0
    assert layers["pubsub.table.match_grouped_many.calls"] > 0
    assert 0.0 < layers["pubsub.valid_ratio"] <= 1.0
    assert layers["setup.unattributed_s"] >= 0.0


def test_churn_checkpoint_resume_matches_uninterrupted(clean_env, tmp_path, traced_churn):
    workload = tiny(WORKLOADS["churn-20k"])
    straight = execute(workload, 3, tmp_path, checkpoint=False)
    assert straight["checkpoint_bytes"] == 0
    assert traced_churn["checkpoint_bytes"] > 0
    # The traced rep also checkpointed and resumed half way.
    assert traced_churn["fingerprint"] == straight["fingerprint"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["fanout-100k", "paper-overload"])
def test_traced_fingerprint_equals_untraced(clean_env, tmp_path, name):
    workload = tiny(WORKLOADS[name])
    plain = execute(workload, 5, tmp_path)
    tracer = SpanRecorder(run_id="test")
    traced = execute(workload, 5, tmp_path, tracer=tracer)
    assert traced["fingerprint"] == plain["fingerprint"]
    assert plain["published"] > 0 and plain["deliveries_valid"] > 0
    assert layer_metrics(traced, tracer)["pubsub.matcher.count.calls"][0] == plain["published"]


def test_seed_changes_the_input(clean_env, tmp_path):
    workload = tiny(WORKLOADS["paper-overload"])
    assert execute(workload, 1, tmp_path)["fingerprint"] != execute(workload, 2, tmp_path)["fingerprint"]


def test_rep_refuses_engine_overrides(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SHARDS", "2")
    with pytest.raises(RuntimeError, match="REPRO_SHARDS"):
        execute(tiny(WORKLOADS["paper-overload"]), 1, tmp_path)


def _fake_rep(fingerprints):
    """A stand-in for ``run.run_rep`` returning canned records."""
    calls = iter(fingerprints)

    def fake(workload, seed, workdir, trace, timeout):
        fp = next(calls)
        if fp is None:
            return None, "rep exited 1", 0.01
        rec = {k: 1.0 for k, _ in run.END_TO_END}
        rec["fingerprint"] = fp
        return rec, "", 0.01

    return fake


def test_command_reports_and_fails_on_mismatch(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    reps = run.MIN_REPS
    monkeypatch.setattr(run, "run_rep", _fake_rep(["aa"] * reps))
    assert run.main(["--workload", "churn-20k", "--seed", "7", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] == reps and last["failed"] == 0
    assert last["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}

    monkeypatch.setattr(run, "run_rep", _fake_rep(["aa"] + ["bb"] * (reps - 1)))
    assert run.main(["--workload", "churn-20k", "--seed", "7", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == reps - 1 and last["attempted"] == reps

    monkeypatch.setattr(run, "run_rep", _fake_rep([None]))
    assert run.main(["--workload", "churn-20k", "--seed", "7", "--seconds", "0"]) == 1


def test_reference_seed_must_match_recorded_fingerprint(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "run_rep", _fake_rep(["aa"] * run.MIN_REPS))
    seed = str(run.REFERENCE_SEED)
    assert run.main(["--workload", "paper-overload", "--seed", seed, "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["failed"] == run.MIN_REPS


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-overload", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
