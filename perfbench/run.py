"""Benchmark entry point: run one workload (or all), check, report.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repetition ("rep") is a fresh ``perfbench/rep.py`` process that
builds the workload's seed-generated input, runs it to the horizon and
analyses it; reps run one at a time.  Untraced reps repeat for about
``--seconds`` (at least ``MIN_REPS``) and every end-to-end metric is the
median over them.  ``--trace 1`` runs untraced reps as the overhead
baseline and then one traced rep, and reports the per-layer metrics.

Every rep is checked: it must exit cleanly (the rep itself runs
``check_invariants``), and its output fingerprint must equal that of the
other reps of the seed and, for the reference seed, the fingerprint in
``perfbench/reference.json``.  A failed check makes the command exit 1.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Results, span files and checkpoint scratch, inside the checkout.
OUT = ROOT / ".perfbench"

#: The workloads ``BENCHMARK.json`` gates on.
WORKLOAD_NAMES = ("fanout-100k", "churn-20k")
#: Runnable, but outside the gate: on a shared 2-vCPU host its
#: millisecond-grained, pure-Python event loop swung its timings by
#: 0.25-0.32 (quartile spread over ten seeds), beyond the largest bound.
UNGATED = ("paper-overload",)
#: The seed whose fingerprints ``reference.json`` records.
REFERENCE_SEED = 1
#: Never used while the benchmark was written; claims must also hold on it.
HELD_OUT_SEED = 1009

MIN_REPS = 2
MAX_REPS = 40
#: Wall-clock cap for the whole command, below the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("analysis_s", "s"),
    ("total_s", "s"),
    ("deliveries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

def rep_env() -> dict[str, str]:
    """The rep's environment: this one, with the program on the path
    (the rep itself unsets the engine and sentinel overrides)."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_rep(workload: str, seed: int, workdir: Path, trace: bool, timeout: float):
    """One rep in a fresh process: ``(record or None, error, wall seconds)``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        cmd.append("--trace")
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=rep_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"rep timed out after {timeout:.0f} s", perf_counter() - t0
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        return None, f"rep exited {proc.returncode}:\n{tail}", wall
    return json.loads(lines[-1]), "", wall


def run_context(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "missing"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.checkpoint import code_fingerprint

    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "load_avg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "commit": commit,
        "code_sha256": code_fingerprint(),
    }


def reference_fingerprints() -> dict[str, str]:
    doc = json.loads((HERE / "reference.json").read_text())
    if doc["seed"] != REFERENCE_SEED:
        raise ValueError("reference.json records another seed")
    return doc["fingerprints"]


def measure(workload: str, seed: int, seconds: float, trace: bool, t_start: float):
    """Run the reps of one workload; returns the outcome record."""
    workdir = OUT / "work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    errors: list[str] = []
    walls: list[float] = []
    min_reps = 1 if trace else MIN_REPS
    # A traced run keeps room for its traced rep inside the same budget.
    budget = seconds / 2.0 if trace else seconds
    t_first = perf_counter()
    try:
        while True:
            n = len(records) + len(errors)
            elapsed = perf_counter() - t_start
            if errors:
                break
            if n >= min_reps:
                if n >= MAX_REPS:
                    break
                if perf_counter() - t_first + walls[-1] > budget:
                    break
                if elapsed + 2.0 * walls[-1] > DEADLINE_S:
                    break
            rec, err, wall = run_rep(workload, seed, workdir, False, DEADLINE_S - elapsed)
            walls.append(wall)
            (records.append(rec) if rec is not None else errors.append(err))
        traced = None
        if trace and not errors:
            elapsed = perf_counter() - t_start
            traced, err, _ = run_rep(workload, seed, workdir, True, DEADLINE_S - elapsed)
            if traced is None:
                errors.append(err)
            else:
                spans = workdir / "spans.json"
                dest = OUT / "results" / f"{workload}-seed{seed}-spans.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.move(str(spans), str(dest))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Output checks: every rep of the seed gives one fingerprint, and the
    # reference seed gives the recorded one.
    attempted = len(records) + len(errors) + (traced is not None)
    expected = records[0]["fingerprint"] if records else ""
    if seed == REFERENCE_SEED:
        expected = reference_fingerprints().get(workload, "(none recorded)")
    checked = records + ([traced] if traced is not None else [])
    for r in checked:
        if r["fingerprint"] != expected:
            errors.append(f"fingerprint {r['fingerprint'][:16]} != expected {expected[:16]}")
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "records": [r for r in records if r["fingerprint"] == expected],
        "traced": traced if traced is not None and traced["fingerprint"] == expected else None,
        "expected_fingerprint": expected,
    }


def end_to_end(outcome: dict) -> dict[str, dict]:
    out = {}
    for name, unit in END_TO_END:
        values = [r[name] for r in outcome["records"]]
        out[name] = {"value": median(values), "unit": unit,
                     "min": min(values), "max": max(values), "n": len(values)}
    return out


def per_layer(outcome: dict) -> dict[str, dict]:
    traced = outcome["traced"]
    out = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
    baseline = median([r["total_s"] for r in outcome["records"]])
    out["trace.overhead_ratio"] = {"value": traced["total_s"] / baseline, "unit": "ratio"}
    out["runs_failed_ratio"] = {
        "value": outcome["failed"] / outcome["attempted"], "unit": "ratio"}
    return out


def report(outcome: dict, metrics: dict[str, dict], context: dict) -> None:
    print(f"== {outcome['workload']}  seed={context['seed']}  reps={outcome['attempted']}"
          f"  failed={outcome['failed']}  fingerprint={outcome['expected_fingerprint'][:16]}")
    for err in outcome["errors"]:
        print(f"   FAILED: {err}", file=sys.stderr)
    for name, m in metrics.items():
        line = f"   {name:<40} {m['value']:>16.6g} {m['unit']}"
        if "n" in m:
            line += f"   (median of {m['n']}; min {m['min']:.6g}, max {m['max']:.6g})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro-pubsub benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = perf_counter()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    context = run_context(args.seed)
    print("context " + json.dumps(context, sort_keys=True))

    names = WORKLOAD_NAMES + UNGATED if args.workload == "all" else (args.workload,)
    seconds = args.seconds / len(names)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        outcome = measure(name, args.seed, seconds, bool(args.trace), perf_counter())
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        wl_metrics: dict[str, dict] = {}
        if outcome["records"] and (not args.trace or outcome["traced"] is not None):
            wl_metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
        report(outcome, wl_metrics, context)
        save_results(outcome, wl_metrics, context, bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, m in wl_metrics.items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def save_results(outcome: dict, metrics: dict, context: dict, trace: bool) -> None:
    """Keep the whole outcome (context, per-rep phase times) on disk."""
    dest = OUT / "results" / f"{outcome['workload']}-seed{context['seed']}-trace{int(trace)}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    keep = ("setup_s", "run_s", "analysis_s", "total_s", "deliveries_per_s", "peak_rss_mb",
            "checkpoint_save_s", "checkpoint_load_s", "checkpoint_bytes", "fingerprint")
    doc = {
        "context": context,
        "workload": outcome["workload"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "reps": [{k: r[k] for k in keep if k in r} for r in outcome["records"]],
        "metrics": metrics,
    }
    dest.write_text(json.dumps(doc, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
