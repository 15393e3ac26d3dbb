"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR [--trace]

Prints the rep's record as one JSON line on stdout and exits 0, or
exits non-zero if the rep raised.  ``run.py`` starts these one at a time
so each rep's ``ru_maxrss`` is its own.  With ``--trace`` the rep
records spans and stage timers, writes its spans under ``DIR``, and its
record carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from spans import SpanRecorder
    from workloads import WORKLOADS, clear_repro_env, execute, layer_metrics

    clear_repro_env()
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = SpanRecorder(run_id=f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    rec = execute(workload, args.seed, args.workdir, tracer=tracer)
    if tracer is not None:
        rec["layers"] = layer_metrics(rec, tracer)
        tracer.write(args.workdir / "spans.json")
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
