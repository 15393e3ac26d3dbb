"""Make the benchmark's modules and the program importable from here.

The benchmark's files import each other as top-level modules (``run.py``
is started as a script, so its directory is on ``sys.path``); the tests
mirror that.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def clean_env(monkeypatch):
    """A rep refuses to run under the engine/sentinel overrides; unset
    them for one test only (the rest of the session keeps its own)."""
    for key in ("REPRO_SENTINEL", "REPRO_SHARDS", "REPRO_SHARD_BACKEND"):
        monkeypatch.delenv(key, raising=False)
