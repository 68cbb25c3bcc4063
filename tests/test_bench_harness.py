"""The micro-benchmarks' shared harness: ``benchmarks/_harness.py``.

``record`` is the contract two benches rely on when they share a results
file (``bench_runtime.py`` and ``bench_runtime_recovery.py`` both write
``BENCH_runtime.json``): each rewrites only its own sections.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "_harness", REPO_ROOT / "benchmarks" / "_harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_record_keeps_sibling_sections_and_replaces_given_ones(tmp_path):
    path = tmp_path / "BENCH_runtime.json"
    harness.record(path, {"warm_vs_serial": 0.8, "rows": [1, 2]})
    merged = harness.record(path, {"recovery": {"rebuild_vs_heal": 1.5,
                                                "floor": 1.0}})
    assert merged == {"warm_vs_serial": 0.8, "rows": [1, 2],
                      "recovery": {"rebuild_vs_heal": 1.5, "floor": 1.0}}
    # A rerun replaces its own sections whole and still keeps the sibling.
    merged = harness.record(path, {"warm_vs_serial": 0.9, "rows": [3]})
    assert merged == {"warm_vs_serial": 0.9, "rows": [3],
                      "recovery": {"rebuild_vs_heal": 1.5, "floor": 1.0}}
    assert json.loads(path.read_text()) == merged


def test_record_creates_a_missing_file(tmp_path):
    path = tmp_path / "BENCH_new.json"
    assert harness.record(path, {"speedup": 2.0}) == {"speedup": 2.0}
    assert json.loads(path.read_text()) == {"speedup": 2.0}


def test_best_seconds_returns_the_fastest_run(monkeypatch):
    ticks = iter([0.0, 3.0,    # first run: 3 s
                  10.0, 11.0,  # second run: 1 s
                  20.0, 22.0])  # third run: 2 s
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
    calls = []
    assert harness.best_seconds(lambda: calls.append(1), 3) == 1.0
    assert len(calls) == 3
