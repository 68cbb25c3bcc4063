"""The bench-regression gate: ``benchmarks/bench_report.py``.

CI runs the report with ``--check`` after every benchmark matrix; these
tests prove the gate actually bites -- a seeded floor regression in a
results directory fails the check, and so does a deleted floor -- without
breaking the committed baselines.  The committed BENCH_*.json files themselves must pass the
check: they are the floors the next change is judged against.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_report", REPO_ROOT / "benchmarks" / "bench_report.py")
bench_report = importlib.util.module_from_spec(_spec)
# dataclasses resolves string annotations through sys.modules, so the
# module must be registered before its body executes.
sys.modules["bench_report"] = bench_report
_spec.loader.exec_module(bench_report)


@pytest.fixture()
def results_dir(tmp_path):
    """A scratch copy of the committed BENCH files, safe to doctor."""
    target = tmp_path / "results"
    target.mkdir()
    for path in REPO_ROOT.glob("BENCH_*.json"):
        shutil.copy(path, target / path.name)
    return target


#: Asserted ratios and the floors their benchmarks record beside them:
#: (file, label, value path, floor path).
RECORDED_FLOORS = (
    ("BENCH_dataset.json", "columnar seed ingest vs object path",
     "columnar_vs_object_speedup", "columnar_vs_object_floor"),
    ("BENCH_priors.json", "engine priors plan vs reference",
     "priors_fused_serial_speedup", "priors_fused_serial_floor"),
    ("BENCH_priors.json", "batched scan pipeline end to end",
     "scan.end_to_end_speedup", "scan.end_to_end_floor"),
    ("BENCH_priors.json", "batched pass zmap step vs per-pair probing",
     "scan.zmap_layer_speedup", "scan.zmap_layer_floor"),
    ("BENCH_serving.json", "warm served lookup vs cold one-shot",
     "warm_vs_cold_speedup", "warm_vs_cold_floor"),
    ("BENCH_dataset.json", "numpy model build vs stdlib (serial)",
     "model_fold.speedup", "model_fold.floor"),
    ("BENCH_engine.json", "numpy fold kernel vs per-row fold",
     "model_fold_kernel.speedup", "model_fold_kernel.floor"),
    ("BENCH_snapshot.json", "warm restart from snapshot vs full rebuild",
     "warm_restart_speedup", "warm_restart_floor"),
    ("BENCH_telemetry.json", "warm model build, telemetry off vs on",
     "model_build.off_vs_on", "model_build.floor"),
    ("BENCH_telemetry.json", "warm serving lookup, telemetry off vs on",
     "warm_lookup.off_vs_on", "warm_lookup.floor"),
)


def _doctor(directory: Path, name: str, mutate) -> None:
    path = directory / name
    document = json.loads(path.read_text())
    mutate(document)
    path.write_text(json.dumps(document))


def _parent(document: dict, dotted: str):
    """The dict holding a dotted path's last key, and that key."""
    *parents, key = dotted.split(".")
    for part in parents:
        document = document[part]
    return document, key


def _run(results_dir: Path, *extra: str) -> int:
    return bench_report.main([
        "--results-dir", str(results_dir),
        "--baseline-dir", str(REPO_ROOT), *extra])


def test_committed_baselines_pass_the_check(capsys):
    """The committed BENCH files must clear their own floors."""
    assert _run(REPO_ROOT, "--check") == 0
    out = capsys.readouterr().out
    assert "REGRESSED" not in out


@pytest.mark.parametrize("name, label, value_path, floor_path", RECORDED_FLOORS,
                         ids=[row[2] for row in RECORDED_FLOORS])
def test_seeded_recorded_floor_regression_fails(
        results_dir, capsys, name, label, value_path, floor_path):
    """Dropping a ratio just below the floor its benchmark recorded fails
    --check."""

    def mutate(document):
        floor_parent, floor_key = _parent(document, floor_path)
        value_parent, value_key = _parent(document, value_path)
        value_parent[value_key] = floor_parent[floor_key] - 0.01

    _doctor(results_dir, name, mutate)
    assert _run(results_dir, "--check") == 1
    captured = capsys.readouterr()
    assert "FLOOR REGRESSION" in captured.err
    assert label in captured.err


def test_value_without_recorded_floor_fails(results_dir, capsys):
    """An asserted ratio whose floor line was deleted fails --check, so a
    gate cannot vanish by omission."""
    _doctor(results_dir, "BENCH_dataset.json",
            lambda d: d.pop("columnar_vs_object_floor"))
    assert _run(results_dir, "--check") == 1
    captured = capsys.readouterr()
    assert "NO RECORDED FLOOR" in captured.err
    assert "columnar seed ingest vs object path" in captured.err
    assert "NO FLOOR" in captured.out


def test_without_check_regressions_warn_but_pass(results_dir):
    """The report job renders on every build; only --check gates."""
    _doctor(results_dir, "BENCH_priors.json",
            lambda d: d.__setitem__("priors_fused_serial_speedup", 1.0))
    assert _run(results_dir) == 0


def test_recorded_ratios_without_floor_never_gate(results_dir, capsys):
    """Ratios recorded without a floor (engine vs reference) report "not
    asserted" however low they read."""

    def engine(document):
        document["engine_vs_reference"]["stdlib"] = 0.1

    _doctor(results_dir, "BENCH_engine.json", engine)
    assert _run(results_dir, "--check") == 0
    out = capsys.readouterr().out
    for label in ("engine model build vs reference (serial, stdlib)",):
        line = next(line for line in out.splitlines() if line.startswith(label))
        assert "not asserted" in line


def test_missing_section_reports_missing_without_failing(results_dir, capsys):
    """numpy-gated sections legitimately vanish on legs without a wheel."""
    _doctor(results_dir, "BENCH_dataset.json",
            lambda d: d.pop("model_fold"))
    assert _run(results_dir, "--check") == 0
    assert "missing" in capsys.readouterr().out


def test_best_leg_wins_across_matrix_copies(results_dir, tmp_path):
    """With one slow leg and one passing leg, the check passes: a noisy
    shared runner must not fail a speedup a sibling leg demonstrated."""
    slow_leg = results_dir / "leg-slow"
    slow_leg.mkdir()
    shutil.copy(results_dir / "BENCH_priors.json",
                slow_leg / "BENCH_priors.json")
    _doctor(slow_leg, "BENCH_priors.json",
            lambda d: d.__setitem__("priors_fused_serial_speedup", 1.1))
    assert _run(results_dir, "--check") == 0


def test_step_summary_written_when_env_set(results_dir, monkeypatch, tmp_path):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert _run(results_dir) == 0
    text = summary.read_text()
    assert "Benchmark regression report" in text
    assert "| benchmark | speedup | floor |" in text


def test_empty_results_directory_is_an_error(tmp_path):
    assert _run(tmp_path / "nothing-here") == 2
