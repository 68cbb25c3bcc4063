"""The bench-regression gate: ``benchmarks/bench_report.py``.

CI runs the report with ``--check`` after every benchmark matrix; these
tests prove the gate actually bites -- a seeded floor regression in a
results directory fails the check -- without breaking the committed
baselines.  The committed BENCH_*.json files themselves must pass the
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


def _doctor(directory: Path, name: str, mutate) -> None:
    path = directory / name
    document = json.loads(path.read_text())
    mutate(document)
    path.write_text(json.dumps(document))


def _run(results_dir: Path, *extra: str) -> int:
    return bench_report.main([
        "--results-dir", str(results_dir),
        "--baseline-dir", str(REPO_ROOT), *extra])


def test_committed_baselines_pass_the_check(capsys):
    """The committed BENCH files must clear their own floors."""
    assert _run(REPO_ROOT, "--check") == 0
    out = capsys.readouterr().out
    assert "REGRESSED" not in out


def test_seeded_static_floor_regression_fails(results_dir, capsys):
    """Dropping a headline ratio below its static floor fails --check."""
    _doctor(results_dir, "BENCH_priors.json",
            lambda d: d.__setitem__("priors_fused_serial_speedup", 1.0))
    assert _run(results_dir, "--check") == 1
    captured = capsys.readouterr()
    assert "FLOOR REGRESSION" in captured.err
    assert "engine priors plan vs reference" in captured.err


def test_seeded_recorded_floor_regression_fails(results_dir):
    """A metric judged against its JSON-recorded floor regresses too."""
    _doctor(results_dir, "BENCH_dataset.json",
            lambda d: d["model_fold"].__setitem__(
                "speedup", d["model_fold"]["floor"] - 0.1))
    assert _run(results_dir, "--check") == 1


def test_without_check_regressions_warn_but_pass(results_dir):
    """The report job renders on every build; only --check gates."""
    _doctor(results_dir, "BENCH_priors.json",
            lambda d: d.__setitem__("priors_fused_serial_speedup", 1.0))
    assert _run(results_dir) == 0


def test_gated_metric_never_fails_when_not_asserted(results_dir):
    """thread_fold below floor with floor_asserted false must not gate
    (single-core machines record the number without asserting it)."""

    def mutate(document):
        document["thread_fold"]["speedup"] = 0.5
        document["thread_fold"]["floor_asserted"] = False

    _doctor(results_dir, "BENCH_engine.json", mutate)
    assert _run(results_dir, "--check") == 0


def test_gated_metric_fails_when_asserted(results_dir):
    """...but the same number on a multi-core leg fails the check."""

    def mutate(document):
        document["thread_fold"]["speedup"] = 0.5
        document["thread_fold"]["floor_asserted"] = True

    _doctor(results_dir, "BENCH_engine.json", mutate)
    assert _run(results_dir, "--check") == 1


def test_recorded_ratios_without_floor_never_gate(results_dir, capsys):
    """Ratios recorded without a floor (engine vs reference, warm pool vs
    serial) report "not asserted" however low they read."""

    def engine(document):
        document["engine_vs_reference"]["stdlib"] = 0.1

    def runtime(document):
        document["warm_vs_serial"] = 0.1

    _doctor(results_dir, "BENCH_engine.json", engine)
    _doctor(results_dir, "BENCH_runtime.json", runtime)
    assert _run(results_dir, "--check") == 0
    out = capsys.readouterr().out
    for label in ("engine model build vs reference (serial, stdlib)",
                  "warm resident pool vs serial (model build)"):
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
