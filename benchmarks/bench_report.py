"""Bench-regression report: speedup table + floor gate over BENCH_*.json.

Every benchmark in this directory writes its measurements to a
``BENCH_<area>.json`` file at the repository root, and the measured files
are *committed* -- they are the performance baseline the next change is
judged against.  This tool closes the loop:

* load the committed baselines from the repository root;
* load freshly produced result files (CI downloads every matrix leg's
  ``BENCH_*.json`` artifacts into one directory; locally the repo root
  doubles as the results directory after a bench run);
* render one per-benchmark speedup table -- headline speedup, the floor it
  must clear, and the delta against the committed baseline -- to stdout
  and, when ``$GITHUB_STEP_SUMMARY`` is set, as a Markdown table into the
  workflow step summary;
* with ``--check``, exit non-zero if any asserted metric fell below its
  floor or recorded none.

Floors come from one place: the results themselves.  Every benchmark
writes each floor it asserts into its JSON beside the ratio that floor gates
(``columnar_vs_object_floor``, ``warm_restart_floor``,
``scan.zmap_layer_floor`` ...), under the same conditions (smoke or full) as
the measurement.  So the report keeps no copy of any floor and has no
``--smoke`` switch: a smoke run records its relaxed floors itself.  An asserted metric whose value is present but whose floor is
not fails ``--check``: deleting the line that records a floor cannot quietly
remove its gate.  Ratios registered without a floor path
(``engine_vs_reference``) are recorded for the trend only and always report "not asserted".  Sections
that are absent from a results file are reported as missing rather than
failed.

Run locally::

    python benchmarks/bench_report.py            # table only
    python benchmarks/bench_report.py --check    # fail on floor regression or
                                                 # a missing recorded floor
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

BENCH_GLOB = "BENCH_*.json"


@dataclass(frozen=True)
class Metric:
    """One gated headline ratio inside one BENCH file.

    Attributes:
        file: BENCH file name the metric lives in.
        label: human-readable row label.
        value_path: dotted path to the speedup inside the JSON document.
        floor_path: dotted path to the floor the producing run recorded
            beside the speedup.  ``None`` for a ratio the producing
            benchmark records without a floor: it is reported as "not
            asserted" and never gates.
    """

    file: str
    label: str
    value_path: str
    floor_path: Optional[str] = None


#: Every headline ratio the report renders; the floors live in the results.
METRICS: Tuple[Metric, ...] = (
    Metric("BENCH_engine.json", "engine model build vs reference (serial, numpy)",
           "engine_vs_reference.numpy"),
    Metric("BENCH_dataset.json", "columnar seed ingest vs object path",
           "columnar_vs_object_speedup", floor_path="columnar_vs_object_floor"),
    Metric("BENCH_priors.json", "engine priors plan vs reference (serial)",
           "priors_fused_serial_speedup", floor_path="priors_fused_serial_floor"),
    Metric("BENCH_priors.json", "batched scan pipeline end to end",
           "scan.end_to_end_speedup", floor_path="scan.end_to_end_floor"),
    Metric("BENCH_priors.json", "batched pass zmap step vs per-pair probing",
           "scan.zmap_layer_speedup", floor_path="scan.zmap_layer_floor"),
    Metric("BENCH_serving.json", "warm served lookup vs cold one-shot",
           "warm_vs_cold_speedup", floor_path="warm_vs_cold_floor"),
    Metric("BENCH_snapshot.json", "warm restart from snapshot vs full rebuild",
           "warm_restart_speedup", floor_path="warm_restart_floor"),
    Metric("BENCH_telemetry.json", "warm model build, telemetry off vs on",
           "model_build.off_vs_on", floor_path="model_build.floor"),
    Metric("BENCH_telemetry.json", "warm serving lookup, telemetry off vs on",
           "warm_lookup.off_vs_on", floor_path="warm_lookup.floor"),
)


@dataclass
class Row:
    """One evaluated metric: current value vs floor vs committed baseline."""

    metric: Metric
    value: Optional[float]
    floor: Optional[float]
    asserted: bool
    baseline: Optional[float]
    sources: int  # result files the value was taken from (best of N legs)

    @property
    def regressed(self) -> bool:
        """True when the metric is asserted and present, and its floor is
        missing or above the value."""
        return (self.asserted and self.value is not None
                and (self.floor is None or self.value < self.floor))

    @property
    def status(self) -> str:
        if self.value is None:
            return "missing"
        if not self.asserted:
            return "not asserted"
        if self.floor is None:
            return "NO FLOOR"
        return "REGRESSED" if self.regressed else "ok"


def resolve(document: Dict[str, Any], dotted: str) -> Optional[Any]:
    """Walk a dotted path through nested dicts; None when any hop misses."""
    node: Any = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def load_documents(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Every BENCH_*.json under a directory (recursive), grouped by name.

    CI downloads one artifact directory per matrix leg, so the same file
    name can appear several times; all parses are kept and metrics take
    the best leg.  Unreadable files are skipped with a warning on stderr
    rather than failing the report.
    """
    documents: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(directory.rglob(BENCH_GLOB)):
        try:
            parsed = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"bench-report: skipping unreadable {path}: {exc}",
                  file=sys.stderr)
            continue
        if isinstance(parsed, dict):
            documents.setdefault(path.name, []).append(parsed)
    return documents


def _best(values: List[float]) -> Optional[float]:
    return max(values) if values else None


def evaluate(results: Dict[str, List[Dict[str, Any]]],
             baselines: Dict[str, List[Dict[str, Any]]]) -> List[Row]:
    """Judge every registered metric against its recorded floor and baseline.

    With several result documents per file (matrix legs), a metric passes
    if its *best* leg clears the lowest floor any leg recorded -- a single
    noisy shared runner must not fail the build when a sibling leg
    demonstrates the speedup.
    """
    rows: List[Row] = []
    for metric in METRICS:
        docs = results.get(metric.file, [])
        values = [v for v in (resolve(d, metric.value_path) for d in docs)
                  if isinstance(v, (int, float))]
        value = _best(values)

        floor: Optional[float] = None
        if metric.floor_path is not None:
            recorded = [resolve(d, metric.floor_path) for d in docs]
            floors = [f for f in recorded if isinstance(f, (int, float))]
            floor = min(floors) if floors else None

        asserted = metric.floor_path is not None

        base_docs = baselines.get(metric.file, [])
        base_values = [v for v in (resolve(d, metric.value_path)
                                   for d in base_docs)
                       if isinstance(v, (int, float))]
        rows.append(Row(metric=metric, value=value, floor=floor,
                        asserted=asserted, baseline=_best(base_values),
                        sources=len(values)))
    return rows


def _fmt(value: Optional[float], suffix: str = "x") -> str:
    return "-" if value is None else f"{value:.2f}{suffix}"


def _delta(row: Row) -> str:
    if row.value is None or row.baseline in (None, 0):
        return "-"
    return f"{row.value / row.baseline - 1.0:+.0%}".replace("%", " %")


def render_text(rows: Sequence[Row]) -> str:
    """Plain-text speedup table for stdout / local runs."""
    header = ("benchmark", "file", "speedup", "floor", "baseline",
              "vs base", "status")
    table = [header] + [
        (row.metric.label, row.metric.file, _fmt(row.value),
         _fmt(row.floor), _fmt(row.baseline), _delta(row), row.status)
        for row in rows]
    widths = [max(len(line[col]) for line in table)
              for col in range(len(header))]
    lines = ["  ".join(cell.ljust(width)
                       for cell, width in zip(line, widths)).rstrip()
             for line in table]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_markdown(rows: Sequence[Row]) -> str:
    """GitHub-flavoured Markdown table for the workflow step summary."""
    icon = {"ok": "white_check_mark", "REGRESSED": "x", "NO FLOOR": "x",
            "missing": "heavy_minus_sign", "not asserted": "zzz"}
    lines = [
        "## Benchmark regression report",
        "",
        "| benchmark | speedup | floor | baseline | vs base | status |",
        "| --- | ---: | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row.metric.label} (`{row.metric.file}`) "
            f"| {_fmt(row.value)} | {_fmt(row.floor)} "
            f"| {_fmt(row.baseline)} | {_delta(row)} "
            f"| :{icon[row.status]}: {row.status} |")
    lines.append("")
    lines.append("Best leg per metric; each floor is the one its benchmark "
                 "recorded beside the ratio (see `benchmarks/`).")
    return "\n".join(lines) + "\n"


def write_step_summary(markdown: str,
                       summary_path: Optional[str] = None) -> bool:
    """Append the Markdown table to ``$GITHUB_STEP_SUMMARY`` if set."""
    target = summary_path or os.environ.get("GITHUB_STEP_SUMMARY")
    if not target:
        return False
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(markdown)
    return True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Render the BENCH_*.json speedup table and optionally "
                    "fail on floor regressions.")
    parser.add_argument(
        "--results-dir", type=Path, default=REPO_ROOT,
        help="directory holding freshly produced BENCH_*.json files, "
             "searched recursively (default: the repository root)")
    parser.add_argument(
        "--baseline-dir", type=Path, default=REPO_ROOT,
        help="directory holding the committed baseline BENCH_*.json files "
             "(default: the repository root)")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if any asserted metric is below its recorded floor or "
             "has no recorded floor")
    args = parser.parse_args(argv)

    results = load_documents(args.results_dir)
    baselines = load_documents(args.baseline_dir)
    if not results:
        print(f"bench-report: no {BENCH_GLOB} files under "
              f"{args.results_dir}", file=sys.stderr)
        return 2

    rows = evaluate(results, baselines)
    print(render_text(rows))
    write_step_summary(render_markdown(rows))

    regressions = [row for row in rows if row.regressed]
    for row in regressions:
        if row.floor is None:
            print(f"bench-report: NO RECORDED FLOOR: {row.metric.label} "
                  f"({row.metric.file}) at {row.value:.2f}x; expected one at "
                  f"{row.metric.floor_path}", file=sys.stderr)
        else:
            print(f"bench-report: FLOOR REGRESSION: {row.metric.label} "
                  f"({row.metric.file}) at {row.value:.2f}x, "
                  f"floor {row.floor:.2f}x", file=sys.stderr)
    if args.check and regressions:
        return 1
    if regressions:
        print("bench-report: regressions found (run with --check to fail)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
