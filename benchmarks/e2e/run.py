"""End-to-end benchmark of the GPS reproduction: two GPS runs and two serving mixes.

One workload, in this process (the form an automated harness calls)::

    python3 benchmarks/e2e/run.py --workload gps-selfseed --seed 7 --seconds 22 --trace 0

It prints every metric by name with its unit, then a ``detail:`` line of
JSON (sample counts, spreads, ladder steps, Python version, column backend),
and as its last line one JSON object::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"setup_s": {"value": 0.93, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run (and writes
``DIR/trace-<workload>.json`` when ``--out DIR`` is given).

The whole suite, each workload in its own child process, one after another,
plus one extra traced run per workload::

    python3 benchmarks/e2e/run.py [--seed N] [--out DIR] [--repeat N]

writes ``DIR/results.json`` (compare two with ``compare.py``).  Either form
exits non-zero when an output check fails.  The program is imported from
``src/`` of the checkout this file sits in; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
DETAIL_PREFIX = "detail: "
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads(SPEC_PATH.read_text())


def metric_lines(workload: str, metrics: Dict[str, Dict[str, object]],
                 detail: Dict[str, object]) -> List[str]:
    """One human-readable line per metric: ``workload: name = value unit``."""
    notes = {
        "latency_p50_ms": f"n={detail.get('runs', detail.get('reference_n'))}",
        "setup_s": f"n={detail.get('setups')}",
    }
    spreads = {"latency_p50_ms": "latency_iqr_frac", "setup_s": "setup_iqr_frac"}
    lines = []
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "none" if value is None else f"{value:.6g}"
        line = f"{workload}: {name} = {shown} {entry['unit']}"
        extras = [notes[name]] if name in notes else []
        if name in spreads and spreads[name] in detail:
            extras.append(f"iqr {100 * detail[spreads[name]]:.1f}%")
        if extras:
            line += f" ({', '.join(extras)})"
        lines.append(line)
    return lines


def report(measurement, units: Dict[str, str], out: Optional[Path] = None) -> int:
    """Print one measurement (metric lines, detail, result object); exit code."""
    workload = measurement.workload
    metrics = {name: {"value": measurement.metrics[name], "unit": unit}
               for name, unit in units.items()}
    for line in metric_lines(workload, metrics, measurement.detail):
        print(line)
    if out is not None and measurement.trace is not None:
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / f"trace-{workload}.json"
        trace_path.write_text(json.dumps(
            {"workload": workload, "metrics": metrics, **measurement.trace}))
        print(f"{workload}: spans written to {trace_path}")
    print(DETAIL_PREFIX + json.dumps(measurement.detail))
    print(json.dumps({"correct": measurement.correct,
                      "attempted": measurement.attempted,
                      "failed": measurement.failed,
                      "metrics": metrics}))
    return 0 if measurement.correct else 1


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            out: Optional[Path]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    measurement = workloads.run_workload(workload, seed, seconds, trace)
    return report(measurement, workloads.PER_LAYER if trace else workloads.END_TO_END,
                  out)


def _child(workload: str, seed: int, seconds: float, trace: bool,
           out: Path) -> Dict[str, object]:
    """Run one workload in a child process and parse what it printed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--out", str(out)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    detail: Dict[str, object] = {}
    for line in lines[:-1]:
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        else:
            print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    record["exit_code"] = proc.returncode
    record["detail"] = detail
    return record


def run_suite(seed: int, seconds: float, repeat: int, out: Path) -> int:
    spec = load_spec()
    results: Dict[str, object] = {"seed": seed, "seconds": seconds, "repeat": repeat,
                                  "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_child(workload, seed, seconds, False, out) for _ in range(repeat)]
        traced = _child(workload, seed, seconds, True, out)
        for record in runs + [traced]:
            ok = ok and record["exit_code"] == 0 and record["correct"] is True
        results["workloads"][workload] = {"runs": runs, "trace": traced}
    out.mkdir(parents=True, exist_ok=True)
    path = out / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {path}" + ("" if ok else "; OUTPUT CHECKS FAILED"))
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the samples and request schedules (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for results.json and trace files "
                             "(suite default: e2e-out)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload in suite mode")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.workload is not None:
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.out)
    return run_suite(args.seed, seconds, args.repeat,
                     args.out if args.out is not None else ROOT / "e2e-out")


if __name__ == "__main__":
    sys.exit(main())
