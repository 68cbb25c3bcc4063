"""Compare two ``results.json`` files of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A/results.json B/results.json

For each workload and each end-to-end metric of ``BENCHMARK.json`` it prints
A's and B's median over their untraced runs, B's change relative to A
(positive means worse, whichever direction is better for the metric), the
metric's bound, the wider of the two sides' run-to-run spreads (quartile
distance over median; needs ``run.py --repeat 2`` or more), and a verdict:

* ``unresolved`` -- the spread is wider than the bound, so a change of the
  bound's size cannot be told from noise; ``improved`` instead when every
  run of B reads better than every run of A;
* ``regressed`` -- B is worse than A by more than the bound;
* ``improved`` -- B is better than A by more than the bound;
* ``unchanged`` -- within the bound either way.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: Sequence[float]) -> Optional[float]:
    """Run-to-run quartile distance over the median; ``None`` below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            higher_is_better: bool) -> Dict[str, object]:
    """Compare B's runs of one metric against A's."""
    sign = -1.0 if higher_is_better else 1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    noise = max(spreads) if spreads else None
    if higher_is_better:
        b_always_better = min(b) > max(a)
    else:
        b_always_better = max(b) < min(a)
    if noise is not None and noise > bound:
        label = "improved" if b_always_better else "unresolved"
    elif worse > bound:
        label = "regressed"
    elif worse < -bound:
        label = "improved"
    else:
        label = "unchanged"
    return {"a": median_a, "b": median_b, "worse": worse, "spread": noise,
            "verdict": label}


def _values(results: dict, workload: str, metric: str) -> List[float]:
    runs = results["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs
            if metric in run.get("metrics", {})]


def compare(a: dict, b: dict, spec: dict) -> List[Dict[str, object]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                rows.append({"workload": workload, "metric": metric["name"],
                             "verdict": "missing"})
                continue
            row = verdict(va, vb, metric["bound"], metric["better"] == "higher")
            row.update(workload=workload, metric=metric["name"], unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline results.json")
    parser.add_argument("b", type=Path, help="candidate results.json")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec)
    header = (f"{'workload':20} {'metric':22} {'A':>12} {'B':>12} {'change':>8} "
              f"{'bound':>6} {'spread':>7}  verdict")
    print(header)
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:20} {row['metric']:22} {'':>12} {'':>12} "
                  f"{'':>8} {'':>6} {'':>7}  missing")
            continue
        noise = "-" if row["spread"] is None else f"{100 * row['spread']:.1f}%"
        print(f"{row['workload']:20} {row['metric']:22} {row['a']:>12.6g} "
              f"{row['b']:>12.6g} {100 * row['worse']:>+7.1f}% "
              f"{100 * row['bound']:>5.0f}% {noise:>7}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
