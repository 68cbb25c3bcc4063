"""The micro-benchmarks' shared harness: smoke switch, timer, result writer.

Every ``bench_*.py`` in this directory picks its floors with :data:`SMOKE`,
times its paths with :func:`best_seconds` and writes its results with
:func:`record`.  Each bench records every floor it asserts beside the ratio
that floor gates, so ``bench_report.py`` judges a results file by the floors
it was produced under and keeps no copy of its own.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict

#: ``BENCH_SMOKE=1`` (CI's shared runners) selects each bench's relaxed
#: wall-clock floors.  Equivalence asserts never relax.
SMOKE = os.environ.get("BENCH_SMOKE") == "1"


def best_seconds(fn: Callable[[], Any], repeats: int) -> float:
    """The fastest of ``repeats`` wall-clock timings of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record(path: Path, sections: Dict[str, Any]) -> Dict[str, Any]:
    """Merge top-level ``sections`` into the JSON results file at ``path``.

    Each named section replaces its old value whole; sections the file holds
    but ``sections`` does not name are kept, so two benches can share one
    file or one bench can write a file from two tests
    (``bench_engine_scaling.py``'s kernel test owns the ``model_fold_kernel``
    section of ``BENCH_engine.json``).  Returns the merged document as
    written.
    """
    document = json.loads(path.read_text()) if path.exists() else {}
    document.update(sections)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document
