"""Engine model build vs the dictionary reference, plus the fold kernels.

The paper's Table 2 claims the co-occurrence computation is fast because the
self-join + group-by is embarrassingly parallel.  This benchmark keeps the
reproduction's side of that claim honest: at medium scale it times the
single-core dictionary reference (:func:`repro.core.model.build_model`)
against the engine's model build on the ``serial`` runtime executor with
both column backends.  Each engine row pays what a GPS run pays for its
model: loading the seed's encoded columns into the runtime
(:class:`~repro.core.runtime_plans.ResidentHostGroups`) and folding the
self-join.  The ratios are recorded without a floor: at this scale the
stdlib fold is slower than the reference, and that is the number.

Two further tests cover the machine-native column kernels:

* ``test_model_fold_kernel_bulk_vs_per_row`` -- the model-pairs fold alone
  (packed counts, no decode), per-row stdlib vs the vectorized numpy kernel
  over the same resident column buffers; floor >= 2x.
* ``test_thread_fold_beats_serial`` -- the same vectorized fold dispatched
  across resident shards on the ``thread`` executor vs ``serial``.  numpy's
  sorts release the GIL, so with >= 2 cores threads genuinely overlap; the
  >= 1.3x floor is asserted whenever the machine has >= 2 cores (CI smoke
  runners do) and recorded without asserting on single-core boxes, where
  beating serial is physically impossible.

Results are printed as tables and written to ``BENCH_engine.json`` at the
repository root.  Every timed engine model is first checked identical to the
``build_model`` oracle; no equivalence assertion is ever relaxed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import build_model, build_model_with_engine
from repro.core.runtime_plans import ResidentHostGroups, merge_counters
from repro.datasets.builders import build_full_dataset
from repro.datasets.split import split_seed_test
from repro.engine.columns import numpy_available
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

REPEATS = 3

#: The vectorized model fold must beat the per-row fold on the same buffers.
KERNEL_FLOOR = 2.0 if os.environ.get("BENCH_SMOKE") != "1" else 1.5

#: Thread executor over GIL-releasing kernels vs serial; only meaningful
#: (and only asserted) with >= 2 cores.
THREAD_FLOOR = 1.3

#: Shards/workers for the thread-vs-serial fold.
THREAD_WORKERS = 4


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _merge_results(update: dict) -> None:
    """Merge a section into BENCH_engine.json without clobbering siblings."""
    results = {}
    if RESULT_PATH.exists():
        results = json.loads(RESULT_PATH.read_text())
    results.update(update)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _model_on_engine(columns, column_backend: str):
    """One engine model build as a GPS run pays it: resident load + fold."""
    with EngineRuntime(executor="serial") as runtime:
        dataset = ResidentHostGroups(runtime, columns, step_size=16)
        return build_model_with_engine(columns, dataset,
                                       column_backend=column_backend)


def run_engine_scaling(universe, dataset, seed_fraction: float):
    """Time the reference model build vs the engine on each column backend."""
    split = split_seed_test(dataset, seed_fraction, seed=0)
    asn_db = universe.topology.asn_db
    host_features = extract_host_features(split.seed_observations, asn_db,
                                          FeatureConfig())
    columns = extract_host_features_columns(split.seed_scan_result().batch,
                                            asn_db, FeatureConfig())
    reference = build_model(host_features)

    rows = [{"path": "reference", "executor": None, "column_backend": None,
             "seconds": _best_seconds(lambda: build_model(host_features))}]
    backends = ("stdlib", "numpy") if numpy_available() else ("stdlib",)
    for backend in backends:
        model = _model_on_engine(columns, backend)
        assert model.denominators == reference.denominators, \
            f"engine/{backend} denominators diverged from the oracle"
        assert {k: v for k, v in model.cooccurrence.items() if v} == \
            {k: v for k, v in reference.cooccurrence.items() if v}, \
            f"engine/{backend} co-occurrence diverged from the oracle"
        rows.append({"path": "engine", "executor": "serial",
                     "column_backend": backend,
                     "seconds": _best_seconds(
                         lambda: _model_on_engine(columns, backend))})
    return {
        "scale": MEDIUM_SCALE.name,
        "seed_hosts": len(host_features),
        "predictors": reference.predictor_count(),
        "rows": rows,
    }


def test_model_build_engine_vs_reference(run_once, universe, censys_dataset, scale):
    results = run_once(run_engine_scaling, universe, censys_dataset,
                       scale.default_seed_fraction)

    reference_seconds = results["rows"][0]["seconds"]
    engine_rows = results["rows"][1:]
    # Recorded, never asserted: at this scale the engine's load + fold sits
    # near or below the reference, and the ratio tracks that honestly.
    results["engine_vs_reference"] = {
        row["column_backend"]: round(reference_seconds / row["seconds"], 2)
        for row in engine_rows
    }
    _merge_results(results)

    print()
    print(format_table(
        ("path", "column backend", "seconds", "vs reference"),
        [("reference (build_model)", "-", f"{reference_seconds:.4f}", "1.00x")]
        + [(f"engine ({row['executor']})", row["column_backend"],
            f"{row['seconds']:.4f}",
            f"{reference_seconds / row['seconds']:.2f}x")
           for row in engine_rows],
        title="Model build: dictionary reference vs engine (resident load + fold)",
    ))
    print(f"Seed hosts: {results['seed_hosts']}; distinct predictors: "
          f"{results['predictors']} (written to {RESULT_PATH.name})")


# -- machine-native fold kernels ----------------------------------------------------


def _full_scale_columns(universe):
    """Encoded host/service/predictor columns for the full medium universe.

    The fold-kernel measurements use the full dataset (12K hosts, ~630K
    predictor refs) rather than the seed split: the kernels are the
    per-element story, so they are timed where the element count is large
    enough that setup noise disappears.
    """
    dataset = build_full_dataset(universe)
    return extract_host_features_columns(dataset.columns(),
                                         universe.topology.asn_db,
                                         FeatureConfig())


def _resident_groups(universe, columns, executor: str, workers: int):
    runtime = EngineRuntime(executor=executor, num_workers=workers,
                            shard_count=workers)
    return runtime, ResidentHostGroups(runtime, columns, step_size=16)


def run_model_fold_kernel(universe):
    """Time the packed model-pairs fold: per-row stdlib vs the numpy kernel.

    Both variants run against the same worker-resident column buffers
    through ``EngineRuntime.execute`` on the serial executor (one shard), so
    the measured region is exactly the fold: per-row ``count_join_chunk``
    over the derived self-join payload versus ``fold_model_pairs_arrays``
    over the raw buffers.  Equivalence of the packed counts is asserted
    before timing and never relaxed.
    """
    columns = _full_scale_columns(universe)
    runtime, resident = _resident_groups(universe, columns, "serial", 1)
    try:
        per_row = merge_counters(runtime.execute("model_pairs", resident.key))
        keys, counts = runtime.execute("model_pairs", resident.key,
                                       [("numpy",)])[0]
        bulk = dict(zip(keys.tolist(), counts.tolist()))
        assert bulk == dict(per_row), \
            "vectorized model-pairs fold diverged from the per-row fold"

        per_row_seconds = _best_seconds(
            lambda: runtime.execute("model_pairs", resident.key))
        bulk_seconds = _best_seconds(
            lambda: runtime.execute("model_pairs", resident.key, [("numpy",)]))
    finally:
        resident.release()
        runtime.close()
    return {
        "hosts": len(columns),
        "predictor_refs": len(columns.value_ids),
        "packed_pairs": len(bulk),
        "equivalence": "numpy packed counts == per-row packed counts",
        "per_row_seconds": per_row_seconds,
        "bulk_seconds": bulk_seconds,
    }


def test_model_fold_kernel_bulk_vs_per_row(run_once, universe):
    if not numpy_available():
        pytest.skip("numpy backend unavailable; the stdlib fold is still "
                    "covered by the reference comparison above")
    results = run_once(run_model_fold_kernel, universe)
    speedup = results["per_row_seconds"] / results["bulk_seconds"]
    results["speedup"] = round(speedup, 2)
    results["floor"] = KERNEL_FLOOR
    _merge_results({"model_fold_kernel": results})

    print()
    print(format_table(
        ("kernel", "seconds", "speedup"),
        [("per-row (count_join_chunk)", f"{results['per_row_seconds']:.4f}", "1.00x"),
         ("bulk (fold_model_pairs_arrays)", f"{results['bulk_seconds']:.4f}",
          f"{speedup:.2f}x")],
        title=(f"Model-pairs fold kernel ({results['hosts']} hosts, "
               f"{results['predictor_refs']} predictor refs)"),
    ))
    print(f"Bulk fold kernel vs per-row: {speedup:.2f}x "
          f"(floor {KERNEL_FLOOR}x, written to {RESULT_PATH.name})")
    assert speedup >= KERNEL_FLOOR, \
        f"bulk fold kernel only {speedup:.2f}x over per-row (floor {KERNEL_FLOOR}x)"


def run_thread_fold(universe):
    """Time the vectorized model fold on thread vs serial resident runtimes.

    Every shard's fold sorts int64 buffers inside numpy (GIL released), so
    the thread executor's workers genuinely overlap -- the first fold in
    this repo where ``thread`` can beat ``serial``.
    """
    columns = _full_scale_columns(universe)
    timings = {}
    counts = {}
    for executor in ("serial", "thread"):
        runtime, resident = _resident_groups(universe, columns, executor,
                                             THREAD_WORKERS)
        try:
            args = [("numpy",)] * runtime.shard_count
            first = runtime.execute("model_pairs", resident.key, args)
            counts[executor] = merge_counters(
                dict(zip(keys.tolist(), cnts.tolist())) for keys, cnts in first)
            timings[executor] = _best_seconds(
                lambda: runtime.execute("model_pairs", resident.key, args))
        finally:
            resident.release()
            runtime.close()
    assert counts["thread"] == counts["serial"], \
        "thread-executor fold diverged from the serial fold"
    return {
        "hosts": len(columns),
        "predictor_refs": len(columns.value_ids),
        "workers": THREAD_WORKERS,
        "cpu_count": os.cpu_count(),
        "equivalence": "thread merged packed counts == serial merged packed counts",
        "serial_seconds": timings["serial"],
        "thread_seconds": timings["thread"],
    }


def test_thread_fold_beats_serial(run_once, universe):
    if not numpy_available():
        pytest.skip("numpy backend unavailable; the GIL-releasing fold needs it")
    results = run_once(run_thread_fold, universe)
    speedup = results["serial_seconds"] / results["thread_seconds"]
    asserted = (os.cpu_count() or 1) >= 2
    results["speedup"] = round(speedup, 2)
    results["floor"] = THREAD_FLOOR
    results["floor_asserted"] = asserted
    _merge_results({"thread_fold": results})

    print()
    print(format_table(
        ("executor", "seconds", "speedup"),
        [("serial", f"{results['serial_seconds']:.4f}", "1.00x"),
         (f"thread x{THREAD_WORKERS}", f"{results['thread_seconds']:.4f}",
          f"{speedup:.2f}x")],
        title=(f"Vectorized model fold, resident shards "
               f"({results['hosts']} hosts, {os.cpu_count()} cores)"),
    ))
    print(f"Thread fold vs serial: {speedup:.2f}x (floor {THREAD_FLOOR}x, "
          f"{'asserted' if asserted else 'recorded only: single-core machine'}, "
          f"written to {RESULT_PATH.name})")
    if asserted:
        assert speedup >= THREAD_FLOOR, \
            (f"thread fold only {speedup:.2f}x over serial on a "
             f"{os.cpu_count()}-core machine (floor {THREAD_FLOOR}x)")
