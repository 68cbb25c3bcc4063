"""Columnar seed ingest vs the object path -- dataset build + feature extraction.

Every Table 2 "computation" query runs on encoded columns, but the
*input* path once materialized one ``ScanObservation`` (plus a banner-dict
copy) per service and re-scanned every banner mapping per observation during
feature extraction.  This benchmark times the retired object path against the
columnar ingest that replaced it:

* **object path** -- build the ground-truth dataset as object rows (the
  historical ``_observation_from_record`` loop, copying each record's banner
  dict) and run ``extract_host_features`` over the rows;
* **columnar path** -- fold the universe's records straight into
  ``ObservationBatch`` columns (``build_full_dataset``; one identity-cached
  banner-id lookup per service, no copies) and run
  ``extract_host_features_columns`` over the columns (banner scans memoized
  per interned banner id, encoded predictor runs memoized per
  (port, banner, network) combination).

Results are printed and written to ``BENCH_dataset.json`` at the repository
root.  Headline assertion: columnar dataset build + feature extraction is
>= 1.5x the object path end to end (relaxed to 1.2x under ``BENCH_SMOKE=1``
for shared-runner jitter).  A second test times the engine's model build on
the serial runtime (resident load + fold) with the stdlib per-row fold
against the vectorized numpy kernels over the same column buffers
(``column_backend="numpy"``); floor >= 2x.  The equivalence assertions --
columnar rows == object rows, decoded predictor runs == the object
extraction's tuples, engine model off the columns == the oracle model,
numpy model == stdlib model -- are never relaxed.
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
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.builders import _observation_from_record, build_full_dataset
from repro.engine.columns import numpy_available
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataset.json"

REPEATS = 3

#: Headline floor: the columnar ingest must beat the object path end to end.
#: Measured locally the ratio is well above 2x (no per-service object or
#: banner copy, one banner scan per distinct banner instead of per service);
#: 1.5x is the acceptance floor, relaxed for CI runner jitter only.
DATASET_FLOOR = 1.5
SMOKE_FLOOR = 1.2

#: The numpy fold kernels must beat the stdlib per-row fold >= 2x on the
#: serial engine model build (relaxed under smoke for runner jitter).
MODEL_FOLD_FLOOR = 2.0 if os.environ.get("BENCH_SMOKE") != "1" else 1.5


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _merge_results(update: dict) -> None:
    """Merge a section into BENCH_dataset.json without clobbering siblings."""
    results = {}
    if RESULT_PATH.exists():
        results = json.loads(RESULT_PATH.read_text())
    results.update(update)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _model_on_engine(columns, column_backend: str = "stdlib"):
    """The engine's model build on the serial runtime: resident load + fold."""
    with EngineRuntime(executor="serial") as runtime:
        resident = ResidentHostGroups(runtime, columns, 16)
        return build_model_with_engine(columns, resident,
                                       column_backend=column_backend)


def _object_path(universe, asn_db, config):
    """The retired ingest: object rows with banner-dict copies, then the
    per-observation object extraction."""
    observations = [_observation_from_record(record)
                    for record in universe.real_services()]
    return extract_host_features(observations, asn_db, config)


def _columnar_path(universe, asn_db, config):
    """The columnar ingest: records -> ObservationBatch columns -> encoded
    host/service/predictor columns."""
    dataset = build_full_dataset(universe)
    return extract_host_features_columns(dataset.columns(), asn_db, config)


def run_dataset_benchmark(universe):
    config = FeatureConfig()
    asn_db = universe.topology.asn_db

    # Equivalence first; never relaxed.
    oracle = _object_path(universe, asn_db, config)
    columns = _columnar_path(universe, asn_db, config)
    dataset = build_full_dataset(universe)
    object_rows = [_observation_from_record(record)
                   for record in universe.real_services()]
    assert dataset.observations == object_rows, \
        "columnar dataset rows diverged from the object builder"
    assert columns.ips == list(oracle), \
        "columnar extraction visits different hosts than the object path"
    for g in range(0, len(columns), max(1, len(columns) // 200)):
        host = oracle[columns.ips[g]]
        decoded = columns.predictors_for(g)
        assert list(decoded) == host.open_ports()
        assert decoded == host.ports, \
            "columnar predictor tuples diverged from the object extraction"
    reference = build_model(oracle)
    engine = _model_on_engine(columns)
    assert engine.denominators == reference.denominators, \
        "engine model off the columns diverged from the oracle"
    assert {k: v for k, v in engine.cooccurrence.items() if v} == \
        {k: v for k, v in reference.cooccurrence.items() if v}, \
        "engine co-occurrence off the columns diverged from the oracle"

    object_seconds = _best_seconds(lambda: _object_path(universe, asn_db, config))
    columnar_seconds = _best_seconds(
        lambda: _columnar_path(universe, asn_db, config))

    return {
        "scale": MEDIUM_SCALE.name,
        "hosts": len(columns),
        "services": columns.service_count(),
        "predictor_refs": len(columns.value_ids),
        "distinct_predictors": len(columns.encoder),
        "equivalence": ("columnar rows == object rows; decoded predictor runs "
                        "== object extraction; engine model off columns == "
                        "oracle model"),
        "rows": [
            {"path": "object (rows + extract_host_features)",
             "seconds": object_seconds},
            {"path": "columnar (columns + extract_host_features_columns)",
             "seconds": columnar_seconds},
        ],
    }


def test_dataset_columnar_ingest_vs_object_path(run_once, universe):
    results = run_once(run_dataset_benchmark, universe)

    seconds = {row["path"]: row["seconds"] for row in results["rows"]}
    object_seconds = seconds["object (rows + extract_host_features)"]
    columnar_seconds = seconds["columnar (columns + extract_host_features_columns)"]
    speedup = object_seconds / columnar_seconds
    results["columnar_vs_object_speedup"] = round(speedup, 2)
    _merge_results(results)

    print()
    print(format_table(
        ("path", "seconds", "speedup"),
        [(row["path"], f"{row['seconds']:.4f}",
          f"{object_seconds / row['seconds']:.2f}x")
         for row in results["rows"]],
        title=(f"Seed ingest ({results['hosts']} hosts, "
               f"{results['services']} services, "
               f"{results['predictor_refs']} predictor refs)"),
    ))
    print(f"Columnar ingest vs object path: {speedup:.2f}x "
          f"(written to {RESULT_PATH.name})")

    floor = SMOKE_FLOOR if os.environ.get("BENCH_SMOKE") == "1" else DATASET_FLOOR
    assert speedup >= floor, \
        (f"columnar ingest only {speedup:.2f}x over the object path "
         f"(floor {floor}x)")


# -- model fold: stdlib per-row vs numpy kernels ------------------------------------


def run_model_fold_benchmark(universe):
    """Time the serial engine model build, stdlib fold vs numpy kernels.

    Same encoded columns in, same model out; the only difference is the
    fold: the stdlib backend streams the shard's self-join row by row
    through ``count_join_chunk``, the numpy backend folds the raw int64
    buffers through ``fold_model_pairs_arrays`` (no per-row loop).  Model
    equality is asserted before timing, never relaxed.
    """
    config = FeatureConfig()
    asn_db = universe.topology.asn_db
    dataset = build_full_dataset(universe)
    columns = extract_host_features_columns(dataset.columns(), asn_db, config)

    stdlib_model = _model_on_engine(columns, "stdlib")
    numpy_model = _model_on_engine(columns, "numpy")
    assert numpy_model.denominators == stdlib_model.denominators, \
        "numpy model denominators diverged from the stdlib fold"
    assert numpy_model.cooccurrence == stdlib_model.cooccurrence, \
        "numpy model co-occurrence diverged from the stdlib fold"

    per_row_seconds = _best_seconds(lambda: _model_on_engine(columns, "stdlib"))
    bulk_seconds = _best_seconds(lambda: _model_on_engine(columns, "numpy"))
    return {
        "hosts": len(columns),
        "predictor_refs": len(columns.value_ids),
        "equivalence": "numpy-backend model == stdlib-backend model",
        "per_row_seconds": per_row_seconds,
        "bulk_seconds": bulk_seconds,
    }


def test_model_fold_stdlib_vs_numpy(run_once, universe):
    if not numpy_available():
        pytest.skip("numpy backend unavailable; the stdlib path is covered "
                    "by the ingest test above")
    results = run_once(run_model_fold_benchmark, universe)
    speedup = results["per_row_seconds"] / results["bulk_seconds"]
    results["speedup"] = round(speedup, 2)
    results["floor"] = MODEL_FOLD_FLOOR
    _merge_results({"model_fold": results})

    print()
    print(format_table(
        ("backend", "seconds", "speedup"),
        [("stdlib (per-row fold)", f"{results['per_row_seconds']:.4f}", "1.00x"),
         ("numpy (bulk kernels)", f"{results['bulk_seconds']:.4f}",
          f"{speedup:.2f}x")],
        title=(f"Serial engine model build ({results['hosts']} hosts, "
               f"{results['predictor_refs']} predictor refs)"),
    ))
    print(f"numpy fold kernels vs stdlib per-row: {speedup:.2f}x "
          f"(floor {MODEL_FOLD_FLOOR}x, written to {RESULT_PATH.name})")
    assert speedup >= MODEL_FOLD_FLOOR, \
        (f"numpy fold kernels only {speedup:.2f}x over the stdlib fold "
         f"(floor {MODEL_FOLD_FLOOR}x)")
