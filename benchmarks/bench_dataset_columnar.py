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
root, each asserted floor beside its ratio.  Headline assertion: columnar dataset build + feature extraction is
>= 1.5x the object path end to end (relaxed to 1.2x under ``BENCH_SMOKE=1``
for shared-runner jitter).  The equivalence assertions -- columnar rows ==
object rows, decoded predictor runs == the object extraction's tuples,
engine model off the columns == the oracle model -- are never relaxed.
"""

from __future__ import annotations

from pathlib import Path

from _harness import SMOKE, best_seconds, record

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import build_model, build_model_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.builders import _observation_from_record, build_full_dataset
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataset.json"

REPEATS = 3

#: Headline floor: the columnar ingest must beat the object path end to end.
#: Measured locally the ratio is well above 2x (no per-service object or
#: banner copy, one banner scan per distinct banner instead of per service);
#: 1.5x is the acceptance floor, relaxed for CI runner jitter only.
DATASET_FLOOR = 1.2 if SMOKE else 1.5


def _model_on_engine(columns):
    """The engine's model build on the serial runtime: resident load + fold."""
    with EngineRuntime(executor="serial") as runtime:
        resident = ResidentHostGroups(runtime, columns, 16)
        return build_model_with_engine(columns, resident)


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

    object_seconds = best_seconds(
        lambda: _object_path(universe, asn_db, config), REPEATS)
    columnar_seconds = best_seconds(
        lambda: _columnar_path(universe, asn_db, config), REPEATS)

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
    results["columnar_vs_object_floor"] = DATASET_FLOOR
    record(RESULT_PATH, results)

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
          f"(floor {DATASET_FLOOR}x, written to {RESULT_PATH.name})")

    assert speedup >= DATASET_FLOOR, \
        (f"columnar ingest only {speedup:.2f}x over the object path "
         f"(floor {DATASET_FLOOR}x)")
