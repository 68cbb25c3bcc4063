"""Engine model build vs the dictionary reference.

The paper's Table 2 claims the co-occurrence computation is fast because the
self-join + group-by is embarrassingly parallel.  This benchmark keeps the
reproduction's side of that claim honest: at medium scale it times the
single-core dictionary reference (:func:`repro.core.model.build_model`)
against the engine's model build on the ``serial`` runtime executor (the
numpy fold).  The engine row pays what a GPS run pays for its model:
loading the seed's encoded columns into the runtime
(:class:`~repro.core.runtime_plans.ResidentHostGroups`) and folding the
self-join into packed counts.  The engine model decodes its
predictor-keyed dicts only when they are first read, which a GPS run never
does (its priors and index builds score the packed counts), so the timed
rows hold no decode; the equivalence checks read the dicts outside the
timed region.  The ratio is recorded without a floor, for the trend.

Results are printed as tables and written to ``BENCH_engine.json`` at the
repository root.  Every timed engine model is first checked identical to the
``build_model`` oracle; no equivalence assertion is ever relaxed.
"""

from __future__ import annotations

from pathlib import Path

from _harness import best_seconds, record

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import build_model, build_model_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

REPEATS = 3


def _model_on_engine(columns):
    """One engine model build as a GPS run pays it: resident load + fold."""
    with EngineRuntime(executor="serial") as runtime:
        dataset = ResidentHostGroups(runtime, columns, step_size=16)
        return build_model_with_engine(columns, dataset)


def run_engine_scaling(universe, dataset, seed_fraction: float):
    """Time the reference model build vs the engine's."""
    split = split_seed_test(dataset, seed_fraction, seed=0)
    asn_db = universe.topology.asn_db
    host_features = extract_host_features(split.seed_observations, asn_db,
                                          FeatureConfig())
    columns = extract_host_features_columns(split.seed_scan_result().batch,
                                            asn_db, FeatureConfig())
    reference = build_model(host_features)

    rows = [{"path": "reference", "executor": None, "column_backend": None,
             "seconds": best_seconds(lambda: build_model(host_features),
                                     REPEATS)}]
    model = _model_on_engine(columns)
    assert model.denominators == reference.denominators, \
        "engine denominators diverged from the oracle"
    assert {k: v for k, v in model.cooccurrence.items() if v} == \
        {k: v for k, v in reference.cooccurrence.items() if v}, \
        "engine co-occurrence diverged from the oracle"
    rows.append({"path": "engine", "executor": "serial",
                 "column_backend": "numpy",
                 "seconds": best_seconds(lambda: _model_on_engine(columns),
                                         REPEATS)})
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
    record(RESULT_PATH, results)

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
