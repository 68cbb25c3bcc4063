"""Priors planning and prediction scanning -- reference vs engine/batched paths.

This benchmark covers the two hot paths after the model build:

* **priors planning** (Section 5.3): the reference planner's per-host dict
  loops versus :func:`repro.core.priors.build_priors_plan_with_engine`,
  which folds coverage counts over dictionary-encoded columns resident in
  an engine runtime, swept over the serial/thread/pool executors (the
  seed's columns load once per runtime, as in a GPS run; the model's side
  tables ship on every timed call);
* **prediction scanning** (Section 5.4): pair-by-pair
  :meth:`~repro.scanner.pipeline.ScanPipeline.scan_pairs` versus the batched
  *columnar* per-(prefix, port) path (flat observation columns, per-hit
  objects materialized only at the API boundary), on a realistic predictions
  workload (the most-predictive-feature index applied to first-service
  observations of the dataset's test half).

Results are printed as tables and written to ``BENCH_priors.json`` at the
repository root (``benchmarks/bench_scan_columnar.py`` adds its
columnar-vs-per-object layer breakdown to the same file).  Headline
assertions: the engine's serial priors build is >= 2x faster than the
reference planner, the batched ZMap layer is >= 1.3x faster than per-pair probing, the
columnar pipeline is >= 1.6x faster end to end than the per-object pairwise
path, and all paths produce identical plans / observations / ledger charges.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import CooccurrenceModel, build_model
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import group_pairs

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_priors.json"

#: Seed fraction for the priors workload.  Heavier than the default GPS run so
#: the reference planner takes ~100 ms -- enough work for stable timing and
#: for the per-predictor amortization the engine relies on to be visible (the
#: paper's seeds are millions of hosts; bigger is more faithful, not less).
PRIORS_SEED_FRACTION = 0.1

#: (executor, workers) sweep over the runtime executors.
SWEEP = (
    ("serial", 1),
    ("thread", 2),
    ("thread", 4),
    ("pool", 2),
)

REPEATS = 3

#: Speedup floors the benchmark asserts: (engine priors serial, batched zmap
#: layer, columnar pipeline end-to-end).  On a quiet dev machine the measured
#: ratios are ~2.4x, ~2x and ~2.2x.  ``BENCH_SMOKE=1`` (set by CI, whose
#: shared runners time noisily) relaxes the floors to "regressed to roughly
#: parity" -- a real regression (losing the algorithmic win) still fails
#: loudly, runner jitter does not.  The equivalence assertions are never
#: relaxed.
SPEEDUP_FLOORS = ((1.3, 1.05, 1.05) if os.environ.get("BENCH_SMOKE") == "1"
                  else (2.0, 1.3, 1.6))


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _observation_key(observations):
    return sorted((obs.ip, obs.port, obs.protocol,
                   tuple(sorted(obs.app_features.items())), obs.ttl)
                  for obs in observations)


def _seed_inputs(universe, dataset):
    """The priors workload's seed: object host features, columns and model."""
    split = split_seed_test(dataset, PRIORS_SEED_FRACTION, seed=0)
    asn_db = universe.topology.asn_db
    host_features = extract_host_features(split.seed_observations, asn_db,
                                          FeatureConfig())
    columns = extract_host_features_columns(split.seed_scan_result().batch,
                                            asn_db, FeatureConfig())
    return host_features, columns, build_model(host_features)


def _fresh(model):
    """A new model object over the same counts, so the resident dataset
    re-broadcasts its side tables -- once per GPS run, once per timed call."""
    return CooccurrenceModel(cooccurrence=model.cooccurrence,
                             denominators=model.denominators)


def run_priors_scaling(universe, dataset):
    """Time reference vs engine priors planning across runtime executors."""
    host_features, columns, model = _seed_inputs(universe, dataset)
    port_domain = dataset.port_domain
    reference = build_priors_plan(host_features, model, 16, port_domain)

    rows = []
    reference_seconds = _best_seconds(
        lambda: build_priors_plan(host_features, model, 16, port_domain))
    rows.append({"mode": "reference", "backend": "serial", "workers": 1,
                 "seconds": reference_seconds})
    for executor, workers in SWEEP:
        with EngineRuntime(executor=executor, num_workers=workers) as runtime:
            resident = ResidentHostGroups(runtime, columns, 16)
            plan = build_priors_plan_with_engine(columns, model, 16, port_domain,
                                                 dataset=resident)
            assert plan == reference, \
                f"engine/{executor}x{workers} priors plan diverged from the oracle"
            seconds = _best_seconds(
                lambda: build_priors_plan_with_engine(columns, _fresh(model), 16,
                                                      port_domain,
                                                      dataset=resident))
        rows.append({"mode": "engine", "backend": executor, "workers": workers,
                     "seconds": seconds})
    return {
        "seed_hosts": len(host_features),
        "predictors": model.predictor_count(),
        "plan_entries": len(reference),
        "rows": rows,
    }


def run_prediction_index(universe, dataset):
    """Time the reference vs engine Section 5.4 prediction-index build.

    Equality is asserted entry for entry (bit-identical probabilities and
    tie-breaks); the timing rows record the engine's margin on the serial
    executor without a speedup floor of their own -- the index build is an
    order of magnitude cheaper than the scans it schedules.
    """
    host_features, columns, model = _seed_inputs(universe, dataset)
    port_domain = dataset.port_domain
    reference = PredictiveFeatureIndex.from_seed(host_features, model,
                                                 port_domain=port_domain)
    with EngineRuntime(executor="serial") as runtime:
        resident = ResidentHostGroups(runtime, columns, 16)
        engine = build_prediction_index_with_engine(columns, model,
                                                    port_domain=port_domain,
                                                    dataset=resident)
        assert engine.entries() == reference.entries(), \
            "engine prediction index diverged from the from_seed oracle"
        engine_seconds = _best_seconds(
            lambda: build_prediction_index_with_engine(
                columns, _fresh(model), port_domain=port_domain,
                dataset=resident))
    reference_seconds = _best_seconds(
        lambda: PredictiveFeatureIndex.from_seed(host_features, model,
                                                 port_domain=port_domain))
    return {
        "index_entries": len(reference),
        "reference_seconds": reference_seconds,
        "engine_seconds": engine_seconds,
        "engine_speedup": round(reference_seconds / engine_seconds, 2),
    }


def run_scan_batching(universe, dataset):
    """Time pair-by-pair vs batched prediction scans on the same workload."""
    split = split_seed_test(dataset, PRIORS_SEED_FRACTION, seed=0)
    host_features = extract_host_features(split.seed_observations,
                                          universe.topology.asn_db, FeatureConfig())
    model = build_model(host_features)
    index = PredictiveFeatureIndex.from_seed(host_features, model,
                                             port_domain=dataset.port_domain)
    # The priors scan's output shape: the first observed service of every
    # not-yet-known host, from which the prediction list is derived.
    seen: set = set()
    firsts = []
    for obs in split.test_observations:
        if obs.ip not in seen:
            seen.add(obs.ip)
            firsts.append(obs)
    predictions = index.predict(firsts, universe.topology.asn_db, FeatureConfig())
    pairs = [prediction.pair() for prediction in predictions]
    batches = group_pairs(pairs, 16)

    unbatched_pipeline = ScanPipeline(universe)
    unbatched_obs = unbatched_pipeline.scan_pairs(pairs)
    batched_pipeline = ScanPipeline(universe)
    batched_obs = batched_pipeline.scan_pairs(pairs, batch_prefix_len=16)
    assert _observation_key(unbatched_obs) == _observation_key(batched_obs), \
        "batched scan observed different services than the per-pair scan"
    assert unbatched_pipeline.ledger.probes == batched_pipeline.ledger.probes
    assert unbatched_pipeline.ledger.responses == batched_pipeline.ledger.responses

    unbatched_seconds = _best_seconds(lambda: ScanPipeline(universe).scan_pairs(pairs))
    batched_seconds = _best_seconds(
        lambda: ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16))
    zmap_unbatched_seconds = _best_seconds(
        lambda: ScanPipeline(universe).zmap.scan_pairs(pairs))
    zmap_batched_seconds = _best_seconds(
        lambda: ScanPipeline(universe).zmap.scan_pair_batches(batches))
    return {
        "predictions": len(pairs),
        "batches": len(batches),
        "mean_batch_size": round(len(pairs) / max(1, len(batches)), 1),
        "responsive_targets": len(unbatched_obs),
        "unbatched_seconds": unbatched_seconds,
        "batched_seconds": batched_seconds,
        "end_to_end_speedup": round(unbatched_seconds / batched_seconds, 2),
        "zmap_unbatched_seconds": zmap_unbatched_seconds,
        "zmap_batched_seconds": zmap_batched_seconds,
        "zmap_layer_speedup": round(zmap_unbatched_seconds / zmap_batched_seconds, 2),
    }


def run_priors_and_scan_benchmark(universe, dataset):
    return {
        "scale": MEDIUM_SCALE.name,
        "priors_seed_fraction": PRIORS_SEED_FRACTION,
        "priors": run_priors_scaling(universe, dataset),
        "prediction_index": run_prediction_index(universe, dataset),
        "scan": run_scan_batching(universe, dataset),
    }


def test_priors_and_scan_scaling(run_once, universe, censys_dataset):
    results = run_once(run_priors_and_scan_benchmark, universe, censys_dataset)

    priors = results["priors"]
    by_config = {(r["mode"], r["backend"], r["workers"]): r["seconds"]
                 for r in priors["rows"]}
    reference_seconds = by_config[("reference", "serial", 1)]
    speedup = reference_seconds / by_config[("engine", "serial", 1)]
    results["priors_fused_serial_speedup"] = round(speedup, 2)
    # Read-merge-write: bench_scan_columnar.py keeps its section in the same
    # file, and running this benchmark alone must not delete it.
    try:
        merged = json.loads(RESULT_PATH.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        merged = {}
    merged.update(results)
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

    print()
    print(format_table(
        ("executor", "workers", "seconds", "vs reference"),
        [
            (backend, workers,
             f"{by_config[('engine', backend, workers)]:.4f}",
             f"{reference_seconds / by_config[('engine', backend, workers)]:.2f}x")
            for backend, workers in SWEEP
        ],
        title=(f"Priors planning: reference {reference_seconds:.4f}s vs engine "
               f"({priors['seed_hosts']} seed hosts, {priors['predictors']} predictors)"),
    ))
    index = results["prediction_index"]
    print(f"Prediction index ({index['index_entries']} entries): "
          f"reference {index['reference_seconds']:.4f}s vs engine "
          f"{index['engine_seconds']:.4f}s -- {index['engine_speedup']}x")
    scan = results["scan"]
    print(format_table(
        ("path", "pipeline (s)", "zmap layer (s)"),
        [
            ("per-pair", f"{scan['unbatched_seconds']:.4f}",
             f"{scan['zmap_unbatched_seconds']:.4f}"),
            ("batched", f"{scan['batched_seconds']:.4f}",
             f"{scan['zmap_batched_seconds']:.4f}"),
        ],
        title=(f"Prediction scan: {scan['predictions']} targets in "
               f"{scan['batches']} batches (mean {scan['mean_batch_size']}) -- "
               f"end-to-end {scan['end_to_end_speedup']}x, "
               f"zmap layer {scan['zmap_layer_speedup']}x"),
    ))
    print(f"Engine serial priors speedup: {speedup:.2f}x "
          f"(written to {RESULT_PATH.name})")

    # Headline acceptance: the engine's priors build must stay >= 2x faster
    # than the reference dict loops, the
    # batched ZMap layer must keep a clear margin over per-pair probing, and
    # the columnar scan path must keep the full pipeline >= 1.6x over the
    # per-object pairwise path (floors relaxed under BENCH_SMOKE=1 for noisy
    # CI runners).
    priors_floor, zmap_floor, pipeline_floor = SPEEDUP_FLOORS
    assert speedup >= priors_floor, \
        f"engine priors speedup regressed to {speedup:.2f}x (floor {priors_floor}x)"
    assert scan["zmap_layer_speedup"] >= zmap_floor, \
        (f"batched zmap speedup regressed to {scan['zmap_layer_speedup']:.2f}x "
         f"(floor {zmap_floor}x)")
    assert scan["end_to_end_speedup"] >= pipeline_floor, \
        (f"columnar pipeline speedup regressed to "
         f"{scan['end_to_end_speedup']:.2f}x (floor {pipeline_floor}x)")
