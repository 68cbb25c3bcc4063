"""Priors planning and prediction scanning -- reference vs engine/batched paths.

This benchmark covers the two hot paths after the model build:

* **priors planning** (Section 5.3): the reference planner's per-host dict
  loops versus :func:`repro.core.priors.build_priors_plan_with_engine`,
  which selects partners by numpy segment reductions over one
  candidate table (every service against its host's other predictor ids)
  and folds coverage counts, on dictionary-encoded columns resident in an
  engine runtime (the seed's
  columns load once per runtime, as in a GPS run; every timed call takes a
  fresh dict model, so its counts are packed from the dicts, loaded and
  reduced anew);
* **prediction scanning** (Section 5.4): pair-by-pair
  :meth:`~repro.scanner.pipeline.ScanPipeline.scan_pairs` versus the batched
  pass, which resolves every target against the universe's packed service
  index in array passes (flat observation columns, per-hit objects
  materialized only at the API boundary), on a realistic predictions
  workload (the most-predictive-feature index applied to first-service
  observations of the dataset's test half).

Results are printed as tables and written to ``BENCH_priors.json`` at the
repository root, each asserted floor beside its ratio.  Headline
assertions: the engine's serial priors build is >= 2x faster than the
reference planner, the batched pass's ZMap step
(``zmap.scan_pair_columns``: the packed lookup plus its ledger charge) is
>= 1.3x faster than per-pair probing with ``zmap.scan_pairs``, the batched
pipeline is >= 1.6x faster end to end than the per-pair path, and all
paths produce identical plans / observations / ledger charges.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from _harness import SMOKE, best_seconds, record

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
from repro.scanner.records import group_order, group_pairs

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_priors.json"

#: Seed fraction for the priors workload.  Heavier than the default GPS run so
#: the reference planner takes ~100 ms -- enough work for stable timing and
#: for the per-predictor amortization the engine relies on to be visible (the
#: paper's seeds are millions of hosts; bigger is more faithful, not less).
PRIORS_SEED_FRACTION = 0.1

#: The runtime executors the engine priors build is timed on.
SWEEP = ("serial",)

REPEATS = 3

#: Speedup floors the benchmark asserts: (engine priors serial, the batched
#: pass's ZMap step, the batched pipeline end-to-end).  On a 2-vCPU VM the
#: measured ratios are ~2.6x, ~10x and ~14x.  ``BENCH_SMOKE=1`` (set by CI, whose
#: shared runners time noisily) relaxes the floors to "regressed to roughly
#: parity" -- a real regression (losing the algorithmic win) still fails
#: loudly, runner jitter does not.  The equivalence assertions are never
#: relaxed.
SPEEDUP_FLOORS = (1.3, 1.05, 1.05) if SMOKE else (2.0, 1.3, 1.6)


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
    """A new model object over the same counts, so the resident dataset packs
    its score tables from the dicts and reloads them on every timed
    call.  A GPS run loads them once per run, and its engine-built model
    hands over the model fold's packed counts without this packing."""
    return CooccurrenceModel(cooccurrence=model.cooccurrence,
                             denominators=model.denominators)


def run_priors_scaling(universe, dataset):
    """Time reference vs engine priors planning across runtime executors."""
    host_features, columns, model = _seed_inputs(universe, dataset)
    port_domain = dataset.port_domain
    reference = build_priors_plan(host_features, model, 16, port_domain)

    rows = []
    reference_seconds = best_seconds(
        lambda: build_priors_plan(host_features, model, 16, port_domain),
        REPEATS)
    rows.append({"mode": "reference", "backend": "serial",
                 "seconds": reference_seconds})
    for executor in SWEEP:
        with EngineRuntime(executor=executor) as runtime:
            resident = ResidentHostGroups(runtime, columns, 16)
            plan = build_priors_plan_with_engine(columns, model, 16, port_domain,
                                                 dataset=resident)
            assert plan == reference, \
                f"engine/{executor} priors plan diverged from the oracle"
            seconds = best_seconds(
                lambda: build_priors_plan_with_engine(columns, _fresh(model), 16,
                                                      port_domain,
                                                      dataset=resident),
                REPEATS)
        rows.append({"mode": "engine", "backend": executor,
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
        engine_seconds = best_seconds(
            lambda: build_prediction_index_with_engine(
                columns, _fresh(model), port_domain=port_domain,
                dataset=resident),
            REPEATS)
    reference_seconds = best_seconds(
        lambda: PredictiveFeatureIndex.from_seed(host_features, model,
                                                 port_domain=port_domain),
        REPEATS)
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
    # The ZMap step's input: the targets as columns, in batch order.
    ips = np.array([ip for ip, _ in pairs], dtype=np.int64)
    ports = np.array([port for _, port in pairs], dtype=np.int64)
    order = group_order(ips, ports, 16)
    ips, ports = ips[order], ports[order]

    unbatched_pipeline = ScanPipeline(universe)
    unbatched_obs = unbatched_pipeline.scan_pairs(pairs)
    batched_pipeline = ScanPipeline(universe)
    batched_obs = batched_pipeline.scan_pairs(pairs, batch_prefix_len=16)
    assert _observation_key(unbatched_obs) == _observation_key(batched_obs), \
        "batched scan observed different services than the per-pair scan"
    assert unbatched_pipeline.ledger.probes == batched_pipeline.ledger.probes
    assert unbatched_pipeline.ledger.responses == batched_pipeline.ledger.responses

    unbatched_seconds = best_seconds(
        lambda: ScanPipeline(universe).scan_pairs(pairs), REPEATS)
    batched_seconds = best_seconds(
        lambda: ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16),
        REPEATS)
    zmap_unbatched_seconds = best_seconds(
        lambda: ScanPipeline(universe).zmap.scan_pairs(pairs), REPEATS)
    zmap_batched_seconds = best_seconds(
        lambda: ScanPipeline(universe).zmap.scan_pair_columns(ips, ports),
        REPEATS)
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
    by_config = {(r["mode"], r["backend"]): r["seconds"]
                 for r in priors["rows"]}
    reference_seconds = by_config[("reference", "serial")]
    speedup = reference_seconds / by_config[("engine", "serial")]
    priors_floor, zmap_floor, pipeline_floor = SPEEDUP_FLOORS
    scan = results["scan"]
    results["priors_fused_serial_speedup"] = round(speedup, 2)
    results["priors_fused_serial_floor"] = priors_floor
    scan["end_to_end_floor"] = pipeline_floor
    scan["zmap_layer_floor"] = zmap_floor
    record(RESULT_PATH, results)

    print()
    print(format_table(
        ("executor", "seconds", "vs reference"),
        [
            (backend,
             f"{by_config[('engine', backend)]:.4f}",
             f"{reference_seconds / by_config[('engine', backend)]:.2f}x")
            for backend in SWEEP
        ],
        title=(f"Priors planning: reference {reference_seconds:.4f}s vs engine "
               f"({priors['seed_hosts']} seed hosts, {priors['predictors']} predictors)"),
    ))
    index = results["prediction_index"]
    print(f"Prediction index ({index['index_entries']} entries): "
          f"reference {index['reference_seconds']:.4f}s vs engine "
          f"{index['engine_seconds']:.4f}s -- {index['engine_speedup']}x")
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
    # than the reference dict loops, the batched pass's ZMap step (packed
    # lookup plus ledger charge) must keep a clear margin over per-pair
    # probing, and the batched pass must keep the full pipeline >= 1.6x over
    # the per-object pairwise path (floors relaxed under BENCH_SMOKE=1 for
    # noisy CI runners).
    assert speedup >= priors_floor, \
        f"engine priors speedup regressed to {speedup:.2f}x (floor {priors_floor}x)"
    assert scan["zmap_layer_speedup"] >= zmap_floor, \
        (f"batched zmap step speedup regressed to {scan['zmap_layer_speedup']:.2f}x "
         f"(floor {zmap_floor}x)")
    assert scan["end_to_end_speedup"] >= pipeline_floor, \
        (f"columnar pipeline speedup regressed to "
         f"{scan['end_to_end_speedup']:.2f}x (floor {pipeline_floor}x)")
