"""Persistent runtime: the warm resident pool vs the serial executor.

This benchmark times the engine's model build (the heaviest Table 2
"computation" query) against data already resident in an
:class:`~repro.engine.runtime.EngineRuntime`, two ways:

* **serial** -- the ``serial`` executor: every shard folds in the caller's
  thread;
* **warm pool** -- the ``pool`` executor, whose worker processes were
  started once and hold the
  :class:`~repro.core.runtime_plans.ResidentHostGroups` shards resident:
  each call ships only the plan.

It also times the one-off pool start-up (spawn + data load) and the warm
resident priors / prediction-index builds, and asserts that all three
engine builds are bit-identical under ``executor="pool"`` vs ``serial``
and to the dictionary reference.

Results are printed as a table and written to ``BENCH_runtime.json`` at the
repository root.  ``warm_vs_serial`` is recorded without a floor: on small
machines the pool does not beat serial at this scale, and that is the
number.  The equivalence assertions are never relaxed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import build_model, build_model_with_engine
from repro.core.predictions import build_prediction_index_with_engine
from repro.core.priors import build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

#: Seed fraction matching bench_priors_scaling.py's heavier workload: enough
#: hosts that a model build is real work, small enough to stay interactive.
SEED_FRACTION = 0.1

#: Pool size for the warm runtime.
WORKERS = 2

REPEATS = 3


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_model_equal(candidate, reference, label):
    assert candidate.denominators == reference.denominators, \
        f"{label} denominators diverged from the oracle"
    assert {k: v for k, v in candidate.cooccurrence.items() if v} == \
        {k: v for k, v in reference.cooccurrence.items() if v}, \
        f"{label} co-occurrence diverged from the oracle"


def run_runtime_benchmark(universe, dataset):
    """Time serial vs warm-pool execution of the engine's builds."""
    split = split_seed_test(dataset, SEED_FRACTION, seed=0)
    asn_db = universe.topology.asn_db
    host_features = extract_host_features(split.seed_observations, asn_db,
                                          FeatureConfig())
    columns = extract_host_features_columns(split.seed_scan_result().batch,
                                            asn_db, FeatureConfig())
    reference = build_model(host_features)
    port_domain = dataset.port_domain

    serial_runtime = EngineRuntime(executor="serial")
    serial_resident = ResidentHostGroups(serial_runtime, columns, 16)
    serial_model = build_model_with_engine(columns, serial_resident)
    serial_priors = build_priors_plan_with_engine(columns, serial_model, 16,
                                                  port_domain,
                                                  dataset=serial_resident)
    serial_index = build_prediction_index_with_engine(columns, serial_model,
                                                      port_domain=port_domain,
                                                      dataset=serial_resident)
    _assert_model_equal(serial_model, reference, "engine serial")

    start = time.perf_counter()
    runtime = EngineRuntime(executor="pool", num_workers=WORKERS)
    resident = ResidentHostGroups(runtime, columns, 16)
    pool_model = build_model_with_engine(columns, resident)
    startup_seconds = time.perf_counter() - start

    # Equivalence first (the acceptance criterion): every engine build under
    # executor="pool" must match its serial twin bit for bit.
    _assert_model_equal(pool_model, serial_model, "pool resident")
    pool_priors = build_priors_plan_with_engine(columns, pool_model, 16,
                                                port_domain, dataset=resident)
    assert pool_priors == serial_priors, \
        "pool priors plan diverged from the serial engine plan"
    pool_index = build_prediction_index_with_engine(columns, pool_model,
                                                    port_domain=port_domain,
                                                    dataset=resident)
    assert pool_index.entries() == serial_index.entries(), \
        "pool prediction index diverged from the serial engine index"

    # Timings: both executors fold data already resident in the runtime.
    serial_seconds = _best_seconds(
        lambda: build_model_with_engine(columns, serial_resident))
    warm_seconds = _best_seconds(lambda: build_model_with_engine(columns, resident))
    warm_priors_seconds = _best_seconds(
        lambda: build_priors_plan_with_engine(columns, pool_model, 16,
                                              port_domain, dataset=resident))
    warm_index_seconds = _best_seconds(
        lambda: build_prediction_index_with_engine(columns, pool_model,
                                                   port_domain=port_domain,
                                                   dataset=resident))
    resident.release()
    runtime.close()
    serial_resident.release()
    serial_runtime.close()

    return {
        "scale": MEDIUM_SCALE.name,
        "seed_fraction": SEED_FRACTION,
        "seed_hosts": len(host_features),
        "predictors": reference.predictor_count(),
        "workers": WORKERS,
        "equivalence": ("pool == serial == reference for model, priors plan "
                        "and prediction index"),
        "runtime_startup_seconds": startup_seconds,
        "rows": [
            {"path": "model serial (resident shards)", "seconds": serial_seconds},
            {"path": "model warm pool (resident shards)", "seconds": warm_seconds},
            {"path": "priors warm pool (resident shards)",
             "seconds": warm_priors_seconds},
            {"path": "prediction index warm pool (resident shards)",
             "seconds": warm_index_seconds},
        ],
    }


def test_runtime_warm_pool_vs_serial(run_once, universe, censys_dataset):
    results = run_once(run_runtime_benchmark, universe, censys_dataset)

    seconds = {row["path"]: row["seconds"] for row in results["rows"]}
    serial = seconds["model serial (resident shards)"]
    warm = seconds["model warm pool (resident shards)"]
    results["warm_vs_serial"] = round(serial / warm, 2)
    # Merge over the existing file: the "recovery" section is owned by
    # bench_runtime_recovery.py and must survive a rerun of this benchmark.
    if RESULT_PATH.exists():
        merged = json.loads(RESULT_PATH.read_text())
        merged.update(results)
        results = merged
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print()
    print(format_table(
        ("path", "seconds", "vs serial model"),
        [(row["path"], f"{row['seconds']:.4f}",
          f"{serial / row['seconds']:.2f}x")
         for row in results["rows"]],
        title=(f"Persistent runtime ({results['seed_hosts']} seed hosts, "
               f"{results['predictors']} predictors, {WORKERS} workers; "
               f"one-off start-up {results['runtime_startup_seconds']:.3f}s)"),
    ))
    print(f"Warm pool vs serial (recorded, no floor): {serial / warm:.2f}x "
          f"(written to {RESULT_PATH.name})")
