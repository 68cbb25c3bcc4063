"""Warm restart from a snapshot vs full rebuild -- the persistence story.

``BENCH_runtime.json`` showed that keeping a pool and its shards warm beats
re-spawning per call; this benchmark measures the other half of Section 6.5's
"reuse an existing seed scan" deployment mode: a process that *restarts* and
wants the Table 2 artifacts back.  Three comparisons:

* **warm restart vs full build** -- ``open_snapshot`` + materializing the
  model, priors plan and prediction index + a first lookup, against the full
  cold path (encode the seed observations, extract host features, run all
  three engine builds, first lookup).  The snapshot pays one sequential crc32
  pass plus dict reconstruction from mapped int64 columns; the rebuild pays
  the flatten and three folds.  Headline floor: >= 5x.
* **mmap shard load vs queue-ship** -- making the host-group relation
  resident in a warm pool from snapshot file references
  (:meth:`~repro.core.runtime_plans.ResidentHostGroups.from_snapshot`,
  workers ``mmap`` their own files, zero column bytes through the inbox
  queues) against the constructor path (flatten + pickle every shard through
  a queue).  The ``RecoveryStats.shard_bytes_queued`` ledger proves the
  zero-copy claim before anything is timed.
* **elastic resize after a snapshot load** -- grow and shrink the pool with
  snapshot-backed shards resident; the remap moves file descriptors, so the
  queued-bytes ledger must not advance.  Cost is recorded, not floored
  (spawning an interpreter dominates and is machine-dependent).

Results are printed as a table and written to ``BENCH_snapshot.json`` at the
repository root.  Equivalence is asserted before any timing -- everything
loaded from the snapshot must be bit-identical to what was saved -- and
never relaxed under ``BENCH_SMOKE=1``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis import format_table
from repro.analysis.scenarios import MEDIUM_SCALE
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features_columns
from repro.core.model import build_model_with_engine
from repro.core.predictions import build_prediction_index_with_engine
from repro.core.priors import build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime
from repro.engine.snapshot import open_snapshot, save_snapshot
from repro.scanner.records import ObservationBatch

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_snapshot.json"

#: Seed fraction matching bench_runtime.py's workload, so the "full build"
#: baseline here is the same work the runtime benchmark times.
SEED_FRACTION = 0.1

STEP_SIZE = 16

#: Pool size for the shard-loading and resize comparisons.
WORKERS = 2

#: Shard count for the saved layout; more shards than workers so resize has
#: placement decisions to make.
SHARDS = 4

REPEATS = 3

#: The headline floor: restoring the Table 2 artifacts from a snapshot
#: (including the crc32 verification pass and a first lookup) must beat
#: rebuilding them from the raw seed observations by at least this factor.
#: Measured locally the ratio is >30x -- the restart reads a few MB of
#: mapped int64 columns while the rebuild re-runs the flatten and all three
#: engine folds -- so 5x holds comfortably even on noisy CI runners and under
#: ``BENCH_SMOKE=1``.
WARM_RESTART_FLOOR = 5.0


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_snapshot_benchmark(universe, dataset):
    """Time warm restart, mmap shard loading and elastic resize."""
    split = split_seed_test(dataset, SEED_FRACTION, seed=0)
    observations = split.seed_observations
    asn_db = universe.topology.asn_db
    feature_config = FeatureConfig()
    probe = observations[:32]

    def full_build():
        batch = ObservationBatch.from_observations(observations)
        host_features = extract_host_features_columns(batch, asn_db,
                                                      feature_config)
        with EngineRuntime(executor="serial") as runtime:
            resident = ResidentHostGroups(runtime, host_features, STEP_SIZE)
            model = build_model_with_engine(host_features, resident)
            priors = build_priors_plan_with_engine(
                host_features, model, STEP_SIZE, dataset.port_domain,
                dataset=resident)
            index = build_prediction_index_with_engine(
                host_features, model, port_domain=dataset.port_domain,
                dataset=resident)
        index.predict(probe, asn_db, feature_config)
        return batch, host_features, model, priors, index

    batch, host_features, model, priors, index = full_build()
    workdir = tempfile.mkdtemp(prefix="bench-snapshot-")
    try:
        snapshot_dir = str(Path(workdir) / "snap")
        save_snapshot(
            snapshot_dir, observations=batch, host_features=host_features,
            model=model, priors_plan=priors, index=index,
            shard_count=SHARDS, step_size=STEP_SIZE,
            placement_workers=WORKERS)
        snapshot_bytes = sum(
            path.stat().st_size for path in Path(snapshot_dir).iterdir())

        def warm_restart():
            snapshot = open_snapshot(snapshot_dir)
            loaded_model = snapshot.model()
            loaded_priors = snapshot.priors_plan()
            loaded_index = snapshot.prediction_index()
            loaded_index.predict(probe, asn_db, feature_config)
            return loaded_model, loaded_priors, loaded_index

        # Equivalence first (the acceptance criterion): everything restored
        # from disk must be bit-identical to what the build produced.
        loaded_model, loaded_priors, loaded_index = warm_restart()
        assert loaded_model == model, \
            "snapshot model diverged from the built model"
        assert list(loaded_priors) == list(priors), \
            "snapshot priors plan diverged from the built plan"
        assert loaded_index.entries() == index.entries(), \
            "snapshot prediction index diverged from the built index"

        build_seconds = _best_seconds(full_build)
        warm_seconds = _best_seconds(warm_restart)
        warm_noverify_seconds = _best_seconds(
            lambda: open_snapshot(snapshot_dir, verify=False).model())

        # -- shard loading: mmap references vs queue-shipped payloads ------
        runtime = EngineRuntime(executor="pool", num_workers=WORKERS,
                                shard_count=SHARDS)
        try:
            snapshot = open_snapshot(snapshot_dir)
            resident = ResidentHostGroups.from_snapshot(runtime, snapshot)
            mmap_model = build_model_with_engine(host_features, resident)
            assert mmap_model == model, \
                "model from mmap-resident shards diverged from the oracle"
            resident.release()

            def mmap_load():
                ResidentHostGroups.from_snapshot(runtime, snapshot).release()

            def queue_load():
                ResidentHostGroups(runtime, host_features,
                                   STEP_SIZE).release()

            mmap_seconds = _best_seconds(mmap_load)
            # The zero-copy ledger: every mmap load so far shipped only file
            # descriptors, never column bytes, through the worker queues.
            assert runtime.recovery_stats.shard_bytes_queued == 0, \
                "snapshot shard loads queued column bytes"
            queue_seconds = _best_seconds(queue_load)
            queued_bytes = runtime.recovery_stats.shard_bytes_queued
            assert queued_bytes > 0, \
                "queue-ship baseline unexpectedly shipped nothing"

            # -- elastic resize with snapshot-backed shards resident -------
            resident = ResidentHostGroups.from_snapshot(runtime, snapshot)
            ledger_before = runtime.recovery_stats.shard_bytes_queued
            start = time.perf_counter()
            runtime.resize(WORKERS + 1)
            grow_seconds = time.perf_counter() - start
            start = time.perf_counter()
            runtime.resize(WORKERS)
            shrink_seconds = time.perf_counter() - start
            migrated = runtime.recovery_stats.migrated_shards
            assert runtime.recovery_stats.shard_bytes_queued == \
                ledger_before, \
                "resize after a snapshot load re-shipped shard bytes"
            resized_model = build_model_with_engine(host_features, resident)
            assert resized_model == model, \
                "model after resize diverged from the oracle"
            resident.release()
        finally:
            runtime.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "scale": MEDIUM_SCALE.name,
        "seed_fraction": SEED_FRACTION,
        "seed_hosts": len(host_features.ips),
        "workers": WORKERS,
        "shards": SHARDS,
        "snapshot_bytes": snapshot_bytes,
        "equivalence": ("loaded == built for model, priors plan, prediction "
                        "index, and mmap-resident/resized shard builds"),
        "rows": [
            {"path": "full build from seed observations",
             "seconds": build_seconds},
            {"path": "warm restart (open + artifacts + first lookup)",
             "seconds": warm_seconds},
            {"path": "warm restart model only (verify=False)",
             "seconds": warm_noverify_seconds},
            {"path": "shard load mmap refs (pool)", "seconds": mmap_seconds},
            {"path": "shard load queue-ship (pool)",
             "seconds": queue_seconds},
        ],
        "resize": {
            "grow_seconds": grow_seconds,
            "shrink_seconds": shrink_seconds,
            "migrated_shards": migrated,
            "queued_bytes_delta": 0,
            # Recorded for the report, never gated: at bench scale resize
            # cost is dominated by interpreter spawn, not shard movement.
            "floor_asserted": False,
        },
        "queue_ship_bytes": queued_bytes,
        # Latency parity is expected at this scale (shards are small); the
        # architectural claim is the zero-byte ledger asserted above, so the
        # ratio is reported without a floor.
        "mmap_floor_asserted": False,
    }


def test_snapshot_warm_restart_vs_full_build(run_once, universe,
                                             censys_dataset):
    results = run_once(run_snapshot_benchmark, universe, censys_dataset)

    seconds = {row["path"]: row["seconds"] for row in results["rows"]}
    build = seconds["full build from seed observations"]
    warm = seconds["warm restart (open + artifacts + first lookup)"]
    mmap_load = seconds["shard load mmap refs (pool)"]
    queue_load = seconds["shard load queue-ship (pool)"]
    warm_restart_speedup = build / warm
    results["warm_restart_speedup"] = round(warm_restart_speedup, 2)
    results["warm_restart_floor"] = WARM_RESTART_FLOOR
    results["mmap_vs_queue_ship"] = round(queue_load / mmap_load, 2)
    results["resize"]["remap_vs_reship"] = round(
        queue_load / results["resize"]["shrink_seconds"], 2)
    if RESULT_PATH.exists():
        merged = json.loads(RESULT_PATH.read_text())
        merged.update(results)
        results = merged
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print()
    print(format_table(
        ("path", "seconds", "vs full build"),
        [(row["path"], f"{row['seconds']:.4f}",
          f"{build / row['seconds']:.2f}x")
         for row in results["rows"]],
        title=(f"Snapshot persistence ({results['seed_hosts']} seed hosts, "
               f"{results['shards']} shards, {WORKERS} workers, "
               f"{results['snapshot_bytes'] / 1e6:.1f} MB on disk)"),
    ))
    resize = results["resize"]
    print(f"Warm restart vs full build: {warm_restart_speedup:.2f}x; "
          f"mmap vs queue-ship: {results['mmap_vs_queue_ship']:.2f}x; "
          f"resize grow {resize['grow_seconds']:.3f}s / shrink "
          f"{resize['shrink_seconds']:.3f}s, {resize['migrated_shards']} "
          f"shards migrated, 0 bytes queued "
          f"(written to {RESULT_PATH.name})")

    # Headline acceptance: restarting from disk must beat rebuilding from
    # the raw observations by a wide margin.
    assert warm_restart_speedup >= WARM_RESTART_FLOOR, \
        (f"warm restart only {warm_restart_speedup:.2f}x over full build "
         f"(floor {WARM_RESTART_FLOOR}x)")
