"""Cost of healing a killed worker vs rebuilding the pool from scratch.

The self-healing runtime's pitch is that supervision makes worker death an
*incremental* cost: respawn one process, re-ship only the shards its
placement owned, re-dispatch only the still-outstanding tasks.  The
alternative -- what a fail-fast pool forces -- is a full rebuild: tear the
runtime down, spawn every worker again, re-ship every shard, rerun the whole
execution.  This benchmark measures both against the same engine model build:

* **warm** -- the steady-state build on a healthy resident pool (baseline);
* **heal** -- the same build issued right after one worker is SIGKILLed:
  the timing includes crash detection, the backoff round, the respawn and
  the surgical re-load;
* **rebuild** -- close the runtime, start a fresh one, re-ship all shards,
  run the build (the fail-fast recovery path).

Results merge into ``BENCH_runtime.json`` under the ``"recovery"`` key (the
rest of the file belongs to ``bench_runtime.py``).  Headline assertion:
healing one dead worker costs less than one full pool rebuild, and the heal
re-ships only the dead worker's shards.  ``BENCH_SMOKE=1`` relaxes the
wall-clock floor only; the surgical-reload and equivalence assertions are
never relaxed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features_columns
from repro.core.model import build_model_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

SEED_FRACTION = 0.1
WORKERS = 2
SHARDS = 8

#: The heal must beat a full rebuild outright; under BENCH_SMOKE=1 a shared
#: CI runner's jitter gets some slack (the rebuild spawns every worker and
#: re-ships every shard, so even relaxed the architecture cannot regress to
#: rebuild-per-crash without tripping this).
HEAL_VS_REBUILD_FLOOR = 1.0 if os.environ.get("BENCH_SMOKE") != "1" else 0.7


def run_recovery_benchmark(universe, dataset):
    """Time warm vs heal-after-kill vs full-rebuild model builds."""
    split = split_seed_test(dataset, SEED_FRACTION, seed=0)
    host_features = extract_host_features_columns(
        split.seed_scan_result().batch, universe.topology.asn_db,
        FeatureConfig())

    runtime = EngineRuntime(executor="pool", num_workers=WORKERS,
                            shard_count=SHARDS)
    resident = ResidentHostGroups(runtime, host_features, 16)
    reference = build_model_with_engine(host_features, resident)

    start = time.perf_counter()
    warm_model = build_model_with_engine(host_features, resident)
    warm_seconds = time.perf_counter() - start

    backend = runtime._backend
    placement = backend._placements[resident.key]
    victim = placement[0]
    owned_shards = placement.count(victim)
    process = backend._processes[victim]
    process.kill()
    process.join()

    start = time.perf_counter()
    healed_model = build_model_with_engine(host_features, resident)
    heal_seconds = time.perf_counter() - start
    stats = runtime.recovery_stats
    resident.release()
    runtime.close()

    start = time.perf_counter()
    fresh_runtime = EngineRuntime(executor="pool", num_workers=WORKERS,
                                  shard_count=SHARDS)
    fresh_resident = ResidentHostGroups(fresh_runtime, host_features, 16)
    rebuilt_model = build_model_with_engine(host_features, fresh_resident)
    rebuild_seconds = time.perf_counter() - start
    fresh_resident.release()
    fresh_runtime.close()

    for label, model in (("healed", healed_model), ("rebuilt", rebuilt_model)):
        assert model.denominators == reference.denominators, \
            f"{label} model diverged from the healthy-pool reference"

    return {
        "workers": WORKERS,
        "shards": SHARDS,
        "seed_hosts": len(host_features),
        "victim_owned_shards": owned_shards,
        "respawns": stats.respawns,
        "reloaded_shards": stats.reloaded_shards,
        "redispatched_tasks": stats.redispatched_tasks,
        "warm_seconds": warm_seconds,
        "heal_seconds": heal_seconds,
        "rebuild_seconds": rebuild_seconds,
    }


def _merge_into_results(recovery: dict) -> None:
    existing = {}
    if RESULT_PATH.exists():
        existing = json.loads(RESULT_PATH.read_text())
    existing["recovery"] = recovery
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_recovery_beats_full_rebuild(run_once, universe, censys_dataset):
    results = run_once(run_recovery_benchmark, universe, censys_dataset)

    ratio = results["rebuild_seconds"] / results["heal_seconds"]
    results["rebuild_vs_heal"] = round(ratio, 2)
    _merge_into_results(results)

    print()
    print(f"warm build:            {results['warm_seconds']:.4f}s")
    print(f"heal (1 worker kill):  {results['heal_seconds']:.4f}s "
          f"({results['reloaded_shards']}/{results['shards']} shards "
          f"re-shipped)")
    print(f"full pool rebuild:     {results['rebuild_seconds']:.4f}s")
    print(f"rebuild / heal:        {ratio:.2f}x "
          f"(floor {HEAL_VS_REBUILD_FLOOR}x, written to {RESULT_PATH.name})")

    # Surgical recovery: exactly one respawn, exactly the dead worker's
    # shards re-shipped -- never the whole resident set.
    assert results["respawns"] == 1
    assert results["reloaded_shards"] == results["victim_owned_shards"]
    assert results["reloaded_shards"] < results["shards"]

    assert ratio >= HEAL_VS_REBUILD_FLOOR, \
        (f"healing a dead worker ({results['heal_seconds']:.3f}s) should cost "
         f"less than a full pool rebuild ({results['rebuild_seconds']:.3f}s)")
