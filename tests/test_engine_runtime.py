"""Tests for the persistent execution runtime and the sharding layer.

Covers the explicit pool lifecycle (reuse across consecutive plan
executions, idempotent close, worker crash surfacing a clean error, spawn
start method), the stable-hash sharding invariants, and bit-identical
results -- model, priors plan and prediction index -- across the serial,
thread and pool executors on the resident-dataset path.
"""

from __future__ import annotations

import logging
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.features import extract_host_features
from repro.core.gps import GPS
from repro.core.model import build_model, build_model_with_engine
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups, merge_counters
from repro.engine.faults import FaultPlan
from repro.engine.runtime import (
    RUNTIME_EXECUTORS,
    EngineRuntime,
    PoolExecutor,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
    _payload_rows,
    default_worker_count,
    lpt_placement,
)
from repro.engine.shard import (
    ShardedColumns,
    merge_ordered,
    shard_assignments,
    shard_columns,
    shard_group_columns,
)
from repro.scanner.pipeline import ScanPipeline
from tests.conftest import host_feature_columns

BACKENDS = tuple(RUNTIME_EXECUTORS)


@pytest.fixture(scope="module")
def seed_inputs(universe, censys_split):
    """Encoded host features + oracle model/priors/index for the equivalence tests."""
    host_features = extract_host_features(censys_split.seed_observations,
                                          universe.topology.asn_db, FeatureConfig())
    model = build_model(host_features)
    priors = build_priors_plan(host_features, model, 16)
    index = PredictiveFeatureIndex.from_seed(host_features, model)
    return host_feature_columns(host_features), model, priors, index


class TestRuntimeConstruction:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            EngineRuntime(executor="gpu")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            EngineRuntime(num_workers=-1)

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            EngineRuntime(shard_count=-1)

    def test_defaults(self):
        runtime = EngineRuntime(executor="pool")
        assert runtime.num_workers == default_worker_count()
        assert runtime.shard_count == runtime.num_workers
        assert not runtime.closed
        runtime.close()

    def test_shards_can_outnumber_workers(self):
        with EngineRuntime(executor="pool", num_workers=2, shard_count=5) as runtime:
            runtime.load_shards("k", [{"value_ids": [s]} for s in range(5)])
            merged = Counter()
            for counts in runtime.execute("model_denominators", "k"):
                merged.update(counts)
            assert merged == Counter(range(5))


class TestPoolLifecycle:
    def test_workers_reused_across_executions(self):
        """Consecutive plan executions run on the same worker processes."""
        with EngineRuntime(executor="pool", num_workers=2) as runtime:
            runtime.load_shards("k", [{}, {}])
            first = [pid for pid, _ in runtime.execute("_probe", "k")]
            for _ in range(3):
                again = [pid for pid, _ in runtime.execute("_probe", "k")]
                assert again == first

    def test_close_is_idempotent_and_final(self):
        runtime = EngineRuntime(executor="pool", num_workers=2)
        runtime.map_stateless("count_rows", [[1, 2]])
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(RuntimeError):
            runtime.map_stateless("count_rows", [[1]])

    def test_close_without_start_is_safe(self):
        runtime = EngineRuntime(executor="pool", num_workers=2)
        runtime.close()
        assert runtime.closed

    def test_context_manager_closes(self):
        with EngineRuntime(executor="pool", num_workers=2) as runtime:
            runtime.map_stateless("count_rows", [[1]])
        assert runtime.closed

    def test_worker_crash_surfaces_clear_error(self, monkeypatch):
        """A dying worker raises WorkerCrashError instead of hanging."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        runtime = EngineRuntime(executor="pool", num_workers=2)
        with pytest.raises(WorkerCrashError, match="died"):
            runtime.map_stateless("_crash", [None, None])
        assert runtime.broken
        # The pool is torn down; further use fails fast, close stays clean.
        with pytest.raises(WorkerCrashError):
            runtime.map_stateless("count_rows", [[1]])
        runtime.close()
        runtime.close()

    def test_crash_drill_is_gated(self, monkeypatch):
        """Without the opt-in, the crash task is an ordinary task error."""
        monkeypatch.delenv("REPRO_RUNTIME_CRASH_TEST", raising=False)
        with EngineRuntime(executor="pool", num_workers=1) as runtime:
            with pytest.raises(WorkerTaskError, match="crash drill"):
                runtime.map_stateless("_crash", [None])
            assert not runtime.broken

    def test_task_error_does_not_break_the_pool(self):
        """A raising task surfaces an error but leaves the workers usable."""
        with EngineRuntime(executor="pool", num_workers=2) as runtime:
            with pytest.raises(WorkerTaskError):
                # "run" against a key that was never loaded raises worker-side.
                runtime.execute("model_denominators", "missing-key")
            assert not runtime.broken
            out = runtime.map_stateless("count_rows", [[1, 1]])
            assert out[0] == Counter({1: 2})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_stateless_returns_results_in_payload_order(self, backend):
        payloads = [[(i % 5, i % 3) for i in range(start, start + 40)]
                    for start in range(0, 120, 40)]
        with EngineRuntime(executor=backend, num_workers=2) as runtime:
            assert runtime.map_stateless("count_rows", payloads) == \
                [Counter(rows) for rows in payloads]

    def test_spawn_start_method(self):
        """Workers use the spawn start method (3.10-3.12 compatible)."""
        executor = PoolExecutor(workers=1)
        assert executor._context.get_start_method() == "spawn"
        executor.close()

    def test_unknown_task_rejected_without_dispatch(self):
        with EngineRuntime(executor="pool", num_workers=1) as runtime:
            with pytest.raises(KeyError):
                runtime.execute("no_such_task", "k")
            with pytest.raises(KeyError):
                runtime.map_stateless("no_such_task", [None])

    def test_shard_payload_count_enforced(self):
        with EngineRuntime(executor="serial", shard_count=2) as runtime:
            with pytest.raises(ValueError):
                runtime.load_shards("k", [{}])
            runtime.load_shards("k", [{}, {}])
            with pytest.raises(ValueError):
                runtime.execute("_probe", "k", args_per_shard=[None])

    def test_unload_releases_resident_data(self):
        with EngineRuntime(executor="pool", num_workers=1) as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}])
            runtime.execute("model_denominators", "k")
            runtime.unload("k")
            with pytest.raises(RuntimeError):
                runtime.execute("model_denominators", "k")


def _denominator_fold(runtime, key):
    merged = Counter()
    for counts in runtime.execute("model_denominators", key):
        merged.update(counts)
    return merged


class TestSelfHealing:
    """Supervision: every crash timing window recovers in place, surgically."""

    def test_worker_killed_while_idle_recovers_on_next_dispatch(self):
        """Death with zero outstanding tasks: the next execution heals it."""
        with EngineRuntime(executor="pool", num_workers=2,
                           shard_count=2) as runtime:
            runtime.load_shards("k", [{"value_ids": [0]}, {"value_ids": [1]}])
            before = [pid for pid, _ in runtime.execute("_probe", "k")]
            backend = runtime._backend
            victim = backend._placements["k"][0]
            process = backend._processes[victim]
            process.kill()
            process.join()
            assert _denominator_fold(runtime, "k") == Counter({0: 1, 1: 1})
            stats = runtime.recovery_stats
            assert stats.crashes_detected == 1 and stats.respawns == 1
            assert stats.reloaded_shards == 1
            after = [pid for pid, _ in runtime.execute("_probe", "k")]
            # The victim's shard answers from a fresh process, the
            # survivor's from the same one -- no full pool rebuild.
            assert after[0] != before[0]
            assert after[1] == before[1]
            assert not runtime.broken

    def test_crash_during_load_shards_recovers(self, monkeypatch):
        """Death mid-load: the coordinator copy re-ships the lost shards."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        plan = FaultPlan(crash_task="load", crash_workers=(0,))
        with EngineRuntime(executor="pool", num_workers=2, shard_count=4,
                           fault_plan=plan) as runtime:
            runtime.load_shards("k", [{"value_ids": [s]} for s in range(4)])
            stats = runtime.recovery_stats
            assert stats.crashes_detected == 1 and stats.respawns == 1
            assert _denominator_fold(runtime, "k") == Counter(range(4))
            assert not runtime.broken

    def test_two_workers_dying_in_one_execution(self, monkeypatch):
        """Both workers die mid-dispatch; both respawn, results intact."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        plan = FaultPlan(crash_task="model_denominators", crash_workers=(0, 1))
        with EngineRuntime(executor="pool", num_workers=2, shard_count=4,
                           fault_plan=plan) as runtime:
            runtime.load_shards("k", [{"value_ids": [s]} for s in range(4)])
            assert _denominator_fold(runtime, "k") == Counter(range(4))
            stats = runtime.recovery_stats
            assert stats.crashes_detected == 2 and stats.respawns == 2
            # Each worker owned two of the four equal shards.
            assert stats.reloaded_shards == 4
            assert not runtime.broken

    def test_recovery_is_bit_identical_and_surgical(self, seed_inputs,
                                                    monkeypatch):
        """A seeded crash mid-model-build: all three Table 2 builds stay
        bit-identical to the serial oracles, and only the dead worker's
        shards are re-loaded (the survivor keeps its process and shards)."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        host_features, model, priors, index = seed_inputs
        plan = FaultPlan(crash_task="model_pairs", crash_workers=(1,))
        with EngineRuntime(executor="pool", num_workers=2, shard_count=5,
                           fault_plan=plan) as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            before = [pid for pid, _ in runtime.execute("_probe", dataset.key)]
            placement = runtime._backend._placements[dataset.key]
            built = build_model_with_engine(host_features, dataset)
            assert built.denominators == model.denominators
            assert {k: v for k, v in built.cooccurrence.items() if v} == \
                {k: v for k, v in model.cooccurrence.items() if v}
            assert build_priors_plan_with_engine(host_features, built, 16,
                                                 dataset=dataset) == priors
            rebuilt = build_prediction_index_with_engine(host_features, built,
                                                         dataset=dataset)
            assert rebuilt.entries() == index.entries()
            stats = dataset.recovery_stats
            assert stats.crashes_detected == 1 and stats.respawns == 1
            # Surgical recovery: exactly the dead worker's shards were
            # re-shipped, nothing else (the model sides had not broadcast
            # yet when the crash fired, so no broadcast reload either).
            assert stats.reloaded_shards == placement.count(1)
            assert stats.reloaded_broadcasts == 0
            after = [pid for pid, _ in runtime.execute("_probe", dataset.key)]
            for shard_idx, worker in enumerate(placement):
                assert (after[shard_idx] == before[shard_idx]) == (worker != 1)
            dataset.release()

    def test_exit_after_crash_is_idempotent(self, monkeypatch):
        """__exit__ after an unrecovered crash closes cleanly, repeatedly."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        with pytest.raises(WorkerCrashError, match="died"):
            with EngineRuntime(executor="pool", num_workers=2,
                               max_task_retries=0) as runtime:
                runtime.map_stateless("_crash", [None, None])
        assert runtime.closed
        runtime.close()
        with pytest.raises(RuntimeError):
            runtime.map_stateless("count_rows", [[1]])

    def test_zero_retries_restores_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        runtime = EngineRuntime(executor="pool", num_workers=2,
                                max_task_retries=0)
        with pytest.raises(WorkerCrashError, match="recovery budget"):
            runtime.map_stateless("_crash", [None, None])
        assert runtime.recovery_stats.respawns == 0
        runtime.close()

    def test_task_deadline_flags_wedged_worker(self):
        """A live worker that swallows its reply trips the task deadline."""
        plan = FaultPlan(drop_reply_task="_probe", drop_reply_workers=(0,))
        with EngineRuntime(executor="pool", num_workers=2,
                           task_deadline_s=0.3, fault_plan=plan) as runtime:
            with pytest.raises(WorkerTimeoutError, match="process dump"):
                runtime.map_stateless("_probe", [None, None])
            assert runtime.broken

    def test_execution_deadline_bounds_a_dispatch(self):
        plan = FaultPlan(slow_task="count_rows", slow_workers=(0,),
                         slow_seconds=30.0)
        with EngineRuntime(executor="pool", num_workers=2,
                           execution_deadline_s=0.3,
                           fault_plan=plan) as runtime:
            with pytest.raises(WorkerTimeoutError, match="deadline"):
                runtime.map_stateless("count_rows", [[1], [2]])
            assert runtime.broken

    def test_injected_task_error_does_not_break_the_pool(self):
        plan = FaultPlan(error_task="count_rows", error_workers=(1,))
        with EngineRuntime(executor="pool", num_workers=2,
                           fault_plan=plan) as runtime:
            with pytest.raises(WorkerTaskError, match="injected fault"):
                runtime.map_stateless("count_rows", [[1], [2]])
            assert not runtime.broken
            # The planned occurrence has passed; the next dispatch is clean.
            assert runtime.map_stateless("count_rows", [[1], [2]]) == \
                [Counter({1: 1}), Counter({2: 1})]

    def test_fault_crash_requires_env_gate(self, monkeypatch):
        """A crash plan without the opt-in is an ordinary task error."""
        monkeypatch.delenv("REPRO_RUNTIME_CRASH_TEST", raising=False)
        plan = FaultPlan(crash_task="count_rows")
        with EngineRuntime(executor="pool", num_workers=1,
                           fault_plan=plan) as runtime:
            with pytest.raises(WorkerTaskError,
                               match="REPRO_RUNTIME_CRASH_TEST"):
                runtime.map_stateless("count_rows", [[1]])
            assert not runtime.broken

    def test_supervision_events_are_logged(self, monkeypatch, caplog):
        """Recovery narrates itself on the runtime logger, off by default."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        plan = FaultPlan(crash_task="count_rows")
        with caplog.at_level(logging.INFO, logger="repro.engine.runtime"):
            with EngineRuntime(executor="pool", num_workers=1,
                               fault_plan=plan) as runtime:
                assert runtime.map_stateless("count_rows", [[1]]) == \
                    [Counter({1: 1})]
        text = "\n".join(record.getMessage() for record in caplog.records)
        for kind in ("worker_crash", "respawn", "redispatch", "retry_backoff"):
            assert f"kind='{kind}'" in text

    def test_runtime_validates_supervision_knobs(self):
        with pytest.raises(ValueError):
            EngineRuntime(max_task_retries=-1)
        with pytest.raises(ValueError):
            EngineRuntime(task_deadline_s=0)
        with pytest.raises(ValueError):
            EngineRuntime(execution_deadline_s=-1.0)
        with pytest.raises(TypeError):
            EngineRuntime(fault_plan="chaos")

    def test_in_process_backends_report_zero_stats(self):
        with EngineRuntime(executor="serial") as runtime:
            runtime.map_stateless("count_rows", [[1]])
            assert runtime.recovery_stats.respawns == 0


class TestShardingLayer:
    def test_assignments_are_hashseed_independent(self):
        # Integers stable-hash to themselves: the layout is fully determined.
        assert shard_assignments([0, 1, 2, 3, 4], 3) == [0, 1, 2, 0, 1]
        assert shard_assignments(["a", "b", "a"], 4)[0] == \
            shard_assignments(["a", "b", "a"], 4)[2]

    def test_single_shard_takes_everything(self):
        assert shard_assignments([5, "x", (1, 2)], 1) == [0, 0, 0]

    def test_shard_columns_partitions_and_aligns(self):
        columns = {"k": [3, 1, 4, 1, 5], "v": ["a", "b", "c", "d", "e"]}
        sharded = shard_columns(columns, "k", 2)
        rows = [(k, v) for shard in sharded.shards
                for k, v in zip(shard["k"], shard["v"])]
        assert sorted(rows) == sorted(zip(columns["k"], columns["v"]))
        # Equal keys land in the same shard (the duplicate key 1 co-locates).
        ones = [s for s in sharded.shards if 1 in s["k"]]
        assert len(ones) == 1 and ones[0]["k"].count(1) == 2

    def test_shard_columns_rejects_misaligned(self):
        with pytest.raises(ValueError):
            shard_columns({"k": [1, 2], "v": [1]}, "k", 2)

    def test_shard_group_columns_rebuilds_local_offsets(self):
        sharded = shard_group_columns(
            assign_keys=[10, 11, 12],
            group_keys=[7, 7, 8],
            member_starts=[0, 2, 3, 5],
            labels=[80, 443, 22, 25, 53],
            value_starts=[0, 1, 2, 3, 4, 5],
            value_ids=[9, 8, 7, 6, 5],
            shard_count=2,
        )
        seen_groups = []
        for shard in sharded.shards:
            assert shard["member_starts"][0] == 0
            assert shard["value_starts"][0] == 0
            assert shard["member_starts"][-1] == len(shard["labels"])
            assert shard["value_starts"][-1] == len(shard["value_ids"])
            assert shard["group_order"] == sorted(shard["group_order"])
            seen_groups.extend(shard["group_order"])
        assert sorted(seen_groups) == [0, 1, 2]
        # Every (group, labels, values) triple survives sharding intact.
        recovered = {}
        for shard in sharded.shards:
            for local, original in enumerate(shard["group_order"]):
                m_lo = shard["member_starts"][local]
                m_hi = shard["member_starts"][local + 1]
                members = []
                for m in range(m_lo, m_hi):
                    v_lo, v_hi = shard["value_starts"][m], shard["value_starts"][m + 1]
                    members.append((shard["labels"][m],
                                    tuple(shard["value_ids"][v_lo:v_hi])))
                recovered[original] = (shard["group_keys"][local], tuple(members))
        assert recovered == {
            0: (7, ((80, (9,)), (443, (8,)))),
            1: (7, ((22, (7,)),)),
            2: (8, ((25, (6,)), (53, (5,)))),
        }

    def test_merge_ordered_restores_global_order(self):
        assert merge_ordered([[(3, "d"), (0, "a")], [(2, "c")], [(1, "b")]]) == \
            ["a", "b", "c", "d"]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_assignments([1, 2], 0)
        with pytest.raises(ValueError):
            shard_columns({"k": [1, 2]}, "k", 0)

    def test_sharded_columns_checks_its_shape(self):
        with pytest.raises(ValueError):
            ShardedColumns(shard_count=0, shards=())
        with pytest.raises(ValueError):
            ShardedColumns(shard_count=2, shards=({},))
        assert len(ShardedColumns(shard_count=2, shards=({}, {}))) == 2

    @pytest.mark.parametrize("assign_keys,member_starts", [
        ([10], [0, 1, 2]),        # one assignment key for two groups
        ([10, 11], [0, 1]),       # offsets one short of the group count
    ])
    def test_shard_group_columns_rejects_misaligned(self, assign_keys,
                                                    member_starts):
        with pytest.raises(ValueError):
            shard_group_columns(assign_keys, [7, 8], member_starts, [80, 443],
                                [0, 1, 2], [5, 6], 2)

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers()), max_size=80),
           st.integers(1, 6))
    def test_shard_columns_keeps_row_order_within_each_shard(self, rows,
                                                             shard_count):
        columns = {"k": [k for k, _ in rows], "i": list(range(len(rows)))}
        sharded = shard_columns(columns, "k", shard_count)
        assignments = shard_assignments(columns["k"], shard_count)
        for shard_id, shard in enumerate(sharded.shards):
            # Each shard holds exactly the rows hashed to it, in input order.
            assert list(shard["i"]) == [i for i, a in enumerate(assignments)
                                        if a == shard_id]
            assert list(shard["k"]) == [columns["k"][i] for i in shard["i"]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_count_rows_matches_direct_count(self, backend):
        """Hash-sharded rows counted per shard on the runtime and merged
        equal one direct count of every row."""
        rows = [(i % 11, "proto-%d" % (i % 4)) for i in range(300)]
        sharded = shard_columns({"row": rows}, "row", 4)
        with EngineRuntime(executor=backend, num_workers=2) as runtime:
            per_shard = runtime.map_stateless(
                "count_rows", [shard["row"] for shard in sharded.shards])
        assert merge_counters(per_shard) == Counter(rows)


class TestMergeCounters:
    def test_empty(self):
        assert merge_counters([]) == Counter()
        assert merge_counters([Counter(), Counter()]) == Counter()

    @settings(deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 9), max_size=60), st.integers(1, 5),
           st.randoms(use_true_random=False))
    def test_independent_of_layout_and_arrival_order(self, items, parts, rng):
        chunks = [Counter(items[start::parts]) for start in range(parts)]
        rng.shuffle(chunks)
        assert merge_counters(chunks) == Counter(items)


class TestLptPlacement:
    def test_balanced_layout_is_round_robin(self):
        """Equal sizes reduce to the historical shard % workers layout."""
        assert lpt_placement([5, 5, 5, 5], 2) == [0, 1, 0, 1]
        assert lpt_placement([1, 1, 1], 3) == [0, 1, 2]

    def test_skewed_shards_spread_across_workers(self):
        # One giant shard: it gets a worker to itself, the rest share.
        placement = lpt_placement([100, 1, 1, 1], 2)
        assert placement[0] == 0
        assert placement[1:] == [1, 1, 1]

    def test_deterministic_and_tie_broken_to_lowest_worker(self):
        sizes = [3, 3, 2, 2, 1]
        assert lpt_placement(sizes, 3) == lpt_placement(sizes, 3)
        # Largest-first with load ties resolved to the lowest worker id.
        assert lpt_placement(sizes, 3) == [0, 1, 2, 2, 0]

    def test_empty_and_invalid(self):
        assert lpt_placement([], 4) == []
        with pytest.raises(ValueError):
            lpt_placement([1], 0)

    def test_payload_rows_counts_list_columns(self):
        payload = {"labels": [1, 2, 3], "value_ids": (4, 5), "group_order": [0],
                   "_derived": "not-a-column"}
        assert _payload_rows(payload) == 6

    def test_pool_routes_shards_by_placement(self):
        """The worker holding a shard is the one LPT assigned it to."""
        payloads = [{"value_ids": list(range(100))}, {"value_ids": [1]},
                    {"value_ids": [2]}, {"value_ids": [3]}]
        placement = lpt_placement([_payload_rows(p) for p in payloads], 2)
        with EngineRuntime(executor="pool", num_workers=2,
                           shard_count=4) as runtime:
            runtime.load_shards("k", payloads)
            pids = [pid for pid, _ in runtime.execute("_probe", "k")]
            # Shards placed on the same worker answer from the same process,
            # shards placed on different workers from different processes.
            for a in range(4):
                for b in range(4):
                    same = placement[a] == placement[b]
                    assert (pids[a] == pids[b]) == same
            # The heavy shard's worker serves no other shard.
            heavy = placement[0]
            assert placement.count(heavy) == 1

    def test_skewed_resident_results_unchanged(self, seed_inputs):
        """Skewed shard counts (placement != shard % workers) stay
        bit-identical to the serial oracles."""
        host_features, model, priors, index = seed_inputs
        with EngineRuntime(executor="pool", num_workers=2,
                           shard_count=5) as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            built = build_model_with_engine(host_features, dataset)
            assert built.denominators == model.denominators
            assert build_priors_plan_with_engine(host_features, built, 16,
                                                 dataset=dataset) == priors
            rebuilt = build_prediction_index_with_engine(host_features, built,
                                                         dataset=dataset)
            assert rebuilt.entries() == index.entries()
            dataset.release()


class TestRuntimeEquivalence:
    """All three engine builds, bit-identical on every backend and path."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_resident_dataset_matches_oracles(self, seed_inputs, backend,
                                              shard_count):
        host_features, model, priors, index = seed_inputs
        with EngineRuntime(executor=backend, num_workers=2,
                           shard_count=shard_count) as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            built = build_model_with_engine(host_features, dataset)
            assert built.denominators == model.denominators
            assert {k: v for k, v in built.cooccurrence.items() if v} == \
                {k: v for k, v in model.cooccurrence.items() if v}
            assert build_priors_plan_with_engine(host_features, built, 16,
                                                 dataset=dataset) == priors
            rebuilt = build_prediction_index_with_engine(host_features, built,
                                                         dataset=dataset)
            assert rebuilt.entries() == index.entries()
            # Consecutive builds reuse the resident shards (the pool path
            # additionally reuses the worker-side derived join payload).
            again = build_model_with_engine(host_features, dataset)
            assert again.denominators == built.denominators
            dataset.release()
            dataset.release()  # idempotent
            with pytest.raises(RuntimeError):
                dataset.model_counts()

    def test_resident_dataset_step_size_is_checked(self, seed_inputs):
        host_features, model, _, _ = seed_inputs
        with EngineRuntime() as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            with pytest.raises(ValueError):
                build_priors_plan_with_engine(host_features, model, 20,
                                              dataset=dataset)

class TestGPSRuntimeIntegration:
    def test_config_validates_executor_names(self):
        with pytest.raises(ValueError):
            GPSConfig(executor="gpu")
        with pytest.raises(ValueError):
            GPSConfig(executor=42)
        with pytest.raises(ValueError):
            GPSConfig(num_workers=-1)
        with pytest.raises(ValueError):
            GPSConfig(shard_count=-2)

    def test_config_rejects_inert_runtime_executors(self):
        """A non-default executor that would silently do nothing must not validate."""
        with pytest.raises(ValueError, match="use_engine"):
            GPSConfig(executor="pool")
        with pytest.raises(ValueError, match="use_engine"):
            GPSConfig(executor="thread")
        assert GPSConfig(use_engine=True, executor="pool").executor == "pool"
        assert GPSConfig().executor == "serial"

    def test_config_validates_supervision_knobs(self):
        with pytest.raises(ValueError):
            GPSConfig(max_task_retries=-1)
        with pytest.raises(ValueError):
            GPSConfig(task_deadline_s=0.0)
        with pytest.raises(ValueError):
            GPSConfig(execution_deadline_s=-2.0)
        with pytest.raises(TypeError):
            GPSConfig(fault_plan=object())
        plan = FaultPlan(probe_loss_rate=0.1)
        assert GPSConfig(fault_plan=plan).fault_plan is plan

    def test_config_knobs_reach_the_runtime(self, universe):
        plan = FaultPlan(seed=5)
        config = GPSConfig(use_engine=True, executor="pool", num_workers=2,
                           max_task_retries=4, task_deadline_s=30.0,
                           execution_deadline_s=120.0, fault_plan=plan)
        with GPS(ScanPipeline(universe), config) as gps:
            runtime = gps.runtime()
            assert runtime.max_task_retries == 4
            assert runtime.task_deadline_s == 30.0
            assert runtime.execution_deadline_s == 120.0
            assert runtime.fault_plan is plan

    def test_end_to_end_run_survives_seeded_crash(self, universe,
                                                  censys_dataset, censys_split,
                                                  monkeypatch):
        """A FaultPlan killing one worker mid-model-build leaves the whole
        GPS run bit-identical to the serial engine reference."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")

        def run(**extra):
            pipeline = ScanPipeline(universe)
            config = GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain,
                               use_engine=True, **extra)
            with GPS(pipeline, config) as gps:
                return gps.run(seed=censys_split.seed_scan_result(),
                               seed_cost_probes=0)

        reference = run()
        plan = FaultPlan(crash_task="model_pairs", crash_workers=(1,))
        chaotic = run(executor="pool", num_workers=2, shard_count=3,
                      fault_plan=plan)
        assert chaotic.priors_plan == reference.priors_plan
        assert [p.pair() for p in chaotic.predictions] == \
            [p.pair() for p in reference.predictions]
        assert chaotic.discovered_pairs() == reference.discovered_pairs()
        assert chaotic.model.denominators == reference.model.denominators

    def test_broken_runtime_is_recreated(self, universe, monkeypatch):
        """After a worker crash, the next runtime() call yields a fresh pool."""
        monkeypatch.setenv("REPRO_RUNTIME_CRASH_TEST", "1")
        config = GPSConfig(use_engine=True, executor="pool", num_workers=2)
        with GPS(ScanPipeline(universe), config) as gps:
            first = gps.runtime()
            with pytest.raises(WorkerCrashError):
                first.map_stateless("_crash", [None, None])
            assert first.broken
            second = gps.runtime()
            assert second is not first and not second.broken
            assert second.map_stateless("count_rows", [[1]]) == [Counter({1: 1})]

    def test_no_runtime_without_engine(self, universe):
        gps = GPS(ScanPipeline(universe), GPSConfig())
        assert gps.runtime() is None
        gps.close()  # safe no-op

    def test_gps_owns_one_runtime_and_closes_it(self, universe):
        config = GPSConfig(use_engine=True, executor="pool", num_workers=2)
        with GPS(ScanPipeline(universe), config) as gps:
            runtime = gps.runtime()
            assert runtime is not None and not runtime.closed
            assert gps.runtime() is runtime
        assert runtime.closed

    def test_end_to_end_run_matches_per_call_engine(self, universe,
                                                    censys_dataset, censys_split):
        def run(config):
            pipeline = ScanPipeline(universe)
            with GPS(pipeline, config) as gps:
                return gps.run(seed=censys_split.seed_scan_result(),
                               seed_cost_probes=0)

        reference = run(GPSConfig(seed_fraction=0.05, step_size=16,
                                  port_domain=censys_dataset.port_domain,
                                  use_engine=True))
        pooled = run(GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain,
                               use_engine=True, executor="pool",
                               num_workers=2, shard_count=3))
        assert pooled.priors_plan == reference.priors_plan
        assert [p.pair() for p in pooled.predictions] == \
            [p.pair() for p in reference.predictions]
        assert pooled.discovered_pairs() == reference.discovered_pairs()
        assert pooled.model.denominators == reference.model.denominators

    def test_known_host_prediction_on_runtime(self, universe, censys_dataset,
                                              censys_split):
        """predict_for_known_hosts builds model + index off the resident shards."""
        known = censys_split.test_observations[:50]

        def run(config):
            pipeline = ScanPipeline(universe)
            with GPS(pipeline, config) as gps:
                return gps.predict_for_known_hosts(
                    censys_split.seed_scan_result(), known, scan=False)

        reference = run(GPSConfig(seed_fraction=0.05, step_size=16,
                                  port_domain=censys_dataset.port_domain))
        pooled = run(GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain,
                               use_engine=True, executor="pool", num_workers=2))
        assert [p.pair() for p in pooled.predictions] == \
            [p.pair() for p in reference.predictions]
