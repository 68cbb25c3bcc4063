"""Tests for the in-process execution runtime and the sharding layer.

Covers the runtime's explicit lifecycle (idempotent close, resident data
released on unload), the stable-hash sharding invariants, and bit-identical
results -- model, priors plan and prediction index -- across shard counts on
the resident-dataset path.
"""

from __future__ import annotations

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
from repro.engine.runtime import EngineRuntime
from repro.engine.shard import (
    ShardedColumns,
    shard_assignments,
    shard_columns,
    shard_group_columns,
)
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ScanObservation
from repro.telemetry import Telemetry
from tests.conftest import host_feature_columns


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
    @pytest.mark.parametrize("executor", ["gpu", "thread", "pool"])
    def test_unknown_executor_rejected(self, executor):
        with pytest.raises(ValueError, match="unknown executor"):
            EngineRuntime(executor=executor)

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            EngineRuntime(shard_count=-1)

    def test_defaults(self):
        runtime = EngineRuntime()
        assert runtime.executor == "serial"
        assert runtime.shard_count == 1
        assert not runtime.closed
        runtime.close()

    def test_many_shards_fold_and_merge(self):
        with EngineRuntime(shard_count=5) as runtime:
            runtime.load_shards("k", [{"value_ids": [s]} for s in range(5)])
            assert _denominator_fold(runtime, "k") == Counter(range(5))


class TestRuntimeLifecycle:
    def test_close_is_idempotent_and_final(self):
        runtime = EngineRuntime()
        runtime.load_shards("k", [{"value_ids": [1, 2]}])
        assert _denominator_fold(runtime, "k") == Counter({1: 1, 2: 1})
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(RuntimeError):
            runtime.execute("model_denominators", "k")
        with pytest.raises(RuntimeError):
            runtime.load_shards("k", [{"value_ids": [1]}])

    def test_close_without_start_is_safe(self):
        runtime = EngineRuntime()
        runtime.close()
        assert runtime.closed

    def test_context_manager_closes(self):
        with EngineRuntime() as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}])
        assert runtime.closed

    def test_unknown_task_rejected_without_dispatch(self):
        with EngineRuntime() as runtime:
            with pytest.raises(KeyError):
                runtime.execute("no_such_task", "k")

    def test_shard_payload_count_enforced(self):
        with EngineRuntime(shard_count=2) as runtime:
            with pytest.raises(ValueError):
                runtime.load_shards("k", [{}])
            runtime.load_shards("k", [{"value_ids": [1]}, {"value_ids": [2]}])
            with pytest.raises(ValueError):
                runtime.execute("model_denominators", "k", args_per_shard=[None])

    def test_unload_releases_resident_data(self):
        with EngineRuntime() as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}])
            runtime.execute("model_denominators", "k")
            runtime.unload("k")
            with pytest.raises(KeyError, match="no resident payload"):
                runtime.execute("model_denominators", "k")

    def test_task_error_leaves_the_runtime_usable(self):
        """A fold that raises reaches the caller and leaves the resident
        data and the runtime as they were."""
        with EngineRuntime(shard_count=2) as runtime:
            runtime.load_shards("k", [{"value_ids": [1, 2]}, {"value_ids": [2]}])
            with pytest.raises(KeyError):
                # No broadcast model is resident: the fold cannot score.
                runtime.execute("priors_partner", "k", args_per_shard=[(None,)] * 2)
            assert not runtime.closed
            assert _denominator_fold(runtime, "k") == Counter({1: 1, 2: 2})

    def test_reloading_a_key_replaces_colliding_columns(self):
        with EngineRuntime(shard_count=2) as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}, {"value_ids": [2]}])
            runtime.load_shards("k", [{"value_ids": [3, 3]}, {"extra": [9]}])
            assert _denominator_fold(runtime, "k") == Counter({3: 2, 2: 1})
            assert runtime._store[("k", 1)]["value_ids"] == [2]
            assert runtime._store[("k", 1)]["extra"] == [9]

    @pytest.mark.parametrize("kernel", ["stdlib", "numpy"])
    def test_reload_after_a_fold_reads_the_new_columns(self, kernel):
        """A fold caches per-shard derived data; reloading the key must not
        leave a later fold reading the replaced columns."""
        if kernel == "numpy":
            pytest.importorskip("numpy")
        args = [(kernel,)]
        with EngineRuntime() as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}])
            (first,) = runtime.execute("model_denominators", "k", args)
            assert list(first[0]) == [1]
            runtime.load_shards("k", [{"value_ids": [3, 3]}])
            ((ids, counts),) = runtime.execute("model_denominators", "k", args)
            assert (list(ids), list(counts)) == ([3], [2])

    def test_unload_leaves_other_keys_resident(self):
        with EngineRuntime() as runtime:
            runtime.load_shards("a", [{"value_ids": [1]}])
            runtime.load_shards("b", [{"value_ids": [2]}])
            runtime.unload("a")
            runtime.unload("never-loaded")  # no-op
            assert _denominator_fold(runtime, "b") == Counter({2: 1})
            with pytest.raises(KeyError, match="no resident payload"):
                runtime.execute("model_denominators", "a")

    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_telemetry_counts_every_shard_of_a_dispatch(self, shard_count):
        telemetry = Telemetry()
        with EngineRuntime(shard_count=shard_count,
                           telemetry=telemetry) as runtime:
            runtime.load_shards("k", [{"value_ids": [s]}
                                      for s in range(shard_count)])
            runtime.load_broadcast("k", {"supports": [1]})
            assert telemetry.gauge("engine_resident_payloads").value == \
                shard_count + 1
            assert _denominator_fold(runtime, "k") == Counter(range(shard_count))
            task = {"task": "model_denominators"}
            assert telemetry.counter("engine_tasks_total", **task).value == \
                shard_count
            assert telemetry.histogram("engine_task_execute_seconds",
                                       **task).count == shard_count
            assert telemetry.histogram("engine_dispatch_seconds",
                                       **task).count == 1
            runtime.unload("k")
            assert telemetry.gauge("engine_resident_payloads").value == 0
            assert telemetry.gauge("engine_resident_bytes").value == 0

    def test_in_process_backends_report_zero_stats(self):
        with EngineRuntime() as runtime:
            runtime.load_shards("k", [{"value_ids": [1]}])
            runtime.execute("model_denominators", "k")
            assert vars(runtime.recovery_stats) == {
                "respawns": 0, "redispatched_tasks": 0}


def _denominator_fold(runtime, key):
    """Merge the per-shard ``(ids, counts)`` replies into one counter."""
    merged = Counter()
    for ids, counts in runtime.execute("model_denominators", key):
        merged.update(dict(zip(ids, counts)))
    return merged


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

    @pytest.mark.parametrize("shard_count", [1, 2, 4, 7])
    def test_sharded_count_rows_matches_direct_count(self, shard_count):
        """Hash-sharded rows counted per shard and merged equal one direct
        count of every row."""
        rows = [(i % 11, "proto-%d" % (i % 4)) for i in range(300)]
        sharded = shard_columns({"row": rows}, "row", shard_count)
        per_shard = [Counter(shard["row"]) for shard in sharded.shards]
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


class TestRuntimeEquivalence:
    """All three engine builds, bit-identical on every shard count."""

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 5])
    def test_resident_dataset_matches_oracles(self, seed_inputs, shard_count):
        host_features, model, priors, index = seed_inputs
        with EngineRuntime(shard_count=shard_count) as runtime:
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
            # Consecutive builds reuse the resident shards.
            again = build_model_with_engine(host_features, dataset)
            assert again.denominators == built.denominators
            dataset.release()
            dataset.release()  # idempotent
            with pytest.raises(RuntimeError):
                dataset.model_counts()

    @pytest.mark.parametrize("shard_count", [4, 9])
    def test_more_shards_than_hosts(self, shard_count):
        """Empty shards fold to nothing: three hosts over more shards still
        build the oracle model, priors plan and index."""
        host_features = _three_hosts()
        model = build_model(host_features)
        columns = host_feature_columns(host_features)
        with EngineRuntime(shard_count=shard_count) as runtime:
            dataset = ResidentHostGroups(runtime, columns, 16)
            assert sum(not len(runtime._store[(dataset.key, shard)]["labels"])
                       for shard in range(shard_count)) >= shard_count - 3
            built = build_model_with_engine(columns, dataset)
            assert built.denominators == model.denominators
            assert {k: v for k, v in built.cooccurrence.items() if v} == \
                {k: v for k, v in model.cooccurrence.items() if v}
            assert build_priors_plan_with_engine(columns, built, 16,
                                                 dataset=dataset) == \
                build_priors_plan(host_features, model, 16)
            assert build_prediction_index_with_engine(
                columns, built, dataset=dataset).entries() == \
                PredictiveFeatureIndex.from_seed(host_features, model).entries()
            dataset.release()

    def test_reusing_a_key_builds_from_the_new_hosts(self, seed_inputs,
                                                     model_kernel):
        """A second dataset loaded under a key an earlier one folded on
        builds from its own hosts, on either model kernel."""
        host_features, model, priors, index = seed_inputs
        with EngineRuntime(shard_count=3) as runtime:
            earlier = host_feature_columns(_three_hosts())
            build_model_with_engine(
                earlier, ResidentHostGroups(runtime, earlier, 16, key="k"))
            dataset = ResidentHostGroups(runtime, host_features, 16, key="k")
            built = build_model_with_engine(host_features, dataset)
            assert built.denominators == model.denominators
            assert build_priors_plan_with_engine(host_features, built, 16,
                                                 dataset=dataset) == priors
            assert build_prediction_index_with_engine(
                host_features, built, dataset=dataset).entries() == index.entries()

    def test_resident_dataset_step_size_is_checked(self, seed_inputs):
        host_features, model, _, _ = seed_inputs
        with EngineRuntime() as runtime:
            dataset = ResidentHostGroups(runtime, host_features, 16)
            with pytest.raises(ValueError):
                build_priors_plan_with_engine(host_features, model, 20,
                                              dataset=dataset)

def _three_hosts():
    """Reference-path host features of three two-service hosts."""
    observations = [
        ScanObservation(ip=ip, port=port, protocol=protocol,
                        app_features={"protocol": protocol})
        for ip, ports in ((0x0A000001, (22, 80)), (0x0A000002, (80, 443)),
                          (0x0A010001, (22, 443)))
        for port, protocol in ((p, "ssh" if p == 22 else "http") for p in ports)]
    return extract_host_features(observations, None, FeatureConfig())


class TestGPSRuntimeIntegration:
    def test_config_validates_executor_names(self):
        with pytest.raises(ValueError):
            GPSConfig(executor="gpu")
        with pytest.raises(ValueError):
            GPSConfig(executor=42)
        with pytest.raises(ValueError):
            GPSConfig(shard_count=-2)

    @pytest.mark.parametrize("shard_count,resident_shards", [
        (0, 1), (1, 1), (3, 3),
    ])
    def test_config_knobs_reach_the_runtime(self, universe, shard_count,
                                            resident_shards):
        config = GPSConfig(use_engine=True, shard_count=shard_count)
        with GPS(ScanPipeline(universe), config) as gps:
            runtime = gps.runtime()
            assert runtime.executor == "serial"
            assert runtime.shard_count == resident_shards

    def test_closed_runtime_is_recreated(self, universe, censys_split):
        config = GPSConfig(seed_fraction=0.05, step_size=16, use_engine=True,
                           shard_count=2)
        with GPS(ScanPipeline(universe), config) as gps:
            first = gps.run(seed=censys_split.seed_scan_result(),
                            seed_cost_probes=0)
            closed = gps.runtime()
            gps.close()
            assert closed.closed
            fresh = gps.runtime()
            assert fresh is not closed and not fresh.closed
            assert fresh.shard_count == 2
            again = gps.run(seed=censys_split.seed_scan_result(),
                            seed_cost_probes=0)
            assert gps.runtime() is fresh
        assert fresh.closed
        assert again.priors_plan == first.priors_plan
        assert again.discovered_pairs() == first.discovered_pairs()

    def test_no_runtime_without_engine(self, universe):
        gps = GPS(ScanPipeline(universe), GPSConfig())
        assert gps.runtime() is None
        gps.close()  # safe no-op

    def test_gps_owns_one_runtime_and_closes_it(self, universe):
        config = GPSConfig(use_engine=True)
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
        sharded = run(GPSConfig(seed_fraction=0.05, step_size=16,
                                port_domain=censys_dataset.port_domain,
                                use_engine=True, shard_count=3))
        assert sharded.priors_plan == reference.priors_plan
        assert [p.pair() for p in sharded.predictions] == \
            [p.pair() for p in reference.predictions]
        assert sharded.discovered_pairs() == reference.discovered_pairs()
        assert sharded.model.denominators == reference.model.denominators

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
        engine = run(GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain,
                               use_engine=True))
        assert [p.pair() for p in engine.predictions] == \
            [p.pair() for p in reference.predictions]
