"""Tests for the in-process execution runtime.

Covers the runtime's explicit lifecycle (idempotent close, resident data
released on unload, reloads that replace columns and drop derived caches)
and bit-identical results -- model, priors plan and prediction index -- on
the resident-dataset path, down to edge host sets.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.gps import GPS
from repro.core.model import build_model, build_model_with_engine
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import split_seed_test
from repro.engine.runtime import EngineRuntime
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

    def test_defaults(self):
        runtime = EngineRuntime()
        assert runtime.executor == "serial"
        assert not runtime.closed
        runtime.close()


class TestRuntimeLifecycle:
    def test_close_is_idempotent_and_final(self):
        runtime = EngineRuntime()
        runtime.load("k", {"value_ids": [1, 2]})
        assert _denominator_fold(runtime, "k") == Counter({1: 1, 2: 1})
        runtime.close()
        runtime.close()
        assert runtime.closed
        with pytest.raises(RuntimeError):
            runtime.execute("model_denominators", "k")
        with pytest.raises(RuntimeError):
            runtime.load("k", {"value_ids": [1]})

    def test_close_without_start_is_safe(self):
        runtime = EngineRuntime()
        runtime.close()
        assert runtime.closed

    def test_context_manager_closes(self):
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1]})
        assert runtime.closed

    def test_unknown_task_rejected_without_dispatch(self):
        with EngineRuntime() as runtime:
            with pytest.raises(KeyError):
                runtime.execute("no_such_task", "k")

    def test_unload_releases_resident_data(self):
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1]})
            runtime.execute("model_denominators", "k")
            runtime.unload("k")
            with pytest.raises(KeyError, match="no resident payload"):
                runtime.execute("model_denominators", "k")

    def test_task_error_leaves_the_runtime_usable(self):
        """A fold that raises reaches the caller and leaves the resident
        data and the runtime as they were."""
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1, 2, 2]})
            with pytest.raises(KeyError):
                # No model sides are resident: the fold cannot score.
                runtime.execute("priors_partner", "k", (None,))
            assert not runtime.closed
            assert _denominator_fold(runtime, "k") == Counter({1: 1, 2: 2})

    def test_reloading_a_key_replaces_colliding_columns(self):
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1], "labels": [2]})
            runtime.load("k", {"value_ids": [3, 3], "extra": [9]})
            assert _denominator_fold(runtime, "k") == Counter({3: 2})
            assert runtime._store["k"]["labels"] == [2]
            assert runtime._store["k"]["extra"] == [9]

    def test_reload_after_a_fold_reads_the_new_columns(self):
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1]})
            first = runtime.execute("model_denominators", "k")
            assert list(first[0]) == [1]
            runtime.load("k", {"value_ids": [3, 3]})
            ids, counts = runtime.execute("model_denominators", "k")
            assert (list(ids), list(counts)) == ([3], [2])

    def test_reload_drops_the_candidate_table(self):
        """The candidate table the priors and index folds share is cached
        in the payload; any load under the key drops it."""
        columns = host_feature_columns(_three_hosts())
        with EngineRuntime() as runtime:
            dataset = ResidentHostGroups(runtime, columns, 16)
            model = build_model_with_engine(columns, dataset)
            build_priors_plan_with_engine(columns, model, 16, dataset=dataset)
            assert "_candidates" in runtime._store[dataset.key]
            runtime.load(dataset.key, {"extra": [1]})
            assert "_candidates" not in runtime._store[dataset.key]

    def test_unload_leaves_other_keys_resident(self):
        with EngineRuntime() as runtime:
            runtime.load("a", {"value_ids": [1]})
            runtime.load("b", {"value_ids": [2]})
            runtime.unload("a")
            runtime.unload("never-loaded")  # no-op
            assert _denominator_fold(runtime, "b") == Counter({2: 1})
            with pytest.raises(KeyError, match="no resident payload"):
                runtime.execute("model_denominators", "a")

    def test_telemetry_counts_each_dispatch(self):
        telemetry = Telemetry()
        with EngineRuntime(telemetry=telemetry) as runtime:
            runtime.load("k", {"value_ids": [0, 1]})
            runtime.load("k", {"supports": [1]})
            assert telemetry.gauge("engine_resident_payloads").value == 1
            assert telemetry.histogram("engine_load_seconds").count == 2
            assert _denominator_fold(runtime, "k") == Counter(range(2))
            task = {"task": "model_denominators"}
            assert telemetry.counter("engine_tasks_total", **task).value == 1
            assert telemetry.histogram("engine_dispatch_seconds",
                                       **task).count == 1
            assert "engine_task_execute_seconds" not in telemetry.metrics.as_dict()
            runtime.unload("k")
            assert telemetry.gauge("engine_resident_payloads").value == 0
            assert telemetry.gauge("engine_resident_bytes").value == 0

    def test_in_process_backends_report_zero_stats(self):
        with EngineRuntime() as runtime:
            runtime.load("k", {"value_ids": [1]})
            runtime.execute("model_denominators", "k")
            assert vars(runtime.recovery_stats) == {
                "respawns": 0, "redispatched_tasks": 0}


def _denominator_fold(runtime, key):
    """The ``(ids, counts)`` reply of the denominator fold as a counter."""
    ids, counts = runtime.execute("model_denominators", key)
    return Counter(dict(zip(ids, counts)))


class TestRuntimeEquivalence:
    """All three engine builds, bit-identical to the oracles."""

    def test_resident_dataset_matches_oracles(self, seed_inputs):
        host_features, model, priors, index = seed_inputs
        with EngineRuntime() as runtime:
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
            # Consecutive builds reuse the resident columns.
            again = build_model_with_engine(host_features, dataset)
            assert again.denominators == built.denominators
            dataset.release()
            dataset.release()  # idempotent
            assert runtime._store == {}
            with pytest.raises(RuntimeError):
                dataset.model_counts()

    @pytest.mark.parametrize("hosts", [
        pytest.param(lambda: {}, id="zero-hosts"),
        pytest.param(lambda: {1: HostFeatures(ip=1)}, id="one-host-without-services"),
        pytest.param(lambda: _one_service_hosts(), id="only-one-service-hosts"),
        pytest.param(lambda: _three_hosts(), id="three-hosts"),
        pytest.param(lambda: _observations(((0, (1, 22)), (0xFFFFFFFF, (22, 65535)))),
                     id="hosts-at-address-and-port-extremes"),
        pytest.param(lambda: _observations(
            ((0x0A000001, (21, 22, 23, 25, 80, 110, 143, 443, 8080, 8443)),)),
            id="one-host-with-many-services"),
        pytest.param(lambda: _observations(
            tuple((0x0A000001 + ip, (22, 80)) for ip in range(5))),
            id="identical-hosts"),
        pytest.param(lambda: _observations(
            tuple(((10 + ip) << 24 | 1, (22, 80, 443)[ip % 3:] + (8080,))
                  for ip in range(6))),
            id="every-host-in-its-own-subnet"),
    ])
    def test_edge_host_sets_match_the_reference(self, hosts):
        """Model, priors plan and index match the reference on host sets
        that join nothing or almost nothing, sit at the address and port
        extremes, or put every host in one subnet group or its own."""
        host_features = hosts()
        model = build_model(host_features)
        columns = host_feature_columns(host_features)
        with EngineRuntime() as runtime:
            dataset = ResidentHostGroups(runtime, columns, 16)
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

    def test_reusing_a_key_builds_from_the_new_hosts(self, seed_inputs):
        """A second dataset loaded under a key an earlier one ran all three
        builds on builds from its own hosts."""
        host_features, model, priors, index = seed_inputs
        with EngineRuntime() as runtime:
            earlier = host_feature_columns(_three_hosts())
            first = ResidentHostGroups(runtime, earlier, 16, key="k")
            first_model = build_model_with_engine(earlier, first)
            build_priors_plan_with_engine(earlier, first_model, 16, dataset=first)
            build_prediction_index_with_engine(earlier, first_model, dataset=first)
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


def _observations(hosts):
    """Reference-path host features of ``(ip, ports)`` hosts."""
    observations = [
        ScanObservation(ip=ip, port=port, protocol=protocol,
                        app_features={"protocol": protocol})
        for ip, ports in hosts
        for port, protocol in ((p, "ssh" if p == 22 else "http") for p in ports)]
    return extract_host_features(observations, None, FeatureConfig())


def _three_hosts():
    """Reference-path host features of three two-service hosts."""
    return _observations(((0x0A000001, (22, 80)), (0x0A000002, (80, 443)),
                          (0x0A010001, (22, 443))))


def _one_service_hosts():
    """Reference-path host features of three one-service hosts."""
    return _observations(((0x0A000001, (22,)), (0x0A000002, (80,)),
                          (0x0A010001, (80,))))


class TestGPSRuntimeIntegration:
    def test_config_validates_executor_names(self):
        with pytest.raises(ValueError):
            GPSConfig(executor="gpu")
        with pytest.raises(ValueError):
            GPSConfig(executor=42)

    def test_config_knobs_reach_the_runtime(self, universe):
        config = GPSConfig(use_engine=True, executor="serial")
        with GPS(ScanPipeline(universe), config) as gps:
            assert gps.runtime().executor == "serial"

    def test_closed_runtime_is_recreated(self, universe, censys_split):
        config = GPSConfig(seed_fraction=0.05, step_size=16, use_engine=True)
        with GPS(ScanPipeline(universe), config) as gps:
            first = gps.run(seed=censys_split.seed_scan_result(),
                            seed_cost_probes=0)
            closed = gps.runtime()
            gps.close()
            assert closed.closed
            fresh = gps.runtime()
            assert fresh is not closed and not fresh.closed
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

    @pytest.mark.parametrize("name, seed_fraction, split_seed", [
        pytest.param("censys", 0.05, 1, id="censys"),
        pytest.param("lzr", 0.1, 2, id="lzr"),
    ])
    def test_end_to_end_run_matches_the_reference_run(self, universe, censys_dataset,
                                                      lzr_dataset, name, seed_fraction,
                                                      split_seed):
        dataset = {"censys": censys_dataset, "lzr": lzr_dataset}[name]
        split = split_seed_test(dataset, seed_fraction=seed_fraction, seed=split_seed)

        def run(config):
            pipeline = ScanPipeline(universe)
            with GPS(pipeline, config) as gps:
                return gps.run(seed=split.seed_scan_result(), seed_cost_probes=0)

        reference = run(GPSConfig(seed_fraction=seed_fraction, step_size=16,
                                  port_domain=dataset.port_domain))
        engine = run(GPSConfig(seed_fraction=seed_fraction, step_size=16,
                               port_domain=dataset.port_domain, use_engine=True))
        assert engine.priors_plan == reference.priors_plan
        assert [p.pair() for p in engine.predictions] == \
            [p.pair() for p in reference.predictions]
        assert engine.discovered_pairs() == reference.discovered_pairs()
        assert engine.model.denominators == reference.model.denominators

    def test_known_host_prediction_on_runtime(self, universe, censys_dataset,
                                              censys_split):
        """predict_for_known_hosts builds model + index off the resident columns."""
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
