"""Tests for the engine's host groups and the runtime names left around them.

Covers bit-identical results -- model, priors plan and prediction index --
on one build's :class:`ResidentHostGroups`, down to edge host sets; the
release of its columns; and ``GPS.runtime()``'s all-zero recovery counters.
"""

from __future__ import annotations

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
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ScanObservation
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


class TestRuntimeLifecycle:
    def test_in_process_backends_report_zero_stats(self, universe):
        with GPS(ScanPipeline(universe), GPSConfig(use_engine=True)) as gps:
            assert vars(gps.runtime().recovery_stats) == {
                "respawns": 0, "redispatched_tasks": 0}


class TestRuntimeEquivalence:
    """All three engine builds, bit-identical to the oracles."""

    def test_resident_dataset_matches_oracles(self, seed_inputs):
        host_features, model, priors, index = seed_inputs
        dataset = ResidentHostGroups(host_features, 16)
        built = build_model_with_engine(dataset)
        assert built.denominators == model.denominators
        assert {k: v for k, v in built.cooccurrence.items() if v} == \
            {k: v for k, v in model.cooccurrence.items() if v}
        assert build_priors_plan_with_engine(dataset, built, 16) == priors
        rebuilt = build_prediction_index_with_engine(dataset, built)
        assert rebuilt.entries() == index.entries()
        # Consecutive builds reuse the same columns.
        again = build_model_with_engine(dataset)
        assert again.denominators == built.denominators
        dataset.release()
        dataset.release()  # idempotent
        assert dataset.columns is None and dataset.candidates is None
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
        dataset = ResidentHostGroups(columns, 16)
        built = build_model_with_engine(dataset)
        assert built.denominators == model.denominators
        assert {k: v for k, v in built.cooccurrence.items() if v} == \
            {k: v for k, v in model.cooccurrence.items() if v}
        assert build_priors_plan_with_engine(dataset, built, 16) == \
            build_priors_plan(host_features, model, 16)
        assert build_prediction_index_with_engine(dataset, built).entries() == \
            PredictiveFeatureIndex.from_seed(host_features, model).entries()
        dataset.release()

    def test_resident_dataset_step_size_is_checked(self, seed_inputs):
        host_features, model, _, _ = seed_inputs
        dataset = ResidentHostGroups(host_features, 16)
        with pytest.raises(ValueError):
            build_priors_plan_with_engine(dataset, model, 20)


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

    def test_repeated_runs_on_one_gps_match(self, universe, censys_split):
        """Each run builds and releases its own host groups, so a second run
        on the same GPS finds what the first did."""
        config = GPSConfig(seed_fraction=0.05, step_size=16, use_engine=True)
        with GPS(ScanPipeline(universe), config) as gps:
            first = gps.run(seed=censys_split.seed_scan_result(),
                            seed_cost_probes=0)
            again = gps.run(seed=censys_split.seed_scan_result(),
                            seed_cost_probes=0)
        assert again.priors_plan == first.priors_plan
        assert again.discovered_pairs() == first.discovered_pairs()

    def test_no_runtime_without_engine(self, universe):
        gps = GPS(ScanPipeline(universe), GPSConfig())
        assert gps.runtime() is None
        gps.close()  # safe no-op

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
