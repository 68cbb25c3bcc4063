"""Equivalence tests for the engine-backed priors planner.

The load-bearing property: :func:`repro.core.priors.build_priors_plan_with_engine`
is *defined* as producing exactly the ordered
:class:`~repro.core.priors.PriorsEntry` list of the reference
:func:`~repro.core.priors.build_priors_plan` oracle -- on handcrafted hosts,
on randomized observation sets (hypothesis), for every step size / port
domain, and across the serial and pool runtime executors and shard
counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.model import CooccurrenceModel, build_model
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.runtime import EngineRuntime
from repro.net.ipv4 import parse_ip
from repro.scanner.records import ScanObservation
from tests.conftest import (ENGINE_LAYOUTS, engine_builds, host_feature_columns,
                            resident_dataset)


def _obs(ip: int, port: int, protocol: str = "http", **features) -> ScanObservation:
    app = {"protocol": protocol}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=protocol, app_features=app)


def _model_and_hosts(observations):
    hosts = extract_host_features(observations, None, FeatureConfig())
    return build_model(hosts), hosts


def _engine_plan(hosts, model, step_size=16, port_domain=None, executor="serial",
                 **runtime_kwargs):
    with resident_dataset(hosts, executor, step_size,
                          **runtime_kwargs) as (columns, dataset):
        return build_priors_plan_with_engine(columns, model, step_size, port_domain,
                                             dataset=dataset)


@pytest.fixture()
def camera_fleet():
    """Multi-service camera subnets plus single- and three-service hosts."""
    observations = []
    for subnet_index in range(3):
        base = parse_ip(f"10.{subnet_index}.0.0")
        for host_index in range(4):
            ip = base + host_index + 1
            observations.append(_obs(ip, 554, protocol="rtsp"))
            observations.append(_obs(ip, 37777, http_server="camera-httpd"))
            if host_index % 2:
                observations.append(_obs(ip, 80, http_server="camera-httpd"))
    observations.append(_obs(parse_ip("10.9.0.1"), 80))
    observations.append(_obs(parse_ip("10.9.0.2"), 80))
    return observations


class TestEnginePriorsEquivalence:
    @pytest.mark.parametrize("step_size", [0, 8, 16, 24, 32])
    def test_matches_reference_across_step_sizes(self, camera_fleet, step_size):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, step_size)
        assert _engine_plan(hosts, model, step_size) == expected

    @pytest.mark.parametrize("port_domain", [None, (80,), (554, 37777), (9999,)])
    def test_matches_reference_with_port_domain(self, camera_fleet, port_domain):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16, port_domain)
        assert _engine_plan(hosts, model, 16, port_domain) == expected

    @pytest.mark.parametrize("executor,workers,shard_count", [
        ("serial", 1, 0), ("serial", 1, 5), ("serial", 2, 7), ("pool", 2, 0),
    ])
    def test_matches_reference_across_executors(self, camera_fleet, executor,
                                                workers, shard_count):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, executor=executor, num_workers=workers,
                            shard_count=shard_count) == expected

    @pytest.mark.parametrize("executor,shard_count", ENGINE_LAYOUTS)
    def test_engine_built_model_feeds_identical_plan(self, camera_fleet, executor,
                                                     shard_count, model_kernel):
        model, hosts = _model_and_hosts(camera_fleet)
        _, plan, _ = engine_builds(hosts, executor, num_workers=2,
                                   shard_count=shard_count)
        assert plan == build_priors_plan(hosts, model, 16)

    def test_invalid_step_size_rejected(self, camera_fleet):
        _, hosts = _model_and_hosts(camera_fleet)
        with EngineRuntime() as runtime:
            with pytest.raises(ValueError, match="prefix length"):
                ResidentHostGroups(runtime, host_feature_columns(hosts), 40)

    def test_step_size_must_match_dataset(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        with resident_dataset(hosts, step_size=16) as (columns, dataset):
            with pytest.raises(ValueError):
                build_priors_plan_with_engine(columns, model, 24, dataset=dataset)

    def test_empty_hosts(self):
        assert _engine_plan({}, CooccurrenceModel()) == []

    def test_host_without_services_contributes_nothing(self):
        hosts = {1: HostFeatures(ip=1)}
        assert _engine_plan(hosts, CooccurrenceModel()) == []

    def test_foreign_model_with_unknown_predictors(self, camera_fleet):
        # A model trained on different observations: most predictors miss,
        # exercising the zero-support path on both implementations.
        model, _ = _model_and_hosts([_obs(500, 22, protocol="ssh"),
                                     _obs(500, 2222, protocol="ssh"),
                                     _obs(501, 22, protocol="ssh")])
        _, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model) == expected


# Random observation sets: a few hosts, a few ports, shared banner values so
# predictors overlap across hosts (the regime where partner selection has
# real ties to break deterministically).
observation_sets = st.lists(
    st.tuples(st.integers(0, 9),                      # host index
              st.sampled_from([22, 80, 443, 554, 8080]),
              st.sampled_from(["http", "ssh", "rtsp"]),
              st.sampled_from(["srv-a", "srv-b", ""])),
    min_size=1, max_size=60,
)


class TestRandomizedEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(observation_sets, st.sampled_from([0, 12, 16, 24, 32]),
           st.sampled_from([None, (80, 443), (22, 554, 8080)]))
    def test_engine_equals_reference(self, rows, step_size, port_domain):
        observations = []
        seen = set()
        for host_index, port, protocol, server in rows:
            if (host_index, port) in seen:
                continue
            seen.add((host_index, port))
            # Spread hosts over several /16s with some sharing a subnet.
            ip = parse_ip("10.0.0.0") + host_index * 40000
            features = {"http_server": server} if server else {}
            observations.append(_obs(ip, port, protocol=protocol, **features))
        model, hosts = _model_and_hosts(observations)
        expected = build_priors_plan(hosts, model, step_size, port_domain)
        assert _engine_plan(hosts, model, step_size, port_domain) == expected

    @settings(deadline=None, max_examples=20)
    @given(observation_sets, st.integers(1, 6))
    def test_sharded_engine_equals_reference(self, rows, shard_count):
        observations = []
        seen = set()
        for host_index, port, protocol, server in rows:
            if (host_index, port) in seen:
                continue
            seen.add((host_index, port))
            ip = parse_ip("10.0.0.0") + host_index * 7 + 1
            features = {"http_server": server} if server else {}
            observations.append(_obs(ip, port, protocol=protocol, **features))
        model, hosts = _model_and_hosts(observations)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, num_workers=2,
                            shard_count=shard_count) == expected
