"""Equivalence tests for the engine-backed priors planner.

The load-bearing property: :func:`repro.core.priors.build_priors_plan_with_engine`
is *defined* as producing exactly the ordered
:class:`~repro.core.priors.PriorsEntry` list of the reference
:func:`~repro.core.priors.build_priors_plan` oracle -- on handcrafted hosts,
on randomized observation sets (hypothesis), and for every step size / port
domain.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.encoding import DictionaryEncoder
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


def _engine_plan(hosts, model, step_size=16, port_domain=None, executor="serial"):
    with resident_dataset(hosts, executor, step_size) as (columns, dataset):
        return build_priors_plan_with_engine(dataset, model, step_size, port_domain)


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

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_matches_reference_across_executors(self, camera_fleet, executor):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, executor=executor) == expected

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_built_model_feeds_identical_plan(self, camera_fleet, executor):
        model, hosts = _model_and_hosts(camera_fleet)
        _, plan, _ = engine_builds(hosts, executor)
        assert plan == build_priors_plan(hosts, model, 16)

    def test_invalid_step_size_rejected(self, camera_fleet):
        _, hosts = _model_and_hosts(camera_fleet)
        with pytest.raises(ValueError, match="prefix length"):
            ResidentHostGroups(host_feature_columns(hosts), 40)

    def test_step_size_must_match_dataset(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        with resident_dataset(hosts, step_size=16) as (columns, dataset):
            with pytest.raises(ValueError):
                build_priors_plan_with_engine(dataset, model, 24)

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
    @given(observation_sets)
    def test_engine_equals_reference_within_one_subnet(self, rows):
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
        assert _engine_plan(hosts, model) == expected


def _hosts(*hosts):
    """Hand-built host features: ``(ip, {port: [predictor, ...]})`` pairs."""
    return {ip: HostFeatures(ip=ip, ports={port: list(predictors)
                                           for port, predictors in ports.items()})
            for ip, ports in hosts}


class TestPartnerTieBreaks:
    """Handcrafted partner selections, each checked against the oracle and
    against the partner the Section 5.3 rule names."""

    @staticmethod
    def _check(hosts, model, expected, port_domain=None):
        plan = _engine_plan(hosts, model, 16, port_domain)
        assert plan == build_priors_plan(hosts, model, 16, port_domain)
        assert {(entry.port, entry.coverage) for entry in plan} == expected

    def test_all_zero_scores_take_the_smallest_other_port(self):
        hosts = _hosts((1, {22: [("a",)], 80: [("b",)], 443: [("c",)]}))
        model = CooccurrenceModel(cooccurrence={},
                                  denominators={("a",): 1, ("b",): 1, ("c",): 1})
        # 22 -> 80, 80 -> 22, 443 -> 22.
        self._check(hosts, model, {(22, 2), (80, 1)})

    def test_equal_scores_go_to_the_smallest_partner_port(self):
        hosts = _hosts((1, {22: [("a",)], 80: [("b",)], 443: [("c",)]}))
        model = CooccurrenceModel(
            cooccurrence={("a",): {443: 1}, ("b",): {443: 2}, ("c",): {22: 1}},
            denominators={("a",): 2, ("b",): 4, ("c",): 2})
        # 443: ("a") and ("b") both score 0.5 -> 22; 22: only ("c") scores
        # -> 443; 80: nothing scores -> 22.
        self._check(hosts, model, {(22, 2), (443, 1)})

    def test_two_service_host_counts_the_other_port(self):
        hosts = _hosts((1, {22: [("a",)], 80: [("b",)]}))
        model = CooccurrenceModel(cooccurrence={("a",): {80: 1}},
                                  denominators={("a",): 1, ("b",): 1})
        # 22 scores 0 from 80's values and still takes 80; 80 takes 22.
        self._check(hosts, model, {(22, 1), (80, 1)})

    def test_whitelist_applies_to_partner_and_single_service_hosts(self):
        hosts = _hosts((1, {22: [("a",)], 80: [("b",)], 443: [("c",)]}),
                       (2, {8080: [("d",)]}),
                       (3, {443: [("c",)]}))
        model = CooccurrenceModel(
            cooccurrence={("a",): {80: 1, 443: 1}, ("b",): {22: 1, 443: 1},
                          ("c",): {22: 1, 80: 1}},
            denominators={("a",): 1, ("b",): 1, ("c",): 2, ("d",): 1})
        # Unfiltered: 22 -> 80, 80 -> 22, 443 -> 22 (tie), 8080 and 443 alone.
        self._check(hosts, model, {(22, 2), (80, 1), (8080, 1), (443, 1)})
        # The whitelist drops selected partners (80) and lone services (8080)
        # outside it; it never redirects a selection.
        self._check(hosts, model, {(22, 2), (443, 1)}, port_domain=(22, 443))

    def test_own_port_in_a_row_never_scores_for_its_own_service(self):
        hosts = _hosts((1, {22: [("a",)], 80: [("b",)], 443: [("c",)]}))
        # ("c",) claims to predict its own port 443 perfectly; 443's partner
        # must still come from 22's and 80's values.
        model = CooccurrenceModel(
            cooccurrence={("a",): {443: 1}, ("b",): {443: 1}, ("c",): {443: 2}},
            denominators={("a",): 4, ("b",): 2, ("c",): 2})
        # 443 -> 80 (0.5 beats 0.25; its own 1.0 does not count); 22 and 80
        # score 0 -> the smallest other port.
        self._check(hosts, model, {(80, 2), (22, 1)})


class TestPackingBounds:
    """Both folds at the edges of their packed keys, against the oracles."""

    @staticmethod
    def _check(hosts, step_size=16, encoder=None, model=None):
        model = build_model(hosts) if model is None else model
        columns = host_feature_columns(hosts, encoder)
        with resident_dataset(columns, "serial", step_size) as (_, dataset):
            plan = build_priors_plan_with_engine(dataset, model, step_size)
            index = build_prediction_index_with_engine(dataset, model)
            engine_model = build_model_with_engine(dataset)
            engine_plan = build_priors_plan_with_engine(dataset, engine_model, step_size)
            engine_index = build_prediction_index_with_engine(dataset, engine_model)
        expected_plan = build_priors_plan(hosts, model, step_size)
        expected_index = PredictiveFeatureIndex.from_seed(hosts, model).entries()
        assert plan == engine_plan == expected_plan
        assert index.entries() == engine_index.entries() == expected_index
        return expected_plan, expected_index

    @staticmethod
    def _edge_hosts():
        top = parse_ip("255.255.255.254")
        return _hosts(
            (top, {1: [("P", 1), ("x",)], 65535: [("P", 65535), ("x", 2)]}),
            (top + 1, {1: [("P", 1), ("x",)], 65535: [("P", 65535), ("x", 2)],
                       80: [("P", 80)]}),
            (5, {1: [("P", 1)]}))

    def test_top_addresses_and_extreme_ports(self):
        plan, index = self._check(self._edge_hosts())
        assert {entry.port for entry in plan} >= {1, 65535}
        assert {feature.target_port for feature in index} >= {1, 65535}

    @pytest.mark.parametrize("step_size", [0, 32])
    def test_extreme_step_sizes(self, step_size):
        plan, _ = self._check(self._edge_hosts(), step_size=step_size)
        if step_size == 32:
            # The /32 subnet key of 255.255.255.255 needs 38 bits.
            assert max(entry.subnet for entry in plan) >= 1 << 37

    def test_predictor_ids_past_the_port_base(self):
        encoder = DictionaryEncoder()
        for filler in range(70_000):
            encoder.encode(("filler", filler))
        self._check(self._edge_hosts(), encoder=encoder)

    def test_model_port_outside_the_packing_base_is_rejected(self):
        hosts = self._edge_hosts()
        model = build_model(hosts)
        model.cooccurrence[("P", 1)][65536] = 1
        with resident_dataset(hosts) as (columns, dataset):
            with pytest.raises(ValueError, match="0-65535"):
                build_priors_plan_with_engine(dataset, model, 16)
