"""Unit tests for priors-scan planning and remaining-service prediction."""

from __future__ import annotations

import pytest

from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features
from repro.core.model import build_model
from repro.core.predictions import PredictiveFeature, PredictiveFeatureIndex
from repro.core.priors import build_priors_plan, plan_bandwidth
from repro.net.ipv4 import parse_ip, subnet_key
from repro.scanner.records import ScanObservation


def _obs(ip: int, port: int, protocol: str = "http", **features) -> ScanObservation:
    app = {"protocol": protocol}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=protocol, app_features=app)


@pytest.fixture()
def camera_fleet():
    """Three /16s of camera-like hosts plus a couple of one-off hosts."""
    observations = []
    for subnet_index in range(3):
        base = parse_ip(f"10.{subnet_index}.0.0")
        for host_index in range(4):
            ip = base + host_index + 1
            observations.append(_obs(ip, 554, protocol="rtsp"))
            observations.append(_obs(ip, 37777, http_server="camera-httpd"))
    observations.append(_obs(parse_ip("10.9.0.1"), 80))  # single-service host
    observations.append(_obs(parse_ip("10.9.0.2"), 80))
    return observations


def _model_and_hosts(observations):
    hosts = extract_host_features(observations, None, FeatureConfig())
    return build_model(hosts), hosts


class TestPriorsPlan:
    def test_invalid_step_size_rejected(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        with pytest.raises(ValueError):
            build_priors_plan(hosts, model, step_size=40)

    def test_single_service_hosts_plan_their_own_port(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=16)
        single_subnet = subnet_key(parse_ip("10.9.0.1"), 16)
        assert any(entry.port == 80 and entry.subnet == single_subnet
                   for entry in plan)

    def test_multi_service_hosts_plan_most_predictive_port(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=16)
        camera_subnet = subnet_key(parse_ip("10.0.0.0"), 16)
        camera_entries = [e for e in plan if e.subnet == camera_subnet]
        # Each camera port is the best predictor of the other, so the plan has
        # one entry per port, each covering the subnet's four target services.
        assert {entry.port for entry in camera_entries} == {554, 37777}
        assert all(entry.coverage == 4 for entry in camera_entries)

    def test_plan_sorted_by_coverage(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=16)
        coverages = [entry.coverage for entry in plan]
        assert coverages == sorted(coverages, reverse=True)

    def test_port_domain_filters_entries(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=16, port_domain=(80,))
        assert all(entry.port == 80 for entry in plan)

    def test_step_size_zero_collapses_subnets(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=0)
        assert len({entry.subnet for entry in plan}) == 1

    def test_describe_and_bandwidth_helpers(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        plan = build_priors_plan(hosts, model, step_size=16)
        assert "/16" in plan[0].describe()
        assert plan_bandwidth(plan, 65536) == len(plan) * 65536
        with pytest.raises(ValueError):
            plan_bandwidth(plan, -1)


class TestPredictiveFeatureIndex:
    def test_from_seed_covers_multi_service_hosts(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        assert len(index) > 0
        predicted_ports = {port for predictor in index.predictors()
                           for port in index.targets_for(predictor)}
        assert {554, 37777} <= predicted_ports

    def test_single_service_hosts_not_in_index(self):
        observations = [_obs(1, 80), _obs(2, 80)]
        model, hosts = _model_and_hosts(observations)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        assert len(index) == 0

    def test_cutoff_excludes_weak_patterns(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        permissive = PredictiveFeatureIndex.from_seed(hosts, model,
                                                      probability_cutoff=0.0)
        strict = PredictiveFeatureIndex.from_seed(hosts, model,
                                                  probability_cutoff=1.1)
        assert len(strict) == 0
        assert len(permissive) >= len(strict)

    def test_port_domain_restricts_targets(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model, port_domain=(554,))
        targets = {port for predictor in index.predictors()
                   for port in index.targets_for(predictor)}
        assert targets == {554}

    def test_entries_sorted_by_probability(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        entries = PredictiveFeatureIndex.from_seed(hosts, model).entries()
        probabilities = [entry.probability for entry in entries]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_predict_new_host_from_banner(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        new_host = parse_ip("10.2.0.99")
        discovered = [_obs(new_host, 554, protocol="rtsp")]
        predictions = index.predict(discovered, None, FeatureConfig())
        assert (new_host, 37777) in {p.pair() for p in predictions}

    def test_predict_excludes_known_pairs(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        new_host = parse_ip("10.2.0.99")
        discovered = [_obs(new_host, 554, protocol="rtsp")]
        predictions = index.predict(discovered, None, FeatureConfig(),
                                    known_pairs={(new_host, 37777)})
        assert (new_host, 37777) not in {p.pair() for p in predictions}

    def test_predict_never_repredicts_source_port(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        new_host = parse_ip("10.2.0.99")
        predictions = index.predict([_obs(new_host, 554, protocol="rtsp")],
                                    None, FeatureConfig())
        assert all(p.port != 554 or p.ip != new_host for p in predictions)

    def test_predictions_ordered_by_probability(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        index = PredictiveFeatureIndex.from_seed(hosts, model)
        discovered = [_obs(parse_ip("10.2.0.99"), 554, protocol="rtsp"),
                      _obs(parse_ip("10.9.0.50"), 80)]
        predictions = index.predict(discovered, None, FeatureConfig())
        probabilities = [p.probability for p in predictions]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_duplicate_feature_entries_keep_max_probability(self):
        index = PredictiveFeatureIndex([
            PredictiveFeature(("P", 80), 443, 0.2),
            PredictiveFeature(("P", 80), 443, 0.7),
        ])
        assert index.targets_for(("P", 80))[443] == pytest.approx(0.7)
