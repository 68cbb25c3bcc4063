"""Unit tests for GPS configuration and feature extraction."""

from __future__ import annotations

import pytest

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.features import (
    describe_predictor,
    extract_host_features,
    network_feature_values,
    predictor_family,
    predictor_tuples_for_observation,
)
from repro.net.asn import AsnDatabase, AsnRecord
from repro.net.ipv4 import parse_ip, subnet_key
from repro.engine.runtime import RUNTIME_EXECUTORS
from repro.scanner.records import ScanObservation


@pytest.fixture()
def asn_db():
    return AsnDatabase([AsnRecord(base=parse_ip("10.1.0.0"), prefix_len=16,
                                  asn=65001, name="TestNet")])


def _obs(ip: int, port: int, **features) -> ScanObservation:
    app = {"protocol": "http"}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=app["protocol"], app_features=app)


class TestConfigs:
    def test_feature_config_rejects_unknown_network_kind(self):
        with pytest.raises(ValueError):
            FeatureConfig(network_feature_kinds=("subnet99",))

    def test_feature_config_requires_some_family(self):
        with pytest.raises(ValueError):
            FeatureConfig(include_transport_only=False, include_app=False,
                          include_network=False, include_app_network=False)

    def test_transport_only_ablation(self):
        ablated = FeatureConfig().transport_only()
        assert ablated.include_transport_only
        assert not ablated.include_app
        assert ablated.app_feature_keys == ()

    @pytest.mark.parametrize("kwargs", [
        {"seed_fraction": 0.0},
        {"seed_fraction": 1.5},
        {"step_size": 40},
        {"probability_cutoff": -1},
        {"max_full_scans": 0},
        {"prediction_batch_size": 0},
        {"port_domain": (0,)},
        {"use_engine": True, "executor": "process"},
        {"use_engine": True, "executor": "legacy"},
        {"use_engine": True, "executor": "thread"},
        {"executor": "pool"},
    ])
    def test_gps_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            GPSConfig(**kwargs)

    @pytest.mark.parametrize("executor", RUNTIME_EXECUTORS)
    def test_engine_accepts_every_runtime_executor(self, executor):
        config = GPSConfig(use_engine=True, executor=executor)
        assert config.executor == executor


class TestNetworkFeatures:
    def test_asn_and_subnet(self, asn_db):
        ip = parse_ip("10.1.2.3")
        values = network_feature_values(ip, asn_db, ("asn", "subnet16", "subnet20"))
        assert ("asn", 65001) in values
        assert ("subnet16", subnet_key(ip, 16)) in values
        assert ("subnet20", subnet_key(ip, 20)) in values

    def test_unknown_asn_skipped(self, asn_db):
        values = network_feature_values(parse_ip("192.168.0.1"), asn_db,
                                        ("asn", "subnet16"))
        assert all(kind != "asn" for kind, _ in values)

    def test_missing_asn_db(self):
        assert network_feature_values(1, None, ("asn",)) == []

    def test_unknown_kind_rejected(self, asn_db):
        with pytest.raises(ValueError):
            network_feature_values(1, asn_db, ("bogus",))


class TestPredictorTuples:
    def test_all_four_families_emitted(self, asn_db):
        obs = _obs(parse_ip("10.1.2.3"), 80, http_server="nginx")
        net = network_feature_values(obs.ip, asn_db, ("asn",))
        tuples = predictor_tuples_for_observation(obs, net, FeatureConfig())
        families = {predictor_family(t) for t in tuples}
        assert families == {"P", "PA", "PN", "PAN"}

    def test_tuples_embed_port(self, asn_db):
        obs = _obs(parse_ip("10.1.2.3"), 8080, http_server="nginx")
        net = network_feature_values(obs.ip, asn_db, ("asn",))
        tuples = predictor_tuples_for_observation(obs, net, FeatureConfig())
        assert all(t[1] == 8080 for t in tuples)

    def test_empty_feature_values_ignored(self, asn_db):
        obs = ScanObservation(ip=parse_ip("10.1.2.3"), port=80, protocol="http",
                              app_features={"protocol": "http", "http_server": ""})
        tuples = predictor_tuples_for_observation(obs, [], FeatureConfig())
        assert ("PA", 80, "http_server", "") not in tuples

    def test_family_toggles(self, asn_db):
        obs = _obs(parse_ip("10.1.2.3"), 80, http_server="nginx")
        net = network_feature_values(obs.ip, asn_db, ("asn",))
        config = FeatureConfig(include_app=False, include_app_network=False)
        tuples = predictor_tuples_for_observation(obs, net, config)
        assert {predictor_family(t) for t in tuples} == {"P", "PN"}

    def test_describe_predictor_renderings(self):
        assert describe_predictor(("P", 80)) == "(Port 80)"
        assert "ssh_banner" in describe_predictor(("PA", 22, "ssh_banner", "x"))
        assert "asn" in describe_predictor(("PN", 22, "asn", 65001))
        assert "asn" in describe_predictor(("PAN", 22, "k", "v", "asn", 65001))


class TestExtractHostFeatures:
    def test_grouping_by_host(self, asn_db):
        observations = [
            _obs(parse_ip("10.1.2.3"), 80, http_server="nginx"),
            _obs(parse_ip("10.1.2.3"), 443, http_server="nginx"),
            _obs(parse_ip("10.1.9.9"), 22),
        ]
        hosts = extract_host_features(observations, asn_db, FeatureConfig())
        assert set(hosts) == {parse_ip("10.1.2.3"), parse_ip("10.1.9.9")}
        assert hosts[parse_ip("10.1.2.3")].open_ports() == [80, 443]

    def test_net_values_attached_to_host(self, asn_db):
        observations = [_obs(parse_ip("10.1.2.3"), 80)]
        hosts = extract_host_features(observations, asn_db,
                                      FeatureConfig(network_feature_kinds=("asn",)))
        assert hosts[parse_ip("10.1.2.3")].net_values == [("asn", 65001)]

    def test_empty_observations(self, asn_db):
        assert extract_host_features([], asn_db, FeatureConfig()) == {}
