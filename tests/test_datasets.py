"""Unit tests for ground-truth dataset builders, splitting and I/O."""

from __future__ import annotations

import pytest

from repro.datasets.builders import build_censys_like, build_full_dataset, build_lzr_like
from repro.datasets.io import (
    load_observation_batch,
    load_observations_jsonl,
    observation_from_dict,
    observation_to_dict,
    save_observations_jsonl,
)
from repro.datasets.split import seed_scan_cost_probes, split_seed_test
from repro.scanner.records import ScanObservation


class TestBuilders:
    def test_full_dataset_matches_universe(self, universe):
        dataset = build_full_dataset(universe)
        assert dataset.service_count() == universe.service_count()
        assert dataset.pairs() == set(universe.real_service_pairs())
        assert dataset.sample_fraction == 1.0

    def test_censys_like_covers_top_ports_only(self, universe, censys_dataset):
        registry = universe.port_registry()
        top_ports = set(registry.top_ports(len(censys_dataset.port_domain)))
        assert set(censys_dataset.port_domain) == top_ports
        assert all(port in top_ports for _, port in censys_dataset.pairs())

    def test_censys_like_is_100_percent_within_domain(self, universe, censys_dataset):
        domain = set(censys_dataset.port_domain)
        expected = {(ip, port) for ip, port in universe.real_service_pairs()
                    if port in domain}
        assert censys_dataset.pairs() == expected

    def test_censys_like_rejects_bad_top_ports(self, universe):
        with pytest.raises(ValueError):
            build_censys_like(universe, top_ports=0)

    def test_lzr_like_sample_and_port_filter(self, universe, lzr_dataset):
        # Ports kept must have at least three responsive addresses in the sample.
        registry = lzr_dataset.port_registry()
        assert all(count >= 3 for count in registry.counts.values())
        assert 0.0 < lzr_dataset.sample_fraction <= 0.25
        assert lzr_dataset.service_count() < universe.service_count()

    def test_lzr_like_rejects_bad_fraction(self, universe):
        with pytest.raises(ValueError):
            build_lzr_like(universe, sample_fraction=0.0)

    def test_restricted_to_ports(self, censys_dataset):
        ports = list(censys_dataset.port_domain)[:5]
        restricted = censys_dataset.restricted_to_ports(ports)
        assert set(restricted.port_domain) == set(ports)
        assert all(port in set(ports) for _, port in restricted.pairs())

    def test_filtered_min_responsive_ips(self, censys_dataset):
        filtered = censys_dataset.filtered_min_responsive_ips(5)
        registry = filtered.port_registry()
        assert all(count >= 5 for count in registry.counts.values())

    def test_dataset_accessors(self, censys_dataset):
        assert censys_dataset.ips() == sorted(set(censys_dataset.ips()))
        assert censys_dataset.port_registry().total_services() == \
            len(censys_dataset.pairs())


class TestSplit:
    def test_split_partitions_by_address(self, censys_dataset):
        split = split_seed_test(censys_dataset, seed_fraction=0.1, seed=3)
        seed_ips = {obs.ip for obs in split.seed_observations}
        test_ips = {obs.ip for obs in split.test_observations}
        assert not seed_ips & test_ips
        assert len(split.seed_observations) + len(split.test_observations) == \
            censys_dataset.service_count()

    def test_split_fraction_controls_size(self, censys_dataset):
        small = split_seed_test(censys_dataset, seed_fraction=0.02, seed=3)
        large = split_seed_test(censys_dataset, seed_fraction=0.3, seed=3)
        assert len(small.seed_observations) < len(large.seed_observations)

    def test_split_rejects_fraction_beyond_dataset_coverage(self, lzr_dataset):
        with pytest.raises(ValueError):
            split_seed_test(lzr_dataset, seed_fraction=lzr_dataset.sample_fraction * 2)

    def test_split_is_deterministic(self, censys_dataset):
        first = split_seed_test(censys_dataset, seed_fraction=0.1, seed=9)
        second = split_seed_test(censys_dataset, seed_fraction=0.1, seed=9)
        assert first.seed_ips == second.seed_ips

    def test_seed_scan_result_wrapper(self, censys_dataset):
        split = split_seed_test(censys_dataset, seed_fraction=0.1, seed=3)
        seed_result = split.seed_scan_result()
        assert len(seed_result.observations) == len(split.seed_observations)
        assert seed_result.ports_scanned == censys_dataset.port_domain

    def test_seed_scan_cost(self, censys_dataset, lzr_dataset):
        censys_cost = seed_scan_cost_probes(censys_dataset, 0.01)
        expected = int(round(0.01 * censys_dataset.address_space_size
                             * len(censys_dataset.port_domain)))
        assert censys_cost == expected
        lzr_cost = seed_scan_cost_probes(lzr_dataset, 0.01)
        assert lzr_cost == int(round(0.01 * lzr_dataset.address_space_size * 65535))
        with pytest.raises(ValueError):
            seed_scan_cost_probes(censys_dataset, 0.0)


class TestIO:
    def test_roundtrip_via_dicts(self):
        obs = ScanObservation(ip=7, port=80, protocol="http",
                              app_features={"http_server": "nginx"}, ttl=128)
        assert observation_from_dict(observation_to_dict(obs)) == obs

    def test_jsonl_roundtrip(self, tmp_path, censys_split):
        path = tmp_path / "seed.jsonl"
        sample = censys_split.seed_observations[:50]
        written = save_observations_jsonl(sample, path)
        assert written == len(sample)
        loaded = load_observations_jsonl(path)
        assert [obs.pair() for obs in loaded] == [obs.pair() for obs in sample]
        assert loaded[0].app_features == dict(sample[0].app_features)

    def test_malformed_record_rejected(self):
        with pytest.raises(ValueError):
            observation_from_dict({"ip": 1})
        with pytest.raises(ValueError):
            observation_from_dict({"ip": 1, "port": 99999, "protocol": "http"})
        with pytest.raises(ValueError):
            observation_from_dict({"ip": 1, "port": 80, "protocol": "http",
                                   "app_features": "not-a-dict"})

    def test_malformed_json_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": 1, "port": 80, "protocol": "http"}\nnot json\n')
        with pytest.raises(ValueError):
            load_observations_jsonl(path)

    @pytest.mark.parametrize("load", [load_observations_jsonl,
                                      load_observation_batch])
    def test_null_ttl_is_a_value_error(self, tmp_path, load):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": 1, "port": 80, "protocol": "http", "ttl": null}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1: malformed"):
            load(path)

    @pytest.mark.parametrize("load", [load_observations_jsonl,
                                      load_observation_batch])
    @pytest.mark.parametrize("ip", [-5, 2**32])
    def test_address_outside_ipv4_rejected(self, tmp_path, load, ip):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": %d, "port": 80, "protocol": "http"}\n' % ip)
        with pytest.raises(ValueError, match="bad.jsonl:1: invalid address"):
            load(path)

    @pytest.mark.parametrize("load", [load_observations_jsonl,
                                      load_observation_batch])
    @pytest.mark.parametrize("fields, error", [
        pytest.param('"ip": 1, "port": 80, "ttl": 18446744073709551616',
                     "invalid TTL", id="ttl-2**64"),
        pytest.param('"ip": 1, "port": 80, "ttl": -3', "invalid TTL", id="negative-ttl"),
        pytest.param('"ip": 1, "port": 80, "ttl": 64.0', "ttl must be an integer",
                     id="float-ttl"),
        pytest.param('"ip": 2.7, "port": 80', "ip must be an integer", id="float-ip"),
        pytest.param('"ip": 1, "port": 80.9', "port must be an integer", id="float-port"),
        pytest.param('"ip": true, "port": 80', "ip must be an integer", id="bool-ip"),
        pytest.param('"ip": "1", "port": 80', "ip must be an integer", id="string-ip"),
    ])
    def test_bad_numbers_rejected(self, tmp_path, load, fields, error):
        path = tmp_path / "bad.jsonl"
        path.write_text('{%s, "protocol": "http"}\n' % fields)
        with pytest.raises(ValueError, match=f"bad.jsonl:1: .*{error}"):
            load(path)

    @pytest.mark.parametrize("load", [load_observations_jsonl,
                                      load_observation_batch])
    def test_record_error_names_the_line(self, tmp_path, load):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ip": 1, "port": 80, "protocol": "http"}\n'
                        '{"ip": 2, "port": 0, "protocol": "http"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2: invalid port"):
            load(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"ip": 1, "port": 80, "protocol": "http"}\n\n')
        assert len(load_observations_jsonl(path)) == 1
