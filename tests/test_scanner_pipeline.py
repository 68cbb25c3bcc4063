"""Integration tests for the end-to-end scan pipeline."""

from __future__ import annotations

import pytest

from repro.scanner.bandwidth import ScanCategory
from repro.scanner.filtering import PseudoServiceFilter
from repro.scanner.pipeline import ScanPipeline


class TestSampling:
    def test_sample_fraction_bounds(self, pipeline):
        import random
        with pytest.raises(ValueError):
            pipeline.sample_addresses(0.0, random.Random(0))
        with pytest.raises(ValueError):
            pipeline.sample_addresses(1.5, random.Random(0))

    def test_sample_size_and_membership(self, universe, pipeline):
        import random
        sample = pipeline.sample_addresses(0.01, random.Random(0))
        expected = int(round(universe.address_space_size() * 0.01))
        assert len(sample) == expected
        assert len(set(sample)) == len(sample)
        assert all(universe.topology.asn_db.lookup(ip) is not None for ip in sample[:50])


class TestSeedScan:
    def test_seed_scan_charges_all_port_probes(self, universe, pipeline):
        result = pipeline.seed_scan(sample_fraction=0.002, seed=1)
        sampled = len(result.sampled_ips)
        assert pipeline.ledger.total_probes(ScanCategory.SEED) >= sampled * 65535
        # Every observation corresponds to a real or pseudo responder.
        for obs in result.observations[:50]:
            assert (universe.lookup(obs.ip, obs.port) is not None
                    or universe.is_pseudo_responsive(obs.ip, obs.port))

    def test_seed_scan_port_subset(self, universe, pipeline):
        ports = universe.port_registry().top_ports(5)
        result = pipeline.seed_scan(sample_fraction=0.002, seed=2, ports=ports)
        assert all(obs.port in set(ports) for obs in result.observations)
        sampled = len(result.sampled_ips)
        assert pipeline.ledger.total_probes(ScanCategory.SEED) >= sampled * len(ports)

    def test_seed_scan_filter_toggle(self, universe):
        unfiltered = ScanPipeline(universe).seed_scan(0.01, seed=3, apply_filter=False)
        filtered = ScanPipeline(universe).seed_scan(0.01, seed=3, apply_filter=True)
        assert len(filtered.observations) <= len(unfiltered.observations)
        report = PseudoServiceFilter().apply(unfiltered.observations)
        assert report.removed_count() > 0
        assert filtered.removed_pseudo_services == report.removed_count()
        assert filtered.observations == report.kept

    def test_seed_scan_deterministic_given_seed(self, universe):
        first = ScanPipeline(universe).seed_scan(0.005, seed=4)
        second = ScanPipeline(universe).seed_scan(0.005, seed=4)
        assert ([o.pair() for o in first.observations]
                == [o.pair() for o in second.observations])


class TestPrefixAndPairScans:
    def test_scan_prefix_returns_real_services(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        system = universe.topology.systems[0]
        base, length = system.prefixes[0]
        observations = pipeline.scan_prefix(port, (base, length))
        expected = {ip for ip in universe.ips_on_port(port)
                    if universe.topology.asn_db.asn_of(ip) == system.asn}
        assert expected <= {obs.ip for obs in observations} | set()
        assert all(obs.port == port for obs in observations)

    def test_scan_prefix_accepts_subnet_key(self, universe, pipeline):
        from repro.net.ipv4 import subnet_key
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        by_tuple = pipeline.scan_prefix(port, (base, length))
        by_key = pipeline.scan_prefix(port, subnet_key(base, length))
        assert {o.pair() for o in by_tuple} == {o.pair() for o in by_key}

    def test_scan_pairs_only_returns_probed_targets(self, universe, pipeline):
        pairs = list(universe.real_service_pairs())[:30] + [(1, 80), (2, 443)]
        observations = pipeline.scan_pairs(pairs)
        assert {obs.pair() for obs in observations} <= set(pairs)
        # One SYN per pair plus the LZR/ZGrab handshake packets for responders.
        probes = pipeline.ledger.total_probes(ScanCategory.PREDICTION)
        assert len(pairs) <= probes <= len(pairs) * 7

    def test_ledger_accumulates_across_calls(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        pipeline.scan_prefix(port, (base, length))
        first = pipeline.ledger.total_probes()
        pipeline.scan_pairs(list(universe.real_service_pairs())[:10])
        assert pipeline.ledger.total_probes() > first
