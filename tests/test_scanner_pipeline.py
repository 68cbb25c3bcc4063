"""Integration tests for the end-to-end scan pipeline."""

from __future__ import annotations

import random

import pytest

from repro.internet.topology import AutonomousSystem, Topology
from repro.internet.universe import Universe, UniverseConfig
from repro.net.ipv4 import prefix_size
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.filtering import PseudoServiceFilter
from repro.scanner.pipeline import ScanPipeline


def _randrange_sample(universe, fraction, rng):
    """The per-pick reference sampler: one ``randrange`` per draw, mapped to
    its announcement by walking the prefixes in order."""
    ranges = [(base, prefix_size(length))
              for system in universe.topology.systems
              for base, length in system.prefixes]
    total = sum(size for _, size in ranges)
    count = min(max(1, int(round(total * fraction))), total)
    picks = set()
    while len(picks) < count:
        offset = rng.randrange(total)
        for base, size in ranges:
            if offset < size:
                picks.add(base + offset)
                break
            offset -= size
    return sorted(picks)


def _universe_of(*prefixes):
    """A host-less universe announcing ``prefixes`` from one AS."""
    system = AutonomousSystem(asn=1, name="hand", category="isp",
                              prefixes=tuple(prefixes))
    return Universe({}, Topology([system]), UniverseConfig(host_count=1))


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

    @pytest.mark.parametrize("fraction", [0.001, 0.05, 0.25])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_picks_match_randrange_reference(self, universe, pipeline, seed,
                                             fraction):
        assert (pipeline.sample_addresses(fraction, random.Random(seed))
                == _randrange_sample(universe, fraction, random.Random(seed)))

    def test_full_fraction_on_a_small_universe(self):
        universe = _universe_of((10 << 24, 24), (11 << 24, 26), (12 << 24, 30))
        sample = ScanPipeline(universe).sample_addresses(1.0, random.Random(3))
        assert sample == _randrange_sample(universe, 1.0, random.Random(3))
        assert len(sample) == 256 + 64 + 4

    @pytest.mark.parametrize("prefixes, fraction, bits", [
        (((10 << 24, 32),), 0.5, 1),
        (((10 << 24, 13),), 0.01, 20),
        (((0, 2), (1 << 31, 1)), 2e-6, 32),
        (((0, 0),), 1e-6, 33),
    ], ids=["1-bit", "20-bit", "32-bit", "33-bit"])
    def test_picks_match_randrange_reference_across_bit_lengths(
            self, prefixes, fraction, bits):
        universe = _universe_of(*prefixes)
        total = sum(prefix_size(length) for _, length in prefixes)
        assert total.bit_length() == bits
        for seed in (0, 5):
            assert (ScanPipeline(universe).sample_addresses(
                fraction, random.Random(seed))
                == _randrange_sample(universe, fraction, random.Random(seed)))

    @pytest.mark.timeout(30)
    def test_nested_announcements_return_every_distinct_address(self):
        # A /25 inside a /24: 384 offsets but 256 distinct addresses.  The
        # sampler must stop at the distinct count rather than wait forever
        # for addresses that do not exist.
        base = 10 << 24
        universe = _universe_of((base, 24), (base, 25))
        assert universe.announced_overlap(base, 24) == 384
        assert universe.distinct_announced() == 256
        sample = ScanPipeline(universe).sample_addresses(1.0, random.Random(0))
        assert sample == list(range(base, base + 256))


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
