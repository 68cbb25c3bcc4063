"""Unit and property tests for the synthetic universe generator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.internet.profiles import profiles_by_name
from repro.internet.topology import TopologyConfig
from repro.internet.universe import Universe, UniverseConfig, generate_universe
from repro.net.ipv4 import ip_in_prefix
from repro.net.ports import MAX_PORT


class TestUniverseConfig:
    @pytest.mark.parametrize("kwargs", [
        {"host_count": 0},
        {"pseudo_host_fraction": 1.5},
        {"middlebox_fraction": -0.1},
        {"pseudo_port_span": 0},
        {"subnet_cluster_len": 8},
        {"cluster_probability": 2.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            UniverseConfig(**kwargs)

    @pytest.mark.parametrize("span", [MAX_PORT - 1, MAX_PORT])
    def test_pseudo_port_span_leaves_a_start_port(self, span):
        # A span this wide leaves no start port for the pseudo range; it
        # used to pass here and fail inside generation with "empty range".
        with pytest.raises(ValueError, match="pseudo_port_span"):
            UniverseConfig(pseudo_port_span=span)

    def test_widest_pseudo_port_span_generates(self):
        universe = generate_universe(UniverseConfig(
            host_count=50, topology=TopologyConfig(as_count=2),
            pseudo_host_fraction=0.1, pseudo_port_span=MAX_PORT - 2))
        spans = [host.pseudo_port_range for host in universe.hosts.values()
                 if host.is_pseudo_host()]
        assert spans and all(span == (1, MAX_PORT - 2) for span in spans)

    def test_cluster_pools_per_profile_as_at_least_one(self):
        with pytest.raises(ValueError, match="cluster_pools_per_profile_as"):
            UniverseConfig(cluster_pools_per_profile_as=0)

    @pytest.mark.parametrize("fraction", [-0.1, 2.0])
    def test_pseudo_incident_fraction_in_range(self, fraction):
        with pytest.raises(ValueError, match="pseudo_incident_fraction"):
            UniverseConfig(pseudo_incident_fraction=fraction)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_unique_body_fraction_checked_at_construction(self, fraction):
        with pytest.raises(ValueError, match="unique_body_fraction"):
            UniverseConfig(unique_body_fraction=fraction)

    def test_duplicate_profile_names_rejected(self):
        camera = profiles_by_name()["ip_camera"]
        twin = replace(camera, vendor="OtherVendor")
        with pytest.raises(ValueError, match="profile names"):
            UniverseConfig(profiles=(camera, twin))

    def test_valid_edge_values_accepted(self):
        profiles = profiles_by_name()
        UniverseConfig(pseudo_port_span=1, cluster_pools_per_profile_as=1,
                       pseudo_incident_fraction=1.0, unique_body_fraction=0.0,
                       profiles=(profiles["ip_camera"], profiles["web_hosting"]))


class TestGeneration:
    def test_host_count_close_to_requested(self, universe):
        described = universe.describe()
        # Real hosts plus pseudo hosts plus middleboxes.
        assert described["hosts"] >= 1200

    def test_every_real_host_has_a_service(self, universe):
        for host in universe.hosts.values():
            if not host.is_pseudo_host() and not host.is_middlebox:
                assert host.services

    def test_service_records_consistent_with_host(self, universe):
        for host in list(universe.hosts.values())[:300]:
            for port, record in host.services.items():
                assert record.ip == host.ip
                assert record.port == port
                assert 1 <= port <= 65535
                assert record.app_features.get("protocol") == record.protocol

    def test_hosts_reside_in_their_as(self, universe):
        db = universe.topology.asn_db
        for ip, host in list(universe.hosts.items())[:300]:
            assert db.asn_of(ip) == host.asn

    def test_generation_is_deterministic(self):
        config = UniverseConfig(host_count=300, seed=9,
                                topology=TopologyConfig(as_count=4))
        first = generate_universe(config)
        second = generate_universe(config)
        assert set(first.real_service_pairs()) == set(second.real_service_pairs())

    def test_different_seeds_differ(self):
        base = dict(host_count=300, topology=TopologyConfig(as_count=4))
        first = generate_universe(UniverseConfig(seed=1, **base))
        second = generate_universe(UniverseConfig(seed=2, **base))
        assert set(first.real_service_pairs()) != set(second.real_service_pairs())

    def test_pseudo_hosts_have_wide_port_ranges(self, universe):
        pseudo = [h for h in universe.hosts.values() if h.is_pseudo_host()]
        assert pseudo, "universe should contain pseudo-service hosts"
        for host in pseudo:
            lo, hi = host.pseudo_port_range
            assert hi - lo + 1 >= 1000

    def test_middleboxes_exist_and_have_no_services(self, universe):
        middleboxes = [h for h in universe.hosts.values() if h.is_middlebox]
        assert middleboxes
        assert all(not host.services for host in middleboxes)

    def test_port_forwarded_services_have_differing_ttl(self):
        profiles = profiles_by_name()
        config = UniverseConfig(
            host_count=300, seed=3,
            topology=TopologyConfig(as_count=4),
            profiles=(profiles["random_forwarder"],),
            pseudo_host_fraction=0.0, middlebox_fraction=0.0,
        )
        universe = generate_universe(config)
        ttl_spreads = [
            len({record.ttl for record in host.services.values()})
            for host in universe.hosts.values() if len(host.services) >= 2
        ]
        assert any(spread > 1 for spread in ttl_spreads)

    def test_as_specific_ports_differ_across_ases(self):
        profiles = profiles_by_name()
        config = UniverseConfig(
            host_count=600, seed=5,
            topology=TopologyConfig(as_count=6),
            profiles=(profiles["ip_camera"],),
            pseudo_host_fraction=0.0, middlebox_fraction=0.0,
        )
        universe = generate_universe(config)
        # Collect the per-AS port sets; AS-specific bundles must not all map
        # to the same port across different ASes.
        ports_by_asn = {}
        for host in universe.hosts.values():
            ports_by_asn.setdefault(host.asn, set()).update(host.services)
        distinct_high_ports = set()
        for ports in ports_by_asn.values():
            distinct_high_ports.update(p for p in ports if p > 10000)
        assert len(distinct_high_ports) > len(ports_by_asn)


class TestQueries:
    def test_lookup_matches_ground_truth(self, universe):
        ip, port = next(iter(universe.real_service_pairs()))
        record = universe.lookup(ip, port)
        assert record is not None and record.port == port
        assert universe.lookup(ip, 1) is None or (ip, 1) in set(universe.real_service_pairs())

    def test_lookup_dark_address(self, universe):
        assert universe.lookup(1, 80) is None

    def test_syn_ack_consistency(self, universe):
        pairs = list(universe.real_service_pairs())[:200]
        assert all(universe.syn_ack(ip, port) for ip, port in pairs)

    def test_middlebox_syn_acks_everything(self, universe):
        middlebox = next(h for h in universe.hosts.values() if h.is_middlebox)
        assert universe.syn_ack(middlebox.ip, 1)
        assert universe.syn_ack(middlebox.ip, 65535)

    def test_pseudo_responsive_range(self, universe):
        host = next(h for h in universe.hosts.values() if h.is_pseudo_host())
        lo, hi = host.pseudo_port_range
        assert universe.is_pseudo_responsive(host.ip, lo)
        assert universe.is_pseudo_responsive(host.ip, hi)
        if lo > 1:
            assert not universe.is_pseudo_responsive(host.ip, lo - 1)

    def test_port_registry_matches_service_count(self, universe):
        registry = universe.port_registry()
        assert registry.total_services() == universe.service_count()

    def test_ips_on_port_sorted_and_real(self, universe):
        port = universe.port_registry().top_ports(1)[0]
        ips = universe.ips_on_port(port)
        assert ips == sorted(ips)
        assert all(port in universe.hosts[ip].services for ip in ips)

    def test_port_services_columns_match_records(self, universe):
        ports = universe.ports_in_use()
        assert sum(len(universe.port_services(port)) for port in ports) \
            == universe.service_count()
        for port in ports:
            services = universe.port_services(port)
            assert list(services.ips) == universe.ips_on_port(port)
            assert (len(services.protocols) == len(services.banner_ids)
                    == len(services.ttls) == len(services))
            for row, ip in enumerate(services.ips):
                record = universe.hosts[ip].services[port]
                assert services.protocols[row] == record.protocol
                assert services.ttls[row] == record.ttl
                assert services.banner_ids[row] == universe.banner_id_of(record)
        assert len(universe.port_services(0)) == 0

    def test_prefix_responders_split_the_sweep(self, universe):
        hosts = universe.hosts.values()
        middlebox = next(host for host in hosts if host.is_middlebox)
        pseudo = next(host for host in hosts if host.is_pseudo_host())
        top_port = universe.port_registry().top_ports(1)[0]
        for port, ip in [(top_port, middlebox.ip),
                         (pseudo.pseudo_port_range[0], pseudo.ip)]:
            base, length = ip >> 16 << 16, 16
            found = universe.prefix_responders(port, base, length)
            real = list(found.services.ips[found.start:found.stop])
            assert real == [addr for addr in universe.ips_on_port(port)
                            if ip_in_prefix(addr, base, length)]
            assert ip in found.others
            assert all(port not in universe.hosts[other].services
                       for other in found.others)
            assert found.ips() == universe.responders_in_prefix(port, base, length)
            assert len(found) == len(found.ips())

    def test_responders_in_prefix_subset_of_prefix(self, universe):
        port = universe.port_registry().top_ports(1)[0]
        system = universe.topology.systems[0]
        base, length = system.prefixes[0]
        responders = universe.responders_in_prefix(port, base, length)
        assert all(ip_in_prefix(ip, base, length) for ip in responders)
        expected_real = [ip for ip in universe.ips_on_port(port)
                         if ip_in_prefix(ip, base, length)]
        assert set(expected_real) <= set(responders)

    def test_announced_overlap_full_space(self, universe):
        assert universe.announced_overlap(0, 0) == universe.address_space_size()

    def test_announced_overlap_single_as_prefix(self, universe):
        base, length = universe.topology.systems[0].prefixes[0]
        assert universe.announced_overlap(base, length) == 2 ** (32 - length)

    def test_announced_overlap_outside_space(self, universe):
        assert universe.announced_overlap(200 << 24, 16) == 0

    def test_describe_keys(self, universe):
        description = universe.describe()
        assert {"hosts", "real_services", "ports_in_use", "pseudo_hosts",
                "middleboxes", "autonomous_systems", "address_space"} <= set(description)
