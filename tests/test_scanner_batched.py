"""Equivalence tests for the columnar scan path.

Every production scan shape (``ScanPipeline.seed_scan``, ``scan_prefix`` and
the batched ``scan_pairs``) runs the columnar layers.  The batched
``scan_pairs`` resolves its targets against the universe's packed
``ServiceIndex`` (``ZMapSimulator.scan_pair_columns`` ->
``LZRSimulator.fingerprint_resolved`` -> ``ZGrabSimulator.grab_resolved``);
the seed sweep runs ``LZRSimulator.fingerprint_batch_columns`` ->
``ZGrabSimulator.grab_batch_columns``; every shape ends in
``ObservationBatch`` and the columnar pseudo filter.  They are *defined* as
equivalent to the per-pair layer chain (``zmap.scan_pairs`` /
``zmap.scan_prefix`` -> ``fingerprint_many`` -> ``grab_many`` -> ``filter``):
same probes sent, same services observed, identical bandwidth-ledger charges.
Every test here compares the two on the same targets, including the
miss-heavy mixes (dark addresses, closed ports, middleboxes, pseudo services)
a real scan probes, lossless and under seeded probe loss.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.split import seed_scan_cost_probes
from repro.engine.faults import FaultPlan
from repro.internet.topology import AutonomousSystem, Topology
from repro.internet.universe import Host, ServiceRecord, Universe, UniverseConfig
from repro.net.ipv4 import subnet_key
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import (
    MIDDLEBOX_SAMPLE_PORTS,
    MIDDLEBOX_SUSPECT_PORT_COUNT,
    ScanPipeline,
)
from repro.scanner.records import group_order, group_pairs
from repro.telemetry import Telemetry

#: Seeded probe loss with a retry budget that covers it: results must stay
#: identical to the lossless run, only the ledger shows retransmits.
LOSS = FaultPlan(seed=7, probe_loss_rate=0.35)
FAULT_PLANS = pytest.mark.parametrize("fault_plan", [None, LOSS],
                                      ids=["lossless", "lossy"])


def _mixed_targets(universe, count=600, seed=5):
    """Real pairs, wrong-port probes, dark space, middleboxes and pseudo hosts."""
    rng = random.Random(seed)
    pairs = list(universe.real_service_pairs())[: count // 2]
    all_ips = universe.all_ips()
    pairs += [(rng.choice(all_ips), rng.randrange(1, 65536))
              for _ in range(count // 2)]
    pairs += [(rng.randrange(0, 2**32), 443) for _ in range(count // 4)]
    rng.shuffle(pairs)
    return pairs


def _prefix_targets(universe):
    """(port, /16) priors-scan entries hitting every responder kind: real
    services, static and incident-style pseudo pages, and middleboxes."""
    hosts = universe.hosts.values()
    real = next(iter(universe.real_services()))
    middlebox = next(host for host in hosts if host.is_middlebox)
    pseudo = {host.pseudo_incident_style: host for host in hosts
              if host.pseudo_port_range is not None}
    targets = [(real.port, real.ip), (real.port, middlebox.ip),
               (80, middlebox.ip)]
    targets += [(host.pseudo_port_range[0], host.ip) for host in pseudo.values()]
    targets.append((universe.port_registry().top_ports(1)[0],
                    universe.topology.systems[0].prefixes[0][0]))
    return [(port, (ip >> 16 << 16, 16)) for port, ip in targets]


def _observation_key(observations):
    return sorted((obs.ip, obs.port, obs.protocol,
                   tuple(sorted(obs.app_features.items())), obs.ttl)
                  for obs in observations)


def _hand_built_universe():
    """One /24 of hosts the generator never makes: middleboxes with
    services, services inside a pseudo range, a pseudo range wider than
    the middlebox threshold."""
    base = 10 << 24

    def host(offset, service_ports=(), protocol="ssh", **kwargs):
        ip = base + offset
        services = {port: ServiceRecord(
            ip=ip, port=port, protocol=protocol,
            app_features={"banner": f"{ip}:{port}"})
            for port in service_ports}
        return Host(ip=ip, asn=1, profile_name="hand", services=services,
                    **kwargs)

    hosts = [
        host(1, [22, 80, 443]),
        # A middlebox whose sampled ports speak, sparse and dense.
        host(2, [1, 2, 3], protocol="ftp", is_middlebox=True),
        host(3, range(1, 15), protocol="smtp", is_middlebox=True),
        # A middlebox whose sample stays silent: dropped before LZR.
        host(4, range(100, 120), protocol="imap", is_middlebox=True),
        # Real services inside (and beside) a pseudo range.
        host(5, [21, 25, 40], protocol="pop3",
             pseudo_port_range=(20, 30)),
        host(6, [5], protocol="telnet", pseudo_port_range=(1, 40000),
             pseudo_incident_style=True),
        host(7, [8080], protocol="rdp", pseudo_port_range=(8000, 8003)),
    ]
    system = AutonomousSystem(asn=1, name="hand", category="isp",
                              prefixes=((base, 24),))
    return Universe({h.ip: h for h in hosts}, Topology([system]),
                    UniverseConfig(host_count=len(hosts)))


class TestServiceIndex:
    @pytest.mark.parametrize("hand_built", [False, True],
                             ids=["generated", "hand-built"])
    def test_resolve_matches_point_queries(self, universe, hand_built):
        if hand_built:
            universe = _hand_built_universe()
            pairs = _edge_targets(universe)
        else:
            pairs = _mixed_targets(universe, count=400)
        ips = np.array([ip for ip, _ in pairs], dtype=np.int64)
        ports = np.array([port for _, port in pairs], dtype=np.int64)
        resolved = universe.service_index.resolve(ips, ports)
        index = universe.service_index
        answering = resolved.answering().tolist()
        for i, (ip, port) in enumerate(pairs):
            record = universe.lookup(ip, port)
            row = int(resolved.service_rows[i])
            assert (row >= 0) == (record is not None)
            if record is not None:
                assert index.protocols[index.protocol_codes[row]] == record.protocol
                assert index.banner_ids[row] == universe.banner_id_of(record)
                assert index.ttls[row] == record.ttl
            pseudo = record is None and universe.is_pseudo_responsive(ip, port)
            assert (resolved.pseudo_rows[i] >= 0) == pseudo
            if pseudo:
                assert index.pseudo_ips[resolved.pseudo_rows[i]] == ip
            assert resolved.middlebox[i] == universe.is_middlebox(ip)
            assert answering[i] == universe.syn_ack(ip, port)

    def test_per_port_columns_match_hosts(self, universe):
        for port in universe.ports_in_use()[:50]:
            services = universe.port_services(port)
            assert list(services.ips) == sorted(
                ip for ip, host in universe.hosts.items() if port in host.services)
            for ip, protocol, ttl in zip(services.ips, services.protocols,
                                         services.ttls):
                record = universe.lookup(ip, port)
                assert (protocol, ttl) == (record.protocol, record.ttl)


class TestGroupPairs:
    def test_partitions_pairs_exactly(self, universe):
        pairs = _mixed_targets(universe, count=300)
        batches = group_pairs(pairs, 16)
        flattened = [pair for batch in batches for pair in batch.pairs()]
        assert sorted(flattened) == sorted(pairs)

    def test_batches_share_port_and_subnet(self):
        pairs = [(10, 80), (11, 80), (70000, 80), (10, 443)]
        batches = group_pairs(pairs, 16)
        assert len(batches) == 3
        for batch in batches:
            assert all(subnet_key(ip, 16) == batch.subnet for ip in batch.ips)

    def test_first_seen_order(self):
        pairs = [(70000, 80), (10, 443), (11, 80), (70001, 80)]
        batches = group_pairs(pairs, 16)
        assert [(b.port, tuple(b.ips)) for b in batches] == [
            (80, (70000, 70001)), (443, (10,)), (80, (11,)),
        ]

    def test_prefix_zero_collapses_to_per_port_batches(self):
        pairs = [(10, 80), (2**31, 80), (10, 443)]
        batches = group_pairs(pairs, 0)
        assert {(b.port, len(b)) for b in batches} == {(80, 2), (443, 1)}

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            group_pairs([(1, 80)], 33)
        with pytest.raises(ValueError):
            group_order(np.array([1]), np.array([80]), 33)

    @pytest.mark.parametrize("prefix_len", [0, 8, 16, 24, 32])
    def test_group_order_flattens_group_pairs(self, universe, prefix_len):
        pairs = _mixed_targets(universe, count=300)
        pairs += pairs[:40]  # duplicate targets
        ips = np.array([ip for ip, _ in pairs], dtype=np.int64)
        ports = np.array([port for _, port in pairs], dtype=np.int64)
        order = group_order(ips, ports, prefix_len)
        assert list(zip(ips[order].tolist(), ports[order].tolist())) == [
            pair for batch in group_pairs(pairs, prefix_len)
            for pair in batch.pairs()]

    def test_group_order_beyond_packable_values(self):
        # Addresses past 32 bits and ports past 30 do not pack into one key.
        pairs = [(2**40 + 5, 80), (7, 2**31), (2**40 + 5, 80), (7, 80),
                 (2**40 + 6, 2**31), (7, 2**31)]
        ips = np.array([ip for ip, _ in pairs], dtype=np.int64)
        ports = np.array([port for _, port in pairs], dtype=np.int64)
        order = group_order(ips, ports, 32)
        assert list(zip(ips[order].tolist(), ports[order].tolist())) == [
            pair for batch in group_pairs(pairs, 32) for pair in batch.pairs()]


class TestBatchedPipeline:
    @pytest.mark.parametrize("prefix_len", [0, 16, 24])
    def test_batched_scan_pairs_equivalent(self, universe, prefix_len):
        pairs = _mixed_targets(universe)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        pairwise = pipeline_a.scan_pairs(pairs)
        batched = pipeline_b.scan_pairs(pairs, batch_prefix_len=prefix_len)
        assert _observation_key(pairwise) == _observation_key(batched)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_scan_pairs_reads_target_columns(self, universe):
        pairs = _mixed_targets(universe, count=200)

        class Columns:
            ips = np.array([ip for ip, _ in pairs], dtype=np.int64)
            ports = np.array([port for _, port in pairs], dtype=np.int64)

        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        from_pairs = pipeline_a.scan_pairs(pairs, batch_prefix_len=16)
        from_columns = pipeline_b.scan_pairs(Columns(), batch_prefix_len=16)
        assert from_columns.materialize() == from_pairs.materialize()
        assert pipeline_a.ledger.snapshot() == pipeline_b.ledger.snapshot()
        # The per-pair route reads columns too.
        assert _observation_key(ScanPipeline(universe).scan_pairs(Columns())) == \
            _observation_key(from_pairs)

    def test_filter_toggle_respected(self, universe):
        pairs = _mixed_targets(universe)
        unfiltered = ScanPipeline(universe).scan_pairs(pairs, apply_filter=False,
                                                       batch_prefix_len=16)
        filtered = ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16)
        assert len(filtered) <= len(unfiltered)


def _edge_targets(universe):
    """Targets at every edge of the batched pass: dark addresses, middleboxes,
    static and incident-style pseudo hosts inside and outside their range,
    ports 1 and 65535, and duplicate targets."""
    hosts = list(universe.hosts.values())
    pairs = []
    for host in hosts:
        pairs += [(host.ip, 1), (host.ip, 65535)]
        pairs += [(host.ip, port) for port in sorted(host.services)[:3]]
        if host.pseudo_port_range is not None:
            lo, hi = host.pseudo_port_range
            pairs += [(host.ip, lo), (host.ip, hi), (host.ip, lo + 1),
                      (host.ip, hi + 1 if hi < 65535 else lo - 1)]
    dark = max(universe.hosts) + 1
    while dark in universe.hosts:
        dark += 1
    pairs += [(dark, 80), (dark, 1), (0, 65535)]
    pairs += pairs[::7]  # duplicates
    return pairs


def _batched_targets(universe):
    if len(universe.hosts) < 20:  # the hand-built /24
        return _edge_targets(universe)
    hosts = universe.hosts.values()
    chosen = [next(host for host in hosts if host.is_middlebox)]
    chosen += [next(host for host in hosts
                    if host.pseudo_port_range is not None
                    and host.pseudo_incident_style is incident)
               for incident in (True, False)]
    chosen += [host for host in hosts if host.services][:30]
    edge = _edge_targets(Universe({host.ip: host for host in chosen},
                                  universe.topology, universe.config))
    return _mixed_targets(universe, count=400) + edge


#: Retry budgets above the loss bound (results match the lossless scan) and
#: below it (responders and rows drop, identically on both routes).
BUDGETS = pytest.mark.parametrize("fault_plan, retries", [
    (None, None), (LOSS, None), (LOSS, 1)],
    ids=["lossless", "lossy", "lossy-short"])


def _pipeline(universe, fault_plan, retries):
    pipeline = ScanPipeline(universe, fault_plan=fault_plan)
    if retries is not None:
        for layer in (pipeline.zmap, pipeline.lzr, pipeline.zgrab):
            layer.max_retries = retries
    return pipeline


class TestBatchedScanPairs:
    """The batched ``scan_pairs`` pass vs the per-pair oracle, column by column.

    The oracle probes the flattened :func:`group_pairs` batches pair by
    pair (``zmap.scan_pairs`` -> ``fingerprint_many`` -> ``grab_many``) for
    rows and ledger, and runs the per-target columnar layers
    (``fingerprint_batch_columns`` -> ``grab_batch_columns``) over the same
    hits for the status and banner ids the rows carry.
    """

    @pytest.fixture(params=["generated", "hand-built"])
    def world(self, request, universe):
        if request.param == "generated":
            return universe
        return _hand_built_universe()

    @BUDGETS
    @pytest.mark.parametrize("prefix_len", [0, 16, 24, 32])
    def test_rows_ids_and_ledger_match_per_pair_oracle(self, world, fault_plan,
                                                       retries, prefix_len):
        pairs = _batched_targets(world)
        category = ScanCategory.PREDICTION
        batched = _pipeline(world, fault_plan, retries)
        oracle = _pipeline(world, fault_plan, retries)
        ids = _pipeline(world, fault_plan, retries)
        flat = [pair for batch in group_pairs(pairs, prefix_len)
                for pair in batch.pairs()]

        observed = batched.scan_pairs(pairs, category=category,
                                      batch_prefix_len=prefix_len,
                                      apply_filter=False)
        hits = oracle.zmap.scan_pairs(flat, category=category)
        expected = oracle.zgrab.grab_many(
            oracle.lzr.fingerprint_many(hits, category=category),
            category=category)
        columns = ids.zgrab.grab_batch_columns(
            ids.lzr.fingerprint_batch_columns(
                [ip for ip, _ in hits], [port for _, port in hits],
                category=category, statuses=ids.status_encoder),
            category=category)

        assert observed.materialize() == expected
        assert list(observed.status) == list(columns.status)
        assert batched.status_encoder.values() == ids.status_encoder.values()
        assert list(observed.banner_ids) == list(columns.banner_ids)
        assert observed.local_banners == columns.local_banners
        assert batched.ledger.snapshot() == oracle.ledger.snapshot()
        assert batched.ledger.retransmits == oracle.ledger.retransmits
        assert {pipeline.ledger.total_retransmits() > 0
                for pipeline in (batched, oracle)} == {fault_plan is not None}
        kinds = {("real" if world.lookup(obs.ip, obs.port) else
                  "incident" if world.hosts[obs.ip].pseudo_incident_style
                  else "static") for obs in expected}
        assert kinds == {"real", "incident", "static"}

    @BUDGETS
    def test_filtered_rows_match_per_pair_oracle(self, world, fault_plan, retries):
        pairs = _batched_targets(world)
        batched = _pipeline(world, fault_plan, retries)
        oracle = _pipeline(world, fault_plan, retries)
        flat = [pair for batch in group_pairs(pairs, 16) for pair in batch.pairs()]
        observed = batched.scan_pairs(pairs, batch_prefix_len=16)
        assert observed.materialize() == oracle.scan_pairs(flat)
        assert batched.ledger.snapshot() == oracle.ledger.snapshot()

    def test_short_budget_drops_rows(self, universe):
        pairs = _batched_targets(universe)
        lossless = ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16,
                                                     apply_filter=False)
        short = _pipeline(universe, LOSS, 1).scan_pairs(
            pairs, batch_prefix_len=16, apply_filter=False)
        assert len(short) < len(lossless)

    @pytest.mark.parametrize("port", [0, 65536, -1])
    def test_invalid_port_raises_and_charges_nothing(self, universe, port):
        pipeline = ScanPipeline(universe)
        pairs = list(universe.real_service_pairs())[:5] + [(1, port)]
        with pytest.raises(ValueError):
            pipeline.scan_pairs(pairs, batch_prefix_len=16)
        assert pipeline.ledger.snapshot() == ScanPipeline(universe).ledger.snapshot()
        assert pipeline.ledger.total_probes() == 0

    def test_empty_targets(self, universe):
        pipeline = ScanPipeline(universe)
        assert len(pipeline.scan_pairs([], batch_prefix_len=16)) == 0
        assert pipeline.ledger.total_probes() == 0


class TestColumnarLayers:
    """Columnar scanner stages vs their per-pair oracles."""

    def test_zmap_columns_match_per_pair_scan(self, universe):
        pairs = _mixed_targets(universe)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        hits = pipeline_a.zmap.scan_pairs(pairs)
        resolved = pipeline_b.zmap.scan_pair_columns(
            np.array([ip for ip, _ in pairs], dtype=np.int64),
            np.array([port for _, port in pairs], dtype=np.int64))
        assert list(zip(resolved.ips.tolist(), resolved.ports.tolist())) == hits
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_zmap_columns_reject_invalid_port(self, universe):
        pipeline = ScanPipeline(universe)
        for port in (0, 70000):
            with pytest.raises(ValueError):
                pipeline.zmap.scan_pair_columns(np.array([1, 2]),
                                                np.array([80, port]))
        assert pipeline.ledger.total_probes() == 0

    def test_lzr_columns_match_fingerprint_batch(self, universe):
        pairs = _mixed_targets(universe)
        hits = ScanPipeline(universe).zmap.scan_pairs(pairs)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        objects = pipeline_a.lzr.fingerprint_many(hits,
                                                  category=ScanCategory.PREDICTION)
        columns = pipeline_b.lzr.fingerprint_batch_columns(
            [ip for ip, _ in hits], [port for _, port in hits],
            category=ScanCategory.PREDICTION)
        assert len(columns) == len(objects)
        decode = columns.statuses.decode
        for i, result in enumerate(objects):
            assert (columns.ips[i], columns.ports[i]) == (result.ip, result.port)
            assert decode(columns.status[i]) == result.protocol
            assert columns.ttls[i] == result.ttl
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_zgrab_columns_match_grab_batch(self, universe):
        pairs = _mixed_targets(universe)
        fresh = ScanPipeline(universe)
        hits = fresh.zmap.scan_pairs(pairs)
        fingerprints = fresh.lzr.fingerprint_many(hits)
        columns = fresh.lzr.fingerprint_batch_columns(
            [ip for ip, _ in hits], [port for _, port in hits])
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        objects = pipeline_a.zgrab.grab_many(fingerprints,
                                             category=ScanCategory.PREDICTION)
        batch = pipeline_b.zgrab.grab_batch_columns(columns,
                                                    category=ScanCategory.PREDICTION)
        assert batch.materialize() == objects
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_columnar_pipeline_matches_pairwise(self, universe):
        pairs = _mixed_targets(universe)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        pairwise = pipeline_a.scan_pairs(pairs, apply_filter=False)
        batch = pipeline_b.scan_pairs(pairs, batch_prefix_len=16,
                                      apply_filter=False)
        assert _observation_key(batch.materialize()) == _observation_key(pairwise)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses


class TestColumnarScanShapes:
    """The re-routed production shapes vs the per-pair layer chain."""

    @pytest.mark.parametrize("apply_filter", [True, False],
                             ids=["filtered", "unfiltered"])
    @FAULT_PLANS
    def test_scan_prefix_matches_per_pair_chain(self, universe, fault_plan,
                                                apply_filter):
        columnar = ScanPipeline(universe, fault_plan=fault_plan)
        oracle = ScanPipeline(universe, fault_plan=fault_plan)
        category = ScanCategory.PRIORS
        real_rows = set()
        for port, subnet in _prefix_targets(universe):
            responders = oracle.zmap.scan_prefix(port, *subnet, category=category)
            fingerprints = oracle.lzr.fingerprint_many(
                ((ip, port) for ip in responders), category=category)
            expected = oracle.zgrab.grab_many(fingerprints, category=category)
            if apply_filter:
                expected = oracle.pseudo_filter.filter(expected)
            observed = columnar.scan_prefix(port, subnet, category=category,
                                            apply_filter=apply_filter)
            assert observed.materialize() == expected
            real_rows.update(universe.lookup(obs.ip, obs.port) is not None
                             for obs in observed)
        # Both real services and pseudo pages came through.
        assert real_rows == {True, False}
        assert columnar.ledger.snapshot() == oracle.ledger.snapshot()
        assert columnar.ledger.retransmits == oracle.ledger.retransmits
        assert (columnar.ledger.total_retransmits() > 0) == (fault_plan is not None)

    @pytest.mark.parametrize("short_layers", [("zmap", "lzr", "zgrab"),
                                              ("lzr",), ("zgrab",)],
                             ids=["all", "lzr", "zgrab"])
    def test_lossy_scan_prefix_with_short_retries_matches_per_pair_chain(
            self, universe, short_layers):
        # With no retries under loss, ZMap drops responders and LZR/ZGrab
        # drop rows; the column slices must drop exactly what the per-pair
        # chain drops, and charge what it charges.
        pipelines = []
        for _ in range(2):
            pipeline = ScanPipeline(universe, fault_plan=LOSS)
            for name in short_layers:
                getattr(pipeline, name).max_retries = 0
            pipelines.append(pipeline)
        columnar, oracle = pipelines
        lossless = ScanPipeline(universe)
        category = ScanCategory.PRIORS
        dropped = 0
        for port, subnet in _prefix_targets(universe):
            responders = oracle.zmap.scan_prefix(port, *subnet, category=category)
            fingerprints = oracle.lzr.fingerprint_many(
                ((ip, port) for ip in responders), category=category)
            expected = oracle.zgrab.grab_many(fingerprints, category=category)
            observed = columnar.scan_prefix(port, subnet, category=category,
                                            apply_filter=False)
            assert observed.materialize() == expected
            dropped += len(lossless.scan_prefix(port, subnet,
                                                apply_filter=False)) - len(observed)
        assert dropped > 0
        assert columnar.ledger.snapshot() == oracle.ledger.snapshot()
        assert columnar.ledger.retransmits == oracle.ledger.retransmits

    @FAULT_PLANS
    def test_seed_sweep_middlebox_sample_matches_per_pair_chain(
            self, universe, fault_plan):
        hosts = universe.hosts.values()
        ips = sorted([next(host.ip for host in hosts if host.is_middlebox),
                      next(host.ip for host in hosts if host.services),
                      next(host.ip for host in hosts
                           if host.pseudo_port_range is not None)])
        columnar = ScanPipeline(universe, fault_plan=fault_plan)
        columnar.sample_addresses = lambda fraction, rng: ips
        oracle = ScanPipeline(universe, fault_plan=fault_plan)
        category = ScanCategory.SEED
        expected = []
        sampled_middlebox = False
        for ip in ips:
            ports = oracle.zmap.scan_host_ports(ip, category=category)
            if len(ports) > MIDDLEBOX_SUSPECT_PORT_COUNT:
                sampled_middlebox = True
                sample = ports[:MIDDLEBOX_SAMPLE_PORTS]
                if not oracle.lzr.fingerprint_many(
                        ((ip, port) for port in sample), category=category):
                    continue
            fingerprints = oracle.lzr.fingerprint_many(
                ((ip, port) for port in ports), category=category)
            expected.extend(oracle.zgrab.grab_many(fingerprints,
                                                   category=category))
        assert sampled_middlebox and expected
        result = columnar.seed_scan(0.01, apply_filter=False)
        assert result.observations == expected
        assert columnar.ledger.snapshot() == oracle.ledger.snapshot()
        assert columnar.ledger.retransmits == oracle.ledger.retransmits


class TestSeedSweep:
    """``seed_scan`` on sampled seeds vs the per-host layer chain.

    The chain sweeps every sampled address with ``scan_host_ports``,
    fingerprints and grabs each host's SYN-ACKs target by target and runs
    the object filter; the columnar sweep charges dark space and dense hosts
    by count instead.  Rows, their order, the removed count, every ledger
    total and the live probe counter must agree.
    """

    FRACTION, SCAN_SEED = 0.05, 0

    @staticmethod
    def _per_host_chain(pipeline, ips, ports):
        """The unfiltered rows of the per-host chain."""
        category = ScanCategory.SEED
        rows = []
        for ip in ips:
            found = pipeline.zmap.scan_host_ports(ip, ports=ports,
                                                  category=category)
            if len(found) > MIDDLEBOX_SUSPECT_PORT_COUNT:
                sample = found[:MIDDLEBOX_SAMPLE_PORTS]
                if not pipeline.lzr.fingerprint_many(
                        ((ip, port) for port in sample), category=category):
                    continue
            fingerprints = pipeline.lzr.fingerprint_many(
                ((ip, port) for port in found), category=category)
            rows.extend(pipeline.zgrab.grab_many(fingerprints,
                                                 category=category))
        return rows

    @classmethod
    def _filtered(cls, pipeline, rows, apply_filter):
        """The chain's rows and removed count after the optional filter."""
        if not apply_filter:
            return rows, 0
        report = pipeline.pseudo_filter.apply(rows)
        return report.kept, report.removed_count()

    def test_sample_covers_every_host_kind(self, universe):
        ips = ScanPipeline(universe).sample_addresses(
            self.FRACTION, random.Random(self.SCAN_SEED))
        hosts = [universe.hosts[ip] for ip in ips if ip in universe.hosts]
        assert len(hosts) < len(ips)  # dark space
        assert any(host.is_middlebox for host in hosts)
        assert any(host.services for host in hosts)
        dense = [host for host in hosts if host.pseudo_port_range is not None]
        assert {host.pseudo_incident_style for host in dense} == {True, False}

    @pytest.mark.parametrize("apply_filter", [True, False],
                             ids=["filtered", "unfiltered"])
    @pytest.mark.parametrize("top_ports", [None, 8], ids=["all-ports", "top-8"])
    @FAULT_PLANS
    def test_seed_sweep_matches_per_host_chain(self, universe, fault_plan,
                                               top_ports, apply_filter):
        ports = (universe.port_registry().top_ports(top_ports)
                 if top_ports else None)
        columnar = ScanPipeline(universe, fault_plan=fault_plan,
                                telemetry=Telemetry())
        oracle = ScanPipeline(universe, fault_plan=fault_plan,
                              telemetry=Telemetry())
        result = columnar.seed_scan(self.FRACTION, seed=self.SCAN_SEED,
                                    ports=ports, apply_filter=apply_filter)
        ips = oracle.sample_addresses(self.FRACTION,
                                      random.Random(self.SCAN_SEED))
        expected, removed = self._filtered(
            oracle, self._per_host_chain(oracle, ips, ports), apply_filter)
        assert result.sampled_ips == ips
        assert result.observations == expected
        assert result.removed_pseudo_services == removed
        assert (removed > 0) == (apply_filter and top_ports is None)
        assert columnar.ledger.snapshot() == oracle.ledger.snapshot()
        assert columnar.ledger.retransmits == oracle.ledger.retransmits
        assert (columnar.ledger.total_retransmits() > 0) == (fault_plan is not None)
        probes = [pipeline.telemetry.counter("scan_probes_total",
                                             category="seed").value
                  for pipeline in (columnar, oracle)]
        assert probes[0] == probes[1] == columnar.ledger.total_probes()


    # A port list with repeats, and one long enough (past
    # MIDDLEBOX_SUSPECT_PORT_COUNT) to sample middleboxes, in reverse order.
    REPEATS = [80, 22, 80, 8001, 5, 25, 21, 1, 2, 3]
    DESCENDING = list(range(MIDDLEBOX_SUSPECT_PORT_COUNT + 1, 0, -1))

    @pytest.mark.parametrize("fault_plan, ports", [
        (None, None), (None, REPEATS), (None, DESCENDING),
        (LOSS, None), (LOSS, REPEATS)],
        ids=["lossless-all-ports", "lossless-repeats", "lossless-descending",
             "lossy-all-ports", "lossy-repeats"])
    def test_seed_sweep_on_hand_built_hosts_matches_per_host_chain(
            self, fault_plan, ports):
        universe = _hand_built_universe()
        columnar = ScanPipeline(universe, fault_plan=fault_plan)
        oracle = ScanPipeline(universe, fault_plan=fault_plan)
        result = columnar.seed_scan(1.0, ports=ports)
        rows = self._per_host_chain(oracle, result.sampled_ips, ports)
        expected, removed = self._filtered(oracle, rows, apply_filter=True)
        assert len(result.sampled_ips) == 256
        assert result.observations == expected
        assert result.removed_pseudo_services == removed
        assert columnar.ledger.snapshot() == oracle.ledger.snapshot()
        assert columnar.ledger.retransmits == oracle.ledger.retransmits
        # Status ids are handed out in row order, dropped rows included,
        # as when every row is fingerprinted in one columnar pass.
        assert columnar.status_encoder.values() == list(dict.fromkeys(
            ["http"] + [row.protocol for row in rows]))


class TestObservationBatch:
    @pytest.fixture()
    def batch(self, universe):
        pairs = _mixed_targets(universe, count=400)
        return ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16,
                                                 apply_filter=False)

    def test_lazy_rows_match_materialize(self, batch):
        assert len(batch) > 0
        materialized = batch.materialize()
        assert len(materialized) == len(batch)
        for i in (0, len(batch) // 2, len(batch) - 1):
            assert batch.row(i) == materialized[i]

    def test_pairs_match_rows(self, batch):
        assert batch.pairs() == [(obs.ip, obs.port)
                                 for obs in batch.iter_rows()]

    def test_banner_ids_decode_to_row_features(self, batch, universe):
        for i in range(0, len(batch), max(1, len(batch) // 16)):
            assert batch.row(i).app_features == batch.banner_features(i)
            if batch.banner_ids[i] >= 0:
                assert batch.banner_features(i) is \
                    universe.banners.features(batch.banner_ids[i])

    def test_shared_banner_mappings_are_read_only(self, batch):
        observation = batch.row(0)
        with pytest.raises(TypeError):
            observation.app_features["protocol"] = "tampered"

    def test_ground_truth_banners_share_one_interned_id(self, universe):
        # Every real-service hit resolves to the id interned at index-build
        # time: hitting the same service twice must not mint a new id.
        interned_before = len(universe.banners)
        pairs = list(universe.real_service_pairs())[:50]
        pipeline = ScanPipeline(universe)
        pipeline.scan_pairs(pairs * 2, batch_prefix_len=16, apply_filter=False)
        assert len(universe.banners) == interned_before

    def test_incident_pseudo_pages_never_grow_the_interner(self, universe):
        # Incident-style pseudo pages are unique per (ip, port); repeated
        # columnar scans must carry them batch-locally, not pin one interned
        # entry per target forever (the static page may intern one id once).
        incident_hosts = [host for host in universe.hosts.values()
                          if host.pseudo_port_range is not None
                          and host.pseudo_incident_style]
        assert incident_hosts
        pipeline = ScanPipeline(universe)
        sizes = []
        for round_index in range(3):
            pairs = [(host.ip, host.pseudo_port_range[0] + round_index * 20 + k)
                     for host in incident_hosts for k in range(20)]
            batch = pipeline.scan_pairs(pairs, batch_prefix_len=16,
                                        apply_filter=False)
            assert len(batch.local_banners) == len(batch) > 0
            assert all(banner_id < 0 for banner_id in batch.banner_ids)
            sizes.append(len(universe.banners))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_status_ids_stable_across_batches(self, universe):
        pairs = list(universe.real_service_pairs())[:40]
        pipeline = ScanPipeline(universe)
        first = pipeline.scan_pairs(pairs[:20], batch_prefix_len=16,
                                    apply_filter=False)
        second = pipeline.scan_pairs(pairs[20:], batch_prefix_len=16,
                                     apply_filter=False)
        assert first.statuses is second.statuses


class TestColumnarFilter:
    def test_filter_batch_matches_filter_on_materialized(self, universe):
        # Include pseudo hosts' port ranges so both filter rules can fire.
        pairs = _mixed_targets(universe)
        for host in universe.hosts.values():
            if host.pseudo_port_range is not None:
                lo, _ = host.pseudo_port_range
                pairs.extend((host.ip, lo + offset) for offset in range(12))
        pipeline = ScanPipeline(universe)
        batch = pipeline.scan_pairs(pairs, batch_prefix_len=16,
                                    apply_filter=False)
        # A one-port prefix sweep: every address distinct, pseudo pages and
        # middleboxes among its responders.
        port, subnet = _prefix_targets(universe)[0]
        prefix_batch = pipeline.scan_prefix(port, subnet, apply_filter=False)
        assert len(set(prefix_batch.ips)) == len(prefix_batch) > 1
        for each in (batch, prefix_batch):
            assert pipeline.pseudo_filter.filter_batch(each).materialize() == \
                pipeline.pseudo_filter.filter(each.materialize())

    def test_filter_batch_drops_pseudo_hosts(self, universe):
        pseudo_hosts = [host for host in universe.hosts.values()
                        if host.pseudo_port_range is not None]
        assert pseudo_hosts
        host = pseudo_hosts[0]
        lo, _ = host.pseudo_port_range
        pairs = [(host.ip, lo + offset) for offset in range(12)]
        pipeline = ScanPipeline(universe)
        batch = pipeline.scan_pairs(pairs, batch_prefix_len=16,
                                    apply_filter=False)
        assert len(batch) == 12
        assert pipeline.pseudo_filter.filter_batch(batch).materialize() == []

    def test_filtered_pipeline_matches_pairwise_filtered(self, universe):
        pairs = _mixed_targets(universe)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        pairwise = pipeline_a.scan_pairs(pairs)
        batched = pipeline_b.scan_pairs(pairs, batch_prefix_len=16)
        assert _observation_key(pairwise) == _observation_key(batched)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes


class TestGPSEngineModes:
    """GPS end-to-end equivalence of the engine and the reference (the acceptance check)."""

    @pytest.fixture(scope="class")
    def mode_runs(self, universe, censys_dataset, censys_split):
        results = {}
        for mode, use_engine in (("engine", True), ("reference", False)):
            run_pipeline = ScanPipeline(universe)
            config = GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain,
                               use_engine=use_engine)
            gps = GPS(run_pipeline, config)
            seed_cost = seed_scan_cost_probes(censys_dataset, 0.05)
            results[mode] = (gps.run(seed=censys_split.seed_scan_result(),
                                     seed_cost_probes=seed_cost), run_pipeline)
        return results

    def test_priors_plans_identical(self, mode_runs):
        assert mode_runs["engine"][0].priors_plan == mode_runs["reference"][0].priors_plan

    def test_predictions_identical(self, mode_runs):
        assert mode_runs["engine"][0].predictions == mode_runs["reference"][0].predictions

    def test_discoveries_identical(self, mode_runs):
        assert mode_runs["engine"][0].discovered_pairs() == \
            mode_runs["reference"][0].discovered_pairs()

    def test_bandwidth_identical(self, mode_runs):
        assert mode_runs["engine"][1].ledger.probes == \
            mode_runs["reference"][1].ledger.probes
