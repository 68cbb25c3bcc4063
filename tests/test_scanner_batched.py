"""Equivalence tests for the batched prediction-scan path.

The batched layers (``Universe.syn_ack_many``, ``ZMapSimulator.scan_pair_batches``,
``LZRSimulator.fingerprint_batch``, ``ZGrabSimulator.grab_batch`` and
``ScanPipeline.scan_pair_batches``) are *defined* as equivalent to their
pair-by-pair counterparts: same probes sent, same services observed, identical
bandwidth-ledger charges.  Every test here compares the two paths on the same
targets, including the miss-heavy mixes (dark addresses, closed ports,
middleboxes, pseudo services) a real prediction scan probes.

The *columnar* layers (``scan_pair_batch_columns``, ``fingerprint_batch_columns``,
``grab_batch_columns``, ``ObservationBatch`` and the columnar pseudo filter)
carry the same contract one representation further: flat int columns instead
of per-hit objects, materializing ``ScanObservation`` rows only at the API
boundary -- with the per-object paths kept as the equivalence oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.split import seed_scan_cost_probes
from repro.net.ipv4 import subnet_key
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ProbeBatch, group_pairs


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


def _observation_key(observations):
    return sorted((obs.ip, obs.port, obs.protocol,
                   tuple(sorted(obs.app_features.items())), obs.ttl)
                  for obs in observations)


class TestSynAckMany:
    def test_matches_point_probes(self, universe):
        pairs = _mixed_targets(universe, count=400)
        by_port: dict = {}
        for ip, port in pairs:
            by_port.setdefault(port, []).append(ip)
        for port, ips in by_port.items():
            expected = [ip for ip in ips if universe.syn_ack(ip, port)]
            assert universe.syn_ack_many(ips, port) == expected

    def test_small_batches_match(self, universe):
        # Below the bisect threshold the fallback path must agree too.
        ip = next(iter(universe.hosts))
        port = universe.hosts[ip].open_ports()[0] if universe.hosts[ip].services \
            else 80
        assert universe.syn_ack_many([ip], port) == \
            ([ip] if universe.syn_ack(ip, port) else [])

    def test_duplicates_and_order_preserved(self, universe):
        port = universe.ports_in_use()[0]
        responders = universe.ips_on_port(port)[:5]
        ips = responders + responders + [0, 1]
        assert universe.syn_ack_many(ips, port) == responders + responders

    def test_empty_batch(self, universe):
        assert universe.syn_ack_many([], 80) == []


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


class TestBatchedLayers:
    def test_zmap_batches_match_pairs(self, universe):
        pairs = _mixed_targets(universe)
        batches = group_pairs(pairs, 16)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        hits_pairwise = pipeline_a.zmap.scan_pairs(pairs)
        hits_batched = pipeline_b.zmap.scan_pair_batches(batches)
        assert sorted(hits_pairwise) == sorted(hits_batched)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_zmap_batch_rejects_invalid_port(self, universe):
        pipeline = ScanPipeline(universe)
        batch = ProbeBatch(port=0, subnet=subnet_key(1, 16), ips=(1, 2))
        with pytest.raises(ValueError):
            pipeline.zmap.scan_pair_batches([batch])

    def test_lzr_batch_matches_fingerprint_many(self, universe):
        pairs = _mixed_targets(universe)
        hits = ScanPipeline(universe).zmap.scan_pairs(pairs)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        many = pipeline_a.lzr.fingerprint_many(hits, category=ScanCategory.PREDICTION)
        batch = pipeline_b.lzr.fingerprint_batch(hits, category=ScanCategory.PREDICTION)
        assert many == batch
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_zgrab_batch_matches_grab_many(self, universe):
        pairs = _mixed_targets(universe)
        fresh = ScanPipeline(universe)
        fingerprints = fresh.lzr.fingerprint_many(fresh.zmap.scan_pairs(pairs))
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        many = pipeline_a.zgrab.grab_many(fingerprints,
                                          category=ScanCategory.PREDICTION)
        batch = pipeline_b.zgrab.grab_batch(fingerprints,
                                            category=ScanCategory.PREDICTION)
        assert many == batch
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses


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

    def test_scan_pair_batches_accepts_pregrouped_batches(self, universe):
        pairs = _mixed_targets(universe, count=200)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        pairwise = pipeline_a.scan_pairs(pairs)
        batched = pipeline_b.scan_pair_batches(group_pairs(pairs, 16))
        assert _observation_key(pairwise) == _observation_key(batched)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes

    def test_filter_toggle_respected(self, universe):
        pairs = _mixed_targets(universe)
        unfiltered = ScanPipeline(universe).scan_pairs(pairs, apply_filter=False,
                                                       batch_prefix_len=16)
        filtered = ScanPipeline(universe).scan_pairs(pairs, batch_prefix_len=16)
        assert len(filtered) <= len(unfiltered)


class TestColumnarLayers:
    """Columnar scanner stages vs their per-object oracles."""

    def test_zmap_columns_match_pair_batches(self, universe):
        pairs = _mixed_targets(universe)
        batches = group_pairs(pairs, 16)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        hits = pipeline_a.zmap.scan_pair_batches(batches)
        ips, ports = pipeline_b.zmap.scan_pair_batch_columns(batches)
        assert list(zip(ips, ports)) == hits
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses

    def test_zmap_columns_reject_invalid_port(self, universe):
        pipeline = ScanPipeline(universe)
        batch = ProbeBatch(port=70000, subnet=subnet_key(1, 16), ips=(1,))
        with pytest.raises(ValueError):
            pipeline.zmap.scan_pair_batch_columns([batch])

    def test_lzr_columns_match_fingerprint_batch(self, universe):
        pairs = _mixed_targets(universe)
        hits = ScanPipeline(universe).zmap.scan_pairs(pairs)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        objects = pipeline_a.lzr.fingerprint_batch(hits,
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
        objects = pipeline_a.zgrab.grab_batch(fingerprints,
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
        batch = pipeline_b.scan_pair_batches_columnar(group_pairs(pairs, 16))
        assert _observation_key(batch.materialize()) == _observation_key(pairwise)
        assert pipeline_a.ledger.probes == pipeline_b.ledger.probes
        assert pipeline_a.ledger.responses == pipeline_b.ledger.responses


class TestObservationBatch:
    @pytest.fixture()
    def batch(self, universe):
        pairs = _mixed_targets(universe, count=400)
        return ScanPipeline(universe).scan_pair_batches_columnar(
            group_pairs(pairs, 16))

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
        pipeline.scan_pair_batches_columnar(group_pairs(pairs * 2, 16))
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
            batch = pipeline.scan_pair_batches_columnar(group_pairs(pairs, 16))
            assert len(batch.local_banners) == len(batch) > 0
            assert all(banner_id < 0 for banner_id in batch.banner_ids)
            sizes.append(len(universe.banners))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_status_ids_stable_across_batches(self, universe):
        pairs = list(universe.real_service_pairs())[:40]
        pipeline = ScanPipeline(universe)
        first = pipeline.scan_pair_batches_columnar(group_pairs(pairs[:20], 16))
        second = pipeline.scan_pair_batches_columnar(group_pairs(pairs[20:], 16))
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
        batch = pipeline.scan_pair_batches_columnar(group_pairs(pairs, 16))
        assert pipeline.pseudo_filter.filter_batch(batch) == \
            pipeline.pseudo_filter.filter(batch.materialize())

    def test_filter_batch_drops_pseudo_hosts(self, universe):
        pseudo_hosts = [host for host in universe.hosts.values()
                        if host.pseudo_port_range is not None]
        assert pseudo_hosts
        host = pseudo_hosts[0]
        lo, _ = host.pseudo_port_range
        pairs = [(host.ip, lo + offset) for offset in range(12)]
        pipeline = ScanPipeline(universe)
        batch = pipeline.scan_pair_batches_columnar(group_pairs(pairs, 16))
        assert len(batch) == 12
        assert pipeline.pseudo_filter.filter_batch(batch) == []

    def test_filtered_pipeline_matches_pairwise_filtered(self, universe):
        pairs = _mixed_targets(universe)
        pipeline_a, pipeline_b = ScanPipeline(universe), ScanPipeline(universe)
        pairwise = pipeline_a.scan_pairs(pairs)
        batched = pipeline_b.scan_pair_batches(group_pairs(pairs, 16))
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
