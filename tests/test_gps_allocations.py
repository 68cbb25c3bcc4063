"""An engine GPS run stays in columns from the seed scan to the prediction scan.

The seed scan, the priors scan and the prediction scan return observation
batches, and ``predict`` returns columnar
:class:`~repro.core.predictions.Predictions`, so an engine run builds no
per-service object: no :class:`~repro.core.predictions.PredictedService` and
no :class:`~repro.scanner.records.ScanObservation` at all.  Rows are built
only when a caller reads the result's sequences (a
:class:`~repro.scanner.pipeline.SeedScanResult` builds its rows once, on the
first read of ``observations``).  Constructions are counted by wrapping each
class's ``__init__``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping

import pytest

from repro.analysis.scenarios import SMALL_SCALE, make_lzr_dataset, make_universe
from repro.core import features as features_module
from repro.core import predictions as predictions_module
from repro.core.config import FeatureConfig, GPSConfig
from repro.core.gps import GPS
from repro.core.features import (
    extract_host_features,
    extract_host_features_columns,
    network_feature_values,
)
from repro.core.predictions import PredictedService
from repro.datasets.split import split_seed_test
from repro.engine.encoding import DictionaryEncoder
from repro.internet.banners import BannerFactory, BannerInterner
from repro.internet.universe import Universe
from repro.scanner.lzr import LZRSimulator
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ObservationBatch, ScanObservation
from repro.scanner.zgrab import ZGrabSimulator
from repro.scanner.zmap import ZMapSimulator


@pytest.fixture(scope="module")
def small_universe():
    return make_universe(SMALL_SCALE, seed=3)


@pytest.fixture()
def constructions(monkeypatch):
    """Count row-object constructions, outside and inside ``seed_scan``."""
    counts = {"predicted": 0, "observed": 0, "observed_in_seed_scan": 0}
    in_seed_scan = [False]
    predicted_init = PredictedService.__init__
    observed_init = ScanObservation.__init__
    seed_scan = ScanPipeline.seed_scan

    def counting_predicted(self, *args, **kwargs):
        counts["predicted"] += 1
        predicted_init(self, *args, **kwargs)

    def counting_observed(self, *args, **kwargs):
        counts["observed_in_seed_scan" if in_seed_scan[0] else "observed"] += 1
        observed_init(self, *args, **kwargs)

    def flagged_seed_scan(self, *args, **kwargs):
        in_seed_scan[0] = True
        try:
            return seed_scan(self, *args, **kwargs)
        finally:
            in_seed_scan[0] = False

    monkeypatch.setattr(PredictedService, "__init__", counting_predicted)
    monkeypatch.setattr(ScanObservation, "__init__", counting_observed)
    monkeypatch.setattr(ScanPipeline, "seed_scan", flagged_seed_scan)
    return counts


def _assert_rows_build_on_read(result, counts):
    assert len(result.predictions) > 0 and len(result.priors_observations) > 0
    predictions = list(result.predictions)
    assert counts["predicted"] == len(predictions)
    priors = list(result.priors_observations)
    assert counts["observed"] == len(priors)


def test_self_seeded_engine_run_builds_no_row_objects(small_universe,
                                                      constructions):
    config = GPSConfig(seed_fraction=0.05, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run()
    assert constructions["observed_in_seed_scan"] == 0
    assert constructions["predicted"] == 0
    assert constructions["observed"] == 0
    _assert_rows_build_on_read(result, constructions)


def test_engine_run_reads_the_model_as_packed_columns(small_universe):
    """The priors and index builds score the model fold's packed columns:
    the run never decodes the model's dicts."""
    config = GPSConfig(seed_fraction=0.05, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run()
    assert len(result.priors_plan) > 0 and len(result.feature_index) > 0
    assert "cooccurrence" not in vars(result.model)
    assert "denominators" not in vars(result.model)


def test_reference_run_builds_seed_rows_once(small_universe, constructions,
                                             monkeypatch):
    """The seed's rows build on the first read of ``observations`` and every
    later read -- the caller's second one, the reference feature extraction
    of a non-engine run -- shares them."""
    pipeline = ScanPipeline(small_universe)
    seed = pipeline.seed_scan(0.05)
    assert constructions["observed"] == 0
    materialized = []
    materialize = ObservationBatch.materialize

    def counting_materialize(self):
        if self is seed.batch:
            materialized.append(self)
        return materialize(self)

    monkeypatch.setattr(ObservationBatch, "materialize", counting_materialize)
    first = seed.observations
    assert seed.observations is first
    assert len(first) == len(seed.batch) > 0
    assert constructions["observed"] == len(first)
    with GPS(pipeline, GPSConfig(seed_fraction=0.05)) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0)
    assert len(materialized) == 1
    assert list(result.seed_observations) == first


def _speaking_ports(host):
    """Every port where ``host`` serves a service or a pseudo page."""
    span = host.pseudo_port_range or (1, 0)
    return set(host.services) | set(range(span[0], span[1] + 1))


def test_seed_sweep_skips_dark_addresses_and_dense_hosts(small_universe,
                                                         monkeypatch):
    """No per-host ZMap sweep runs for a dark address, and no pseudo page is
    built for a host the dense-host rule drops by count."""
    swept, paged = [], []

    def spy(cls, name, record):
        original = getattr(cls, name)

        def recording(self, ip, *args, **kwargs):
            record.append(ip)
            return original(self, ip, *args, **kwargs)

        monkeypatch.setattr(cls, name, recording)

    spy(ZMapSimulator, "scan_host_ports", swept)
    spy(BannerFactory, "pseudo_service_features", paged)
    pipeline = ScanPipeline(small_universe)
    result = pipeline.seed_scan(0.05)
    hosts = small_universe.hosts
    dark = [ip for ip in result.sampled_ips if ip not in hosts]
    limit = pipeline.pseudo_filter.max_services_per_host
    dense = {ip for ip in result.sampled_ips
             if ip in hosts and len(_speaking_ports(hosts[ip])) > limit}
    assert dark and dense and result.removed_pseudo_services > 0
    assert not set(swept) & set(dark)
    assert not set(paged) & dense


@pytest.fixture(scope="module")
def lzr_split(small_universe):
    """An LZR-like dataset and its seed, built before any counting starts."""
    dataset = make_lzr_dataset(small_universe, SMALL_SCALE)
    seed = split_seed_test(dataset, dataset.sample_fraction / 2,
                           seed=1).seed_scan_result()
    return dataset, seed


def test_dataset_split_engine_run_builds_no_row_objects(small_universe, lzr_split,
                                                        constructions):
    dataset, seed = lzr_split
    config = GPSConfig(seed_fraction=dataset.sample_fraction / 2,
                       port_domain=dataset.port_domain, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0)
    assert constructions == {"predicted": 0, "observed": 0,
                             "observed_in_seed_scan": 0}
    _assert_rows_build_on_read(result, constructions)


def test_priors_scan_resolves_real_services_without_per_target_calls(
        small_universe, lzr_split, monkeypatch):
    """The priors scan takes its real services from the universe's port columns.

    Every (ip, port) handed to a per-target LZR, ZGrab or ground-truth
    lookup while ``scan_prefix`` runs is recorded; none of them may be a
    real service the scan returned.  Pseudo pages and middleboxes still
    resolve per target.
    """
    dataset, seed = lzr_split
    in_priors = [False]
    targets = []
    scan_prefix = ScanPipeline.scan_prefix

    def flagged_scan_prefix(self, *args, **kwargs):
        in_priors[0] = True
        try:
            return scan_prefix(self, *args, **kwargs)
        finally:
            in_priors[0] = False

    def spy(cls, name, pairs_of):
        original = getattr(cls, name)

        def recording(self, *args, **kwargs):
            if in_priors[0]:
                targets.extend(pairs_of(*args))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, recording)

    monkeypatch.setattr(ScanPipeline, "scan_prefix", flagged_scan_prefix)
    spy(LZRSimulator, "fingerprint", lambda ip, port, *rest: [(ip, port)])
    spy(LZRSimulator, "fingerprint_batch_columns",
        lambda ips, ports, *rest: list(zip(ips, ports)))
    spy(ZGrabSimulator, "grab", lambda found, *rest: [(found.ip, found.port)])
    spy(ZGrabSimulator, "grab_batch_columns",
        lambda found, *rest: list(zip(found.ips, found.ports)))
    spy(Universe, "lookup", lambda ip, port: [(ip, port)])
    spy(Universe, "banner_id_of", lambda record: [(record.ip, record.port)])

    config = GPSConfig(seed_fraction=dataset.sample_fraction / 2,
                       port_domain=dataset.port_domain, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0)
    priors = result.priors_observations
    real = {(ip, port) for ip, port in zip(priors.ips, priors.ports)
            if port in small_universe.hosts[ip].services}
    assert real and len(real) < len(priors)  # pseudo pages came through too
    assert not real & set(targets)


class _SpyBanner(Mapping):
    """A banner mapping that records every key read from it."""

    def __init__(self, banner_id, features, reads):
        self._banner_id = banner_id
        self._features = features
        self._reads = reads

    def __getitem__(self, key):
        self._reads.append((self._banner_id, key))
        return self._features[key]

    def get(self, key, default=None):
        self._reads.append((self._banner_id, key))
        return self._features.get(key, default)

    def __iter__(self):
        for key in self._features:
            self._reads.append((self._banner_id, key))
            yield key

    def __len__(self):
        return len(self._features)


def test_batch_predict_reads_each_banner_key_once_per_port_and_no_address(
        small_universe, lzr_split, monkeypatch):
    """A batch predict reads each distinct (banner id, port, app key) at most
    once and derives no address's network values one at a time.

    An engine run's priors batch is predicted again on the run's index with
    every banner mapping replaced by one that records its reads, and
    ``network_feature_values`` counted.  A (banner, port) pair that appears
    under several networks is read once, not once per network: the batch
    holds such pairs, so reading per (banner, port, network values) key
    would break the bound.
    """
    dataset, seed = lzr_split
    config = GPSConfig(seed_fraction=dataset.sample_fraction / 2,
                       port_domain=dataset.port_domain, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0)
    priors = result.priors_observations
    index = result.feature_index
    asn_db = small_universe.topology.asn_db
    feature_config = config.feature_config
    expected = index.predict_reference(priors.materialize(), asn_db,
                                       feature_config)
    kinds = feature_config.network_feature_kinds
    networks = defaultdict(set)
    ports_of_banner = defaultdict(set)
    for ip, port, banner_id in zip(priors.ips, priors.ports, priors.banner_ids):
        networks[banner_id, port].add(
            tuple(network_feature_values(ip, asn_db, kinds)))
        ports_of_banner[banner_id].add(port)
    assert any(len(values) > 1 for values in networks.values())

    reads = []
    batch = ObservationBatch(
        banners=priors.banners, statuses=priors.statuses, ips=priors.ips,
        ports=priors.ports, status=priors.status, banner_ids=priors.banner_ids,
        ttls=priors.ttls,
        local_banners=[_SpyBanner(-i - 1, features, reads)
                       for i, features in enumerate(priors.local_banners)])
    interned = BannerInterner.features
    monkeypatch.setattr(
        BannerInterner, "features",
        lambda self, banner_id: _SpyBanner(banner_id, interned(self, banner_id),
                                           reads))
    derived = []

    def counting_network_values(*args, **kwargs):
        derived.append(args)
        return network_feature_values(*args, **kwargs)

    monkeypatch.setattr(features_module, "network_feature_values",
                        counting_network_values)
    monkeypatch.setattr(predictions_module, "network_feature_values",
                        counting_network_values, raising=False)
    predictions = index.predict(batch, asn_db, feature_config)

    assert predictions == expected and len(expected) > 0
    assert reads
    for (banner_id, key), count in Counter(reads).items():
        assert count <= len(ports_of_banner[banner_id]), (banner_id, key)
    assert derived == []


def test_seed_extraction_encodes_each_distinct_predictor_tuple_once(
        small_universe, lzr_split, monkeypatch):
    """Seed extraction hands every distinct predictor tuple to the encoder
    once, and the relation still equals the object oracle's.

    Services that share a port derive the same ``("P", port)`` tuple, and
    co-located services the same network tuples; each is built and encoded
    once, not once per service or per (port, banner, network values) key.
    """
    dataset, seed = lzr_split
    config = FeatureConfig()
    asn_db = small_universe.topology.asn_db
    passed = []
    encode, encode_column = DictionaryEncoder.encode, DictionaryEncoder.encode_column

    def counting_encode(self, value):
        passed.append(value)
        return encode(self, value)

    def counting_encode_column(self, values):
        values = list(values)
        passed.extend(values)
        return encode_column(self, values)

    monkeypatch.setattr(DictionaryEncoder, "encode", counting_encode)
    monkeypatch.setattr(DictionaryEncoder, "encode_column", counting_encode_column)
    columns = extract_host_features_columns(seed.batch, asn_db, config)
    monkeypatch.undo()

    assert len(passed) == len(set(passed)) == len(columns.encoder) > 0
    assert passed == columns.encoder.values()
    reference = extract_host_features(seed.observations, asn_db, config)
    assert [columns.predictors_for(g) for g in range(len(columns))] == \
        [host.ports for host in reference.values()]


class _SpyHosts(dict):
    """The universe's host table, recording every address read while on."""

    def __init__(self, hosts, reads):
        super().__init__(hosts)
        self.reads = reads
        self.on = False

    def get(self, ip, default=None):
        if self.on:
            self.reads.append(ip)
        return super().get(ip, default)

    def __getitem__(self, ip):
        if self.on:
            self.reads.append(ip)
        return super().__getitem__(ip)

    def __contains__(self, ip):
        if self.on:
            self.reads.append(ip)
        return super().__contains__(ip)


def test_prediction_scan_resolves_real_services_without_per_target_calls(
        small_universe, lzr_split, monkeypatch):
    """The prediction scan takes its real services from the universe's
    packed service index.

    While an engine run's ``scan_pairs`` calls run, every (ip, port) handed
    to ``Universe.lookup`` or ``banner_id_of`` and every address read from
    the host table is recorded; none of them may be a real service the scan
    returned.
    """
    dataset, seed = lzr_split
    targets, reads = [], []
    hosts = _SpyHosts(small_universe.hosts, reads)
    monkeypatch.setattr(small_universe, "hosts", hosts)
    scan_pairs = ScanPipeline.scan_pairs

    def flagged_scan_pairs(self, *args, **kwargs):
        hosts.on = True
        try:
            return scan_pairs(self, *args, **kwargs)
        finally:
            hosts.on = False

    def spy(name, pairs_of):
        original = getattr(Universe, name)

        def recording(self, *args):
            if hosts.on:
                targets.extend(pairs_of(*args))
            return original(self, *args)

        monkeypatch.setattr(Universe, name, recording)

    monkeypatch.setattr(ScanPipeline, "scan_pairs", flagged_scan_pairs)
    spy("lookup", lambda ip, port: [(ip, port)])
    spy("banner_id_of", lambda record: [(record.ip, record.port)])

    config = GPSConfig(seed_fraction=dataset.sample_fraction / 2,
                       port_domain=dataset.port_domain, use_engine=True)
    with GPS(ScanPipeline(small_universe), config) as gps:
        result = gps.run(seed=seed, seed_cost_probes=0)
    found = result.prediction_observations
    real = {(ip, port) for ip, port in zip(found.ips, found.ports)
            if port in dict.__getitem__(hosts, ip).services}
    assert real
    assert not real & set(targets)
    assert not {ip for ip, _ in real} & set(reads)
