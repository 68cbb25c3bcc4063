"""Columnar feature extraction: equivalence with the object-path oracle.

``extract_host_features_columns`` folds predictor tuples straight from
``ObservationBatch`` columns into encoded ``HostFeatureColumns``; these tests
pin it to ``extract_host_features`` (same hosts in the same order, same
ports, same decoded predictor tuples in the same order), pin the encoder's
ids to the order the oracle's tuples first appear in, and pin the GPS
orchestrator's columnar engine ingest to the reference object-ingest path
across every runtime executor.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import NETWORK_FEATURE_KINDS, FeatureConfig, GPSConfig
from repro.core.features import (
    extract_host_features,
    extract_host_features_columns,
)
from repro.core.gps import GPS
from repro.core.model import build_model
from repro.core.predictions import PredictiveFeatureIndex
from repro.core.priors import build_priors_plan
from repro.internet.banners import BannerInterner
from repro.net.asn import AsnDatabase, AsnRecord
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ObservationBatch, ScanObservation
from tests.conftest import ENGINE_LAYOUTS, engine_builds


def _assert_columns_match_oracle(columns, oracle):
    """Structural equality of the columnar relation and the object mapping."""
    assert columns.ips == list(oracle)
    assert len(columns.member_starts) == len(columns.ips) + 1
    assert columns.value_starts[-1] == len(columns.value_ids)
    for g, ip in enumerate(columns.ips):
        host = oracle[ip]
        decoded = columns.predictors_for(g)
        assert list(decoded) == host.open_ports()
        for port, tuples in decoded.items():
            assert tuples == host.ports[port]


class TestColumnarExtractionEquivalence:
    def test_matches_object_extraction(self, universe, censys_split):
        config = FeatureConfig()
        asn_db = universe.topology.asn_db
        oracle = extract_host_features(censys_split.seed_observations, asn_db,
                                       config)
        batch = censys_split.seed_scan_result().batch
        columns = extract_host_features_columns(batch, asn_db, config)
        _assert_columns_match_oracle(columns, oracle)

    def test_matches_without_asn_db(self, censys_split):
        config = FeatureConfig(network_feature_kinds=("asn", "subnet16"))
        oracle = extract_host_features(censys_split.seed_observations, None,
                                       config)
        batch = ObservationBatch.from_observations(censys_split.seed_observations)
        columns = extract_host_features_columns(batch, None, config)
        _assert_columns_match_oracle(columns, oracle)

    def test_matches_for_transport_only_ablation(self, universe, censys_split):
        config = FeatureConfig().transport_only()
        asn_db = universe.topology.asn_db
        oracle = extract_host_features(censys_split.seed_observations, asn_db,
                                       config)
        columns = extract_host_features_columns(
            ObservationBatch.from_observations(censys_split.seed_observations),
            asn_db, config)
        _assert_columns_match_oracle(columns, oracle)

    def test_empty_batch(self):
        columns = extract_host_features_columns(
            ObservationBatch.from_observations([]), None, FeatureConfig())
        assert len(columns) == 0
        assert columns.member_starts == [0]
        assert columns.value_ids == []

    def test_duplicate_host_port_rows_last_wins(self):
        """Two observations of one (ip, port): the later row's banner wins,
        exactly as the object path's dict insert resolves it."""
        first = ScanObservation(ip=5, port=80, protocol="http",
                                app_features={"protocol": "http",
                                              "http_server": "old"})
        second = ScanObservation(ip=5, port=80, protocol="http",
                                 app_features={"protocol": "http",
                                               "http_server": "new"})
        config = FeatureConfig()
        oracle = extract_host_features([first, second], None, config)
        columns = extract_host_features_columns(
            ObservationBatch.from_observations([first, second]), None, config)
        _assert_columns_match_oracle(columns, oracle)
        assert ("PA", 80, "http_server", "new") in columns.predictors_for(0)[80]

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_builds_accept_columns(self, universe, censys_split, executor):
        """Engine builds ingest the columns and match the oracles."""
        config = FeatureConfig()
        asn_db = universe.topology.asn_db
        oracle = extract_host_features(censys_split.seed_observations, asn_db,
                                       config)
        columns = extract_host_features_columns(
            censys_split.seed_scan_result().batch, asn_db, config)
        model = build_model(oracle)
        built, priors, index = engine_builds(columns, executor)
        assert built.denominators == model.denominators
        assert {k: v for k, v in built.cooccurrence.items() if v} == \
            {k: v for k, v in model.cooccurrence.items() if v}
        assert priors == build_priors_plan(oracle, model, 16)
        assert index.entries() == \
            PredictiveFeatureIndex.from_seed(oracle, model).entries()


#: Hosts in two announced prefixes and one unannounced address.
IPS = (0x0A000001, 0x0A000002, 0x0A00F001, 0x0A018001, 0xC0A80001)
ASN_DB = AsnDatabase([AsnRecord(0x0A000000, 16, 100),
                      AsnRecord(0x0A010000, 17, 200)])
APP_KEYS = ("protocol", "http_server", "ssh_banner")
banners = st.dictionaries(st.sampled_from(APP_KEYS),
                          st.sampled_from(("a", "b", "")), max_size=3)
# (ip, port, banner, carried as a batch-local banner?); few hosts and ports,
# so (host, port) rows repeat.
rows = st.lists(st.tuples(st.sampled_from(IPS), st.sampled_from((22, 80, 443)),
                          banners, st.booleans()), max_size=24)
configs = st.builds(
    lambda keys, kinds, flags: FeatureConfig(
        app_feature_keys=tuple(keys), network_feature_kinds=tuple(kinds),
        include_transport_only=flags[0], include_app=flags[1],
        include_network=flags[2], include_app_network=flags[3]),
    st.lists(st.sampled_from(APP_KEYS), max_size=4),
    st.lists(st.sampled_from(NETWORK_FEATURE_KINDS[:3]), max_size=3),
    st.tuples(st.booleans(), st.booleans(), st.booleans(),
              st.booleans()).filter(any))


def _drawn_batch(drawn_rows):
    batch = ObservationBatch(banners=BannerInterner())
    status = batch.status_id("http")
    for ip, port, banner, local in drawn_rows:
        banner_id = (batch.add_local_banner(banner) if local
                     else batch.banners.intern(banner))
        batch.append(ip, port, status, banner_id, 64)
    return batch


@settings(max_examples=150, deadline=None)
@given(drawn_rows=rows, config=st.one_of(configs, st.just(FeatureConfig())),
       asn_db=st.sampled_from([ASN_DB, None]))
def test_encoder_ids_follow_the_oracle_first_appearance_order(drawn_rows, config,
                                                               asn_db):
    """``encoder.values()`` is the object oracle's tuples in the order they
    first appear: hosts in order, ports ascending, tuples in derivation
    order.  Drawn over ablations (families off, key and kind subsets,
    repeated keys and kinds), no ASN database, unannounced addresses,
    batch-local banners and repeated (host, port) rows, where the last
    wins."""
    batch = _drawn_batch(drawn_rows)
    oracle = extract_host_features(batch.materialize(), asn_db, config)
    columns = extract_host_features_columns(batch, asn_db, config)
    expected = dict.fromkeys(
        predictor for host in oracle.values() for port in host.open_ports()
        for predictor in host.ports[port])
    assert columns.encoder.values() == list(expected)
    _assert_columns_match_oracle(columns, oracle)


class TestGPSColumnarIngestEquivalence:
    """Columnar engine GPS output == reference object-ingest GPS output."""

    @pytest.fixture(scope="class")
    def reference_run(self, universe, censys_dataset, censys_split):
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain)
        with GPS(pipeline, config) as gps:
            return gps.run(seed=censys_split.seed_scan_result(),
                           seed_cost_probes=0)

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_all_executors_match_reference_ingest(self, universe, censys_dataset,
                                               censys_split, reference_run,
                                               executor):
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain,
                           use_engine=True, executor=executor)
        with GPS(pipeline, config) as gps:
            run = gps.run(seed=censys_split.seed_scan_result(),
                          seed_cost_probes=0)
        assert run.model.denominators == reference_run.model.denominators
        assert {k: v for k, v in run.model.cooccurrence.items() if v} == \
            {k: v for k, v in reference_run.model.cooccurrence.items() if v}
        assert run.priors_plan == reference_run.priors_plan
        assert run.feature_index.entries() == reference_run.feature_index.entries()
        assert [p.pair() for p in run.predictions] == \
            [p.pair() for p in reference_run.predictions]
        assert run.discovered_pairs() == reference_run.discovered_pairs()

    def test_seed_without_batch_still_ingests_columnar(self, universe,
                                                       censys_dataset,
                                                       censys_split,
                                                       reference_run):
        """A seed carrying only object rows (no columnar batch) rebuilds the
        columns and produces the identical run."""
        seed = censys_split.seed_scan_result()
        seed.batch = None
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain,
                           use_engine=True)
        with GPS(pipeline, config) as gps:
            run = gps.run(seed=seed, seed_cost_probes=0)
        assert run.priors_plan == reference_run.priors_plan
        assert run.feature_index.entries() == reference_run.feature_index.entries()
        assert run.discovered_pairs() == reference_run.discovered_pairs()
