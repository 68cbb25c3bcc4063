"""Equivalence tests for the engine-backed prediction-index build.

``build_prediction_index_with_engine`` is *defined* as producing the same
:class:`~repro.core.predictions.PredictiveFeatureIndex` as the reference
``PredictiveFeatureIndex.from_seed`` -- entry for entry, probabilities
bit-identical, argmax ties broken identically -- on every runtime executor.
The tests pin the tie-break ladder explicitly (probability, then support,
then smallest predictor tuple), the min-support/fallback tiers and the
cutoff, plus the bounded network-feature memo that ``predict`` keeps across
GPS rounds.
"""

from __future__ import annotations

import pytest

import repro.core.predictions as predictions_module
from repro.core.config import FeatureConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.model import CooccurrenceModel, build_model
from repro.core.predictions import (
    NET_FEATURE_CACHE_MAX,
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.datasets.split import split_seed_test
from repro.scanner.records import ScanObservation
from tests.conftest import ENGINE_LAYOUTS, engine_builds, resident_dataset

def _host(ip, ports):
    host = HostFeatures(ip=ip)
    host.ports = {port: list(preds) for port, preds in ports.items()}
    return host


def _model(denominators, cooccurrence):
    model = CooccurrenceModel()
    model.denominators = dict(denominators)
    model.cooccurrence = {p: dict(t) for p, t in cooccurrence.items()}
    return model


def _assert_indices_equal(engine, reference):
    assert engine.entries() == reference.entries()
    assert engine.predictors() == reference.predictors()
    assert len(engine) == len(reference)


def _engine_index(hosts, model, executor="serial", **kwargs):
    with resident_dataset(hosts, executor) as (columns, dataset):
        return build_prediction_index_with_engine(dataset, model, **kwargs)


class TestEngineFromSeedEquivalence:
    """Dataset-level engine == reference, across executors and parameters."""

    @pytest.fixture(scope="class")
    def seed_inputs(self, universe, censys_dataset):
        split = split_seed_test(censys_dataset, seed_fraction=0.1, seed=0)
        hosts = extract_host_features(split.seed_observations,
                                      universe.topology.asn_db, FeatureConfig())
        return hosts, build_model(hosts), censys_dataset.port_domain

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_matches_oracle_across_executors(self, seed_inputs, executor):
        hosts, model, port_domain = seed_inputs
        reference = PredictiveFeatureIndex.from_seed(hosts, model,
                                                     port_domain=port_domain)
        engine = _engine_index(hosts, model, executor, port_domain=port_domain)
        _assert_indices_equal(engine, reference)

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_built_model_feeds_identical_index(self, seed_inputs, executor):
        hosts, model, port_domain = seed_inputs
        reference = PredictiveFeatureIndex.from_seed(hosts, model,
                                                     port_domain=port_domain)
        _, _, engine = engine_builds(hosts, executor, port_domain=port_domain)
        _assert_indices_equal(engine, reference)

    @pytest.mark.parametrize("min_support", (1, 2, 3))
    def test_matches_oracle_across_min_support(self, seed_inputs, min_support):
        hosts, model, _ = seed_inputs
        reference = PredictiveFeatureIndex.from_seed(
            hosts, model, min_pattern_support=min_support)
        engine = _engine_index(hosts, model, min_pattern_support=min_support)
        _assert_indices_equal(engine, reference)

    def test_matches_oracle_with_cutoff(self, seed_inputs):
        hosts, model, _ = seed_inputs
        reference = PredictiveFeatureIndex.from_seed(hosts, model,
                                                     probability_cutoff=0.3)
        engine = _engine_index(hosts, model, probability_cutoff=0.3)
        _assert_indices_equal(engine, reference)


class TestArgmaxTieBreaks:
    """Handcrafted tie cases: both paths must select the identical winner."""

    def _both(self, hosts, model, **kwargs):
        reference = PredictiveFeatureIndex.from_seed(hosts, model,
                                                     probability_cutoff=0.0,
                                                     **kwargs)
        engine = _engine_index(hosts, model, probability_cutoff=0.0, **kwargs)
        _assert_indices_equal(engine, reference)
        return engine, reference

    def test_equal_prob_equal_support_smallest_tuple_wins(self):
        # Both predictors score 0.5 with support 4 for port 443; the encoder
        # sees the lexicographically *larger* tuple first, so first-seen id
        # order disagrees with tuple order on purpose.
        pred_late = ("PA", 80, "b_feature", "x")
        pred_early = ("PA", 80, "a_feature", "x")
        hosts = {1: _host(1, {80: [pred_late, pred_early], 443: []})}
        model = _model({pred_late: 4, pred_early: 4},
                       {pred_late: {443: 2}, pred_early: {443: 2}})
        engine, _ = self._both(hosts, model, min_pattern_support=1)
        assert engine.targets_for(pred_early) == {443: 0.5}
        assert engine.targets_for(pred_late) == {}

    def test_equal_prob_higher_support_wins_over_smaller_tuple(self):
        pred_small = ("PA", 80, "a_feature", "x")  # 1/2, support 2
        pred_big = ("PA", 80, "b_feature", "x")    # 2/4, support 4
        hosts = {1: _host(1, {80: [pred_small, pred_big], 443: []})}
        model = _model({pred_small: 2, pred_big: 4},
                       {pred_small: {443: 1}, pred_big: {443: 2}})
        engine, _ = self._both(hosts, model, min_pattern_support=1)
        assert engine.targets_for(pred_big) == {443: 0.5}
        assert engine.targets_for(pred_small) == {}

    def test_supported_tier_beats_stronger_unsupported_pattern(self):
        # A host-unique pattern reaches probability 1.0 but has support 1;
        # min_pattern_support=2 must prefer the weaker supported pattern.
        unique = ("PA", 80, "tls_cert_hash", "deadbeef")
        shared = ("PA", 80, "http_server", "fleet-httpd")
        hosts = {1: _host(1, {80: [unique, shared], 443: []})}
        model = _model({unique: 1, shared: 10},
                       {unique: {443: 1}, shared: {443: 1}})
        engine, _ = self._both(hosts, model, min_pattern_support=2)
        assert engine.targets_for(shared) == {443: 0.1}
        assert engine.targets_for(unique) == {}

    def test_fallback_to_unsupported_when_no_supported_pattern(self):
        unique = ("PA", 80, "tls_cert_hash", "deadbeef")
        hosts = {1: _host(1, {80: [unique], 443: []})}
        model = _model({unique: 1}, {unique: {443: 1}})
        engine, _ = self._both(hosts, model, min_pattern_support=2)
        assert engine.targets_for(unique) == {443: 1.0}

    def test_three_service_host_cross_member_argmax(self):
        # Port 22's predictor is the strongest for 443; port 80's for 8080.
        p22 = ("P", 22)
        p80 = ("P", 80)
        p443 = ("P", 443)
        hosts = {1: _host(1, {22: [p22], 80: [p80], 443: [p443]})}
        model = _model(
            {p22: 10, p80: 10, p443: 10},
            {p22: {443: 9, 80: 1}, p80: {443: 5, 22: 2}, p443: {80: 3}},
        )
        engine, _ = self._both(hosts, model, min_pattern_support=1)
        assert engine.targets_for(p22) == {443: 0.9}
        assert engine.targets_for(p443) == {80: 0.3}
        assert engine.targets_for(p80) == {22: 0.2}

    def test_port_domain_filters_targets_not_candidates(self):
        # 443 is outside the domain: no entry targets it, but the service on
        # 443 still supplies the predictor for the in-domain port 80.
        p443 = ("P", 443)
        p80 = ("P", 80)
        hosts = {1: _host(1, {443: [p443], 80: [p80]})}
        model = _model({p443: 4, p80: 4}, {p443: {80: 2}, p80: {443: 2}})
        engine, _ = self._both(hosts, model, port_domain=(80,),
                              min_pattern_support=1)
        assert engine.targets_for(p443) == {80: 0.5}
        assert engine.targets_for(p80) == {}

    def test_cutoff_applies_identically(self):
        p80 = ("P", 80)
        p443 = ("P", 443)
        hosts = {1: _host(1, {80: [p80], 443: [p443]})}
        model = _model({p80: 100, p443: 100}, {p80: {443: 1}, p443: {80: 1}})
        reference = PredictiveFeatureIndex.from_seed(hosts, model,
                                                     probability_cutoff=0.05,
                                                     min_pattern_support=1)
        engine = _engine_index(hosts, model, probability_cutoff=0.05,
                               min_pattern_support=1)
        _assert_indices_equal(engine, reference)
        assert len(engine) == 0

    def test_own_values_never_score_for_their_member(self):
        # Adversarial model: predictor F's count row contains F's own
        # member's label (impossible for real co-occurrence counts, whose
        # tuples embed their port, but the operator must match the oracle
        # for any caller-supplied model).  Without the explicit i != j
        # exclusion, host 1's own F (1/2) would beat G (1/3) for port 80.
        pred_f = ("PA", 80, "http_server", "x")
        pred_g = ("P", 22)
        hosts = {1: _host(1, {80: [pred_f], 22: [pred_g]})}
        model = _model({pred_f: 2, pred_g: 3},
                       {pred_f: {80: 1, 22: 1}, pred_g: {80: 1}})
        engine, _ = self._both(hosts, model, min_pattern_support=1)
        assert engine.targets_for(pred_g) == {80: pytest.approx(1 / 3)}
        assert engine.targets_for(pred_f) == {22: 0.5}

    def test_single_service_hosts_select_nothing(self):
        hosts = {1: _host(1, {80: [("P", 80)]}),
                 2: _host(2, {80: [("P", 80)]})}
        model = _model({("P", 80): 2}, {})
        engine, _ = self._both(hosts, model, min_pattern_support=1)
        assert len(engine) == 0


class TestBoundedNetFeatureCache:
    """predictions.predict's memo must stay bounded across GPS rounds."""

    @pytest.fixture()
    def index(self):
        return PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 554), 37777, 0.9),
        ])

    @staticmethod
    def _round(index, ips, config=None):
        observations = [ScanObservation(ip=ip, port=554, protocol="rtsp",
                                        app_features={"protocol": "rtsp"})
                        for ip in ips]
        return index.predict(observations, None, config or FeatureConfig())

    def test_cache_persists_between_rounds(self, index):
        self._round(index, range(10))
        assert len(index._net_cache) == 10
        self._round(index, range(10))
        assert len(index._net_cache) == 10

    def test_cache_never_exceeds_bound(self, index, monkeypatch):
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 16)
        for round_index in range(5):
            self._round(index, range(round_index * 40, round_index * 40 + 40))
            assert len(index._net_cache) <= 16

    def test_eviction_does_not_change_predictions(self, index, monkeypatch):
        ips = list(range(100))
        expected = self._round(PredictiveFeatureIndex(
            [predictions_module.PredictiveFeature(("P", 554), 37777, 0.9)]), ips)
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        for _ in range(3):
            assert self._round(index, ips) == expected
            assert len(index._net_cache) <= 8

    def test_hot_key_survives_eviction_pressure(self, index, monkeypatch):
        """True LRU: a key that keeps hitting outlives streams of cold keys."""
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        hot_ip = 10_000
        self._round(index, [hot_ip])
        cold = iter(range(1_000_000, 2_000_000))
        for _ in range(10):
            # Refresh the hot key, then shove in almost a full cache of cold
            # keys; under FIFO the hot key would age out regardless of hits,
            # under LRU the refresh keeps it resident every time.
            self._round(index, [hot_ip])
            self._round(index, [next(cold) for _ in range(7)])
            assert hot_ip in index._net_cache
            assert len(index._net_cache) <= 8

    def test_lru_evicts_stalest_not_newest(self, index, monkeypatch):
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 4)
        self._round(index, [1, 2, 3, 4])
        self._round(index, [1])          # 2 is now the least recently used
        self._round(index, [5])          # evicts 2
        assert 1 in index._net_cache
        assert 2 not in index._net_cache
        assert set(index._net_cache) == {1, 3, 4, 5}

    def test_cache_rekeys_on_feature_kind_change(self, index):
        wide = FeatureConfig(network_feature_kinds=("subnet16",))
        narrow = FeatureConfig(network_feature_kinds=("subnet23",))
        self._round(index, range(5), wide)
        first_kinds = index._net_cache_kinds
        self._round(index, range(5), narrow)
        assert index._net_cache_kinds == ("subnet23",)
        assert first_kinds != index._net_cache_kinds
        # A fresh index with the narrow config must agree (no stale reuse).
        fresh = PredictiveFeatureIndex(
            [predictions_module.PredictiveFeature(("P", 554), 37777, 0.9)])
        assert self._round(index, range(5), narrow) == \
            self._round(fresh, range(5), narrow)

    def test_default_bound_is_large(self):
        assert NET_FEATURE_CACHE_MAX >= 1024


class TestNetFeatureCacheThreadSafety:
    """The memo must survive concurrent predict() calls (the serving layer
    folds lookups on a thread pool; pre-lock, a get/move_to_end racing a
    concurrent eviction raised KeyError and could corrupt the OrderedDict)."""

    def _index(self):
        return PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 554), 37777, 0.9),
        ])

    @staticmethod
    def _observations(ips):
        return [ScanObservation(ip=ip, port=554, protocol="rtsp",
                                app_features={"protocol": "rtsp"})
                for ip in ips]

    def test_concurrent_predicts_under_eviction_pressure(self, monkeypatch):
        """Hammer: many threads, overlapping keys, cache far smaller than the
        working set, so hits, inserts and evictions interleave constantly."""
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        index = self._index()
        config = FeatureConfig()
        # Overlapping slices: every thread shares keys with its neighbours.
        slices = [list(range(start, start + 48)) for start in range(0, 128, 16)]
        expected = {}
        for ips in slices:
            key = tuple(ips)
            if key not in expected:
                expected[key] = self._index().predict(
                    self._observations(ips), None, config)

        def hammer(ips):
            rows = []
            for _ in range(25):
                rows.append(index.predict(self._observations(ips), None, config))
            return ips, rows

        with ThreadPoolExecutor(max_workers=8) as pool:
            for ips, rows in pool.map(hammer, slices * 2):
                for row in rows:
                    assert row == expected[tuple(ips)]
        assert len(index._net_cache) <= 8

    def test_concurrent_predicts_correct_at_large_capacity(self):
        """With room for everything, concurrency must not change results or
        lose cache entries."""
        from concurrent.futures import ThreadPoolExecutor

        index = self._index()
        config = FeatureConfig()
        ips = list(range(200))
        expected = self._index().predict(self._observations(ips), None, config)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda _: index.predict(self._observations(ips), None, config),
                range(12)))
        assert all(result == expected for result in results)
        assert len(index._net_cache) == len(ips)
