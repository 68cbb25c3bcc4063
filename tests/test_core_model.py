"""Unit and property tests for the co-occurrence model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.scanner.records import ScanObservation
from tests.conftest import ENGINE_LAYOUTS, host_feature_columns, resident_dataset


def _obs(ip: int, port: int, protocol: str = "http", **features) -> ScanObservation:
    app = {"protocol": protocol}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=protocol, app_features=app)


def _hosts(observations, config=None):
    return extract_host_features(observations, None, config or FeatureConfig())


class TestBuildModel:
    def test_simple_cooccurrence_probability(self):
        # Two hosts with {80, 443}, one host with only {80}.
        observations = [_obs(1, 80), _obs(1, 443), _obs(2, 80), _obs(2, 443), _obs(3, 80)]
        model = build_model(_hosts(observations))
        assert model.probability(("P", 80), 443) == pytest.approx(2 / 3)
        assert model.probability(("P", 443), 80) == pytest.approx(1.0)

    def test_unknown_predictor_is_zero(self):
        model = build_model(_hosts([_obs(1, 80)]))
        assert model.probability(("P", 9999), 80) == 0.0
        assert model.targets_for(("P", 9999)) == {}

    def test_single_service_hosts_only_contribute_denominators(self):
        model = build_model(_hosts([_obs(1, 80), _obs(2, 80)]))
        assert model.denominators[("P", 80)] == 2
        assert model.targets_for(("P", 80)) == {}

    def test_application_feature_conditioning(self):
        observations = [
            _obs(1, 80, http_server="camera-httpd"), _obs(1, 554, protocol="rtsp"),
            _obs(2, 80, http_server="nginx"), _obs(2, 22, protocol="ssh"),
            _obs(3, 80, http_server="camera-httpd"), _obs(3, 554, protocol="rtsp"),
        ]
        model = build_model(_hosts(observations))
        camera_predictor = ("PA", 80, "http_server", "camera-httpd")
        nginx_predictor = ("PA", 80, "http_server", "nginx")
        assert model.probability(camera_predictor, 554) == pytest.approx(1.0)
        assert model.probability(camera_predictor, 22) == 0.0
        assert model.probability(nginx_predictor, 22) == pytest.approx(1.0)
        # The bare port predictor is diluted across both device kinds.
        assert model.probability(("P", 80), 554) == pytest.approx(2 / 3)

    def test_best_predictor_prefers_highest_probability(self):
        observations = [
            _obs(1, 80, http_server="camera-httpd"), _obs(1, 554, protocol="rtsp"),
            _obs(2, 80, http_server="nginx"), _obs(2, 22, protocol="ssh"),
            _obs(3, 80, http_server="camera-httpd"), _obs(3, 554, protocol="rtsp"),
        ]
        hosts = _hosts(observations)
        model = build_model(hosts)
        candidates = hosts[1].ports[80]
        predictor, probability = model.best_predictor(candidates, 554)
        assert probability == pytest.approx(1.0)
        assert predictor[0] in ("PA",)  # the camera-specific banner wins over ("P", 80)

    def test_best_predictor_empty_candidates(self):
        model = CooccurrenceModel()
        assert model.best_predictor([], 80) == (None, 0.0)

    def test_known_target_ports(self):
        observations = [_obs(1, 80), _obs(1, 443), _obs(2, 22), _obs(2, 8080)]
        model = build_model(_hosts(observations))
        assert model.known_target_ports() == [22, 80, 443, 8080]

    def test_predictor_count_grows_with_features(self):
        sparse = build_model(_hosts([_obs(1, 80), _obs(1, 443)],
                                    FeatureConfig().transport_only()))
        rich = build_model(_hosts([_obs(1, 80), _obs(1, 443)]))
        assert rich.predictor_count() > sparse.predictor_count()


def _model_on_engine(hosts, executor="serial"):
    with resident_dataset(hosts, executor) as (columns, dataset):
        return build_model_with_engine(columns, dataset)


def _assert_models_equal(a: CooccurrenceModel, b: CooccurrenceModel):
    assert a.denominators == b.denominators
    assert {k: dict(v) for k, v in a.cooccurrence.items() if v} == \
        {k: dict(v) for k, v in b.cooccurrence.items() if v}


class TestEngineEquivalence:
    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_matches_reference_on_handcrafted_hosts(self, executor):
        observations = [
            _obs(1, 80, http_server="a"), _obs(1, 443), _obs(1, 22),
            _obs(2, 80, http_server="b"), _obs(2, 8080),
            _obs(3, 22),
        ]
        hosts = _hosts(observations)
        _assert_models_equal(build_model(hosts), _model_on_engine(hosts, executor))

    def test_engine_matches_reference_on_many_hosts(self):
        observations = [
            _obs(ip, port, http_server="srv%d" % (ip % 3))
            for ip in range(1, 30)
            for port in ((80, 443) if ip % 2 else (22, 80, 8080))
        ]
        hosts = _hosts(observations)
        _assert_models_equal(build_model(hosts), _model_on_engine(hosts))

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_matches_reference_on_universe_seed(self, universe, censys_split,
                                                       executor):
        hosts = extract_host_features(censys_split.seed_observations,
                                      universe.topology.asn_db, FeatureConfig())
        _assert_models_equal(build_model(hosts), _model_on_engine(hosts, executor))

    def test_host_feature_columns_shapes(self):
        hosts = _hosts([_obs(1, 80), _obs(1, 443), _obs(2, 22)])
        columns = host_feature_columns(hosts)
        assert list(columns.ips) == [1, 2]
        assert list(columns.member_starts) == [0, 2, 3]
        assert list(columns.ports) == [80, 443, 22]
        assert columns.predictors_for(0) == hosts[1].ports


ports_strategy = st.lists(
    st.lists(st.sampled_from([22, 80, 443, 8080, 2323]), min_size=1, max_size=4,
             unique=True),
    min_size=1, max_size=25,
)


class TestProperties:
    @settings(deadline=None, max_examples=40)
    @given(ports_strategy)
    def test_probabilities_within_unit_interval(self, host_ports):
        observations = [
            _obs(ip + 1, port) for ip, ports in enumerate(host_ports) for port in ports
        ]
        model = build_model(_hosts(observations, FeatureConfig().transport_only()))
        for predictor, targets in model.cooccurrence.items():
            for port in targets:
                assert 0.0 <= model.probability(predictor, port) <= 1.0

    @settings(deadline=None, max_examples=40)
    @given(ports_strategy)
    def test_engine_and_reference_agree(self, host_ports):
        observations = [
            _obs(ip + 1, port) for ip, ports in enumerate(host_ports) for port in ports
        ]
        hosts = _hosts(observations, FeatureConfig().transport_only())
        reference = build_model(hosts)
        engine = _model_on_engine(hosts)
        assert reference.denominators == engine.denominators
        for predictor, targets in reference.cooccurrence.items():
            for port, count in targets.items():
                assert engine.cooccurrence.get(predictor, {}).get(port, 0) == count

    @settings(deadline=None, max_examples=20)
    @given(ports_strategy)
    def test_engine_and_reference_agree_on_full_features(self, host_ports):
        # Full feature set (nested predictor tuples) so dictionary encoding
        # and the packed fold are exercised.
        observations = [
            _obs(ip + 1, port, http_server="srv%d" % (ip % 2))
            for ip, ports in enumerate(host_ports) for port in ports
        ]
        hosts = _hosts(observations)
        _assert_models_equal(build_model(hosts), _model_on_engine(hosts))

    @settings(deadline=None, max_examples=40)
    @given(ports_strategy)
    def test_denominator_equals_host_occurrences(self, host_ports):
        observations = [
            _obs(ip + 1, port) for ip, ports in enumerate(host_ports) for port in ports
        ]
        model = build_model(_hosts(observations, FeatureConfig().transport_only()))
        for predictor, denominator in model.denominators.items():
            port = predictor[1]
            expected = sum(1 for ports in host_ports if port in ports)
            assert denominator == expected


class TestModelLifecycle:
    """Models fed to one resident dataset: packed, dict-built and foreign."""

    @pytest.fixture()
    def seed_hosts(self, universe, censys_split):
        return extract_host_features(censys_split.seed_observations,
                                     universe.topology.asn_db, FeatureConfig())

    @staticmethod
    def _assert_builds_match(hosts, columns, dataset, model, oracle):
        assert build_priors_plan_with_engine(columns, model, 16, dataset=dataset) \
            == build_priors_plan(hosts, oracle, 16)
        assert build_prediction_index_with_engine(
            columns, model, dataset=dataset).entries() \
            == PredictiveFeatureIndex.from_seed(hosts, oracle).entries()

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_models_a_b_a_and_a_foreign_engine_model(self, seed_hosts, executor):
        half = dict(list(seed_hosts.items())[::2])
        model_a, model_b = build_model(seed_hosts), build_model(half)
        with resident_dataset(seed_hosts, executor) as (columns, dataset), \
                resident_dataset(half) as (half_columns, half_dataset):
            own = build_model_with_engine(columns, dataset)
            foreign = build_model_with_engine(half_columns, half_dataset)
            # Fresh dict models, as a benchmark's timed calls make them.
            fresh_a = CooccurrenceModel(cooccurrence=model_a.cooccurrence,
                                        denominators=model_a.denominators)
            for model, oracle in ((model_a, model_a), (model_b, model_b),
                                  (model_a, model_a), (own, model_a),
                                  (foreign, model_b), (own, model_a),
                                  (fresh_a, model_a)):
                self._assert_builds_match(seed_hosts, columns, dataset, model,
                                          oracle)
            # The foreign model was packed from its dicts; the own one never
            # decoded them.
            assert foreign.packed_counts() is None
            assert own.packed_counts() is not None

    @pytest.mark.parametrize("read_before_broadcast", [True, False])
    def test_changed_dicts_feed_the_changed_counts(self, seed_hosts,
                                                   read_before_broadcast):
        with resident_dataset(seed_hosts) as (columns, dataset):
            model = build_model_with_engine(columns, dataset)
            if not read_before_broadcast:
                self._assert_builds_match(seed_hosts, columns, dataset, model,
                                          build_model(seed_hosts))
            before = build_prediction_index_with_engine(columns, model,
                                                        dataset=dataset)
            for predictor in list(model.cooccurrence)[::2]:
                del model.cooccurrence[predictor]
            for predictor in list(model.denominators)[1::3]:
                model.denominators[predictor] += 1
            self._assert_builds_match(seed_hosts, columns, dataset, model, model)
            after = build_prediction_index_with_engine(columns, model,
                                                       dataset=dataset)
            assert after.entries() != before.entries()

    def test_dicts_on_first_read_equal_the_reference_in_fold_order(self,
                                                                   seed_hosts):
        expected = build_model(seed_hosts)
        with resident_dataset(seed_hosts) as (columns, dataset):
            model = build_model_with_engine(columns, dataset)
        assert model.packed_counts() is not None
        assert model.cooccurrence_rows() == len(expected.cooccurrence)
        assert model.cooccurrence == expected.cooccurrence
        assert model.denominators == expected.denominators
        assert model.packed_counts() is None
        assert model == expected
        # Predictors in id order, each row's ports ascending.
        ids = {value: pid for pid, value in enumerate(columns.encoder.values())}
        assert list(model.cooccurrence) == sorted(model.cooccurrence,
                                                  key=ids.__getitem__)
        assert list(model.denominators) == sorted(model.denominators,
                                                  key=ids.__getitem__)
        assert all(list(row) == sorted(row) for row in model.cooccurrence.values())

    def test_candidate_table_lives_with_its_model_sides(self, seed_hosts):
        with resident_dataset(seed_hosts) as (columns, dataset):
            store = dataset.runtime._store

            def table():
                return store[dataset.key].get("_candidates")

            model = build_model_with_engine(columns, dataset)
            build_priors_plan_with_engine(columns, model, 16, dataset=dataset)
            first = table()
            assert first is not None
            # The index build reads the table the priors build made.
            build_prediction_index_with_engine(columns, model, dataset=dataset)
            assert table() is first
            dataset.ensure_sides(build_model(seed_hosts))
            assert table() is None
            build_priors_plan_with_engine(columns, model, 16, dataset=dataset)
            assert table() is not None and table() is not first
            dataset.release()
            assert dataset.key not in store
