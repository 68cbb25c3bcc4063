"""Integration tests for the GPS orchestrator."""

from __future__ import annotations

import pytest

from repro.core.config import GPSConfig
from repro.core.gps import GPS, _Columns, _DiscoveryLog
from repro.core.metrics import fraction_of_services
from repro.datasets.split import seed_scan_cost_probes
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline
from tests.conftest import ENGINE_LAYOUTS


class TestDatasetSplitMode:
    def test_run_produces_all_artifacts(self, gps_run):
        result, _ = gps_run
        assert result.model is not None
        assert result.feature_index is not None
        assert result.priors_plan
        assert result.predictions
        assert result.discovery_log
        assert result.model_build_seconds > 0.0

    def test_discovery_log_is_cumulative_and_deduplicated(self, gps_run):
        result, _ = gps_run
        probes = [batch.cumulative_probes for batch in result.discovery_log]
        assert probes == sorted(probes)
        seen = set()
        for batch in result.discovery_log:
            assert not (set(batch.pairs) & seen)
            seen.update(batch.pairs)
        assert seen == result.discovered_pairs()

    def test_discovery_log_keeps_first_batch_repeats(self):
        # A pair is new in the first batch that found it, repeats in that
        # batch included, as a batch logged pair by pair would keep them.
        log = _DiscoveryLog()
        log.follow(_Columns([5, 5, 6, 9], [80, 80, 22, 1]))
        log.add("seed", 10, 3)
        log.add("priors", 20, 1)
        log.follow(_Columns([6, 7, 7, 5, 9], [22, 1, 1, 80, 1]))
        log.add("prediction", 30, 5)
        assert [(batch.phase, batch.cumulative_probes, batch.pairs)
                for batch in log.resolve()] == [
            ("seed", 10, ((5, 80), (5, 80), (6, 22))),
            ("priors", 20, ((9, 1),)),
            ("prediction", 30, ((7, 1), (7, 1))),
        ]
        assert log.known_keys().tolist() == sorted(
            ip << 16 | port for ip, port in [(5, 80), (5, 80), (6, 22), (9, 1),
                                             (6, 22), (7, 1), (7, 1), (5, 80),
                                             (9, 1)])

    def test_phases_appear_in_order(self, gps_run):
        result, _ = gps_run
        phases = [batch.phase for batch in result.discovery_log]
        assert phases[0] == "seed"
        if "prediction" in phases and "priors" in phases:
            assert phases.index("priors") < phases.index("prediction")

    def test_seed_bandwidth_charged(self, gps_run, censys_dataset):
        result, pipeline = gps_run
        expected_seed = seed_scan_cost_probes(censys_dataset, 0.05)
        assert pipeline.ledger.total_probes(ScanCategory.SEED) == expected_seed

    def test_port_domain_respected(self, gps_run, censys_dataset):
        result, _ = gps_run
        domain = set(censys_dataset.port_domain)
        assert all(entry.port in domain for entry in result.priors_plan)
        assert all(prediction.port in domain for prediction in result.predictions)

    def test_gps_finds_majority_of_dataset_services(self, gps_run, censys_dataset):
        result, _ = gps_run
        fraction = fraction_of_services(result.discovered_pairs(),
                                        censys_dataset.pairs())
        assert fraction >= 0.5

    def test_gps_uses_less_bandwidth_than_exhaustive_domain_scan(self, gps_run,
                                                                 censys_dataset):
        _, pipeline = gps_run
        exhaustive_full_scans = len(censys_dataset.port_domain)
        assert pipeline.ledger.full_scans() < exhaustive_full_scans

    def test_all_observations_cover_every_phase(self, gps_run):
        result, _ = gps_run
        total = (len(result.seed_observations) + len(result.priors_observations)
                 + len(result.prediction_observations))
        assert len(result.all_observations()) == total

    def test_log_as_tuples_matches_batches(self, gps_run):
        result, _ = gps_run
        tuples = result.log_as_tuples()
        assert len(tuples) == len(result.discovery_log)
        assert tuples[0][0] == result.discovery_log[0].cumulative_probes


class TestSelfCollectedSeedMode:
    def test_gps_collects_its_own_seed(self, universe):
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(seed_fraction=0.02, step_size=16))
        result = gps.run()
        assert result.seed_observations
        # The self-collected seed is charged at one probe per (address, port).
        sampled = int(round(universe.address_space_size() * 0.02))
        assert pipeline.ledger.total_probes(ScanCategory.SEED) >= sampled * 65535


class TestBudgetEnforcement:
    def test_budget_truncates_run(self, universe, censys_dataset, censys_split):
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain,
                           max_full_scans=4.0)
        gps = GPS(pipeline, config)
        result = gps.run(seed=censys_split.seed_scan_result(),
                         seed_cost_probes=seed_scan_cost_probes(censys_dataset, 0.05))
        assert result.truncated_by_budget
        # The budget may be overshot by at most one scan batch.
        budget_probes = 4.0 * universe.address_space_size()
        assert pipeline.ledger.total_probes() <= budget_probes + 70000 * 8

    def test_unbudgeted_run_not_truncated(self, gps_run):
        result, _ = gps_run
        assert not result.truncated_by_budget

    def test_budgeted_run_finds_fewer_services(self, universe, censys_dataset,
                                               censys_split, gps_run):
        full_result, _ = gps_run
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain,
                           max_full_scans=4.0)
        gps = GPS(pipeline, config)
        budgeted = gps.run(seed=censys_split.seed_scan_result(),
                           seed_cost_probes=seed_scan_cost_probes(censys_dataset, 0.05))
        assert len(budgeted.discovered_pairs()) <= len(full_result.discovered_pairs())


class TestEngineBackedRun:
    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_engine_builds_produce_same_discoveries(self, universe, censys_dataset,
                                                    censys_split, gps_run, executor):
        reference_result, reference_pipeline = gps_run
        pipeline = ScanPipeline(universe)
        config = GPSConfig(seed_fraction=0.05, step_size=16,
                           port_domain=censys_dataset.port_domain, use_engine=True,
                           executor=executor)
        with GPS(pipeline, config) as gps:
            result = gps.run(seed=censys_split.seed_scan_result(),
                             seed_cost_probes=seed_scan_cost_probes(censys_dataset,
                                                                    0.05))
        assert result.discovered_pairs() == reference_result.discovered_pairs()
        assert pipeline.ledger.total_probes() == \
            reference_pipeline.ledger.total_probes()


class TestSerialExecutorDefault:
    """``GPSConfig.executor`` defaults to ``"serial"`` without waking the engine."""

    def test_reference_config_has_no_runtime(self, universe):
        config = GPSConfig()
        assert config.executor == "serial" and not config.use_engine
        with GPS(ScanPipeline(universe), config) as gps:
            assert gps.runtime() is None

    def test_engine_config_defaults_to_a_serial_runtime(self, universe):
        with GPS(ScanPipeline(universe), GPSConfig(use_engine=True)) as gps:
            runtime = gps.runtime()
            assert runtime is not None and runtime.executor == "serial"
            assert gps.runtime() is runtime
        assert runtime.closed

    def test_snapshot_save_without_executor_has_no_shard_layout(self, tmp_path,
                                                                capsys):
        from repro.cli import main
        from repro.engine.snapshot import open_snapshot

        out = tmp_path / "snap"
        assert main(["snapshot", "save", "--scale", "small", "--seed", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        snapshot = open_snapshot(str(out))
        assert not any(name.startswith("shard-") for name in snapshot.sections())
        assert "shards" not in snapshot.meta
        assert snapshot.has_section("model")

    def test_prepared_model_without_runtime_matches_reference(self, universe,
                                                              censys_dataset,
                                                              censys_split):
        from repro.serving.registry import build_prepared_model

        seed = censys_split.seed_scan_result()
        base = {"seed_fraction": 0.05, "port_domain": censys_dataset.port_domain}
        reference = build_prepared_model("reference", ScanPipeline(universe), seed,
                                         GPSConfig(**base))
        engine = build_prepared_model("engine", ScanPipeline(universe), seed,
                                      GPSConfig(use_engine=True, **base))
        assert engine.priors_plan == reference.priors_plan
        assert engine.index.entries() == reference.index.entries()
        known = censys_split.test_observations[:200]
        assert engine.predict(known) == reference.predict(known)

    @pytest.mark.parametrize("executor", ENGINE_LAYOUTS)
    def test_prepared_model_on_supplied_runtime_matches_reference(
            self, universe, censys_dataset, censys_split, executor):
        from repro.engine.runtime import EngineRuntime
        from repro.serving.registry import build_prepared_model

        seed = censys_split.seed_scan_result()
        base = {"seed_fraction": 0.05, "port_domain": censys_dataset.port_domain}
        reference = build_prepared_model("reference", ScanPipeline(universe), seed,
                                         GPSConfig(**base))
        with EngineRuntime(executor=executor) as runtime:
            engine = build_prepared_model(
                "engine", ScanPipeline(universe), seed,
                GPSConfig(use_engine=True, executor=executor, **base), runtime)
            # The build releases its columns from a supplied runtime too.
            assert runtime._store == {}
        assert engine.priors_plan == reference.priors_plan
        assert engine.index.entries() == reference.index.entries()
        known = censys_split.test_observations[:200]
        assert engine.predict(known) == reference.predict(known)
