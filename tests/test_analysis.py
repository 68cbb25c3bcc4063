"""Tests for the analysis/experiment harness."""

from __future__ import annotations

import pytest

from repro.analysis import (
    SMALL_SCALE,
    feature_dimensionality,
    format_curve,
    format_table,
    make_censys_dataset,
    make_lzr_dataset,
    make_universe,
    most_predictive_feature_types,
    most_predictive_feature_types_from_run,
    network_feature_predictiveness,
    run_churn_measurement,
    run_coverage_experiment,
    run_ideal_conditions_study,
    run_performance_breakdown,
    run_precision_experiment,
    run_seed_size_sweep,
    run_step_size_sweep,
    run_xgboost_comparison,
)
from repro.analysis.coverage import coverage_summary_rows
from repro.analysis.reporting import format_ratio
from repro.analysis.scenarios import ExperimentScale, run_gps_on_dataset
from tests.conftest import TEST_SCALE


class TestScenarios:
    def test_scales_build_consistent_universes(self):
        universe = make_universe(TEST_SCALE, seed=1)
        assert universe.describe()["autonomous_systems"] == TEST_SCALE.as_count

    def test_make_datasets(self, universe, censys_dataset, lzr_dataset):
        assert len(censys_dataset.port_domain) <= TEST_SCALE.censys_top_ports
        assert lzr_dataset.sample_fraction <= TEST_SCALE.lzr_sample_fraction * 1.1

    def test_run_gps_on_dataset_returns_consistent_triple(self, universe, censys_dataset):
        run, pipeline, split = run_gps_on_dataset(universe, censys_dataset,
                                                  seed_fraction=0.05)
        assert run.discovered_pairs()
        assert pipeline.ledger.total_probes() > 0
        assert split.seed_observations

    def test_executor_runs_match_the_reference_run(self, universe,
                                                   censys_dataset):
        """``executor`` routes the builds through the engine runtime without
        changing the run."""
        reference, _, _ = run_gps_on_dataset(universe, censys_dataset,
                                             seed_fraction=0.05)
        run, _, _ = run_gps_on_dataset(universe, censys_dataset,
                                       seed_fraction=0.05, executor="serial")
        assert run.priors_plan == reference.priors_plan
        assert [p.pair() for p in run.predictions] == \
            [p.pair() for p in reference.predictions]
        assert run.discovered_pairs() == reference.discovered_pairs()

    def test_small_scale_is_defined_sensibly(self):
        assert SMALL_SCALE.host_count < 10_000
        assert isinstance(SMALL_SCALE, ExperimentScale)


class TestCoverageExperiments:
    @pytest.fixture(scope="class")
    def experiment(self, universe, censys_dataset):
        return run_coverage_experiment(universe, censys_dataset, seed_fraction=0.05,
                                       step_size=16)

    def test_gps_curve_nonempty_and_monotonic(self, experiment):
        fractions = [point.fraction for point in experiment.gps_points]
        assert fractions == sorted(fractions)
        assert experiment.final_fraction() > 0.3

    def test_curves_identical_on_the_engine(self, universe, censys_dataset,
                                            experiment):
        engine = run_coverage_experiment(universe, censys_dataset,
                                         seed_fraction=0.05, step_size=16,
                                         executor="serial")
        assert engine.gps_points == experiment.gps_points

    def test_reference_curves_present(self, experiment):
        assert experiment.optimal_points[-1].fraction == pytest.approx(1.0)
        assert experiment.oracle_points[-1].fraction == pytest.approx(1.0)

    def test_savings_and_bandwidth_queries(self, experiment):
        half = experiment.gps_bandwidth_at(0.3)
        assert half is not None and half > 0
        savings = experiment.savings_at(0.3)
        assert savings is None or savings > 0

    def test_summary_rows_render(self, experiment):
        rows = coverage_summary_rows(experiment, targets=(0.3, 0.99))
        assert len(rows) == 2
        assert rows[0][0] == "30%"

    def test_step_size_sweep_tradeoff(self, universe, censys_dataset):
        results = run_step_size_sweep(universe, censys_dataset, seed_fraction=0.05,
                                      step_sizes=(12, 20))
        assert set(results) == {12, 20}
        # A smaller step size (larger prefix) costs more bandwidth overall.
        assert (results[12].gps_points[-1].full_scans
                > results[20].gps_points[-1].full_scans)

    def test_seed_size_sweep_monotone_in_seed_cost(self, universe, censys_dataset):
        results = run_seed_size_sweep(universe, censys_dataset,
                                      seed_fractions=(0.02, 0.08), step_size=16)
        assert results[0.08].gps_points[0].full_scans \
            > results[0.02].gps_points[0].full_scans


class TestPrecisionExperiment:
    def test_precision_experiment_shapes(self, universe, censys_dataset):
        experiment = run_precision_experiment(universe, censys_dataset,
                                              seed_fraction=0.05, step_size=20)
        assert experiment.gps_all and experiment.exhaustive_all
        advantage = experiment.precision_advantage_at(0.2)
        assert advantage is None or advantage > 1.0


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self, universe, censys_dataset):
        ports = censys_dataset.port_registry().top_ports(6)
        return run_xgboost_comparison(universe, censys_dataset, ports=ports,
                                      seed_fraction=0.05, step_size=16)

    def test_per_port_entries(self, comparison):
        assert len(comparison.ports) == 6
        for entry in comparison.ports:
            assert entry.gps_prior_full_scans >= 0
            assert entry.xgb_prior_full_scans >= 0
            assert 0.0 <= entry.gps_coverage <= 1.0
            assert 0.0 <= entry.xgb_coverage <= 1.0

    def test_normalized_curves_present(self, comparison):
        assert comparison.gps_normalized_curve
        assert comparison.xgb_normalized_curve

    def test_aggregate_helpers(self, comparison):
        assert comparison.ports_where_gps_cheaper() >= 0
        average = comparison.average_prior_savings()
        assert average is None or average > 0


class TestFeatureAnalysis:
    def test_table1_rows(self, censys_dataset, universe):
        rows = feature_dimensionality(censys_dataset, universe)
        labels = [label for label, _ in rows]
        assert "Protocol" in labels and "IP's ASN" in labels
        assert len(rows) == 25
        counts = dict(rows)
        # Host-unique features have far higher dimensionality than fleet ones.
        assert counts["TLS Cert: Hash"] > counts["TLS Cert: Organization"]

    def test_table3_from_seed_attribution(self, censys_dataset, universe, censys_split):
        shares = most_predictive_feature_types(censys_dataset, universe,
                                               censys_split.seed_observations, top=5)
        assert shares
        assert abs(sum(share.service_share for share in
                       most_predictive_feature_types(censys_dataset, universe,
                                                     censys_split.seed_observations,
                                                     top=1000)) - 1.0) < 1e-6

    def test_table3_from_run_attribution(self, gps_run, censys_dataset):
        result, _ = gps_run
        shares = most_predictive_feature_types_from_run(result, censys_dataset, top=5)
        assert shares
        assert all(0.0 <= share.normalized_share <= 1.0 for share in shares)
        assert shares[0].label().startswith("(Port")

    def test_table4_network_features(self, lzr_dataset, universe):
        shares = network_feature_predictiveness(lzr_dataset, universe)
        assert shares
        kinds = {share.feature_type[1] for share in shares}
        assert kinds <= {"asn", "subnet16", "subnet17", "subnet18", "subnet19",
                         "subnet20", "subnet21", "subnet22", "subnet23"}


class TestPerformanceAndLimits:
    def test_performance_breakdown_rows(self, universe, censys_dataset):
        breakdown = run_performance_breakdown(
            universe, censys_dataset, seed_fraction=0.05, step_size=16)
        names = [row.name for row in breakdown.rows]
        assert any("seed scan" in name for name in names)
        assert any("PFS" in name for name in names)
        assert any("PRS" in name for name in names)
        assert breakdown.total_wall_seconds() > 0
        assert breakdown.total_full_scans() > 0
        assert breakdown.total_compute_seconds_single_core() > 0

    def test_performance_breakdown_reads_the_runs_spans(self, universe,
                                                        censys_dataset,
                                                        monkeypatch):
        """Table 2 runs GPS once, on the engine's serial executor: its
        compute rows are that run's span sums and its scan rows its ledger."""
        from repro.analysis.performance import PFS_SPANS, PRS_SPANS
        from repro.core.gps import GPS
        from repro.scanner.bandwidth import ScanCategory

        runs = []
        run = GPS.run

        def spy(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            runs.append((self.config.use_engine, self.config.executor,
                         self.telemetry, self.pipeline.ledger))
            return result

        monkeypatch.setattr(GPS, "run", spy)
        breakdown = run_performance_breakdown(
            universe, censys_dataset, seed_fraction=0.05, step_size=16)
        ((use_engine, executor, telemetry, ledger),) = runs
        assert use_engine and executor == "serial"

        def span_sum(names):
            (root,) = telemetry.tracer.roots
            return sum(span.duration_s for span in root.children
                       if span.name in names)

        rows = {row.name: row for row in breakdown.rows}
        for name, spans in (("Predicting first service (PFS)", PFS_SPANS),
                            ("Predicting remaining services (PRS)", PRS_SPANS)):
            assert rows[name].compute_seconds_single_core == \
                pytest.approx(span_sum(spans), rel=1e-12)
            assert rows[name].wall_seconds == \
                rows[name].compute_seconds_single_core
        assert rows["PFS scan"].probes == ledger.total_probes(ScanCategory.PRIORS)
        assert rows["PRS scan"].probes == \
            ledger.total_probes(ScanCategory.PREDICTION)
        assert rows["PFS scan"].probes > 0 and rows["PRS scan"].probes > 0

    def test_ideal_conditions_study(self, censys_dataset):
        study = run_ideal_conditions_study(censys_dataset,
                                           seed_fraction_of_dataset=0.9)
        assert study.points
        assert 0.0 < study.achievable_normalized <= 1.0
        assert study.exhaustive_full_scans == len(censys_dataset.port_domain)

    def test_ideal_conditions_validates_fraction(self, censys_dataset):
        with pytest.raises(ValueError):
            run_ideal_conditions_study(censys_dataset, seed_fraction_of_dataset=1.5)

    def test_churn_measurement(self, universe):
        measurement = run_churn_measurement(universe)
        assert 0.0 < measurement.service_loss < 1.0
        assert 0.0 < measurement.normalized_service_loss < 1.0
        assert measurement.days == 10


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(("a", "bb"), [(1, 2), (30, 4)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a",), [(1, 2)])

    def test_format_curve_samples_points(self, universe, censys_dataset):
        experiment = run_coverage_experiment(universe, censys_dataset,
                                             seed_fraction=0.05, step_size=16)
        text = format_curve(experiment.gps_points, label="GPS", max_rows=5)
        assert "GPS" in text
        assert len(text.splitlines()) <= 8

    def test_format_curve_empty(self):
        assert "(empty curve)" in format_curve([], label="x")

    def test_format_ratio(self):
        assert format_ratio(None) == "n/a"
        assert format_ratio(3.14159) == "3.1x"
