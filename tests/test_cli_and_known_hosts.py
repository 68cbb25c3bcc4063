"""Tests for the CLI and the known-host prediction mode (paper Section 7)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.scanner.pipeline import ScanPipeline


class TestKnownHostPrediction:
    @pytest.fixture()
    def gps(self, universe, censys_dataset):
        pipeline = ScanPipeline(universe)
        return GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                       port_domain=censys_dataset.port_domain))

    def test_predicts_remaining_services_of_known_hosts(self, gps, universe,
                                                        censys_split):
        # Known hosts: test-half hosts, each revealed through one service.
        by_host = {}
        for obs in censys_split.test_observations:
            by_host.setdefault(obs.ip, obs)
        known = list(by_host.values())[:150]

        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        assert result.predictions
        # Predictions target only the supplied hosts.
        known_ips = {obs.ip for obs in known}
        assert all(prediction.ip in known_ips for prediction in result.predictions)
        # The scan confirms a substantial share of them.
        confirmed = {obs.pair() for obs in result.prediction_observations}
        truth = set(universe.real_service_pairs())
        assert confirmed
        assert len(confirmed & truth) >= 0.5 * len(confirmed)

    def test_no_priors_bandwidth_spent(self, universe, censys_dataset, censys_split):
        from repro.scanner.bandwidth import ScanCategory
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                      port_domain=censys_dataset.port_domain))
        known = censys_split.test_observations[:50]
        gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        assert pipeline.ledger.total_probes(ScanCategory.PRIORS) == 0
        assert pipeline.ledger.total_probes(ScanCategory.PREDICTION) > 0

    def test_plan_only_mode_sends_no_probes(self, universe, censys_dataset,
                                            censys_split):
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                      port_domain=censys_dataset.port_domain))
        known = censys_split.test_observations[:50]
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known,
                                             scan=False)
        assert result.predictions
        assert not result.prediction_observations
        assert pipeline.ledger.total_probes() == 0

    def test_telemetry_run_emits_prediction_scan_span(self, universe, censys_dataset,
                                                      censys_split):
        """The known-hosts scan runs the same loop as a full run: it emits a
        ``prediction.scan`` span and discovers exactly what probing the
        predictions slice by slice discovers."""
        from repro.core.predictions import PREDICTION_BATCH_PREFIX_LEN
        from repro.scanner.bandwidth import ScanCategory
        from repro.telemetry.tracing import iter_spans

        known = censys_split.test_observations[:80]
        seed = censys_split.seed_scan_result()

        def config(telemetry_enabled):
            return GPSConfig(seed_fraction=0.05, step_size=16,
                             port_domain=censys_dataset.port_domain,
                             prediction_batch_size=7,
                             telemetry_enabled=telemetry_enabled)

        traced_gps = GPS(ScanPipeline(universe), config(True))
        traced = traced_gps.predict_for_known_hosts(seed, known)
        plain = GPS(ScanPipeline(universe), config(False)).predict_for_known_hosts(
            seed, known)

        spans = [span for span in iter_spans(traced_gps.telemetry.tracer.roots)
                 if span.name == "prediction.scan"]
        assert len(spans) == 1
        batches = -(-len(traced.predictions) // 7)
        assert spans[0].attrs == {"batches": batches,
                                  "observations": len(traced.prediction_observations)}

        # The prediction-scan loop, spelled out: slice, probe, log new pairs.
        pipeline = ScanPipeline(universe)
        discovered = {obs.pair() for obs in seed.observations}
        expected = []
        for start in range(0, len(plain.predictions), 7):
            batch = plain.predictions[start:start + 7]
            observations = pipeline.scan_pairs(
                (p.pair() for p in batch), category=ScanCategory.PREDICTION,
                batch_prefix_len=PREDICTION_BATCH_PREFIX_LEN)
            new = tuple(pair for pair in (obs.pair() for obs in observations)
                        if pair not in discovered)
            discovered.update(new)
            expected.append((pipeline.ledger.total_probes(), new))
        for result in (traced, plain):
            assert [(b.cumulative_probes, b.pairs) for b in result.discovery_log
                    if b.phase == "prediction"] == expected

    def test_reference_path_predicts_with_the_oracle(self, gps, censys_split,
                                                      monkeypatch):
        """Without ``use_engine`` the prediction step is ``predict_reference``,
        as in :meth:`GPS.run`; the compiled ``predict`` is never called."""
        from repro.core.predictions import PredictiveFeatureIndex

        calls = []
        reference = PredictiveFeatureIndex.predict_reference

        def spy(self, *args, **kwargs):
            calls.append("predict_reference")
            return reference(self, *args, **kwargs)

        def compiled(self, *args, **kwargs):
            raise AssertionError("reference path called the compiled predict")

        monkeypatch.setattr(PredictiveFeatureIndex, "predict_reference", spy)
        monkeypatch.setattr(PredictiveFeatureIndex, "predict", compiled)
        known = censys_split.test_observations[:50]
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(),
                                             known, scan=False)
        assert calls == ["predict_reference"]
        assert result.predictions

    def test_known_pairs_not_repredicted(self, gps, censys_split):
        known = censys_split.test_observations[:50]
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        known_pairs = {obs.pair() for obs in known}
        assert not (known_pairs & {p.pair() for p in result.predictions})


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--scale", "galactic"])

    @pytest.mark.parametrize("command", [
        ["quickstart"], ["coverage"], ["serve"],
        ["snapshot", "save", "--out", "snap"],
    ], ids=("quickstart", "coverage", "serve", "snapshot-save"))
    @pytest.mark.parametrize("executor", ["thread", "gpu", "pool"])
    def test_parser_rejects_unknown_executor(self, command, executor, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--executor", executor])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["quickstart"], ["coverage"], ["serve"],
        ["snapshot", "save", "--out", "snap"],
    ], ids=("quickstart", "coverage", "serve", "snapshot-save"))
    def test_parser_rejects_workers(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["quickstart"], ["coverage"], ["serve"],
        ["snapshot", "save", "--out", "snap"],
    ], ids=("quickstart", "coverage", "serve", "snapshot-save"))
    def test_parser_rejects_verbose_runtime(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--verbose-runtime"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --verbose-runtime" in \
            capsys.readouterr().err

    def test_quickstart_command(self, capsys):
        exit_code = main(["quickstart", "--scale", "small", "--seed", "3",
                          "--seed-fraction", "0.05"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "fraction of services found" in output
        assert "bandwidth (100% scans)" in output

    def test_coverage_command_censys(self, capsys):
        exit_code = main(["coverage", "--scale", "small", "--seed", "3",
                          "--dataset", "censys"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "savings vs optimal order" in output
        assert "final fraction of services" in output

    def test_coverage_command_lzr(self, capsys):
        exit_code = main(["coverage", "--scale", "small", "--seed", "3",
                          "--dataset", "lzr"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "lzr" in output

    def test_compare_xgboost_command(self, capsys):
        exit_code = main(["compare-xgboost", "--scale", "small", "--seed", "3",
                          "--ports", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "average prior-bandwidth ratio" in output

    def test_churn_command(self, capsys):
        exit_code = main(["churn", "--scale", "small", "--seed", "3", "--days", "10"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "services that disappeared" in output
