"""The telemetry subsystem: registry, tracer, event bus, and its surfaces.

Four layers of assurance, mirroring the subsystem's promises:

* the instruments themselves (exact totals under concurrent writers,
  Prometheus ``le`` bucket semantics, a pinned golden exposition document);
* the span tracer (parent/child nesting, JSON round-trip, the span budget);
* **equivalence** -- enabling telemetry changes no model, priors plan,
  prediction list or discovery log bit, and no serving reply;
* the operator surfaces (``GET /metrics`` validity, the enriched
  ``GET /stats``, ``--trace-out`` on the CLI).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.scanner.pipeline import ScanPipeline
from repro.serving.schemas import PointLookup
from repro.serving.service import GPSService, ServingConfig
from repro.telemetry import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
    telemetry_or_null,
)


class TestRegistry:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Total.", endpoint="x")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        # Get-or-create: the same (name, labels) resolves the same child.
        assert registry.counter("requests_total", endpoint="x") is counter
        gauge = registry.gauge("pending")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3

    def test_label_order_and_value_types_resolve_one_child(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", a="1", b="2")
        assert registry.counter("c_total", b="2", a="1") is first
        assert registry.counter("c_total", a=1, b=2) is first
        first.inc()
        assert registry.as_dict()["c_total"]["samples"] == [
            {"labels": {"a": "1", "b": "2"}, "value": 1.0}]

    def test_first_call_fixes_histogram_bounds(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(0.5,), x="a")
        assert registry.histogram("h", buckets=(1.0, 2.0), x="b").bounds \
            == (0.5,)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing_total")
        registry.counter("thing_total")  # resolved again before the clash
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing_total")

    def test_disabled_registry_hands_out_noops(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("x_total")
        counter.inc(100)
        assert counter.value == 0
        assert registry.render_prometheus() == ""
        assert registry.as_dict() == {}

    def test_exact_totals_under_concurrent_writers(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 5000

        start = threading.Barrier(threads)

        def writer() -> None:
            start.wait(timeout=60)
            for _ in range(per_thread):
                registry.counter("hits_total", worker="w").inc()
                registry.histogram("lat_seconds", buckets=(0.5,)).observe(0.1)
                registry.histogram("paired_seconds", buckets=(0.5,)) \
                    .observe_and_count(0.1, registry.counter("paired_total"))

        pool = [threading.Thread(target=writer) for _ in range(threads)]
        # A common start and frequent thread switches give a lost update or
        # a duplicated first resolution of the child their best chance to
        # show in the totals.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert registry.counter("hits_total", worker="w").value \
            == threads * per_thread
        histogram = registry.histogram("lat_seconds", buckets=(0.5,))
        assert histogram.count == threads * per_thread
        assert histogram.sum == pytest.approx(0.1 * threads * per_thread)
        paired = registry.histogram("paired_seconds", buckets=(0.5,))
        assert paired.count == threads * per_thread
        assert registry.counter("paired_total").value == threads * per_thread


class TestHistogramBuckets:
    def test_le_semantics_and_cumulative_counts(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.05, 0.1, 0.7, 2.0, 50.0):
            histogram.observe(value)
        # ``le`` is inclusive: 0.01 lands in the 0.01 bucket, 0.1 in 0.1's.
        assert histogram.cumulative_buckets() == [
            ("0.01", 2), ("0.1", 4), ("1", 5), ("+Inf", 7)]
        assert histogram.count == 7
        assert histogram.sum == pytest.approx(52.865)

    def test_observe_and_count_matches_observe_then_inc(self):
        separate, paired = MetricsRegistry(), MetricsRegistry()
        for value in (0.005, 0.1, 0.7, 50.0):
            separate.histogram("h", buckets=(0.01, 0.1, 1.0)).observe(value)
            separate.counter("c_total").inc()
            paired.histogram("h", buckets=(0.01, 0.1, 1.0)).observe_and_count(
                value, paired.counter("c_total"))
        assert paired.render_prometheus() == separate.render_prometheus()
        null = MetricsRegistry(enabled=False)
        null.histogram("h").observe_and_count(1.0, null.counter("c_total"))
        assert null.render_prometheus() == ""

    def test_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())
        # A rejected first call fixes nothing: the name stays free.
        assert registry.histogram("bad", buckets=(0.5, 1.0)).bounds \
            == (0.5, 1.0)


class TestPrometheusExposition:
    def test_golden_document(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Total requests.",
                         endpoint="lookup").inc(3)
        registry.gauge("pending", "In flight.").set(2)
        histogram = registry.histogram("latency_seconds", "Latency.",
                                       buckets=(0.1, 1.0), endpoint="lookup")
        for value in (0.05, 0.1, 0.5, 3.0):
            histogram.observe(value)
        assert registry.render_prometheus() == (
            "# HELP latency_seconds Latency.\n"
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{endpoint="lookup",le="0.1"} 2\n'
            'latency_seconds_bucket{endpoint="lookup",le="1"} 3\n'
            'latency_seconds_bucket{endpoint="lookup",le="+Inf"} 4\n'
            'latency_seconds_sum{endpoint="lookup"} 3.65\n'
            'latency_seconds_count{endpoint="lookup"} 4\n'
            "# HELP pending In flight.\n"
            "# TYPE pending gauge\n"
            "pending 2\n"
            "# HELP requests_total Total requests.\n"
            "# TYPE requests_total counter\n"
            'requests_total{endpoint="lookup"} 3\n'
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", task='we"ird\nname').inc()
        assert r'task="we\"ird\nname"' in registry.render_prometheus()


class TestTracer:
    def test_nesting_attrs_and_json_roundtrip(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("model.build", hosts=3) as build:
                build.set("pairs", 7)
            with tracer.span("predict"):
                pass
            run.set("ok", True)
        (root,) = tracer.roots
        assert root.name == "run" and root.attrs == {"ok": True}
        assert [child.name for child in root.children] \
            == ["model.build", "predict"]
        assert root.children[0].attrs == {"hosts": 3, "pairs": 7}
        assert root.duration_s >= root.children[0].duration_s >= 0

        rebuilt = Tracer.spans_from_json(tracer.to_json())
        assert [span.name for span in rebuilt] == ["run"]
        assert rebuilt[0].children[0].attrs == {"hosts": 3, "pairs": 7}
        assert rebuilt[0].duration_s == pytest.approx(root.duration_s)

    def test_exception_annotates_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.roots[0].attrs["error"] == "RuntimeError"

    def test_span_budget_drops_past_cap(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert tracer.span_count() == 2
        assert tracer.dropped == 3
        assert len(tracer.roots) == 2

    def test_flat_events_depth(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [(e["name"], e["depth"]) for e in tracer.flat_events()] \
            == [("a", 0), ("b", 1)]


class TestTelemetryFacade:
    def test_null_normalisation(self):
        assert telemetry_or_null(None) is NULL_TELEMETRY
        live = Telemetry()
        assert telemetry_or_null(live) is live


class TestEquivalence:
    """Telemetry must observe, never perturb."""

    @pytest.fixture(scope="class")
    def run_pair(self, universe):
        def run_once(telemetry):
            pipeline = ScanPipeline(universe, telemetry=telemetry)
            config = GPSConfig(seed_fraction=0.05, step_size=16,
                               use_engine=True, executor="serial")
            with GPS(pipeline, config, telemetry=telemetry) as gps:
                result = gps.run()
            return result, pipeline

        return run_once(None), run_once(Telemetry())

    def test_gps_outputs_identical_with_telemetry_on(self, run_pair):
        (off, off_pipeline), (on, on_pipeline) = run_pair
        assert on.model == off.model
        assert on.priors_plan == off.priors_plan
        assert on.predictions == off.predictions
        assert on.discovered_pairs() == off.discovered_pairs()
        assert on.log_as_tuples() == off.log_as_tuples()
        assert on_pipeline.ledger == off_pipeline.ledger

    def test_telemetry_run_recorded_phases_and_counters(self, run_pair):
        _, (on, on_pipeline) = run_pair
        telemetry = on_pipeline.telemetry
        names = {event["name"]
                 for event in telemetry.tracer.flat_events()}
        assert {"gps.run", "features.extract", "model.build", "priors.build",
                "index.build", "predict"} <= names
        metrics = telemetry.metrics.as_dict()
        assert "scan_probes_total" in metrics
        assert "engine_tasks_total" in metrics
        probes = sum(sample["value"]
                     for sample in metrics["scan_probes_total"]["samples"])
        assert probes == on_pipeline.ledger.total_probes()

    def test_resident_load_span_only_on_engine_runs(self, universe,
                                                     censys_dataset,
                                                     censys_split):
        """Both paths run one build sequence; only the engine loads resident
        columns, and the index is built before the priors scan."""
        seed = censys_split.seed_scan_result()

        def phases(**engine):
            telemetry = Telemetry()
            config = GPSConfig(seed_fraction=0.05, step_size=16,
                               port_domain=censys_dataset.port_domain, **engine)
            with GPS(ScanPipeline(universe), config, telemetry=telemetry) as gps:
                gps.run(seed=seed)
            (root,) = telemetry.tracer.roots
            return [span.name for span in root.children]

        reference = phases()
        engine = phases(use_engine=True, executor="serial")
        assert reference == ["features.extract", "model.build", "priors.build",
                             "index.build", "priors.scan", "predict",
                             "prediction.scan"]
        assert engine == reference[:1] + ["resident.load"] + reference[1:]

    def test_serving_lookup_identical_with_telemetry_on(self, universe):
        seed = ScanPipeline(universe).seed_scan(0.05, seed=31)

        def serve_once(telemetry_enabled):
            async def scenario():
                config = ServingConfig(executor="serial",
                                       telemetry_enabled=telemetry_enabled)
                async with GPSService(config) as service:
                    await service.load_model(
                        "default", ScanPipeline(universe), seed,
                        GPSConfig(use_engine=True, executor="serial"))
                    request = PointLookup(
                        model="default",
                        observations=(seed.observations[0],))
                    return await service.lookup(request)

            return asyncio.run(scenario())

        assert serve_once(False) == serve_once(True)


@pytest.fixture(scope="module")
def telemetry_server(universe):
    """A warm HTTP server whose service runs with telemetry enabled."""
    from repro.serving.http import ServiceHost, make_http_server

    seed = ScanPipeline(universe).seed_scan(0.05, seed=31)
    host = ServiceHost(ServingConfig(executor="serial",
                                     request_timeout_s=60.0,
                                     telemetry_enabled=True))
    host.call(host.service.load_model(
        "default", ScanPipeline(universe), seed,
        GPSConfig(use_engine=True, executor="serial")))
    httpd = make_http_server(host)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", host, seed
    httpd.shutdown()
    httpd.server_close()
    host.close()


class TestHTTPSurface:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.headers, resp.read().decode()

    def test_metrics_is_valid_prometheus_text(self, telemetry_server):
        base, host, seed = telemetry_server
        from repro.net.ipv4 import format_ip

        ip = format_ip(seed.observations[0].ip)
        self._get(f"{base}/lookup?model=default&ip={ip}")
        status, headers, body = self._get(base + "/metrics")
        assert status == 200
        assert headers["Content-Type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        assert body.endswith("\n")
        assert "# TYPE serving_requests_total counter" in body
        assert 'serving_requests_total{endpoint="lookup"}' in body
        assert "# TYPE serving_request_seconds histogram" in body
        assert 'le="+Inf"' in body
        for line in body.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                name_and_labels, _, value = line.rpartition(" ")
                assert name_and_labels
                float(value)  # every sample value parses as a number

    def test_stats_includes_recovery_and_queue_depths(self, telemetry_server):
        base, _, _ = telemetry_server
        status, _, body = self._get(base + "/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["admitted"] >= 1
        assert payload["pending"] == 0
        assert payload["batch_queue_depth"] == 0
        assert payload["recovery"] == {"respawns": 0, "redispatched_tasks": 0}

    def test_batch_flushes_reported_by_reason(self, telemetry_server):
        _, host, _ = telemetry_server
        exposition = host.service.telemetry.render_prometheus()
        assert 'serving_flushes_total{reason="' in exposition
        assert "serving_batch_size_bucket" in exposition


class TestCLITrace:
    def test_quickstart_trace_out_emits_phase_tree(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        exit_code = main(["quickstart", "--scale", "small", "--seed", "3",
                          "--seed-fraction", "0.05",
                          "--trace-out", str(trace_path)])
        assert exit_code == 0
        capsys.readouterr()
        document = json.loads(trace_path.read_text())
        assert document["version"] == 1
        spans = Tracer.spans_from_dict(document)
        names = [span.name for span in spans]
        assert names == ["gps.run"]
        phases = [child.name for child in spans[0].children]
        for required in ("dataset.build", "features.extract", "model.build",
                         "priors.build", "index.build"):
            assert required in phases
        assert all(child.duration_s is not None
                   for child in spans[0].children)
