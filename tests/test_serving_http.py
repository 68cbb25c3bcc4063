"""The stdlib HTTP adapter and the ``serve`` CLI surface.

A real localhost round-trip (ephemeral port, threaded server) over every
endpoint: the JSON payloads must carry exactly what the in-process service
returns, typed errors must map to their HTTP status codes, and the scan
stream must arrive as NDJSON lines.  The CLI tests only exercise the parser
wiring -- ``serve`` blocks forever by design, so its handler is covered via
the adapter it delegates to.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.cli import build_parser
from repro.core.config import GPSConfig
from repro.net.ipv4 import format_ip
from repro.scanner.pipeline import ScanPipeline
from repro.serving import ServingConfig
from repro.serving.http import (
    MAX_BODY_BYTES,
    MAX_REQUEST_IPS,
    ServiceHost,
    make_http_server,
)


@pytest.fixture(scope="module")
def seed(universe):
    return ScanPipeline(universe).seed_scan(0.05, seed=31)


@pytest.fixture(scope="module")
def server(universe, seed):
    """One warm host + bound HTTP server shared by the whole module."""
    host = ServiceHost(ServingConfig(executor="serial", request_timeout_s=60.0))
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


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, json.load(resp)


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    return urllib.request.urlopen(request, timeout=60)


class TestEndpoints:
    def test_healthz_and_models(self, server):
        base, _, _ = server
        status, body = _get(base + "/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": ["default"]}
        status, body = _get(base + "/models")
        assert status == 200
        (row,) = body["models"]
        assert row["name"] == "default"
        assert row["seed_services"] > 0
        assert set(row) == {"name", "seed_services", "hosts", "index_entries",
                            "priors_entries", "build_seconds", "source",
                            "snapshot_version", "loaded_at"}

    def test_lookup_matches_in_process_reply(self, server):
        base, host, seed = server
        ip = seed.observations[0].ip
        expected = host.call(host.service.lookup_ip("default", ip))
        status, body = _get(f"{base}/lookup?model=default&ip={format_ip(ip)}")
        assert status == 200
        assert body["model"] == "default"
        assert body["predictions"] == [
            {"ip": format_ip(p.ip), "port": p.port,
             "probability": p.probability, "predictor": list(p.predictor)}
            for p in expected.predictions]

    def test_lookup_accepts_integer_addresses(self, server):
        base, _, seed = server
        ip = seed.observations[0].ip
        _, dotted = _get(f"{base}/lookup?model=default&ip={format_ip(ip)}")
        _, raw = _get(f"{base}/lookup?model=default&ip={ip}")
        assert dotted == raw

    def test_predict_bulk(self, server):
        base, _, seed = server
        ips = sorted({obs.ip for obs in seed.observations})[:5]
        with _post(base + "/predict",
                   {"model": "default",
                    "ips": [format_ip(ip) for ip in ips]}) as resp:
            assert resp.status == 200
            body = json.load(resp)
        assert body["model"] == "default"
        assert isinstance(body["predictions"], list)
        assert body["batches"] >= 0

    def test_scan_streams_ndjson(self, server):
        base, _, _ = server
        with _post(base + "/scan",
                   {"model": "default", "batch_size": 50}) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            rows = [json.loads(line) for line in resp if line.strip()]
        assert rows, "scan stream produced no updates"
        assert rows[-1]["final"] is True
        assert [row["seq"] for row in rows] == list(range(len(rows)))
        for row in rows:
            assert set(row) == {"job_id", "seq", "pairs_probed", "discovered",
                                "cumulative_probes", "final"}

    def test_stats_counts_served_requests(self, server):
        base, _, _ = server
        status, body = _get(base + "/stats")
        assert status == 200
        assert body["admitted"] >= 1
        assert body["shed"] == 0


class TestErrorMapping:
    def test_unknown_model_is_404(self, server):
        base, _, seed = server
        ip = format_ip(seed.observations[0].ip)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/lookup?model=nope&ip={ip}")
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"] == "model_not_found"

    @pytest.mark.parametrize("ip", [
        pytest.param("not-an-ip", id="not-an-ip"),
        pytest.param("%C2%B2", id="superscript-two"),
        pytest.param("%D9%A1%D9%A2", id="arabic-indic-digits"),
        pytest.param("%C2%B2.0.0.1", id="superscript-octet"),
    ])
    def test_bad_address_is_400(self, server, ip):
        base, _, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{base}/lookup?model=default&ip={ip}")
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"] == "invalid_request"

    def test_missing_ip_is_400(self, server):
        base, _, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/lookup?model=default")
        assert excinfo.value.code == 400

    def test_unknown_route_is_404(self, server):
        base, _, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_predict_rejects_non_json_body(self, server):
        base, _, _ = server
        request = urllib.request.Request(
            base + "/predict", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_predict_rejects_non_utf8_body(self, server):
        base, _, _ = server
        request = urllib.request.Request(
            base + "/predict", data=b"\x80abc",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"] == "invalid_request"

    def test_predict_rejects_unknown_addresses(self, server):
        base, _, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/predict", {"model": "default", "ips": ["0.0.0.1"]})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, server, length):
        base, _, _ = server
        connection = http.client.HTTPConnection(
            urllib.parse.urlsplit(base).netloc, timeout=10)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert json.load(response)["error"] == "invalid_request"
        finally:
            connection.close()

    def test_oversized_body_is_413_without_reading_it(self, server):
        """Only the headers are sent: a server that tried to read the
        announced body would block until the client's timeout."""
        base, _, _ = server
        connection = http.client.HTTPConnection(
            urllib.parse.urlsplit(base).netloc, timeout=10)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert json.load(response)["error"] == "payload_too_large"
        finally:
            connection.close()

    def test_too_many_addresses_is_413(self, server):
        base, _, seed = server
        ips = [format_ip(seed.observations[0].ip)] * (MAX_REQUEST_IPS + 1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/predict", {"model": "default", "ips": ips})
        assert excinfo.value.code == 413
        assert json.load(excinfo.value)["error"] == "payload_too_large"

    def test_scan_rejects_non_integer_batch_size(self, server):
        base, _, seed = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/scan", {"model": "default", "batch_size": "abc",
                                   "ips": [format_ip(seed.observations[0].ip)]})
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["error"] == "invalid_request"


class TestServeCli:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9999", "--executor", "serial"])
        assert args.command == "serve"
        assert args.port == 9999 and args.address == "127.0.0.1"
        assert args.executor == "serial"
        assert callable(args.func)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8080
        assert args.seed_fraction == 0.05
        assert args.executor is None  # falls back to serial in the handler
