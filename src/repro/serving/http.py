"""Thin stdlib JSON/HTTP adapter over the asyncio serving core.

No framework: :class:`http.server.ThreadingHTTPServer` handles sockets, the
:class:`ServiceHost` runs the :class:`~repro.serving.service.GPSService` on a
dedicated event-loop thread, and handler threads bridge into it with
``asyncio.run_coroutine_threadsafe``.  The adapter translates JSON to the
typed request dataclasses and typed errors to HTTP status codes -- nothing
else lives here, so everything the in-process test battery proves about the
service holds for the wire.

Endpoints::

    GET  /healthz                      liveness + loaded model names
    GET  /models                       model summaries
    GET  /stats                        service counters, queue depths,
                                       runtime recovery counters
    GET  /metrics                      Prometheus text exposition (0.0.4)
    GET  /lookup?model=NAME&ip=A.B.C.D point lookup by known address
    POST /predict   {"model": ..., "ips": [...]}          bulk prediction
    POST /scan      {"model": ..., "ips": [...], "batch_size": N}
                                       streamed NDJSON scan updates

Request bodies are capped at :data:`MAX_BODY_BYTES` and ``"ips"`` lists at
:data:`MAX_REQUEST_IPS`; either overrun answers 413 ``payload_too_large``.
Addresses are dotted quads or raw integers.  ``/predict`` and ``/scan``
evidence the listed addresses with the model's own seed observations (the
deployment shape Section 7 describes for hitlists); in-process callers can
supply arbitrary observations through the typed client instead.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.net.ipv4 import IPv4Error, format_ip, parse_ip
from repro.serving.schemas import (
    BulkPredict,
    InvalidRequest,
    LookupReply,
    ModelInfo,
    PayloadTooLarge,
    ScanJobRequest,
    ScanUpdate,
    ServiceError,
)
from repro.serving.service import GPSService, ServingConfig

#: Largest request body read, in bytes.  A larger ``Content-Length`` answers
#: 413 ``payload_too_large`` before any of the body is read.
MAX_BODY_BYTES = 1 << 20

#: Most addresses one ``/predict`` or ``/scan`` request may list; a longer
#: ``"ips"`` list answers 413 ``payload_too_large``.  That many dotted quads
#: fit well inside :data:`MAX_BODY_BYTES`.
MAX_REQUEST_IPS = 4096


class ServiceHost:
    """Runs one :class:`GPSService` on a dedicated event-loop thread.

    The service core is loop-affine; the host gives synchronous callers
    (HTTP handler threads, the CLI) a bridge: :meth:`call` schedules a
    coroutine on the service loop and blocks for its result.
    """

    def __init__(self, config: Optional[ServingConfig] = None) -> None:
        self.service = GPSService(config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="gps-serve-loop", daemon=True)
        self._thread.start()
        self._closed = False

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def call(self, coro, timeout: Optional[float] = None):
        """Run a service coroutine from any thread, returning its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def close(self) -> None:
        """Drain and close the service, then stop the loop; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.call(self.service.close())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)


def _parse_address(raw: str) -> int:
    try:
        if raw.isdigit():
            ip = int(raw)
            if not 0 <= ip <= 0xFFFFFFFF:
                raise InvalidRequest(f"address out of range: {raw}")
            return ip
        return parse_ip(raw)
    except IPv4Error as exc:
        raise InvalidRequest(str(exc)) from exc


def _prediction_row(prediction) -> dict:
    return {
        "ip": format_ip(prediction.ip),
        "port": prediction.port,
        "probability": prediction.probability,
        "predictor": list(prediction.predictor),
    }


def _model_row(info: ModelInfo) -> dict:
    return {
        "name": info.name,
        "seed_services": info.seed_services,
        "hosts": info.hosts,
        "index_entries": info.index_entries,
        "priors_entries": info.priors_entries,
        "build_seconds": info.build_seconds,
        "source": info.source,
        "snapshot_version": info.snapshot_version,
        "loaded_at": info.loaded_at,
    }


def _lookup_payload(reply: LookupReply) -> dict:
    return {
        "model": reply.model,
        "coalesced": reply.coalesced,
        "predictions": [_prediction_row(p) for p in reply.predictions],
    }


def _update_payload(update: ScanUpdate) -> dict:
    return {
        "job_id": update.job_id,
        "seq": update.seq,
        "pairs_probed": update.pairs_probed,
        "discovered": [
            {"ip": format_ip(obs.ip), "port": obs.port, "protocol": obs.protocol}
            for obs in update.observations
        ],
        "cumulative_probes": update.cumulative_probes,
        "final": update.final,
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes the fixed endpoint table; one instance per request."""

    # Set by make_http_server().
    host: ServiceHost = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------------------

    def log_message(self, *_args) -> None:  # silence default stderr chatter
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: Exception) -> None:
        if isinstance(exc, ServiceError):
            self._send_json(exc.http_status,
                            {"error": exc.code, "detail": str(exc)})
        else:
            self._send_json(500, {"error": "internal", "detail": repr(exc)})

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # The body's extent is unknown, so the connection cannot be
            # reused for another request.
            self.close_connection = True
            raise InvalidRequest(f"invalid Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        if length == 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InvalidRequest(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise InvalidRequest("request body must be a JSON object")
        return payload

    @staticmethod
    def _addresses_of(payload: dict) -> List[int]:
        raw = payload.get("ips")
        if not isinstance(raw, list) or not raw:
            raise InvalidRequest('"ips" must be a non-empty list')
        if len(raw) > MAX_REQUEST_IPS:
            raise PayloadTooLarge(
                f'"ips" lists {len(raw)} addresses, more than {MAX_REQUEST_IPS}')
        return [_parse_address(str(item)) for item in raw]

    # -- GET ---------------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        try:
            if url.path == "/healthz":
                self._send_json(200, {
                    "status": "ok",
                    "models": [info.name for info in self.host.service.models()],
                })
            elif url.path == "/models":
                self._send_json(200, {
                    "models": [_model_row(info)
                               for info in self.host.service.models()],
                })
            elif url.path == "/stats":
                self._send_json(200, self.host.service.stats_snapshot())
            elif url.path == "/metrics":
                self._send_text(
                    200, self.host.service.render_metrics(),
                    "text/plain; version=0.0.4; charset=utf-8")
            elif url.path == "/lookup":
                params = parse_qs(url.query)
                model = (params.get("model") or ["default"])[0]
                raw_ip = (params.get("ip") or [""])[0]
                if not raw_ip:
                    raise InvalidRequest('missing "ip" query parameter')
                ip = _parse_address(raw_ip)
                reply = self.host.call(self.host.service.lookup_ip(model, ip))
                self._send_json(200, _lookup_payload(reply))
            else:
                self._send_json(404, {"error": "not_found", "detail": url.path})
        except Exception as exc:  # typed errors map to status codes
            self._send_error_payload(exc)

    # -- POST --------------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        try:
            if url.path == "/predict":
                self._handle_predict()
            elif url.path == "/scan":
                self._handle_scan()
            else:
                self._send_json(404, {"error": "not_found", "detail": url.path})
        except Exception as exc:
            self._send_error_payload(exc)

    def _seed_evidence(self, model: str, ips: List[int]):
        prepared = self.host.service.model(model)
        observations = []
        known = set()
        for ip in ips:
            observations.extend(prepared.known_observations(ip))
            known |= prepared.known_pairs_for(ip)
        if not observations:
            raise InvalidRequest(
                "none of the listed addresses are known to the model")
        return observations, known

    def _handle_predict(self) -> None:
        payload = self._read_body()
        model = str(payload.get("model", "default"))
        ips = self._addresses_of(payload)
        observations, known = self._seed_evidence(model, ips)
        reply = self.host.call(self.host.service.bulk_predict(BulkPredict(
            model=model, observations=tuple(observations),
            known_pairs=frozenset(known))))
        self._send_json(200, {
            "model": reply.model,
            "predictions": [_prediction_row(p) for p in reply.predictions],
            "batches": len(reply.batches),
        })

    def _handle_scan(self) -> None:
        payload = self._read_body()
        model = str(payload.get("model", "default"))
        try:
            batch_size = int(payload.get("batch_size", 2000))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidRequest(
                f'"batch_size" must be an integer: {exc}') from exc
        observations: Tuple = ()
        known = frozenset()
        if payload.get("ips"):
            rows, known_set = self._seed_evidence(model,
                                                  self._addresses_of(payload))
            observations = tuple(rows)
            known = frozenset(known_set)
        request = ScanJobRequest(model=model, observations=observations,
                                 known_pairs=known, batch_size=batch_size)
        job_id = self.host.call(self.host.service.submit_scan(request))

        # Stream NDJSON: one update object per line, flushed as produced.
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

        async def consume() -> List[dict]:
            rows = []
            async for update in self.host.service.scan_updates(job_id):
                rows.append(_update_payload(update))
            return rows

        for row in self.host.call(consume()):
            write_chunk((json.dumps(row) + "\n").encode())
        write_chunk(b"")  # terminating chunk


def make_http_server(host: ServiceHost, address: str = "127.0.0.1",
                     port: int = 0) -> ThreadingHTTPServer:
    """Bind a threaded HTTP server to the service host (port 0 = ephemeral)."""
    handler = type("BoundHandler", (_Handler,), {"host": host})
    return ThreadingHTTPServer((address, port), handler)


def serve_forever(host: ServiceHost, address: str = "127.0.0.1",
                  port: int = 8080) -> None:
    """Blocking serve loop for the CLI; Ctrl-C drains and closes."""
    server = make_http_server(host, address, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        host.close()


__all__ = ["MAX_BODY_BYTES", "MAX_REQUEST_IPS", "ServiceHost", "make_http_server",
           "serve_forever"]
