"""Typed requests, replies and errors of the GPS serving layer.

The service core (:mod:`repro.serving.service`) speaks plain frozen
dataclasses, never dicts: a request is constructed once by a client (the
in-process async client or the HTTP adapter), validated on construction, and
carried unchanged through the router, the micro-batcher and the worker
threads.  Errors form a small closed hierarchy under :class:`ServiceError` so
callers can catch by failure class (overload vs closed vs timeout) instead of
string-matching messages -- the chaos battery asserts requests under fault
injection fail with exactly these types, never generic exceptions and never
hangs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.predictions import PREDICTION_BATCH_PREFIX_LEN, PredictedService
from repro.scanner.records import ProbeBatch, ScanObservation

Pair = Tuple[int, int]


# -- typed errors ------------------------------------------------------------------------


class ServiceError(Exception):
    """Base class of every error the serving layer raises to a client.

    Attributes:
        code: stable machine-readable identifier (the HTTP adapter maps it
            to a status code; in-process callers can switch on it).
    """

    code = "service_error"
    http_status = 500


class ServiceClosed(ServiceError):
    """The service is draining or closed; no new requests are admitted."""

    code = "service_closed"
    http_status = 503


class ServiceOverloaded(ServiceError):
    """The bounded pending-request queue is full; the request was shed.

    Load shedding is deliberate: an explicit, immediate rejection the client
    can retry against is strictly better than unbounded queue growth that
    eventually takes the whole process down.
    """

    code = "service_overloaded"
    http_status = 429


class ModelNotFound(ServiceError):
    """No model with the requested name is loaded in the registry."""

    code = "model_not_found"
    http_status = 404


class RequestTimeout(ServiceError):
    """The request exceeded the configured per-request deadline."""

    code = "request_timeout"
    http_status = 408


class ScanJobNotFound(ServiceError):
    """No scan job with the requested id exists (or it was already drained)."""

    code = "scan_job_not_found"
    http_status = 404


class ScanJobFailed(ServiceError):
    """A scan job died mid-stream; the message carries the cause."""

    code = "scan_job_failed"
    http_status = 500


class InvalidRequest(ServiceError):
    """A request failed validation before reaching the router."""

    code = "invalid_request"
    http_status = 400


class PayloadTooLarge(InvalidRequest):
    """A request exceeded a fixed size limit (body bytes or listed addresses)."""

    code = "payload_too_large"
    http_status = 413


# -- requests ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PointLookup:
    """"What services does IP X likely run?" -- one host's lookup.

    Attributes:
        model: name of the loaded model to predict with.
        observations: the host's known services (the evidence the prediction
            index reads patterns from); all rows must share one address.
        known_pairs: (ip, port) services already known, suppressed from the
            prediction list so clients are not told what they told us.
    """

    model: str
    observations: Tuple[ScanObservation, ...]
    known_pairs: FrozenSet[Pair] = frozenset()

    def __post_init__(self) -> None:
        if not self.observations:
            raise InvalidRequest("a point lookup needs at least one observation")
        ips = {obs.ip for obs in self.observations}
        if len(ips) != 1:
            raise InvalidRequest(
                f"a point lookup targets exactly one address, got {len(ips)}")

    @property
    def ip(self) -> int:
        """The single address every observation of this lookup shares."""
        return self.observations[0].ip


@dataclass(frozen=True)
class BulkPredict:
    """Predict remaining services for many hosts in one request.

    The reply's probe batches are grouped per ``(subnet/prefix_len, port)``
    in the order the Section 5.4 prediction scan probes them
    (:meth:`repro.scanner.pipeline.ScanPipeline.scan_pairs` with
    ``batch_prefix_len``).
    """

    model: str
    observations: Tuple[ScanObservation, ...]
    known_pairs: FrozenSet[Pair] = frozenset()
    prefix_len: int = PREDICTION_BATCH_PREFIX_LEN

    def __post_init__(self) -> None:
        if not self.observations:
            raise InvalidRequest("a bulk prediction needs at least one observation")
        if not 0 <= self.prefix_len <= 32:
            raise InvalidRequest(f"prefix_len must be 0-32: {self.prefix_len}")


@dataclass(frozen=True)
class ScanJobRequest:
    """Submit a prediction scan whose results stream back incrementally.

    Attributes:
        model: name of the loaded model (its pipeline executes the probes).
        observations: discovered services to predict from; empty means "use
            the model's own seed observations".
        known_pairs: pairs never probed (in addition to the model's seed).
        batch_size: predictions probed per streamed update (the granularity
            of the result stream, exactly like ``prediction_batch_size`` in
            the one-shot orchestrator).
        prefix_len: prefix length probes are grouped by inside each update
            (the batched scan-path grouping).
    """

    model: str
    observations: Tuple[ScanObservation, ...] = ()
    known_pairs: FrozenSet[Pair] = frozenset()
    batch_size: int = 2000
    prefix_len: int = PREDICTION_BATCH_PREFIX_LEN

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise InvalidRequest(f"batch_size must be >= 1: {self.batch_size}")
        if not 0 <= self.prefix_len <= 32:
            raise InvalidRequest(f"prefix_len must be 0-32: {self.prefix_len}")


# -- replies -----------------------------------------------------------------------------


@dataclass(frozen=True)
class LookupReply:
    """Reply to a :class:`PointLookup`.

    Attributes:
        model: the model that served the lookup.
        predictions: probability-ordered predicted services, bit-identical
            to ``PredictiveFeatureIndex.predict`` over the same inputs.
        coalesced: how many concurrent lookups shared this request's
            micro-batch flush (1 = the request flushed alone).
    """

    model: str
    predictions: Tuple[PredictedService, ...]
    coalesced: int = 1


@dataclass(frozen=True)
class BulkReply:
    """Reply to a :class:`BulkPredict`.

    Attributes:
        model: the model that served the prediction.
        predictions: probability-ordered predictions across all hosts.
        batches: the same predictions grouped per (subnet, port) probe batch
            in first-seen order -- the scan-path shape.
    """

    model: str
    predictions: Tuple[PredictedService, ...]
    batches: Tuple[ProbeBatch, ...]


@dataclass(frozen=True)
class ScanUpdate:
    """One streamed increment of a scan job.

    Attributes:
        job_id: the job this update belongs to.
        seq: 0-based update index within the job.
        pairs_probed: predictions probed by this increment.
        observations: services the increment discovered.
        cumulative_probes: the pipeline ledger's probe total after the
            increment (bandwidth accounting, the paper's "100% scans" unit
            divides this by address-space size).
        final: whether this is the job's last update.
    """

    job_id: str
    seq: int
    pairs_probed: int
    observations: Tuple[ScanObservation, ...]
    cumulative_probes: int
    final: bool = False


@dataclass(frozen=True)
class ModelInfo:
    """What the registry knows about one loaded model.

    ``source`` tells an operator whether the artifacts were ``"built"`` in
    this process or ``"snapshot"``-loaded (a warm restart); snapshot-loaded
    models also carry the snapshot's format version and the wall-clock time
    the load finished, so a rebuild and a warm restart are distinguishable
    from ``GET /models`` and ``/stats`` alone.
    """

    name: str
    seed_services: int
    hosts: int
    index_entries: int
    priors_entries: int
    build_seconds: float
    source: str = "built"
    snapshot_version: Optional[int] = None
    loaded_at: Optional[float] = None


@dataclass
class ServingStats:
    """Mutable service counters (snapshot them via :meth:`as_dict`).

    Only ever mutated on the event loop, so no lock is needed; worker
    threads report back through loop callbacks.
    """

    admitted: int = 0
    completed: int = 0
    shed: int = 0
    rejected_closed: int = 0
    lookups: int = 0
    bulk_predictions: int = 0
    scan_jobs: int = 0
    scan_updates: int = 0
    flushes: int = 0
    max_coalesced: int = 0
    timeouts: int = 0

    def as_dict(self) -> Dict[str, int]:
        """A plain-dict snapshot (what ``/stats`` and tests read)."""
        return dict(vars(self))


__all__ = [
    "BulkPredict",
    "BulkReply",
    "InvalidRequest",
    "LookupReply",
    "ModelInfo",
    "ModelNotFound",
    "PayloadTooLarge",
    "PointLookup",
    "RequestTimeout",
    "ScanJobFailed",
    "ScanJobNotFound",
    "ScanJobRequest",
    "ScanUpdate",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServingStats",
]
