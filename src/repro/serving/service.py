"""The asyncio serving core: one warm runtime, many concurrent callers.

:class:`GPSService` turns the persistent
:class:`~repro.engine.runtime.EngineRuntime` into a long-lived serving layer.
One service owns:

* **one in-process engine runtime** that every model build folds on -- it
  holds a build's seed columns resident while the build runs, and releases
  them when it ends;
* **a model registry** (:mod:`repro.serving.registry`) with load/swap/evict
  of named models;
* **a request router** with per-model natural batching: lookups submitted
  in the same loop turn leave together in one flush on the next turn, and
  reaching ``max_batch`` flushes at once.  A flush runs synchronously on
  the event loop -- there is no executor dispatch, so a lookup never waits
  for a thread handoff behind a CPU-bound model build -- and the
  ``max_batch`` bound caps how long one flush holds the loop.  Nothing
  waits on a timer;
* **bounded admission**: at most ``max_pending`` requests are in flight;
  request number ``max_pending + 1`` is shed *immediately* with
  :class:`~repro.serving.schemas.ServiceOverloaded` -- the queue never grows
  without bound, so overload degrades into fast typed rejections rather
  than collapse;
* **graceful drain**: :meth:`close` stops admission (typed
  :class:`~repro.serving.schemas.ServiceClosed` for late arrivals), waits
  for outstanding requests to complete (bounded by ``drain_timeout_s``;
  parked lookups leave with the next loop turn's flush), then tears down
  the thread pool, the registry and the engine runtime.  Idempotent;
  double-close is a no-op.

Everything is framework-free: plain asyncio plus a small
``ThreadPoolExecutor`` for the unbounded work -- model builds, snapshot
loads, bulk predictions and scan jobs (which is why the index's
net-feature memo is lock-protected).  The service is loop-affine --
construct and use it from one running event loop (the in-process client does;
the HTTP adapter hosts a dedicated loop thread).
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.core.config import GPSConfig
from repro.engine.runtime import RUNTIME_EXECUTORS, EngineRuntime, RecoveryStats
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import group_pairs
from repro.serving.registry import ModelRegistry, PreparedModel, build_prepared_model
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.serving.schemas import (
    BulkPredict,
    BulkReply,
    LookupReply,
    ModelInfo,
    PointLookup,
    RequestTimeout,
    ScanJobFailed,
    ScanJobNotFound,
    ScanJobRequest,
    ScanUpdate,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServingStats,
)

_OPEN, _DRAINING, _CLOSED = "open", "draining", "closed"

#: Micro-batch sizes are small integers; powers of two up to max_batch-ish.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (validated on construction).

    Attributes:
        max_pending: bound on concurrently admitted requests; the next one
            is shed with :class:`ServiceOverloaded`.
        max_batch: micro-batch size that triggers an immediate flush; it
            also bounds how long one flush holds the event loop.
        request_timeout_s: per-request deadline; ``None`` disables.  Scan
            streams apply it per awaited update.
        drain_timeout_s: how long :meth:`GPSService.close` waits for
            outstanding requests before tearing down regardless.
        lookup_threads: threads for model builds, snapshot loads, bulk
            predictions and scan jobs.
        telemetry_enabled: build the service with a live
            :class:`~repro.telemetry.Telemetry` (request counters, latency
            histograms, the ``/metrics`` surface).  Off by default; replies
            are bit-identical either way.
        executor: the engine runtime's executor, passed through verbatim
            (see :class:`~repro.engine.runtime.EngineRuntime`).
    """

    max_pending: int = 256
    max_batch: int = 32
    request_timeout_s: Optional[float] = 30.0
    drain_timeout_s: float = 10.0
    lookup_threads: int = 4
    telemetry_enabled: bool = False
    # The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
    executor: str = "serial"

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive when set")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be non-negative")
        if self.lookup_threads < 1:
            raise ValueError("lookup_threads must be >= 1")
        if self.executor not in RUNTIME_EXECUTORS:
            raise ValueError(f"unknown executor: {self.executor!r} "
                             f"(expected one of {RUNTIME_EXECUTORS})")


class _MicroBatcher:
    """Coalesces one model's point lookups into shared flushes on the loop.

    Natural batching: the first lookup of a loop turn schedules a flush on
    the next turn (``idle``), so lookups submitted in the same turn share
    it; reaching ``max_batch`` flushes at once (``size``).  A flush runs
    synchronously on the event loop -- no executor dispatch -- and
    ``max_batch`` bounds how long it holds the loop.  Nothing waits on a
    timer, so a parked lookup always leaves on the next turn -- draining
    needs no trigger of its own.  All state is touched from the event loop
    only.
    """

    def __init__(self, service: "GPSService") -> None:
        self._service = service
        self._items: List[Tuple[PointLookup, asyncio.Future]] = []
        self._scheduled: Optional[asyncio.Handle] = None

    async def submit(self, request: PointLookup) -> LookupReply:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._items.append((request, future))
        if len(self._items) >= self._service.config.max_batch:
            self.flush("size")
        elif self._scheduled is None:
            self._scheduled = loop.call_soon(self.flush, "idle")
        return await future

    def flush(self, reason: str) -> None:
        """Close the open batch and serve it on the loop.

        ``reason`` says which trigger fired -- ``"size"`` (the batch filled)
        or ``"idle"`` (the next loop turn came) -- and flows into the
        ``serving_flushes_total{reason=...}`` telemetry counter.
        """
        if self._scheduled is not None:
            self._scheduled.cancel()
            self._scheduled = None
        if not self._items:
            return
        items, self._items = self._items, []
        self._service._run_flush(items, reason)


class GPSService:
    """The long-lived GPS serving core.  See the module docstring."""

    def __init__(self, config: Optional[ServingConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config or ServingConfig()
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry_enabled:
            self.telemetry = Telemetry()
        else:
            self.telemetry = NULL_TELEMETRY
        self.stats = ServingStats()
        self._registry = ModelRegistry()
        self._state = _OPEN
        self._pending = 0
        self._drained: Optional[asyncio.Event] = None
        self._runtime: Optional[EngineRuntime] = None
        self._build_lock: Optional[asyncio.Lock] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._batchers: Dict[str, _MicroBatcher] = {}
        self._jobs: Dict[str, "_ScanJob"] = {}
        self._job_ids = itertools.count()
        self._request_instruments: Dict[str, List[Any]] = {}
        self._flush_instruments: Dict[str, Tuple[Any, Any]] = {}
        self._threads = ThreadPoolExecutor(
            max_workers=self.config.lookup_threads,
            thread_name_prefix="gps-serve")

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the service has stopped admitting requests."""
        return self._state != _OPEN

    def runtime(self) -> EngineRuntime:
        """The service's engine runtime, created lazily on first build.

        Recreated if a previous one was closed, mirroring the orchestrator's
        own policy.
        """
        if self._runtime is None or self._runtime.closed:
            self._runtime = EngineRuntime(executor=self.config.executor,
                                          telemetry=self.telemetry)
        return self._runtime

    async def close(self, drain: bool = True) -> None:
        """Stop admission, drain outstanding requests, tear everything down.

        Late submissions observe a typed :class:`ServiceClosed` immediately.
        With ``drain=True`` (the default) outstanding requests -- including
        lookups parked in an open micro-batch, which leave on the next loop
        turn -- run to completion, bounded by ``drain_timeout_s``.
        Idempotent: every call after the first returns once the first
        teardown is done.
        """
        if self._state == _CLOSED:
            return
        self._state = _DRAINING
        if drain and self._pending > 0:
            self._ensure_loop_state()
            assert self._drained is not None
            try:
                await asyncio.wait_for(self._drained.wait(),
                                       self.config.drain_timeout_s)
            except asyncio.TimeoutError:
                pass
        self._state = _CLOSED
        self._threads.shutdown(wait=drain, cancel_futures=not drain)
        self._registry.close()
        if self._runtime is not None:
            self._runtime.close()

    async def __aenter__(self) -> "GPSService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- model registry ----------------------------------------------------------------

    async def load_model(self, name: str, pipeline: ScanPipeline,
                         seed: SeedScanResult,
                         gps_config: Optional[GPSConfig] = None) -> ModelInfo:
        """Build a model on the warm runtime and register it under ``name``.

        Loading an already-taken name builds the replacement first and swaps
        atomically (readers keep hitting the old model until the new one is
        complete).  Builds are serialized -- the engine runtime executes one
        dispatch at a time -- but lookups against already-loaded models
        proceed concurrently with a build.
        """
        self._ensure_loop_state()
        self._admit()
        t0 = time.perf_counter() if self.telemetry.enabled else None
        try:
            assert self._build_lock is not None
            async with self._build_lock:
                config = gps_config or GPSConfig(use_engine=True)
                runtime = self.runtime() if config.use_engine else None
                loop = asyncio.get_running_loop()
                prepared = await loop.run_in_executor(
                    self._threads, build_prepared_model, name, pipeline, seed,
                    config, runtime)
            self._registry.register(prepared)
            return prepared.info()
        finally:
            self._release()
            if t0 is not None:
                self._observe_request("load_model", time.perf_counter() - t0)

    async def load_model_from_snapshot(self, name: str, pipeline: ScanPipeline,
                                       snapshot_dir: Any,
                                       gps_config: Optional[GPSConfig] = None,
                                       ) -> ModelInfo:
        """Warm-restart a model from an on-disk snapshot directory.

        The Table 2 artifacts deserialize instead of rebuilding; nothing
        loads into the engine runtime.  Everything else matches
        :meth:`load_model`: loads serialize on the build lock,
        the name swaps atomically, and the reply is the registered model's
        :class:`ModelInfo` (``source="snapshot"``).
        """
        self._ensure_loop_state()
        self._admit()
        t0 = time.perf_counter() if self.telemetry.enabled else None
        try:
            assert self._build_lock is not None
            async with self._build_lock:
                config = gps_config or GPSConfig(use_engine=True)
                loop = asyncio.get_running_loop()
                prepared = await loop.run_in_executor(
                    self._threads, PreparedModel.from_snapshot, name, pipeline,
                    snapshot_dir, config)
            self._registry.register(prepared)
            return prepared.info()
        finally:
            self._release()
            if t0 is not None:
                self._observe_request("load_model_from_snapshot",
                                      time.perf_counter() - t0)

    async def evict_model(self, name: str) -> None:
        """Forget a model's name."""
        self._ensure_loop_state()
        self._registry.evict(name)

    def models(self) -> List[ModelInfo]:
        """Summaries of every loaded model."""
        return self._registry.infos()

    def model(self, name: str) -> PreparedModel:
        """Resolve one loaded model (raises :class:`ModelNotFound`)."""
        return self._registry.get(name)

    # -- introspection -----------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """Everything ``/stats`` reports: counters, queues, runtime recovery.

        Extends :meth:`ServingStats.as_dict` with the live pending-admission
        count, the number of lookups currently waiting in open micro-batches,
        and the runtime's :class:`RecoveryStats` (always zeros).  ``models``
        lists every loaded model's provenance: built in-process or
        snapshot-loaded, and when.
        """
        snapshot: Dict[str, Any] = self.stats.as_dict()
        snapshot["pending"] = self._pending
        snapshot["batch_queue_depth"] = sum(
            len(batcher._items) for batcher in list(self._batchers.values()))
        # The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
        snapshot["recovery"] = vars(RecoveryStats())
        snapshot["models"] = [
            {"name": info.name, "source": info.source,
             "snapshot_version": info.snapshot_version,
             "loaded_at": info.loaded_at}
            for info in self._registry.infos()]
        return snapshot

    def render_metrics(self) -> str:
        """Everything ``/metrics`` reports, in Prometheus text format.

        The ``serving_pending`` gauge is read from the live admission count
        here, at scrape time, instead of being set on every admission and
        release; it appears once the first request has been admitted.
        """
        if self.telemetry.enabled and self.stats.admitted:
            self.telemetry.gauge(
                "serving_pending",
                "Requests currently admitted and in flight.").set(self._pending)
        return self.telemetry.render_prometheus()

    # -- point lookups (micro-batched) -------------------------------------------------

    async def lookup(self, request: PointLookup) -> LookupReply:
        """One host's "what services does it likely run?" lookup.

        Coalesces with concurrent lookups against the same model; the reply
        is bit-identical to calling the one-shot
        ``PredictiveFeatureIndex.predict`` with this request's observations
        and known pairs alone.
        """
        self._ensure_loop_state()
        self._check_open()
        self._registry.get(request.model)
        self._admit()
        self.stats.lookups += 1
        t0 = time.perf_counter() if self.telemetry.enabled else None
        try:
            batcher = self._batchers.get(request.model)
            if batcher is None:
                batcher = self._batchers[request.model] = _MicroBatcher(self)
            return await self._await_with_deadline(batcher.submit(request))
        finally:
            self._release()
            if t0 is not None:
                self._observe_request("lookup", time.perf_counter() - t0)

    async def lookup_ip(self, model: str, ip: int) -> LookupReply:
        """Point lookup for an address the model already knows.

        Convenience form (the HTTP adapter's ``GET /lookup``): the evidence
        is the model's own seed observations for ``ip`` and those pairs are
        suppressed from the reply.  Unknown addresses yield an empty reply
        rather than an error -- "we have no evidence" is a valid answer.
        """
        self._ensure_loop_state()
        self._check_open()
        prepared = self._registry.get(model)
        observations = prepared.known_observations(ip)
        if not observations:
            return LookupReply(model=model, predictions=())
        request = PointLookup(model=model,
                              observations=tuple(observations),
                              known_pairs=frozenset(prepared.known_pairs_for(ip)))
        return await self.lookup(request)

    # -- bulk prediction ---------------------------------------------------------------

    async def bulk_predict(self, request: BulkPredict) -> BulkReply:
        """Predict for many hosts at once, grouped like the scan path."""
        self._ensure_loop_state()
        self._check_open()
        self._registry.get(request.model)
        self._admit()
        self.stats.bulk_predictions += 1
        t0 = time.perf_counter() if self.telemetry.enabled else None
        try:
            loop = asyncio.get_running_loop()
            return await self._await_with_deadline(loop.run_in_executor(
                self._threads, self._process_bulk, request))
        finally:
            self._release()
            if t0 is not None:
                self._observe_request("bulk_predict", time.perf_counter() - t0)

    def _process_bulk(self, request: BulkPredict) -> BulkReply:
        """Worker-thread body of a bulk prediction."""
        prepared = self._registry.get(request.model)
        predictions = prepared.predict(request.observations,
                                       known_pairs=set(request.known_pairs))
        batches = group_pairs(predictions.pairs(), request.prefix_len)
        return BulkReply(model=request.model,
                         predictions=tuple(predictions),
                         batches=tuple(batches))

    # -- scan jobs ---------------------------------------------------------------------

    async def submit_scan(self, request: ScanJobRequest) -> str:
        """Start a prediction scan; results stream via :meth:`scan_updates`.

        The job predicts from the request's observations (the model's own
        seed when empty), probes the predictions through the model's
        pipeline in ``batch_size`` increments, and pushes one
        :class:`ScanUpdate` per increment.  Admission capacity is held for
        the job's whole life, so scan jobs participate in backpressure.
        """
        self._ensure_loop_state()
        self._check_open()
        prepared = self._registry.get(request.model)
        self._admit()
        self.stats.scan_jobs += 1
        if self.telemetry.enabled:
            self._observe_request("submit_scan", None)
        job_id = f"scan-{next(self._job_ids)}"
        job = _ScanJob(job_id=job_id, queue=asyncio.Queue())
        self._jobs[job_id] = job
        loop = asyncio.get_running_loop()

        def _finished(_future) -> None:
            self._release()

        # run_in_executor returns an asyncio.Future whose callbacks run on
        # this loop, so the release lands loop-side like every other one.
        future = loop.run_in_executor(self._threads, self._run_scan_job,
                                      loop, job, prepared, request)
        future.add_done_callback(_finished)
        return job_id

    async def scan_updates(self, job_id: str,
                           timeout_s: Optional[float] = None,
                           ) -> AsyncIterator[ScanUpdate]:
        """Stream a scan job's updates until (and including) the final one.

        Each awaited update is bounded by ``timeout_s`` (default: the
        service's ``request_timeout_s``); a stall past the deadline raises
        :class:`RequestTimeout` instead of hanging.  A failed job raises its
        typed error; the job is forgotten once its stream finishes.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise ScanJobNotFound(f"no scan job {job_id!r}")
        deadline = timeout_s if timeout_s is not None \
            else self.config.request_timeout_s
        try:
            while True:
                try:
                    if deadline is None:
                        item = await job.queue.get()
                    else:
                        item = await asyncio.wait_for(job.queue.get(), deadline)
                except asyncio.TimeoutError:
                    self.stats.timeouts += 1
                    if self.telemetry.enabled:
                        self.telemetry.counter(
                            "serving_timeouts_total",
                            "Requests that exceeded their deadline.").inc()
                    raise RequestTimeout(
                        f"scan job {job_id!r} produced no update within "
                        f"{deadline}s") from None
                if isinstance(item, BaseException):
                    if isinstance(item, ServiceError):
                        raise item
                    raise ScanJobFailed(f"scan job {job_id!r} failed: "
                                        f"{item!r}") from item
                self.stats.scan_updates += 1
                yield item
                if item.final:
                    return
        finally:
            self._jobs.pop(job_id, None)

    def _run_scan_job(self, loop: asyncio.AbstractEventLoop, job: "_ScanJob",
                      prepared: PreparedModel, request: ScanJobRequest) -> None:
        """Worker-thread body of a scan job: predict, probe, stream."""

        def push(item) -> None:
            loop.call_soon_threadsafe(job.queue.put_nowait, item)

        try:
            observations = request.observations or tuple(prepared.seed_observations)
            known = prepared.seed_pairs() | set(request.known_pairs)
            predictions = prepared.predict(observations, known_pairs=known)
            with prepared.scan_lock:
                ledger = prepared.pipeline.ledger
                total = len(predictions)
                seq = 0
                for start in range(0, total, request.batch_size):
                    chunk = predictions[start:start + request.batch_size]
                    found = prepared.pipeline.scan_pairs(
                        chunk,
                        category=ScanCategory.PREDICTION,
                        batch_prefix_len=request.prefix_len)
                    push(ScanUpdate(job_id=job.job_id, seq=seq,
                                    pairs_probed=len(chunk),
                                    observations=tuple(found),
                                    cumulative_probes=ledger.total_probes(),
                                    final=start + request.batch_size >= total))
                    seq += 1
                if total == 0:
                    push(ScanUpdate(job_id=job.job_id, seq=0, pairs_probed=0,
                                    observations=(),
                                    cumulative_probes=ledger.total_probes(),
                                    final=True))
        except BaseException as exc:  # streamed to the consumer, typed
            push(exc)

    # -- internals ---------------------------------------------------------------------

    def _observe_request(self, endpoint: str, seconds: Optional[float]) -> None:
        """Count one served request; observe its latency when telemetry is on.

        ``seconds=None`` counts without a latency observation (scan jobs,
        whose lifetime is the stream's, not the submit call's).  A served
        lookup takes ~35 us, so each endpoint's two instruments are held
        here once resolved instead of being looked up per request, and are
        updated in one lock round trip; each is resolved on its first
        update, when the registry would have created it anyway, so
        ``/metrics`` output is unchanged.
        """
        tel = self.telemetry
        handles = self._request_instruments.get(endpoint)
        if handles is None:
            handles = self._request_instruments[endpoint] = [tel.counter(
                "serving_requests_total", "Requests served by endpoint.",
                endpoint=endpoint), None]
        if seconds is None:
            handles[0].inc()
            return
        if handles[1] is None:
            handles[1] = tel.histogram(
                "serving_request_seconds", "Request latency by endpoint.",
                endpoint=endpoint)
        handles[1].observe_and_count(seconds, handles[0])

    def _ensure_loop_state(self) -> None:
        """Bind loop-affine state (event, lock) to the running loop once."""
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._drained = asyncio.Event()
            self._build_lock = asyncio.Lock()
        elif self._loop is not loop:
            raise RuntimeError("GPSService is bound to a different event loop")

    def _check_open(self) -> None:
        """Typed rejection for requests arriving at a draining/closed service.

        Runs *before* model resolution so late callers see
        :class:`ServiceClosed`, not the :class:`ModelNotFound` of an
        already-emptied registry.
        """
        if self._state != _OPEN:
            self.stats.rejected_closed += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "serving_rejected_total",
                    "Requests rejected because the service was closing.").inc()
            raise ServiceClosed("service is draining or closed")

    def _admit(self) -> None:
        """Admission control: typed rejection beats unbounded queueing."""
        self._check_open()
        if self._pending >= self.config.max_pending:
            self.stats.shed += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "serving_shed_total",
                    "Requests shed by bounded admission.").inc()
            raise ServiceOverloaded(
                f"{self._pending} requests already pending "
                f"(max_pending={self.config.max_pending})")
        self._pending += 1
        self.stats.admitted += 1
        # A stale "drained" signal from an earlier quiet period must not let
        # close() tear down under this request's feet.
        if self._drained is not None:
            self._drained.clear()

    def _release(self) -> None:
        self._pending -= 1
        self.stats.completed += 1
        if self._pending == 0 and self._drained is not None:
            self._drained.set()

    async def _await_with_deadline(self, awaitable):
        """Apply the per-request deadline, converting to the typed error."""
        timeout = self.config.request_timeout_s
        try:
            if timeout is None:
                return await awaitable
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            if self.telemetry.enabled:
                self.telemetry.counter(
                    "serving_timeouts_total",
                    "Requests that exceeded their deadline.").inc()
            raise RequestTimeout(
                f"request exceeded request_timeout_s={timeout}") from None

    def _run_flush(self, items: List[Tuple[PointLookup, asyncio.Future]],
                   reason: str) -> None:
        """Serve one micro-batch on the loop: per-request oracle-identical folds.

        Each request runs its *own* ``predict`` with its own known-pair
        suppression (coalescing shares the flush and the index's hot
        net-feature memo, never request state), so replies cannot drift
        from the serial one-shot oracle -- two coalesced lookups about the
        same address with different evidence stay independent.  A lookup
        that already gave up (its deadline fired) is skipped.
        """
        coalesced = len(items)
        self.stats.flushes += 1
        self.stats.max_coalesced = max(self.stats.max_coalesced, coalesced)
        if self.telemetry.enabled:
            # Held once resolved, like _observe_request's instruments.
            instruments = self._flush_instruments.get(reason)
            if instruments is None:
                instruments = self._flush_instruments[reason] = (
                    self.telemetry.counter(
                        "serving_flushes_total",
                        "Micro-batch flushes by trigger.", reason=reason),
                    self.telemetry.histogram(
                        "serving_batch_size",
                        "Lookups coalesced per micro-batch flush.",
                        buckets=_BATCH_SIZE_BUCKETS))
            flushes, sizes = instruments
            sizes.observe_and_count(coalesced, flushes)
        for request, future in items:
            if future.done():
                continue
            try:
                prepared = self._registry.get(request.model)
                predictions = prepared.predict(
                    request.observations, known_pairs=set(request.known_pairs))
            except Exception as exc:
                future.set_exception(exc)
                continue
            future.set_result(LookupReply(model=request.model,
                                          predictions=tuple(predictions),
                                          coalesced=coalesced))


@dataclass
class _ScanJob:
    """Loop-side handle of one streaming scan job."""

    job_id: str
    queue: "asyncio.Queue"


__all__ = [
    "GPSService",
    "ServingConfig",
]
