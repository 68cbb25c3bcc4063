"""Persistent execution runtime: a shared worker pool for the engine's builds.

High-rate scanners keep long-lived workers over a partitioned address space
and stream work *to* the data (ZMap/LZR).  The :class:`EngineRuntime` applies
the same architecture to GPS's three Table 2 builds:

* **one pool, many builds** -- workers start once per runtime and execute
  every subsequent fold (the model, priors and prediction-index tasks over
  :mod:`repro.engine.fused`) without respawning;
* **sharded residency** -- dictionary-encoded column payloads
  (:mod:`repro.engine.shard`) load into workers once, each worker holding its
  shard resident, so repeated builds against the same data (model -> priors
  -> prediction index in one GPS run) ship only the plan parameters, never
  the columns;
* **one dispatch protocol** -- the ``serial``, ``thread`` and ``pool``
  executors implement the same :class:`Executor` interface, so callers pick
  a backend by name and results are bit-identical across all three (the
  equivalence suites assert it).

Workers are plain interpreter processes started with the ``spawn`` method
(fork-safety on 3.12+, identical behaviour on 3.10-3.12); each owns a
dedicated inbox queue so shard ``s`` tasks always route to the worker holding
shard ``s``, and a dedicated single-writer reply pipe back to the
coordinator.  Per-worker reply pipes (rather than one shared reply queue)
are what makes crashes *containable*: a queue shared by every worker is
guarded by a cross-process write lock, and a worker that dies while its
feeder thread holds that lock leaves it locked forever -- silently wedging
every survivor's replies.  A single-writer pipe needs no lock and no feeder
thread, so a dying worker can only ever poison its own channel, which
recovery discards and replaces along with the process.  Tasks are named
entries in a module-level registry -- messages carry names and plain data,
never pickled callables.

Lifecycle is explicit: :meth:`EngineRuntime.close` (idempotent) terminates
the pool and the runtime is a context manager.  The pool is *self-healing*:
the coordinator keeps a copy of every resident payload, so when liveness
polling finds a dead worker mid-request the supervisor respawns the process,
re-loads exactly the shards that worker's placement owned, re-dispatches only
the outstanding tasks (tasks are pure and loads are idempotent), and retries
under a bounded budget with exponential backoff.  Only an exhausted budget
surfaces as :class:`WorkerCrashError`; a wedged-but-alive worker is caught by
the optional per-task / per-execution deadlines as :class:`WorkerTimeoutError`
with a process dump.  Every supervision step emits a structured
:class:`RuntimeEvent` on the module-level :data:`RUNTIME_EVENT_BUS`; a
default sink forwards each event to the ``repro.engine.runtime`` logger
(silent unless a handler is attached), and other consumers -- the CLI's
``--verbose-runtime`` printer, test captures -- subscribe the same stream.
An optional :class:`~repro.telemetry.Telemetry` instance adds quantitative
instrumentation on top: per-task dispatch/queue/execute latency histograms,
crash/respawn/redispatch counters mirroring :class:`RecoveryStats`, and
resident-payload gauges.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.columns import ColumnView
from repro.engine.faults import FaultPlan, WorkerFaultState
from repro.engine.fused import (
    count_join_chunk,
    count_partner_chunk,
    fold_model_pairs_arrays,
    fold_value_counts_arrays,
    select_argmax_chunk,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.events import EventBus

__all__ = [
    "EngineRuntime",
    "RUNTIME_EVENT_BUS",
    "RUNTIME_EXECUTORS",
    "RecoveryStats",
    "RuntimeEvent",
    "WorkerCrashError",
    "WorkerTaskError",
    "WorkerTimeoutError",
    "default_worker_count",
    "lpt_placement",
]

#: The default event sink forwards to this logger; no handler is attached
#: by default, so production runs stay silent unless an operator opts in.
_LOGGER = logging.getLogger("repro.engine.runtime")

#: Every structured supervision event publishes here.  The logger sink
#: below is subscribed at import, preserving the historical behaviour
#: (events reach ``repro.engine.runtime`` at INFO); further sinks -- the
#: CLI's ``--verbose-runtime`` printer, test captures -- subscribe the same
#: stream instead of growing parallel logging paths.
RUNTIME_EVENT_BUS = EventBus()

#: Executor backends an :class:`EngineRuntime` can run plans on.
RUNTIME_EXECUTORS = ("serial", "thread", "pool")

#: Packing base for the resident model fold: group keys are
#: ``(predictor id, target port)`` pairs and ports are < 65536, so
#: ``pid * 65536 + port`` is bijective and the packed counter unpacks
#: losslessly (see :func:`repro.engine.fused.packing_base`).
MODEL_PACK_BASE = 65536


def default_worker_count() -> int:
    """Default pool size: the machine's cores, capped at 4.

    The engine's folds are memory-bandwidth-light and the cap keeps the
    default footprint modest; callers with bigger machines raise
    ``num_workers`` explicitly.
    """
    return max(1, min(4, os.cpu_count() or 1))


def lpt_placement(sizes: Sequence[int], workers: int) -> List[int]:
    """Greedy least-loaded (LPT) shard placement: ``sizes[s] -> worker id``.

    Shards are visited largest first and each goes to the worker with the
    smallest load so far -- the classic longest-processing-time heuristic,
    within 4/3 of the optimal makespan.  Fully deterministic: equal sizes
    visit in shard order and load ties resolve to the lowest worker id, so
    the placement is a pure function of ``(sizes, workers)``.  With one
    shard per worker and equal sizes it degenerates to the identity
    (shard ``s`` on worker ``s``), the historical ``s % workers`` layout.

    Placement only decides *where* a shard lives; results never depend on
    it -- counter folds merge order-independently and order-sensitive
    outputs are reassembled by original index
    (:func:`repro.engine.shard.merge_ordered`).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    placement = [0] * len(sizes)
    loads = [0] * workers
    worker_range = range(workers)
    for shard_idx in sorted(range(len(sizes)), key=lambda s: (-sizes[s], s)):
        worker = min(worker_range, key=loads.__getitem__)
        placement[shard_idx] = worker
        loads[worker] += sizes[shard_idx]
    return placement


def _payload_rows(payload: Any) -> int:
    """A shard payload's row count: total entries across its columns.

    The LPT placement's size measure.  Columns may be boxed lists/tuples,
    machine-native buffers (:class:`~repro.engine.columns.IntColumn`) or
    mmap-backed views; snapshot file references
    (:class:`~repro.engine.snapshot.ShardFileRef`) report their manifest
    ``rows`` without opening a file.  Offset columns count too, but they are
    proportional to the member count, so relative shard weights -- all
    placement cares about -- are preserved.
    """
    if not isinstance(payload, dict):
        return payload.rows
    return sum(len(column) for column in payload.values()
               if isinstance(column, (list, tuple, array, ColumnView)))


def _payload_nbytes(payload: Any) -> int:
    """Estimated resident size of one payload, in bytes.

    Machine-native buffers and snapshot file references report exactly;
    boxed lists/tuples count 8 bytes per element (the pointer) -- the
    estimate feeds an operator gauge, not an allocator, so relative
    magnitude is what matters.
    """
    if not isinstance(payload, dict):
        return payload.nbytes
    total = 0
    for column in payload.values():
        if isinstance(column, ColumnView):
            total += column.nbytes
        elif isinstance(column, array):
            total += len(column) * column.itemsize
        elif isinstance(column, (list, tuple)):
            total += len(column) * 8
    return total


def _resolve_payload(payload: Any) -> dict:
    """Materialize a load message's payload in the receiving worker.

    Dict payloads (the queue-ship path) pass through untouched.  Snapshot
    file references (:class:`~repro.engine.snapshot.ShardFileRef` -- any
    payload exposing ``open()``) resolve by mapping their column files into
    *this* process's address space: the zero-copy half of the snapshot
    story, where the coordinator ships a few-hundred-byte descriptor and the
    kernel page cache serves the actual columns to every worker that maps
    the same files.
    """
    if isinstance(payload, dict):
        return payload
    return payload.open()


def _queued_shard_bytes(payload: Any) -> int:
    """Column bytes one shard-load message ships through an inbox queue.

    The zero-reship ledger (:attr:`RecoveryStats.shard_bytes_queued`): dict
    payloads pickle their full column buffers into the pipe, file references
    ship only the descriptor -- the observable difference between queue-ship
    and mmap loading that the resize/recovery assertions are built on.
    """
    return _payload_nbytes(payload) if isinstance(payload, dict) else 0


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; carries the worker-side traceback."""


class WorkerCrashError(RuntimeError):
    """Worker death(s) exhausted the recovery budget; the pool is gone."""


class WorkerTimeoutError(RuntimeError):
    """A deadline expired while replies were outstanding; carries a dump."""


@dataclass(frozen=True)
class RuntimeEvent:
    """One structured supervision event (logged, never raised).

    Everything an operator needs to see *which* shard/task/worker failed:
    the event kind (``task_error``, ``worker_crash``, ``respawn``,
    ``reload``, ``redispatch``, ``retry_backoff``, ``timeout``), the worker
    involved, the task name plus resident ``(key, shard_idx)`` routing when
    the event concerns a task, the process exit code for crashes, and a
    free-form detail string (worker-side tracebacks travel here).
    """

    kind: str
    worker_id: Optional[int] = None
    task: Optional[str] = None
    key: Any = None
    shard_idx: Optional[int] = None
    exit_code: Optional[int] = None
    attempt: Optional[int] = None
    detail: str = ""


def _log_event(event: RuntimeEvent) -> None:
    """Default bus sink: forward every event to the module logger."""
    _LOGGER.info("%s", event)


RUNTIME_EVENT_BUS.subscribe(_log_event)


def _emit(event: RuntimeEvent) -> None:
    RUNTIME_EVENT_BUS.publish(event)


@dataclass
class RecoveryStats:
    """Counters the supervisor increments; tests assert recovery was surgical.

    ``reloaded_shards`` counting only the dead worker's shards (never the
    whole key) is the observable difference between in-place recovery and a
    full pool rebuild.  ``shard_bytes_queued`` is the zero-copy ledger:
    every column byte a shard-load message pickles through an inbox queue
    counts here (snapshot file references count zero -- workers map their
    own files), so "resize after a snapshot load re-ships zero shard bytes"
    is a counter assertion, not a claim.
    """

    crashes_detected: int = 0
    respawns: int = 0
    reloaded_shards: int = 0
    reloaded_broadcasts: int = 0
    redispatched_tasks: int = 0
    retry_rounds: int = 0
    resizes: int = 0
    migrated_shards: int = 0
    shard_bytes_queued: int = 0


# -- task registry -----------------------------------------------------------------------
#
# Every task is ``fn(shard, broadcast, args) -> result`` where ``shard`` is the
# worker-resident per-shard payload dict (or None for stateless dispatch),
# ``broadcast`` the worker-resident broadcast payload dict (or None), and
# ``args`` the per-call plain-data arguments.  Registering by name keeps
# messages free of pickled callables and makes the same registry serve the
# in-process executors and the spawned workers.


def _task_count_rows(shard: Optional[dict], broadcast: Optional[dict],
                     args: Any) -> Counter:
    """Stateless GROUP BY count over a shipped chunk of key rows."""
    return Counter(args)


#: Shard columns the row-by-row tasks hydrate into boxed lists (see
#: :func:`_shard_lists`).
_HYDRATED_COLUMNS = ("group_keys", "member_starts", "labels", "value_starts",
                     "value_ids")


def _shard_lists(shard: dict) -> dict:
    """Boxed-list copies of a shard's buffer columns, hydrated once per shard.

    Resident shard columns are machine-native int64 buffers
    (:class:`~repro.engine.columns.IntColumn`) -- ideal for shipping and for
    the bulk kernels, but indexing one element-by-element boxes a fresh
    Python int per access, where a list hands back the already-boxed object.
    The stdlib row-by-row folds therefore read these cached ``tolist()``
    copies (hydrated lazily worker-side, exactly like the ``_model_join``
    cache); the numpy kernels read the buffers directly.
    """
    lists = shard.get("_lists")
    if lists is None:
        lists = shard["_lists"] = {
            name: (column.tolist()
                   if isinstance(column, (array, ColumnView)) else column)
            for name, column in shard.items() if name in _HYDRATED_COLUMNS}
    return lists


def _derive_model_join(shard: dict) -> Tuple[Any, ...]:
    """Derive the resident model-build join payload from host-group columns.

    The co-occurrence query over one shard of hosts is a self-join local to
    the shard: the left side streams one row per (host, port, predictor id),
    each shard-local host indexes its own ports, and the left-vs-right
    exclusion drops the self-pairs.  Group keys are ``(predictor id, target
    port)`` packed into one int (ports < 65536) for
    :func:`~repro.engine.fused.count_join_chunk`.  Derivation happens
    worker-side on first use and is cached in the resident shard, so
    repeated model builds skip it entirely.
    """
    lists = _shard_lists(shard)
    member_starts = lists["member_starts"]
    labels = lists["labels"]
    value_starts = lists["value_starts"]
    value_ids = lists["value_ids"]
    left_host: List[int] = []
    left_port: List[int] = []
    left_pid: List[int] = []
    index: List[List[int]] = []
    for g in range(len(member_starts) - 1):
        m_lo, m_hi = member_starts[g], member_starts[g + 1]
        index.append(labels[m_lo:m_hi])
        for m in range(m_lo, m_hi):
            port = labels[m]
            for v in range(value_starts[m], value_starts[m + 1]):
                left_host.append(g)
                left_port.append(port)
                left_pid.append(value_ids[v])
    return (left_host, left_pid, left_port, index, MODEL_PACK_BASE)


def _task_model_pairs(shard: dict, broadcast: Optional[dict], args: Any) -> Any:
    """Resident co-occurrence fold: packed (predictor id, port) counts.

    ``args`` optionally carries the column backend name: the default stdlib
    backend streams the derived join payload through
    :func:`~repro.engine.fused.count_join_chunk` and replies with a packed
    ``Counter``; the ``numpy`` backend folds the shard's buffers through
    :func:`~repro.engine.fused.fold_model_pairs_arrays` and replies with
    packed ``(keys, counts)`` columns.  The driver merges either shape into
    the same dictionary, and the two are equivalence-pinned by the tests.
    """
    if args and args[0] == "numpy":
        return fold_model_pairs_arrays(
            shard["member_starts"], shard["labels"], shard["value_starts"],
            shard["value_ids"], MODEL_PACK_BASE)
    payload = shard.get("_model_join")
    if payload is None:
        payload = shard["_model_join"] = _derive_model_join(shard)
    return count_join_chunk(payload)


def _task_model_denominators(shard: dict, broadcast: Optional[dict],
                             args: Any) -> Any:
    """Resident denominator fold: predictor-id occurrence counts.

    Same backend contract as :func:`_task_model_pairs`: stdlib replies with a
    ``Counter``, numpy with sorted ``(ids, counts)`` columns.
    """
    if args and args[0] == "numpy":
        return fold_value_counts_arrays(shard["value_ids"])
    return Counter(_shard_lists(shard)["value_ids"])


def _task_priors_partner(shard: dict, broadcast: dict, args: Any) -> Counter:
    """Resident priors fold: partner counts over the shard's host groups.

    ``args`` is ``(allowed_labels,)``; the score tables come from the
    broadcast model sides, everything else is already resident.
    """
    (allowed,) = args
    lists = _shard_lists(shard)
    payload = (lists["group_keys"], lists["member_starts"], lists["labels"],
               lists["value_starts"], lists["value_ids"],
               broadcast["target_counts"], broadcast["denominators"], allowed)
    return count_partner_chunk(payload)


def _task_index_argmax(shard: dict, broadcast: dict,
                       args: Any) -> List[Tuple[int, List[Tuple[int, int, float]]]]:
    """Resident argmax fold, one selection per group, tagged for re-ordering.

    Hash-sharding permutes group order, but the prediction-index build is
    order-sensitive (the serial winner list is the oracle), so each group's
    winners come back tagged with the group's original index and the driver
    merges via :func:`repro.engine.shard.merge_ordered`.
    """
    allowed, min_support, cutoff = args
    target_counts = broadcast["target_counts"]
    denominators = broadcast["denominators"]
    tie_ranks = broadcast["tie_ranks"]
    lists = _shard_lists(shard)
    member_starts = lists["member_starts"]
    labels = lists["labels"]
    value_starts = lists["value_starts"]
    value_ids = lists["value_ids"]
    out: List[Tuple[int, List[Tuple[int, int, float]]]] = []
    for local, original in enumerate(shard["group_order"]):
        m_lo, m_hi = member_starts[local], member_starts[local + 1]
        if m_hi - m_lo < 2:
            continue
        winners = select_argmax_chunk((
            (m_lo, m_hi), labels, value_starts, value_ids, target_counts,
            denominators, tie_ranks, allowed, min_support, cutoff,
        ))
        if winners:
            out.append((original, winners))
    return out


def _task_probe(shard: Optional[dict], broadcast: Optional[dict],
                args: Any) -> Tuple[int, List[str]]:
    """Introspection task for tests: worker pid + resident shard columns."""
    resident = sorted(shard) if shard is not None else []
    return os.getpid(), resident


def _task_crash(shard: Optional[dict], broadcast: Optional[dict], args: Any) -> None:
    """Crash drill: kill the worker process without a reply.

    Exercises the crash-detection path (lifecycle tests, operational
    drills).  Gated behind an environment variable so ordinary API misuse
    cannot hard-kill a pool: without the opt-in the task fails like any
    other task error.
    """
    if os.environ.get("REPRO_RUNTIME_CRASH_TEST") != "1":
        raise RuntimeError(
            "the crash drill requires REPRO_RUNTIME_CRASH_TEST=1 in the "
            "worker environment")
    os._exit(17)


_TASKS: Dict[str, Callable[[Optional[dict], Optional[dict], Any], Any]] = {
    "count_rows": _task_count_rows,
    "model_pairs": _task_model_pairs,
    "model_denominators": _task_model_denominators,
    "priors_partner": _task_priors_partner,
    "index_argmax": _task_index_argmax,
    "_probe": _task_probe,
    "_crash": _task_crash,
}


# -- worker process ----------------------------------------------------------------------


def _worker_main(worker_id: int, inbox: Any, outbox: Any,
                 fault_plan: Optional[FaultPlan] = None,
                 generation: int = 0) -> None:
    """Worker loop: hold resident payloads, execute named tasks against them.

    Messages are plain tuples.  Requests arrive on the ``inbox`` queue:
    ``("load", task_id, key, shard_idx, payload)`` merges ``payload`` into
    the resident store (``shard_idx`` is ``None`` for broadcast payloads; a
    snapshot file reference resolves here, mapping its column files into
    this worker's address space instead of unpickling shipped buffers),
    ``("run", task_id, fn, key, shard_idx, args)`` executes a registered
    task, ``("drop", task_id, key)`` releases a key's payloads,
    ``("drop_shard", task_id, key, shard_idx)`` releases exactly one shard
    (the resize remap's migration cleanup), ``("close",)`` exits.  Replies -- ``("ok", worker_id, task_id, result)``
    or ``("err", worker_id, task_id, description)`` -- go back over
    ``outbox``, this worker's *private* pipe connection to the coordinator.
    ``run`` replies append a fifth element, the task's worker-side execute
    seconds, so the coordinator can split end-to-end latency into execute
    vs queue+IPC time; the coordinator unpacks replies by index and
    tolerates both widths.
    A single-writer pipe needs no cross-process lock and no feeder thread,
    so a worker hard-killed at any instant cannot leave a lock abandoned
    that other workers' replies would block on.

    ``fault_plan``/``generation`` drive deterministic chaos testing: the
    :class:`~repro.engine.faults.WorkerFaultState` may hard-kill the process,
    inject an exception, swallow a reply, or delay one, at exactly the
    occurrence the plan names.  Respawned workers run at a higher generation,
    which generation-scoped plans leave alone -- that is what makes
    "crash once, recover cleanly" reproducible.
    """
    faults = WorkerFaultState(fault_plan, worker_id, generation)
    store: Dict[Tuple[Any, Optional[int]], dict] = {}
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "close":
            break
        task_id = message[1]
        try:
            if kind == "load":
                _, _, key, shard_idx, payload = message
                faults.on_task("load")
                if faults.should_error("load"):
                    raise RuntimeError("injected fault: load")
                store.setdefault((key, shard_idx), {}).update(
                    _resolve_payload(payload))
                if faults.should_drop_reply("load"):
                    continue
                outbox.send(("ok", worker_id, task_id, None))
            elif kind == "run":
                _, _, fn_name, key, shard_idx, args = message
                faults.on_task(fn_name)
                if faults.should_error(fn_name):
                    raise RuntimeError(f"injected fault: {fn_name}")
                shard = store.get((key, shard_idx)) if key is not None else None
                broadcast = store.get((key, None)) if key is not None else None
                if key is not None and shard is None and broadcast is None:
                    raise KeyError(f"no resident payload for key {key!r}")
                exec_t0 = time.perf_counter()
                result = _TASKS[fn_name](shard, broadcast, args)
                exec_s = time.perf_counter() - exec_t0
                if faults.should_drop_reply(fn_name):
                    continue
                outbox.send(("ok", worker_id, task_id, result, exec_s))
            elif kind == "drop":
                _, _, key = message
                for resident_key in [k for k in store if k[0] == key]:
                    del store[resident_key]
                outbox.send(("ok", worker_id, task_id, None))
            elif kind == "drop_shard":
                _, _, key, shard_idx = message
                store.pop((key, shard_idx), None)
                outbox.send(("ok", worker_id, task_id, None))
            else:
                raise ValueError(f"unknown message kind: {kind!r}")
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            detail = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            try:
                outbox.send(("err", worker_id, task_id, detail))
            except OSError:
                break  # coordinator is gone; nothing left to report to


# -- executors ---------------------------------------------------------------------------


class Executor:
    """Dispatch protocol every runtime backend implements.

    ``load`` makes a payload resident (per-shard or, with ``shard_idx=None``,
    broadcast to every worker), ``run`` executes a batch of named tasks and
    returns their results in order, ``drop`` releases a key, ``close`` tears
    the backend down.  A shard's tasks are always served by the worker
    holding the shard resident -- the pool backend records a per-key
    placement (least-loaded by shard row count, see :func:`lpt_placement`)
    when the shards load, which is what makes residency meaningful under
    skew.  ``broken`` reports an unrecoverable backend (a crashed pool):
    the only valid next step is ``close`` and a fresh runtime.

    ``telemetry`` is assigned by the owning :class:`EngineRuntime` when the
    backend starts; the class default is the shared null instance, so a
    backend constructed directly stays unobserved at no cost.
    """

    broken = False
    telemetry: Telemetry = NULL_TELEMETRY

    def load(self, key: Any, shard_idx: Optional[int], payload: dict) -> None:
        raise NotImplementedError

    def load_shards(self, key: Any, payloads: Sequence[dict]) -> None:
        """Load payload ``s`` onto shard ``s``'s worker (batched where possible)."""
        for shard_idx, payload in enumerate(payloads):
            self.load(key, shard_idx, payload)

    def resident_stats(self) -> Tuple[int, int]:
        """``(estimated bytes, payload count)`` resident in the backend."""
        return 0, 0

    def _observe_task(self, fn_name: str, exec_s: float,
                      queue_s: Optional[float] = None) -> None:
        """Record one task's latency split (subject to sampling)."""
        tel = self.telemetry
        if not tel.sampled():
            return
        tel.histogram("engine_task_execute_seconds",
                      "Worker-side task execution time",
                      task=fn_name).observe(exec_s)
        if queue_s is not None:
            tel.histogram("engine_task_queue_seconds",
                          "Time between dispatch and execution "
                          "(inbox queue + IPC)",
                          task=fn_name).observe(queue_s)

    def run(self, tasks: Sequence[Tuple[str, Any, Optional[int], Any]]) -> List[Any]:
        """Execute ``(fn_name, key, shard_idx, args)`` tasks, results in order."""
        raise NotImplementedError

    def drop(self, key: Any) -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Runs every task inline in the calling thread (the reference backend)."""

    def __init__(self) -> None:
        self._store: Dict[Tuple[Any, Optional[int]], dict] = {}

    def _resolve(self, key: Any, shard_idx: Optional[int]):
        if key is None:
            return None, None
        shard = self._store.get((key, shard_idx))
        broadcast = self._store.get((key, None))
        if shard is None and broadcast is None:
            raise KeyError(f"no resident payload for key {key!r}")
        return shard, broadcast

    def load(self, key: Any, shard_idx: Optional[int], payload: dict) -> None:
        self._store.setdefault((key, shard_idx), {}).update(
            _resolve_payload(payload))

    def run(self, tasks: Sequence[Tuple[str, Any, Optional[int], Any]]) -> List[Any]:
        results = []
        timed = self.telemetry.enabled
        for fn_name, key, shard_idx, args in tasks:
            shard, broadcast = self._resolve(key, shard_idx)
            if timed:
                t0 = time.perf_counter()
                results.append(_TASKS[fn_name](shard, broadcast, args))
                self._observe_task(fn_name, time.perf_counter() - t0, 0.0)
            else:
                results.append(_TASKS[fn_name](shard, broadcast, args))
        return results

    def drop(self, key: Any) -> None:
        for resident_key in [k for k in self._store if k[0] == key]:
            del self._store[resident_key]

    def resident_stats(self) -> Tuple[int, int]:
        return (sum(_payload_nbytes(p) for p in self._store.values()),
                len(self._store))

    def close(self) -> None:
        self._store.clear()


class ThreadExecutor(SerialExecutor):
    """Runs tasks on a persistent thread pool over the shared in-process store.

    Residency is trivial (one address space), so this backend mainly
    validates the dispatch/sharding logic and serves workloads whose folds
    release the GIL; the resident store is only read during ``run``.
    """

    def __init__(self, workers: int) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        import concurrent.futures

        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)

    def run(self, tasks: Sequence[Tuple[str, Any, Optional[int], Any]]) -> List[Any]:
        timed = self.telemetry.enabled

        def _one(task):
            fn_name, key, shard_idx, args = task
            shard, broadcast = self._resolve(key, shard_idx)
            if timed:
                t0 = time.perf_counter()
                result = _TASKS[fn_name](shard, broadcast, args)
                self._observe_task(fn_name, time.perf_counter() - t0)
                return result
            return _TASKS[fn_name](shard, broadcast, args)

        return list(self._pool.map(_one, tasks))

    def resize(self, workers: int) -> None:
        """Swap the thread pool for one of the new size.

        The resident store is shared process memory, so no payload moves at
        all -- resizing is purely a concurrency-cap change.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        import concurrent.futures

        old_pool = self._pool
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
        old_pool.shutdown(wait=True)

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        super().close()


class PoolExecutor(Executor):
    """Runs tasks on a persistent pool of spawned worker processes.

    Each worker owns a dedicated inbox queue, so tasks for shard ``s`` always
    land on the worker whose store holds shard ``s``; replies come back on a
    per-worker single-writer pipe.  One shared reply queue would be guarded
    by a cross-process write lock, and a worker hard-killed while holding it
    would leave the lock abandoned forever, silently wedging every
    survivor's replies -- per-worker pipes make a crash poison at most the
    dead worker's own channel, which recovery replaces along with the
    process.  Workers start with the ``spawn`` method (stable
    across Python 3.10-3.12, immune to the 3.12+ fork-in-threads
    deprecation) and live until :meth:`close`.

    The pool supervises its workers: a coordinator-side copy of every
    resident payload (``_resident``) makes a dead worker recoverable in
    place -- respawn the process at the next generation, re-load exactly the
    shards its placement owned, re-dispatch only the still-outstanding tasks.
    Recovery runs under a bounded retry budget with exponential backoff;
    exhausting it abandons the pool with :class:`WorkerCrashError`.  Optional
    deadlines turn a wedged-but-alive worker into :class:`WorkerTimeoutError`
    with a process dump instead of a silent hang.
    """

    _POLL_SECONDS = 0.05
    _RETRY_BACKOFF_S = 0.05
    _MAX_BACKOFF_S = 1.0

    def __init__(self, workers: int, *, max_task_retries: int = 2,
                 task_deadline_s: Optional[float] = None,
                 execution_deadline_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.max_task_retries = max_task_retries
        self.task_deadline_s = task_deadline_s
        self.execution_deadline_s = execution_deadline_s
        self.fault_plan = fault_plan
        self._context = multiprocessing.get_context("spawn")
        self._processes: List[Any] = []
        self._inboxes: List[Any] = []
        # Receive end of each worker's private reply pipe, by worker slot.
        self._readers: List[Any] = []
        self._next_task_id = 0
        self._started = False
        self._broken = False
        # Per-key shard placement decided at load_shards time (greedy
        # least-loaded by shard row count); shard tasks must route to the
        # worker actually holding the shard, so the map lives for exactly
        # as long as the resident data does.
        self._placements: Dict[Any, List[int]] = {}
        # Coordinator-side copy of every resident payload, keyed like the
        # worker stores: (key, shard_idx) with shard_idx=None for broadcast.
        # This is what makes a dead worker recoverable without asking the
        # caller to re-ship anything.
        self._resident: Dict[Tuple[Any, Optional[int]], dict] = {}
        # Spawn generation per worker slot; respawns bump it so
        # generation-scoped fault plans leave recovered workers alone.
        self._generations: List[int] = []
        self.recovery_stats = RecoveryStats()

    @property
    def broken(self) -> bool:
        return self._broken

    # -- pool management -----------------------------------------------------------

    def _spawn_worker(self, worker_id: int) -> None:
        """Start (or restart) the process serving ``worker_id``'s inbox.

        Every (re)spawn gets a fresh inbox queue *and* a fresh reply pipe:
        the coordinator closes its copy of the write end immediately after
        the fork, so the worker process is the pipe's only writer and its
        death shows up as EOF on the read end instead of a silent stall.
        """
        inbox = self._context.Queue()
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, inbox, writer, self.fault_plan,
                  self._generations[worker_id]),
            daemon=True, name=f"engine-runtime-{worker_id}",
        )
        process.start()
        writer.close()
        if worker_id < len(self._inboxes):
            self._inboxes[worker_id] = inbox
            self._readers[worker_id] = reader
            self._processes[worker_id] = process
        else:
            self._inboxes.append(inbox)
            self._readers.append(reader)
            self._processes.append(process)

    def _ensure_started(self) -> None:
        if self._broken:
            raise WorkerCrashError("runtime pool is broken after a worker crash")
        if self._started:
            return
        self._generations = [0] * self.workers
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        self._started = True

    def _terminate_processes(self) -> None:
        """Terminate every live worker, escalating to ``kill`` when needed.

        ``terminate`` sends SIGTERM, which a wedged worker (stuck in C code,
        or with the signal masked) can outlive; anything still alive after
        the join grace gets SIGKILL so no process can leak past interpreter
        exit.
        """
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)

    def _abandon(self) -> None:
        """Terminate everything after an unrecoverable failure."""
        self._broken = True
        self._placements.clear()
        self._resident.clear()
        self._terminate_processes()
        self._drain_queues()

    def _process_dump(self) -> str:
        """One line per worker slot: pid, liveness, exit code, generation."""
        lines = []
        for worker_id, process in enumerate(self._processes):
            lines.append(
                f"  worker {worker_id}: pid={process.pid} "
                f"alive={process.is_alive()} exitcode={process.exitcode} "
                f"generation={self._generations[worker_id]}")
        return "\n".join(lines)

    def _drain_queues(self) -> None:
        for inbox in self._inboxes:
            inbox.close()
            inbox.cancel_join_thread()
        for reader in self._readers:
            reader.close()
        self._inboxes = []
        self._readers = []
        self._processes = []

    def _send(self, worker_id: int, message: Tuple[Any, ...]) -> None:
        self._inboxes[worker_id].put(message)

    def _new_task_id(self) -> int:
        task_id = self._next_task_id
        self._next_task_id += 1
        return task_id

    @staticmethod
    def _describe(message: Tuple[Any, ...]) -> Tuple[str, Any, Optional[int]]:
        """``(task, key, shard_idx)`` routing info for event reporting."""
        kind = message[0]
        if kind == "run":
            return message[2], message[3], message[4]
        if kind == "load":
            return "load", message[2], message[3]
        if kind == "drop":
            return "drop", message[2], None
        if kind == "drop_shard":
            return "drop_shard", message[2], message[3]
        return kind, None, None

    def _record_resident(self, key: Any, shard_idx: Optional[int],
                         payload: Any) -> None:
        """Record the coordinator-side recovery copy of one payload.

        Dict payloads merge (re-loading a key updates columns in place, the
        historical contract); a snapshot file reference *replaces* the entry
        -- the files on disk are the source of truth, so recovery re-opens
        them instead of re-shipping coordinator-held buffers.
        """
        existing = self._resident.get((key, shard_idx))
        if isinstance(existing, dict) and isinstance(payload, dict):
            existing.update(payload)
        else:
            self._resident[(key, shard_idx)] = payload

    def _recover(self, dead: Sequence[int],
                 inflight: Dict[int, Tuple[int, Tuple[Any, ...]]],
                 alias: Dict[int, int], internal: Set[int],
                 attempt: int) -> None:
        """Respawn dead workers, re-load their shards, re-dispatch their tasks.

        The outstanding messages are snapshotted *before* respawning because
        recovered workers reuse their slot's worker id.  Reload messages for
        the dead worker's resident payloads are enqueued first and the
        re-dispatched tasks after them -- the inbox is FIFO, so residency is
        guaranteed restored before any task runs; no separate ack round is
        needed.  Loads are ``update()``-idempotent, so a load that was
        in flight when the worker died may harmlessly apply twice.
        """
        stale = {tid: entry for tid, entry in inflight.items()
                 if entry[0] in dead}
        for worker_id in dead:
            process = self._processes[worker_id]
            _emit(RuntimeEvent(kind="worker_crash", worker_id=worker_id,
                               exit_code=process.exitcode, attempt=attempt))
            self.recovery_stats.crashes_detected += 1
            self.telemetry.counter("engine_worker_crashes_total",
                                   "Worker processes found dead").inc()
            old_inbox = self._inboxes[worker_id]
            old_inbox.close()
            old_inbox.cancel_join_thread()
            # Abandon the dead worker's reply pipe along with the process:
            # anything still buffered in it is a reply for a task that is
            # about to be re-dispatched, and the fresh copy is authoritative.
            self._readers[worker_id].close()
            self._generations[worker_id] += 1
            self._spawn_worker(worker_id)
            self.recovery_stats.respawns += 1
            self.telemetry.counter("engine_worker_respawns_total",
                                   "Dead workers respawned in place").inc()
            _emit(RuntimeEvent(kind="respawn", worker_id=worker_id,
                               attempt=attempt))
            for (key, shard_idx), payload in self._resident.items():
                if shard_idx is None:
                    owned = True  # broadcast payloads live on every worker
                else:
                    owned = self._worker_for(shard_idx, 0, key) == worker_id
                if not owned:
                    continue
                task_id = self._new_task_id()
                message = ("load", task_id, key, shard_idx, payload)
                self._send(worker_id, message)
                inflight[task_id] = (worker_id, message)
                internal.add(task_id)
                if shard_idx is None:
                    self.recovery_stats.reloaded_broadcasts += 1
                    self.telemetry.counter(
                        "engine_broadcast_reloads_total",
                        "Broadcast payloads re-shipped during recovery").inc()
                else:
                    self.recovery_stats.reloaded_shards += 1
                    # Snapshot-backed shards re-open files (zero queue
                    # bytes); dict payloads re-ship their buffers.
                    self.recovery_stats.shard_bytes_queued += (
                        _queued_shard_bytes(payload))
                    self.telemetry.counter(
                        "engine_shard_reloads_total",
                        "Shards re-shipped during recovery").inc()
                _emit(RuntimeEvent(kind="reload", worker_id=worker_id,
                                   key=key, shard_idx=shard_idx,
                                   attempt=attempt))
        for old_tid, (worker_id, message) in stale.items():
            del inflight[old_tid]
            original = alias.pop(old_tid, old_tid)
            was_internal = old_tid in internal
            internal.discard(old_tid)
            task_id = self._new_task_id()
            fresh = (message[0], task_id) + message[2:]
            self._send(worker_id, fresh)
            inflight[task_id] = (worker_id, fresh)
            if was_internal:
                internal.add(task_id)
            else:
                alias[task_id] = original
            self.recovery_stats.redispatched_tasks += 1
            self.telemetry.counter(
                "engine_task_redispatches_total",
                "Outstanding tasks re-dispatched after a crash").inc()
            task, key, shard_idx = self._describe(message)
            _emit(RuntimeEvent(kind="redispatch", worker_id=worker_id,
                               task=task, key=key, shard_idx=shard_idx,
                               attempt=attempt))

    def _poll_replies(self) -> List[Tuple[Any, ...]]:
        """Drain every reply currently readable from the per-worker pipes.

        Blocks up to ``_POLL_SECONDS`` waiting for the first ready pipe.  A
        pipe at EOF (its worker died with nothing buffered) is closed and
        never polled again; the liveness checks in :meth:`_collect` -- not
        this method -- decide what the death means.
        """
        readers = [reader for reader in self._readers if not reader.closed]
        if not readers:
            time.sleep(self._POLL_SECONDS)
            return []
        replies: List[Tuple[Any, ...]] = []
        for reader in multiprocessing.connection.wait(
                readers, timeout=self._POLL_SECONDS):
            try:
                replies.append(reader.recv())
            except (EOFError, OSError):
                reader.close()
        return replies

    def _collect(self, inflight: Dict[int, Tuple[int, Tuple[Any, ...]]],
                 dispatch_ts: Optional[Dict[int, float]] = None,
                 ) -> Dict[int, Any]:
        """Await one reply per dispatched task, healing the pool as needed.

        ``inflight`` maps each outstanding task id to ``(worker_id,
        message)`` -- keeping the full message is what lets the supervisor
        re-dispatch after a crash and report *which* task failed.
        ``dispatch_ts`` (telemetry-enabled ``run`` dispatches only) maps the
        *original* task ids to their ``perf_counter`` send times; combined
        with the worker-reported execute seconds riding on ``ok`` replies it
        splits end-to-end latency into execute vs queue+IPC.  Outcomes:

        * a task that **raises** is not pool-fatal: the worker loop
          survives, every outstanding reply is drained first (no stale
          messages can leak into the next request), and one
          :class:`WorkerTaskError` is raised;
        * a worker that **dies** with tasks outstanding triggers in-place
          recovery (:meth:`_recover`) under exponential backoff, up to
          ``max_task_retries`` rounds; an exhausted budget abandons the
          pool with :class:`WorkerCrashError`;
        * **deadlines** (when configured) turn replies that stop arriving
          into :class:`WorkerTimeoutError` with a process dump.

        Returns results keyed by the *original* task id -- re-dispatched
        tasks map back through their alias, so callers never observe
        recovery.  Replies a worker buffered before dying are drained from
        its pipe ahead of death detection and count normally; recovery then
        closes the dead worker's channel, so a reply whose task id is no
        longer in flight (the task was re-dispatched) can no longer arrive
        by construction -- the guard that ignores one stays as a
        belt-and-suspenders invariant, and the re-dispatched copy is
        authoritative (tasks being pure, bit-identical).
        """
        alias: Dict[int, int] = {}
        internal: Set[int] = set()
        needed: Set[int] = set(inflight)
        results: Dict[int, Any] = {}
        errors: List[str] = []
        retries_left = self.max_task_retries
        attempt = 0
        start = time.monotonic()
        last_progress = start
        while len(results) < len(needed):
            replies = self._poll_replies()
            if not replies:
                dead = [i for i, p in enumerate(self._processes)
                        if not p.is_alive()]
                pending_on_dead = [tid for tid, (wid, _) in inflight.items()
                                   if wid in dead]
                if pending_on_dead:
                    codes = {i: self._processes[i].exitcode for i in dead}
                    if retries_left <= 0:
                        self._abandon()
                        raise WorkerCrashError(
                            f"engine runtime worker(s) {sorted(set(dead))} died "
                            f"(exit codes {codes}) while "
                            f"{len(pending_on_dead)} task(s) were outstanding "
                            f"and the recovery budget "
                            f"({self.max_task_retries} retr"
                            f"{'y' if self.max_task_retries == 1 else 'ies'}) "
                            f"is exhausted; the pool has been shut down"
                        ) from None
                    retries_left -= 1
                    attempt += 1
                    self.recovery_stats.retry_rounds += 1
                    self.telemetry.counter(
                        "engine_retry_rounds_total",
                        "Recovery rounds spent healing crashed workers").inc()
                    backoff = min(self._MAX_BACKOFF_S,
                                  self._RETRY_BACKOFF_S * (2 ** (attempt - 1)))
                    _emit(RuntimeEvent(kind="retry_backoff", attempt=attempt,
                                       detail=f"sleeping {backoff:.3f}s before "
                                              f"recovering workers "
                                              f"{sorted(set(dead))} "
                                              f"(exit codes {codes})"))
                    time.sleep(backoff)
                    self._recover(dead, inflight, alias, internal, attempt)
                    last_progress = time.monotonic()
                    continue
                now = time.monotonic()
                if (self.task_deadline_s is not None and inflight
                        and now - last_progress > self.task_deadline_s):
                    dump = self._process_dump()
                    stuck = sorted({wid for wid, _ in inflight.values()})
                    self._abandon()
                    self.telemetry.counter(
                        "engine_timeouts_total",
                        "Dispatches abandoned on an expired deadline").inc()
                    _emit(RuntimeEvent(kind="timeout", detail=dump))
                    raise WorkerTimeoutError(
                        f"no reply for {self.task_deadline_s}s with "
                        f"{len(inflight)} task(s) outstanding on worker(s) "
                        f"{stuck}; process dump:\n{dump}") from None
                if (self.execution_deadline_s is not None
                        and now - start > self.execution_deadline_s):
                    dump = self._process_dump()
                    self._abandon()
                    self.telemetry.counter(
                        "engine_timeouts_total",
                        "Dispatches abandoned on an expired deadline").inc()
                    _emit(RuntimeEvent(kind="timeout", detail=dump))
                    raise WorkerTimeoutError(
                        f"execution exceeded its {self.execution_deadline_s}s "
                        f"deadline with {len(inflight)} task(s) outstanding; "
                        f"process dump:\n{dump}") from None
                continue
            last_progress = time.monotonic()
            for reply in replies:
                # Unpack by index: "run" ok-replies carry a fifth element
                # (worker-side execute seconds), everything else is 4 wide.
                status, task_id, payload = reply[0], reply[2], reply[3]
                entry = inflight.pop(task_id, None)
                if entry is None:
                    continue  # stale duplicate: this task was re-dispatched
                if task_id in internal:
                    internal.discard(task_id)
                    if status == "err":
                        self._abandon()
                        raise WorkerCrashError(
                            "engine runtime failed to re-load resident "
                            f"payloads during recovery:\n{payload}")
                    continue
                original = alias.pop(task_id, task_id)
                if status == "err":
                    worker_id, message = entry
                    task, key, shard_idx = self._describe(message)
                    _emit(RuntimeEvent(kind="task_error", worker_id=worker_id,
                                       task=task, key=key,
                                       shard_idx=shard_idx, detail=payload))
                    self.telemetry.counter(
                        "engine_task_errors_total",
                        "Tasks that raised inside a worker", task=task).inc()
                    errors.append(payload)
                    results[original] = None
                else:
                    if dispatch_ts is not None and len(reply) > 4:
                        sent = dispatch_ts.get(original)
                        if sent is not None:
                            exec_s = reply[4]
                            total_s = time.perf_counter() - sent
                            self._observe_task(self._describe(entry[1])[0],
                                               exec_s,
                                               max(0.0, total_s - exec_s))
                    results[original] = payload
        if errors:
            raise WorkerTaskError(
                f"engine runtime task failed in worker:\n{errors[0]}")
        return results

    def _worker_for(self, shard_idx: Optional[int], position: int,
                    key: Any = None) -> int:
        """The worker serving a task: stateless work round-robins by
        position; shard tasks follow the key's recorded placement (falling
        back to ``shard % workers`` for keys loaded shard-by-shard)."""
        if shard_idx is None:
            return position % self.workers
        placement = self._placements.get(key) if key is not None else None
        if placement is not None and shard_idx < len(placement):
            return placement[shard_idx]
        return shard_idx % self.workers

    # -- Executor interface --------------------------------------------------------

    def load(self, key: Any, shard_idx: Optional[int], payload: Any) -> None:
        self._ensure_started()
        # Record the coordinator-side copy before dispatch so a worker that
        # dies mid-load is recoverable from the same source of truth.
        self._record_resident(key, shard_idx, payload)
        inflight: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        if shard_idx is None:
            for worker_id in range(self.workers):
                task_id = self._new_task_id()
                message = ("load", task_id, key, None, payload)
                self._send(worker_id, message)
                inflight[task_id] = (worker_id, message)
        else:
            self.recovery_stats.shard_bytes_queued += _queued_shard_bytes(
                payload)
            worker_id = self._worker_for(shard_idx, 0, key)
            task_id = self._new_task_id()
            message = ("load", task_id, key, shard_idx, payload)
            self._send(worker_id, message)
            inflight[task_id] = (worker_id, message)
        self._collect(inflight)

    def load_shards(self, key: Any, payloads: Sequence[dict]) -> None:
        """Batched shard load: all sends first, one collect, so workers
        deserialize their shards concurrently instead of one after another.

        The first load of a key also decides its shard placement: greedy
        least-loaded (LPT) over the payloads' row counts, so a skewed
        universe's heavy shards spread across workers instead of landing
        wherever ``shard % num_workers`` happens to point.  Re-loading an
        already-placed key keeps the existing placement (the merge must
        land on the workers already holding the shards).
        """
        self._ensure_started()
        if key not in self._placements:
            self._placements[key] = lpt_placement(
                [_payload_rows(payload) for payload in payloads], self.workers)
        inflight: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        for shard_idx, payload in enumerate(payloads):
            # Coordinator copy first: a worker dying mid-load must be
            # recoverable from exactly what was being shipped.
            self._record_resident(key, shard_idx, payload)
            self.recovery_stats.shard_bytes_queued += _queued_shard_bytes(
                payload)
            worker_id = self._worker_for(shard_idx, 0, key)
            task_id = self._new_task_id()
            message = ("load", task_id, key, shard_idx, payload)
            self._send(worker_id, message)
            inflight[task_id] = (worker_id, message)
        self._collect(inflight)

    def resize(self, workers: int) -> None:
        """Grow or shrink the pool to ``workers``, remapping shard placement.

        Resident data makes naive resize wrong (a new worker would own
        shards it does not hold) and naive re-load expensive (re-shipping
        every shard through the queues).  This resize is a **placement
        remap** instead:

        1. *Grow*: spawn the new worker slots and replicate every broadcast
           payload to them (broadcasts live on all workers by contract).
        2. *Remap*: for every resident key, recompute the LPT placement over
           the key's shard sizes at the new worker count.  Each shard whose
           owner changed is loaded onto its new worker from the
           coordinator's resident record -- a snapshot file reference for
           disk-backed shards (the new owner maps the files; **zero column
           bytes cross a queue**) or the payload dict for queue-shipped ones
           -- and dropped from its surviving old owner via ``drop_shard``.
        3. *Shrink*: retired workers close only after their shards' new
           owners acknowledged the loads, then their slots truncate away.

        Placement-only keys loaded shard-by-shard (no recorded placement)
        are pinned to their historical ``shard % old_workers`` layout first,
        so their shards migrate correctly too.  All re-routing state updates
        before the polite close of retired workers, so a crash mid-resize
        recovers against the *new* placement.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._ensure_started()
        old_workers = self.workers
        if workers == old_workers:
            return
        # Keys without a recorded placement (loaded via bare load()) used
        # the shard % workers fallback; freeze that layout so the remap
        # below sees where their shards actually live.
        shard_counts: Dict[Any, int] = {}
        for key, shard_idx in self._resident:
            if shard_idx is not None:
                shard_counts[key] = max(shard_counts.get(key, 0),
                                        shard_idx + 1)
        for key, count in shard_counts.items():
            if key not in self._placements:
                self._placements[key] = [s % old_workers
                                         for s in range(count)]
        inflight: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        if workers > old_workers:
            self._generations.extend([0] * (workers - old_workers))
            for worker_id in range(old_workers, workers):
                self._spawn_worker(worker_id)
            for (key, shard_idx), payload in self._resident.items():
                if shard_idx is not None:
                    continue
                for worker_id in range(old_workers, workers):
                    task_id = self._new_task_id()
                    message = ("load", task_id, key, None, payload)
                    self._send(worker_id, message)
                    inflight[task_id] = (worker_id, message)
        self.workers = workers
        migrated = 0
        for key, old_placement in list(self._placements.items()):
            sizes = [
                _payload_rows(self._resident[(key, shard_idx)])
                if (key, shard_idx) in self._resident else 0
                for shard_idx in range(len(old_placement))
            ]
            new_placement = lpt_placement(sizes, workers)
            for shard_idx, (old_worker, new_worker) in enumerate(
                    zip(old_placement, new_placement)):
                if old_worker == new_worker:
                    continue
                payload = self._resident.get((key, shard_idx))
                if payload is None:
                    continue
                task_id = self._new_task_id()
                message = ("load", task_id, key, shard_idx, payload)
                self._send(new_worker, message)
                inflight[task_id] = (new_worker, message)
                migrated += 1
                self.recovery_stats.migrated_shards += 1
                self.recovery_stats.shard_bytes_queued += (
                    _queued_shard_bytes(payload))
                self.telemetry.counter(
                    "engine_shard_migrations_total",
                    "Shards moved to a different worker by resize").inc()
                _emit(RuntimeEvent(kind="migrate", worker_id=new_worker,
                                   key=key, shard_idx=shard_idx))
                if old_worker < workers:
                    drop_id = self._new_task_id()
                    drop_message = ("drop_shard", drop_id, key, shard_idx)
                    self._send(old_worker, drop_message)
                    inflight[drop_id] = (old_worker, drop_message)
            self._placements[key] = new_placement
        self._collect(inflight)
        if workers < old_workers:
            for worker_id in range(workers, old_workers):
                process = self._processes[worker_id]
                if process.is_alive():
                    try:
                        self._send(worker_id, ("close",))
                    except (OSError, ValueError):
                        pass
            for worker_id in range(workers, old_workers):
                process = self._processes[worker_id]
                process.join(timeout=2.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=2.0)
                self._inboxes[worker_id].close()
                self._inboxes[worker_id].cancel_join_thread()
                self._readers[worker_id].close()
            del self._processes[workers:]
            del self._inboxes[workers:]
            del self._readers[workers:]
            del self._generations[workers:]
        self.recovery_stats.resizes += 1
        self.telemetry.counter("engine_pool_resizes_total",
                               "Elastic pool resize operations").inc()
        _emit(RuntimeEvent(
            kind="resize",
            detail=f"{old_workers} -> {workers} workers, "
                   f"{migrated} shard(s) migrated"))

    def run(self, tasks: Sequence[Tuple[str, Any, Optional[int], Any]]) -> List[Any]:
        self._ensure_started()
        inflight: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        order: List[int] = []
        dispatch_ts: Optional[Dict[int, float]] = (
            {} if self.telemetry.enabled else None)
        for position, (fn_name, key, shard_idx, args) in enumerate(tasks):
            worker_id = self._worker_for(shard_idx, position, key)
            task_id = self._new_task_id()
            message = ("run", task_id, fn_name, key, shard_idx, args)
            self._send(worker_id, message)
            inflight[task_id] = (worker_id, message)
            order.append(task_id)
            if dispatch_ts is not None:
                dispatch_ts[task_id] = time.perf_counter()
        results = self._collect(inflight, dispatch_ts)
        return [results[task_id] for task_id in order]

    def resident_stats(self) -> Tuple[int, int]:
        return (sum(_payload_nbytes(p) for p in self._resident.values()),
                len(self._resident))

    def drop(self, key: Any) -> None:
        self._placements.pop(key, None)
        for resident_key in [k for k in self._resident if k[0] == key]:
            del self._resident[resident_key]
        if not self._started or self._broken:
            return
        inflight: Dict[int, Tuple[int, Tuple[Any, ...]]] = {}
        for worker_id in range(self.workers):
            task_id = self._new_task_id()
            message = ("drop", task_id, key)
            self._send(worker_id, message)
            inflight[task_id] = (worker_id, message)
        self._collect(inflight)

    def close(self) -> None:
        if not self._started:
            return
        if not self._broken:
            for worker_id, process in enumerate(self._processes):
                if process.is_alive():
                    try:
                        self._send(worker_id, ("close",))
                    except (OSError, ValueError):
                        pass
            for process in self._processes:
                process.join(timeout=2.0)
            # Escalate: anything that survived the polite close gets SIGTERM,
            # and anything that survives *that* gets SIGKILL (a worker wedged
            # in C code or ignoring SIGTERM must not leak past exit).
            self._terminate_processes()
        self._drain_queues()
        self._placements.clear()
        self._resident.clear()
        self._started = False


# -- the runtime -------------------------------------------------------------------------


class EngineRuntime:
    """A persistent, shard-aware execution runtime for the engine's folds.

    One runtime owns one executor backend (``serial``, ``thread`` or
    ``pool``) for its whole life: workers start once (lazily, on first use)
    and every plan execution reuses them.  Data ships through
    :meth:`load_shards` / :meth:`load_broadcast` and stays resident in the
    workers under a caller-chosen key; :meth:`execute` then runs a registered
    task against each resident shard, shipping only per-call arguments.
    :meth:`map_stateless` ships payload chunks per call instead (the
    supervision drills drive it), still on the warm pool.

    Results are bit-identical across backends and shard counts: counter
    tasks merge order-independently, and order-sensitive tasks come back
    tagged for exact re-ordering (see
    :func:`repro.engine.shard.merge_ordered`).

    Lifecycle: :meth:`close` is explicit and idempotent; the runtime is a
    context manager; using a closed (or crashed) runtime raises instead of
    hanging.
    """

    def __init__(self, executor: str = "serial", num_workers: int = 0,
                 shard_count: int = 0, *, max_task_retries: int = 2,
                 task_deadline_s: Optional[float] = None,
                 execution_deadline_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        """Configure the runtime (workers start lazily on first use).

        Args:
            executor: ``"serial"``, ``"thread"`` or ``"pool"``.
            num_workers: pool size; ``0`` means :func:`default_worker_count`.
            shard_count: shards resident datasets are partitioned into;
                ``0`` means one shard per worker.  More shards than workers
                is valid (workers own several shards each, placed
                least-loaded by row count at load time -- see
                :func:`lpt_placement` -- which is what keeps skewed
                universes balanced).
            max_task_retries: recovery rounds the pool backend may spend
                respawning dead workers per dispatch before surfacing
                :class:`WorkerCrashError`; ``0`` restores fail-fast.
            task_deadline_s: seconds without *any* reply before a dispatch
                raises :class:`WorkerTimeoutError` (``None`` disables).
            execution_deadline_s: wall-clock budget for one whole dispatch
                (``None`` disables).
            fault_plan: deterministic chaos plan shipped into every worker
                (tests and drills only; ``None`` in production).
            telemetry: instrumentation sink for dispatch/queue/execute
                timings, crash counters and resident gauges; ``None`` (the
                default) selects the shared disabled instance.
        """
        if executor not in RUNTIME_EXECUTORS:
            raise ValueError(
                f"unknown executor: {executor!r} (expected one of {RUNTIME_EXECUTORS})")
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 selects the default)")
        if shard_count < 0:
            raise ValueError("shard_count must be >= 0 (0 selects one per worker)")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        for name, deadline in (("task_deadline_s", task_deadline_s),
                               ("execution_deadline_s", execution_deadline_s)):
            if deadline is not None and deadline <= 0:
                raise ValueError(f"{name} must be positive when set")
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise TypeError("fault_plan must be a FaultPlan or None")
        self.executor = executor
        self.num_workers = num_workers or (1 if executor == "serial"
                                           else default_worker_count())
        self.shard_count = shard_count or self.num_workers
        self.max_task_retries = max_task_retries
        self.task_deadline_s = task_deadline_s
        self.execution_deadline_s = execution_deadline_s
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._backend: Optional[Executor] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def broken(self) -> bool:
        """True after a worker crash made the pool unusable.

        A broken runtime fails fast on every further dispatch; the recovery
        path is :meth:`close` plus a fresh runtime (the GPS orchestrator does
        this automatically on its next :meth:`~repro.core.gps.GPS.runtime`
        call).
        """
        return self._backend is not None and self._backend.broken

    @property
    def wants_encoded_payloads(self) -> bool:
        """True when payloads cross a process boundary (encode before shipping)."""
        return self.executor == "pool"

    @property
    def recovery_stats(self) -> RecoveryStats:
        """Supervision counters (all zero for in-process backends)."""
        if isinstance(self._backend, PoolExecutor):
            return self._backend.recovery_stats
        return RecoveryStats()

    def _ensure_backend(self) -> Executor:
        if self._closed:
            raise RuntimeError("engine runtime is closed")
        if self._backend is None:
            if self.executor == "serial":
                self._backend = SerialExecutor()
            elif self.executor == "thread":
                self._backend = ThreadExecutor(self.num_workers)
            else:
                self._backend = PoolExecutor(
                    self.num_workers,
                    max_task_retries=self.max_task_retries,
                    task_deadline_s=self.task_deadline_s,
                    execution_deadline_s=self.execution_deadline_s,
                    fault_plan=self.fault_plan)
            self._backend.telemetry = self.telemetry
        return self._backend

    def _update_resident_gauges(self) -> None:
        if not self.telemetry.enabled or self._backend is None:
            return
        nbytes, payloads = self._backend.resident_stats()
        self.telemetry.gauge(
            "engine_resident_bytes",
            "Estimated bytes of worker-resident payload columns").set(nbytes)
        self.telemetry.gauge(
            "engine_resident_payloads",
            "Worker-resident payload entries (shards + broadcasts)"
        ).set(payloads)

    def close(self) -> None:
        """Tear the worker pool down; idempotent, safe after a crash."""
        if self._closed:
            return
        self._closed = True
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "EngineRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- resident data -------------------------------------------------------------

    def load_shards(self, key: Any, shard_payloads: Sequence[dict]) -> None:
        """Make per-shard payload dicts resident under ``key``.

        ``shard_payloads`` must have exactly ``shard_count`` entries.  The
        pool backend places shards greedily least-loaded by row count
        (:func:`lpt_placement`; balanced equal-size layouts reduce to the
        round-robin ``s % num_workers``), and each shard stays resident on
        its worker until :meth:`unload` -- the "ship the data once"
        contract callers like
        :class:`repro.core.runtime_plans.ResidentHostGroups` build on.
        Loading the same key again merges (and for colliding column names
        replaces) payload entries on the workers already holding them.
        """
        if len(shard_payloads) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} shard payloads, got {len(shard_payloads)}")
        backend = self._ensure_backend()
        if self.telemetry.enabled:
            t0 = time.perf_counter()
            backend.load_shards(key, shard_payloads)
            self.telemetry.histogram(
                "engine_load_seconds",
                "Wall-clock time making payloads resident",
                kind="shards").observe(time.perf_counter() - t0)
            self._update_resident_gauges()
        else:
            backend.load_shards(key, shard_payloads)

    def load_shards_from_snapshot(self, key: Any,
                                  shard_refs: Sequence[Any]) -> None:
        """Make snapshot shards resident under ``key`` -- zero-copy.

        ``shard_refs`` are :class:`~repro.engine.snapshot.ShardFileRef`
        handles (one per shard, ``shard_count`` of them, e.g. from
        :meth:`repro.engine.snapshot.Snapshot.shard_refs`).  Unlike
        :meth:`load_shards`, no column bytes travel through the worker
        queues: each pool worker receives only its placement's descriptors
        and ``mmap``\\ s the shard files straight from disk
        (:attr:`RecoveryStats.shard_bytes_queued` stays untouched).  The
        coordinator's recovery record *is* the reference, so a crashed
        worker heals by re-opening files, and :meth:`resize` migrates shards
        by moving descriptors.  In-process backends resolve the references
        inline -- results stay bit-identical across executors.
        """
        if len(shard_refs) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} shard references, "
                f"got {len(shard_refs)}")
        backend = self._ensure_backend()
        if self.telemetry.enabled:
            t0 = time.perf_counter()
            backend.load_shards(key, shard_refs)
            self.telemetry.histogram(
                "engine_load_seconds",
                "Wall-clock time making payloads resident",
                kind="snapshot").observe(time.perf_counter() - t0)
            self._update_resident_gauges()
        else:
            backend.load_shards(key, shard_refs)

    def resize(self, num_workers: int) -> None:
        """Change the pool size in place, keeping resident data usable.

        The pool backend remaps shard placement (see
        :meth:`PoolExecutor.resize`): snapshot-backed shards migrate by
        closing and re-opening file handles, queue-shipped shards by
        re-sending their payload dict; broadcasts replicate to new workers.
        The thread backend swaps its thread pool (shared memory moves
        nothing); the serial backend just records the number.
        ``shard_count`` never changes -- it was fixed when the resident
        datasets were sharded -- so more workers than shards idle, and
        fewer workers than shards stack shards per worker, exactly like
        construction-time sizing.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if num_workers == self.num_workers:
            return
        backend = self._ensure_backend()
        resize = getattr(backend, "resize", None)
        if resize is not None:
            if self.telemetry.enabled:
                t0 = time.perf_counter()
                resize(num_workers)
                self.telemetry.histogram(
                    "engine_resize_seconds",
                    "Wall-clock time of an elastic pool resize").observe(
                        time.perf_counter() - t0)
            else:
                resize(num_workers)
        self.num_workers = num_workers
        if self.telemetry.enabled:
            self.telemetry.gauge(
                "engine_pool_workers",
                "Current worker count of the runtime pool").set(num_workers)
            self._update_resident_gauges()

    def load_broadcast(self, key: Any, payload: dict) -> None:
        """Make one payload dict resident on *every* worker under ``key``.

        Broadcast payloads are the shared side tables of a query (score rows,
        supports, tie ranks): any shard may reference any entry, so each
        worker needs the whole thing -- shipped once, not per call.
        """
        backend = self._ensure_backend()
        if self.telemetry.enabled:
            t0 = time.perf_counter()
            backend.load(key, None, payload)
            self.telemetry.histogram(
                "engine_load_seconds",
                "Wall-clock time making payloads resident",
                kind="broadcast").observe(time.perf_counter() - t0)
            self._update_resident_gauges()
        else:
            backend.load(key, None, payload)

    def unload(self, key: Any) -> None:
        """Release the resident payloads stored under ``key`` on every worker."""
        if self._closed or self._backend is None:
            return
        self._backend.drop(key)
        self._update_resident_gauges()

    # -- execution -----------------------------------------------------------------

    def execute(self, fn_name: str, key: Any,
                args_per_shard: Optional[Sequence[Any]] = None) -> List[Any]:
        """Run a registered task against every resident shard of ``key``.

        ``args_per_shard`` supplies each shard's per-call arguments (``None``
        ships no arguments); results come back in shard order.
        """
        if fn_name not in _TASKS:
            raise KeyError(f"unknown runtime task: {fn_name!r}")
        if args_per_shard is None:
            args_per_shard = [None] * self.shard_count
        if len(args_per_shard) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} argument entries, got {len(args_per_shard)}")
        tasks = [(fn_name, key, shard_idx, args)
                 for shard_idx, args in enumerate(args_per_shard)]
        return self._run_observed(fn_name, tasks)

    def map_stateless(self, fn_name: str, payloads: Sequence[Any]) -> List[Any]:
        """Run a registered task over shipped payload chunks (no residency).

        Payload ``i`` runs on worker ``i % num_workers``, results return in
        payload order, and no process is spawned per call.
        """
        if fn_name not in _TASKS:
            raise KeyError(f"unknown runtime task: {fn_name!r}")
        tasks = [(fn_name, None, None, payload) for payload in payloads]
        return self._run_observed(fn_name, tasks)

    def _run_observed(self, fn_name: str,
                      tasks: Sequence[Tuple[str, Any, Optional[int], Any]],
                      ) -> List[Any]:
        """Run one dispatch, recording its end-to-end cost when observed."""
        backend = self._ensure_backend()
        if not self.telemetry.enabled:
            return backend.run(tasks)
        self.telemetry.counter("engine_tasks_total",
                               "Tasks dispatched to the runtime",
                               task=fn_name).inc(len(tasks))
        t0 = time.perf_counter()
        results = backend.run(tasks)
        self.telemetry.histogram(
            "engine_dispatch_seconds",
            "End-to-end wall-clock time of one dispatch (all shards)",
            task=fn_name).observe(time.perf_counter() - t0)
        return results
