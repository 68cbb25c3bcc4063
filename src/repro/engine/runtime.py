"""In-process engine runtime: resident shards and named fold tasks.

GPS's three Table 2 builds -- the model, the priors plan and the prediction
index (:mod:`repro.engine.fused`) -- all fold over the same encoded seed
columns.  :class:`EngineRuntime` keeps those columns resident for them:

* **sharded residency** -- dictionary-encoded column payloads
  (:mod:`repro.engine.shard`) load once under a caller-chosen key and stay
  until :meth:`EngineRuntime.unload`, so the model -> priors -> prediction
  index builds of one GPS run pass only their plan parameters, never the
  columns;
* **named tasks** -- each fold is a registered ``fn(shard, broadcast, args)``
  entry that :meth:`EngineRuntime.execute` runs against every resident shard
  of a key, in shard order, inline in the calling thread.

Results are bit-identical across shard counts: counter folds merge
order-independently, and the order-sensitive argmax rows come back tagged
with each host's original index for exact re-ordering (the equivalence
suites assert it).

Lifecycle is explicit: :meth:`EngineRuntime.close` (idempotent) frees the
resident store, and the runtime is a context manager.  An optional
:class:`~repro.telemetry.Telemetry` instance records per-task dispatch and
execute latency histograms, load timings and resident-payload gauges.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.columns import ColumnView, require_numpy, to_numpy
from repro.engine.fused import (
    candidate_table,
    fold_argmax_winners,
    fold_model_pairs,
    fold_model_pairs_arrays,
    fold_partner_counts,
    fold_value_counts,
    fold_value_counts_arrays,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["EngineRuntime", "RUNTIME_EXECUTORS", "RecoveryStats"]

#: Executor backends an :class:`EngineRuntime` can run plans on.
RUNTIME_EXECUTORS = ("serial",)

#: Packing base for the resident model fold: group keys are
#: ``(predictor id, target port)`` pairs and ports are < 65536, so
#: ``pid * 65536 + port`` is bijective and the packed counts unpack
#: losslessly with ``divmod``.
MODEL_PACK_BASE = 65536


# The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
@dataclass
class RecoveryStats:
    """Recovery counters: always zero, since nothing runs out of process.

    Kept because the end-to-end benchmark and the ``recovery`` object of
    ``/stats`` still read both fields.
    """

    respawns: int = 0
    redispatched_tasks: int = 0


def _payload_nbytes(payload: dict) -> int:
    """Estimated resident size of one payload, in bytes.

    Machine-native buffers and mmap-backed views report exactly; boxed
    lists/tuples count 8 bytes per element (the pointer) -- the estimate
    feeds an operator gauge, not an allocator, so relative magnitude is
    what matters.
    """
    total = 0
    for column in payload.values():
        if isinstance(column, ColumnView):
            total += column.nbytes
        elif isinstance(column, array):
            total += len(column) * column.itemsize
        elif isinstance(column, (list, tuple)):
            total += len(column) * 8
    return total


# -- task registry -----------------------------------------------------------------------
#
# Every task is ``fn(shard, broadcast, args) -> result`` where ``shard`` is the
# resident per-shard payload dict (or None), ``broadcast`` the resident
# broadcast payload dict of the same key (or None), and ``args`` the per-call
# plain-data arguments.


#: Shard columns the stdlib model fold hydrates into boxed lists (see
#: :func:`_shard_lists`).
_HYDRATED_COLUMNS = ("member_starts", "labels", "value_starts", "value_ids")


def _shard_lists(shard: dict) -> dict:
    """Boxed-list copies of a shard's buffer columns, hydrated once per shard.

    Resident shard columns are machine-native int64 buffers
    (:class:`~repro.engine.columns.IntColumn`) -- ideal for the bulk
    kernels, but indexing one element-by-element boxes a fresh Python int
    per access, where a list hands back the already-boxed object.  The
    stdlib model fold therefore reads these cached ``tolist()`` copies,
    hydrated lazily on first use; the numpy kernels read the buffers
    directly.
    """
    lists = shard.get("_lists")
    if lists is None:
        lists = shard["_lists"] = {
            name: (column.tolist()
                   if isinstance(column, (array, ColumnView)) else column)
            for name, column in shard.items() if name in _HYDRATED_COLUMNS}
    return lists


def _task_model_pairs(shard: dict, broadcast: Optional[dict], args: Any) -> Any:
    """Resident co-occurrence fold: packed (predictor id, port) counts.

    ``args`` carries the kernel name the caller resolved (``None`` runs the
    stdlib fold): ``"numpy"`` folds the shard's buffers through
    :func:`~repro.engine.fused.fold_model_pairs_arrays`, ``"stdlib"`` streams
    the hydrated lists through :func:`~repro.engine.fused.fold_model_pairs`.
    Both return the same sorted ``(keys, counts)`` columns.
    """
    if args and args[0] == "numpy":
        columns, fold = shard, fold_model_pairs_arrays
    else:
        columns, fold = _shard_lists(shard), fold_model_pairs
    return fold(columns["member_starts"], columns["labels"],
                columns["value_starts"], columns["value_ids"],
                MODEL_PACK_BASE)


def _task_model_denominators(shard: dict, broadcast: Optional[dict],
                             args: Any) -> Any:
    """Resident denominator fold: predictor-id occurrence counts.

    Same kernel contract as :func:`_task_model_pairs`; returns sorted
    ``(ids, counts)`` columns.
    """
    if args and args[0] == "numpy":
        return fold_value_counts_arrays(shard["value_ids"])
    return fold_value_counts(_shard_lists(shard)["value_ids"])


def _candidates(shard: dict, broadcast: dict) -> dict:
    """The shard's candidate table for the broadcast model, built once.

    Both the priors and the index fold read it
    (:func:`~repro.engine.fused.candidate_table`).  It is cached in the
    broadcast's ``candidates`` dict, which every broadcast replaces, so a
    table lives no longer than its model's broadcast or the resident key.
    """
    cache = broadcast["candidates"]
    cached = cache.get(id(shard))
    if cached is None or cached[0] is not shard:
        table = candidate_table(
            shard["member_starts"], shard["labels"], shard["value_starts"],
            shard["value_ids"], broadcast["pair_keys"],
            broadcast["pair_counts"], broadcast["supports"], MODEL_PACK_BASE)
        cached = cache[id(shard)] = (shard, table)
    return cached[1]


def _task_priors_partner(shard: dict, broadcast: dict, args: Any) -> Counter:
    """Resident priors fold: ``(partner port, subnet key)`` counts.

    ``args`` is ``(allowed_labels,)``, a sorted label array or ``None``;
    the score tables come from the broadcast model sides, everything else
    is already resident.
    """
    (allowed,) = args
    return fold_partner_counts(shard["group_keys"], shard["member_starts"],
                               shard["labels"], _candidates(shard, broadcast),
                               allowed, MODEL_PACK_BASE)


def _task_index_argmax(shard: dict, broadcast: dict, args: Any) -> Tuple[Any, ...]:
    """Resident argmax fold: each target's leading rows, tagged for re-ordering.

    Returns ``(groups, ports, pids, probs)`` arrays
    (:func:`~repro.engine.fused.fold_argmax_winners`), ``groups`` holding
    each row's original host index: hash-sharding permutes host order, but
    the prediction-index build is order-sensitive (the serial winner list
    is the oracle), so the caller merges rows back into host order and
    breaks the remaining ties on the decoded predictor tuples.
    """
    allowed, min_support, cutoff = args
    target, pid, prob = fold_argmax_winners(
        shard["labels"], _candidates(shard, broadcast), broadcast["supports"],
        allowed, min_support, cutoff)
    np = require_numpy()
    group_of_member = np.repeat(
        np.arange(len(shard["group_order"]), dtype=np.int64),
        np.diff(to_numpy(shard["member_starts"])))
    return (to_numpy(shard["group_order"])[group_of_member[target]],
            to_numpy(shard["labels"])[target], pid, prob)


_TASKS: Dict[str, Callable[[Optional[dict], Optional[dict], Any], Any]] = {
    "model_pairs": _task_model_pairs,
    "model_denominators": _task_model_denominators,
    "priors_partner": _task_priors_partner,
    "index_argmax": _task_index_argmax,
}


# -- the runtime -------------------------------------------------------------------------


class EngineRuntime:
    """Resident, sharded payloads plus the named folds that read them.

    Data arrives through :meth:`load_shards` / :meth:`load_broadcast` and
    stays resident under a caller-chosen key; :meth:`execute` then runs a
    registered task against each resident shard, passing only per-call
    arguments.  Every task runs inline in the calling thread.

    Lifecycle: :meth:`close` is explicit and idempotent; the runtime is a
    context manager; using a closed runtime raises.
    """

    def __init__(self, executor: str = "serial", shard_count: int = 0, *,
                 telemetry: Optional[Telemetry] = None) -> None:
        """Configure the runtime.

        Args:
            executor: ``"serial"``, the only backend.
            shard_count: shards resident datasets are partitioned into;
                ``0`` means one shard.
            telemetry: instrumentation sink for dispatch/execute timings,
                load timings and resident gauges; ``None`` (the default)
                selects the shared disabled instance.
        """
        if executor not in RUNTIME_EXECUTORS:
            raise ValueError(
                f"unknown executor: {executor!r} (expected one of {RUNTIME_EXECUTORS})")
        if shard_count < 0:
            raise ValueError("shard_count must be >= 0 (0 selects one shard)")
        self.executor = executor
        self.shard_count = shard_count or 1
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Resident payloads by ``(key, shard_idx)``; ``shard_idx`` is
        # ``None`` for a key's broadcast payload.
        self._store: Dict[Tuple[Any, Optional[int]], dict] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def recovery_stats(self) -> RecoveryStats:
        """Recovery counters, all zero."""
        return RecoveryStats()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("engine runtime is closed")

    def close(self) -> None:
        """Free every resident payload; idempotent."""
        self._closed = True
        self._store.clear()

    def __enter__(self) -> "EngineRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- resident data -------------------------------------------------------------

    def _load(self, key: Any, entries: Sequence[Tuple[Optional[int], dict]],
              kind: str) -> None:
        """Merge ``(shard_idx, payload)`` entries into the store under ``key``
        (colliding column names replace).

        Each merge stores a new dict without the hydrated lists, so no
        per-shard cache (:func:`_shard_lists`, :func:`_candidates`) outlives
        the columns it was derived from.
        """
        t0 = time.perf_counter()
        for shard_idx, payload in entries:
            resident = {**self._store.get((key, shard_idx), {}), **payload}
            resident.pop("_lists", None)
            self._store[(key, shard_idx)] = resident
        if self.telemetry.enabled:
            self.telemetry.histogram(
                "engine_load_seconds",
                "Wall-clock time making payloads resident",
                kind=kind).observe(time.perf_counter() - t0)
            self._update_resident_gauges()

    def load_shards(self, key: Any, shard_payloads: Sequence[dict]) -> None:
        """Make per-shard payload dicts resident under ``key``.

        ``shard_payloads`` must have exactly ``shard_count`` entries; each
        stays resident until :meth:`unload` -- the "load the data once"
        contract :class:`repro.core.runtime_plans.ResidentHostGroups`
        builds on.  Loading the same key again merges (and for colliding
        column names replaces) payload entries.
        """
        self._check_open()
        if len(shard_payloads) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} shard payloads, got {len(shard_payloads)}")
        self._load(key, list(enumerate(shard_payloads)), "shards")

    def load_broadcast(self, key: Any, payload: dict) -> None:
        """Make one payload dict resident beside every shard of ``key``.

        Broadcast payloads are the shared side tables of a query (the packed
        model counts and supports): any shard may reference any entry.
        """
        self._check_open()
        self._load(key, [(None, payload)], "broadcast")

    def unload(self, key: Any) -> None:
        """Release the resident payloads stored under ``key``."""
        for resident_key in [k for k in self._store if k[0] == key]:
            del self._store[resident_key]
        self._update_resident_gauges()

    def _update_resident_gauges(self) -> None:
        if not self.telemetry.enabled:
            return
        self.telemetry.gauge(
            "engine_resident_bytes",
            "Estimated bytes of resident payload columns").set(
                sum(_payload_nbytes(p) for p in self._store.values()))
        self.telemetry.gauge(
            "engine_resident_payloads",
            "Resident payload entries (shards + broadcasts)"
        ).set(len(self._store))

    # -- execution -----------------------------------------------------------------

    def execute(self, fn_name: str, key: Any,
                args_per_shard: Optional[Sequence[Any]] = None) -> List[Any]:
        """Run a registered task against every resident shard of ``key``.

        ``args_per_shard`` supplies each shard's per-call arguments (``None``
        passes no arguments); results come back in shard order.
        """
        task = _TASKS.get(fn_name)
        if task is None:
            raise KeyError(f"unknown runtime task: {fn_name!r}")
        if args_per_shard is None:
            args_per_shard = [None] * self.shard_count
        if len(args_per_shard) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} argument entries, got {len(args_per_shard)}")
        self._check_open()
        broadcast = self._store.get((key, None))
        shards = [self._store.get((key, shard_idx))
                  for shard_idx in range(self.shard_count)]
        if broadcast is None and all(shard is None for shard in shards):
            raise KeyError(f"no resident payload for key {key!r}")
        tel = self.telemetry
        if not tel.enabled:
            return [task(shard, broadcast, args)
                    for shard, args in zip(shards, args_per_shard)]
        tel.counter("engine_tasks_total", "Tasks dispatched to the runtime",
                    task=fn_name).inc(len(shards))
        execute_s = tel.histogram("engine_task_execute_seconds",
                                  "Per-shard task execution time",
                                  task=fn_name)
        t0 = time.perf_counter()
        results = []
        for shard, args in zip(shards, args_per_shard):
            task_t0 = time.perf_counter()
            results.append(task(shard, broadcast, args))
            execute_s.observe(time.perf_counter() - task_t0)
        tel.histogram(
            "engine_dispatch_seconds",
            "End-to-end wall-clock time of one dispatch (all shards)",
            task=fn_name).observe(time.perf_counter() - t0)
        return results
