"""In-process engine runtime: resident payloads and named fold tasks.

GPS's three Table 2 builds -- the model, the priors plan and the prediction
index (:mod:`repro.engine.fused`) -- all fold over the same encoded seed
columns.  :class:`EngineRuntime` keeps those columns resident for them:

* **residency** -- one payload dict of columns per caller-chosen key,
  loaded once and kept until :meth:`EngineRuntime.unload`, so the model ->
  priors -> prediction index builds of one GPS run pass only their plan
  parameters, never the columns;
* **named tasks** -- each fold is a registered ``fn(payload, args)`` entry
  that :meth:`EngineRuntime.execute` runs against a key's payload, inline in
  the calling thread.

Lifecycle is explicit: :meth:`EngineRuntime.close` (idempotent) frees the
resident store, and the runtime is a context manager.  An optional
:class:`~repro.telemetry.Telemetry` instance records per-task dispatch
latency histograms, load timings and resident-payload gauges.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.engine.columns import to_numpy
from repro.engine.fused import (
    candidate_table,
    fold_argmax_winners,
    fold_model_pairs_arrays,
    fold_partner_counts,
    fold_value_counts_arrays,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["EngineRuntime", "RUNTIME_EXECUTORS", "RecoveryStats"]

# The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
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

    Machine-native buffers report exactly; boxed lists/tuples count 8
    bytes per element (the pointer) -- the estimate feeds an operator
    gauge, not an allocator, so relative magnitude is what matters.
    """
    total = 0
    for column in payload.values():
        if isinstance(column, array):
            total += len(column) * column.itemsize
        elif isinstance(column, (list, tuple)):
            total += len(column) * 8
    return total


# -- task registry -----------------------------------------------------------------------
#
# Every task is ``fn(payload, args) -> result`` where ``payload`` is the
# key's resident column dict and ``args`` the per-call plain-data arguments.


def _task_model_pairs(payload: dict, args: Any) -> Any:
    """Resident co-occurrence fold: sorted packed ``(predictor id, port)``
    keys and their counts
    (:func:`~repro.engine.fused.fold_model_pairs_arrays`)."""
    return fold_model_pairs_arrays(payload["member_starts"], payload["labels"],
                                   payload["value_starts"], payload["value_ids"],
                                   MODEL_PACK_BASE)


def _task_model_denominators(payload: dict, args: Any) -> Any:
    """Resident denominator fold: sorted predictor ids and their counts."""
    return fold_value_counts_arrays(payload["value_ids"])


def _candidates(payload: dict) -> dict:
    """The payload's candidate table for its loaded model, built once.

    Both the priors and the index fold read it
    (:func:`~repro.engine.fused.candidate_table`).  It is cached in the
    payload under ``_candidates``, which every :meth:`EngineRuntime.load`
    drops, so a table never outlives the columns or the model it was built
    from.
    """
    table = payload.get("_candidates")
    if table is None:
        table = payload["_candidates"] = candidate_table(
            payload["member_starts"], payload["labels"], payload["value_starts"],
            payload["value_ids"], payload["pair_keys"], payload["pair_counts"],
            payload["supports"], MODEL_PACK_BASE)
    return table


def _task_priors_partner(payload: dict, args: Any) -> Counter:
    """Resident priors fold: ``(partner port, subnet key)`` counts.

    ``args`` is ``(allowed_labels,)``, a sorted label array or ``None``;
    the score tables come from the loaded model sides, everything else is
    already resident.
    """
    (allowed,) = args
    return fold_partner_counts(payload["group_keys"], payload["member_starts"],
                               payload["labels"], _candidates(payload),
                               allowed, MODEL_PACK_BASE)


def _task_index_argmax(payload: dict, args: Any) -> Tuple[Any, ...]:
    """Resident argmax fold: each target service's leading rows.

    Returns ``(targets, ports, pids, probs)`` arrays
    (:func:`~repro.engine.fused.fold_argmax_winners`), grouped by ascending
    target service -- host order, then port -- with each target's port.
    The caller breaks the remaining ties on the decoded predictor tuples.
    """
    allowed, min_support, cutoff = args
    target, pid, prob = fold_argmax_winners(
        payload["labels"], _candidates(payload), payload["supports"],
        allowed, min_support, cutoff)
    return target, to_numpy(payload["labels"])[target], pid, prob


_TASKS: Dict[str, Callable[[dict, Any], Any]] = {
    "model_pairs": _task_model_pairs,
    "model_denominators": _task_model_denominators,
    "priors_partner": _task_priors_partner,
    "index_argmax": _task_index_argmax,
}


# -- the runtime -------------------------------------------------------------------------


class EngineRuntime:
    """Resident payloads plus the named folds that read them.

    Data arrives through :meth:`load` and stays resident under a
    caller-chosen key; :meth:`execute` then runs a registered task against
    that key's payload, passing only per-call arguments.  Every task runs
    inline in the calling thread.

    Lifecycle: :meth:`close` is explicit and idempotent; the runtime is a
    context manager; using a closed runtime raises.
    """

    def __init__(self, executor: str = "serial", *,
                 telemetry: Optional[Telemetry] = None) -> None:
        """Configure the runtime.

        Args:
            executor: ``"serial"``, the only backend.
            telemetry: instrumentation sink for dispatch timings, load
                timings and resident gauges; ``None`` (the default) selects
                the shared disabled instance.
        """
        if executor not in RUNTIME_EXECUTORS:
            raise ValueError(
                f"unknown executor: {executor!r} (expected one of {RUNTIME_EXECUTORS})")
        self.executor = executor
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # One resident payload dict per key.
        self._store: Dict[Any, dict] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
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

    def load(self, key: Any, columns: dict) -> None:
        """Merge ``columns`` into the payload resident under ``key``.

        Colliding column names replace.  Each merge stores a new dict
        without the cached candidate table (:func:`_candidates`), so no
        cache outlives the columns it was derived from.  The payload stays
        resident until :meth:`unload` -- the "load the data once" contract
        :class:`repro.core.runtime_plans.ResidentHostGroups` builds on.
        """
        self._check_open()
        t0 = time.perf_counter()
        resident = {**self._store.get(key, {}), **columns}
        resident.pop("_candidates", None)
        self._store[key] = resident
        if self.telemetry.enabled:
            self.telemetry.histogram(
                "engine_load_seconds",
                "Wall-clock time making payloads resident",
            ).observe(time.perf_counter() - t0)
            self._update_resident_gauges()

    def unload(self, key: Any) -> None:
        """Release the payload resident under ``key``."""
        self._store.pop(key, None)
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
            "Resident payloads (one per key)").set(len(self._store))

    # -- execution -----------------------------------------------------------------

    def execute(self, fn_name: str, key: Any, args: Any = None) -> Any:
        """Run a registered task against the payload resident under ``key``
        with the per-call ``args``; returns the task's result."""
        task = _TASKS.get(fn_name)
        if task is None:
            raise KeyError(f"unknown runtime task: {fn_name!r}")
        self._check_open()
        payload = self._store.get(key)
        if payload is None:
            raise KeyError(f"no resident payload for key {key!r}")
        tel = self.telemetry
        if not tel.enabled:
            return task(payload, args)
        tel.counter("engine_tasks_total", "Tasks dispatched to the runtime",
                    task=fn_name).inc()
        t0 = time.perf_counter()
        result = task(payload, args)
        tel.histogram(
            "engine_dispatch_seconds",
            "Wall-clock time of one task dispatch",
            task=fn_name).observe(time.perf_counter() - t0)
        return result
