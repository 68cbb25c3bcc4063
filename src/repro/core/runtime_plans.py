"""Resident host-group datasets: one data load serving all three GPS builds.

The three Table 2 "computation" queries -- model build (Section 5.2), priors
planning (Section 5.3) and the prediction-index build (Section 5.4) -- all
fold over the same underlying relation: hosts owning services owning
dictionary-encoded predictor tuples.  :class:`ResidentHostGroups` takes
that relation as pre-encoded columns, hash-shards it once
(:mod:`repro.engine.shard`) and loads each shard into a persistent
:class:`~repro.engine.runtime.EngineRuntime` worker, where it stays
resident.  Each subsequent build then ships only its plan parameters:

* :meth:`model_counts` -- the co-occurrence fold runs as a shard-local
  self-join derived worker-side from the resident columns (ships nothing);
* :meth:`priors_coverage` / :meth:`argmax_winners` -- the model's score
  tables broadcast once (:meth:`ensure_sides`), after which each call ships
  only the port whitelist and thresholds.

Every result is bit-identical to the single-core reference builds on every
executor and shard count: counter merges are order-independent, and the
order-sensitive argmax winner list is reassembled into exact host order via
the shards' ``group_order`` columns.

The module is deliberately blind to concrete core types -- host features and
models are used through their attribute surface only -- so
:mod:`repro.core.model`, :mod:`repro.core.priors` and
:mod:`repro.core.predictions` can all call into it without import cycles.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.engine.encoding import DictionaryEncoder
from repro.engine.runtime import MODEL_PACK_BASE, EngineRuntime
from repro.engine.shard import merge_ordered, shard_group_columns
from repro.net.ipv4 import subnet_key

__all__ = ["ResidentHostGroups"]

#: Distinct runtime keys per process, so two live datasets never collide in
#: the workers' resident stores.
_KEY_COUNTER = itertools.count()


def merge_counters(counters: Iterable[Counter]) -> Counter:
    """Sum per-shard counters into the final result.

    Counter addition is commutative, so the merged result is independent of
    shard layout and arrival order.
    """
    merged: Counter = Counter()
    for counts in counters:
        merged.update(counts)
    return merged


def _merge_packed(per_shard: Sequence[Tuple[Any, Any]]) -> Dict[int, int]:
    """Merge per-shard packed ``(keys, counts)`` column pairs into one dict.

    The vectorized fold kernels return parallel int64 columns instead of
    dicts; the merge builds the combined mapping exactly once driver-side
    (``.tolist()`` unboxes each buffer in a single C pass).
    """
    merged: Dict[int, int] = {}
    for keys, counts in per_shard:
        if not merged:
            merged = dict(zip(keys.tolist(), counts.tolist()))
            continue
        get = merged.get
        for key, count in zip(keys.tolist(), counts.tolist()):
            merged[key] = get(key, 0) + count
    return merged


class ResidentHostGroups:
    """The host/service/predictor relation, resident in a runtime's workers.

    Constructing the dataset takes ``host_features``' group-structured
    columns (groups = hosts keyed by their ``step_size`` subnet, members =
    services labelled by port in ascending order, values = predictor-tuple
    ids interned through one shared :class:`DictionaryEncoder`), shards them
    by the stable hash of the host address, and ships each shard to its
    runtime worker exactly once.  The encoder stays driver-side: workers
    only ever see dense ids, the driver decodes results.

    The dataset must be :meth:`release`-d when the run is done (the GPS
    orchestrator does this in a ``finally``); the runtime itself stays up
    for the next dataset.

    Worker crashes are transparent at this layer: the pool backend keeps a
    coordinator-side copy of every payload shipped through
    ``runtime.load_shards`` / ``load_broadcast``, so a worker that dies
    mid-build is respawned with exactly its shards re-loaded and the
    interrupted folds re-dispatched -- results stay bit-identical (pure
    tasks, order-independent counter merges, ``merge_ordered`` re-ordering).
    :attr:`recovery_stats` exposes what the supervisor had to do.
    """

    def __init__(self, runtime: EngineRuntime, host_features: Any,
                 step_size: int, key: Optional[str] = None) -> None:
        """Shard and load the host features.

        Args:
            runtime: the persistent runtime whose workers hold the shards.
            host_features: the host/service/predictor relation as
                pre-encoded flat columns
                (:class:`repro.core.features.HostFeatureColumns`), which
                shard as-is: the columnar ingest already holds exactly the
                layout the workers need, and the columns' encoder is shared.
            step_size: prefix length for the priors planner's subnet group
                keys (0-32).
            key: resident-store key; auto-generated (unique per process)
                when omitted.
        """
        if not 0 <= step_size <= 32:
            raise ValueError(f"step_size must be a prefix length 0-32: {step_size}")
        self.runtime = runtime
        self.step_size = step_size
        self.key = key if key is not None else f"host-groups-{next(_KEY_COUNTER)}"
        self._sides_model: Optional[Any] = None
        self._released = False

        self.encoder = host_features.encoder
        assign_keys = host_features.ips
        group_keys = [subnet_key(ip, step_size) for ip in assign_keys]
        member_starts = host_features.member_starts
        labels = host_features.ports
        value_starts = host_features.value_starts
        value_ids = host_features.value_ids
        self.group_count = len(group_keys)
        sharded = shard_group_columns(assign_keys, group_keys, member_starts,
                                      labels, value_starts, value_ids,
                                      runtime.shard_count)
        try:
            runtime.load_shards(self.key, sharded.shards)
        except BaseException:
            # A partial load must not leak shards into the warm pool for the
            # runtime's whole life: the caller never sees this dataset, so
            # nobody else can release the key.
            runtime.unload(self.key)
            raise

    @classmethod
    def from_snapshot(cls, runtime: EngineRuntime, snapshot: Any,
                      key: Optional[str] = None) -> "ResidentHostGroups":
        """Build the resident dataset from a saved snapshot -- zero-copy.

        The snapshot (:class:`repro.engine.snapshot.Snapshot`, saved with
        sharded host groups) already holds exactly the shard payloads the
        constructor would shard and ship: workers receive file references
        and ``mmap`` their shards straight from disk
        (:meth:`~repro.engine.runtime.EngineRuntime.load_shards_from_snapshot`),
        so no sharding pass runs and no column bytes cross the worker queues.
        The predictor encoder rebuilds from the snapshot's table in exact id
        order, so resident ``value_ids`` decode identically to a
        freshly-built dataset and every downstream query is bit-identical.

        The runtime's ``shard_count`` must match the snapshot's saved shard
        layout (shard files *are* the placement unit).
        """
        from repro.engine.snapshot import SnapshotError

        layout = snapshot.shard_layout()
        if layout is None:
            raise SnapshotError(
                "snapshot has no sharded host groups; save it with "
                "shard_count/step_size to make it runtime-loadable")
        if layout["shard_count"] != runtime.shard_count:
            raise SnapshotError(
                f"snapshot was sharded for shard_count="
                f"{layout['shard_count']}, but the runtime uses "
                f"shard_count={runtime.shard_count}; re-save the snapshot "
                "or size the runtime to match")
        self = cls.__new__(cls)
        self.runtime = runtime
        self.step_size = layout["step_size"]
        self.key = key if key is not None else f"host-groups-{next(_KEY_COUNTER)}"
        self._sides_model = None
        self._released = False
        self.encoder = DictionaryEncoder()
        for predictor in snapshot.section_meta("host_features")["encoder"]:
            self.encoder.encode(tuple(predictor))
        self.group_count = layout["group_count"]
        try:
            runtime.load_shards_from_snapshot(self.key, snapshot.shard_refs())
        except BaseException:
            runtime.unload(self.key)
            raise
        return self

    # -- lifecycle -----------------------------------------------------------------

    @property
    def recovery_stats(self):
        """The owning runtime's supervision counters (crash-recovery tests
        read these to prove recovery touched only the dead worker's shards)."""
        return self.runtime.recovery_stats

    def release(self) -> None:
        """Drop the resident shards from every worker; idempotent."""
        if self._released:
            return
        self._released = True
        self.runtime.unload(self.key)

    def _check_usable(self) -> None:
        if self._released:
            raise RuntimeError("resident host-group dataset has been released")

    # -- model build (Section 5.2) -------------------------------------------------

    def model_counts(self, column_backend: str = "stdlib",
                     ) -> Tuple[Dict[Any, Dict[int, int]], Dict[Any, int]]:
        """Run the co-occurrence query against the resident shards.

        Returns ``(cooccurrence, denominators)`` with decoded predictor-tuple
        keys, exactly the contents of the
        :class:`~repro.core.model.CooccurrenceModel` the oracle builds.

        With the default ``"stdlib"`` backend the shard-local self-join
        payload is derived (and cached) worker-side, so repeated builds ship
        nothing at all.  With ``column_backend="numpy"`` each worker instead
        folds its resident column buffers through the vectorized kernels
        (:func:`repro.engine.fused.fold_model_pairs_arrays`), returning
        packed ``(keys, counts)`` column pairs that are merged driver-side
        -- same counts, no per-row Python loop, and numpy's GIL-releasing
        sorts let thread workers overlap for real.
        """
        self._check_usable()
        if column_backend == "numpy":
            backend_args = [("numpy",)] * self.runtime.shard_count
            pair_counts = _merge_packed(
                self.runtime.execute("model_pairs", self.key, backend_args))
            denominators = _merge_packed(
                self.runtime.execute("model_denominators", self.key,
                                     backend_args))
        else:
            pair_counts = merge_counters(
                self.runtime.execute("model_pairs", self.key))
            denominators = merge_counters(
                self.runtime.execute("model_denominators", self.key))
        cooccurrence_by_id: Dict[int, Dict[int, int]] = {}
        for packed, count in pair_counts.items():
            predictor_id, port = divmod(packed, MODEL_PACK_BASE)
            targets = cooccurrence_by_id.get(predictor_id)
            if targets is None:
                targets = cooccurrence_by_id[predictor_id] = {}
            targets[port] = count
        decode = self.encoder.decode
        return (
            {decode(predictor_id): targets
             for predictor_id, targets in cooccurrence_by_id.items()},
            {decode(predictor_id): count
             for predictor_id, count in denominators.items()},
        )

    # -- model side tables (shared by priors + prediction index) ---------------------

    def ensure_sides(self, model: Any) -> None:
        """Broadcast the model's score tables to every worker, once per model.

        Per interned predictor id the workers receive the model's count row
        (a reference to the model's own dict -- probabilities divide the
        exact integers the oracle divides), its support, and its rank in
        ascending decoded-tuple order (the argmax tie-break).  A repeated
        call with the same model object ships nothing.
        """
        self._check_usable()
        if self._sides_model is model:
            return
        values = self.encoder.values()
        no_targets: Dict[int, int] = {}
        target_counts: List[Dict[int, int]] = []
        denominators: List[int] = []
        model_denominators = model.denominators
        model_cooccurrence = model.cooccurrence
        for predictor in values:
            denom = model_denominators.get(predictor, 0)
            targets = model_cooccurrence.get(predictor) if denom else None
            if targets:
                target_counts.append(targets)
                denominators.append(denom)
            else:
                # Unknown predictor or zero support: probability 0 for every
                # port; both folds skip empty rows before touching the
                # denominator, so its value is immaterial.
                target_counts.append(no_targets)
                denominators.append(0)
        tie_ranks = [0] * len(values)
        for rank, value_index in enumerate(sorted(range(len(values)),
                                                  key=values.__getitem__)):
            tie_ranks[value_index] = rank
        self.runtime.load_broadcast(self.key, {
            "target_counts": tuple(target_counts),
            "denominators": tuple(denominators),
            "tie_ranks": tuple(tie_ranks),
        })
        self._sides_model = model

    # -- priors planning (Section 5.3) ----------------------------------------------

    def priors_coverage(self, model: Any,
                        port_domain: Optional[Sequence[int]] = None,
                        ) -> Dict[Tuple[int, int], int]:
        """Run the priors partner-selection query against the resident shards.

        Returns the ``(port, subnet) -> coverage`` counts the priors list is
        built from, identical to the reference planner's counts.  Only the
        port whitelist ships per call.
        """
        self._check_usable()
        self.ensure_sides(model)
        allowed: Optional[FrozenSet[int]] = (
            frozenset(port_domain) if port_domain is not None else None)
        counters = self.runtime.execute(
            "priors_partner", self.key,
            [(allowed,)] * self.runtime.shard_count)
        return merge_counters(counters)

    # -- prediction-index build (Section 5.4) ----------------------------------------

    def argmax_winners(self, model: Any,
                       port_domain: Optional[Sequence[int]] = None,
                       min_pattern_support: int = 2,
                       probability_cutoff: float = 1e-5,
                       ) -> List[Tuple[int, Any, float]]:
        """Run the argmax partner-selection query against the resident shards.

        Returns decoded ``(target port, predictor tuple, probability)``
        winners in exact host order -- hash-sharding permutes hosts, so each
        shard's winners come back tagged with their host's original index
        and are merged back before decoding.  Only the whitelist and
        thresholds ship per call.
        """
        self._check_usable()
        self.ensure_sides(model)
        allowed: Optional[FrozenSet[int]] = (
            frozenset(port_domain) if port_domain is not None else None)
        args = (allowed, min_pattern_support, probability_cutoff)
        tagged = self.runtime.execute("index_argmax", self.key,
                                      [args] * self.runtime.shard_count)
        decode = self.encoder.decode
        return [
            (label, decode(value_id), probability)
            for winners in merge_ordered(tagged)
            for label, value_id, probability in winners
        ]
