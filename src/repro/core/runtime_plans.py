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
  self-join over the resident columns (ships only the kernel name) and
  returns the merged packed counts (:class:`PackedCounts`);
* :meth:`priors_coverage` / :meth:`argmax_winners` -- the model's score
  tables, those packed counts, broadcast once (:meth:`ensure_sides`), after
  which each call ships only the port whitelist and thresholds.  Each shard
  builds one candidate table per model, which both folds reduce with
  numpy segment reductions.

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
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.engine.columns import (
    IntColumn,
    require_numpy,
    resolve_column_backend,
    to_numpy,
)
from repro.engine.encoding import DictionaryEncoder
from repro.engine.runtime import MODEL_PACK_BASE, EngineRuntime
from repro.engine.fused import keep_segment_max, segment_starts
from repro.engine.shard import shard_group_columns
from repro.net.ipv4 import prefix_mask

__all__ = ["PackedCounts", "ResidentHostGroups"]

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


def _merge_packed(per_shard: Sequence[Tuple[Any, Any]]):
    """Merge per-shard packed ``(keys, counts)`` column pairs into one pair.

    Both model-fold kernels reply with parallel int64 columns sorted by key;
    the merge sums the counts of equal keys across shards and returns
    ``(keys, counts)`` ndarrays sorted by key.
    """
    np = require_numpy()
    keys = np.concatenate([to_numpy(keys) for keys, _ in per_shard])
    counts = np.concatenate([to_numpy(counts) for _, counts in per_shard])
    if len(per_shard) == 1:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    starts = segment_starts(keys)
    if not starts.size:
        return keys, counts
    return keys[starts], np.add.reduceat(counts, starts)


@dataclass(frozen=True)
class PackedCounts:
    """A co-occurrence model as the model fold's merged packed columns.

    Attributes:
        encoder: the encoder whose ids the columns carry.
        pair_keys: sorted ``predictor id * MODEL_PACK_BASE + target port``
            keys with a positive co-occurrence count.
        pair_counts: the count of each key.
        ids: sorted predictor ids with a positive support.
        supports: the support (denominator) of each id.
    """

    encoder: DictionaryEncoder
    pair_keys: Any
    pair_counts: Any
    ids: Any
    supports: Any


def _pack_model(model: Any, values: Sequence[Any]):
    """``(pair_keys, pair_counts, supports)`` of a model read from its dicts.

    Only the encoder's ``values`` are packed, ids in encoder order; a
    predictor without positive support packs no pair and support 0, and
    only positive counts pack, so every packed pair scores exactly as the
    reference's ``best_predictor`` considers it.  Each dict is read through
    ``map``/``chain`` in C, so no Python statement runs per predictor.
    """
    np = require_numpy()
    supports = np.fromiter(map(model.denominators.get, values, itertools.repeat(0)),
                           dtype=np.int64, count=len(values))
    rows = list(map(model.cooccurrence.get, values, itertools.repeat({})))
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    total = int(lengths.sum())
    ports = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=total)
    counts = np.fromiter(itertools.chain.from_iterable(map(dict.values, rows)),
                         dtype=np.int64, count=total)
    if total and (ports.min() < 0 or ports.max() >= MODEL_PACK_BASE):
        raise ValueError("model target ports must lie in 0-65535")
    np.maximum(supports, 0, out=supports)
    pids = np.repeat(np.arange(len(values), dtype=np.int64), lengths)
    keep = (counts > 0) & (supports[pids] > 0)
    keys = pids[keep] * MODEL_PACK_BASE + ports[keep]
    order = np.argsort(keys)
    return keys[order], counts[keep][order], supports


def _label_array(port_domain: Optional[Sequence[int]]):
    """A port whitelist as the sorted int64 array the folds test against."""
    if port_domain is None:
        return None
    np = require_numpy()
    return np.array(sorted(set(port_domain)), dtype=np.int64)


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
    tasks, order-independent counter merges, re-ordering by host index).
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
        self._sides_packed: Optional[PackedCounts] = None
        self._released = False

        self.encoder = host_features.encoder
        assign_keys = host_features.ips
        # ``subnet_key`` of every host at once.
        group_keys = ((to_numpy(assign_keys) & prefix_mask(step_size)) << 6
                      | step_size)
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
        self._sides_packed = None
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

    def model_counts(self) -> PackedCounts:
        """Run the co-occurrence query against the resident shards.

        Returns the merged packed columns (:class:`PackedCounts`, ids in
        this dataset's encoder) that decode into exactly the contents of the
        :class:`~repro.core.model.CooccurrenceModel` the oracle builds.

        The fold kernel is resolved here, once per build, and ships to every
        shard as the task argument: the numpy kernels
        (:func:`repro.engine.fused.fold_model_pairs_arrays`) when numpy
        imports -- no per-row Python loop -- else the stdlib row-by-row
        fold.  Both reply with packed ``(keys, counts)`` columns merged
        here.
        """
        self._check_usable()
        kernel_args = [(resolve_column_backend(),)] * self.runtime.shard_count
        pair_keys, pair_counts = _merge_packed(
            self.runtime.execute("model_pairs", self.key, kernel_args))
        ids, supports = _merge_packed(
            self.runtime.execute("model_denominators", self.key, kernel_args))
        return PackedCounts(self.encoder, pair_keys, pair_counts, ids, supports)

    # -- model side tables (shared by priors + prediction index) ---------------------

    def ensure_sides(self, model: Any) -> None:
        """Broadcast the model's score tables to every worker, once per model.

        The workers receive int64 columns: the sorted packed
        ``(predictor id, port)`` keys with their co-occurrence counts and
        each id's support.  A model built over this dataset's encoder whose
        dicts were never read broadcasts its packed columns as they are;
        any other model is packed from its dicts.  A repeated call with the
        same model object in the same state ships nothing.

        Every broadcast also carries an empty ``candidates`` cache for the
        shards' candidate tables (built by the first fold that needs them),
        so a new broadcast drops the previous model's tables.
        """
        self._check_usable()
        packed = model.packed_counts()
        if self._sides_model is model and self._sides_packed is packed:
            return
        np = require_numpy()
        values = self.encoder.values()
        if packed is not None and packed.encoder is self.encoder:
            pair_keys, pair_counts = packed.pair_keys, packed.pair_counts
            supports = np.zeros(len(values), dtype=np.int64)
            supports[packed.ids] = packed.supports
        else:
            pair_keys, pair_counts, supports = _pack_model(model, values)
        self.runtime.load_broadcast(self.key, {
            "pair_keys": IntColumn.from_numpy(pair_keys),
            "pair_counts": IntColumn.from_numpy(pair_counts),
            "supports": IntColumn.from_numpy(supports),
            "candidates": {},
        })
        self._sides_model = model
        self._sides_packed = packed

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
        counters = self.runtime.execute(
            "priors_partner", self.key,
            [(_label_array(port_domain),)] * self.runtime.shard_count)
        return merge_counters(counters)

    # -- prediction-index build (Section 5.4) ----------------------------------------

    def argmax_winners(self, model: Any,
                       port_domain: Optional[Sequence[int]] = None,
                       min_pattern_support: int = 2,
                       probability_cutoff: float = 1e-5,
                       ) -> Tuple[Any, Any, Any]:
        """Run the argmax partner-selection query against the resident shards.

        Returns the winners as ``(target port, predictor id, probability)``
        arrays in exact host order -- hash-sharding permutes hosts, so each
        shard's winners come back tagged with their host's original index
        and are merged back.  Ids are the dataset encoder's; only the ids
        that tie are decoded, for the last tie-break.  Only the whitelist
        and thresholds ship per call.
        """
        self._check_usable()
        self.ensure_sides(model)
        args = (_label_array(port_domain), min_pattern_support,
                probability_cutoff)
        parts = self.runtime.execute("index_argmax", self.key,
                                     [args] * self.runtime.shard_count)
        np = require_numpy()
        groups, ports, pids, probs = (
            np.concatenate([part[column] for part in parts])
            for column in range(4))
        # Every host lives in one shard and each shard replies in member
        # order, so a stable sort on the host index restores serial order.
        order = np.argsort(groups, kind="stable")
        targets = groups[order] * MODEL_PACK_BASE + ports[order]
        pids, probs = pids[order], probs[order]
        keep = keep_segment_max(targets, -self._tie_ranks(targets, pids))
        targets, pids, probs = targets[keep], pids[keep], probs[keep]
        # Rows still tied carry one id twice: the first one wins.
        first = segment_starts(targets)
        return targets[first] % MODEL_PACK_BASE, pids[first], probs[first]

    def _tie_ranks(self, targets, pids):
        """Each row's rank among the tied rows' ids in ascending
        decoded-tuple order (the argmax's last tie-break); 0 for rows whose
        target has a single row.  Only the ids that tie are decoded and
        sorted."""
        np = require_numpy()
        ranks = np.zeros(pids.size, dtype=np.int64)
        starts = segment_starts(targets)
        lengths = np.diff(np.append(starts, targets.size))
        tied = np.repeat(lengths > 1, lengths)
        if not tied.any():
            return ranks
        values = self.encoder.values()
        seen = np.zeros(len(values), dtype=bool)
        seen[pids[tied]] = True
        ids = np.flatnonzero(seen)
        tuples = list(map(values.__getitem__, ids.tolist()))
        rank_of = np.zeros(len(values), dtype=np.int64)
        rank_of[ids[sorted(range(ids.size), key=tuples.__getitem__)]] = \
            np.arange(ids.size)
        ranks[tied] = rank_of[pids[tied]]
        return ranks
