"""Host groups: one build's relation, shared by all three GPS builds.

The three Table 2 "computation" queries -- model build (Section 5.2), priors
planning (Section 5.3) and the prediction-index build (Section 5.4) -- all
fold over the same underlying relation: hosts owning services owning
dictionary-encoded predictor tuples.  :class:`ResidentHostGroups` holds
that relation as pre-encoded columns for one build and calls the
:mod:`repro.engine.fused` folds on them directly:

* :meth:`model_counts` -- the co-occurrence fold runs as a self-join over
  the columns and returns the packed counts (:class:`PackedCounts`);
* :meth:`priors_coverage` / :meth:`argmax_winners` -- the model's score
  tables, those packed counts, are kept beside the columns
  (:meth:`ensure_sides`), after which each call passes only the port
  whitelist and thresholds.  One candidate table per model feeds both
  folds' numpy segment reductions.

Every result is bit-identical to the single-core reference builds.

The module is deliberately blind to concrete core types -- host features and
models are used through their attribute surface only -- so
:mod:`repro.core.model`, :mod:`repro.core.priors` and
:mod:`repro.core.predictions` can all call into it without import cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import to_numpy
from repro.engine.encoding import DictionaryEncoder
from repro.engine.fused import (
    MODEL_PACK_BASE,
    candidate_table,
    fold_argmax_winners,
    fold_model_pairs_arrays,
    fold_partner_counts,
    fold_value_counts_arrays,
    keep_segment_max,
    segment_starts,
)
from repro.net.ipv4 import prefix_mask

__all__ = ["PackedCounts", "ResidentHostGroups"]


@dataclass(frozen=True)
class PackedCounts:
    """A co-occurrence model as the model fold's packed columns.

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
    return np.array(sorted(set(port_domain)), dtype=np.int64)


class ResidentHostGroups:
    """The host/service/predictor relation of one build.

    ``host_features``' group-structured columns (groups = hosts keyed by
    their ``step_size`` subnet, members = services labelled by port in
    ascending order, values = predictor-tuple ids interned through one
    shared :class:`DictionaryEncoder`) are held as they are; the folds see
    only dense ids, and this class decodes results.

    :meth:`release` drops the columns when the build is done (the GPS build
    sequence does this in a ``finally``); a released dataset refuses
    further folds.
    """

    # benchmarks/e2e wraps ``__init__`` and ``release`` through ``vars(cls)``.
    def __init__(self, host_features: Any, step_size: int) -> None:
        """Hold the host features.

        Args:
            host_features: the host/service/predictor relation as
                pre-encoded flat columns
                (:class:`repro.core.features.HostFeatureColumns`), held
                as-is: the columnar ingest already has exactly the layout
                the folds need, and the columns' encoder is shared.
            step_size: prefix length for the priors planner's subnet group
                keys (0-32).
        """
        if not 0 <= step_size <= 32:
            raise ValueError(f"step_size must be a prefix length 0-32: {step_size}")
        self.step_size = step_size
        self.encoder = host_features.encoder
        self.columns: Optional[Any] = host_features
        # ``subnet_key`` of every host at once.
        self.group_keys: Optional[np.ndarray] = (
            (to_numpy(host_features.ips) & prefix_mask(step_size)) << 6 | step_size)
        # The loaded model's score tables (:meth:`ensure_sides`) and the
        # candidate table built from them on first use.
        self.pair_keys: Optional[np.ndarray] = None
        self.pair_counts: Optional[np.ndarray] = None
        self.supports: Optional[np.ndarray] = None
        self.candidates: Optional[dict] = None
        self._sides_model: Optional[Any] = None
        self._sides_packed: Optional[PackedCounts] = None
        self._released = False

    def release(self) -> None:
        """Drop the columns, the model sides and the candidate table;
        idempotent."""
        self._released = True
        self.columns = self.group_keys = self.candidates = None
        self.pair_keys = self.pair_counts = self.supports = None
        self._sides_model = self._sides_packed = None

    def _check_usable(self) -> None:
        if self._released:
            raise RuntimeError("host-group dataset has been released")

    # -- model build (Section 5.2) -------------------------------------------------

    def model_counts(self) -> PackedCounts:
        """Run the co-occurrence query over the columns.

        Returns the packed columns (:class:`PackedCounts`, ids in this
        dataset's encoder) that decode into exactly the contents of the
        :class:`~repro.core.model.CooccurrenceModel` the oracle builds,
        folded by the numpy kernels
        (:func:`repro.engine.fused.fold_model_pairs_arrays`) -- no per-row
        Python loop.
        """
        self._check_usable()
        columns = self.columns
        pair_keys, pair_counts = fold_model_pairs_arrays(
            columns.member_starts, columns.ports, columns.value_starts,
            columns.value_ids, MODEL_PACK_BASE)
        ids, supports = fold_value_counts_arrays(columns.value_ids)
        return PackedCounts(self.encoder, pair_keys, pair_counts, ids, supports)

    # -- model side tables (shared by priors + prediction index) ---------------------

    def ensure_sides(self, model: Any) -> None:
        """Keep the model's score tables beside the columns, once per model.

        The folds read int64 columns: the sorted packed
        ``(predictor id, port)`` keys with their co-occurrence counts and
        each id's support.  A model built over this dataset's encoder whose
        dicts were never read gives its packed columns as they are; any
        other model is packed from its dicts.  A repeated call with the
        same model object in the same state changes nothing.  Every change
        drops the previous model's candidate table.
        """
        self._check_usable()
        packed = model.packed_counts()
        if self._sides_model is model and self._sides_packed is packed:
            return
        values = self.encoder.values()
        if packed is not None and packed.encoder is self.encoder:
            pair_keys, pair_counts = packed.pair_keys, packed.pair_counts
            supports = np.zeros(len(values), dtype=np.int64)
            supports[packed.ids] = packed.supports
        else:
            pair_keys, pair_counts, supports = _pack_model(model, values)
        self.pair_keys, self.pair_counts, self.supports = pair_keys, pair_counts, supports
        self.candidates = None
        self._sides_model = model
        self._sides_packed = packed

    def _candidate_table(self) -> dict:
        """The loaded model's candidate table, built once per model.

        Both the priors and the index fold read it
        (:func:`~repro.engine.fused.candidate_table`); :meth:`ensure_sides`
        drops it with the model it was built from.
        """
        if self.candidates is None:
            columns = self.columns
            self.candidates = candidate_table(
                columns.member_starts, columns.ports, columns.value_starts,
                columns.value_ids, self.pair_keys, self.pair_counts,
                self.supports, MODEL_PACK_BASE)
        return self.candidates

    # -- priors planning (Section 5.3) ----------------------------------------------

    def priors_coverage(self, model: Any,
                        port_domain: Optional[Sequence[int]] = None,
                        ) -> Dict[Tuple[int, int], int]:
        """Run the priors partner-selection query over the columns.

        Returns the ``(port, subnet) -> coverage`` counts the priors list is
        built from, identical to the reference planner's counts.  Only the
        port whitelist passes per call.
        """
        self._check_usable()
        self.ensure_sides(model)
        columns = self.columns
        return fold_partner_counts(self.group_keys, columns.member_starts,
                                   columns.ports, self._candidate_table(),
                                   _label_array(port_domain), MODEL_PACK_BASE)

    # -- prediction-index build (Section 5.4) ----------------------------------------

    def argmax_winners(self, model: Any,
                       port_domain: Optional[Sequence[int]] = None,
                       min_pattern_support: int = 2,
                       probability_cutoff: float = 1e-5,
                       ) -> Tuple[Any, Any, Any]:
        """Run the argmax partner-selection query over the columns.

        Returns the winners as ``(target port, predictor id, probability)``
        arrays in host order.  Ids are the dataset encoder's; only the ids
        that tie are decoded, for the last tie-break.  Only the whitelist
        and thresholds pass per call.
        """
        self._check_usable()
        self.ensure_sides(model)
        # Each target service's leading rows, grouped by ascending target
        # (host order, then port); the last ties break on decoded tuples.
        targets, pids, probs = fold_argmax_winners(
            self.columns.ports, self._candidate_table(), self.supports,
            _label_array(port_domain), min_pattern_support, probability_cutoff)
        ports = to_numpy(self.columns.ports)[targets]
        keep = keep_segment_max(targets, -self._tie_ranks(targets, pids))
        targets, ports, pids, probs = (targets[keep], ports[keep], pids[keep],
                                       probs[keep])
        # Rows still tied carry one id twice: the first one wins.
        first = segment_starts(targets)
        return ports[first], pids[first], probs[first]

    def _tie_ranks(self, targets, pids):
        """Each row's rank among the tied rows' ids in ascending
        decoded-tuple order (the argmax's last tie-break); 0 for rows whose
        target has a single row.  Only the ids that tie are decoded and
        sorted."""
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
