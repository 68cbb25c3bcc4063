"""Predicting remaining services (Section 5.4).

Once the priors scan has surfaced at least one service per responsive host,
GPS uses the features of those services to predict every remaining service:

1. Build the **most predictive feature values list** from the seed set: for
   every service ``(IP, Port_a)`` in the seed, find the predictor tuple (from
   the host's *other* services) with the maximum ``P(Port_a)``; keep it if the
   probability clears the cut-off (1e-5, roughly the hit rate of random
   probing).  The list maps predictor tuples to the ports they predict.
2. For every service discovered by the priors scan, extract its predictor
   tuples and look them up in the list; every hit emits a predicted
   ``(IP, Port_a)`` pair.
3. The predictions list is ordered by probability, descending, so that the
   most predictable services are scanned first (this ordering is what gives
   GPS its precision profile in Figure 3).

The index keeps the list as columns and a CSR over predictor ids, and
:meth:`PredictiveFeatureIndex.predict` runs step 2 as one join, returning
the ordered list as columns (:class:`Predictions`).  It takes one of two
routes, picked by the input's type.  The priors scan's
:class:`~repro.scanner.records.ObservationBatch` derives its predictor ids
family by family (:func:`~repro.core.features.derive_predictor_codes`, the
derivation the seed's feature extraction runs too) against the index's
lookup tables, expands them through the CSR and keeps each pair's first
most probable candidate with one sort.  An iterable of
:class:`~repro.scanner.records.ScanObservation` -- served lookups, bulk
predictions, known hosts, usually a handful of rows -- runs a row loop over
the same CSR through one tuple -> id dict, with network values from a
per-index memo, because the array passes carry a fixed cost per call.
:meth:`PredictiveFeatureIndex.predict_reference` is the dictionary oracle
both routes equal row for row.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.features import (
    HostFeatureColumns,
    HostFeatures,
    PredictorCodebook,
    PredictorTuple,
    derive_predictor_codes,
    network_feature_values,
    predictor_tuples,
    predictor_tuples_for_observation,
)
from repro.core.model import CooccurrenceModel
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.columns import INT64_MAX, INT64_MIN, as_numpy
from repro.engine.fused import expand_ranges, segment_starts
from repro.net.asn import AsnDatabase
from repro.scanner.records import ObservationBatch, ScanObservation

#: Prefix length prediction probes are grouped by before they reach the scan
#: pipeline's batched layers.  /16 matches the default network feature (the
#: granularity predictions naturally cluster at, since (Port, Net) patterns
#: emit one prediction per co-located host), so batches stay large without
#: reordering the probability-ordered schedule by more than a batch.
PREDICTION_BATCH_PREFIX_LEN = 16

#: Upper bound on the per-index network-feature memo that the row route of
#: :meth:`PredictiveFeatureIndex.predict` (served lookups) and
#: :meth:`~PredictiveFeatureIndex.predict_reference` read; the batch route
#: derives network values as columns and never reads it.  A served index
#: lives across many calls, so without a bound the memo would grow with
#: every distinct address ever looked up; at the bound the least-recently-used
#: entry is evicted, so hosts that keep reappearing stay memoized under
#: pressure.  A GPS run builds a fresh index, so there it starts cold.
NET_FEATURE_CACHE_MAX = 65536


@dataclass(frozen=True)
class PredictiveFeature:
    """One entry of the most-predictive-feature-values list."""

    predictor: PredictorTuple
    target_port: int
    probability: float


@dataclass(frozen=True)
class PredictedService:
    """One predicted (ip, port) target, with the pattern that produced it."""

    ip: int
    port: int
    probability: float
    predictor: PredictorTuple

    def pair(self) -> Tuple[int, int]:
        """The (ip, port) identity of the prediction."""
        return (self.ip, self.port)


class Predictions(Sequence[PredictedService]):
    """An ordered predictions list stored as columns.

    Four parallel columns -- address, port, probability and an id into a
    shared predictor table -- hold what a list of :class:`PredictedService`
    would, in the probing order (probability descending, then address, then
    port).  A :class:`PredictedService` is built only when a row is read:
    indexing, iterating or :meth:`materialize`.  Slicing returns another
    ``Predictions`` and :meth:`pairs` reads the (ip, port) targets straight
    from the columns, which is all the prediction scan needs.  The sequence
    is immutable, and equals any sequence of the same
    :class:`PredictedService` rows in the same order.
    """

    __slots__ = ("ips", "ports", "probabilities", "predictor_ids", "predictor_table")

    def __init__(self, ips: array, ports: array, probabilities: array,
                 predictor_ids: array,
                 predictor_table: Sequence[PredictorTuple]) -> None:
        self.ips = ips
        self.ports = ports
        self.probabilities = probabilities
        self.predictor_ids = predictor_ids
        self.predictor_table = predictor_table

    @classmethod
    def from_services(cls, services: Iterable[PredictedService]) -> "Predictions":
        """Columns holding ``services`` in the given order."""
        ids: Dict[PredictorTuple, int] = {}
        ips, ports, probabilities, predictor_ids = (array("q"), array("q"),
                                                    array("d"), array("q"))
        for service in services:
            ips.append(service.ip)
            ports.append(service.port)
            probabilities.append(service.probability)
            predictor_ids.append(ids.setdefault(service.predictor, len(ids)))
        return cls(ips, ports, probabilities, predictor_ids, tuple(ids))

    def __len__(self) -> int:
        return len(self.ips)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Predictions(self.ips[index], self.ports[index],
                               self.probabilities[index],
                               self.predictor_ids[index], self.predictor_table)
        return PredictedService(self.ips[index], self.ports[index],
                                self.probabilities[index],
                                self.predictor_table[self.predictor_ids[index]])

    def __iter__(self) -> Iterator[PredictedService]:
        return map(PredictedService, self.ips, self.ports, self.probabilities,
                   map(self.predictor_table.__getitem__, self.predictor_ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Predictions({len(self)} rows)"

    def pairs(self) -> List[Tuple[int, int]]:
        """The (ip, port) targets in probing order."""
        return list(zip(self.ips, self.ports))

    def materialize(self) -> List[PredictedService]:
        """Every row as a :class:`PredictedService`, in order."""
        return list(self)


#: Pairs :meth:`PredictiveFeatureIndex.predict` suppresses: a set of
#: ``(ip, port)`` pairs, or a sorted int64 array of ``ip << 16 | port`` keys.
KnownPairs = Union[Set[Tuple[int, int]], np.ndarray, None]

#: An ``(ip, port)`` pair as a numpy record, for packing known pairs.
_PAIR_DTYPE = np.dtype([("ip", np.int64), ("port", np.int64)])


class PredictiveFeatureIndex:
    """The "most predictive feature values" list, indexed for fast lookup.

    The entries live as columns -- predictor id, target port, probability,
    grouped by predictor in the order predictors first appear -- and
    construction derives a CSR over predictor ids from them: each
    predictor's targets without its own port (a service never predicts its
    own port), their probabilities and each probability's rank among the
    index's distinct values.  :class:`_IndexCodebook` holds the family
    lookup tables the batch route of :meth:`predict` joins against;
    :meth:`predict_reference` is the dictionary oracle it must equal.
    """

    def __init__(self, features: Iterable[PredictiveFeature]) -> None:
        ids: Dict[PredictorTuple, int] = {}
        pids: List[int] = []
        ports: List[int] = []
        probabilities: List[float] = []
        for feature in features:
            pids.append(ids.setdefault(feature.predictor, len(ids)))
            ports.append(feature.target_port)
            probabilities.append(feature.probability)
        self._load(tuple(ids).__getitem__, pids, ports, probabilities)

    @classmethod
    def from_columns(cls, predictor_of: Callable[[int], PredictorTuple],
                     pids, ports, probabilities) -> "PredictiveFeatureIndex":
        """The index over entry columns: ``(pids[i], ports[i],
        probabilities[i])`` is one (predictor, target port, probability)
        entry, and ``predictor_of`` decodes a predictor id.

        Equals the index built from the same entries as features, in the
        same order.  Only the distinct ids are decoded.  The engine build
        passes the argmax winners and a snapshot its saved columns.
        """
        index = cls.__new__(cls)
        index._load(predictor_of, pids, ports, probabilities)
        return index

    def _load(self, predictor_of: Callable[[int], PredictorTuple],
              pids, ports, probabilities) -> None:
        """Fold entry columns into the index -- predictors in the order they
        first appear, each one's targets in the order they first appear, a
        repeated (predictor, target) keeping its first maximum -- and derive
        the CSR; each route's lookup tables build on its first call."""
        pids = np.asarray(pids, dtype=np.int64)
        ports = np.asarray(ports, dtype=np.int64)
        probabilities = np.asarray(probabilities, dtype=np.float64)
        pair_keys = pids << 16 | ports
        # Per (predictor, target): the first most probable entry, and the
        # first entry at all (which places the pair).
        order = np.lexsort((-probabilities, pair_keys))
        starts = segment_starts(pair_keys[order])
        best = order[starts]
        first = np.minimum.reduceat(order, starts) if order.size else starts
        # Per predictor (pairs sorted by key run grouped by predictor): the
        # first entry of any of its pairs.
        pair_pids = pids[best]
        pid_starts = segment_starts(pair_pids)
        pid_first = (np.minimum.reduceat(first, pid_starts) if pid_starts.size
                     else pid_starts)
        pid_rank = np.empty_like(pid_first)
        pid_rank[np.argsort(pid_first)] = np.arange(pid_first.size)
        rank_of_pair = np.repeat(pid_rank, np.diff(np.append(pid_starts,
                                                             pair_pids.size)))
        entries = np.lexsort((first, rank_of_pair))
        distinct = pair_pids[pid_starts][np.argsort(pid_first)]
        predictors = tuple(map(predictor_of, distinct.tolist()))
        pids = rank_of_pair[entries]
        ports, probabilities = ports[best][entries], probabilities[best][entries]
        self._predictor_table = predictors
        self._pids, self._ports, self._probabilities = pids, ports, probabilities
        parts = list(map(_family_parts, predictors))
        own = np.array([part[1] if part else -1 for part in parts], dtype=np.int64)
        targeted = ports != own[pids]
        lengths = np.bincount(pids[targeted], minlength=len(predictors))
        self._offsets = np.zeros(len(predictors) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._target_ports = ports[targeted]
        self._target_probabilities = probabilities[targeted]
        distinct, inverse = np.unique(self._target_probabilities,
                                      return_inverse=True)
        # 0 for the most probable value, so ascending rank is descending
        # probability.
        self._probability_ranks = distinct.size - 1 - inverse.reshape(-1)
        self._rank_bits = _bits(distinct.size - 1)
        # (pid,) + family parts of every derivable predictor with targets:
        # what both routes' lookup tables file, each built on first use.
        self._filed = [(pid,) + parts[pid]
                       for pid in np.flatnonzero(lengths).tolist()
                       if parts[pid] is not None]
        # Each port that files one of them -> the app keys they name there
        # (empty when none): the ports and keys both routes read.
        self._keys_on: Dict[int, Set[str]] = {}
        for _, _, port, key, _, _, _ in self._filed:
            keys = self._keys_on.setdefault(port, set())
            if key is not None:
                keys.add(key)
        self._by_predictor: Optional[Dict[PredictorTuple, Dict[int, float]]] = None
        self._codebook: Optional[_IndexCodebook] = None
        self._row_route = None
        # Bounded LRU memo for network_feature_values, shared across predict
        # calls; keyed per (asn_db, feature kinds) identity so an index
        # reused against a different universe never serves stale features.
        # One index is read by many serving threads concurrently, so every
        # structural cache operation (lookup+refresh, insert+evict, rekey)
        # holds the lock: an unguarded get/move_to_end pair races with
        # another thread's eviction and dies with KeyError.
        self._net_cache: "OrderedDict[int, Tuple[Tuple[str, int], ...]]" = OrderedDict()
        self._net_cache_db: Optional[AsnDatabase] = None
        self._net_cache_kinds: Optional[Tuple[str, ...]] = None
        self._net_cache_lock = threading.Lock()

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        host_features: Mapping[int, HostFeatures],
        model: CooccurrenceModel,
        probability_cutoff: float = 1e-5,
        port_domain: Optional[Sequence[int]] = None,
        min_pattern_support: int = 2,
    ) -> "PredictiveFeatureIndex":
        """Build the index from the seed set (step 1 of the Section 5.4 algorithm).

        Every seed service that is predictable at all (it shares a host with at
        least one other service, and the best pattern clears the cut-off) is
        guaranteed to contribute the pattern most likely to find it -- the
        property the paper highlights as crucial to the algorithm.

        ``min_pattern_support`` requires the winning pattern to have been
        observed on at least that many seed hosts (default two): host-unique
        feature values reach probability 1.0 on their own host but cannot find
        services anywhere else, so preferring the best *supported* pattern is
        what lets the index generalise.  When no supported pattern exists for a
        service, the selection falls back to the unsupported ones so the
        service is still represented.
        """
        allowed: Optional[Set[int]] = set(port_domain) if port_domain is not None else None
        features: List[PredictiveFeature] = []
        for host in host_features.values():
            open_ports = host.open_ports()
            if len(open_ports) < 2:
                continue
            for port_a in open_ports:
                if allowed is not None and port_a not in allowed:
                    continue
                candidates: List[PredictorTuple] = []
                for port_b in open_ports:
                    if port_b != port_a:
                        candidates.extend(host.ports[port_b])
                predictor, probability = model.best_predictor(
                    candidates, port_a, min_support=min_pattern_support)
                if predictor is None:
                    predictor, probability = model.best_predictor(candidates, port_a)
                if predictor is None or probability < probability_cutoff:
                    continue
                features.append(PredictiveFeature(predictor=predictor,
                                                  target_port=port_a,
                                                  probability=probability))
        return cls(features)

    # -- queries -----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pids)

    def entry_columns(self) -> Tuple[Tuple[PredictorTuple, ...], np.ndarray,
                                     np.ndarray, np.ndarray]:
        """The predictor table and the ``(pid, target port, probability)``
        entry columns, grouped by predictor in table order: the input of
        :meth:`from_columns`."""
        return self._predictor_table, self._pids, self._ports, self._probabilities

    def _targets(self) -> Dict[PredictorTuple, Dict[int, float]]:
        """``predictor -> {target port: probability}``, decoded on first use."""
        by_predictor = self._by_predictor
        if by_predictor is None:
            by_predictor = {}
            table = self._predictor_table
            for pid, port, probability in zip(self._pids.tolist(),
                                              self._ports.tolist(),
                                              self._probabilities.tolist()):
                by_predictor.setdefault(table[pid], {})[port] = probability
            self._by_predictor = by_predictor
        return by_predictor

    def predictors(self) -> List[PredictorTuple]:
        """All predictor tuples present in the index."""
        return list(self._predictor_table)

    def targets_for(self, predictor: PredictorTuple) -> Dict[int, float]:
        """Ports predicted by one predictor tuple (with probabilities)."""
        return dict(self._targets().get(predictor, {}))

    def entries(self) -> List[PredictiveFeature]:
        """All (predictor, target port, probability) entries, most probable first."""
        out = [
            PredictiveFeature(predictor=predictor, target_port=port, probability=prob)
            for predictor, targets in self._targets().items()
            for port, prob in targets.items()
        ]
        out.sort(key=lambda f: (-f.probability, f.target_port))
        return out

    # -- prediction (steps 2-3) ----------------------------------------------------------

    def _net_values_of(self, asn_db: Optional[AsnDatabase],
                       kinds: Tuple[str, ...],
                       ) -> Callable[[int], Tuple[Tuple[str, int], ...]]:
        """An address -> network feature values reader over the index's memo.

        Network-layer features depend only on the address, and hosts with
        several discovered services appear once per service; memoize per IP
        so the ASN lookup and subnet derivations run once per host.  The
        memo lives on the index and serves the row route (served lookups
        against one long-lived index); a GPS run's fresh index starts it
        cold, and the batch route derives network values as arrays instead.
        It is bounded (NET_FEATURE_CACHE_MAX, LRU eviction: a hit refreshes
        the entry, the stalest entry goes first) so a long-lived served
        index cannot grow it without limit while hot hosts stay memoized,
        and it is keyed per (asn_db, kinds) so reuse against
        another universe resets it (the rekey check takes the lock, so a
        concurrent predict against a different universe cannot resurrect
        the stale dict).  The serving layer calls predict from many threads
        against one shared index, so the lookup+refresh and evict+insert
        pairs each run atomically under the cache lock; the feature
        derivation itself runs outside it (a concurrent duplicate derivation
        wastes a little work but last-write-wins on identical values, so
        nothing is lost or duplicated).  Values are cached as tuples, which
        the cyclic collector stops tracking.
        """
        lock = self._net_cache_lock
        with lock:
            if self._net_cache_db is not asn_db or self._net_cache_kinds != kinds:
                self._net_cache = OrderedDict()
                self._net_cache_db = asn_db
                self._net_cache_kinds = kinds
            cache = self._net_cache
        limit = NET_FEATURE_CACHE_MAX

        def net_values_of(ip: int) -> Tuple[Tuple[str, int], ...]:
            with lock:
                net_values = cache.get(ip)
                if net_values is not None:
                    cache.move_to_end(ip)
                    return net_values
            net_values = tuple(network_feature_values(ip, asn_db, kinds))
            with lock:
                while len(cache) >= limit:
                    cache.popitem(last=False)
                cache[ip] = net_values
            return net_values

        return net_values_of

    def predict(
        self,
        observations: Union[ObservationBatch, Iterable[ScanObservation]],
        asn_db: Optional[AsnDatabase],
        feature_config: FeatureConfig,
        known_pairs: KnownPairs = None,
    ) -> Predictions:
        """Predict remaining services from discovered-service observations.

        Args:
            observations: services discovered so far (typically the priors
                scan results; the seed services' patterns are already encoded
                in the index itself), as an
                :class:`~repro.scanner.records.ObservationBatch` or any
                iterable of :class:`~repro.scanner.records.ScanObservation`.
            asn_db: ASN database for network feature extraction.
            feature_config: which predictor tuples to derive per observation.
            known_pairs: (ip, port) pairs already discovered; predictions for
                them are suppressed so bandwidth is not spent re-probing.
                Either a set of pairs or a sorted int64 array of their
                ``ip << 16 | port`` keys, which is what GPS passes: its
                known pairs are the seed's and priors batches' columns.

        Returns:
            Deduplicated predictions ordered by probability (descending), the
            order in which GPS probes them: equal to
            :meth:`predict_reference` row for row.

        Both routes read the CSR: each row's predictor ids, in derivation
        order (P -> PA -> PN -> PAN), expand into their targets, and per
        target pair the first most probable candidate is kept, so an
        equal-probability tie keeps the predictor the reference keeps.  The
        input's type picks how the ids are found: a batch (GPS's priors
        scan) joins its columns against the index's family tables in numpy
        array passes (:meth:`_predict_batch`), and row objects (served
        lookups, bulk predictions, known hosts) derive each row's tuples and
        look them up in one tuple -> id dict (:meth:`_predict_rows`), whose
        cost stays proportional to the handful of rows a lookup carries.
        """
        if isinstance(observations, ObservationBatch):
            return self._predict_batch(observations, asn_db, feature_config,
                                       known_pairs)
        return self._predict_rows(observations, asn_db, feature_config,
                                  known_pairs)

    def _row_tables(self):
        """The row route's lookups, built on its first call: ``predictor ->
        (id, its CSR run as (target port, probability) pairs)`` over the
        derivable predictors with targets, and the ports filing network
        predictors."""
        tables = self._row_route
        if tables is None:
            table = self._predictor_table
            offsets = self._offsets.tolist()
            pairs = list(zip(self._target_ports.tolist(),
                             self._target_probabilities.tolist()))
            tables = self._row_route = (
                {table[pid]: (pid, tuple(pairs[offsets[pid]:offsets[pid + 1]]))
                 for pid, *_ in self._filed},
                frozenset(filed[2] for filed in self._filed
                          if filed[5] is not None))
        return tables

    def _tables(self) -> "_IndexCodebook":
        """The batch route's family lookup tables, built on its first call."""
        codebook = self._codebook
        if codebook is None:
            codebook = self._codebook = _IndexCodebook(self._filed,
                                                       self._keys_on)
        return codebook

    def _predict_rows(self, observations: Iterable[ScanObservation],
                      asn_db: Optional[AsnDatabase], feature_config: FeatureConfig,
                      known_pairs: KnownPairs) -> Predictions:
        """:meth:`predict` over row objects: one tuple derivation per row.

        A row on a port without targets is skipped before anything is
        derived; the rest read their network values through the index's
        memo and derive their tuples as the reference does, but only from
        the app keys their port files, and with network values only on
        ports that file network predictors.  The candidates fold into flat
        columns keyed by ``ip << 16 | port`` (ports are 16-bit) and sort
        once.
        """
        targets_of, net_ports = self._row_tables()
        keys_on = self._keys_on
        app_keys = (feature_config.app_feature_keys
                    if feature_config.include_app
                    or feature_config.include_app_network else ())
        keys_by_port: Dict[int, List[str]] = {}
        net_values_of = self._net_values_of(
            asn_db, feature_config.network_feature_kinds)
        if isinstance(known_pairs, np.ndarray):
            known = set(known_pairs.tolist())
        else:
            known = {ip << 16 | port for ip, port in known_pairs or ()}
        slots: Dict[int, int] = {}  # ip << 16 | port -> row, or -1 when known
        keys: List[int] = []
        probabilities: List[float] = []
        predictor_ids: List[int] = []
        for observation in observations:
            ip, port = observation.ip, observation.port
            if port not in keys_on:
                continue
            filed = keys_by_port.get(port)
            if filed is None:
                on_port = keys_on[port]
                filed = keys_by_port[port] = [key for key in app_keys
                                              if key in on_port]
            get = observation.app_features.get
            # Keys the port files no entry with derive nothing that matches.
            app_items = [(key, value) for key in filed if (value := get(key))]
            ip_key = ip << 16
            net_values = net_values_of(ip)
            if port not in net_ports:
                net_values = ()
            for predictor in predictor_tuples(port, app_items, net_values,
                                              feature_config):
                matched = targets_of.get(predictor)
                if matched is None:
                    continue
                pid, targets = matched
                for target_port, probability in targets:
                    key = ip_key | target_port
                    slot = slots.get(key)
                    if slot is None:
                        if key in known:
                            slots[key] = -1
                            continue
                        slots[key] = len(keys)
                        keys.append(key)
                        probabilities.append(probability)
                        predictor_ids.append(pid)
                    elif slot >= 0 and probability > probabilities[slot]:
                        probabilities[slot] = probability
                        predictor_ids[slot] = pid
        # Probability descending, then (ip, port) ascending: one sort by the
        # packed pair key, then a stable sort by negated probability.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        negated = [-probability for probability in probabilities]
        order.sort(key=negated.__getitem__)
        return Predictions(array("q", [keys[i] >> 16 for i in order]),
                           array("q", [keys[i] & 0xFFFF for i in order]),
                           array("d", [probabilities[i] for i in order]),
                           array("q", [predictor_ids[i] for i in order]),
                           self._predictor_table)

    def _predict_batch(self, batch: ObservationBatch,
                       asn_db: Optional[AsnDatabase], feature_config: FeatureConfig,
                       known_pairs: KnownPairs) -> Predictions:
        """:meth:`predict` over a batch's columns, as one join.

        1. The rows on ports with targets derive their predictor ids, in
           (row, derivation rank) order, through the family-wise
           derivation (:func:`~repro.core.features.derive_predictor_codes`)
           against the index's tables: each distinct (banner, port) pair's
           app values are read once, and network values come as arrays,
           one entry per row (deduplicating the addresses first costs more
           than the repeated ASN searches it saves).
        2. Each id expands into its CSR targets, in that order.  One stable
           sort by (``ip << 16 | port`` pair key, probability rank) -- a
           single sort of packed int64 keys when they fit -- puts per pair
           the first most probable candidate first, the reference's strict
           ``>``, and known pairs drop through a ``searchsorted`` test
           against their sorted packed keys (packed here only when they
           come as a set).  A second sort by (probability rank, pair key)
           gives the probing order.
        """
        ips = as_numpy(batch.ips)
        ports = as_numpy(batch.ports)
        codebook = self._tables()
        rows = np.flatnonzero(codebook.filed_ports[ports])
        row_ips = ips[rows]
        entry_rows, pids = derive_predictor_codes(
            batch, ports[rows], as_numpy(batch.banner_ids)[rows], row_ips, None,
            asn_db, feature_config, codebook)

        # Expand every entry's targets, in entry order.
        offsets = self._offsets
        counts = offsets[pids + 1] - offsets[pids]
        candidates = expand_ranges(offsets[pids], counts)
        pair_keys = (np.repeat(row_ips[entry_rows] << 16, counts)
                     | self._target_ports[candidates])
        ranks = self._probability_ranks[candidates]

        # The first most probable candidate per pair, unless it is known.
        # Pair keys as offsets from the smallest: fewer bits to pack.
        relative = pair_keys - (pair_keys.min() if pair_keys.size else 0)
        span = _bits(relative.max() if relative.size else 0)
        order = _order(relative, span, ranks, self._rank_bits)
        sorted_keys = pair_keys[order]
        first = np.ones(order.size, dtype=bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        kept = order[first]
        kept_keys = pair_keys[kept]
        if isinstance(known_pairs, np.ndarray):
            known = known_pairs
        else:
            pairs = np.fromiter(known_pairs or (), dtype=_PAIR_DTYPE)
            known = np.sort(pairs["ip"] << 16 | pairs["port"])
        if len(known):
            at = np.searchsorted(known, kept_keys).clip(max=len(known) - 1)
            unknown = known[at] != kept_keys
            kept, kept_keys = kept[unknown], kept_keys[unknown]

        final = kept[_order(ranks[kept], self._rank_bits, relative[kept], span)]
        final_keys = pair_keys[final]
        return Predictions(_array("q", final_keys >> 16),
                           _array("q", final_keys & 0xFFFF),
                           _array("d", self._target_probabilities[candidates[final]]),
                           _array("q", np.repeat(pids, counts)[final]),
                           self._predictor_table)

    def predict_reference(
        self,
        observations: Iterable[ScanObservation],
        asn_db: Optional[AsnDatabase],
        feature_config: FeatureConfig,
        known_pairs: Optional[Set[Tuple[int, int]]] = None,
    ) -> List[PredictedService]:
        """The dictionary oracle :meth:`predict` must equal, row for row.

        Derives every predictor tuple of every observation, looks each up in
        the index and keeps the most probable prediction per (ip, port) --
        the first one seen on ties.  It serves GPS's reference path
        (``use_engine=False``), Table 2's single-core row and the tests.
        Arguments and ordering as :meth:`predict`.
        """
        known = known_pairs or set()
        best: Dict[Tuple[int, int], PredictedService] = {}
        by_predictor = self._targets()
        net_values_of = self._net_values_of(
            asn_db, feature_config.network_feature_kinds)
        for observation in observations:
            net_values = net_values_of(observation.ip)
            predictors = predictor_tuples_for_observation(observation, net_values,
                                                          feature_config)
            for predictor in predictors:
                targets = by_predictor.get(predictor)
                if not targets:
                    continue
                for target_port, probability in targets.items():
                    pair = (observation.ip, target_port)
                    if target_port == observation.port or pair in known:
                        continue
                    current = best.get(pair)
                    if current is None or probability > current.probability:
                        best[pair] = PredictedService(ip=observation.ip,
                                                      port=target_port,
                                                      probability=probability,
                                                      predictor=predictor)
        predictions = list(best.values())
        predictions.sort(key=lambda p: (-p.probability, p.ip, p.port))
        return predictions


def _array(typecode: str, values: np.ndarray) -> array:
    """An ``array`` column holding an ndarray's values (one copy)."""
    column = array(typecode)
    column.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))
    return column


def _bits(value) -> int:
    """The bits a non-negative value takes (at least one)."""
    return max(int(value).bit_length(), 1)


def _order(major: np.ndarray, major_bits: int, minor: np.ndarray,
           minor_bits: int) -> np.ndarray:
    """Row positions stably sorted by ``(major, minor)``, non-negative
    values below ``2**major_bits`` and ``2**minor_bits``.

    When the two values and the row's position fit in 63 bits together,
    one ``np.sort`` of them packed does it (the position breaks ties and
    reads back out); otherwise a two-key ``lexsort``.
    """
    position_bits = (major.size - 1).bit_length() if major.size else 0
    if major_bits + minor_bits + position_bits <= 63:
        packed = np.sort((major << minor_bits | minor) << position_bits
                         | np.arange(major.size))
        return packed & ((1 << position_bits) - 1)
    return np.lexsort((minor, major))


def _family_parts(predictor: PredictorTuple):
    """``(family, port, app key, app value, network kind, network value)``
    of a predictor tuple an observation can derive, else ``None``.

    A tuple of another shape, a port outside 16 bits, a falsy app value or
    a non-integer network value is never derived (the reference predict
    agrees by construction), so it has no place in the family tables.
    """
    family = predictor[0] if predictor else None
    if _FAMILY_LENGTHS.get(family) != len(predictor):
        return None
    port = predictor[1]
    if not isinstance(port, int) or not 0 <= port <= 0xFFFF:
        return None
    key = value = kind = net = None
    if family == "PA":
        key, value = predictor[2:]
    elif family == "PN":
        kind, net = predictor[2:]
    elif family == "PAN":
        key, value, kind, net = predictor[2:]
    if (key is not None and not value) or (
            kind is not None and not (isinstance(net, int)
                                      and INT64_MIN <= net <= INT64_MAX)):
        return None
    return family, port, key, value, kind, net


_FAMILY_LENGTHS = {"P": 2, "PA": 4, "PN": 4, "PAN": 6}


def _join(keys: np.ndarray, ids: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The id of each probe in the sorted ``keys``, -1 where it is missing."""
    if not keys.size:
        return np.full(probes.size, -1, dtype=np.int64)
    at = np.searchsorted(keys, probes).clip(max=keys.size - 1)
    return np.where(keys[at] == probes, ids[at], -1)


def _scatter(size: int, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """An id per slot from ``(slot, id)`` pairs, -1 for the slots without one."""
    out = np.full(size, -1, dtype=np.int64)
    if pairs:
        slots, ids = zip(*pairs)
        out[list(slots)] = ids
    return out


def _sorted_table(keys: Sequence[int], ids: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, ids)`` as arrays sorted by key, for :func:`_join`."""
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys)
    return keys[order], np.array(ids, dtype=np.int64)[order]


class _IndexCodebook(PredictorCodebook):
    """An index's family lookup tables: predictor parts -> predictor ids.

    The :class:`~repro.core.features.PredictorCodebook` the batch route
    derives against.  It files the predictors that have targets, coding
    their parts as the derivation does -- app keys, app values and
    (network kind, value) pairs numbered here, items packed with the port
    -- and answers each family with a join on sorted keys (-1 where the
    index holds no such predictor).  App keys are read only on the ports
    that file them.
    """

    def __init__(self, filed: Sequence[tuple],
                 keys_on: Mapping[int, Collection[str]]) -> None:
        """``filed`` holds ``(pid,) + _family_parts(predictor)`` of each
        predictor with targets, and ``keys_on`` each port filing one -> the
        app keys its predictors name."""
        self._keys_on = keys_on
        self.key_code: Dict[str, int] = {}
        self.values: Dict[object, int] = {}
        net_code: Dict[Tuple[str, int], int] = {}
        for _, _, _, key, value, kind, net in filed:
            if key is not None:
                self.key_code.setdefault(key, len(self.key_code))
                self.values.setdefault(value, len(self.values))
            if kind is not None:
                net_code.setdefault((kind, net), len(net_code))
        self.key_count = len(self.key_code)
        self.kinds = tuple(dict.fromkeys(kind for kind, _ in net_code))
        self._net_values = {kind: _sorted_table(
            [net for of, net in net_code if of == kind],
            [code for (of, _), code in net_code.items() if of == kind])
            for kind in self.kinds}
        transport: Dict[int, int] = {}
        app_items: Dict[int, int] = {}
        net_items: Dict[int, int] = {}
        pa: List[Tuple[int, int]] = []
        pn: List[Tuple[int, int]] = []
        pan: List[Tuple[int, int, int]] = []
        for pid, family, port, key, value, kind, net in filed:
            if key is not None:
                app_item = app_items.setdefault(self.app_item_keys(
                    self.values[value], self.key_code[key], port), len(app_items))
            if kind is not None:
                net_item = net_items.setdefault(net_code[kind, net] << 16 | port,
                                                len(net_items))
            if family == "P":
                transport[port] = pid
            elif family == "PA":
                pa.append((app_item, pid))
            elif family == "PN":
                pn.append((net_item, pid))
            else:
                pan.append((app_item, net_item, pid))
        # Port-indexed tables: which ports file a predictor, and each
        # port's P predictor.
        self.filed_ports = np.zeros(1 << 16, dtype=bool)
        self.filed_ports[list(keys_on)] = True
        self._transport = _scatter(1 << 16, list(transport.items()))
        self._app_items = _sorted_table(list(app_items), list(app_items.values()))
        self._net_items = _sorted_table(list(net_items), list(net_items.values()))
        self.net_item_count = len(net_items)
        self._app = _scatter(len(app_items), pa)
        self._network = _scatter(len(net_items), pn)
        self._crossed = np.zeros(len(app_items), dtype=bool)
        self._crossed[[item for item, _, _ in pan]] = True
        self._app_network = _sorted_table(
            [item * self.net_item_count + net_item for item, net_item, _ in pan],
            [pid for _, _, pid in pan])

    def keys_on(self, port: int) -> Collection[str]:
        return self._keys_on[port]

    def value_codes(self, values: Iterable) -> Iterator[int]:
        return map(self.values.get, values, repeat(-1))

    def net_codes(self, kind: str, values: np.ndarray,
                  present: np.ndarray) -> np.ndarray:
        return np.where(present, _join(*self._net_values[kind], values), -1)

    def transport(self, ports: np.ndarray) -> np.ndarray:
        return self._transport[ports]

    def app_items(self, keys: np.ndarray) -> np.ndarray:
        return _join(*self._app_items, keys)

    def app(self, items: np.ndarray) -> np.ndarray:
        return self._app[items]

    def crossed(self, items: np.ndarray) -> np.ndarray:
        return self._crossed[items]

    def network_items(self, keys: np.ndarray) -> np.ndarray:
        return _join(*self._net_items, keys)

    def network(self, items: np.ndarray) -> np.ndarray:
        return self._network[items]

    def app_network(self, app_items: np.ndarray, net_items: np.ndarray) -> np.ndarray:
        return _join(*self._app_network,
                     app_items * self.net_item_count + net_items)


# -- engine-backed index construction ----------------------------------------------------


def build_prediction_index_with_engine(
    host_features: HostFeatureColumns,
    model: CooccurrenceModel,
    probability_cutoff: float = 1e-5,
    port_domain: Optional[Sequence[int]] = None,
    min_pattern_support: int = 2,
    *,
    dataset: ResidentHostGroups,
) -> PredictiveFeatureIndex:
    """The Section 5.4 index build on the engine runtime (the Table 2 story).

    Produces a :class:`PredictiveFeatureIndex` identical to
    :meth:`PredictiveFeatureIndex.from_seed` (the oracle; the test suite
    asserts entry-for-entry equality, tie cases included), but executes as
    staged numpy segment reductions over dictionary-encoded columns
    (:func:`repro.engine.fused.fold_argmax_winners`) against ``dataset`` --
    ``host_features``' columns, resident in the runtime: the
    model's packed counts load once per model, only the whitelist and
    thresholds pass per call, and the rows come back in host order, where
    the last ties break on the decoded predictor tuples.

    Args:
        host_features: the seed's encoded host features.
        model: the co-occurrence model built from the same seed set.
        probability_cutoff: minimum probability for an index entry.
        port_domain: optional target-port whitelist.
        min_pattern_support: preferred-tier support floor (see ``from_seed``).
        dataset: the resident dataset loaded from ``host_features``.
    """
    ports, pids, probabilities = dataset.argmax_winners(
        model, port_domain=port_domain, min_pattern_support=min_pattern_support,
        probability_cutoff=probability_cutoff)
    return PredictiveFeatureIndex.from_columns(dataset.encoder.decode, pids, ports,
                                               probabilities)
