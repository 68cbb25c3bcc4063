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

:meth:`PredictiveFeatureIndex.predict` runs step 2 on per-port match tables
compiled once from the list and returns the ordered list as columns
(:class:`Predictions`).  It takes one of two routes, picked by the input's
type.  The priors scan's :class:`~repro.scanner.records.ObservationBatch`
folds in numpy array passes over its columns: one match per distinct
(banner, port, network values) key, then one expansion, deduplication and
sort over every candidate.  An iterable of
:class:`~repro.scanner.records.ScanObservation` -- served lookups, bulk
predictions, known hosts, usually a handful of rows -- runs a row loop,
whose network values come from a per-index memo, because the array passes
carry a fixed cost per call.  :meth:`PredictiveFeatureIndex.predict_reference`
is the dictionary oracle both routes equal row for row.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
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
    PredictorTuple,
    network_feature_values,
    predictor_tuples_for_observation,
)
from repro.core.model import CooccurrenceModel
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.columns import as_numpy
from repro.net.asn import AsnDatabase
from repro.net.ipv4 import prefix_mask
from repro.scanner.records import ObservationBatch, ScanObservation

#: Prefix length prediction probes are grouped by before they reach the scan
#: pipeline's batched layers.  /16 matches the default network feature (the
#: granularity predictions naturally cluster at, since (Port, Net) patterns
#: emit one prediction per co-located host), so batches stay large without
#: reordering the probability-ordered schedule by more than a batch.
PREDICTION_BATCH_PREFIX_LEN = 16

#: Upper bound on the per-index network-feature memo that the row route of
#: :meth:`PredictiveFeatureIndex.predict` (served lookups) and
#: :meth:`~PredictiveFeatureIndex.predict_reference` read.  A served index
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


#: One predictor's targets as compiled for :meth:`PredictiveFeatureIndex.predict`:
#: ``(target port, probability, predictor id)`` triples in index order.
_Targets = Tuple[Tuple[int, float, int], ...]

#: One :data:`_Targets` triple as a numpy record, for the batch route's expansion.
_TARGET_DTYPE = np.dtype([("port", np.int64), ("probability", np.float64),
                          ("predictor", np.int64)])

#: An ``(ip, port)`` pair as a numpy record, for packing known pairs.
_PAIR_DTYPE = np.dtype([("ip", np.int64), ("port", np.int64)])

#: Pairs :meth:`PredictiveFeatureIndex.predict` suppresses: a set of
#: ``(ip, port)`` pairs, or a sorted int64 array of ``ip << 16 | port`` keys.
KnownPairs = Union[Set[Tuple[int, int]], np.ndarray, None]


class _PortMatcher:
    """The index entries whose predictor sits on one port, keyed by value.

    A service on this port derives exactly the predictor tuples the
    Section 5.2 families allow; the matcher answers, for each family, which
    of them the index holds without building the tuples: ``transport`` is
    ``("P", port)``'s targets, ``app`` maps an app key then its value to a
    ``("PA", ...)`` entry, ``network`` maps a ``(kind, value)`` network
    feature to a ``("PN", ...)`` entry, and ``app_network`` maps an app key
    then its value to the ``(kind, value)`` table of the ``("PAN", ...)``
    entries.  Targets on the port itself are dropped when compiling: a
    service never predicts its own port.
    """

    __slots__ = ("transport", "app", "network", "app_network", "_app_keys")

    def __init__(self) -> None:
        self.transport: _Targets = ()
        self.app: Dict[str, Dict[str, _Targets]] = {}
        self.network: Dict[Tuple[str, int], _Targets] = {}
        self.app_network: Dict[str, Dict[str, Dict[Tuple[str, int], _Targets]]] = {}
        # (a config's app keys, the ones this matcher files, in that order)
        self._app_keys: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

    def add(self, predictor: PredictorTuple, targets: _Targets) -> None:
        """File one predictor's targets under its family and values."""
        family = predictor[0]
        if family == "P" and len(predictor) == 2:
            self.transport = targets
        elif family == "PA" and len(predictor) == 4:
            self.app.setdefault(predictor[2], {})[predictor[3]] = targets
        elif family == "PN" and len(predictor) == 4:
            self.network[predictor[2:4]] = targets
        elif family == "PAN" and len(predictor) == 6:
            by_value = self.app_network.setdefault(predictor[2], {})
            by_value.setdefault(predictor[3], {})[predictor[4:6]] = targets
        # Any other shape is never derived from an observation, so it never
        # matches (the reference predict agrees by construction).
        self._app_keys = ((), ())

    def app_keys(self, config_keys: Tuple[str, ...]) -> Tuple[str, ...]:
        """The keys of ``config_keys`` this matcher files, in config order.

        Compiled once per config: the last config's keys are kept, and a
        call with the same tuple reuses them.
        """
        compiled = self._app_keys
        if compiled[0] is not config_keys:
            filed = self.app.keys() | self.app_network.keys()
            compiled = self._app_keys = (
                config_keys, tuple(key for key in config_keys if key in filed))
        return compiled[1]

    def match(self, features: Mapping[str, str],
              net_values: Sequence[Tuple[str, int]],
              config: FeatureConfig) -> _Targets:
        """One service's best ``(target port, probability, predictor id)`` per target.

        Visits the predictors the service derives that the index holds, in
        the reference order -- P, then PA (app keys in ``config`` order),
        then PN (network kinds in order), then PAN (app-major) -- and keeps
        per target port the first of the most probable: exactly the
        candidate the reference's strict ``>`` keeps from this service, so
        folding these instead of every candidate changes no tie.
        """
        matched: List[_Targets] = []
        if config.include_transport_only and self.transport:
            matched.append(self.transport)
        crossed_nets: List[Dict[Tuple[str, int], _Targets]] = []
        app = self.app if config.include_app else {}
        crossed = self.app_network if config.include_app_network else {}
        if app or crossed:
            get = features.get
            for key in self.app_keys(config.app_feature_keys):
                by_value = app.get(key)
                crossed_by_value = crossed.get(key)
                if by_value is None and crossed_by_value is None:
                    continue
                value = get(key)
                if not value:
                    continue
                if by_value is not None:
                    targets = by_value.get(value)
                    if targets:
                        matched.append(targets)
                if crossed_by_value is not None:
                    nets = crossed_by_value.get(value)
                    if nets:
                        crossed_nets.append(nets)
        if config.include_network and self.network:
            for net_value in net_values:
                targets = self.network.get(net_value)
                if targets:
                    matched.append(targets)
        for nets in crossed_nets:
            for net_value in net_values:
                targets = nets.get(net_value)
                if targets:
                    matched.append(targets)
        if len(matched) == 1:
            return matched[0]
        best: Dict[int, Tuple[int, float, int]] = {}
        for targets in matched:
            for candidate in targets:
                current = best.get(candidate[0])
                if current is None or candidate[1] > current[1]:
                    best[candidate[0]] = candidate
        return tuple(best.values())


class PredictiveFeatureIndex:
    """The "most predictive feature values" list, indexed for fast lookup.

    Construction also compiles the list into one :class:`_PortMatcher` per
    predictor port, which :meth:`predict` matches services against;
    :meth:`predict_reference` is the dictionary oracle it must equal.
    """

    def __init__(self, features: Iterable[PredictiveFeature]) -> None:
        self._by_predictor: Dict[PredictorTuple, Dict[int, float]] = {}
        for feature in features:
            targets = self._by_predictor.setdefault(feature.predictor, {})
            existing = targets.get(feature.target_port)
            if existing is None or feature.probability > existing:
                targets[feature.target_port] = feature.probability
        self._entry_count = sum(len(t) for t in self._by_predictor.values())
        self._predictor_table: Tuple[PredictorTuple, ...] = tuple(self._by_predictor)
        self._matchers: Dict[int, _PortMatcher] = {}
        for predictor_id, (predictor, targets) in enumerate(self._by_predictor.items()):
            if len(predictor) < 2:
                continue
            port = predictor[1]
            compiled = tuple([(target, probability, predictor_id)
                              for target, probability in targets.items()
                              if target != port])
            if compiled:
                matcher = self._matchers.get(port)
                if matcher is None:
                    matcher = self._matchers[port] = _PortMatcher()
                matcher.add(predictor, compiled)
        self._matcher_ports = np.array(sorted(self._matchers), dtype=np.int64)
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
        return self._entry_count

    def predictors(self) -> List[PredictorTuple]:
        """All predictor tuples present in the index."""
        return list(self._by_predictor)

    def targets_for(self, predictor: PredictorTuple) -> Dict[int, float]:
        """Ports predicted by one predictor tuple (with probabilities)."""
        return dict(self._by_predictor.get(predictor, {}))

    def entries(self) -> List[PredictiveFeature]:
        """All (predictor, target port, probability) entries, most probable first."""
        out = [
            PredictiveFeature(predictor=predictor, target_port=port, probability=prob)
            for predictor, targets in self._by_predictor.items()
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

        Each service is matched against its port's compiled
        :class:`_PortMatcher` (a port without one is skipped before any
        feature is derived), which visits the matching predictors in the
        reference order P -> PA -> PN -> PAN, so an equal-probability tie
        keeps the predictor the reference keeps.  The input's type picks the
        route: a batch (GPS's priors scan) folds in numpy array passes
        (:meth:`_predict_batch`), and row objects (served lookups, bulk
        predictions, known hosts) in a row loop (:meth:`_predict_rows`),
        whose cost stays proportional to the handful of rows a lookup
        carries.
        """
        if isinstance(observations, ObservationBatch):
            return self._predict_batch(observations, asn_db, feature_config,
                                       known_pairs)
        return self._predict_rows(observations, asn_db, feature_config,
                                  known_pairs)

    def _predict_rows(self, observations: Iterable[ScanObservation],
                      asn_db: Optional[AsnDatabase], feature_config: FeatureConfig,
                      known_pairs: KnownPairs) -> Predictions:
        """:meth:`predict` over row objects: one match per row.

        Each address derives its network values through the index's memo;
        the candidates fold into flat columns keyed by ``ip << 16 | port``
        (ports are 16-bit) and sort once.
        """
        matchers = self._matchers
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
            matcher = matchers.get(port)
            if matcher is None:
                continue
            targets = matcher.match(observation.app_features, net_values_of(ip),
                                    feature_config)
            ip_key = ip << 16
            for target_port, probability, predictor_id in targets:
                key = ip_key | target_port
                slot = slots.get(key)
                if slot is None:
                    if key in known:
                        slots[key] = -1
                        continue
                    slots[key] = len(keys)
                    keys.append(key)
                    probabilities.append(probability)
                    predictor_ids.append(predictor_id)
                elif slot >= 0 and probability > probabilities[slot]:
                    probabilities[slot] = probability
                    predictor_ids[slot] = predictor_id
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
        """:meth:`predict` over a batch's columns, in numpy array passes.

        1. Every distinct address of a row with a matcher gets a
           network-values id: subnet keys come from arithmetic, the ASN from
           :meth:`~repro.net.asn.AsnDatabase.asn_of_many`.
        2. ``match`` runs once per distinct (banner id, port, network-values
           id) key.  Each id is the inverse of an ``np.unique`` over the
           previous id times the next column's width, so no id assumes a
           bit width.
        3. The keys' targets expand in row order (``np.repeat``); a stable
           ``lexsort`` on (pair key, -probability) keeps per
           ``ip << 16 | port`` the first most probable candidate -- the
           reference's strict ``>`` -- and known pairs drop through a
           ``searchsorted`` test against their sorted packed keys (packed
           here only when they come as a set).  A second ``lexsort`` on
           (-probability, pair key) gives the probing order.
        """
        ips = as_numpy(batch.ips)
        ports = as_numpy(batch.ports)
        rows = np.flatnonzero(np.isin(ports, self._matcher_ports))
        row_ips, row_ports = ips[rows], ports[rows]
        row_banners = as_numpy(batch.banner_ids)[rows]

        hosts, host_of_row = np.unique(row_ips, return_inverse=True)
        net_columns = _network_columns(hosts, asn_db,
                                       feature_config.network_feature_kinds)
        net_of_host, net_first = _dense_ids([values for _, values in net_columns],
                                            len(hosts))
        net_table = _network_values_table(net_columns, net_first)
        net_of_row = net_of_host[host_of_row]

        key_of_row, key_first = _dense_ids([row_banners, row_ports, net_of_row],
                                           len(rows))
        interned, local_banners = batch.banners.features, batch.local_banners
        matchers = self._matchers
        matched: List[_Targets] = []
        for banner, port, net in zip(row_banners[key_first].tolist(),
                                     row_ports[key_first].tolist(),
                                     net_of_row[key_first].tolist()):
            features = (interned(banner) if banner >= 0
                        else local_banners[-banner - 1])
            matched.append(matchers[port].match(features, net_table[net],
                                                feature_config))

        # Expand every row's targets, in row order.
        lengths = np.fromiter(map(len, matched), dtype=np.int64, count=len(matched))
        flat = np.fromiter(chain.from_iterable(matched), dtype=_TARGET_DTYPE,
                           count=int(lengths.sum()))
        counts = lengths[key_of_row]
        row_starts = np.cumsum(counts) - counts
        key_starts = np.cumsum(lengths) - lengths
        candidates = (np.arange(int(counts.sum()))
                      + np.repeat(key_starts[key_of_row] - row_starts, counts))
        pair_keys = (np.repeat(row_ips, counts) << 16) | flat["port"][candidates]
        probabilities = flat["probability"][candidates]

        # The first most probable candidate per pair, unless it is known.
        order = np.lexsort((-probabilities, pair_keys))
        sorted_keys = pair_keys[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
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

        final = kept[np.lexsort((kept_keys, -probabilities[kept]))]
        final_keys = pair_keys[final]
        return Predictions(array("q", (final_keys >> 16).tobytes()),
                           array("q", (final_keys & 0xFFFF).tobytes()),
                           array("d", probabilities[final].tobytes()),
                           array("q", flat["predictor"][candidates[final]].tobytes()),
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
        net_values_of = self._net_values_of(
            asn_db, feature_config.network_feature_kinds)
        for observation in observations:
            net_values = net_values_of(observation.ip)
            predictors = predictor_tuples_for_observation(observation, net_values,
                                                          feature_config)
            for predictor in predictors:
                targets = self._by_predictor.get(predictor)
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


def _network_columns(hosts: np.ndarray, asn_db: Optional[AsnDatabase],
                     kinds: Sequence[str]) -> List[Tuple[str, np.ndarray]]:
    """Each network feature kind's value per address, as ``(kind, values)``.

    The array twin of :func:`~repro.core.features.network_feature_values`:
    subnet keys by arithmetic, ASNs through
    :meth:`~repro.net.asn.AsnDatabase.asn_of_many` (0 where unannounced,
    which :func:`_network_values_table` skips) and no ASN column without a
    database.
    """
    columns: List[Tuple[str, np.ndarray]] = []
    for kind in kinds:
        if kind == "asn":
            if asn_db is not None:
                columns.append((kind, asn_db.asn_of_many(hosts)))
        elif kind.startswith("subnet"):
            prefix_len = int(kind[len("subnet"):])
            columns.append((kind, (hosts & prefix_mask(prefix_len)) << 6 | prefix_len))
        else:
            raise ValueError(f"unknown network feature kind: {kind}")
    return columns


def _network_values_table(columns: Sequence[Tuple[str, np.ndarray]],
                          first: np.ndarray) -> List[Tuple[Tuple[str, int], ...]]:
    """The network-values tuple of each id, read from the id's first address."""
    picked = [(kind, values[first].tolist()) for kind, values in columns]
    return [tuple((kind, values[i]) for kind, values in picked
                  if values[i] or kind != "asn")
            for i in range(len(first))]


def _dense_ids(columns: Sequence[np.ndarray], size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids of the distinct rows of ``columns``, and each id's first row.

    Ids number the distinct rows in lexicographic order of the columns (the
    first column most significant).  One stable ``lexsort`` puts equal rows
    next to each other in row order; a row whose values differ from its
    predecessor's starts a new id, and that row is the id's first.  No
    arithmetic combines the columns, so no value width is assumed.  Without
    columns every row is the same row: one id.
    """
    if not columns or size == 0:
        return np.zeros(size, dtype=np.int64), np.zeros(min(size, 1), dtype=np.int64)
    order = np.lexsort(columns[::-1])
    starts = np.zeros(size, dtype=bool)
    starts[0] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(size, dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return ids, order[starts]


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
    ``host_features``' columns, resident in the runtime's workers: the
    model's packed counts broadcast once per model, only the whitelist and
    thresholds ship per call, and the per-shard rows merge back into exact
    host order, where the last ties break on the decoded predictor tuples.

    Args:
        host_features: the seed's encoded host features.
        model: the co-occurrence model built from the same seed set.
        probability_cutoff: minimum probability for an index entry.
        port_domain: optional target-port whitelist.
        min_pattern_support: preferred-tier support floor (see ``from_seed``).
        dataset: the resident dataset loaded from ``host_features``.
    """
    return PredictiveFeatureIndex(
        PredictiveFeature(predictor=predictor, target_port=label,
                          probability=probability)
        for label, predictor, probability in dataset.argmax_winners(
            model, port_domain=port_domain,
            min_pattern_support=min_pattern_support,
            probability_cutoff=probability_cutoff)
    )
