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
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

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
from repro.net.asn import AsnDatabase
from repro.scanner.records import ScanObservation

#: Prefix length prediction probes are grouped by before they reach the scan
#: pipeline's batched layers.  /16 matches the default network feature (the
#: granularity predictions naturally cluster at, since (Port, Net) patterns
#: emit one prediction per co-located host), so batches stay large without
#: reordering the probability-ordered schedule by more than a batch.
PREDICTION_BATCH_PREFIX_LEN = 16

#: Upper bound on the per-index network-feature memo used by
#: :meth:`PredictiveFeatureIndex.predict`.  The memo persists across predict
#: calls (GPS rounds against the same universe hit the same hosts again), so
#: without a bound it would grow with every distinct address ever predicted
#: from; at the bound the least-recently-used entry is evicted, so hosts
#: that keep reappearing across rounds stay memoized under pressure.
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


class PredictiveFeatureIndex:
    """The "most predictive feature values" list, indexed for fast lookup."""

    def __init__(self, features: Iterable[PredictiveFeature]) -> None:
        self._by_predictor: Dict[PredictorTuple, Dict[int, float]] = {}
        for feature in features:
            targets = self._by_predictor.setdefault(feature.predictor, {})
            existing = targets.get(feature.target_port)
            if existing is None or feature.probability > existing:
                targets[feature.target_port] = feature.probability
        self._entry_count = sum(len(t) for t in self._by_predictor.values())
        # Bounded LRU memo for network_feature_values, shared across predict
        # calls; keyed per (asn_db, feature kinds) identity so an index
        # reused against a different universe never serves stale features.
        # One index is read by many serving threads concurrently, so every
        # structural cache operation (lookup+refresh, insert+evict, rekey)
        # holds the lock: an unguarded get/move_to_end pair races with
        # another thread's eviction and dies with KeyError.
        self._net_cache: "OrderedDict[int, List[Tuple[str, int]]]" = OrderedDict()
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

    def _net_values_cache(self, asn_db: Optional[AsnDatabase],
                          kinds: Tuple[str, ...],
                          ) -> "OrderedDict[int, List[Tuple[str, int]]]":
        """The bounded per-(asn_db, kinds) network-feature memo, reset on rekey.

        Callers must only touch the returned dict under
        ``self._net_cache_lock``; the rekey check itself takes the lock so a
        concurrent predict against a different universe cannot interleave
        with the swap and resurrect the stale dict.
        """
        with self._net_cache_lock:
            if self._net_cache_db is not asn_db or self._net_cache_kinds != kinds:
                self._net_cache = OrderedDict()
                self._net_cache_db = asn_db
                self._net_cache_kinds = kinds
            return self._net_cache

    def predict(
        self,
        observations: Iterable[ScanObservation],
        asn_db: Optional[AsnDatabase],
        feature_config: FeatureConfig,
        known_pairs: Optional[Set[Tuple[int, int]]] = None,
    ) -> List[PredictedService]:
        """Predict remaining services from discovered-service observations.

        Args:
            observations: services discovered so far (typically the priors
                scan results; the seed services' patterns are already encoded
                in the index itself).
            asn_db: ASN database for network feature extraction.
            feature_config: which predictor tuples to derive per observation.
            known_pairs: (ip, port) pairs already discovered; predictions for
                them are suppressed so bandwidth is not spent re-probing.

        Returns:
            Deduplicated predictions ordered by probability (descending), the
            order in which GPS probes them.
        """
        known = known_pairs or set()
        best: Dict[Tuple[int, int], PredictedService] = {}
        # Network-layer features depend only on the address, and hosts with
        # several discovered services appear once per service; memoize per IP
        # so the ASN lookup and subnet derivations run once per host.  The
        # memo lives on the index and persists across GPS rounds, but is
        # bounded (NET_FEATURE_CACHE_MAX, LRU eviction: a hit refreshes the
        # entry, the stalest entry goes first) so long-running multi-round
        # deployments cannot grow it without limit while hot hosts stay
        # memoized, and it is keyed per (asn_db, kinds) so reuse against
        # another universe resets it.  The serving layer calls predict from
        # many threads against one shared index, so the lookup+refresh and
        # evict+insert pairs each run atomically under the cache lock; the
        # feature derivation itself runs outside it (a concurrent duplicate
        # derivation wastes a little work but last-write-wins on identical
        # values, so nothing is lost or duplicated).
        net_cache = self._net_values_cache(
            asn_db, feature_config.network_feature_kinds)
        net_cache_lock = self._net_cache_lock
        limit = NET_FEATURE_CACHE_MAX
        for observation in observations:
            with net_cache_lock:
                net_values = net_cache.get(observation.ip)
                if net_values is not None:
                    net_cache.move_to_end(observation.ip)
            if net_values is None:
                net_values = network_feature_values(
                    observation.ip, asn_db, feature_config.network_feature_kinds)
                with net_cache_lock:
                    while len(net_cache) >= limit:
                        net_cache.popitem(last=False)
                    net_cache[observation.ip] = net_values
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
    asserts entry-for-entry equality, tie cases included), but executes as a
    streaming argmax over dictionary-encoded columns
    (:func:`repro.engine.fused.select_argmax_chunk`) against ``dataset`` --
    ``host_features``' columns, resident in the runtime's workers: count
    rows bind once per distinct predictor id, only the whitelist and
    thresholds ship per call, and the per-shard winners merge back into
    exact host order before decoding.

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
