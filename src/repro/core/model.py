"""The conditional-probability (co-occurrence) model.

GPS's predictive engine is nothing more than conditional probabilities between
predictor tuples and target ports (Section 5.2):

    P(Port_a | predictor) = #hosts where predictor holds and Port_a is open
                            -----------------------------------------------
                                    #hosts where predictor holds

Because a predictor tuple embeds the port it was observed on, a host
contributes at most one occurrence per tuple, so both counts are plain host
counts.  The numerators for different predictors never interact, which is what
makes the computation "parallelizable across all 65K ports" in the paper's
terms; :func:`build_model_with_engine` expresses exactly the same computation
as a self-join + group-by on the engine's numpy folds, and the test
suite asserts the two implementations produce identical probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.features import HostFeatures, PredictorTuple
from repro.core.runtime_plans import PackedCounts, ResidentHostGroups
from repro.engine.fused import MODEL_PACK_BASE, segment_starts


@dataclass
class CooccurrenceModel:
    """Conditional probabilities P(target port | predictor tuple).

    Attributes:
        cooccurrence: ``predictor -> {target_port -> co-occurrence count}``.
        denominators: ``predictor -> number of hosts exhibiting the predictor``.

    A model built on the engine (:meth:`from_packed`) holds the model fold's
    packed columns instead, and builds both dicts from them the first time
    either is read; until then the priors and index folds read the columns
    directly (:meth:`packed_counts`).  A snapshot's model (:meth:`lazy`)
    likewise builds its dicts on first read.
    """

    cooccurrence: Dict[PredictorTuple, Dict[int, int]] = field(default_factory=dict)
    denominators: Dict[PredictorTuple, int] = field(default_factory=dict)

    # -- deferred construction ------------------------------------------------------

    @classmethod
    def lazy(cls, load: Callable[[], Tuple[dict, dict]]) -> "CooccurrenceModel":
        """A model whose ``(cooccurrence, denominators)`` dicts ``load()``
        builds the first time either is read."""
        model = cls.__new__(cls)
        model._load = load
        return model

    @classmethod
    def from_packed(cls, packed: PackedCounts) -> "CooccurrenceModel":
        """A model over the model fold's packed columns; dicts built on
        first read."""
        model = cls.lazy(partial(_decode_packed, packed))
        model._packed = packed
        return model

    def packed_counts(self) -> Optional[PackedCounts]:
        """The packed columns the model was built from, while neither dict
        has been read or assigned; ``None`` otherwise."""
        state = self.__dict__
        if "cooccurrence" in state or "denominators" in state:
            return None
        return state.get("_packed")

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not set on the instance: the dicts of
        # a deferred model, on first read.  Reading them retires the packed
        # columns, so later changes to the dicts are what the engine folds
        # see.
        state = self.__dict__
        load = state.get("_load")
        if load is None or name not in ("cooccurrence", "denominators"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        cooccurrence, denominators = load()
        state.setdefault("cooccurrence", cooccurrence)
        state.setdefault("denominators", denominators)
        state["_load"] = state["_packed"] = None
        return state[name]

    def cooccurrence_rows(self) -> int:
        """``len(self.cooccurrence)``, counted from the packed columns while
        the dicts are unread."""
        packed = self.packed_counts()
        if packed is not None:
            return segment_starts(packed.pair_keys // MODEL_PACK_BASE).size
        return len(self.cooccurrence)

    # -- queries -----------------------------------------------------------------

    def probability(self, predictor: PredictorTuple, target_port: int) -> float:
        """P(target_port open | predictor observed on the host)."""
        denom = self.denominators.get(predictor, 0)
        if denom == 0:
            return 0.0
        return self.cooccurrence.get(predictor, {}).get(target_port, 0) / denom

    def targets_for(self, predictor: PredictorTuple) -> Dict[int, float]:
        """All target ports with non-zero probability for a predictor."""
        denom = self.denominators.get(predictor, 0)
        if denom == 0:
            return {}
        return {
            port: count / denom
            for port, count in self.cooccurrence.get(predictor, {}).items()
        }

    def best_predictor(self, candidates: Iterable[PredictorTuple],
                       target_port: int,
                       min_support: int = 1) -> Tuple[Optional[PredictorTuple], float]:
        """The candidate predictor with the highest probability for a target port.

        Args:
            candidates: predictor tuples available on the host.
            target_port: the port whose probability is maximised.
            min_support: minimum number of seed hosts a predictor must have
                been observed on to be eligible.  Patterns seen on a single
                host (host-unique certificate hashes, SSH keys) trivially reach
                probability 1.0 but cannot generalise to new hosts; requiring
                support of at least two mirrors the paper's premise that GPS
                predicts services "given at least two responsive IP addresses
                on a port to train from".

        Ties are broken by support (more widely observed patterns first) and
        then by the predictor tuple itself, so the priors plan and the
        predictive-feature index are reproducible.
        """
        best: Optional[PredictorTuple] = None
        best_prob = 0.0
        best_support = 0
        for predictor in candidates:
            support = self.denominators.get(predictor, 0)
            if support < min_support:
                continue
            prob = self.probability(predictor, target_port)
            if prob <= 0.0:
                continue
            better = (prob > best_prob
                      or (prob == best_prob and support > best_support)
                      or (prob == best_prob and support == best_support
                          and best is not None and predictor < best))
            if better:
                best = predictor
                best_prob = prob
                best_support = support
        if best_prob == 0.0:
            return None, 0.0
        return best, best_prob

    def predictor_count(self) -> int:
        """Number of distinct predictor tuples seen in the seed set."""
        return len(self.denominators)

    def known_target_ports(self) -> List[int]:
        """All ports that appear as a prediction target, ascending."""
        ports = set()
        for targets in self.cooccurrence.values():
            ports.update(targets)
        return sorted(ports)


def build_model(host_features: Mapping[int, HostFeatures]) -> CooccurrenceModel:
    """Single-core reference implementation of model building.

    For each host, for each service's predictor tuples, count (a) the host
    toward the predictor's denominator and (b) every *other* open port of the
    host toward the predictor's co-occurrence counts.
    """
    model = CooccurrenceModel()
    for host in host_features.values():
        open_ports = list(host.ports)
        for port_b, predictors in host.ports.items():
            other_ports = [port for port in open_ports if port != port_b]
            for predictor in predictors:
                model.denominators[predictor] = model.denominators.get(predictor, 0) + 1
                if not other_ports:
                    continue
                targets = model.cooccurrence.setdefault(predictor, {})
                for port_a in other_ports:
                    targets[port_a] = targets.get(port_a, 0) + 1
    return model


# -- engine-backed implementation --------------------------------------------------------


def _decode_packed(packed: PackedCounts):
    """``(cooccurrence, denominators)`` dicts of packed model columns.

    Predictors come in ascending id order and ports ascending within a
    row, the packed keys' order.
    """
    pids = packed.pair_keys // MODEL_PACK_BASE
    ports = (packed.pair_keys % MODEL_PACK_BASE).tolist()
    counts = packed.pair_counts.tolist()
    starts = segment_starts(pids)
    lows = starts.tolist()
    highs = lows[1:] + [len(ports)]
    decode = packed.encoder.decode
    cooccurrence = {
        decode(pid): dict(zip(ports[lo:hi], counts[lo:hi]))
        for pid, lo, hi in zip(pids[starts].tolist(), lows, highs)
    }
    denominators = dict(zip(map(decode, packed.ids.tolist()),
                            packed.supports.tolist()))
    return cooccurrence, denominators


def build_model_with_engine(dataset: ResidentHostGroups) -> CooccurrenceModel:
    """Model building expressed as engine operations (the BigQuery analogue).

    The computation is: JOIN the feature relation with the port relation on
    the host address, drop self-pairs, GROUP BY (predictor, target port) to
    obtain the co-occurrence counts, and GROUP BY predictor over the feature
    relation to obtain the denominators.  ``dataset`` holds the seed's
    encoded host-feature columns, and the join folds over them as numpy
    passes into packed counts (see :meth:`ResidentHostGroups.model_counts`).

    The model keeps the packed columns: the priors and index builds
    on the same dataset read them as their score tables, and the
    predictor-keyed dicts are decoded only when first read (a GPS run never
    reads them; a snapshot save does).

    The result is identical to :func:`build_model` (the oracle); the test
    suite asserts this on randomized inputs.
    """
    return CooccurrenceModel.from_packed(dataset.model_counts())
