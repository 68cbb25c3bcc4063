"""Model registry: named GPS artifacts built once, served many times.

A "model" in serving terms is everything a one-shot GPS run computes before
it starts probing: the extracted host features, the co-occurrence model
(Section 5.2), the priors plan (Section 5.3) and the predictive-feature index
(Section 5.4), bound to the scan pipeline that will execute any scan jobs.
One-shot consumers rebuild all of it per invocation; the registry builds it
once -- the encoded seed columns are held as host groups for the build and
released when it ends -- and every subsequent request is a pure read
against the finished index.

Build results are bit-identical to the one-shot path by construction: the
registry runs the :class:`~repro.core.gps.GPS` orchestrator's own build
sequence (:func:`repro.core.gps.build_artifacts`), and the equivalence
battery pins served predictions against the serial one-shot oracle.

Load/swap/evict semantics: :meth:`ModelRegistry.register` under a name that
is already taken builds the replacement first and swaps atomically, so
readers never observe a half-built model.  :meth:`ModelRegistry.evict`
forgets a name.  Lookups hold no locks beyond one dict read -- the registry
is read-heavy by design.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import GPSConfig
from repro.core.gps import build_artifacts
from repro.core.model import CooccurrenceModel
from repro.core.predictions import Predictions, PredictiveFeatureIndex
from repro.core.priors import PriorsEntry
from repro.net.asn import AsnDatabase
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import ScanObservation
from repro.serving.schemas import ModelInfo, ModelNotFound
from repro.telemetry import NULL_TELEMETRY, Telemetry

# benchmarks/e2e wraps these four names here by name; this module calls none
# of them (build_artifacts calls repro.core.gps's own).
from repro.core.features import extract_host_features_columns  # noqa: F401
from repro.core.model import build_model_with_engine  # noqa: F401
from repro.core.predictions import build_prediction_index_with_engine  # noqa: F401
from repro.core.priors import build_priors_plan_with_engine  # noqa: F401

Pair = Tuple[int, int]


@dataclass
class PreparedModel:
    """One named model's artifacts, ready to serve.

    Attributes:
        name: registry name.
        pipeline: the scan pipeline bound to the model's universe (scan jobs
            probe through it and charge its ledger).
        config: the GPS configuration the artifacts were built under.
        seed_observations: the seed services the model learned from.
        model: the co-occurrence model.
        priors_plan: the ordered priors scan list.
        index: the predictive-feature index every lookup reads.
        build_seconds: wall-clock cost of acquiring the artifacts -- the
            full build for ``source="built"`` models, the snapshot load for
            ``source="snapshot"`` ones (``BENCH_snapshot.json`` compares the
            two).
        source: ``"built"`` (computed in this process) or ``"snapshot"``
            (loaded from a saved snapshot -- a warm restart).
        snapshot_version: the snapshot's on-disk format version when
            ``source="snapshot"``, else ``None``.
        loaded_at: wall-clock timestamp (``time.time()``) the snapshot load
            finished, else ``None``.
    """

    name: str
    pipeline: ScanPipeline
    config: GPSConfig
    seed_observations: List[ScanObservation]
    model: CooccurrenceModel
    priors_plan: List[PriorsEntry]
    index: PredictiveFeatureIndex
    build_seconds: float
    source: str = "built"
    snapshot_version: Optional[int] = None
    loaded_at: Optional[float] = None

    def __post_init__(self) -> None:
        self._asn_db: Optional[AsnDatabase] = \
            self.pipeline.universe.topology.asn_db
        self._by_ip: Dict[int, List[ScanObservation]] = {}
        for obs in self.seed_observations:
            self._by_ip.setdefault(obs.ip, []).append(obs)
        self._seed_pairs: Set[Pair] = {obs.pair() for obs in self.seed_observations}
        # Scan jobs mutate the pipeline's ledger; one job at a time per model.
        self.scan_lock = threading.Lock()

    # -- queries (pure reads, safe from any thread) --------------------------------

    def predict(self, observations: Iterable[ScanObservation],
                known_pairs: Optional[Set[Pair]] = None) -> Predictions:
        """Probability-ordered predictions for the given observations.

        Exactly ``index.predict`` with the model's ASN database and feature
        configuration -- the serial one-shot oracle the equivalence tests
        compare against.  Replies materialize the rows with ``tuple(...)``.
        """
        return self.index.predict(observations, self._asn_db,
                                  self.config.feature_config,
                                  known_pairs=set(known_pairs or ()))

    def known_observations(self, ip: int) -> List[ScanObservation]:
        """The model's seed observations for one address ([] if unknown)."""
        return list(self._by_ip.get(ip, ()))

    def known_pairs_for(self, ip: int) -> Set[Pair]:
        """The (ip, port) seed services of one address."""
        return {obs.pair() for obs in self._by_ip.get(ip, ())}

    def seed_pairs(self) -> Set[Pair]:
        """All (ip, port) services of the model's seed."""
        return set(self._seed_pairs)

    def info(self) -> ModelInfo:
        """The registry-facing summary of this model."""
        return ModelInfo(
            name=self.name,
            seed_services=len(self.seed_observations),
            hosts=len(self._by_ip),
            index_entries=len(self.index),
            priors_entries=len(self.priors_plan),
            build_seconds=self.build_seconds,
            source=self.source,
            snapshot_version=self.snapshot_version,
            loaded_at=self.loaded_at,
        )

    # -- lifecycle -----------------------------------------------------------------

    # benchmarks/e2e calls it on its oracle model.
    def release(self) -> None:
        """Nothing to free: a built model holds no resident columns."""

    @classmethod
    def from_snapshot(
        cls,
        name: str,
        pipeline: ScanPipeline,
        snapshot: object,
        config: Optional[GPSConfig] = None,
    ) -> "PreparedModel":
        """Load a prepared model from a saved snapshot -- the warm restart.

        ``snapshot`` is a snapshot directory path or an already-opened
        :class:`repro.engine.snapshot.Snapshot`.  Every artifact the build
        path would compute rebuilds from the snapshot's columns instead --
        bit-identical to the freshly-built ones by the snapshot round-trip
        invariant -- so a restarted ``gps-repro serve`` answers its first
        lookup without re-running a single build fold.

        ``build_seconds`` records the load cost; ``source`` /
        ``snapshot_version`` / ``loaded_at`` mark the provenance surfaced
        by ``GET /models`` and ``/stats``.
        """
        from repro.engine.snapshot import Snapshot, open_snapshot

        config = config or GPSConfig()
        start = time.perf_counter()
        if not isinstance(snapshot, Snapshot):
            snapshot = open_snapshot(str(snapshot))
        seed_observations = snapshot.observation_batch().materialize()
        model = snapshot.model()
        priors_plan = snapshot.priors_plan()
        index = snapshot.prediction_index()
        return cls(
            name=name,
            pipeline=pipeline,
            config=config,
            seed_observations=seed_observations,
            model=model,
            priors_plan=priors_plan,
            index=index,
            build_seconds=time.perf_counter() - start,
            source="snapshot",
            snapshot_version=snapshot.version,
            loaded_at=time.time(),
        )


def build_prepared_model(
    name: str,
    pipeline: ScanPipeline,
    seed: SeedScanResult,
    config: Optional[GPSConfig] = None,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> PreparedModel:
    """Build one model's artifacts the way the one-shot orchestrator would.

    Runs :func:`repro.core.gps.build_artifacts`, the orchestrator's own
    build sequence, with its spans on ``telemetry``: engine configurations
    ingest columnar and fold over host groups held for this build only;
    non-engine configurations run the single-core reference path (the
    oracle).
    """
    config = config or GPSConfig()
    start = time.perf_counter()
    artifacts = build_artifacts(pipeline, seed, config, telemetry)
    return PreparedModel(
        name=name,
        pipeline=pipeline,
        config=config,
        seed_observations=list(seed.observations),
        model=artifacts.model,
        priors_plan=artifacts.priors_plan,
        index=artifacts.feature_index,
        build_seconds=time.perf_counter() - start,
    )


class ModelRegistry:
    """Thread-safe name -> :class:`PreparedModel` table with swap semantics."""

    def __init__(self) -> None:
        self._models: Dict[str, PreparedModel] = {}
        self._lock = threading.Lock()

    def register(self, model: PreparedModel) -> Optional[PreparedModel]:
        """Install a built model under its name; returns the displaced one.

        By the time a reader could fetch the name again it already resolves
        to the replacement, so the swap is atomic from the reader's side.
        """
        with self._lock:
            displaced = self._models.get(model.name)
            self._models[model.name] = model
        return displaced

    def get(self, name: str) -> PreparedModel:
        """Resolve a name; raises :class:`ModelNotFound` for unknown names."""
        with self._lock:
            model = self._models.get(name)
        if model is None:
            raise ModelNotFound(f"no model named {name!r} is loaded")
        return model

    def evict(self, name: str) -> None:
        """Forget one model; unknown names raise ModelNotFound."""
        with self._lock:
            model = self._models.pop(name, None)
        if model is None:
            raise ModelNotFound(f"no model named {name!r} is loaded")

    def names(self) -> List[str]:
        """The loaded model names, sorted."""
        with self._lock:
            return sorted(self._models)

    def infos(self) -> List[ModelInfo]:
        """Summaries of every loaded model, sorted by name."""
        with self._lock:
            models = sorted(self._models.values(), key=lambda m: m.name)
        return [model.info() for model in models]

    def close(self) -> None:
        """Forget every model; idempotent."""
        with self._lock:
            self._models.clear()


__all__ = [
    "ModelRegistry",
    "PreparedModel",
    "build_prepared_model",
]
