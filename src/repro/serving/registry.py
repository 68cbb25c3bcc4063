"""Model registry: named GPS artifacts built once, served many times.

A "model" in serving terms is everything a one-shot GPS run computes before
it starts probing: the extracted host features, the co-occurrence model
(Section 5.2), the priors plan (Section 5.3) and the predictive-feature index
(Section 5.4), bound to the scan pipeline that will execute any scan jobs.
One-shot consumers rebuild all of it per invocation; the registry builds it
once on the service's :class:`~repro.engine.runtime.EngineRuntime` --
the encoded seed columns shard into the long-lived runtime and *stay*
resident for the model's whole registry life -- and every subsequent request
is a pure read against the finished index.

Build results are bit-identical to the one-shot path by construction: the
registry calls exactly the build functions the :class:`~repro.core.gps.GPS`
orchestrator calls (``build_model_with_engine`` /
``build_priors_plan_with_engine`` / ``build_prediction_index_with_engine``
against a :class:`~repro.core.runtime_plans.ResidentHostGroups`), and the
equivalence battery pins served predictions against the serial one-shot
oracle.

Load/swap/evict semantics: :meth:`ModelRegistry.register` under a name that
is already taken builds the replacement first and swaps atomically, so
readers never observe a half-built model; the displaced model's resident
shards are released from the runtime.  :meth:`ModelRegistry.evict` releases
and forgets.  Lookups hold no locks beyond one dict read -- the registry is
read-heavy by design.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import GPSConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.predictions import (
    Predictions,
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import (
    PriorsEntry,
    build_priors_plan,
    build_priors_plan_with_engine,
)
from repro.core.runtime_plans import ResidentHostGroups
from repro.engine.runtime import EngineRuntime
from repro.net.asn import AsnDatabase
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import ObservationBatch, ScanObservation
from repro.serving.schemas import ModelInfo, ModelNotFound

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
        resident: the seed's encoded columns, resident in the runtime
            (``None`` for reference builds and private-runtime builds).
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
    resident: Optional[ResidentHostGroups]
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
            resident_shards=self.resident is not None,
            source=self.source,
            snapshot_version=self.snapshot_version,
            loaded_at=self.loaded_at,
        )

    # -- lifecycle -----------------------------------------------------------------

    def release(self) -> None:
        """Free the resident shards; idempotent."""
        if self.resident is not None:
            self.resident.release()

    @classmethod
    def from_snapshot(
        cls,
        name: str,
        pipeline: ScanPipeline,
        snapshot: object,
        config: Optional[GPSConfig] = None,
        runtime: Optional[EngineRuntime] = None,
    ) -> "PreparedModel":
        """Load a prepared model from a saved snapshot -- the warm restart.

        ``snapshot`` is a snapshot directory path or an already-opened
        :class:`repro.engine.snapshot.Snapshot`.  Every artifact the build
        path would compute rebuilds from the snapshot's columns instead --
        bit-identical to the freshly-built ones by the snapshot round-trip
        invariant -- so a restarted ``gps-repro serve`` answers its first
        lookup without re-running a single build fold.  When a ``runtime``
        is supplied and the snapshot carries sharded host groups, the seed
        relation goes resident zero-copy
        (:meth:`~repro.core.runtime_plans.ResidentHostGroups.from_snapshot`
        maps the shard files), making
        scan jobs and engine rebuilds as warm as a built model's.

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
        resident: Optional[ResidentHostGroups] = None
        if (runtime is not None and config.use_engine
                and snapshot.shard_layout() is not None):
            resident = ResidentHostGroups.from_snapshot(runtime, snapshot)
        try:
            return cls(
                name=name,
                pipeline=pipeline,
                config=config,
                seed_observations=seed_observations,
                model=model,
                priors_plan=priors_plan,
                index=index,
                resident=resident,
                build_seconds=time.perf_counter() - start,
                source="snapshot",
                snapshot_version=snapshot.version,
                loaded_at=time.time(),
            )
        except BaseException:
            if resident is not None:
                resident.release()
            raise


def build_prepared_model(
    name: str,
    pipeline: ScanPipeline,
    seed: SeedScanResult,
    config: Optional[GPSConfig] = None,
    runtime: Optional[EngineRuntime] = None,
) -> PreparedModel:
    """Build one model's artifacts the way the one-shot orchestrator would.

    Feature extraction, model build, priors planning and the index build
    follow exactly the :class:`~repro.core.gps.GPS` helper logic: engine
    configurations ingest columnar and fold against resident shards
    loaded once -- on ``runtime`` when one is supplied, else on a private
    serial runtime that lives only for this build; non-engine
    configurations run the single-core reference path (the oracle).  Unlike
    the orchestrator, shards loaded on a supplied runtime are *not*
    released after the build -- they belong to the registered model and are
    freed on evict/swap.
    """
    config = config or GPSConfig()
    asn_db = pipeline.universe.topology.asn_db
    start = time.perf_counter()

    if not config.use_engine:
        host_features = extract_host_features(seed.observations, asn_db,
                                              config.feature_config)
        model = build_model(host_features)
        priors_plan = build_priors_plan(host_features, model,
                                        config.step_size, config.port_domain)
        index = PredictiveFeatureIndex.from_seed(
            host_features, model,
            probability_cutoff=config.probability_cutoff,
            port_domain=config.port_domain,
            min_pattern_support=config.min_pattern_support)
        resident: Optional[ResidentHostGroups] = None
    else:
        batch = seed.batch
        if batch is None:
            # Rebuild columns in the pipeline's status-id space instead of
            # re-encoding into a fresh one per prepared model.
            batch = ObservationBatch.from_observations(
                seed.observations, statuses=pipeline.status_encoder)
        host_features = extract_host_features_columns(batch, asn_db,
                                                      config.feature_config)
        private = runtime is None
        if private:
            runtime = EngineRuntime(executor="serial")
        resident = ResidentHostGroups(runtime, host_features, config.step_size)
        built = False
        try:
            model = build_model_with_engine(host_features, resident)
            priors_plan = build_priors_plan_with_engine(
                host_features, model, config.step_size, config.port_domain,
                dataset=resident)
            index = build_prediction_index_with_engine(
                host_features, model,
                probability_cutoff=config.probability_cutoff,
                port_domain=config.port_domain,
                min_pattern_support=config.min_pattern_support,
                dataset=resident)
            built = True
        finally:
            # A failed build must not leak its shards into the runtime for
            # its whole life: nobody will ever hold this model to
            # release it.  A private runtime has no owner past this build.
            if private or not built:
                resident.release()
            if private:
                runtime.close()
                resident = None

    return PreparedModel(
        name=name,
        pipeline=pipeline,
        config=config,
        seed_observations=list(seed.observations),
        model=model,
        priors_plan=priors_plan,
        index=index,
        resident=resident,
        build_seconds=time.perf_counter() - start,
    )


class ModelRegistry:
    """Thread-safe name -> :class:`PreparedModel` table with swap semantics."""

    def __init__(self) -> None:
        self._models: Dict[str, PreparedModel] = {}
        self._lock = threading.Lock()

    def register(self, model: PreparedModel) -> Optional[PreparedModel]:
        """Install a built model under its name; returns the displaced one.

        The displaced model's resident shards are released here -- by the
        time a reader could fetch the name again it already resolves to the
        replacement, so the swap is atomic from the reader's side.
        """
        with self._lock:
            displaced = self._models.get(model.name)
            self._models[model.name] = model
        if displaced is not None:
            displaced.release()
        return displaced

    def get(self, name: str) -> PreparedModel:
        """Resolve a name; raises :class:`ModelNotFound` for unknown names."""
        with self._lock:
            model = self._models.get(name)
        if model is None:
            raise ModelNotFound(f"no model named {name!r} is loaded")
        return model

    def evict(self, name: str) -> None:
        """Release and forget one model; unknown names raise ModelNotFound."""
        with self._lock:
            model = self._models.pop(name, None)
        if model is None:
            raise ModelNotFound(f"no model named {name!r} is loaded")
        model.release()

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
        """Release every model; idempotent."""
        with self._lock:
            models = list(self._models.values())
            self._models.clear()
        for model in models:
            model.release()


__all__ = [
    "ModelRegistry",
    "PreparedModel",
    "build_prepared_model",
]
