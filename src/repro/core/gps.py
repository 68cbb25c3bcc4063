"""The GPS orchestrator: the four-phase system of Section 5 end to end.

:class:`GPS` ties together the scan pipeline, the feature extraction, the
co-occurrence model, the priors planner and the predictive-feature index into
the four-phase process the paper describes:

1. collect (or accept) a seed set;
2. build the probabilistic model;
3. plan and execute the priors scan, finding at least one service per host;
4. build the predictions list and execute the prediction scan.

Every scan batch appends to a *discovery log* of
``(cumulative probes, newly discovered (ip, port) pairs)`` entries, from which
the analysis layer derives all coverage/precision/bandwidth curves; the
orchestrator itself never looks at the ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.config import GPSConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.predictions import (
    PREDICTION_BATCH_PREFIX_LEN,
    PredictedService,
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
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import ObservationBatch, ScanObservation
from repro.telemetry import NULL_TELEMETRY, Telemetry

Pair = Tuple[int, int]


@dataclass(frozen=True)
class DiscoveryBatch:
    """One batch of the discovery log.

    Attributes:
        phase: ``"seed"``, ``"priors"`` or ``"prediction"``.
        cumulative_probes: total probes sent by GPS up to and including this
            batch (across all phases).
        pairs: (ip, port) services newly discovered by this batch.
    """

    phase: str
    cumulative_probes: int
    pairs: Tuple[Pair, ...]


@dataclass
class GPSRunResult:
    """Everything a GPS run produced.

    Attributes:
        config: the configuration the run used.
        seed_observations: the (filtered) seed set GPS learned from.
        priors_observations: services discovered by the priors scan.
        prediction_observations: services discovered by the prediction scan.
        priors_plan: the ordered priors scan list.
        predictions: the ordered predictions list (before probing).
        model: the co-occurrence model built from the seed.
        feature_index: the most-predictive-feature-values index.
        discovery_log: bandwidth-annotated discovery batches.
        model_build_seconds: wall-clock time spent building the model and the
            prediction structures (the "computation" row of Table 2).
        truncated_by_budget: whether the bandwidth budget stopped the run
            before the scan schedule was exhausted.
    """

    config: GPSConfig
    seed_observations: List[ScanObservation]
    priors_observations: List[ScanObservation] = field(default_factory=list)
    prediction_observations: List[ScanObservation] = field(default_factory=list)
    priors_plan: List[PriorsEntry] = field(default_factory=list)
    predictions: List[PredictedService] = field(default_factory=list)
    model: Optional[CooccurrenceModel] = None
    feature_index: Optional[PredictiveFeatureIndex] = None
    discovery_log: List[DiscoveryBatch] = field(default_factory=list)
    model_build_seconds: float = 0.0
    truncated_by_budget: bool = False

    def discovered_pairs(self) -> Set[Pair]:
        """All (ip, port) services GPS discovered, across all phases."""
        pairs: Set[Pair] = set()
        for batch in self.discovery_log:
            pairs.update(batch.pairs)
        return pairs

    def all_observations(self) -> List[ScanObservation]:
        """All observations across phases (seed, priors, prediction)."""
        return (list(self.seed_observations) + list(self.priors_observations)
                + list(self.prediction_observations))

    def log_as_tuples(self) -> List[Tuple[int, Tuple[Pair, ...]]]:
        """Discovery log in the shape :func:`repro.core.metrics.coverage_curve` expects."""
        return [(batch.cumulative_probes, batch.pairs) for batch in self.discovery_log]


class GPS:
    """The GPS system bound to one scan pipeline and one configuration.

    With ``GPSConfig.use_engine`` set, the instance owns one
    :class:`~repro.engine.runtime.EngineRuntime` on ``GPSConfig.executor``
    (``"serial"``, ``"thread"`` or ``"pool"``) for its whole life: the pool
    starts lazily on the first engine build, every run reuses it, and
    :meth:`close` (or using the GPS as a context manager) tears it down.
    Within a run the seed's encoded columns load into the workers once and
    the model, priors and prediction-index builds all fold against the
    resident shards.

    With telemetry enabled (``config.telemetry_enabled``, or an explicit
    ``telemetry`` instance -- e.g. one shared with the scan pipeline so scan
    counters and phase spans land in the same export) every run emits one
    ``gps.run`` span tree whose children are the paper's phases: dataset
    build, feature extraction, and the three Table 2 builds, plus the two
    scan loops and the prediction step.  Instrumentation never alters the
    run itself -- the equivalence tests pin bit-identical outputs with
    telemetry on and off.
    """

    def __init__(self, pipeline: ScanPipeline, config: Optional[GPSConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.pipeline = pipeline
        self.config = config or GPSConfig()
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry_enabled:
            self.telemetry = Telemetry(
                sample_every=self.config.telemetry_sample_every)
        else:
            self.telemetry = NULL_TELEMETRY
        self._asn_db = pipeline.universe.topology.asn_db
        self._runtime: Optional[EngineRuntime] = None

    # -- public API -----------------------------------------------------------------

    def runtime(self) -> Optional[EngineRuntime]:
        """This instance's persistent engine runtime (``None`` without
        ``use_engine``).  Created lazily from ``config.executor`` /
        ``config.num_workers`` / ``config.shard_count``; recreated if a
        previous one was closed or broken by a worker crash."""
        config = self.config
        if not config.use_engine:
            return None
        if self._runtime is None or self._runtime.closed or self._runtime.broken:
            if self._runtime is not None:
                self._runtime.close()
            self._runtime = EngineRuntime(
                executor=config.executor,
                num_workers=config.num_workers,
                shard_count=config.shard_count,
                max_task_retries=config.max_task_retries,
                task_deadline_s=config.task_deadline_s,
                execution_deadline_s=config.execution_deadline_s,
                fault_plan=config.fault_plan,
                telemetry=self.telemetry)
        return self._runtime

    def close(self) -> None:
        """Shut the engine runtime's worker pool down; idempotent."""
        if self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "GPS":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, seed: Optional[SeedScanResult] = None,
            seed_cost_probes: Optional[int] = None) -> GPSRunResult:
        """Execute the full four-phase process.

        Args:
            seed: a pre-collected seed set (dataset-split evaluation mode).
                When omitted, GPS collects its own seed scan through the
                pipeline, paying the full random-probing cost.
            seed_cost_probes: bandwidth to charge for a supplied seed set.
                Defaults to ``seed_fraction x |port domain| x address space``,
                the cost of the random scan that would have produced it.
        """
        with self.telemetry.span("gps.run"):
            return self._run(seed, seed_cost_probes)

    def _run(self, seed: Optional[SeedScanResult],
             seed_cost_probes: Optional[int]) -> GPSRunResult:
        config = self.config
        ledger = self.pipeline.ledger
        tel = self.telemetry

        # Phase 1: seed set.
        if seed is None:
            with tel.span("dataset.build") as span:
                seed = self.pipeline.seed_scan(
                    config.seed_fraction,
                    seed=config.seed_scan_seed,
                    ports=list(config.port_domain) if config.port_domain else None,
                )
                span.set("observations", len(seed.observations))
        elif seed_cost_probes is None:
            port_count = (len(config.port_domain) if config.port_domain
                          else 65535)
            seed_cost_probes = int(round(
                config.seed_fraction * port_count
                * self.pipeline.universe.address_space_size()
            ))
        if seed_cost_probes:
            ledger.record(ScanCategory.SEED, probes=seed_cost_probes,
                          responses=len(seed.observations))

        result = GPSRunResult(config=config, seed_observations=list(seed.observations))
        discovered: Set[Pair] = set()
        self._log_batch(result, "seed", ledger.total_probes(),
                        [obs.pair() for obs in seed.observations], discovered)

        budget_probes = self._budget_probes()

        # Phase 2: probabilistic model.
        build_start = time.perf_counter()
        with tel.span("features.extract"):
            host_features = self._extract_features(seed)
        dataset = self._resident_dataset(host_features)
        try:
            with tel.span("model.build") as span:
                model = self._build_model(host_features, dataset)
                span.set("pairs", len(model.cooccurrence))
            result.model = model

            # Phase 3: priors scan (find the first service of every host).
            with tel.span("priors.build") as span:
                priors_plan = self._build_priors_plan(host_features, model, dataset)
                span.set("entries", len(priors_plan))
            result.priors_plan = priors_plan
            result.model_build_seconds += time.perf_counter() - build_start

            with tel.span("priors.scan") as span:
                batches = 0
                for entry in priors_plan:
                    if budget_probes is not None and ledger.total_probes() >= budget_probes:
                        result.truncated_by_budget = True
                        break
                    observations = self.pipeline.scan_prefix(entry.port, entry.subnet,
                                                             category=ScanCategory.PRIORS)
                    result.priors_observations.extend(observations)
                    self._log_batch(result, "priors", ledger.total_probes(),
                                    [obs.pair() for obs in observations], discovered)
                    batches += 1
                span.set("batches", batches)
                span.set("observations", len(result.priors_observations))

            # Phase 4: predict and scan remaining services.
            build_start = time.perf_counter()
            with tel.span("index.build") as span:
                feature_index = self._build_feature_index(host_features, model, dataset)
                span.set("entries", len(feature_index))
            result.feature_index = feature_index
        finally:
            # The resident shards served their three builds; free the worker
            # memory (the runtime itself stays warm for the next run).
            if dataset is not None:
                dataset.release()
        with tel.span("predict") as span:
            predictions = feature_index.predict(
                result.priors_observations, self._asn_db, config.feature_config,
                known_pairs=set(discovered),
            )
            span.set("predictions", len(predictions))
        result.predictions = predictions
        result.model_build_seconds += time.perf_counter() - build_start

        self._prediction_scan(result, predictions, discovered)
        return result

    def predict_for_known_hosts(
        self,
        seed: SeedScanResult,
        known_observations: Sequence[ScanObservation],
        scan: bool = True,
    ) -> GPSRunResult:
        """Predict remaining services for hosts that are already known.

        This is the deployment mode Section 7 describes for IPv6 (and more
        generally for any hitlist): the address space is too large to sweep
        subnetworks, but "given known addresses that respond on at least one
        port, GPS can be used to predict other responsive services on the
        known addresses".  The priors-scan phase is skipped entirely -- the
        supplied ``known_observations`` play its role -- and only the targeted
        prediction scan is executed (or merely planned when ``scan=False``).

        Args:
            seed: the seed set to learn patterns from.
            known_observations: one or more observed services per known host.
            scan: probe the predictions through the pipeline (``True``) or
                only return the ordered predictions list (``False``).
        """
        config = self.config
        ledger = self.pipeline.ledger
        tel = self.telemetry
        result = GPSRunResult(config=config, seed_observations=list(seed.observations))
        discovered: Set[Pair] = set()
        self._log_batch(result, "seed", ledger.total_probes(),
                        [obs.pair() for obs in seed.observations], discovered)

        build_start = time.perf_counter()
        with tel.span("features.extract"):
            host_features = self._extract_features(seed)
        dataset = self._resident_dataset(host_features)
        try:
            with tel.span("model.build"):
                model = self._build_model(host_features, dataset)
            result.model = model

            with tel.span("index.build"):
                feature_index = self._build_feature_index(host_features, model, dataset)
            result.feature_index = feature_index
        finally:
            if dataset is not None:
                dataset.release()

        known = list(known_observations)
        result.priors_observations = known
        known_pairs = set(discovered) | {obs.pair() for obs in known}
        with tel.span("predict") as span:
            predictions = feature_index.predict(known, self._asn_db,
                                                config.feature_config,
                                                known_pairs=known_pairs)
            span.set("predictions", len(predictions))
        result.predictions = predictions
        result.model_build_seconds = time.perf_counter() - build_start

        if scan:
            self._prediction_scan(result, predictions, discovered)
        return result

    # -- helpers ------------------------------------------------------------------------

    def _prediction_scan(self, result: GPSRunResult,
                         predictions: Sequence[PredictedService],
                         discovered: Set[Pair]) -> None:
        """Probe ``predictions`` in order until exhausted or out of budget.

        Probes within each slice of ``prediction_batch_size`` predictions
        are grouped by (subnetwork, port) so the pipeline's batched layers
        amortize lookups and ledger charges; the probability ordering still
        governs at slice granularity.
        """
        batch_size = self.config.prediction_batch_size
        ledger = self.pipeline.ledger
        budget_probes = self._budget_probes()
        with self.telemetry.span("prediction.scan") as span:
            batches = 0
            for start in range(0, len(predictions), batch_size):
                if budget_probes is not None and ledger.total_probes() >= budget_probes:
                    result.truncated_by_budget = True
                    break
                batch = predictions[start:start + batch_size]
                observations = self.pipeline.scan_pairs(
                    (prediction.pair() for prediction in batch),
                    category=ScanCategory.PREDICTION,
                    batch_prefix_len=PREDICTION_BATCH_PREFIX_LEN,
                )
                result.prediction_observations.extend(observations)
                self._log_batch(result, "prediction", ledger.total_probes(),
                                [obs.pair() for obs in observations], discovered)
                batches += 1
            span.set("batches", batches)
            span.set("observations", len(result.prediction_observations))

    def _extract_features(self, seed: SeedScanResult):
        """Extract the seed's host features on the configured ingest path.

        The engine ingests **columnar**: the seed's observation columns
        (carried by the seed when it came from a columnar dataset split,
        rebuilt from the object rows otherwise) fold straight into encoded
        :class:`~repro.core.features.HostFeatureColumns`, which the resident
        dataset shards as-is.  The reference path keeps the object
        extraction, which remains the equivalence oracle.
        """
        config = self.config
        if config.use_engine:
            batch = seed.batch
            if batch is None:
                # Rebuild columns in the pipeline's status-id space instead
                # of re-encoding into a fresh one per call.
                batch = ObservationBatch.from_observations(
                    seed.observations,
                    statuses=self.pipeline.status_encoder)
            return extract_host_features_columns(batch, self._asn_db,
                                                 config.feature_config)
        return extract_host_features(seed.observations, self._asn_db,
                                     config.feature_config)

    def _resident_dataset(self, host_features) -> Optional[ResidentHostGroups]:
        """Load the seed's host groups into the runtime's workers.

        Returns ``None`` on the reference path; otherwise ships the encoded
        columns once so all three builds of this run fold against
        worker-resident shards.  The caller releases the dataset when the
        builds are done.
        """
        config = self.config
        if not config.use_engine:
            return None
        return ResidentHostGroups(self.runtime(), host_features, config.step_size)

    def _build_model(self, host_features, dataset) -> CooccurrenceModel:
        """Build the Section 5.2 model on the configured execution path.

        ``config.column_backend`` rides along to the engine: with
        ``"numpy"`` its folds run the vectorized kernels
        (:mod:`repro.engine.columns`); the reference path is the oracle and
        always stays stdlib.
        """
        config = self.config
        if config.use_engine:
            return build_model_with_engine(host_features, dataset,
                                           column_backend=config.column_backend)
        return build_model(host_features)

    def _build_priors_plan(self, host_features, model: CooccurrenceModel, dataset):
        """Build the Section 5.3 priors plan on the configured execution path."""
        config = self.config
        if config.use_engine:
            return build_priors_plan_with_engine(
                host_features, model, config.step_size, config.port_domain,
                dataset=dataset)
        return build_priors_plan(host_features, model, config.step_size,
                                 config.port_domain)

    def _build_feature_index(self, host_features, model: CooccurrenceModel,
                             dataset) -> PredictiveFeatureIndex:
        """Build the Section 5.4 most-predictive-feature index on the configured path."""
        config = self.config
        if config.use_engine:
            return build_prediction_index_with_engine(
                host_features, model,
                probability_cutoff=config.probability_cutoff,
                port_domain=config.port_domain,
                min_pattern_support=config.min_pattern_support,
                dataset=dataset,
            )
        return PredictiveFeatureIndex.from_seed(
            host_features, model,
            probability_cutoff=config.probability_cutoff,
            port_domain=config.port_domain,
            min_pattern_support=config.min_pattern_support,
        )

    def _budget_probes(self) -> Optional[int]:
        if self.config.max_full_scans is None:
            return None
        return int(self.config.max_full_scans
                   * self.pipeline.universe.address_space_size())

    @staticmethod
    def _log_batch(result: GPSRunResult, phase: str, cumulative_probes: int,
                   pairs: Sequence[Pair], discovered: Set[Pair]) -> None:
        new_pairs = tuple(pair for pair in pairs if pair not in discovered)
        discovered.update(new_pairs)
        result.discovery_log.append(DiscoveryBatch(
            phase=phase, cumulative_probes=cumulative_probes, pairs=new_pairs
        ))
