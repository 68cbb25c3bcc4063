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
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import GPSConfig
# The e2e spans patch the four engine build_*/extract_* names here (ROADMAP item 1).
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.predictions import (
    PREDICTION_BATCH_PREFIX_LEN,
    PredictedService,
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
from repro.engine.columns import to_numpy
from repro.engine.runtime import EngineRuntime
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import PairColumns, ScanPipeline, SeedScanResult
from repro.scanner.records import ObservationBatch, ScanObservation
from repro.telemetry import NULL_TELEMETRY, Telemetry

Pair = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class DiscoveryBatch:
    """One batch of the discovery log.

    Attributes:
        phase: ``"seed"``, ``"priors"`` or ``"prediction"``.
        cumulative_probes: total probes sent by GPS up to and including this
            batch (across all phases).
        ips: int64 addresses of the services newly discovered by this
            batch, in discovery order.
        ports: their ports, parallel to ``ips``.
    """

    phase: str
    cumulative_probes: int
    ips: np.ndarray
    ports: np.ndarray

    def __len__(self) -> int:
        return len(self.ips)

    @cached_property
    def pairs(self) -> Tuple[Pair, ...]:
        """The newly discovered (ip, port) services, built on first read."""
        return tuple(zip(self.ips.tolist(), self.ports.tolist()))


def _pair_keys(ips: Sequence[int], ports: Sequence[int]) -> np.ndarray:
    """``ip << 16 | port`` (ports are 16-bit) of parallel int columns."""
    return to_numpy(ips) << 16 | to_numpy(ports)


class _DiscoveryLog:
    """A run's discovery log while it runs.

    Every batch's pairs are the next rows of one of a few column sources
    the run grows anyway -- the seed, the priors observations, the
    prediction observations -- so the log records each batch's size only
    and reads the pairs as packed keys when it needs them.  Which pairs are
    *new* (found by no earlier batch) is resolved once, in one array pass,
    when the run is over (:meth:`resolve`).
    """

    def __init__(self) -> None:
        self._sources: List[PairColumns] = []
        self._batches: List[Tuple[str, int, int]] = []

    def follow(self, source: PairColumns) -> None:
        """Take the next batches' pairs from ``source``'s rows, in order."""
        self._sources.append(source)

    def add(self, phase: str, cumulative_probes: int, size: int) -> None:
        """Log a batch: the next ``size`` rows of the sources."""
        self._batches.append((phase, cumulative_probes, size))

    def _keys(self) -> np.ndarray:
        return np.concatenate([_pair_keys(source.ips, source.ports)
                               for source in self._sources])

    def known_keys(self, *extra: np.ndarray) -> np.ndarray:
        """The sorted keys of every pair found so far (and of ``extra``);
        a pair found twice is listed twice."""
        return np.sort(np.concatenate([self._keys(), *extra]))

    def resolve(self) -> List[DiscoveryBatch]:
        """The log: each batch keeps the pairs no earlier batch found.

        A pair is new in the first batch that holds it (repeats inside that
        batch stay, as the batch found them); the batches' order and each
        batch's pair order are kept.
        """
        keys = self._keys()
        sizes = [size for _, _, size in self._batches]
        batch_of = np.repeat(np.arange(len(sizes)), sizes)
        # Equal keys sort into runs; a pair's first batch is its run's least.
        order = np.argsort(keys)
        ordered = keys[order]
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = ordered[1:] != ordered[:-1]
        ordered_batch = batch_of[order]
        first_batch = np.minimum.reduceat(ordered_batch, np.flatnonzero(starts))
        new = np.empty(len(keys), dtype=bool)
        new[order] = ordered_batch == first_batch[np.cumsum(starts) - 1]
        found = keys[new]
        ips, ports = found >> 16, found & 0xFFFF
        bounds = np.concatenate(([0], np.cumsum(np.bincount(
            batch_of[new], minlength=len(sizes))))).tolist()
        return [DiscoveryBatch(phase=phase, cumulative_probes=cumulative_probes,
                               ips=ips[start:stop], ports=ports[start:stop])
                for (phase, cumulative_probes, _), start, stop
                in zip(self._batches, bounds, bounds[1:])]


class _Columns(NamedTuple):
    """Plain parallel (ips, ports) columns."""

    ips: Sequence[int]
    ports: Sequence[int]


@dataclass
class GPSRunResult:
    """Everything a GPS run produced.

    A run keeps its scan results and predictions in columns: after
    :meth:`GPS.run`, ``seed_observations`` (for a seed carrying a batch),
    ``priors_observations`` and ``prediction_observations``
    are :class:`~repro.scanner.records.ObservationBatch` sequences and
    ``predictions`` is a :class:`~repro.core.predictions.Predictions`
    sequence, so a row object is built only when a caller reads that row.

    Attributes:
        config: the configuration the run used.
        seed_observations: the (filtered) seed set GPS learned from.
        priors_observations: services discovered by the priors scan (the
            supplied known observations for :meth:`GPS.predict_for_known_hosts`).
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
    seed_observations: Sequence[ScanObservation]
    priors_observations: Sequence[ScanObservation] = field(default_factory=list)
    prediction_observations: Sequence[ScanObservation] = field(default_factory=list)
    priors_plan: List[PriorsEntry] = field(default_factory=list)
    predictions: Sequence[PredictedService] = field(default_factory=list)
    model: Optional[CooccurrenceModel] = None
    feature_index: Optional[PredictiveFeatureIndex] = None
    discovery_log: List[DiscoveryBatch] = field(default_factory=list)
    model_build_seconds: float = 0.0
    truncated_by_budget: bool = False

    def discovered_pairs(self) -> Set[Pair]:
        """All (ip, port) services GPS discovered, across all phases."""
        pairs: Set[Pair] = set()
        for batch in self.discovery_log:
            pairs.update(zip(batch.ips.tolist(), batch.ports.tolist()))
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
    :class:`~repro.engine.runtime.EngineRuntime` for its whole life: it is
    created on the first engine build, every run reuses it, and
    :meth:`close` (or using the GPS as a context manager) frees it.
    Within a run the seed's encoded columns load into the runtime once,
    the model, priors and prediction-index builds all fold against them,
    and they are released when the builds end.

    With telemetry enabled (``config.telemetry_enabled``, or an explicit
    ``telemetry`` instance -- e.g. one shared with the scan pipeline so scan
    counters and phase spans land in the same export) every run emits one
    ``gps.run`` span tree whose children are the paper's phases: dataset
    build, feature extraction, the resident load (engine only) and the three
    Table 2 builds, plus the two scan loops and the prediction step --
    :func:`~repro.analysis.performance.run_performance_breakdown` reads
    Table 2 off these spans.  Instrumentation never alters the run itself --
    the equivalence tests pin bit-identical outputs with telemetry on and
    off.
    """

    def __init__(self, pipeline: ScanPipeline, config: Optional[GPSConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.pipeline = pipeline
        self.config = config or GPSConfig()
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.config.telemetry_enabled:
            self.telemetry = Telemetry()
        else:
            self.telemetry = NULL_TELEMETRY
        self._asn_db = pipeline.universe.topology.asn_db
        self._runtime: Optional[EngineRuntime] = None

    # -- public API -----------------------------------------------------------------

    def runtime(self) -> Optional[EngineRuntime]:
        """This instance's persistent engine runtime (``None`` without
        ``use_engine``).  Created lazily from ``config.executor``;
        recreated if a previous one was closed."""
        config = self.config
        if not config.use_engine:
            return None
        if self._runtime is None or self._runtime.closed:
            self._runtime = EngineRuntime(
                executor=config.executor, telemetry=self.telemetry)
        return self._runtime

    def close(self) -> None:
        """Free the engine runtime's resident data; idempotent."""
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
                span.set("observations", len(seed.batch))
        elif seed_cost_probes is None:
            port_count = (len(config.port_domain) if config.port_domain
                          else 65535)
            seed_cost_probes = int(round(
                config.seed_fraction * port_count
                * self.pipeline.universe.address_space_size()
            ))
        seed_rows = self._seed_rows(seed)
        if seed_cost_probes:
            ledger.record(ScanCategory.SEED, probes=seed_cost_probes,
                          responses=len(seed_rows))

        result = GPSRunResult(config=config, seed_observations=seed_rows)
        log = _DiscoveryLog()
        self._log_seed(log, seed, ledger.total_probes())

        budget_probes = self._budget_probes()

        # Phases 2-4 computation: model, priors plan and index.  The index
        # reads only the seed and the model, so it is built before the priors
        # scan and the resident columns are freed before any probing.
        self._build(seed, result, priors=True)

        # Phase 3: priors scan (find the first service of every host).
        priors = result.priors_observations = self._empty_batch()
        log.follow(priors)
        with tel.span("priors.scan") as span:
            batches = 0
            for entry in result.priors_plan:
                if budget_probes is not None and ledger.total_probes() >= budget_probes:
                    result.truncated_by_budget = True
                    break
                found = self.pipeline.scan_prefix(entry.port, entry.subnet,
                                                  category=ScanCategory.PRIORS)
                priors.extend(found)
                log.add("priors", ledger.total_probes(), len(found))
                batches += 1
            span.set("batches", batches)
            span.set("observations", len(priors))

        # Phase 4: predict and scan remaining services.
        self._predict(result, priors, log.known_keys())
        self._prediction_scan(result, result.predictions, log)
        result.discovery_log = log.resolve()
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
        result = GPSRunResult(config=self.config,
                              seed_observations=self._seed_rows(seed))
        log = _DiscoveryLog()
        self._log_seed(log, seed, self.pipeline.ledger.total_probes())
        self._build(seed, result, priors=False)

        known = list(known_observations)
        result.priors_observations = known
        self._predict(result, known, log.known_keys(_pair_keys(
            [obs.ip for obs in known], [obs.port for obs in known])))
        if scan:
            self._prediction_scan(result, result.predictions, log)
        result.discovery_log = log.resolve()
        return result

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _seed_rows(seed: SeedScanResult) -> Sequence[ScanObservation]:
        """The seed's rows as the run result holds them: the batch when the
        seed has one (rows build on read), else the seed's object rows."""
        return seed.batch if seed.batch is not None else seed.observations

    @staticmethod
    def _log_seed(log: _DiscoveryLog, seed: SeedScanResult,
                  cumulative_probes: int) -> None:
        """Log the seed as the first batch, read from its columns when it
        has them (no rows are built)."""
        if seed.batch is not None:
            source: PairColumns = seed.batch
        else:
            rows = seed.observations
            source = _Columns([obs.ip for obs in rows], [obs.port for obs in rows])
        log.follow(source)
        log.add("seed", cumulative_probes, len(source.ips))

    def _prediction_scan(self, result: GPSRunResult, predictions: Predictions,
                         log: _DiscoveryLog) -> None:
        """Probe ``predictions`` in order until exhausted or out of budget.

        Each slice of ``prediction_batch_size`` predictions goes to the
        pipeline as columns, probed in (subnetwork, port) batches in one
        array pass; the probability ordering governs at slice granularity.
        The responders accumulate in one batch.
        """
        batch_size = self.config.prediction_batch_size
        ledger = self.pipeline.ledger
        budget_probes = self._budget_probes()
        found_all = result.prediction_observations = self._empty_batch()
        log.follow(found_all)
        with self.telemetry.span("prediction.scan") as span:
            batches = 0
            for start in range(0, len(predictions), batch_size):
                if budget_probes is not None and ledger.total_probes() >= budget_probes:
                    result.truncated_by_budget = True
                    break
                found = self.pipeline.scan_pairs(
                    predictions[start:start + batch_size],
                    category=ScanCategory.PREDICTION,
                    batch_prefix_len=PREDICTION_BATCH_PREFIX_LEN,
                )
                found_all.extend(found)
                log.add("prediction", ledger.total_probes(), len(found))
                batches += 1
            span.set("batches", batches)
            span.set("observations", len(found_all))

    def _empty_batch(self) -> ObservationBatch:
        """An empty batch in the pipeline's banner and status id spaces."""
        return ObservationBatch(banners=self.pipeline.universe.banners,
                                statuses=self.pipeline.status_encoder)

    def _extract_features(self, seed: SeedScanResult):
        """Extract the seed's host features on the configured ingest path.

        The engine ingests **columnar**: the seed's observation columns
        (carried by the seed when it came from a columnar dataset split,
        rebuilt from the object rows otherwise) fold straight into encoded
        :class:`~repro.core.features.HostFeatureColumns`, which the resident
        dataset loads as-is.  The reference path keeps the object
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

    def _build(self, seed: SeedScanResult, result: GPSRunResult,
               priors: bool) -> None:
        """Build the model, the priors plan (with ``priors``) and the index.

        The one build sequence of both run modes: features -> resident load
        (engine only) -> model -> priors plan -> index -> release of the
        resident columns (the runtime itself stays warm for the next run).
        Each step is a span of the run's trace, and the whole counts toward
        ``result.model_build_seconds``.
        """
        config = self.config
        tel = self.telemetry
        start = time.perf_counter()
        with tel.span("features.extract"):
            host_features = self._extract_features(seed)
        dataset = None
        try:
            if config.use_engine:
                with tel.span("resident.load"):
                    dataset = ResidentHostGroups(self.runtime(), host_features,
                                                 config.step_size)
            with tel.span("model.build") as span:
                if config.use_engine:
                    model = build_model_with_engine(host_features, dataset)
                else:
                    model = build_model(host_features)
                span.set("pairs", model.cooccurrence_rows())
            result.model = model
            if priors:
                with tel.span("priors.build") as span:
                    result.priors_plan = self._build_priors_plan(
                        host_features, model, dataset)
                    span.set("entries", len(result.priors_plan))
            with tel.span("index.build") as span:
                result.feature_index = self._build_feature_index(
                    host_features, model, dataset)
                span.set("entries", len(result.feature_index))
        finally:
            if dataset is not None:
                dataset.release()
        result.model_build_seconds += time.perf_counter() - start

    def _predict(self, result: GPSRunResult, observations,
                 known_keys: np.ndarray) -> None:
        """Predict remaining services from ``observations`` into ``result``.

        ``known_keys`` are the sorted ``ip << 16 | port`` keys of the pairs
        already discovered.  The engine runs the index's compiled
        :meth:`~PredictiveFeatureIndex.predict` on them; the reference path
        runs the dict oracle ``predict_reference`` on them as pairs.  The
        time counts toward ``result.model_build_seconds``.
        """
        config = self.config
        index = result.feature_index
        start = time.perf_counter()
        with self.telemetry.span("predict") as span:
            if config.use_engine:
                predictions = index.predict(observations, self._asn_db,
                                            config.feature_config,
                                            known_pairs=known_keys)
            else:
                known_pairs = set(zip((known_keys >> 16).tolist(),
                                      (known_keys & 0xFFFF).tolist()))
                predictions = Predictions.from_services(index.predict_reference(
                    observations, self._asn_db, config.feature_config,
                    known_pairs=known_pairs))
            span.set("predictions", len(predictions))
        result.predictions = predictions
        result.model_build_seconds += time.perf_counter() - start

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
