"""Performance breakdown (Table 2) and compute-scaling measurements.

Table 2 decomposes a full GPS run into scanning, computation and data-transfer
phases and reports bandwidth, computation time (single core), wall-clock time
and data volume for each.  The reproduction measures what it can measure
directly (model-building and prediction computation, single core versus the
engine runtime on a thread pool) and models what depends on infrastructure
that does not exist offline (line-rate scan time, upload/download time at a
given link speed), using the same cost model as the paper: probes x packet
size / line rate and bytes / transfer rate.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features, extract_host_features_columns
from repro.core.gps import GPS
from repro.core.model import build_model, build_model_with_engine
from repro.core.predictions import (
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.builders import GroundTruthDataset
from repro.datasets.io import observation_to_dict
from repro.datasets.split import seed_scan_cost_probes, split_seed_test
from repro.engine.runtime import EngineRuntime
from repro.internet.universe import Universe
from repro.scanner.bandwidth import BITS_PER_PROBE, ScanCategory
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ObservationBatch


@dataclass
class PhaseRow:
    """One row of the Table 2 breakdown.

    Attributes:
        name: phase label (matching the paper's row names).
        probes: probes sent in this phase (0 for pure-compute phases).
        full_scans: the same bandwidth in "100 % scans".
        compute_seconds_single_core: measured single-core computation time.
        compute_seconds_parallel: measured computation time on the parallel
            engine (None when the phase has no parallel implementation).
        wall_seconds: modelled wall-clock time of the phase (scan time at the
            configured line rate, transfer time at the configured link speed,
            or the parallel compute time for computation phases).
        data_bytes: data produced/transferred by the phase.
    """

    name: str
    probes: int = 0
    full_scans: float = 0.0
    compute_seconds_single_core: float = 0.0
    compute_seconds_parallel: Optional[float] = None
    wall_seconds: float = 0.0
    data_bytes: int = 0


@dataclass
class PerformanceBreakdown:
    """The full Table 2 analogue."""

    rows: List[PhaseRow] = field(default_factory=list)
    seed_scan_rate_bps: float = 1.5e9
    prediction_scan_rate_bps: float = 50e6
    transfer_rate_bytes_per_s: float = 25e6
    parallel_workers: int = 1

    def total_wall_seconds(self) -> float:
        """Sum of modelled wall-clock time across phases."""
        return sum(row.wall_seconds for row in self.rows)

    def total_compute_seconds_single_core(self) -> float:
        """Total single-core computation time."""
        return sum(row.compute_seconds_single_core for row in self.rows)

    def total_full_scans(self) -> float:
        """Total bandwidth in 100 % scans."""
        return sum(row.full_scans for row in self.rows)

    def speedup(self) -> Optional[float]:
        """Single-core versus parallel compute speedup across compute phases."""
        single = sum(row.compute_seconds_single_core for row in self.rows
                     if row.compute_seconds_parallel is not None)
        parallel = sum(row.compute_seconds_parallel for row in self.rows
                       if row.compute_seconds_parallel is not None)
        if parallel and parallel > 0:
            return single / parallel
        return None


def _observations_bytes(observations: Sequence) -> int:
    """Approximate serialized size of a set of observations (JSON lines)."""
    return sum(len(json.dumps(observation_to_dict(obs))) + 1 for obs in observations)


def run_performance_breakdown(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fraction: float = 0.01,
    step_size: int = 16,
    split_seed: int = 0,
    workers: int = 4,
    seed_scan_rate_bps: float = 1.5e9,
    prediction_scan_rate_bps: float = 50e6,
    transfer_rate_bytes_per_s: float = 25e6,
) -> PerformanceBreakdown:
    """Measure/model the Table 2 breakdown for one GPS configuration.

    Computation phases are run twice -- once single-core, once on the engine
    runtime's ``thread`` executor with ``workers`` workers -- so the
    breakdown can report the speedup the paper attributes to a highly
    parallel execution environment.  The engine's timed regions include
    loading the seed's encoded columns into the workers.
    """
    split = split_seed_test(dataset, seed_fraction, seed=split_seed)
    feature_config = FeatureConfig()
    asn_db = universe.topology.asn_db
    space = universe.address_space_size()

    breakdown = PerformanceBreakdown(
        seed_scan_rate_bps=seed_scan_rate_bps,
        prediction_scan_rate_bps=prediction_scan_rate_bps,
        transfer_rate_bytes_per_s=transfer_rate_bytes_per_s,
        parallel_workers=workers,
    )

    # -- Phase: seed scan (bandwidth-modelled; the data already exists) -------------
    seed_probes = seed_scan_cost_probes(dataset, seed_fraction)
    seed_bytes = _observations_bytes(split.seed_observations)
    breakdown.rows.append(PhaseRow(
        name="1% seed scan (if needed)" if abs(seed_fraction - 0.01) < 1e-9
        else f"{seed_fraction:.2%} seed scan (if needed)",
        probes=seed_probes,
        full_scans=seed_probes / space,
        wall_seconds=seed_probes * BITS_PER_PROBE / seed_scan_rate_bps,
    ))
    breakdown.rows.append(PhaseRow(
        name="Seed scan upload",
        data_bytes=seed_bytes,
        wall_seconds=seed_bytes / transfer_rate_bytes_per_s,
    ))

    # -- Phase: predicting the first service (computation) ---------------------------
    start = time.perf_counter()
    host_features = extract_host_features(split.seed_observations, asn_db, feature_config)
    model_single = build_model(host_features)
    priors_plan = build_priors_plan(host_features, model_single, step_size,
                                    dataset.port_domain)
    pfs_single = time.perf_counter() - start

    # The priors-scan phase below needs the pipeline anyway; creating it
    # here lets the columnar rebuild share its status-id space.
    pipeline = ScanPipeline(universe)

    # The engine measurement runs the engine's own ingest: a dataset split
    # hands GPS the seed as a pre-sliced column batch (see
    # SeedTestSplit.seed_scan_result), so the timed region covers exactly
    # what an engine run computes -- columns -> encoded host/service/predictor
    # columns -> resident load -> model and priors builds.  Outputs are
    # identical to the single-core rows above.  The index build shares the
    # resident load, so it is timed here too and joins the PRS row below.
    seed_batch = split.seed_scan_result().batch
    if seed_batch is None:  # object-backed dataset: rebuild columns untimed
        seed_batch = ObservationBatch.from_observations(
            split.seed_observations, statuses=pipeline.status_encoder)
    with EngineRuntime(executor="thread", num_workers=workers) as runtime:
        start = time.perf_counter()
        host_columns = extract_host_features_columns(seed_batch, asn_db,
                                                     feature_config)
        resident = ResidentHostGroups(runtime, host_columns, step_size)
        model_parallel = build_model_with_engine(host_columns, resident)
        build_priors_plan_with_engine(host_columns, model_parallel, step_size,
                                      dataset.port_domain, dataset=resident)
        pfs_parallel = time.perf_counter() - start

        start = time.perf_counter()
        index_parallel = build_prediction_index_with_engine(
            host_columns, model_parallel, port_domain=dataset.port_domain,
            dataset=resident)
        index_parallel_seconds = time.perf_counter() - start

    plan_bytes = sum(len(entry.describe()) + 1 for entry in priors_plan)
    breakdown.rows.append(PhaseRow(
        name="Predicting first service (PFS)",
        compute_seconds_single_core=pfs_single,
        compute_seconds_parallel=pfs_parallel,
        wall_seconds=pfs_parallel,
        data_bytes=_observations_bytes(split.seed_observations),
    ))
    breakdown.rows.append(PhaseRow(
        name="PFS download",
        data_bytes=plan_bytes,
        wall_seconds=plan_bytes / transfer_rate_bytes_per_s,
    ))

    # -- Phase: priors scan (executed against the universe) ---------------------------
    priors_batch = ObservationBatch(banners=universe.banners,
                                    statuses=pipeline.status_encoder)
    for entry in priors_plan:
        priors_batch.extend(
            pipeline.scan_prefix(entry.port, entry.subnet, category=ScanCategory.PRIORS)
        )
    priors_observations = priors_batch.materialize()
    priors_probes = pipeline.ledger.total_probes(ScanCategory.PRIORS)
    priors_bytes = _observations_bytes(priors_observations)
    breakdown.rows.append(PhaseRow(
        name="PFS scan",
        probes=priors_probes,
        full_scans=priors_probes / space,
        wall_seconds=priors_probes * BITS_PER_PROBE / prediction_scan_rate_bps,
    ))
    breakdown.rows.append(PhaseRow(
        name="PFS scan upload",
        data_bytes=priors_bytes,
        wall_seconds=priors_bytes / transfer_rate_bytes_per_s,
    ))

    # -- Phase: predicting remaining services (computation) ----------------------------
    start = time.perf_counter()
    index = PredictiveFeatureIndex.from_seed(host_features, model_single,
                                             port_domain=dataset.port_domain)
    known = {obs.pair() for obs in split.seed_observations}
    known.update(obs.pair() for obs in priors_observations)
    predictions = index.predict_reference(priors_observations, asn_db,
                                          feature_config, known_pairs=known)
    prs_single = time.perf_counter() - start

    # The engine row predicts as an engine GPS run does: compiled tables
    # over the priors columns.
    start = time.perf_counter()
    index_parallel.predict(priors_batch, asn_db, feature_config,
                           known_pairs=known)
    prs_parallel = index_parallel_seconds + time.perf_counter() - start

    predictions_bytes = sum(24 for _ in predictions)  # ip + port + probability per line
    breakdown.rows.append(PhaseRow(
        name="Predicting remaining services (PRS)",
        compute_seconds_single_core=prs_single,
        compute_seconds_parallel=prs_parallel,
        wall_seconds=prs_parallel,
        data_bytes=priors_bytes,
    ))
    breakdown.rows.append(PhaseRow(
        name="PRS download",
        data_bytes=predictions_bytes,
        wall_seconds=predictions_bytes / transfer_rate_bytes_per_s,
    ))

    # -- Phase: prediction scan ---------------------------------------------------------
    prediction_probes = len(predictions)
    breakdown.rows.append(PhaseRow(
        name="PRS scan",
        probes=prediction_probes,
        full_scans=prediction_probes / space,
        wall_seconds=prediction_probes * BITS_PER_PROBE / prediction_scan_rate_bps,
    ))
    return breakdown
