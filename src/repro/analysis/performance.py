"""Performance breakdown (Table 2) and compute-scaling measurements.

Table 2 decomposes a full GPS run into scanning, computation and data-transfer
phases and reports bandwidth, computation time (single core), wall-clock time
and data volume for each.  The reproduction runs :meth:`GPS.run` once on one
dataset split, on the in-process engine (one core), and reads the computation rows off the run's own phase spans:
"predicting first service" (PFS) is feature extraction, the
host groups, the model build and the priors plan; "predicting remaining
services" (PRS) is the index build and the prediction step.  Probe counts come
from the run's bandwidth ledger and data sizes from its result.  The paper's
parallel figure (BigQuery) has no offline counterpart that a measurement here
backs, so the breakdown reports the one measured compute column.  What depends
on infrastructure that does not exist offline (line-rate scan time,
upload/download time at a given link speed) is modelled with the same cost
model as the paper: probes x packet size / line rate and bytes / transfer rate.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.config import GPSConfig
from repro.core.gps import GPS, GPSRunResult
from repro.datasets.builders import GroundTruthDataset
from repro.datasets.io import observation_to_dict
from repro.datasets.split import seed_scan_cost_probes, split_seed_test
from repro.internet.universe import Universe
from repro.scanner.bandwidth import BITS_PER_PROBE, BandwidthLedger, ScanCategory
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.telemetry import Telemetry

#: The ``gps.run`` child spans each computation row of Table 2 sums.
PFS_SPANS = ("features.extract", "resident.load", "model.build", "priors.build")
PRS_SPANS = ("index.build", "predict")


@dataclass
class PhaseRow:
    """One row of the Table 2 breakdown.

    Attributes:
        name: phase label (matching the paper's row names).
        probes: probes sent in this phase (0 for pure-compute phases).
        full_scans: the same bandwidth in "100 % scans".
        compute_seconds_single_core: measured single-core computation time.
        wall_seconds: modelled wall-clock time of the phase (scan time at the
            configured line rate, transfer time at the configured link speed,
            or the measured compute time for computation phases).
        data_bytes: data produced/transferred by the phase.
    """

    name: str
    probes: int = 0
    full_scans: float = 0.0
    compute_seconds_single_core: float = 0.0
    wall_seconds: float = 0.0
    data_bytes: int = 0


@dataclass
class PerformanceBreakdown:
    """The full Table 2 analogue."""

    rows: List[PhaseRow] = field(default_factory=list)
    seed_scan_rate_bps: float = 1.5e9
    prediction_scan_rate_bps: float = 50e6
    transfer_rate_bytes_per_s: float = 25e6

    def total_wall_seconds(self) -> float:
        """Sum of modelled wall-clock time across phases."""
        return sum(row.wall_seconds for row in self.rows)

    def total_compute_seconds_single_core(self) -> float:
        """Total single-core computation time."""
        return sum(row.compute_seconds_single_core for row in self.rows)

    def total_full_scans(self) -> float:
        """Total bandwidth in 100 % scans."""
        return sum(row.full_scans for row in self.rows)


def _observations_bytes(observations: Sequence) -> int:
    """Approximate serialized size of a set of observations (JSON lines)."""
    return sum(len(json.dumps(observation_to_dict(obs))) + 1 for obs in observations)


def _traced_run(universe: Universe, config: GPSConfig, seed: SeedScanResult,
                seed_cost: int
                ) -> Tuple[GPSRunResult, BandwidthLedger, Dict[str, float]]:
    """Run GPS once under a fresh :class:`Telemetry`.

    Returns the result, the run's ledger and the seconds of each phase span
    (the children of the ``gps.run`` root), summed per span name.
    """
    telemetry = Telemetry()
    pipeline = ScanPipeline(universe)
    with GPS(pipeline, config, telemetry=telemetry) as gps:
        result = gps.run(seed=seed, seed_cost_probes=seed_cost)
    (root,) = telemetry.tracer.roots
    span_seconds: Dict[str, float] = defaultdict(float)
    for span in root.children:
        span_seconds[span.name] += span.duration_s
    return result, pipeline.ledger, span_seconds


def run_performance_breakdown(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fraction: float = 0.01,
    step_size: int = 16,
    split_seed: int = 0,
    seed_scan_rate_bps: float = 1.5e9,
    prediction_scan_rate_bps: float = 50e6,
    transfer_rate_bytes_per_s: float = 25e6,
) -> PerformanceBreakdown:
    """Measure/model the Table 2 breakdown for one GPS configuration.

    GPS runs once, on the in-process engine; every row reads that run.  The
    PFS row includes holding the seed's encoded columns as host groups.
    """
    split = split_seed_test(dataset, seed_fraction, seed=split_seed)
    seed = split.seed_scan_result()
    seed_cost = seed_scan_cost_probes(dataset, seed_fraction)
    config = GPSConfig(seed_fraction=seed_fraction, step_size=step_size,
                       port_domain=dataset.port_domain, use_engine=True,
                       executor="serial")
    result, ledger, span_seconds = _traced_run(universe, config, seed, seed_cost)
    space = universe.address_space_size()

    breakdown = PerformanceBreakdown(
        seed_scan_rate_bps=seed_scan_rate_bps,
        prediction_scan_rate_bps=prediction_scan_rate_bps,
        transfer_rate_bytes_per_s=transfer_rate_bytes_per_s,
    )

    def scan_row(name: str, category: ScanCategory, rate_bps: float) -> PhaseRow:
        probes = ledger.total_probes(category)
        return PhaseRow(name=name, probes=probes, full_scans=probes / space,
                        wall_seconds=probes * BITS_PER_PROBE / rate_bps)

    def compute_row(name: str, spans: Sequence[str], data_bytes: int) -> PhaseRow:
        seconds = sum(span_seconds[span] for span in spans)
        return PhaseRow(name=name, compute_seconds_single_core=seconds,
                        wall_seconds=seconds, data_bytes=data_bytes)

    def transfer_row(name: str, data_bytes: int) -> PhaseRow:
        return PhaseRow(name=name, data_bytes=data_bytes,
                        wall_seconds=data_bytes / transfer_rate_bytes_per_s)

    seed_bytes = _observations_bytes(result.seed_observations)
    priors_bytes = _observations_bytes(result.priors_observations)
    plan_bytes = sum(len(entry.describe()) + 1 for entry in result.priors_plan)
    predictions_bytes = 24 * len(result.predictions)  # ip + port + probability
    breakdown.rows = [
        scan_row("1% seed scan (if needed)" if abs(seed_fraction - 0.01) < 1e-9
                 else f"{seed_fraction:.2%} seed scan (if needed)",
                 ScanCategory.SEED, seed_scan_rate_bps),
        transfer_row("Seed scan upload", seed_bytes),
        compute_row("Predicting first service (PFS)", PFS_SPANS, seed_bytes),
        transfer_row("PFS download", plan_bytes),
        scan_row("PFS scan", ScanCategory.PRIORS, prediction_scan_rate_bps),
        transfer_row("PFS scan upload", priors_bytes),
        compute_row("Predicting remaining services (PRS)", PRS_SPANS,
                    priors_bytes),
        transfer_row("PRS download", predictions_bytes),
        scan_row("PRS scan", ScanCategory.PREDICTION, prediction_scan_rate_bps),
    ]
    return breakdown
