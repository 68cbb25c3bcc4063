"""Coverage-versus-bandwidth experiments (Figure 2) and parameter sweeps (Figures 5-6).

The experiment shape is always the same: build a ground-truth dataset, split
it into seed and test halves, run GPS from the seed, and compare its
bandwidth-annotated discovery curve against the "exhaustive, optimal order"
and oracle references computed from the same ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.scenarios import run_gps_on_dataset
from repro.baselines.exhaustive import optimal_port_order_curve, oracle_curve
from repro.core.config import FeatureConfig
from repro.core.gps import GPSRunResult
from repro.core.metrics import (
    CoveragePoint,
    bandwidth_savings,
    bandwidth_to_reach,
    coverage_curve,
)
from repro.datasets.builders import GroundTruthDataset
from repro.internet.universe import Universe


@dataclass
class CoverageExperiment:
    """Result of one Figure 2-style experiment.

    Attributes:
        dataset_name: which ground truth was used.
        seed_fraction: seed size (fraction of the address space).
        step_size: GPS scanning step size (prefix length).
        gps_points: GPS coverage curve.
        optimal_points: "exhaustive, optimal order" reference curve.
        oracle_points: oracle reference curve.
        run: the underlying GPS run (model, plan, predictions, log).
    """

    dataset_name: str
    seed_fraction: float
    step_size: int
    gps_points: List[CoveragePoint]
    optimal_points: List[CoveragePoint]
    oracle_points: List[CoveragePoint]
    run: GPSRunResult

    def final_fraction(self) -> float:
        """Fraction of all ground-truth services GPS eventually finds."""
        return self.gps_points[-1].fraction if self.gps_points else 0.0

    def final_normalized_fraction(self) -> float:
        """Normalized fraction GPS eventually finds."""
        return self.gps_points[-1].normalized_fraction if self.gps_points else 0.0

    def savings_at(self, target_fraction: float, normalized: bool = False) -> Optional[float]:
        """Bandwidth savings versus optimal port-order probing at a coverage level."""
        return bandwidth_savings(self.gps_points, self.optimal_points,
                                 target_fraction, normalized=normalized)

    def gps_bandwidth_at(self, target_fraction: float,
                         normalized: bool = False) -> Optional[float]:
        """GPS bandwidth (100 % scans) to reach a coverage level."""
        return bandwidth_to_reach(self.gps_points, target_fraction, normalized=normalized)


def run_coverage_experiment(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fraction: float,
    step_size: int = 16,
    split_seed: int = 0,
    feature_config: Optional[FeatureConfig] = None,
    max_full_scans: Optional[float] = None,
    seed_cost_mode: str = "scan",
    executor: Optional[str] = None,
    telemetry=None,
    seed_override=None,
) -> CoverageExperiment:
    """Run GPS against a dataset and compute the Figure 2 curves.

    ``executor`` routes the run's engine builds through the engine runtime
    (see :func:`repro.analysis.scenarios.run_gps_on_dataset`); the curves
    are identical to the reference run's.  ``telemetry`` instruments
    the run (phase spans, scan counters) without changing the curves.
    ``seed_override`` replaces the dataset-split seed with a pre-collected
    seed scan (a reloaded snapshot -- the Section 6.5 reuse mode); coverage
    is still evaluated against the full dataset ground truth.
    """
    run, pipeline, _ = run_gps_on_dataset(
        universe, dataset, seed_fraction, step_size=step_size,
        split_seed=split_seed, feature_config=feature_config,
        max_full_scans=max_full_scans, seed_cost_mode=seed_cost_mode,
        executor=executor, telemetry=telemetry, seed_override=seed_override,
    )
    ground_truth = dataset.pairs()
    gps_points = coverage_curve(run.log_as_tuples(), ground_truth,
                                dataset.address_space_size)
    return CoverageExperiment(
        dataset_name=dataset.name,
        seed_fraction=seed_fraction,
        step_size=step_size,
        gps_points=gps_points,
        optimal_points=optimal_port_order_curve(dataset),
        oracle_points=oracle_curve(dataset),
        run=run,
    )


def run_step_size_sweep(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fraction: float,
    step_sizes: Sequence[int] = (0, 4, 8, 12, 16, 20),
    split_seed: int = 0,
) -> Dict[int, CoverageExperiment]:
    """Appendix D.1 (Figure 5): how the scanning step size trades bandwidth for recall."""
    results: Dict[int, CoverageExperiment] = {}
    for step_size in step_sizes:
        results[step_size] = run_coverage_experiment(
            universe, dataset, seed_fraction, step_size=step_size,
            split_seed=split_seed,
        )
    return results


def run_seed_size_sweep(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fractions: Sequence[float] = (0.001, 0.005, 0.01, 0.02),
    step_size: int = 16,
    split_seed: int = 0,
) -> Dict[float, CoverageExperiment]:
    """Appendix D.2 (Figure 6): how the seed size changes what GPS can find.

    The seed-collection bandwidth is included in each curve (GPS charges the
    seed scan to its ledger), matching the figure's "including collecting the
    seed" accounting.
    """
    results: Dict[float, CoverageExperiment] = {}
    for seed_fraction in seed_fractions:
        results[seed_fraction] = run_coverage_experiment(
            universe, dataset, seed_fraction, step_size=step_size,
            split_seed=split_seed,
        )
    return results


def coverage_summary_rows(experiment: CoverageExperiment,
                          targets: Sequence[float] = (0.5, 0.8, 0.9, 0.94)) -> List[Tuple[str, str, str]]:
    """Rows of (coverage target, GPS bandwidth, savings vs optimal order).

    Used by the Figure 2 benchmark to print the paper-style "GPS finds X % of
    services using N x less bandwidth" statements.
    """
    rows: List[Tuple[str, str, str]] = []
    for target in targets:
        gps_bandwidth = experiment.gps_bandwidth_at(target)
        savings = experiment.savings_at(target)
        rows.append((
            f"{target:.0%}",
            "n/a" if gps_bandwidth is None else f"{gps_bandwidth:.2f}",
            "n/a" if savings is None else f"{savings:.1f}x",
        ))
    return rows
