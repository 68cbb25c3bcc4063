"""Shared experiment scenarios: scales, universes, datasets and standard GPS runs.

Every benchmark and example builds its world through this module so that the
same universe/dataset configurations are exercised everywhere.  Two scales are
provided:

* ``SMALL_SCALE`` -- seconds-fast, used by the test suite and the quickstart;
* ``MEDIUM_SCALE`` -- the default for benchmarks, big enough for the curves to
  be smooth while still running on a laptop.

The paper's experiments operate on the real Internet (3.7 billion addresses);
the scales here shrink the address space while keeping the relative quantities
(seed fractions, step sizes, bandwidth in "100 % scans") meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.gps import GPS, GPSRunResult
from repro.datasets.builders import (
    GroundTruthDataset,
    build_censys_like,
    build_lzr_like,
)
from repro.datasets.split import SeedTestSplit, seed_scan_cost_probes, split_seed_test
from repro.internet.topology import TopologyConfig
from repro.internet.universe import Universe, UniverseConfig, generate_universe
from repro.scanner.pipeline import ScanPipeline


@dataclass(frozen=True)
class ExperimentScale:
    """A named experiment size.

    Attributes:
        name: scale label.
        host_count: number of real hosts in the synthetic universe.
        as_count: autonomous systems in the topology.
        prefixes_per_as: /16 blocks announced per AS.
        censys_top_ports: port count of the Censys-like dataset.
        lzr_sample_fraction: address-space fraction of the LZR-like dataset.
        default_seed_fraction: seed size used by the standard runs.
    """

    name: str
    host_count: int
    as_count: int
    prefixes_per_as: int
    censys_top_ports: int
    lzr_sample_fraction: float
    default_seed_fraction: float

    def universe_config(self, seed: int = 1) -> UniverseConfig:
        """The universe configuration for this scale."""
        return UniverseConfig(
            host_count=self.host_count,
            seed=seed,
            topology=TopologyConfig(as_count=self.as_count,
                                    prefixes_per_as=self.prefixes_per_as),
        )


SMALL_SCALE = ExperimentScale(
    name="small",
    host_count=2500,
    as_count=8,
    prefixes_per_as=1,
    censys_top_ports=80,
    lzr_sample_fraction=0.10,
    default_seed_fraction=0.05,
)

MEDIUM_SCALE = ExperimentScale(
    name="medium",
    host_count=12000,
    as_count=12,
    prefixes_per_as=1,
    censys_top_ports=300,
    lzr_sample_fraction=0.05,
    default_seed_fraction=0.03,
)


def make_universe(scale: ExperimentScale = SMALL_SCALE, seed: int = 1) -> Universe:
    """Generate the synthetic universe for a scale (deterministic per seed)."""
    return generate_universe(scale.universe_config(seed=seed))


def make_censys_dataset(universe: Universe,
                        scale: ExperimentScale = SMALL_SCALE) -> GroundTruthDataset:
    """The scale's Censys-like ground truth (100 % scan of the top-N ports)."""
    return build_censys_like(universe, top_ports=scale.censys_top_ports)


def make_lzr_dataset(universe: Universe,
                     scale: ExperimentScale = SMALL_SCALE,
                     seed: int = 11) -> GroundTruthDataset:
    """The scale's LZR-like ground truth (sampled scan across all ports)."""
    return build_lzr_like(universe, sample_fraction=scale.lzr_sample_fraction,
                          seed=seed, min_responsive_ips=3)


def run_gps_on_dataset(
    universe: Universe,
    dataset: GroundTruthDataset,
    seed_fraction: float,
    step_size: int = 16,
    split_seed: int = 0,
    feature_config: Optional[FeatureConfig] = None,
    max_full_scans: Optional[float] = None,
    use_engine: bool = False,
    seed_cost_mode: str = "scan",
    executor: Optional[str] = None,
    telemetry=None,
    seed_override=None,
) -> Tuple[GPSRunResult, ScanPipeline, SeedTestSplit]:
    """Run GPS in dataset-split mode (the paper's evaluation methodology).

    The dataset is split into a seed and a test half by address; GPS trains on
    the seed half, scans the universe through a fresh pipeline, and is charged
    for the seed according to ``seed_cost_mode``:

    * ``"scan"`` -- charge the full random-probing cost the seed scan would
      have required (seed fraction x ports swept x address space);
    * ``"available"`` -- charge nothing, modelling the paper's "use an
      available seed set (e.g. the LZR dataset)" deployment mode
      (Section 5.1); used by the all-port experiments, where collecting a seed
      at this reproduction's scale would otherwise dominate every curve.

    ``seed_override`` (a :class:`~repro.scanner.pipeline.SeedScanResult`)
    replaces the split's seed half entirely -- the Section 6.5 "reuse an
    existing seed scan" deployment mode, fed by a reloaded snapshot.  The
    split is still computed (the test half stays well-defined) but GPS
    trains on the supplied seed and the ``seed_cost_mode`` charge applies to
    it unchanged.

    ``executor`` selects the engine-runtime backend (``"serial"``; implies
    ``use_engine``); the runtime lives for this one run and is closed
    before returning.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) instruments the
    run's pipeline and orchestrator -- phase spans, scan counters, engine
    timings -- without changing any output.

    Returns the run result, the pipeline (whose ledger holds the bandwidth
    accounting) and the split (for evaluating against the test half).
    """
    if seed_cost_mode not in ("scan", "available"):
        raise ValueError(f"unknown seed_cost_mode: {seed_cost_mode}")
    split = split_seed_test(dataset, seed_fraction, seed=split_seed)
    pipeline = ScanPipeline(universe, telemetry=telemetry)
    engine_kwargs = {}
    if executor is not None:
        engine_kwargs = {"executor": executor}
    config = GPSConfig(
        seed_fraction=seed_fraction,
        step_size=step_size,
        port_domain=dataset.port_domain,
        feature_config=feature_config or FeatureConfig(),
        max_full_scans=max_full_scans,
        use_engine=use_engine or executor is not None,
        **engine_kwargs,
    )
    if seed_cost_mode == "scan":
        seed_cost = seed_scan_cost_probes(dataset, seed_fraction)
    else:
        seed_cost = 0
    seed_result = seed_override if seed_override is not None else split.seed_scan_result()
    with GPS(pipeline, config, telemetry=telemetry) as gps:
        result = gps.run(seed=seed_result, seed_cost_probes=seed_cost)
    return result, pipeline, split
