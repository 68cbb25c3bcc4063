"""Seed/test splitting (the paper's evaluation methodology, Section 6.1).

"To create seed-scans and test sets for each dataset, we randomly assign each
IP address, and its accompanying services, to either a seed or test set."  The
seed fraction is stated relative to the *address space* (a "2 % Censys seed
set", a "0.5 % LZR seed set"), so for a dataset that itself covers only a
fraction of the space the per-host selection probability is
``seed_fraction / dataset.sample_fraction``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.datasets.builders import GroundTruthDataset
from repro.scanner.pipeline import SeedScanResult
from repro.scanner.records import ScanObservation


@dataclass
class SeedTestSplit:
    """A seed/test split of a ground-truth dataset.

    Attributes:
        dataset: the dataset that was split.
        seed_fraction: the requested seed size, as a fraction of the address
            space (not of the dataset's hosts).
        seed_observations: services of the addresses assigned to the seed.
        test_observations: services of the remaining addresses.
        seed_ips: addresses assigned to the seed.
    """

    dataset: GroundTruthDataset
    seed_fraction: float
    seed_observations: List[ScanObservation]
    test_observations: List[ScanObservation]
    seed_ips: List[int]

    def seed_scan_result(self) -> SeedScanResult:
        """Package the seed half in the shape GPS's orchestrator accepts.

        When the dataset is columnar-backed (every built dataset is), the
        seed also ships in columnar form: the dataset's columns are sliced
        by the seed addresses (rows in dataset order, exactly the rows
        ``seed_observations`` holds) -- a cheap int-append pass -- so GPS's
        fused feature ingest reads flat columns instead of re-deriving them
        from object rows.  An object-backed dataset (loaded observation
        sets) ships only rows; forcing its banners through the interner
        here would charge every run for columns that only fused-engine
        runs read.
        """
        batch = None
        if self.dataset.has_columns():
            columns = self.dataset.columns()
            seed_ips = set(self.seed_ips)
            ips = columns.ips
            batch = columns.select(
                i for i in range(len(ips)) if ips[i] in seed_ips)
        return SeedScanResult(
            sampled_ips=list(self.seed_ips),
            removed_pseudo_services=0,
            ports_scanned=self.dataset.port_domain,
            batch=batch,
            rows=list(self.seed_observations),
        )

    def test_pairs(self) -> Set[Tuple[int, int]]:
        """(ip, port) pairs of the test half."""
        return {obs.pair() for obs in self.test_observations}


def split_seed_test(dataset: GroundTruthDataset, seed_fraction: float,
                    seed: int = 0) -> SeedTestSplit:
    """Randomly assign each dataset address to the seed or the test set.

    Args:
        dataset: the ground-truth dataset to split.
        seed_fraction: seed size as a fraction of the address space; must not
            exceed the fraction of the space the dataset covers.
        seed: RNG seed for the assignment.
    """
    if not 0.0 < seed_fraction <= dataset.sample_fraction:
        raise ValueError(
            f"seed_fraction {seed_fraction} must be in (0, {dataset.sample_fraction}] "
            f"for dataset {dataset.name!r}"
        )
    rng = random.Random(seed)
    selection_probability = seed_fraction / dataset.sample_fraction
    seed_ips = {
        ip for ip in dataset.ips() if rng.random() < selection_probability
    }
    seed_observations = [obs for obs in dataset.observations if obs.ip in seed_ips]
    test_observations = [obs for obs in dataset.observations if obs.ip not in seed_ips]
    return SeedTestSplit(
        dataset=dataset,
        seed_fraction=seed_fraction,
        seed_observations=seed_observations,
        test_observations=test_observations,
        seed_ips=sorted(seed_ips),
    )


def seed_scan_cost_probes(dataset: GroundTruthDataset, seed_fraction: float,
                          all_port_count: int = 65535) -> int:
    """Probes a random seed scan of this size would have cost (Section 5.1).

    The cost is ``seed_fraction x address space x ports swept``: random
    probing pays for every (address, port) probe whether or not anything
    answers.  Used to charge GPS for a dataset-split seed as if it had been
    collected by scanning.
    """
    if seed_fraction <= 0:
        raise ValueError("seed_fraction must be positive")
    port_count = len(dataset.port_domain) if dataset.port_domain else all_port_count
    return int(round(seed_fraction * dataset.address_space_size * port_count))
