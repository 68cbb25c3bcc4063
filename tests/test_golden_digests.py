"""Golden digests: what two fixed GPS runs find, cost and emit, pinned.

The equivalence suites compare the engine with the reference *in the same
process*, so a change that moves both the same way passes them.  These
digests pin, at fixed seeds on the small scale, both configurations of two
runs -- a self-seeded quickstart run and a run on the LZR-like dataset split
-- so a change to the scanner, the predict step or the discovery log that
alters any output, in either configuration, fails here.

Per run four digests are pinned, the same for both configurations:

* ``run``: the sorted discoveries plus the ledger, as the end-to-end
  benchmark's reference-digest check computes them;
* ``log``: the ordered discovery log (phase, cumulative probes, new pairs);
* ``scan``: the prediction scan's rows (address, port, status id, banner
  id, TTL) with the pipeline's status id space;
* ``predictions``: the ``Predictions`` columns, predictor tuples decoded.

The values were computed before the prediction scan moved onto the
universe's packed service index; a deliberate change of behaviour must
update them and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.scenarios import SMALL_SCALE, make_lzr_dataset, make_universe
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.split import split_seed_test
from repro.scanner.pipeline import ScanPipeline

GOLDEN = {
    "quickstart": {
        "run": ("cd4d4d90ed4ba678336a3f9e2904d46e"
                "5d9eaf4a1c44ae802e969474aea5d5df"),
        "log": ("82185edad4f9feca0717315687453ed1"
                "b90e95110aa11a4cc4c60e115c5b9431"),
        "scan": ("6c26714b53d4207c75ebab7a18091497"
                 "208b376e0ea67163b54ac458e86a90f4"),
        "predictions": ("00e02982a08eae59031cd01367b1ff72"
                        "4d801ad0c55646b7242566b52f2afbb7"),
    },
    "lzr-split": {
        "run": ("75c8030f9e07462b7b2eb3c275bea5a5"
                "91736b605ee6e99cac64a32a7e9d7acb"),
        "log": ("0bea7c0d2042944a8f41c71775eaecba"
                "223e0267a27eb3eb1e3633ef6371505d"),
        "scan": ("5080f83bdcb443b87659bc7d9ed11f00"
                 "b0e28fc5db203d225e30faeb0ab97868"),
        "predictions": ("217b42df34022c480420695990b62a37"
                        "ca1a33f3d834703f45360300a9fecb05"),
    },
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def run_digest(result, pipeline: ScanPipeline) -> str:
    """Sorted discoveries plus the ledger (the benchmark's reference digest)."""
    digest = hashlib.sha256()
    digest.update(repr(sorted(result.discovered_pairs())).encode())
    digest.update(repr(sorted(pipeline.ledger.snapshot().items())).encode())
    return digest.hexdigest()


def _digests(result, pipeline: ScanPipeline):
    found = result.prediction_observations
    predictions = result.predictions
    table = predictions.predictor_table
    return {
        "run": run_digest(result, pipeline),
        "log": _sha([(batch.phase, batch.cumulative_probes, tuple(batch.pairs))
                     for batch in result.discovery_log]),
        "scan": _sha((list(found.ips), list(found.ports), list(found.status),
                      list(found.banner_ids), list(found.ttls),
                      pipeline.status_encoder.values())),
        "predictions": _sha((list(predictions.ips), list(predictions.ports),
                             list(predictions.probabilities),
                             [table[i] for i in predictions.predictor_ids])),
    }


@pytest.fixture(scope="module")
def golden_runs():
    """Both configurations of both runs, on one small universe."""
    universe = make_universe(SMALL_SCALE, seed=1)
    dataset = make_lzr_dataset(universe, SMALL_SCALE)
    split = split_seed_test(dataset, dataset.sample_fraction / 2, seed=3)
    runs = {
        "quickstart": (dict(seed_fraction=0.05, step_size=16), None),
        "lzr-split": (dict(seed_fraction=dataset.sample_fraction / 2,
                           port_domain=dataset.port_domain),
                      split.seed_scan_result()),
    }
    out = {}
    for name, (base, seed) in runs.items():
        for mode, engine in (("engine", {"use_engine": True,
                                         "executor": "serial"}),
                             ("reference", {})):
            pipeline = ScanPipeline(universe)
            with GPS(pipeline, GPSConfig(**base, **engine)) as gps:
                result = gps.run(seed=seed,
                                 seed_cost_probes=0 if seed is not None else None)
            out[name, mode] = _digests(result, pipeline)
    return out


@pytest.mark.parametrize("mode", ["engine", "reference"])
@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_golden_digests(golden_runs, run, mode):
    assert golden_runs[run, mode] == GOLDEN[run]
