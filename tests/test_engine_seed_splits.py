"""Engine builds against the reference builds on many seed scans.

Each case is one seed/test split of the test universe's ground truth: both
datasets (Censys-like and LZR-like), four seed fractions and three split
seeds.  The seed scans differ in size, port mix and in how many of their hosts
join at all, so together they cover host sets a single fixed seed does not.
For every split the engine's model, priors plan and prediction index equal
the reference builds, and the engine-built index predicts what the reference
index's dictionary oracle predicts on the split's test observations.
"""

from __future__ import annotations

import pytest

from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features
from repro.core.model import build_model
from repro.core.predictions import PredictiveFeatureIndex
from repro.core.priors import build_priors_plan
from repro.datasets.split import split_seed_test
from tests.conftest import engine_builds

#: How many of a split's test observations the prediction check runs on.
PREDICTED_OBSERVATIONS = 300

SPLITS = [
    pytest.param((dataset, fraction, split_seed),
                 id=f"{dataset}-{fraction}-seed{split_seed}")
    for dataset in ("censys", "lzr")
    for fraction in (0.02, 0.05, 0.1, 0.15)
    for split_seed in (1, 2, 3)
]


@pytest.fixture(scope="module", params=SPLITS)
def split_builds(request, universe, censys_dataset, lzr_dataset):
    """One split's reference and engine builds (computed once per split)."""
    name, fraction, split_seed = request.param
    dataset = {"censys": censys_dataset, "lzr": lzr_dataset}[name]
    split = split_seed_test(dataset, seed_fraction=fraction, seed=split_seed)
    hosts = extract_host_features(split.seed_observations, universe.topology.asn_db,
                                  FeatureConfig())
    model = build_model(hosts)
    reference = (model, build_priors_plan(hosts, model, 16, dataset.port_domain),
                 PredictiveFeatureIndex.from_seed(hosts, model,
                                                  port_domain=dataset.port_domain))
    engine = engine_builds(hosts, port_domain=dataset.port_domain)
    return split, reference, engine


def test_model_matches_reference(split_builds):
    _, (model, _, _), (built, _, _) = split_builds
    assert model.denominators
    assert built.denominators == model.denominators
    assert {k: v for k, v in built.cooccurrence.items() if v} == \
        {k: v for k, v in model.cooccurrence.items() if v}


def test_priors_plan_matches_reference(split_builds):
    _, (_, priors, _), (_, built, _) = split_builds
    assert built == priors


def test_index_matches_reference(split_builds):
    _, (_, _, index), (_, _, built) = split_builds
    assert built.entries() == index.entries()


def test_predictions_match_the_reference_oracle(split_builds, universe):
    split, (_, _, index), (_, _, built) = split_builds
    observations = split.test_observations[:PREDICTED_OBSERVATIONS]
    known = {(obs.ip, obs.port) for obs in observations[::2]}
    asn_db = universe.topology.asn_db
    predicted = built.predict(observations, asn_db, FeatureConfig(), known)
    assert len(predicted) > 0
    assert predicted == index.predict_reference(observations, asn_db,
                                                FeatureConfig(), known)
