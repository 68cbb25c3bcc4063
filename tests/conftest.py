"""Shared fixtures for the test suite.

The expensive objects (a synthetic universe, ground-truth datasets, a full GPS
run) are session-scoped: they are deterministic pure data, so sharing them
across tests changes nothing about isolation while keeping the suite fast.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.analysis.scenarios import ExperimentScale, make_censys_dataset, make_lzr_dataset
from repro.core.config import GPSConfig
from repro.core.features import HostFeatureColumns
from repro.engine.columns import IntColumn
from repro.engine.encoding import DictionaryEncoder
from repro.core.gps import GPS
from repro.core.model import build_model_with_engine
from repro.core.predictions import build_prediction_index_with_engine
from repro.core.priors import build_priors_plan_with_engine
from repro.core.runtime_plans import ResidentHostGroups
from repro.datasets.split import seed_scan_cost_probes, split_seed_test
from repro.engine.runtime import EngineRuntime
from repro.internet.universe import generate_universe
from repro.scanner.pipeline import ScanPipeline

#: A deliberately tiny scale for unit/integration tests.
TEST_SCALE = ExperimentScale(
    name="test",
    host_count=1200,
    as_count=6,
    prefixes_per_as=1,
    censys_top_ports=60,
    lzr_sample_fraction=0.2,
    default_seed_fraction=0.05,
)


def host_feature_columns(host_features, encoder=None):
    """Flatten a per-host ``HostFeatures`` mapping into encoded columns.

    Hosts keep the mapping's order, services their ascending ports and
    predictor tuples their order -- the relation the reference builds
    iterate -- so hand-built host features (whose predictor tuples no
    observation would produce) can feed the engine.  A given ``encoder``
    (say, one pre-filled so ids start high) is extended in place.
    """
    encoder = DictionaryEncoder() if encoder is None else encoder
    ips, member_starts, ports, value_starts, value_ids = [], [0], [], [0], []
    for host in host_features.values():
        ips.append(host.ip)
        for port in host.open_ports():
            ports.append(port)
            value_ids.extend(encoder.encode_column(host.ports[port]))
            value_starts.append(len(value_ids))
        member_starts.append(len(ports))
    return HostFeatureColumns(ips=IntColumn(ips), member_starts=IntColumn(member_starts),
                              ports=IntColumn(ports), value_starts=IntColumn(value_starts),
                              value_ids=IntColumn(value_ids), encoder=encoder)


@contextlib.contextmanager
def resident_dataset(host_features, executor="serial", step_size=16):
    """Load host features into a fresh runtime; yield ``(columns, dataset)``.

    ``host_features`` may be the reference path's per-host mapping (it is
    flattened to columns first) or pre-encoded columns.  The runtime closes
    on exit.
    """
    columns = (host_features if isinstance(host_features, HostFeatureColumns)
               else host_feature_columns(host_features))
    with EngineRuntime(executor=executor) as runtime:
        dataset = ResidentHostGroups(runtime, columns, step_size)
        try:
            yield columns, dataset
        finally:
            dataset.release()


#: Engine executors the executor-parametrized equivalence tests run on.
ENGINE_LAYOUTS = (
    pytest.param("serial", id="serial"),
)


def engine_builds(host_features, executor="serial", step_size=16, port_domain=None,
                  **index_kwargs):
    """All three Table 2 builds on the engine: ``(model, priors plan, index)``."""
    with resident_dataset(host_features, executor, step_size) as (columns, dataset):
        model = build_model_with_engine(columns, dataset)
        priors = build_priors_plan_with_engine(columns, model, step_size, port_domain,
                                               dataset=dataset)
        index = build_prediction_index_with_engine(columns, model, port_domain=port_domain,
                                                   dataset=dataset, **index_kwargs)
    return model, priors, index


@pytest.fixture(scope="session")
def universe():
    """A small deterministic synthetic universe shared by the whole suite."""
    return generate_universe(TEST_SCALE.universe_config(seed=42))


@pytest.fixture(scope="session")
def censys_dataset(universe):
    """Censys-like ground truth over the test universe."""
    return make_censys_dataset(universe, TEST_SCALE)


@pytest.fixture(scope="session")
def lzr_dataset(universe):
    """LZR-like ground truth over the test universe."""
    return make_lzr_dataset(universe, TEST_SCALE)


@pytest.fixture(scope="session")
def censys_split(censys_dataset):
    """A 5 % seed / rest test split of the Censys-like dataset."""
    return split_seed_test(censys_dataset, seed_fraction=0.05, seed=1)


@pytest.fixture()
def pipeline(universe):
    """A fresh scan pipeline (per-test: it accumulates bandwidth state)."""
    return ScanPipeline(universe)


@pytest.fixture(scope="session")
def gps_run(universe, censys_dataset, censys_split):
    """One full GPS run in dataset-split mode, shared by the integration tests."""
    run_pipeline = ScanPipeline(universe)
    config = GPSConfig(seed_fraction=0.05, step_size=16,
                       port_domain=censys_dataset.port_domain)
    gps = GPS(run_pipeline, config)
    seed_cost = seed_scan_cost_probes(censys_dataset, 0.05)
    result = gps.run(seed=censys_split.seed_scan_result(), seed_cost_probes=seed_cost)
    return result, run_pipeline
