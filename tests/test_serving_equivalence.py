"""Served predictions are bit-identical to the serial one-shot oracle.

The whole value proposition of the serving layer is "same answers, no
per-invocation rebuild": whatever micro-batching and thread hand-offs are
in play, every reply must equal the reference
``PredictiveFeatureIndex.predict`` fold over the same observations and known
pairs.  The battery interleaves N concurrent clients issuing point lookups
and bulk predictions against a service, and compares each reply against an
oracle model built on
the single-core non-engine reference path.  A hypothesis sweep varies the
evidence subsets and known-pair suppression on a shared warm service.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import GPSConfig
from repro.core.predictions import PREDICTION_BATCH_PREFIX_LEN
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import group_pairs
from repro.serving import GPSService, InProcessClient, ServingConfig
from repro.serving.registry import build_prepared_model

#: Runtime executors the battery covers.
BACKENDS = ("serial",)


@pytest.fixture(scope="module")
def loop():
    """One long-lived event loop: the service under test is loop-affine."""
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


@pytest.fixture(scope="module")
def seed(universe):
    return ScanPipeline(universe).seed_scan(0.05, seed=11)


@pytest.fixture(scope="module")
def oracle(universe, seed):
    """The serial one-shot reference model (non-engine build path)."""
    return build_prepared_model("oracle", ScanPipeline(universe), seed,
                                GPSConfig())


@pytest.fixture(scope="module")
def warm_service(loop, universe, seed):
    """A serial-backend service kept warm across the property sweep."""
    service = GPSService(ServingConfig(executor="serial",
                                       request_timeout_s=60.0))
    loop.run_until_complete(service.load_model(
        "default", ScanPipeline(universe), seed,
        GPSConfig(use_engine=True, executor="serial")))
    yield service
    loop.run_until_complete(service.close())


def _host_groups(seed, count):
    by_ip = {}
    for obs in seed.observations:
        by_ip.setdefault(obs.ip, []).append(obs)
    return [tuple(rows) for _, rows in sorted(by_ip.items())[:count]]


class TestConcurrentEquivalence:
    @pytest.mark.parametrize("executor", BACKENDS)
    def test_interleaved_clients_match_oracle(self, universe, seed, oracle,
                                              executor):
        """N concurrent clients, interleaved point/bulk lookups."""
        config = ServingConfig(executor=executor, max_batch=8,
                               request_timeout_s=60.0)
        gps_config = GPSConfig(use_engine=True, executor=executor)
        groups = _host_groups(seed, 12)

        async def one_client(client, offset):
            """Interleave lookups and a bulk fold over a rotated host slice."""
            rotated = groups[offset:] + groups[:offset]
            replies = []
            for rows in rotated[:6]:
                known = frozenset(obs.pair() for obs in rows[:1])
                reply = await client.lookup("default", rows, known_pairs=known)
                replies.append(("lookup", rows, known, reply))
            flat = tuple(obs for rows in rotated[:4] for obs in rows)
            bulk = await client.bulk_predict("default", flat)
            replies.append(("bulk", flat, frozenset(), bulk))
            return replies

        async def scenario():
            async with GPSService(config) as service:
                await service.load_model("default", ScanPipeline(universe),
                                         seed, gps_config)
                client = InProcessClient(service)
                outcomes = await asyncio.gather(
                    *[one_client(client, offset) for offset in range(8)])
                assert service.stats.max_coalesced > 1  # coalescing happened
                return outcomes

        for replies in asyncio.run(scenario()):
            for kind, rows, known, reply in replies:
                expected = oracle.predict(rows, known_pairs=set(known))
                assert tuple(expected) == reply.predictions, \
                    f"{kind} diverged from the serial oracle"
                if kind == "bulk":
                    assert reply.batches == tuple(group_pairs(
                        (p.pair() for p in expected),
                        PREDICTION_BATCH_PREFIX_LEN))

    def test_scan_job_stream_matches_oracle_plan(self, universe, seed, oracle):
        """A scan job probes exactly the oracle's predictions, in order."""
        async def scenario():
            async with GPSService(ServingConfig(executor="serial")) as service:
                await service.load_model(
                    "default", ScanPipeline(universe), seed,
                    GPSConfig(use_engine=True, executor="serial"))
                client = InProcessClient(service)
                updates = []
                async for update in client.scan("default", batch_size=40,
                                                timeout_s=60.0):
                    updates.append(update)
                return updates

        updates = asyncio.run(scenario())
        expected = oracle.predict(seed.observations,
                                  known_pairs=oracle.seed_pairs())
        assert [u.seq for u in updates] == list(range(len(updates)))
        assert sum(u.pairs_probed for u in updates) == len(expected)
        assert updates[-1].final
        assert all(not u.final for u in updates[:-1])
        # Probe counts only ever grow, and every increment charges them.
        probes = [u.cumulative_probes for u in updates]
        assert probes == sorted(probes)


class TestPropertyEquivalence:
    """Hypothesis sweep: arbitrary evidence slices and suppression sets."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_lookup_matches_oracle_on_any_evidence(self, loop, seed, oracle,
                                                   warm_service, data):
        groups = _host_groups(seed, 20)
        rows = data.draw(st.sampled_from(groups))
        take = data.draw(st.integers(min_value=1, max_value=len(rows)))
        evidence = rows[:take]
        suppress = data.draw(st.sets(
            st.sampled_from([obs.pair() for obs in rows]), max_size=3))

        client = InProcessClient(warm_service)
        reply = loop.run_until_complete(
            client.lookup("default", evidence, known_pairs=suppress))
        expected = oracle.predict(evidence, known_pairs=set(suppress))
        assert tuple(expected) == reply.predictions
