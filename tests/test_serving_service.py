"""Lifecycle, backpressure and batching behaviour of the serving core.

These tests pin the service's *control plane*: bounded admission sheds with
typed errors, micro-batches flush when the batcher is idle or full, drain is
graceful and close is idempotent, and the registry's load/swap/evict
semantics hold.
Correctness of the *data plane* (served predictions == serial oracle) lives
in test_serving_equivalence.py; fault injection in test_serving_chaos.py.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.config import GPSConfig
from repro.scanner.pipeline import ScanPipeline
from repro.serving import (
    GPSService,
    InProcessClient,
    InvalidRequest,
    ModelNotFound,
    PointLookup,
    ScanJobNotFound,
    ScanJobRequest,
    ServiceClosed,
    ServiceOverloaded,
    ServingConfig,
)
from repro.serving.registry import PreparedModel


def run(coro):
    """Drive a service coroutine from a sync test."""
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def seed(universe):
    return ScanPipeline(universe).seed_scan(0.05, seed=3)


def _observations_of(seed, count=4):
    """A few single-host observation tuples to look up with."""
    by_ip = {}
    for obs in seed.observations:
        by_ip.setdefault(obs.ip, []).append(obs)
    groups = sorted(by_ip.items())[:count]
    return [tuple(rows) for _, rows in groups]


class _FlushGate:
    """Holds every served ``PreparedModel.predict`` until released.

    A flush that reaches a worker thread stays in flight while the gate is
    closed, so lookups arriving meanwhile park in the batcher
    deterministically -- no timer decides when they leave.
    """

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self.opened = threading.Event()
        predict = PreparedModel.predict

        def gated(model, *args, **kwargs):
            self.entered.set()
            self.opened.wait(10.0)
            return predict(model, *args, **kwargs)

        monkeypatch.setattr(PreparedModel, "predict", gated)

    async def hold(self, client, rows):
        """Start a lookup and return once its flush is blocked in flight."""
        self.opened.clear()
        self.entered.clear()
        held = asyncio.ensure_future(client.lookup("default", rows))
        await asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 10.0)
        return held

    def open(self) -> None:
        self.opened.set()


@pytest.fixture()
def flush_gate(monkeypatch):
    gate = _FlushGate(monkeypatch)
    yield gate
    gate.open()  # never leave a worker thread blocked past a failed test


def _flushes(service, reason):
    return service.telemetry.counter("serving_flushes_total",
                                     reason=reason).value


async def _loaded_service(universe, seed, config=None, gps_config=None):
    service = GPSService(config)
    await service.load_model(
        "default", ScanPipeline(universe), seed,
        gps_config or GPSConfig(use_engine=True, executor="serial"))
    return service


class TestRegistry:
    def test_load_lookup_evict_roundtrip(self, universe, seed):
        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                client = InProcessClient(service)
                infos = client.models()
                assert [info.name for info in infos] == ["default"]
                assert infos[0].seed_services == len(seed.observations)
                assert infos[0].resident_shards  # stays warm until evicted
                reply = await client.lookup_ip("default",
                                               seed.observations[0].ip)
                assert reply.model == "default"
                await client.evict_model("default")
                assert client.models() == []
                with pytest.raises(ModelNotFound):
                    await client.lookup_ip("default", seed.observations[0].ip)
        run(scenario())

    def test_swap_replaces_atomically(self, universe, seed):
        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                first = service.model("default")
                await service.load_model(
                    "default", ScanPipeline(universe), seed,
                    GPSConfig(use_engine=True, executor="serial"))
                second = service.model("default")
                assert second is not first
                # The displaced model's resident shards were released.
                assert first.resident is not None
                assert [i.name for i in service.models()] == ["default"]
        run(scenario())

    def test_unknown_model_and_job_are_typed(self, universe, seed):
        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                with pytest.raises(ModelNotFound):
                    await service.lookup_ip("nope", 1)
                with pytest.raises(ScanJobNotFound):
                    async for _ in service.scan_updates("scan-999"):
                        pass
        run(scenario())

    def test_invalid_requests_rejected_on_construction(self):
        with pytest.raises(InvalidRequest):
            PointLookup(model="m", observations=())
        with pytest.raises(InvalidRequest):
            ScanJobRequest(model="m", batch_size=0)


class TestBatching:
    def test_size_flush_coalesces_concurrent_lookups(self, universe,
                                                      seed, flush_gate):
        """max_batch lookups parked behind a blocked flush leave together
        at once, without waiting for the in-flight flush to complete."""
        config = ServingConfig(max_batch=4, request_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                held_rows, *groups = _observations_of(seed, 5)
                held = await flush_gate.hold(client, held_rows)
                before = service.stats.flushes
                burst = asyncio.gather(*[
                    client.lookup("default", rows) for rows in groups])
                while service.stats.flushes == before:
                    await asyncio.sleep(0)
                flush_gate.open()
                replies = await burst
                await held
                assert [r.coalesced for r in replies] == [4, 4, 4, 4]
                assert service.stats.flushes == before + 1
                assert service.stats.max_coalesced == 4
        run(scenario())

    def test_lonely_lookup_flushes_when_idle(self, universe, seed):
        """A single lookup never waits for company: the idle batcher
        flushes it alone on the next loop turn."""
        config = ServingConfig(max_batch=64, request_timeout_s=5.0,
                               telemetry_enabled=True)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                (rows,) = _observations_of(seed, 1)
                reply = await client.lookup("default", rows)
                assert reply.coalesced == 1
                assert service.stats.flushes == 1
                assert _flushes(service, "idle") == 1
        run(scenario())

    def test_arrivals_during_a_flush_coalesce(self, universe, seed, flush_gate):
        """Lookups arriving while a flush is in flight wait for it, then
        leave in exactly one follow-up flush; reaching max_batch while a
        flush is in flight flushes at once."""
        config = ServingConfig(max_batch=3, request_timeout_s=10.0,
                               telemetry_enabled=True)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                groups = _observations_of(seed, 8)

                held = await flush_gate.hold(client, groups[0])
                parked = [asyncio.ensure_future(client.lookup("default", rows))
                          for rows in groups[1:3]]
                for _ in range(5):
                    await asyncio.sleep(0)
                assert service.stats.flushes == 1
                assert service.stats_snapshot()["batch_queue_depth"] == 2
                flush_gate.open()
                assert (await held).coalesced == 1
                assert [r.coalesced for r in await asyncio.gather(*parked)] \
                    == [2, 2]
                assert service.stats.flushes == 2
                assert _flushes(service, "idle") == 2

                held = await flush_gate.hold(client, groups[3])
                full = asyncio.gather(*[client.lookup("default", rows)
                                        for rows in groups[4:7]])
                while service.stats.flushes == 3:
                    await asyncio.sleep(0)
                assert _flushes(service, "size") == 1
                assert service.stats_snapshot()["batch_queue_depth"] == 0
                flush_gate.open()
                assert [r.coalesced for r in await full] == [3, 3, 3]
                assert (await held).coalesced == 1
                assert service.stats.flushes == 4
                assert _flushes(service, "idle") == 3
        run(scenario())

    def test_batches_never_mix_models(self, universe, seed):
        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                await service.load_model(
                    "other", ScanPipeline(universe), seed,
                    GPSConfig(use_engine=True, executor="serial"))
                client = InProcessClient(service)
                groups = _observations_of(seed, 2)
                replies = await asyncio.gather(
                    client.lookup("default", groups[0]),
                    client.lookup("other", groups[1]))
                assert [r.model for r in replies] == ["default", "other"]
                # Two models, two batchers, two flushes.
                assert service.stats.flushes == 2
        run(scenario())


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, universe, seed, flush_gate):
        """Admission is bounded: request max_pending+1 is shed immediately
        while the first ones are still in flight or parked behind it."""
        config = ServingConfig(max_pending=2, max_batch=64,
                               request_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                groups = _observations_of(seed, 3)
                first = await flush_gate.hold(client, groups[0])
                second = asyncio.ensure_future(client.lookup("default", groups[1]))
                await asyncio.sleep(0)  # let it get admitted
                with pytest.raises(ServiceOverloaded):
                    await client.lookup("default", groups[2])
                assert service.stats.shed == 1
                # The parked requests still complete once the service drains
                # (the parked one leaves when the held flush completes).
                flush_gate.open()
                await service.close()
                replies = await asyncio.gather(first, second)
                assert all(reply.predictions is not None for reply in replies)
        run(scenario())

    def test_pending_gauge_is_read_at_scrape_time(self, universe, seed,
                                                  flush_gate):
        """/metrics reports the live admission count; the gauge appears
        once the first request has been admitted, as it always has."""
        config = ServingConfig(telemetry_enabled=True, request_timeout_s=10.0)

        async def scenario():
            service = GPSService(config)
            assert "serving_pending" not in service.render_metrics()
            await service.load_model(
                "default", ScanPipeline(universe), seed,
                GPSConfig(use_engine=True, executor="serial"))
            assert "\nserving_pending 0\n" in service.render_metrics()
            client = InProcessClient(service)
            held = await flush_gate.hold(client, _observations_of(seed, 1)[0])
            assert "\nserving_pending 1\n" in service.render_metrics()
            flush_gate.open()
            await held
            assert "\nserving_pending 0\n" in service.render_metrics()
            await service.close()
        run(scenario())

    def test_scan_jobs_hold_admission_capacity(self, universe, seed):
        config = ServingConfig(max_pending=1, request_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                job_id = await service.submit_scan(
                    ScanJobRequest(model="default", batch_size=50))
                # While the job runs (or its stream is undrained) the single
                # admission slot may be occupied; either outcome is typed.
                try:
                    await service.lookup_ip("default", seed.observations[0].ip)
                except ServiceOverloaded:
                    pass
                async for _ in service.scan_updates(job_id):
                    pass
        run(scenario())


class TestLifecycle:
    def test_graceful_drain_completes_in_flight(self, universe, seed,
                                                flush_gate):
        config = ServingConfig(max_batch=64, request_timeout_s=10.0,
                               drain_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                held_rows, rows = _observations_of(seed, 2)
                held = await flush_gate.hold(client, held_rows)
                parked = asyncio.ensure_future(client.lookup("default", rows))
                while not service.stats_snapshot()["batch_queue_depth"]:
                    await asyncio.sleep(0)
                # close() starts while a flush is held and a lookup is parked
                # behind it: it stops admission but waits for both.
                closing = asyncio.ensure_future(service.close())
                for _ in range(5):
                    await asyncio.sleep(0)
                assert service.closed and not closing.done()
                flush_gate.open()
                await closing
                reply = await parked
                assert reply.coalesced == 1
                assert (await held).coalesced == 1
                assert service.stats.completed == service.stats.admitted
        run(scenario())

    def test_close_is_idempotent_and_post_close_is_typed(self, universe, seed):
        async def scenario():
            service = await _loaded_service(universe, seed)
            await service.close()
            await service.close()  # double-close: no-op, no error
            assert service.closed
            with pytest.raises(ServiceClosed):
                await service.lookup_ip("default", seed.observations[0].ip)
            with pytest.raises(ServiceClosed):
                await service.submit_scan(ScanJobRequest(model="default"))
            assert service.stats.rejected_closed == 2
        run(scenario())

    def test_service_rejects_foreign_event_loop(self, universe, seed):
        service = run(_loaded_service(universe, seed))
        with pytest.raises(RuntimeError, match="different event loop"):
            run(service.lookup_ip("default", seed.observations[0].ip))
        # Tear down threads without touching loop-affine state.
        service._threads.shutdown(wait=False)
        service._registry.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(request_timeout_s=0)
        with pytest.raises(ValueError):
            ServingConfig(lookup_threads=0)
        with pytest.raises(ValueError):
            ServingConfig(executor="bigquery")
