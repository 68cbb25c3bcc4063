"""Lifecycle, backpressure and batching behaviour of the serving core.

These tests pin the service's *control plane*: bounded admission sheds with
typed errors, micro-batches flush when the batcher is idle or full, drain is
graceful and close is idempotent, and the registry's load/swap/evict
semantics hold.
Correctness of the *data plane* (served predictions == serial oracle) lives
in test_serving_equivalence.py.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

import repro.serving.registry as registry_module
import repro.serving.service as service_module
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
from repro.serving.registry import PreparedModel, build_prepared_model


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


class _BuildGate:
    """Holds the served model builds started by :meth:`hold` on their
    worker thread until released.

    Point lookups flush on the event loop, so an operation that must stay in
    flight deterministically is a ``load_model``: its gated
    ``build_prepared_model`` blocks a worker thread, never the loop.
    """

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self.opened = threading.Event()
        self.armed = False
        build = service_module.build_prepared_model

        def gated(*args, **kwargs):
            if self.armed:
                self.entered.set()
                self.opened.wait(10.0)
            return build(*args, **kwargs)

        monkeypatch.setattr(service_module, "build_prepared_model", gated)

    async def hold(self, service, universe, seed, name="other"):
        """Start a model load and return once its build is blocked."""
        self.armed = True
        held = asyncio.ensure_future(service.load_model(
            name, ScanPipeline(universe), seed,
            GPSConfig(use_engine=True, executor="serial")))
        await asyncio.get_running_loop().run_in_executor(
            None, self.entered.wait, 10.0)
        assert self.entered.is_set() and not held.done()
        return held

    def open(self) -> None:
        self.opened.set()


@pytest.fixture()
def build_gate(monkeypatch):
    gate = _BuildGate(monkeypatch)
    yield gate
    gate.open()  # never leave a worker thread blocked past a failed test


async def _until(condition, turns=100):
    """Yield loop turns until ``condition()`` holds; fail after ``turns``."""
    for _ in range(turns):
        if condition():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"condition not met within {turns} loop turns")


async def _until_parked(service, count):
    """Yield loop turns until ``count`` lookups wait in open micro-batches."""
    await _until(
        lambda: service.stats_snapshot()["batch_queue_depth"] >= count)


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
                assert [i.name for i in service.models()] == ["default"]
        run(scenario())

    def test_successful_load_leaves_no_resident_payload(self, universe, seed):
        """A build releases its columns when it ends: the loaded model
        serves from its index alone."""
        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                assert service.runtime()._store == {}
                await service.load_model(
                    "second", ScanPipeline(universe), seed,
                    GPSConfig(use_engine=True, executor="serial"))
                assert service.runtime()._store == {}
                assert [info.name for info in service.models()] == \
                    ["default", "second"]
        run(scenario())

    def test_failed_build_registers_nothing_and_releases_its_shards(
            self, universe, seed, monkeypatch):
        """A builder raising mid-build fails that load only: the error
        reaches the caller, no model registers, the build's resident key is
        released, and the loaded model keeps serving oracle replies."""
        oracle = build_prepared_model("oracle", ScanPipeline(universe), seed,
                                      GPSConfig())
        failed_keys = []

        def failing_priors(host_features, model, step_size, port_domain=None,
                           dataset=None):
            failed_keys.append(dataset.key)
            raise RuntimeError("priors build failed")

        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                client = InProcessClient(service)
                monkeypatch.setattr(registry_module,
                                    "build_priors_plan_with_engine",
                                    failing_priors)
                with pytest.raises(RuntimeError, match="priors build failed"):
                    await client.load_model(
                        "broken", ScanPipeline(universe), seed,
                        GPSConfig(use_engine=True, executor="serial"))
                assert [info.name for info in client.models()] == ["default"]
                (failed_key,) = failed_keys
                assert failed_key not in service.runtime()._store
                assert service.runtime()._store == {}
                groups = _observations_of(seed)
                return [(rows, await client.lookup("default", rows))
                        for rows in groups]

        replies = run(scenario())
        assert replies
        for rows, reply in replies:
            assert tuple(oracle.predict(rows)) == reply.predictions

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
    def test_size_flush_coalesces_concurrent_lookups(self, universe, seed):
        """max_batch lookups submitted in one loop turn leave together at
        once (``size``), without waiting for the next turn; the rest of
        that turn's lookups leave in one ``idle`` flush."""
        config = ServingConfig(max_batch=4, request_timeout_s=10.0,
                               telemetry_enabled=True)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                groups = _observations_of(seed, 5)
                before = service.stats.flushes
                burst = [asyncio.ensure_future(client.lookup("default", rows))
                         for rows in groups]
                await _until(lambda: service.stats.flushes != before)
                # The size flush fired inside the fourth submission: the
                # fifth lookup is parked and no idle flush has run yet.
                assert _flushes(service, "size") == 1
                assert _flushes(service, "idle") == 0
                assert service.stats_snapshot()["batch_queue_depth"] == 1
                replies = await asyncio.gather(*burst)
                assert [r.coalesced for r in replies] == [4, 4, 4, 4, 1]
                assert service.stats.flushes == before + 2
                assert service.stats.max_coalesced == 4
                assert _flushes(service, "idle") == 1
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

    def test_lookups_of_one_turn_share_an_idle_flush(self, universe, seed):
        """Lookups started in one loop turn park together and leave in
        exactly one ``idle`` flush on the next turn, each with
        ``coalesced == n``; the next turn's lookups form the next flush."""
        config = ServingConfig(max_batch=64, request_timeout_s=10.0,
                               telemetry_enabled=True)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                groups = _observations_of(seed, 5)
                flushes = 0
                for batch in (groups[:3], groups[3:]):
                    parked = [asyncio.ensure_future(client.lookup("default", rows))
                              for rows in batch]
                    await _until_parked(service, len(batch))
                    assert service.stats.flushes == flushes
                    replies = await asyncio.gather(*parked)
                    assert [r.coalesced for r in replies] == [len(batch)] * len(batch)
                    flushes += 1
                    assert service.stats.flushes == flushes
                    assert service.stats_snapshot()["batch_queue_depth"] == 0
                assert _flushes(service, "idle") == 2
                assert _flushes(service, "size") == 0
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


class TestLoopFlush:
    def test_served_predict_runs_on_the_event_loop_thread(self, universe,
                                                          seed, monkeypatch):
        """A point lookup's predict runs on the loop: no thread hop."""
        threads = []
        predict = PreparedModel.predict

        def recording(model, *args, **kwargs):
            threads.append(threading.get_ident())
            return predict(model, *args, **kwargs)

        async def scenario():
            async with await _loaded_service(universe, seed) as service:
                monkeypatch.setattr(PreparedModel, "predict", recording)
                client = InProcessClient(service)
                await asyncio.gather(*[client.lookup("default", rows)
                                       for rows in _observations_of(seed, 3)])
                await client.lookup_ip("default", seed.observations[0].ip)
            return threading.get_ident()

        loop_thread = run(scenario())
        assert len(threads) == 4
        assert set(threads) == {loop_thread}

    def test_lookups_complete_while_a_rebuild_is_held(self, universe, seed,
                                                      build_gate):
        """A model rebuild held on its worker thread does not stall lookups
        against the already-loaded model; replies stay oracle-identical."""
        oracle = build_prepared_model("oracle", ScanPipeline(universe), seed,
                                      GPSConfig())
        config = ServingConfig(request_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                held = await build_gate.hold(service, universe, seed,
                                             name="default")
                groups = _observations_of(seed, 6)
                replies = await asyncio.gather(*[
                    client.lookup("default", rows) for rows in groups])
                ip_reply = await client.lookup_ip("default",
                                                  seed.observations[0].ip)
                assert not held.done()
                for rows, reply in zip(groups, replies):
                    assert reply.predictions == tuple(oracle.predict(rows))
                ip = seed.observations[0].ip
                assert ip_reply.predictions == tuple(oracle.predict(
                    oracle.known_observations(ip),
                    known_pairs=oracle.known_pairs_for(ip)))
                build_gate.open()
                await held
        try:
            run(scenario())
        finally:
            oracle.release()


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, universe, seed):
        """Admission is bounded: request max_pending+1 is shed immediately
        while the first ones are admitted and parked in the batcher."""
        config = ServingConfig(max_pending=2, max_batch=64,
                               request_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                groups = _observations_of(seed, 3)
                first, second = [
                    asyncio.ensure_future(client.lookup("default", rows))
                    for rows in groups[:2]]
                await _until_parked(service, 2)
                assert service.stats_snapshot()["pending"] == 2
                with pytest.raises(ServiceOverloaded):
                    await client.lookup("default", groups[2])
                assert service.stats.shed == 1
                assert not first.done() and not second.done()
                # The parked requests still complete once the service drains
                # (they leave with the next loop turn's flush).
                await service.close()
                replies = await asyncio.gather(first, second)
                assert all(reply.predictions is not None for reply in replies)
        run(scenario())

    def test_pending_gauge_is_read_at_scrape_time(self, universe, seed):
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
            parked = asyncio.ensure_future(
                client.lookup("default", _observations_of(seed, 1)[0]))
            await _until_parked(service, 1)
            assert "\nserving_pending 1\n" in service.render_metrics()
            await parked
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
                                                build_gate):
        config = ServingConfig(max_batch=64, request_timeout_s=10.0,
                               drain_timeout_s=10.0)

        async def scenario():
            async with await _loaded_service(universe, seed, config) as service:
                client = InProcessClient(service)
                (rows,) = _observations_of(seed, 1)
                held = await build_gate.hold(service, universe, seed)
                # close() starts in the turn the lookup is admitted, before
                # its flush: it stops admission but waits for the lookup and
                # for the held build.
                parked = asyncio.ensure_future(client.lookup("default", rows))
                closing = asyncio.ensure_future(service.close())
                await _until(lambda: service.closed)
                assert not closing.done() and not parked.done()
                assert service.stats_snapshot()["pending"] == 2
                reply = await parked
                assert reply.coalesced == 1
                assert not closing.done()  # the build is still held
                build_gate.open()
                await closing
                assert (await held).name == "other"
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
        for executor in ("bigquery", "thread", "pool"):
            with pytest.raises(ValueError, match="unknown executor"):
                ServingConfig(executor=executor)
