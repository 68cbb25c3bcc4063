"""The four workloads of the end-to-end benchmark and the checks on their outputs.

Each workload sets itself up several times (``setup_s`` is the median), then
measures for a fixed number of seconds with tracing off.  With ``trace=True``
the measured time is split in two: the first half runs untraced, the second
half runs with :func:`spans.instrument` on, and the per-layer metrics come
from that second half.  Every workload's ``setup_s`` and a GPS workload's
``latency_p50_ms`` are CPU-bound and reported at the reference machine's
speed (:class:`SpeedProbe`); serving latency, set by timers and queueing,
is reported as measured.

* ``gps-selfseed`` -- :meth:`GPS.run` collecting its own all-port seed scan.
  The only workload where the scanner's seed sweep and filtering do much of
  the work.
* ``gps-lzr-split`` -- :meth:`GPS.run` on the LZR-like all-port dataset split
  with the seed already available (the paper's Fig. 2 evaluation).  No seed
  sweep: the priors scan and ``predict`` dominate, so a seed-scan change must
  not move it.
* ``serve-lookup-open`` -- open-loop Poisson point lookups against a warm
  :class:`GPSService` on a ladder of rates.  At low rates the batch window
  and admission dominate; at high rates batches fill by size.
* ``serve-reload-mixed`` -- Poisson lookups at a fixed rate beside one
  closed-loop client that rebuilds and swaps the same model back to back:
  the engine builds and lookups contend for the interpreter lock.

The universe, the LZR-like dataset and the served model are fixed (universe
and model from ``UNIVERSE_SEED``, the ``serve`` default).  The seed picks
what varies between runs of one workload: GPS's own seed-scan sample, the
dataset's seed/test split, and the lookups' known services and schedule.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import itertools
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.scenarios import (
    MEDIUM_SCALE,
    ExperimentScale,
    make_lzr_dataset,
    make_universe,
)
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.builders import build_full_dataset
from repro.datasets.split import split_seed_test
from repro.engine.columns import resolve_column_backend
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import ScanObservation
from repro.serving import GPSService, ServingConfig
from repro.serving.registry import build_prepared_model
from repro.serving.schemas import PointLookup, ServiceOverloaded

from loadgen import (
    StepSummary,
    iqr_frac,
    max_rate,
    open_loop,
    percentile,
    poisson_offsets,
    summarize_step,
)
from spans import SpanRecorder, descendants, instrument, layer_totals

WORKLOADS = ("gps-selfseed", "gps-lzr-split", "serve-lookup-open", "serve-reload-mixed")

#: End-to-end metrics (reported with tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "services_found_frac": "fraction",
    "bandwidth_full_scans": "scans",
}

#: Per-layer metrics (reported from the traced half) and their units.
PER_LAYER = {
    "internet.generate_universe_s": "s",
    "datasets.build_lzr_like_s": "s",
    "datasets.split_seed_test_s": "s",
    "scanner.seed_scan_s": "s",
    "scanner.scan_prefix_s": "s",
    "scanner.scan_prefix_calls": "count",
    "scanner.scan_pairs_s": "s",
    "scanner.scan_pairs_calls": "count",
    "scanner.probes_seed": "count",
    "scanner.probes_priors": "count",
    "scanner.probes_prediction": "count",
    "scanner.precision_priors": "fraction",
    "scanner.precision_prediction": "fraction",
    "scanner.retransmits": "count",
    "core.extract_features_s": "s",
    "core.build_model_s": "s",
    "core.build_priors_s": "s",
    "core.build_index_s": "s",
    "core.predict_s": "s",
    "core.predict_calls": "count",
    "core.predictions": "count",
    "core.gps_self_s": "s",
    "engine.resident_load_s": "s",
    "engine.resident_release_s": "s",
    "engine.redispatched_tasks": "count",
    "engine.respawns": "count",
    "serving.lookup_p99_ms": "ms",
    "serving.max_rate_rps": "1/s",
    "serving.predict_ms_p50": "ms",
    "serving.predict_ms_p99": "ms",
    "serving.queue_ms_p50": "ms",
    "serving.queue_ms_p99": "ms",
    "serving.coalesced_mean": "count",
    "serving.flushes": "count",
    "serving.shed": "count",
    "serving.timeouts": "count",
    "serving.load_model_s": "s",
    "loadgen.sent": "count",
    "loadgen.late_ms_p50": "ms",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "fraction",
    "trace.accounted_frac": "fraction",
}

#: Span name -> per-layer metric prefix, for layers timed inside a GPS run.
_RUN_LAYERS = {
    "core.gps": "core.gps_self",
    "scanner.seed_scan": "scanner.seed_scan",
    "scanner.scan_prefix": "scanner.scan_prefix",
    "scanner.scan_pairs": "scanner.scan_pairs",
    "core.extract_features": "core.extract_features",
    "core.build_model": "core.build_model",
    "core.build_priors": "core.build_priors",
    "core.build_index": "core.build_index",
    "core.predict": "core.predict",
    "engine.resident_load": "engine.resident_load",
    "engine.resident_release": "engine.resident_release",
}

#: Layers the benchmark times itself during set-up.
_SETUP_LAYERS = ("internet.generate_universe", "datasets.build_lzr_like",
                 "datasets.split_seed_test")

UNIVERSE_SEED = 7
SEED_FRACTION = 0.05
MODEL = "default"
MIN_GPS_RUNS = 3
SETUPS = 3
WARMUP_S = 1.0

#: serve-lookup-open rate steps (requests/s) and each step's share of the run.
LOOKUP_LADDER = ((250, 1), (500, 4), (1000, 1), (2000, 1), (4000, 1))
REFERENCE_RATE = 500
RELOAD_MIX_RATE = 200

#: Largest tolerated gap between the per-layer self times of a traced GPS
#: run and its measured wall time.
ACCOUNTING_TOLERANCE = 0.05

#: About the speed probe's median time on the reference machine (2-vCPU
#: Xeon VM, Python 3.11.7) in a calm stretch: there, times at reference
#: speed read as plain wall times.
PROBE_REFERENCE_S = 0.09


@dataclass
class Measurement:
    """What one workload invocation reports."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)
    trace: Optional[Dict[str, object]] = None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: ExperimentScale = MEDIUM_SCALE, setups: int = SETUPS,
                 ladder: Sequence[Tuple[int, int]] = LOOKUP_LADDER,
                 warmup_s: float = WARMUP_S) -> Measurement:
    """Set up and measure one workload; see the module docstring."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
    if name.startswith("gps-"):
        measurement = _gps_workload(name, seed, seconds, trace, scale, setups)
    else:
        measurement = asyncio.run(_serving_workload(
            name, seed, seconds, trace, scale, setups, ladder, warmup_s))
    measurement.detail.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, scale=scale.name,
        setups=setups,
        universe_seed=UNIVERSE_SEED, python=platform.python_version(),
        column_backend=resolve_column_backend(None))
    return measurement


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep every object that exists now out of the cyclic collector's scans.

    The serving workloads enter it after set-up.  The simulated Internet is
    millions of long-lived objects standing in for the network; unfrozen,
    each full collection traverses them, a 0.1-0.2 s pause (2-core VM) that
    lands on whichever lookups and model loads are in flight: model loads
    (about 0.13 s each) spread 40-60 % within one run.  The GPS workloads do
    not freeze: a run lasts about a second, and freezing made it slower
    (full collections of its own objects became more frequent) without
    making it steadier.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _median_setup(spans, name: str) -> float:
    durations = [s.duration for s in spans if s.name == name]
    return statistics.median(durations) if durations else 0.0


class SpeedProbe:
    """A fixed dictionary-heavy computation that measures how fast the machine runs now.

    On a shared host the same CPU-bound work takes 30-60 % longer in
    stretches of seconds to minutes while other tenants contend for caches
    and memory, which puts medians of GPS runs and set-ups 15-45 % apart
    between runs a few minutes apart.  The probe (100,000 random lookups
    into a 50,000-entry dict, tuples, a sort: the kind of work GPS does)
    slows with it, so a timed step divided by the mean of the probes run
    just before and just after it, times :data:`PROBE_REFERENCE_S`, is the
    step's time at the reference machine's speed (:func:`at_reference_speed`).
    The probe is the same on every run and every commit, so only the program
    moves that ratio.  The collector is off while it runs, so the program's
    heap does not enter its time.  Its table (about 6 MB) is resident for
    the whole workload and counts in ``peak_rss_mb``.
    """

    def __init__(self) -> None:
        rng = random.Random("speed-probe")
        self.table = {rng.getrandbits(48): rng.getrandbits(30) for _ in range(50_000)}
        self.keys = rng.choices(list(self.table), k=100_000)

    def __call__(self) -> float:
        """Run the probe once; its wall time in seconds."""
        table = self.table
        rows = []
        counts: Dict[int, int] = {}
        gc.disable()
        try:
            start = time.perf_counter()
            for key in self.keys:
                value = table[key]
                rows.append((value, key))
                counts[value & 4095] = counts.get(value & 4095, 0) + 1
            rows.sort()
            return time.perf_counter() - start
        finally:
            gc.enable()


def at_reference_speed(seconds: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Each step's time at the reference machine's speed (see :class:`SpeedProbe`).

    ``probes`` holds the probe before each step and one after the last.
    """
    assert len(probes) == len(seconds) + 1, (len(seconds), len(probes))
    return [step * PROBE_REFERENCE_S / ((before + after) / 2)
            for step, before, after in zip(seconds, probes, probes[1:])]


# -- GPS workloads ------------------------------------------------------------------------


@dataclass
class _GPSWorld:
    universe: object
    base: Dict[str, object]
    seed: Optional[SeedScanResult]
    dataset: object = None

    def config(self, engine: bool = True) -> GPSConfig:
        """The measured engine configuration, or the reference oracle's."""
        if engine:
            return GPSConfig(**self.base, use_engine=True, executor="serial")
        return GPSConfig(**self.base)

    def truth(self) -> Set[Tuple[int, int]]:
        if self.dataset is not None:
            return self.dataset.pairs()
        return set(self.universe.real_service_pairs())


@dataclass
class _GPSRun:
    seconds: float
    build_s: float
    digest: str
    span_id: Optional[int]
    redispatched: int
    respawns: int


def _gps_setup(name: str, seed: int, scale: ExperimentScale,
               recorder: SpanRecorder) -> _GPSWorld:
    with recorder.span("internet.generate_universe"):
        universe = make_universe(scale, seed=UNIVERSE_SEED)
    if name == "gps-selfseed":
        return _GPSWorld(universe, {"seed_fraction": SEED_FRACTION,
                                    "seed_scan_seed": seed}, None)
    with recorder.span("datasets.build_lzr_like"):
        dataset = make_lzr_dataset(universe, scale)
    with recorder.span("datasets.split_seed_test"):
        split = split_seed_test(dataset, dataset.sample_fraction / 2, seed=seed)
        seed_result = split.seed_scan_result()
    return _GPSWorld(universe, {"seed_fraction": dataset.sample_fraction / 2,
                                "port_domain": dataset.port_domain},
                     seed_result, dataset)


def _gps_run(world: _GPSWorld, config: GPSConfig,
             recorder: Optional[SpanRecorder] = None):
    """One GPS run on a fresh pipeline (fresh ledger); only ``run`` is timed."""
    pipeline = ScanPipeline(world.universe)
    with GPS(pipeline, config) as gps:
        root = (recorder.span("core.gps") if recorder is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        with root as span_id:
            result = gps.run(seed=world.seed, seed_cost_probes=0)
        seconds = time.perf_counter() - start
        runtime = gps.runtime()  # None on the reference (non-engine) path
        recovery = runtime.recovery_stats if runtime is not None else None
    return result, pipeline, seconds, span_id, recovery


def run_digest(result, pipeline: ScanPipeline) -> str:
    """What a GPS run found and what it cost: sorted discoveries plus the ledger."""
    digest = hashlib.sha256()
    digest.update(repr(sorted(result.discovered_pairs())).encode())
    digest.update(repr(sorted(pipeline.ledger.snapshot().items())).encode())
    return digest.hexdigest()


def _gps_runs(world: _GPSWorld, seconds: float, probe: Optional[SpeedProbe] = None,
              recorder: Optional[SpanRecorder] = None, min_runs: int = MIN_GPS_RUNS):
    """Run GPS back to back until ``seconds`` would be exceeded (at least ``min_runs``).

    With a ``probe``, the probe runs before each run and once after the
    last.  Returns the runs, the last run's ``(result, pipeline)`` and the
    probe times; every run of one configuration finds the same services,
    and the digests check that.
    """
    config = world.config()
    runs: List[_GPSRun] = []
    probes: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        if probe is not None:
            probes.append(probe())
        result, pipeline, elapsed, span_id, recovery = _gps_run(world, config, recorder)
        runs.append(_GPSRun(
            seconds=elapsed, build_s=result.model_build_seconds,
            digest=run_digest(result, pipeline), span_id=span_id,
            redispatched=recovery.redispatched_tasks, respawns=recovery.respawns))
        if len(runs) >= min_runs and time.perf_counter() + elapsed > deadline:
            break
    if probe is not None:
        probes.append(probe())
    return runs, (result, pipeline), probes


def _gps_workload(name: str, seed: int, seconds: float, trace: bool,
                  scale: ExperimentScale, setups: int) -> Measurement:
    recorder = SpanRecorder()
    probe = SpeedProbe()
    setup_times: List[float] = []
    setup_probes: List[float] = []
    for _ in range(setups):
        world = None  # let the previous set-up go before timing the next
        gc.collect()
        setup_probes.append(probe())
        start = time.perf_counter()
        world = _gps_setup(name, seed, scale, recorder)
        setup_times.append(time.perf_counter() - start)
    setup_probes.append(probe())
    setup_at_reference = at_reference_speed(setup_times, setup_probes)

    warmup, _, _ = _gps_runs(world, 0.0, min_runs=1)
    if trace:
        untraced, _, untraced_probes = _gps_runs(world, seconds / 2, probe)
        with instrument(recorder):
            measured, last, probes = _gps_runs(world, seconds / 2, probe, recorder)
    else:
        untraced, untraced_probes = [], []
        measured, last, probes = _gps_runs(world, seconds, probe)
    rss = peak_rss_mb()
    result, pipeline = last

    reference = _gps_run(world, world.config(engine=False))
    expected = run_digest(reference[0], reference[1])
    runs = warmup + untraced + measured
    failed = sum(run.digest != expected for run in runs)
    truth = world.truth()
    ledger = pipeline.ledger
    durations = [run.seconds for run in measured]
    at_reference = at_reference_speed(durations, probes)
    builds = [run.build_s for run in measured]
    detail: Dict[str, object] = {
        "reference_digest": expected,
        "runs": len(measured),
        "latency_iqr_frac": iqr_frac(at_reference),
        "wall_p50_ms": statistics.median(durations) * 1e3,
        "wall_iqr_frac": iqr_frac(durations),
        "probe_s": statistics.median(probes),
        "model_build_s": statistics.median(builds),
        "model_build_iqr_frac": iqr_frac(builds),
        "setup_iqr_frac": iqr_frac(setup_at_reference),
        "setup_wall_s": statistics.median(setup_times),
        "run_seconds": durations,
        "probe_seconds": probes,
    }
    correct = failed == 0
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_at_reference),
            "peak_rss_mb": rss,
            "latency_p50_ms": statistics.median(at_reference) * 1e3,
            "services_found_frac": len(result.discovered_pairs() & truth) / len(truth),
            "bandwidth_full_scans": ledger.full_scans(),
        }
        return Measurement(name, correct, len(runs), failed, metrics, detail)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for layer in _SETUP_LAYERS:
        metrics[f"{layer}_s"] = _median_setup(recorder.spans, layer)
    roots = {run.span_id for run in measured}
    totals = layer_totals(descendants(recorder.spans, roots))
    n = len(measured)
    for span_name, prefix in _RUN_LAYERS.items():
        self_s, calls = totals.get(span_name, (0.0, 0))
        metrics[f"{prefix}_s"] = self_s / n
        if f"{prefix}_calls" in PER_LAYER:
            metrics[f"{prefix}_calls"] = calls / n
    metrics.update({
        "scanner.probes_seed": ledger.total_probes(ScanCategory.SEED),
        "scanner.probes_priors": ledger.total_probes(ScanCategory.PRIORS),
        "scanner.probes_prediction": ledger.total_probes(ScanCategory.PREDICTION),
        "scanner.precision_priors": ledger.precision(ScanCategory.PRIORS),
        "scanner.precision_prediction": ledger.precision(ScanCategory.PREDICTION),
        "scanner.retransmits": ledger.total_retransmits(),
        "core.predictions": len(result.predictions),
        "engine.redispatched_tasks": sum(run.redispatched for run in measured),
        "engine.respawns": sum(run.respawns for run in measured),
        "trace.overhead_frac": (statistics.median(at_reference) / statistics.median(
            at_reference_speed([r.seconds for r in untraced], untraced_probes)) - 1.0),
    })
    layer_sum = sum(metrics[f"{prefix}_s"] for prefix in _RUN_LAYERS.values())
    accounted = layer_sum / statistics.mean(durations)
    metrics["trace.accounted_frac"] = accounted
    detail["accounting_ok"] = abs(accounted - 1.0) <= ACCOUNTING_TOLERANCE
    correct = correct and detail["accounting_ok"]
    return Measurement(name, correct, len(runs), failed, metrics, detail,
                       trace=recorder.to_dict())


# -- serving workloads --------------------------------------------------------------------


@dataclass
class _ServingWorld:
    universe: object
    pipeline: ScanPipeline
    seed: SeedScanResult
    service: GPSService
    config: GPSConfig


async def _serving_setup(scale: ExperimentScale,
                         recorder: SpanRecorder) -> _ServingWorld:
    """The ``serve`` command's warm service: one model from a 5 % seed scan."""
    with recorder.span("internet.generate_universe"):
        universe = make_universe(scale, seed=UNIVERSE_SEED)
    pipeline = ScanPipeline(universe)
    seed_result = pipeline.seed_scan(SEED_FRACTION, seed=UNIVERSE_SEED)
    service = GPSService(ServingConfig(executor="serial"))
    config = GPSConfig(seed_fraction=SEED_FRACTION, use_engine=True, executor="serial")
    start = time.perf_counter()
    await service.load_model(MODEL, pipeline, seed_result, config)
    recorder.record("serving.load_model", start, time.perf_counter())
    return _ServingWorld(universe, pipeline, seed_result, service, config)


Evidence = Tuple[List[ScanObservation], FrozenSet[Tuple[int, int]]]


def lookup_population(world: _ServingWorld, seed: int) -> Dict[int, Evidence]:
    """One known service on every host the model's seed missed.

    This is the question a client asks after finding a host responsive on
    one port: which of its other ports are likely open?  The seed picks
    which of each host's services is the known one.
    """
    seed_ips = {obs.ip for obs in world.seed.observations}
    by_ip: Dict[int, List[ScanObservation]] = {}
    for obs in build_full_dataset(world.universe).observations:
        if obs.ip not in seed_ips:
            by_ip.setdefault(obs.ip, []).append(obs)
    rng = random.Random(f"population-{seed}")
    population: Dict[int, Evidence] = {}
    for ip in sorted(by_ip):
        obs = rng.choice(by_ip[ip])
        population[ip] = ([obs], frozenset({obs.pair()}))
    return population


def oracle_replies(world: _ServingWorld,
                   evidence: Dict[int, Evidence]) -> Dict[int, tuple]:
    """Each host's reply from a plain (non-engine) build of the same seed."""
    base = {"seed_fraction": world.config.seed_fraction}
    oracle = build_prepared_model("oracle", ScanPipeline(world.universe), world.seed,
                                  GPSConfig(**base))
    try:
        return {ip: tuple(oracle.predict(observations, known_pairs=known))
                for ip, (observations, known) in evidence.items()}
    finally:
        oracle.release()


@dataclass
class _Step:
    summary: StepSummary
    outcomes: list
    coalesced: List[int]


class LookupClient:
    """Builds each request itself and checks every reply against the oracle.

    Because the client builds each :class:`PointLookup`, its observations
    tuple identifies the request: with a recorder attached, the tuple's id
    maps to a request id that joins the client's ``serving.lookup`` span to
    the ``serving.predict`` span that served it.
    """

    def __init__(self, service: GPSService, evidence: Dict[int, Evidence],
                 expected: Dict[int, tuple], rng: random.Random) -> None:
        self.service = service
        self.evidence = evidence
        self.expected = expected
        self.hosts = sorted(evidence)
        self.rng = rng
        self.recorder: Optional[SpanRecorder] = None
        self._request_ids = itertools.count(1)
        self.mismatches = 0

    async def lookup(self, ip: int) -> Tuple[bool, int]:
        observations, known = self.evidence[ip]
        request = PointLookup(model=MODEL, observations=tuple(observations),
                              known_pairs=known)
        recorder = self.recorder
        if recorder is None:
            reply = await self.service.lookup(request)
        else:
            key = id(request.observations)
            request_id = next(self._request_ids)
            recorder.requests[key] = request_id
            start = time.perf_counter()
            try:
                reply = await self.service.lookup(request)
            finally:
                recorder.record("serving.lookup", start, time.perf_counter(),
                                request=request_id)
                del recorder.requests[key]
        return reply.predictions == self.expected[ip], reply.coalesced

    async def step(self, rate: float, duration: float) -> _Step:
        """One open-loop Poisson step at ``rate`` requests/s for ``duration`` s."""
        offsets = poisson_offsets(self.rng, rate, duration)
        picks = [self.hosts[self.rng.randrange(len(self.hosts))] for _ in offsets]
        outcomes = await open_loop(offsets, lambda i: self.lookup(picks[i]))
        ok = [isinstance(o.reply, tuple) and o.reply[0] for o in outcomes]
        shed = [isinstance(o.reply, ServiceOverloaded) for o in outcomes]
        self.mismatches += sum(isinstance(o.reply, tuple) and not o.reply[0]
                               for o in outcomes)
        coalesced = [o.reply[1] for o in outcomes if isinstance(o.reply, tuple)]
        return _Step(summarize_step(rate, duration, outcomes, ok, shed),
                     outcomes, coalesced)


def served_quality(world: _ServingWorld, evidence: Dict[int, Evidence],
                   expected: Dict[int, tuple]) -> Dict[str, float]:
    """Coverage and bandwidth of probing every served prediction.

    Over the hosts the workload looks up: the share of their real services
    that the request already knew or the reply predicts, and the replies'
    predicted pairs in 100 % scans.
    """
    hosts = set(evidence)
    truth = {pair for pair in world.universe.real_service_pairs() if pair[0] in hosts}
    predicted = {p.pair() for reply in expected.values() for p in reply}
    known = set().union(*(known for _, known in evidence.values()))
    return {
        "services_found_frac": len((known | predicted) & truth) / len(truth),
        "bandwidth_full_scans": len(predicted) / world.universe.address_space_size(),
    }


async def _serving_phase(name: str, world: _ServingWorld, client: LookupClient,
                         seconds: float, ladder: Sequence[Tuple[int, int]],
                         recorder: Optional[SpanRecorder]):
    """One measured pass: the ladder, or the fixed-rate mix with reloads.

    Returns the lookup steps and the model loads' times and errors.  In the
    mix one closed-loop client rebuilds and swaps the served model back to
    back beside the lookups, and stops at its first error.
    """
    client.recorder = recorder
    load_times: List[float] = []
    load_errors: List[BaseException] = []
    if name == "serve-lookup-open":
        total = sum(weight for _, weight in ladder)
        steps = [await client.step(rate, seconds * weight / total)
                 for rate, weight in ladder]
    else:
        stop = asyncio.Event()

        async def reload_loop() -> None:
            while not stop.is_set():
                start = time.perf_counter()
                try:
                    await world.service.load_model(MODEL, world.pipeline, world.seed,
                                                   world.config)
                except Exception as exc:  # a failed operation, counted by the caller
                    load_errors.append(exc)
                    return
                end = time.perf_counter()
                load_times.append(end - start)
                if recorder is not None:
                    recorder.record("serving.load_model", start, end)

        reloader = asyncio.create_task(reload_loop())
        try:
            steps = [await client.step(RELOAD_MIX_RATE, seconds)]
        finally:
            stop.set()
            await reloader
    client.recorder = None
    return steps, load_times, load_errors


def _reference(name: str, steps: Sequence[_Step]) -> _Step:
    rate = REFERENCE_RATE if name == "serve-lookup-open" else RELOAD_MIX_RATE
    return next(step for step in steps if step.summary.rate == rate)


def _phase_failures(name: str, steps: Sequence[_Step],
                    load_errors: Sequence[BaseException]) -> int:
    """Failed operations: wrong replies, timeouts, errors, and shed requests
    except on ladder steps above the reference rate, which exist to find the
    rate where the service starts shedding."""
    failed = len(load_errors)
    for step in steps:
        summary = step.summary
        failed += summary.failed
        if name != "serve-lookup-open" or summary.rate <= REFERENCE_RATE:
            failed += summary.shed
    return failed


async def _serving_workload(name: str, seed: int, seconds: float, trace: bool,
                            scale: ExperimentScale, setups: int,
                            ladder: Sequence[Tuple[int, int]],
                            warmup_s: float) -> Measurement:
    recorder = SpanRecorder()
    probe = SpeedProbe()
    setup_times: List[float] = []
    setup_probes: List[float] = []
    world: Optional[_ServingWorld] = None
    for _ in range(setups):
        if world is not None:
            await world.service.close()
        world = None
        gc.collect()
        setup_probes.append(probe())
        start = time.perf_counter()
        with instrument(recorder) if trace else contextlib.nullcontext():
            world = await _serving_setup(scale, recorder)
        setup_times.append(time.perf_counter() - start)
    setup_probes.append(probe())
    setup_at_reference = at_reference_speed(setup_times, setup_probes)

    try:
        evidence = lookup_population(world, seed)
        expected = oracle_replies(world, evidence)
        client = LookupClient(world.service, evidence, expected,
                              random.Random(f"schedule-{seed}"))
        with frozen_heap():
            warm = await client.step(
                REFERENCE_RATE if name == "serve-lookup-open" else RELOAD_MIX_RATE,
                warmup_s)
            failed = _phase_failures(name, [warm], [])
            attempted = warm.summary.sent

            phase_seconds = seconds / 2 if trace else seconds
            steps, loads, errors = await _serving_phase(
                name, world, client, phase_seconds, ladder, None)
            failed += _phase_failures(name, steps, errors)
            attempted += sum(s.summary.sent for s in steps) + len(loads) + len(errors)
            if trace:
                stats_before = world.service.stats_snapshot()
                with instrument(recorder):
                    traced, traced_loads, traced_errors = await _serving_phase(
                        name, world, client, phase_seconds, ladder, recorder)
                stats_after = world.service.stats_snapshot()
                failed += _phase_failures(name, traced, traced_errors)
                attempted += (sum(s.summary.sent for s in traced) + len(traced_loads)
                              + len(traced_errors))
        rss = peak_rss_mb()
    finally:
        await world.service.close()

    reference = _reference(name, steps)
    detail: Dict[str, object] = {
        "hosts": len(evidence),
        "mismatches": client.mismatches,
        "setup_iqr_frac": iqr_frac(setup_at_reference),
        "setup_wall_s": statistics.median(setup_times),
        "steps": [vars(step.summary) for step in steps],
        "reference_rate": reference.summary.rate,
        "reference_n": reference.summary.ok,
        "model_loads": len(loads),
        "model_load_s": statistics.median(loads) if loads else None,
        "model_load_iqr_frac": iqr_frac(loads),
    }
    correct = failed == 0
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_at_reference),
            "peak_rss_mb": rss,
            "latency_p50_ms": reference.summary.p50_ms,
            **served_quality(world, evidence, expected),
        }
        return Measurement(name, correct, attempted, failed, metrics, detail)

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["internet.generate_universe_s"] = _median_setup(
        recorder.spans, "internet.generate_universe")
    totals = layer_totals(recorder.spans)
    for span_name, prefix in _RUN_LAYERS.items():
        self_s, calls = totals.get(span_name, (0.0, 0))
        metrics[f"{prefix}_s"] = self_s / calls if calls else 0.0
        if f"{prefix}_calls" in PER_LAYER:
            metrics[f"{prefix}_calls"] = calls
    load_spans = [s.duration for s in recorder.spans if s.name == "serving.load_model"]
    predict_by_request = {s.request: s.duration for s in recorder.spans
                          if s.name == "serving.predict" and s.request is not None}
    lookups = [s for s in recorder.spans if s.name == "serving.lookup"]
    joined = [(s.duration, predict_by_request[s.request]) for s in lookups
              if s.request in predict_by_request]
    predict_ms = [p * 1e3 for _, p in joined] or [0.0]
    queue_ms = [(total - p) * 1e3 for total, p in joined] or [0.0]
    traced_outcomes = [o for step in traced for o in step.outcomes]
    late_ms = [o.late * 1e3 for o in traced_outcomes] or [0.0]
    coalesced = [c for step in traced for c in step.coalesced]
    recovery = stats_after["recovery"]
    traced_reference = _reference(name, traced)
    metrics.update({
        "core.predictions": statistics.mean(len(reply) for reply in expected.values()),
        "engine.redispatched_tasks": recovery["redispatched_tasks"],
        "engine.respawns": recovery["respawns"],
        # 0 when the step was too short for any tail percentile.
        "serving.lookup_p99_ms": reference.summary.tail_ms or 0.0,
        "serving.max_rate_rps": max_rate([s.summary for s in steps]),
        "serving.predict_ms_p50": statistics.median(predict_ms),
        "serving.predict_ms_p99": percentile(predict_ms, 99),
        "serving.queue_ms_p50": statistics.median(queue_ms),
        "serving.queue_ms_p99": percentile(queue_ms, 99),
        "serving.coalesced_mean": statistics.mean(coalesced) if coalesced else 0.0,
        "serving.flushes": stats_after["flushes"] - stats_before["flushes"],
        "serving.shed": stats_after["shed"] - stats_before["shed"],
        "serving.timeouts": stats_after["timeouts"] - stats_before["timeouts"],
        "serving.load_model_s": statistics.mean(load_spans),
        "loadgen.sent": len(traced_outcomes),
        "loadgen.late_ms_p50": statistics.median(late_ms),
        "loadgen.late_ms_p99": percentile(late_ms, 99),
        "trace.overhead_frac": (traced_reference.summary.p50_ms
                                / reference.summary.p50_ms - 1.0),
        "trace.accounted_frac": len(joined) / len(lookups) if lookups else 0.0,
    })
    detail["traced_steps"] = [vars(step.summary) for step in traced]
    detail["accounting_ok"] = metrics["trace.accounted_frac"] >= 1.0 - ACCOUNTING_TOLERANCE
    correct = correct and detail["accounting_ok"]
    return Measurement(name, correct, attempted, failed, metrics, detail,
                       trace=recorder.to_dict())
