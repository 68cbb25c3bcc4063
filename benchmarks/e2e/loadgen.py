"""Open-loop load generation and the latency statistics the benchmark reports.

The generator is one asyncio coroutine in the benchmark's own process.  It
sends each request at its scheduled time whether or not earlier ones have
finished (independent users: an open loop), so a stall shows up as a
backlog rather than as less load.  Latency is timed from when a request was
*due*, so the wait a stall imposes on later requests is counted, and the
generator's own lateness (sent minus due) is reported beside it.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence

#: Tail percentiles, highest first; a percentile is reported only when at
#: least ``MIN_BEYOND`` samples lie beyond it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> Optional[float]:
    """The highest tail percentile with ``MIN_BEYOND`` of ``n`` samples past it."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return q
    return None


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process at ``rate`` per second over ``duration``."""
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


@dataclass
class Outcome:
    """One request: when it was due, sent and done, and what came back."""

    due: float
    sent: float
    done: float
    reply: object

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


async def open_loop(offsets: Sequence[float],
                    call: Callable[[int], Awaitable[object]]) -> List[Outcome]:
    """Start ``call(i)`` at ``offsets[i]`` seconds from now; wait for all of them.

    A call that raises keeps its exception as the reply: the generator never
    stops on a failed request, it records it.
    """
    loop = asyncio.get_running_loop()
    clock = time.perf_counter
    start = clock()
    outcomes: List[Outcome] = []
    tasks = []

    async def fire(outcome: Outcome, index: int) -> None:
        try:
            outcome.reply = await call(index)
        except Exception as exc:  # recorded and counted by the caller
            outcome.reply = exc
        outcome.done = clock()

    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(due=due, sent=clock(), done=0.0, reply=None)
        outcomes.append(outcome)
        tasks.append(loop.create_task(fire(outcome, index)))
    await asyncio.gather(*tasks)
    return outcomes


@dataclass(frozen=True)
class StepSummary:
    """One rate step of a ladder.

    ``tail_ms`` is taken at ``tail_q``, the highest percentile up to p99 the
    sample supports (both ``None`` when it supports none; ``p50_ms`` is
    ``None`` when no request succeeded).  ``achieved_rps`` counts successful
    replies over the time from the step's first request to its last reply,
    so a backlog that outlives the schedule lowers it.
    """

    rate: float
    sent: int
    ok: int
    shed: int
    failed: int
    p50_ms: Optional[float]
    tail_q: Optional[float]
    tail_ms: Optional[float]
    achieved_rps: float
    offered_rps: float


def summarize_step(rate: float, duration: float, outcomes: Sequence[Outcome],
                   ok: Sequence[bool], shed: Sequence[bool]) -> StepSummary:
    """Reduce one step's outcomes; ``ok``/``shed`` classify each reply."""
    good = [o.latency for o, k in zip(outcomes, ok) if k]
    n_shed = sum(shed)
    failed = len(outcomes) - sum(ok) - n_shed
    tail_q = supported_percentile(len(good))
    if outcomes:
        first_due = min(o.due for o in outcomes)
        span = max(max(o.done for o in outcomes) - first_due, duration)
    else:
        span = duration
    return StepSummary(
        rate=rate, sent=len(outcomes), ok=len(good), shed=n_shed, failed=failed,
        p50_ms=statistics.median(good) * 1e3 if good else None,
        tail_q=tail_q,
        tail_ms=percentile(good, tail_q) * 1e3 if tail_q is not None else None,
        achieved_rps=len(good) / span if span > 0 else 0.0,
        offered_rps=len(outcomes) / duration if duration > 0 else 0.0,
    )


def max_rate(steps: Sequence[StepSummary], limit_ms: float = 10.0) -> float:
    """The highest step whose tail meets ``limit_ms`` with no backlog and no failures.

    A step without enough samples for any tail percentile does not qualify,
    and neither does one that shed a request or fell below 95 % of its
    offered rate.  Returns 0 when no step qualifies.
    """
    best = 0.0
    for step in steps:
        if (step.tail_ms is not None and step.tail_ms <= limit_ms
                and step.shed == 0 and step.failed == 0
                and step.achieved_rps >= 0.95 * step.offered_rps):
            best = max(best, step.rate)
    return best
