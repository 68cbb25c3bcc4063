"""Dependency-free metrics registry: counters, gauges, latency histograms.

The registry is the pull side of the telemetry subsystem: instrumented code
creates named instruments once (get-or-create, so hot paths can resolve a
labeled child per call without bookkeeping) and increments them; an exporter
renders the whole registry in one pass -- either the Prometheus text
exposition format (``GET /metrics`` in the serving layer) or a plain dict
for tests and reports.

Design constraints, in order:

* **near-zero cost when disabled** -- a registry constructed with
  ``enabled=False`` hands out shared null instruments whose mutators are
  single-``pass`` methods; instrumented code never branches on a flag
  beyond what it already does to avoid computing label values;
* **thread-safe** -- one registry-wide lock guards creation *and* updates.
  Every instrumented path in this codebase (serving worker threads, the
  engine coordinator, scan sweeps) mutates coarse-grained counters at rates
  where a contended ``dict``/``float`` update under one lock is noise; the
  simplicity buys exact totals under concurrency, which the tests assert;
* **fixed buckets** -- histograms are classic cumulative-bucket Prometheus
  histograms with bounds fixed at creation; ``le`` means "less than or
  equal", and one ``+Inf`` bucket is implicit.

Nothing here imports anything outside the standard library.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
]

#: Default histogram bounds, in seconds: 100 microseconds to 10 seconds,
#: roughly logarithmic.  Wide enough for both a micro-batched index read and
#: a full model build; callers with tighter distributions pass their own.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers render without a trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Tuple[Tuple[str, str], ...],
                   extra: Optional[Tuple[str, str]] = None) -> str:
    """``{a="x",b="y"}`` (empty string for no labels); ``le`` renders last."""
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + rendered + "}"


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


class Counter:
    """Monotonically increasing count (one labeled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        # acquire/try/finally is measurably cheaper than ``with`` on the
        # serving hot path, where every lookup updates four instruments.
        lock = self._lock
        lock.acquire()
        try:
            self._value += amount
        finally:
            lock.release()

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that goes up and down (resident bytes, pending requests)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` *exclusively of
    earlier buckets* internally; rendering accumulates them, so the exposed
    ``le`` series is cumulative exactly like a Prometheus client's.
    """

    __slots__ = ("_lock", "bounds", "_bucket_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self._lock = lock
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        lock = self._lock
        lock.acquire()  # not ``with``: see Counter.inc
        try:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
        finally:
            lock.release()

    def observe_and_count(self, value: float, counter: Counter) -> None:
        """``observe(value)`` plus ``counter.inc()`` in one lock round trip.

        For call sites that always update the pair together -- the serving
        layer's per-request and per-flush accounting, where the lock round
        trips are a measurable share of a ~35 us lookup.  ``counter`` must
        come from this histogram's registry, whose lock every child shares.
        """
        index = bisect_left(self.bounds, value)
        lock = self._lock
        lock.acquire()  # not ``with``: see Counter.inc
        try:
            counter._value += 1.0
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
        finally:
            lock.release()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[str, int]]:
        """``[(le, cumulative count), ...]`` ending with ``("+Inf", count)``."""
        out: List[Tuple[str, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self._bucket_counts):
            running += bucket
            out.append((_format_value(bound), running))
        out.append(("+Inf", running + self._bucket_counts[-1]))
        return out


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_and_count(self, value: float, counter: object) -> None:
        pass

    value = 0.0
    count = 0
    sum = 0.0


_NULL_INSTRUMENT = _NullInstrument()


class _Family:
    """One metric name: its kind, help text and labeled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Tuple[float, ...]]) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = buckets
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Thread-safe name -> instrument table with Prometheus rendering.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first call
    under a name fixes its kind, help text and (for histograms) bucket
    bounds; later calls with the same name and labels return the same
    instrument, so instrumented code can resolve handles per call.  A name
    reused with a different kind raises -- that is a bug, not a preference.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        # (name, kind, *label items in call order) -> child: the lock-free
        # fast path for call sites that resolve their handles per call.
        self._handles: Dict[tuple, object] = {}

    # -- instrument creation -------------------------------------------------------

    # A handle resolved before is read from ``_handles`` without the lock,
    # label sorting or bucket conversion (a dict read is atomic under the
    # GIL); only the first resolution takes the ``_child`` slow path.

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return (self._handles.get((name, "counter", *labels.items()))
                or self._child(name, "counter", help_text, None, labels))

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return (self._handles.get((name, "gauge", *labels.items()))
                or self._child(name, "gauge", help_text, None, labels))

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        return (self._handles.get((name, "histogram", *labels.items()))
                or self._child(name, "histogram", help_text, buckets, labels))

    def _child(self, name: str, kind: str, help_text: str,
               buckets: Optional[Sequence[float]],
               labels: Dict[str, str]):
        if not self.enabled:
            return _NULL_INSTRUMENT
        label_key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                # Registered below, once its first child is built: bounds
                # a Histogram rejects must not stick to the name.
                family = _Family(name, kind, help_text,
                                 tuple(float(b) for b in buckets)
                                 if buckets is not None else None)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested {kind}")
            child = family.children.get(label_key)
            if child is None:
                if kind == "counter":
                    child = Counter(self._lock)
                elif kind == "gauge":
                    child = Gauge(self._lock)
                else:
                    child = Histogram(self._lock, family.buckets)
                family.children[label_key] = child
            self._families[name] = family
            self._handles[(name, kind, *labels.items())] = child
            return child

    # -- export --------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format (0.0.4).

        Families render sorted by name and children sorted by label set, so
        the output is deterministic -- the golden test pins it.  An empty
        (or disabled) registry renders the empty string, which is a valid
        exposition document.
        """
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
            for family in families:
                if not family.children:
                    continue
                if family.help:
                    lines.append(f"# HELP {family.name} {family.help}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                for label_key in sorted(family.children):
                    child = family.children[label_key]
                    if family.kind == "histogram":
                        assert isinstance(child, Histogram)
                        for le, cumulative in child.cumulative_buckets():
                            lines.append(
                                f"{family.name}_bucket"
                                f"{_format_labels(label_key, ('le', le))} "
                                f"{cumulative}")
                        lines.append(
                            f"{family.name}_sum{_format_labels(label_key)} "
                            f"{_format_value(child.sum)}")
                        lines.append(
                            f"{family.name}_count{_format_labels(label_key)} "
                            f"{child.count}")
                    else:
                        value = child.value  # type: ignore[union-attr]
                        lines.append(
                            f"{family.name}{_format_labels(label_key)} "
                            f"{_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot (tests, reports); one entry per family."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            for name, family in sorted(self._families.items()):
                samples = []
                for label_key in sorted(family.children):
                    child = family.children[label_key]
                    if family.kind == "histogram":
                        assert isinstance(child, Histogram)
                        samples.append({
                            "labels": dict(label_key),
                            "buckets": dict(child.cumulative_buckets()),
                            "sum": child.sum,
                            "count": child.count,
                        })
                    else:
                        samples.append({
                            "labels": dict(label_key),
                            "value": child.value,  # type: ignore[union-attr]
                        })
                out[name] = {"type": family.kind, "help": family.help,
                             "samples": samples}
        return out


#: Shared disabled registry: every instrument it hands out is a no-op.
NULL_REGISTRY = MetricsRegistry(enabled=False)
