"""Unified telemetry: metrics registry and span tracer.

(Named ``telemetry`` rather than ``metrics`` to avoid colliding with
``repro.core.metrics``, which holds the *paper's* coverage/precision
metrics -- those measure GPS, this package measures the software running
it.)

The :class:`Telemetry` facade bundles the two instrument surfaces every
instrumented layer needs -- a :class:`~repro.telemetry.registry.MetricsRegistry`
for counters/gauges/histograms and a :class:`~repro.telemetry.tracing.Tracer`
for phase span trees -- behind one enabled/disabled switch.  Components take an optional ``telemetry`` argument and default to
:data:`NULL_TELEMETRY`, whose instruments are all shared no-ops, so the
disabled path costs an attribute read and a no-op method call at most.

Everything in this package is standard-library only, so any layer can
import it without cycles.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import NULL_SPAN, Span, Tracer, trace_span

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "Span",
    "Telemetry",
    "Tracer",
    "trace_span",
]


class Telemetry:
    """One run's (or one service's) metrics + tracer behind a single switch.

    Attributes:
        enabled: False makes every instrument a shared no-op.
        metrics: the registry; ``counter``/``gauge``/``histogram`` delegate.
        tracer: the span tracer; :meth:`span` delegates.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 100_000) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled, max_spans=max_spans)

    # -- instrument delegates ------------------------------------------------------

    def counter(self, name: str, help_text: str = "", **labels: str):
        return self.metrics.counter(name, help_text, **labels)

    def gauge(self, name: str, help_text: str = "", **labels: str):
        return self.metrics.gauge(name, help_text, **labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets=DEFAULT_LATENCY_BUCKETS, **labels: str):
        return self.metrics.histogram(name, help_text, buckets=buckets,
                                      **labels)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    # -- export --------------------------------------------------------------------

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()

    def write_trace(self, path: str) -> None:
        self.tracer.write_json(path)


#: Shared disabled instance -- the default for every instrumented component.
NULL_TELEMETRY = Telemetry(enabled=False)


def telemetry_or_null(telemetry: Optional[Telemetry]) -> Telemetry:
    """Normalise an optional telemetry argument to a usable instance."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
