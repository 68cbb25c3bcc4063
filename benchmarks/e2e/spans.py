"""In-memory spans for the benchmark's traced runs, recorded from outside the program.

The benchmark does not edit the program to trace it.  :func:`instrument`
swaps the public entry points that :mod:`repro.core.gps` and
:mod:`repro.serving.registry` call for timed wrappers, and puts the originals
back on exit.  Calls the benchmark makes itself (a GPS run, a lookup, a model
load, a set-up step) are timed where they are made.

A span is ``(id, name, start, end, parent, request)``.  Synchronous code nests
spans through a per-thread parent stack.  Coroutines on the event loop
interleave, so they record finished spans with :meth:`SpanRecorder.record`
instead and are joined to the worker-thread spans they caused through a
request id.  A layer's self time is its span's duration minus the part of it
that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

import repro.core.gps
import repro.serving.registry
from repro.core.predictions import PredictiveFeatureIndex
from repro.core.runtime_plans import ResidentHostGroups
from repro.scanner.pipeline import ScanPipeline
from repro.serving.registry import PreparedModel


@dataclass(frozen=True)
class Span:
    """One finished span; times are ``time.perf_counter()`` seconds."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; nothing leaves memory until :meth:`to_dict`.

    ``requests`` maps ``id(observations)`` of each in-flight
    :class:`~repro.serving.schemas.PointLookup` to its request id.  The load
    generator fills it, and the ``serving.predict`` wrapper reads it to tag
    the prediction that served the request.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.requests: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[int]:
        """Time a synchronous block as a child of this thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, request))

    def record(self, name: str, start: float, end: float,
               request: Optional[int] = None) -> None:
        """Add a span the caller timed itself (a coroutine's, with no parent)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, request))

    def to_dict(self) -> Dict[str, object]:
        """The spans plus each one's self time, ready for ``json.dump``."""
        selfs = self_times(self.spans)
        return {"spans": [
            {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request,
             "self_s": selfs[s.span_id]}
            for s in self.spans]}


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration - covered
    return out


def descendants(spans: Iterable[Span], roots: Set[int]) -> List[Span]:
    """The spans in the trees under ``roots``, roots included."""
    spans = list(spans)
    kids: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append(span)
    out = [span for span in spans if span.span_id in roots]
    frontier = list(out)
    while frontier:
        nxt = [child for span in frontier for child in kids.get(span.span_id, ())]
        out.extend(nxt)
        frontier = nxt
    return out


def layer_totals(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Per span name: (summed self seconds, call count)."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += selfs[span.span_id]
        entry[1] += 1
    return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}


#: Functions ``repro.core.gps`` and ``repro.serving.registry`` import by name
#: for the engine path, and the span each call becomes.
_FUNCTIONS = {
    "extract_host_features_columns": "core.extract_features",
    "build_model_with_engine": "core.build_model",
    "build_priors_plan_with_engine": "core.build_priors",
    "build_prediction_index_with_engine": "core.build_index",
}

#: Methods of classes those modules import, and the span each call becomes.
_METHODS = (
    (ScanPipeline, "seed_scan", "scanner.seed_scan"),
    (ScanPipeline, "scan_prefix", "scanner.scan_prefix"),
    (ScanPipeline, "scan_pairs", "scanner.scan_pairs"),
    (PredictiveFeatureIndex, "predict", "core.predict"),
    (ResidentHostGroups, "__init__", "engine.resident_load"),
    (ResidentHostGroups, "release", "engine.resident_release"),
)


def _timed(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_serving_predict(recorder: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, observations, known_pairs=None):
        with recorder.span("serving.predict",
                           request=recorder.requests.get(id(observations))):
            return fn(self, observations, known_pairs)
    return wrapper


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route the program's layer entry points through ``recorder``.

    Patches are undone on exit, so untraced runs in the same process pay
    nothing.
    """
    saved: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, replacement: object) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    try:
        for module in (repro.core.gps, repro.serving.registry):
            for attr, name in _FUNCTIONS.items():
                patch(module, attr, _timed(recorder, name, getattr(module, attr)))
        for cls, attr, name in _METHODS:
            patch(cls, attr, _timed(recorder, name, vars(cls)[attr]))
        patch(PreparedModel, "predict",
              _timed_serving_predict(recorder, vars(PreparedModel)["predict"]))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
