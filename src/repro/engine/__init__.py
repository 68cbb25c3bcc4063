"""Parallelizable computation engine: the reproduction's BigQuery substitute.

The paper implements GPS's model building -- self-joining the seed scan to
find all pairwise feature/port combinations, aggregating identical patterns,
and computing conditional probabilities -- as SQL on Google BigQuery, because
the computation is "heavily reading data, aggregating, and joining among
shared data fields" (Section 5.5) and embarrassingly parallel.

Offline we cannot use BigQuery, so this package provides one engine path for
all three of GPS's Table 2 builds:

* :mod:`~repro.engine.encoding` -- dictionary encoding of hashable values to
  dense integer ids (cheap grouping keys, compact flat payloads);
* :mod:`~repro.engine.columns` -- machine-native int64 column buffers;
* :mod:`~repro.engine.fused` -- the numpy folds: the model build's
  self-join, and the segment reductions of the priors planner's partner
  selection and the index build's argmax over one candidate table per
  model;
* :mod:`~repro.engine.runtime` -- the in-process execution runtime, which
  holds one build's columns resident and runs every fold against them.

GPS's builds (:mod:`repro.core.model`, :mod:`repro.core.priors`,
:mod:`repro.core.predictions`) each ship two implementations: a direct
dictionary-based one (the single-core reference oracle) and one on this
engine; the test suite asserts they produce identical results.
"""

from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.runtime import RUNTIME_EXECUTORS, EngineRuntime

__all__ = [
    "DictionaryEncoder",
    "stable_hash",
    "RUNTIME_EXECUTORS",
    "EngineRuntime",
]
