"""Parallelizable computation engine: the reproduction's BigQuery substitute.

The paper implements GPS's model building -- self-joining the seed scan to
find all pairwise feature/port combinations, aggregating identical patterns,
and computing conditional probabilities -- as SQL on Google BigQuery, because
the computation is "heavily reading data, aggregating, and joining among
shared data fields" (Section 5.5) and embarrassingly parallel.

Offline we cannot use BigQuery, so this package provides one engine path for
all three of GPS's Table 2 builds:

* :mod:`~repro.engine.encoding` -- dictionary encoding of hashable values to
  dense integer ids (cheap grouping keys, ``PYTHONHASHSEED``-independent
  sharding, compact cross-process payloads);
* :mod:`~repro.engine.columns` -- machine-native int64 column buffers and
  the stdlib/numpy kernel-backend switch;
* :mod:`~repro.engine.fused` -- the model build's self-join fold (stdlib
  and numpy kernels), and the numpy segment reductions of the priors
  planner's partner selection and the index build's argmax over one
  candidate table per shard and model;
* :mod:`~repro.engine.shard` -- ``PYTHONHASHSEED``-independent hash
  partitioning of encoded columns into shards with a stable identity;
* :mod:`~repro.engine.runtime` -- the persistent execution runtime: the
  in-process ``serial`` executor or the ``pool`` of worker processes, either
  of which holds sharded columns resident and runs every fold against them.

GPS's builds (:mod:`repro.core.model`, :mod:`repro.core.priors`,
:mod:`repro.core.predictions`) each ship two implementations: a direct
dictionary-based one (the single-core reference oracle) and one on this
engine; the test suite asserts they produce identical results on every
executor and column backend.
"""

from repro.engine.encoding import DictionaryEncoder, stable_hash
from repro.engine.runtime import (
    RUNTIME_EXECUTORS,
    EngineRuntime,
    WorkerCrashError,
    WorkerTaskError,
)
from repro.engine.shard import ShardedColumns, shard_columns, shard_group_columns

__all__ = [
    "DictionaryEncoder",
    "stable_hash",
    "RUNTIME_EXECUTORS",
    "EngineRuntime",
    "WorkerCrashError",
    "WorkerTaskError",
    "ShardedColumns",
    "shard_columns",
    "shard_group_columns",
]
