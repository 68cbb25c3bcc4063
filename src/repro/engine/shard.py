"""Sharding encoded columns for the persistent execution runtime.

Contiguous chunks are cheap to slice but meaningless as an identity: chunk
boundaries move whenever the worker count does, so a worker could never
keep "its" chunk around between calls.  The persistent runtime
(:mod:`repro.engine.runtime`) needs a partitioning that is a stable
property of the *data*, so each worker can hold its shard resident and
later plan executions ship nothing but the plan.

:func:`shard_assignments` provides that identity: rows (or groups) are
assigned to shards by :func:`repro.engine.encoding.stable_hash`, which does
not vary with ``PYTHONHASHSEED``, so the shard a row lands in is reproducible
across interpreter invocations and independent of worker count (workers own
whole shards -- placed least-loaded by row count at load time -- so changing
the worker count re-distributes shards, never splits them).

Two layouts are sharded:

* :func:`shard_columns` -- flat named columns: rows scatter by the hash of
  a key column, and parallel columns stay row-aligned within each shard.
* :func:`shard_group_columns` -- group-structured columns (the fused folds'
  flattening: groups own contiguous member runs, members own contiguous
  value runs): whole groups scatter by the hash of a per-group assignment
  key, and each shard's offset columns are rebuilt locally (they
  start at 0, so no rebasing is needed worker-side).  ``group_order`` records
  every group's original index, letting drivers reassemble order-sensitive
  results (the argmax winner list) bit-identically to the serial fold.

Both return a :class:`ShardedColumns`: one dict of plain-data columns per
shard, ready to ship to (and stay resident in) a runtime worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.engine.columns import IntColumn, require_numpy, to_numpy
from repro.engine.encoding import stable_hash

__all__ = [
    "ShardedColumns",
    "shard_assignments",
    "shard_columns",
    "shard_group_columns",
]


@dataclass(frozen=True)
class ShardedColumns:
    """Columns partitioned into shards, each a plain-data payload dict.

    Attributes:
        shard_count: number of shards (every list below has this length).
        shards: per-shard ``{column name -> list}`` payloads, each held
            resident by the runtime worker the pool's load-time placement
            assigns it (least-loaded by row count; see
            :func:`repro.engine.runtime.lpt_placement`).
    """

    shard_count: int
    shards: Tuple[Dict[str, Any], ...]

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if len(self.shards) != self.shard_count:
            raise ValueError("shards must have exactly shard_count entries")

    def __len__(self) -> int:
        return self.shard_count


def shard_assignments(keys: Sequence[Any], shard_count: int) -> List[int]:
    """Assign each key to a shard by its stable hash.

    The assignment is a pure function of the key values and ``shard_count``
    -- independent of ``PYTHONHASHSEED``, worker count and enumeration order
    -- so re-sharding the same data always reproduces the same layout.
    Integer keys (dictionary-encoded ids, IPv4 addresses) hash to themselves
    and spread round-robin with perfect balance.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if shard_count == 1:
        return [0] * len(keys)
    return [stable_hash(key) % shard_count for key in keys]


def shard_columns(columns: Mapping[str, Sequence[Any]], key: str,
                  shard_count: int) -> ShardedColumns:
    """Partition flat row-aligned columns by the stable hash of ``key``.

    Every column must be parallel to ``columns[key]``; rows keep their
    relative order within a shard, and each shard's columns stay row-aligned.
    Row order across shards is *not* preserved -- this layout is for
    order-insensitive folds (counters).
    """
    key_col = columns[key]
    names = list(columns)
    for name in names:
        if len(columns[name]) != len(key_col):
            raise ValueError(f"column {name!r} is not aligned with key column {key!r}")
    assignments = shard_assignments(key_col, shard_count)
    shards: List[Dict[str, Any]] = [{name: [] for name in names}
                                    for _ in range(shard_count)]
    appends = [[shard[name].append for name in names] for shard in shards]
    for i, shard_idx in enumerate(assignments):
        row_appends = appends[shard_idx]
        for j, name in enumerate(names):
            row_appends[j](columns[name][i])
    return ShardedColumns(shard_count=shard_count, shards=tuple(shards))


def shard_group_columns(
        assign_keys: Sequence[Any],
        group_keys: Sequence[int],
        member_starts: Sequence[int],
        labels: Sequence[int],
        value_starts: Sequence[int],
        value_ids: Sequence[int],
        shard_count: int,
) -> ShardedColumns:
    """Partition group-structured columns (the partner/argmax flattening).

    Args:
        assign_keys: one hashable per group; the group's shard is
            ``stable_hash(assign_keys[g]) % shard_count``.  Callers pick an
            identity that is unique-ish per group (the host address) so load
            balances even when many groups share a ``group_keys`` value.
        group_keys: one key per group (the priors planner's subnet key).
        member_starts: group ``g`` owns members
            ``member_starts[g]:member_starts[g + 1]``.
        labels: per-member label, parallel to the member index space.
        value_starts: member ``m`` owns values
            ``value_starts[m]:value_starts[m + 1]``.
        value_ids: dictionary-encoded values.
        shard_count: number of shards to produce.

    Each shard payload holds locally-rebuilt ``group_keys`` / ``member_starts``
    / ``labels`` / ``value_starts`` / ``value_ids`` columns (offsets start at
    0) plus ``group_order``: the original index of every group in the shard,
    ascending, so order-sensitive results can be merged back into the exact
    serial order.

    The scatter is a few numpy passes per shard.  Payload columns are
    returned as :class:`~repro.engine.columns.IntColumn` buffers: a resident
    shard is one machine-native allocation per column (not a list of boxed
    ints), the numpy kernels read the buffers
    zero-copy, and shipping a shard to a pool worker pickles each column as
    a single contiguous ``tobytes()`` blob instead of one object per
    element.
    """
    group_count = len(group_keys)
    if len(assign_keys) != group_count:
        raise ValueError("assign_keys must have one entry per group")
    if len(member_starts) != group_count + 1:
        raise ValueError("member_starts must have len(group_keys) + 1 entries")
    np = require_numpy()
    assignments = np.array(shard_assignments(assign_keys, shard_count),
                           dtype=np.int64)
    member_counts = np.diff(to_numpy(member_starts))
    value_counts = np.diff(to_numpy(value_starts))
    member_shard = np.repeat(assignments, member_counts)
    value_shard = np.repeat(member_shard, value_counts)
    columns = (to_numpy(group_keys), to_numpy(labels), to_numpy(value_ids))
    shards = []
    for shard_idx in range(shard_count):
        groups = np.flatnonzero(assignments == shard_idx)
        members = np.flatnonzero(member_shard == shard_idx)
        values = np.flatnonzero(value_shard == shard_idx)
        # Groups keep ascending original order, and their member and value
        # runs stay contiguous, so the local offsets are running sums.
        shards.append({
            "group_order": IntColumn.from_numpy(groups),
            "group_keys": IntColumn.from_numpy(columns[0][groups]),
            "member_starts": IntColumn.from_numpy(
                np.append(0, np.cumsum(member_counts[groups]))),
            "labels": IntColumn.from_numpy(columns[1][members]),
            "value_starts": IntColumn.from_numpy(
                np.append(0, np.cumsum(value_counts[members]))),
            "value_ids": IntColumn.from_numpy(columns[2][values]),
        })
    return ShardedColumns(shard_count=shard_count, shards=tuple(shards))
