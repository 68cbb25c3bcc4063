"""Dictionary encoding: interning hashable values as dense integer ids.

The engine's hot values -- predictor tuples especially -- are nested tuples
mixing strings and ints.  Grouping and storing them pays the full
cost of their structure on every touch.  A :class:`DictionaryEncoder` interns each distinct value once and
hands out a dense integer id, so the rest of a query operates on flat ints:

* grouping keys become ints (or short int tuples), which hash and compare in
  a few nanoseconds;
* resident payloads and snapshot files hold columns of ints instead of
  lists of nested tuples.

Ids are assigned in first-seen order, so encoding is deterministic for a
deterministic input stream; :meth:`DictionaryEncoder.decode` reverses the
mapping when the query result is reassembled into model dictionaries.

:func:`stable_hash` is a companion value hash: unlike the builtin ``hash``,
it does not vary with ``PYTHONHASHSEED`` for str-bearing values, so seeded
draws keyed on it (the scanner's probe loss,
:class:`repro.engine.faults.ProbeLossModel`) repeat across interpreter
invocations.
"""

from __future__ import annotations

import zlib
from typing import Any, Hashable, Iterable, List, Sequence

__all__ = ["DictionaryEncoder", "stable_hash"]


class DictionaryEncoder:
    """Bidirectional mapping between hashable values and dense integer ids.

    One encoder instance defines one id space: equal values always receive
    the same id and distinct values distinct ids, so comparing ids is exactly
    comparing values.  A single encoder can therefore intern values from many
    columns at once (join keys, group keys, exclusion columns) and equality
    semantics survive the encoding.
    """

    def __init__(self) -> None:
        self._ids: dict = {}
        self._values: List[Hashable] = []

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: Hashable) -> int:
        """Return the id for ``value``, assigning the next dense id if new."""
        ids = self._ids
        existing = ids.get(value)
        if existing is not None:
            return existing
        new_id = len(self._values)
        ids[value] = new_id
        self._values.append(value)
        return new_id

    def encode_column(self, values: Iterable[Hashable]) -> List[int]:
        """Encode a whole column, returning the parallel list of ids.

        A list or tuple whose values all have ids already is read in one
        C-level pass, and one of distinct values none of which has an id
        is numbered in another; otherwise values are assigned ids in order.
        """
        ids = self._ids
        if isinstance(values, (list, tuple)):
            try:
                return list(map(ids.__getitem__, values))
            except KeyError:
                pass
            start = len(self._values)
            fresh = dict(zip(values, range(start, start + len(values))))
            if len(fresh) == len(values) and ids.keys().isdisjoint(fresh):
                ids.update(fresh)
                self._values.extend(values)
                return list(fresh.values())
        out: List[int] = []
        append = out.append
        for value in values:
            existing = ids.get(value)
            if existing is None:
                existing = len(self._values)
                ids[value] = existing
                self._values.append(value)
            append(existing)
        return out

    def values(self) -> List[Hashable]:
        """The interned values in id order (``values()[i]`` decodes id ``i``).

        Side tables aligned with the id space are built from this view: the
        fused priors planner, for example, derives one probability row per
        interned predictor tuple by iterating the values once after all
        columns are encoded.
        """
        return list(self._values)

    def decode(self, encoded: int) -> Hashable:
        """Return the value interned under ``encoded``."""
        try:
            return self._values[encoded]
        except IndexError:
            raise KeyError(f"unknown encoded id: {encoded}") from None

    def decode_tuple(self, encoded: Sequence[int]) -> tuple:
        """Decode a tuple of ids element-wise (group keys come back this way)."""
        values = self._values
        return tuple(values[i] for i in encoded)


def stable_hash(value: Any) -> int:
    """A deterministic, ``PYTHONHASHSEED``-independent value hash.

    Like the builtin ``hash`` it is consistent with equality for the value
    kinds the engine stores (ints, bools and integral floats that compare
    equal hash equal; equal tuples hash equal regardless of element repr),
    but unlike the builtin it does not vary with ``PYTHONHASHSEED``, so
    draws keyed on it are bit-reproducible.  Integers hash to themselves;
    tuples combine element hashes recursively; strings and everything else
    hash via CRC-32.  It does not mix its bits (nearby keys hash nearby) and
    is not cryptographic; callers that need uniform draws finalize it (see
    :class:`repro.engine.faults.ProbeLossModel`).
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # 2.0 == 2 must hash equal; non-integral floats never equal ints.
        if value.is_integer():
            return int(value)
        return zlib.crc32(repr(value).encode("utf-8"))
    if isinstance(value, tuple):
        # CPython-style tuple combination over stable element hashes, folded
        # to 64 bits; equal tuples combine equal element hashes.
        combined = 0x345678
        for item in value:
            combined = ((combined * 1000003) ^ stable_hash(item)) & 0xFFFFFFFFFFFFFFFF
        return combined
    if isinstance(value, str):
        return zlib.crc32(value.encode("utf-8"))
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if value is None:
        return 0x6E6F6E65  # "none"
    return zlib.crc32(repr(value).encode("utf-8"))
