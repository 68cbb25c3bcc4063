"""Machine-native column storage.

Hot columns (:class:`~repro.scanner.records.ObservationBatch`,
:class:`~repro.core.features.HostFeatureColumns`, the engine runtime's
resident payloads) are backed by :class:`IntColumn` -- a signed
64-bit :class:`array.array` subclass -- instead of Python lists.  An
``array('q')`` stores one machine word per element (a list stores a pointer
to a boxed ``int``), writes to disk as a single contiguous byte buffer (one
``tobytes()`` per column when a snapshot saves), and exports the buffer
protocol, so bulk kernels can
fold over it without ever materializing Python ints:

* ``numpy.frombuffer(column, dtype=int64)`` is a zero-copy ndarray view
  (what the vectorized kernels in :mod:`repro.engine.fused` fold over).
"""

from __future__ import annotations

from array import array
from typing import Iterable

import numpy as np

__all__ = [
    "ColumnView",
    "INT64_MAX",
    "INT64_MIN",
    "IntColumn",
    "as_numpy",
    "resolve_column_backend",
    "to_numpy",
]

#: The value range an :class:`IntColumn` element can hold.
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

class IntColumn(array):
    """A signed 64-bit integer column: ``array('q')`` with sequence equality.

    Construction takes just the values (the typecode is fixed), and ``==``
    compares element-wise against lists and tuples as well as arrays, so
    column-backed containers stay drop-in comparable with the object-path
    oracles that produce plain lists.  Everything else -- ``append`` /
    ``extend`` folding, slicing, pickling, iteration, the buffer protocol --
    is inherited from :class:`array.array` unchanged.

    Elements must fit in int64 (:data:`INT64_MIN` .. :data:`INT64_MAX`);
    out-of-range values raise ``OverflowError`` at insert time, which is the
    point: every consumer downstream (the packed fold kernels, numpy views,
    snapshot column files) assumes machine words.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()) -> "IntColumn":
        return super().__new__(cls, "q", values)

    @classmethod
    def from_numpy(cls, values) -> "IntColumn":
        """A column holding an ndarray's values, copied in one pass."""
        column = cls()
        column.frombytes(np.ascontiguousarray(values, dtype=np.int64).tobytes())
        return column

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return array.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    # Columns are mutable buffers; like lists and arrays they are unhashable.
    __hash__ = None


class ColumnView:
    """A read-only typed column over externally-owned memory (mmap, bytes).

    The zero-parse side of the snapshot story
    (:mod:`repro.engine.snapshot`): a column file opened through ``mmap``
    wraps in a view without copying or decoding a single element -- the
    kernel's page cache *is* the column storage.  The view quacks like the read side of
    :class:`IntColumn`: ``len`` / indexing / slicing / iteration /
    ``tolist()`` / element-wise ``==`` against lists and arrays, plus
    ``memoryview(view)`` and :func:`as_numpy` zero-copy access for the bulk
    kernels.  Mutation is structurally impossible -- there is no ``append``
    and the underlying buffer is mapped read-only.

    Pickling materializes into a plain :class:`IntColumn` (a process cannot
    ship its address space).

    Args:
        buffer: any buffer-protocol object (``mmap.mmap``, ``bytes``,
            ``memoryview``) whose size is a whole number of elements.
        typecode: ``array`` typecode of the elements; ``"q"`` (int64, the
            :class:`IntColumn` layout) or ``"d"`` (float64, the snapshot's
            probability columns).
    """

    __slots__ = ("_buffer", "_view", "typecode")

    def __init__(self, buffer, typecode: str = "q") -> None:
        if typecode not in ("q", "d"):
            raise ValueError(f"unsupported column typecode: {typecode!r}")
        raw = memoryview(buffer).cast("B")
        itemsize = array(typecode).itemsize
        if raw.nbytes % itemsize:
            raise ValueError(
                f"buffer of {raw.nbytes} bytes is not a whole number of "
                f"{itemsize}-byte elements")
        self._buffer = buffer  # pins the mmap for the view's lifetime
        self._view = raw.cast(typecode)
        self.typecode = typecode

    def __len__(self) -> int:
        return len(self._view)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self._view[item].tolist()
        return self._view[item]

    def __iter__(self):
        return iter(self._view)

    def __buffer__(self, flags):  # Python 3.12+ buffer protocol hook
        return memoryview(self._view)

    @property
    def raw(self):
        """The typed memoryview itself (buffer-protocol on every Python)."""
        return self._view

    @property
    def nbytes(self) -> int:
        return self._view.nbytes

    def tolist(self) -> list:
        return self._view.tolist()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple, array, ColumnView)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    __hash__ = None

    def __reduce__(self):
        # Cross-process transport falls back to a materialized copy; the
        # mmap sharing that makes views cheap is same-machine-file, not
        # pickle, territory.
        if self.typecode == "q":
            return (IntColumn, (self.tolist(),))
        return (array, ("d", self.tolist()))

    def __repr__(self) -> str:
        return f"ColumnView(typecode={self.typecode!r}, len={len(self)})"


# The e2e workloads' ``detail:`` line reads it until a ``[benchmark]`` change.
def resolve_column_backend(override: None = None) -> str:
    """The model-fold kernel the engine runs: always ``numpy``.

    ``override`` is accepted and ignored, so callers that pass ``None``
    keep working.
    """
    return "numpy"


def as_numpy(column):
    """Zero-copy ``int64`` ndarray view of a buffer-backed column.

    The view aliases the column's memory (no element is boxed or copied);
    while it is alive the column cannot be resized -- kernels therefore keep
    their views function-local.
    """
    if isinstance(column, ColumnView):
        return np.frombuffer(column.raw, dtype=np.int64)
    return np.frombuffer(column, dtype=np.int64)


def to_numpy(values):
    """An ``int64`` ndarray of any int sequence.

    Buffer-backed columns (:class:`IntColumn`, ``array('q')``) view
    zero-copy through the buffer protocol; plain lists/tuples copy.  The
    bulk kernels accept either so resident payloads and ad-hoc test
    columns fold through the same code.
    """
    if isinstance(values, array):
        return np.frombuffer(values, dtype=np.int64)
    if isinstance(values, ColumnView):
        return np.frombuffer(values.raw, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)
