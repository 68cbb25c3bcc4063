"""Versioned on-disk snapshots: warm restarts from mmap-backed columns.

The paper's deployment note (Section 6.5) observes that reusing an existing
seed scan cuts GPS runtime by 94% -- persistence, not the already-vectorized
kernels, dominates wall-clock once artifacts can be reused.  This module is
that persistence layer: every hot structure the engine builds -- the encoded
seed columns (:class:`~repro.scanner.records.ObservationBatch`,
:class:`~repro.core.features.HostFeatureColumns`) and the three Table 2
artifacts (the co-occurrence model's score tables, the priors plan, the
prediction index) -- serializes to a directory of **raw int64 column files**
plus one JSON manifest, and loads back either zero-copy (``mmap`` +
:class:`~repro.engine.columns.ColumnView`) or as materialized columns.

Format (version 1)::

    <dir>/MANIFEST.json            format version, per-section column tables
                                   (file, rows, dtype, crc32), encoder and
                                   interner tables
    <dir>/<section>.<column>.bin   one raw little-endian binary file per
                                   column buffer, written via ``tobytes()``

Because every column file *is* the column's memory, opening a snapshot is
O(map), not O(parse): a :class:`ColumnView` over the mapped file feeds
``np.frombuffer`` without decoding a single element.

Older snapshots may also hold ``shard-NNNN`` sections (host groups
pre-partitioned for a sharded runtime) and a ``meta.shards`` entry.  They
still open: those files are size- and crc-checked like every section's and
otherwise ignored.

Failure handling is typed and loud: a truncated column file, a crc32
mismatch, a malformed manifest, or a manifest from a future format
version raises :class:`SnapshotError` (:class:`SnapshotIntegrityError` /
:class:`SnapshotVersionError`) -- a snapshot never partially loads.

Loaded artifacts are **bit-identical** to freshly built ones: encoders and
interners rebuild in exact table order, model/priors/index rows round-trip
in exact iteration order, so the equivalence-oracle discipline of the build
paths extends across a process restart.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from array import array
from functools import partial
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

import numpy as np

from repro.engine.columns import ColumnView, IntColumn, to_numpy
from repro.engine.encoding import DictionaryEncoder
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "MAX_SNAPSHOT_SECTIONS",
    "ColumnFile",
    "Snapshot",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "SnapshotWriter",
    "open_snapshot",
    "save_snapshot",
]

#: Identifies a directory as one of our snapshots (manifest ``format`` field).
FORMAT_NAME = "gps-repro-snapshot"

#: Current on-disk format version.  Readers refuse *newer* versions with
#: :class:`SnapshotVersionError`; older versions load as long as the current
#: reader understands them (there is only version 1 so far).
FORMAT_VERSION = 1

#: The manifest file name inside a snapshot directory.
MANIFEST_NAME = "MANIFEST.json"

#: Most sections a manifest may declare.  A snapshot holds at most five
#: artifact sections (older ones also one section per shard, so this admits
#: their ~1000 shards), while an untrusted manifest cannot make a reader
#: walk an unbounded section table.
MAX_SNAPSHOT_SECTIONS = 1024

#: dtype name <-> array typecode for column files.  Everything the engine
#: folds over is int64 (the :class:`IntColumn` layout); float64 exists for
#: the prediction index's probability column.
_DTYPE_TO_TYPECODE = {"int64": "q", "float64": "d"}

#: Section names the high-level artifact accessors use.
_SEED_SECTION = "observations"
_FEATURES_SECTION = "host_features"
_MODEL_SECTION = "model"
_PRIORS_SECTION = "priors"
_INDEX_SECTION = "index"


class SnapshotError(RuntimeError):
    """Base error for unreadable, corrupt or incompatible snapshots."""


class SnapshotIntegrityError(SnapshotError):
    """A column file is truncated or fails its manifest crc32 checksum."""


class SnapshotVersionError(SnapshotError):
    """The manifest declares a format version this reader does not know."""


@dataclass(frozen=True)
class ColumnFile:
    """One column's on-disk identity, exactly as recorded in the manifest."""

    name: str
    file: str
    rows: int
    dtype: str
    crc32: int

    @property
    def itemsize(self) -> int:
        return array(_DTYPE_TO_TYPECODE[self.dtype]).itemsize

    @property
    def nbytes(self) -> int:
        return self.rows * self.itemsize


def _map_column(path: str, column: ColumnFile):
    """mmap one column file read-only, enforcing the manifest's size."""
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise SnapshotError(f"snapshot column file missing: {path}") from exc
    if size != column.nbytes:
        raise SnapshotIntegrityError(
            f"snapshot column file {path} is truncated or padded: "
            f"{size} bytes on disk, manifest says {column.rows} rows "
            f"of {column.dtype} ({column.nbytes} bytes)")
    if size == 0:
        return b""
    with open(path, "rb") as handle:
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


def _column_bytes(values: Any, typecode: str) -> bytes:
    """A column's raw buffer, via ``tobytes()`` when it is already native."""
    if isinstance(values, array):
        if values.typecode != typecode:
            raise ValueError(
                f"column typecode mismatch: have {values.typecode!r}, "
                f"writing {typecode!r}")
        return values.tobytes()
    if isinstance(values, ColumnView):
        if values.typecode != typecode:
            raise ValueError(
                f"column typecode mismatch: have {values.typecode!r}, "
                f"writing {typecode!r}")
        return bytes(values.raw)
    return array(typecode, values).tobytes()


class SnapshotWriter:
    """Streams named column sections into a snapshot directory.

    ``add_section`` writes each column's raw buffer immediately (one
    ``tobytes()`` + one ``write`` per column) and records its manifest row;
    ``finish`` writes the manifest last, so a crashed save can never look
    like a complete snapshot -- the manifest is the commit record.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._sections: Dict[str, Dict[str, Any]] = {}
        self.bytes_written = 0

    def add_section(self, name: str, columns: Mapping[str, Any],
                    meta: Optional[dict] = None,
                    dtypes: Optional[Mapping[str, str]] = None,
                    lazy_meta: bool = True) -> None:
        """Write one section's columns and record them for the manifest.

        Args:
            name: section name, unique within the snapshot.
            columns: column name -> int sequence (or a float sequence for
                columns named in ``dtypes``); native buffers
                (:class:`IntColumn`, ``array``) write via ``tobytes()``.
            meta: JSON-serializable side tables (encoder/interner contents).
            dtypes: per-column dtype overrides (default ``"int64"``).
            lazy_meta: embed ``meta`` as one JSON string decoded on first
                access (the default) rather than as a plain JSON object.
        """
        if name in self._sections:
            raise ValueError(f"duplicate snapshot section: {name!r}")
        if len(self._sections) >= MAX_SNAPSHOT_SECTIONS:
            raise ValueError(f"a snapshot holds at most {MAX_SNAPSHOT_SECTIONS} "
                             "sections")
        recorded: Dict[str, Any] = {}
        for column_name, values in columns.items():
            dtype = (dtypes or {}).get(column_name, "int64")
            typecode = _DTYPE_TO_TYPECODE[dtype]
            payload = _column_bytes(values, typecode)
            filename = f"{name}.{column_name}.bin"
            with open(os.path.join(self.directory, filename), "wb") as handle:
                handle.write(payload)
            self.bytes_written += len(payload)
            recorded[column_name] = {
                "file": filename,
                "rows": len(payload) // array(typecode).itemsize,
                "dtype": dtype,
                "crc32": zlib.crc32(payload),
            }
        # Side tables ship inside the manifest, by default as one embedded
        # JSON string per section: the outer parse scans a single string
        # token instead of materializing every encoder/interner row, so
        # readers that never touch a section's meta (the warm-restart path
        # skips the host-features encoder and the banner interner entirely)
        # never pay for decoding it; the model's predictor table decodes
        # only when its dicts are first read.  The section every warm
        # restart decodes (the index) embeds a plain object instead, parsed
        # once with the manifest rather than scanned as an escaped string
        # and then parsed again.
        self._sections[name] = {"columns": recorded}
        if lazy_meta:
            self._sections[name]["meta_json"] = json.dumps(
                meta or {}, sort_keys=True, separators=(",", ":"))
        else:
            self._sections[name]["meta"] = meta or {}

    def finish(self, meta: Optional[dict] = None) -> dict:
        """Write the manifest (the commit point) and return it."""
        manifest = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "sections": self._sections,
            "meta": meta or {},
        }
        path = os.path.join(self.directory, MANIFEST_NAME)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, sort_keys=True,
                      separators=(",", ":"))
        os.replace(tmp_path, path)
        return manifest


class Snapshot:
    """An opened, structurally verified snapshot directory.

    Column access is zero-copy by default (``mmap`` +
    :class:`ColumnView`); artifact accessors rebuild the exact objects the
    build paths produce.  Use :func:`open_snapshot` to construct.
    """

    def __init__(self, directory: str, manifest: dict) -> None:
        self.directory = directory
        self.manifest = manifest
        self._meta_cache: Dict[str, dict] = {}

    # -- raw access ----------------------------------------------------------------

    @property
    def version(self) -> int:
        return self.manifest["format_version"]

    @property
    def meta(self) -> dict:
        return self.manifest.get("meta", {})

    def sections(self) -> List[str]:
        return list(self.manifest["sections"])

    def has_section(self, name: str) -> bool:
        return name in self.manifest["sections"]

    def section_meta(self, name: str) -> dict:
        """A section's side tables, decoded lazily on first access.

        Most metas are embedded in the manifest as one JSON string per
        section (see :meth:`SnapshotWriter.add_section`); decoding happens
        here, once, only for sections a reader actually materializes.  A
        plain ``"meta"`` object (the model and index sections, hand-written
        manifests) was already parsed with the manifest and is used as-is.
        """
        if name in self._meta_cache:
            return self._meta_cache[name]
        section = self._section(name)
        if "meta" in section:
            meta = section["meta"]
        else:
            try:
                meta = json.loads(section.get("meta_json", "{}"))
            except ValueError as exc:
                raise SnapshotError(
                    f"snapshot section {name!r} at {self.directory} has "
                    f"an unparseable embedded meta: {exc}") from exc
        if not isinstance(meta, dict):
            raise SnapshotError(
                f"snapshot section {name!r} at {self.directory} declares "
                f"a non-object meta ({type(meta).__name__})")
        self._meta_cache[name] = meta
        return meta

    def _section(self, name: str) -> dict:
        try:
            return self.manifest["sections"][name]
        except KeyError:
            raise SnapshotError(
                f"snapshot at {self.directory} has no {name!r} section "
                f"(sections: {sorted(self.manifest['sections'])})") from None

    def column_files(self, name: str) -> List[ColumnFile]:
        return [
            ColumnFile(name=column_name, file=entry["file"],
                       rows=entry["rows"], dtype=entry["dtype"],
                       crc32=entry["crc32"])
            for column_name, entry in self._section(name)["columns"].items()
        ]

    def columns(self, name: str, materialize: bool = False) -> Dict[str, Any]:
        """A section's columns, mmap-backed (default) or copied out.

        ``materialize=True`` returns appendable :class:`IntColumn` buffers
        (``array('d')`` for float columns) instead of read-only views.
        """
        out: Dict[str, Any] = {}
        for column in self.column_files(name):
            path = os.path.join(self.directory, column.file)
            typecode = _DTYPE_TO_TYPECODE[column.dtype]
            buffer = _map_column(path, column)
            if not materialize:
                out[column.name] = ColumnView(buffer, typecode)
            else:
                copy = IntColumn() if typecode == "q" else array("d")
                copy.frombytes(buffer)
                out[column.name] = copy
        return out

    # -- artifact accessors --------------------------------------------------------

    def observation_batch(self):
        """Rebuild the encoded seed columns as an ``ObservationBatch``.

        The status encoder, the banner interner and the batch-local banner
        table rebuild from the manifest's tables in exact id order, so every
        column id resolves to byte-identical content.  Columns are
        materialized (the batch API allows appends); the underlying reads
        are still single-buffer ``frombytes`` passes.
        """
        from repro.internet.banners import BannerInterner
        from repro.scanner.records import ObservationBatch

        meta = self.section_meta(_SEED_SECTION)
        columns = self.columns(_SEED_SECTION, materialize=True)
        banners = BannerInterner()
        for features in meta["banners"]:
            banners.intern_value(features)
        statuses = DictionaryEncoder()
        for status in meta["statuses"]:
            statuses.encode(status)
        batch = ObservationBatch(
            banners=banners, statuses=statuses,
            ips=columns["ips"], ports=columns["ports"],
            status=columns["status"], banner_ids=columns["banner_ids"],
            ttls=columns["ttls"],
            local_banners=[dict(b) for b in meta["local_banners"]])
        return batch

    def host_feature_columns(self):
        """Rebuild the encoded host/service/predictor relation."""
        from repro.core.features import HostFeatureColumns

        meta = self.section_meta(_FEATURES_SECTION)
        columns = self.columns(_FEATURES_SECTION, materialize=True)
        encoder = DictionaryEncoder()
        for predictor in meta["encoder"]:
            encoder.encode(_predictor_from_json(predictor))
        return HostFeatureColumns(
            ips=columns["ips"], member_starts=columns["member_starts"],
            ports=columns["ports"], value_starts=columns["value_starts"],
            value_ids=columns["value_ids"], encoder=encoder)

    def model(self):
        """Rebuild the co-occurrence model, bit-identical to the built one.

        The section's columns are read here; the predictor table and the
        model's dicts are decoded the first time either dict is read (a
        restarted server that only serves the saved priors plan and index
        never reads them; a malformed table raises :class:`SnapshotError`
        there).  Rows were saved in the model dicts' iteration
        order, so the rebuilt dicts match the originals in content *and*
        insertion order -- downstream consumers that iterate (priors,
        index) see exactly what they would have seen pre-restart.
        """
        from repro.core.model import CooccurrenceModel

        # Copied out of the mapped files, so a later save over this
        # directory cannot change what the dicts decode to.
        columns = {name: to_numpy(column).copy() for name, column in
                   self.columns(_MODEL_SECTION).items()}
        return CooccurrenceModel.lazy(partial(self._model_dicts, columns))

    def _model_dicts(self, columns: Dict[str, Any]):
        """The model's ``(cooccurrence, denominators)`` from its columns."""
        meta = self.section_meta(_MODEL_SECTION)
        predictors = list(map(tuple, meta["predictors"]))
        cooccurrence: Dict[Any, Dict[int, int]] = {}
        # ``tolist()`` unboxes each column in one C pass, and pairs were
        # saved grouped by predictor, so one dict lookup per run -- not per
        # pair -- rebuilds the nested dicts in original insertion order.
        last_pid = -1
        targets: Dict[int, int] = {}
        for pid, port, count in zip(columns["pair_pids"].tolist(),
                                    columns["pair_ports"].tolist(),
                                    columns["pair_counts"].tolist()):
            if pid != last_pid:
                targets = cooccurrence.setdefault(predictors[pid], {})
                last_pid = pid
            targets[port] = count
        denominators = dict(zip(
            map(predictors.__getitem__, columns["denominator_pids"].tolist()),
            columns["denominator_counts"].tolist()))
        return cooccurrence, denominators

    def priors_plan(self):
        """Rebuild the ordered priors scan list."""
        from repro.core.priors import PriorsEntry

        columns = self.columns(_PRIORS_SECTION)
        return [
            PriorsEntry(port=port, subnet=subnet, coverage=coverage)
            for port, subnet, coverage in zip(
                columns["ports"].tolist(), columns["subnets"].tolist(),
                columns["coverage"].tolist())
        ]

    def prediction_index(self):
        """Rebuild the most-predictive-feature-values index from its columns."""
        from repro.core.predictions import PredictiveFeatureIndex

        predictors = list(map(tuple, self.section_meta(_INDEX_SECTION)["predictors"]))
        columns = self.columns(_INDEX_SECTION)
        return PredictiveFeatureIndex.from_columns(
            predictors.__getitem__, to_numpy(columns["pids"]),
            to_numpy(columns["ports"]),
            np.frombuffer(columns["probabilities"].raw, dtype=np.float64))


def _predictor_to_json(predictor: Any) -> list:
    """Predictor tuples (flat str/int tuples) as JSON arrays."""
    return list(predictor)


def _predictor_from_json(row: Sequence[Any]) -> tuple:
    return tuple(row)


def _verify_checksum(section: str, path: str, column: ColumnFile,
                     buffer: Any) -> None:
    """Check one mapped column file's crc32 against the manifest."""
    actual = zlib.crc32(memoryview(buffer))
    if actual != column.crc32:
        raise SnapshotIntegrityError(
            f"snapshot column {section}.{column.name} ({path}) fails "
            f"its checksum: crc32 {actual:#010x}, manifest says "
            f"{column.crc32:#010x}")


def _check_meta(manifest_path: str, manifest: dict) -> None:
    """Reject a non-object top-level ``meta`` with :class:`SnapshotError`.

    No reader here uses its keys; an older writer's ``shards`` entry is
    ignored.
    """
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} declares a non-object "
            f"meta ({type(meta).__name__})")


def _is_column_entry(entry: Any) -> bool:
    """Whether one manifest column entry is well formed."""
    if not isinstance(entry, dict):
        return False
    file = entry.get("file")
    return (isinstance(file, str) and file not in ("", ".", "..")
            and os.path.basename(file) == file
            and entry.get("dtype") in _DTYPE_TO_TYPECODE
            and all(isinstance(entry.get(key), int)
                    and not isinstance(entry[key], bool) and entry[key] >= 0
                    for key in ("rows", "crc32")))


def _check_sections(manifest_path: str, manifest: dict) -> None:
    """Reject a malformed section table with :class:`SnapshotError`.

    ``sections`` must be an object of at most ``MAX_SNAPSHOT_SECTIONS``
    sections, each with a ``columns`` object whose entries name a plain file
    inside the snapshot directory, a known dtype and non-negative int
    ``rows`` and ``crc32`` -- so every later reader indexes a well-formed
    entry instead of failing with a raw ``AttributeError`` or ``KeyError``.
    """
    sections = manifest.get("sections")
    if not isinstance(sections, dict):
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} declares a non-object "
            f"section table ({type(sections).__name__})")
    if len(sections) > MAX_SNAPSHOT_SECTIONS:
        raise SnapshotError(
            f"snapshot manifest at {manifest_path} declares {len(sections)} "
            f"sections (at most {MAX_SNAPSHOT_SECTIONS})")
    for name, section in sections.items():
        columns = section.get("columns") if isinstance(section, dict) else None
        if not isinstance(columns, dict):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path} has a malformed "
                f"section {name!r} (expected an object with a columns object)")
        for column_name, entry in columns.items():
            if not _is_column_entry(entry):
                raise SnapshotError(
                    f"snapshot manifest at {manifest_path} has a malformed "
                    f"column entry {name}.{column_name}: {entry!r:.200}")


def open_snapshot(directory: str, verify: bool = True,
                  telemetry: Optional[Telemetry] = None) -> Snapshot:
    """Open and validate a snapshot directory.

    Structural validation always runs: the manifest must parse, declare our
    format at a version this reader knows, and every column file must exist
    at exactly its manifest size (truncation is never silent).  With
    ``verify=True`` (the default) every file's crc32 is also checked -- one
    sequential pass over mapped memory; pass ``verify=False`` only when the
    caller just verified the same directory.

    Raises:
        SnapshotError: missing/unparseable manifest, a manifest that is not
            an object, a malformed section table (or more than
            ``MAX_SNAPSHOT_SECTIONS`` sections), a non-object ``meta`` or
            missing files.
        SnapshotVersionError: manifest from a future format version.
        SnapshotIntegrityError: truncated file or checksum mismatch.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("snapshot.open") as span:
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise SnapshotError(
                f"no snapshot manifest at {manifest_path}") from exc
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"snapshot manifest at {manifest_path} is not valid JSON: "
                f"{exc}") from exc
        if not isinstance(manifest, dict):
            raise SnapshotError(
                f"snapshot manifest at {manifest_path} is not a JSON object "
                f"({type(manifest).__name__})")
        if manifest.get("format") != FORMAT_NAME:
            raise SnapshotError(
                f"{manifest_path} is not a {FORMAT_NAME} manifest "
                f"(format={manifest.get('format')!r})")
        version = manifest.get("format_version")
        if not isinstance(version, int) or version < 1:
            raise SnapshotError(
                f"snapshot manifest declares invalid format_version "
                f"{version!r}")
        if version > FORMAT_VERSION:
            raise SnapshotVersionError(
                f"snapshot at {directory} is format version {version}; "
                f"this reader understands up to {FORMAT_VERSION} -- "
                "upgrade before loading it")
        _check_sections(manifest_path, manifest)
        _check_meta(manifest_path, manifest)
        snapshot = Snapshot(directory, manifest)
        total_bytes = 0
        for name in snapshot.sections():
            for column in snapshot.column_files(name):
                # The size check (cheap, catches truncation) runs even
                # without checksum verification.
                path = os.path.join(directory, column.file)
                buffer = _map_column(path, column)
                total_bytes += column.nbytes
                if verify:
                    _verify_checksum(name, path, column, buffer)
        span.set("sections", len(snapshot.sections()))
        span.set("bytes", total_bytes)
        span.set("verified", verify)
        if tel.enabled:
            tel.gauge("snapshot_bytes_read",
                      "Bytes of column files in the last opened snapshot"
                      ).set(total_bytes)
    return snapshot


# -- high-level save ---------------------------------------------------------------------


def _add_observations(writer: SnapshotWriter, batch: Any) -> None:
    writer.add_section(
        _SEED_SECTION,
        {"ips": batch.ips, "ports": batch.ports, "status": batch.status,
         "banner_ids": batch.banner_ids, "ttls": batch.ttls},
        meta={
            "statuses": list(batch.statuses.values()),
            "banners": [dict(batch.banners.features(i))
                        for i in range(len(batch.banners))],
            "local_banners": [dict(banner) for banner in batch.local_banners],
        })


def _add_host_features(writer: SnapshotWriter, host_features: Any) -> None:
    writer.add_section(
        _FEATURES_SECTION,
        {"ips": host_features.ips,
         "member_starts": host_features.member_starts,
         "ports": host_features.ports,
         "value_starts": host_features.value_starts,
         "value_ids": host_features.value_ids},
        meta={"encoder": [_predictor_to_json(p)
                          for p in host_features.encoder.values()]})


def _add_model(writer: SnapshotWriter, model: Any) -> None:
    encoder = DictionaryEncoder()
    pair_pids, pair_ports, pair_counts = IntColumn(), IntColumn(), IntColumn()
    for predictor, targets in model.cooccurrence.items():
        pid = encoder.encode(predictor)
        for port, count in targets.items():
            pair_pids.append(pid)
            pair_ports.append(port)
            pair_counts.append(count)
    denominator_pids, denominator_counts = IntColumn(), IntColumn()
    for predictor, count in model.denominators.items():
        denominator_pids.append(encoder.encode(predictor))
        denominator_counts.append(count)
    writer.add_section(
        _MODEL_SECTION,
        {"pair_pids": pair_pids, "pair_ports": pair_ports,
         "pair_counts": pair_counts, "denominator_pids": denominator_pids,
         "denominator_counts": denominator_counts},
        meta={"predictors": [_predictor_to_json(p)
                             for p in encoder.values()]})


def _add_priors(writer: SnapshotWriter, priors_plan: Sequence[Any]) -> None:
    writer.add_section(
        _PRIORS_SECTION,
        {"ports": IntColumn(entry.port for entry in priors_plan),
         "subnets": IntColumn(entry.subnet for entry in priors_plan),
         "coverage": IntColumn(entry.coverage for entry in priors_plan)})


def _add_index(writer: SnapshotWriter, index: Any) -> None:
    # The index's own entry order (not the sorted entries() view), so the
    # reloaded index files its predictors and targets in the same order.
    predictors, pids, ports, probabilities = index.entry_columns()
    writer.add_section(
        _INDEX_SECTION,
        {"pids": IntColumn.from_numpy(pids), "ports": IntColumn.from_numpy(ports),
         "probabilities": array("d", probabilities.tobytes())},
        meta={"predictors": [_predictor_to_json(p) for p in predictors]},
        dtypes={"probabilities": "float64"}, lazy_meta=False)


def save_snapshot(directory: str, *, observations: Any = None,
                  host_features: Any = None, model: Any = None,
                  priors_plan: Optional[Sequence[Any]] = None,
                  index: Any = None, meta: Optional[dict] = None,
                  telemetry: Optional[Telemetry] = None) -> dict:
    """Save any subset of the engine's artifacts as one snapshot directory.

    Args:
        directory: target directory (created if missing; existing column
            files for the same sections are overwritten).
        observations: an :class:`~repro.scanner.records.ObservationBatch`
            (the encoded seed columns).
        host_features: a :class:`~repro.core.features.HostFeatureColumns`.
        model: a :class:`~repro.core.model.CooccurrenceModel`.
        priors_plan: the ordered :class:`~repro.core.priors.PriorsEntry`
            list.
        index: a :class:`~repro.core.predictions.PredictiveFeatureIndex`.
        meta: extra JSON-serializable manifest metadata.
        telemetry: optional instrumentation (``snapshot.save`` span + byte
            gauge).

    Returns:
        The manifest dict, as written.
    """
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    with tel.span("snapshot.save") as span:
        writer = SnapshotWriter(directory)
        if observations is not None:
            _add_observations(writer, observations)
        if host_features is not None:
            _add_host_features(writer, host_features)
        if model is not None:
            _add_model(writer, model)
        if priors_plan is not None:
            _add_priors(writer, priors_plan)
        if index is not None:
            _add_index(writer, index)
        manifest = writer.finish(meta)
        span.set("sections", len(manifest["sections"]))
        span.set("bytes", writer.bytes_written)
        if tel.enabled:
            tel.gauge("snapshot_bytes_written",
                      "Bytes of column files written by the last snapshot "
                      "save").set(writer.bytes_written)
    return manifest
