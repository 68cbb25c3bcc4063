"""Dataset serialization: JSON-lines persistence for scan observations.

GPS deployments reuse seed scans ("if a seed scan is already available, GPS
can forego collecting the initial seed scan, reducing the overall runtime by
94 %", Section 6.5).  The reproduction supports the same workflow by saving
and reloading observation sets as JSON lines, one observation per line, so
expensive synthetic scans can be cached between experiments.

Two load paths exist. :func:`load_observations_jsonl` boxes one
:class:`~repro.scanner.records.ScanObservation` per row -- the simple
object-path oracle.  :func:`load_observation_batch` folds the same JSONL
straight into :class:`~repro.scanner.records.ObservationBatch` columns (five
appends + one banner intern per row, no per-row dataclass, no per-row
feature-dict copy), sharing the caller's status encoder so ids line up with
the rest of the pipeline; the equivalence suite pins the two paths
row-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.engine.encoding import DictionaryEncoder
from repro.internet.banners import BannerInterner
from repro.net.ipv4 import MAX_IPV4
from repro.scanner.records import ObservationBatch, ScanObservation

PathLike = Union[str, Path]


def observation_to_dict(observation: ScanObservation) -> dict:
    """Convert an observation to a JSON-serialisable dict."""
    return {
        "ip": observation.ip,
        "port": observation.port,
        "protocol": observation.protocol,
        "app_features": dict(observation.app_features),
        "ttl": observation.ttl,
    }


#: ``(ip, port, protocol, app_features, ttl)`` of one validated record.
RecordFields = Tuple[int, int, str, Dict[str, str], int]


def _parse_record(record: object) -> RecordFields:
    """Validate one observation record; the one parser both loaders share.

    Raises ``ValueError`` for a missing or non-integer field, an address
    outside 0 .. 2**32 - 1, a port outside 1 .. 65535 and a non-mapping
    ``app_features``.
    """
    try:
        ip = int(record["ip"])
        port = int(record["port"])
        protocol = str(record["protocol"])
        ttl = int(record.get("ttl", 64))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed observation record: {record!r}") from exc
    if not 0 <= ip <= MAX_IPV4:
        raise ValueError(f"invalid address in record: {ip}")
    if not 1 <= port <= 65535:
        raise ValueError(f"invalid port in record: {port}")
    app_features = record.get("app_features", {})
    if not isinstance(app_features, dict):
        raise ValueError("app_features must be a mapping")
    return (ip, port, protocol,
            {str(k): str(v) for k, v in app_features.items()}, ttl)


def observation_from_dict(record: dict) -> ScanObservation:
    """Rebuild an observation from its dict form, validating required fields."""
    ip, port, protocol, app_features, ttl = _parse_record(record)
    return ScanObservation(ip=ip, port=port, protocol=protocol,
                           app_features=app_features, ttl=ttl)


def _read_records(path: PathLike) -> Iterator[RecordFields]:
    """Parse a JSONL file's non-blank lines; every error names ``path:line``."""
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_number}: invalid JSON") from exc
            try:
                fields = _parse_record(record)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
            yield fields


def save_observations_jsonl(observations: Iterable[ScanObservation],
                            path: PathLike) -> int:
    """Write observations as JSON lines; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for observation in observations:
            handle.write(json.dumps(observation_to_dict(observation), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_observations_jsonl(path: PathLike) -> List[ScanObservation]:
    """Load observations previously written by :func:`save_observations_jsonl`."""
    return [ScanObservation(ip=ip, port=port, protocol=protocol,
                            app_features=app_features, ttl=ttl)
            for ip, port, protocol, app_features, ttl in _read_records(path)]


def load_observation_batch(path: PathLike,
                           banners: Optional[BannerInterner] = None,
                           statuses: Optional[DictionaryEncoder] = None,
                           ) -> ObservationBatch:
    """Stream a JSONL observation file straight into columnar form.

    Each line folds directly into the batch's columns: ip/port/ttl append as
    machine ints, the protocol dictionary-encodes through ``statuses`` (pass
    the pipeline's encoder so status ids line up with live scan batches),
    and the banner dict interns by content through ``banners`` -- equal
    banners across rows collapse to one interned mapping instead of one
    boxed dict per row.  No :class:`ScanObservation` is ever allocated.

    Both loaders parse records with the same validator, so a bad record
    raises the same ``ValueError`` naming ``path:line``, and the loaded
    batch is row-identical to ``ObservationBatch.from_observations(
    load_observations_jsonl(path))`` -- the object loader stays the
    equivalence oracle.
    """
    batch = ObservationBatch(
        banners=banners if banners is not None else BannerInterner(),
        statuses=statuses if statuses is not None else DictionaryEncoder())
    encode_status = batch.statuses.encode
    intern_banner = batch.banners.intern_value
    append = batch.append
    for ip, port, protocol, app_features, ttl in _read_records(path):
        append(ip, port, encode_status(protocol), intern_banner(app_features),
               ttl)
    return batch
