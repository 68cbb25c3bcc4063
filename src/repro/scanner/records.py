"""Scan observation records: what a completed probe yields.

A :class:`ScanObservation` is the unit of data every downstream consumer (the
pseudo-service filter, the dataset builders, GPS's feature extraction, the
baselines) operates on.  It deliberately contains only what a real scan could
observe -- the address, port, fingerprinted protocol, application-layer banner
fields and the IP TTL -- and never any ground-truth-only information such as
the device profile that generated the host.

:class:`ObservationBatch` is the *columnar* form the batched scanner layers
accumulate into: flat parallel int64 columns (address, port, encoded protocol
status, interned banner id, TTL) instead of one object per hit, with lazy
per-row :class:`ScanObservation` views: a batch iterates and indexes as a
sequence of rows, each built only when it is read.  The columns are
:class:`~repro.engine.columns.IntColumn` buffers -- machine-native
``array('q')`` storage, one word per element -- so bulk consumers (the fused
fold kernels, snapshot saves) read them through the buffer protocol instead
of boxing Python ints.  Keeping per-hit work O(1) appends is what lets the
scan loop track the batched ZMap layer's throughput (the paper's Section 5.4
/ Table 2 story); observations only materialize where a consumer reads rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.engine.columns import IntColumn, to_numpy
from repro.engine.encoding import DictionaryEncoder
from repro.internet.banners import BannerInterner
from repro.net.ipv4 import subnet_key


@dataclass(frozen=True)
class ScanObservation:
    """One fully-handshaked service observation.

    Attributes:
        ip: probed address.
        port: probed port.
        protocol: protocol fingerprinted by LZR (``"http"``, ``"ssh"``, ...).
        app_features: application-layer feature values collected by ZGrab
            (Table 1 keys; absent keys mean the feature was not observable).
        ttl: IP TTL seen in the response (used for port-forwarding analysis).
    """

    ip: int
    port: int
    protocol: str
    app_features: Mapping[str, str] = field(default_factory=dict)
    ttl: int = 64

    def pair(self) -> Tuple[int, int]:
        """The (ip, port) identity of this observation."""
        return (self.ip, self.port)

    def feature(self, key: str, default: str = "") -> str:
        """Convenience accessor for an application-layer feature value."""
        return self.app_features.get(key, default)


@dataclass
class ObservationBatch:
    """A batch of service observations stored as flat parallel columns.

    The batched scanner layers fold hits straight into these columns -- one
    ``list.append`` per column per hit -- instead of allocating a
    :class:`ScanObservation` (and copying its banner dict) per hit.  Rows are
    materialized lazily: :meth:`row` (and indexing or iterating the batch)
    builds one observation on demand and :meth:`materialize` builds them all.
    The scan shapes return batches; only consumers that read rows pay for
    them.

    Attributes:
        banners: the interner non-negative banner ids refer to (normally the
            universe's).
        statuses: the protocol-status encoder ``status`` values refer to;
            shared across batches so ids are stable within a pipeline.
        ips: per-row address.
        ports: per-row port.
        status: per-row fingerprint status: the LZR-fingerprinted protocol,
            dictionary-encoded through ``statuses``.
        banner_ids: per-row banner id.  Non-negative ids resolve through
            ``banners`` (see :class:`~repro.internet.banners.BannerInterner`);
            negative ids index ``local_banners`` (see
            :meth:`add_local_banner`).
        ttls: per-row observed IP TTL.
        local_banners: banners carried by the batch itself -- transient
            pages unique to one target (incident-style pseudo services),
            which would bloat a universe-lifetime interner for no dedupe
            benefit.  They live exactly as long as the batch.
    """

    banners: BannerInterner
    statuses: DictionaryEncoder = field(default_factory=DictionaryEncoder)
    ips: IntColumn = field(default_factory=IntColumn)
    ports: IntColumn = field(default_factory=IntColumn)
    status: IntColumn = field(default_factory=IntColumn)
    banner_ids: IntColumn = field(default_factory=IntColumn)
    ttls: IntColumn = field(default_factory=IntColumn)
    local_banners: List[Mapping[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ips)

    def append(self, ip: int, port: int, status_id: int, banner_id: int,
               ttl: int) -> None:
        """Fold one hit into the columns (five appends, no allocation)."""
        self.ips.append(ip)
        self.ports.append(port)
        self.status.append(status_id)
        self.banner_ids.append(banner_id)
        self.ttls.append(ttl)

    def status_id(self, protocol: str) -> int:
        """Encode a protocol string into the batch's status id space."""
        return self.statuses.encode(protocol)

    def add_local_banner(self, features: Mapping[str, str]) -> int:
        """Carry a transient banner in the batch, returning its (negative) id.

        For pages unique to a single target, interning into the shared
        :class:`~repro.internet.banners.BannerInterner` would pin one entry
        per target forever; batch-local banners die with the batch instead.
        """
        self.local_banners.append(features)
        return -len(self.local_banners)

    def banner_features(self, i: int) -> Mapping[str, str]:
        """Resolve row ``i``'s banner mapping (interned or batch-local)."""
        banner_id = self.banner_ids[i]
        if banner_id >= 0:
            return self.banners.features(banner_id)
        return self.local_banners[-banner_id - 1]

    def pairs(self) -> List[Tuple[int, int]]:
        """The (ip, port) identities of the batch's rows, in row order."""
        return list(zip(self.ips, self.ports))

    def extend(self, other: "ObservationBatch") -> None:
        """Append ``other``'s rows after this batch's (concatenation).

        The columns append in bulk.  Batch-local banners move with their
        rows: ``other``'s local table is appended to this batch's and its
        negative ids shift by this table's previous size, so every appended
        row resolves to the same banner it did in ``other``.  Existing ids
        stay valid, including in batches that share this batch's local table
        (see :meth:`select`).  Both batches must speak the same banner
        interner and status encoder, as every batch one pipeline produces
        does.
        """
        if other.banners is not self.banners or other.statuses is not self.statuses:
            raise ValueError("extend needs batches sharing one banner interner "
                             "and one status encoder")
        self.ips.extend(other.ips)
        self.ports.extend(other.ports)
        self.status.extend(other.status)
        self.ttls.extend(other.ttls)
        if other.local_banners:
            offset = len(self.local_banners)
            self.local_banners.extend(other.local_banners)
            self.banner_ids.extend(banner_id if banner_id >= 0 else banner_id - offset
                                   for banner_id in other.banner_ids)
        else:
            self.banner_ids.extend(other.banner_ids)

    def select(self, indices: Iterable[int]) -> "ObservationBatch":
        """A new batch holding the given rows, in the given order.

        A pure column gather: the interner, the status encoder and the
        batch-local banner table are *shared* with this batch (banner and
        status ids stay valid verbatim, no status re-encoding happens), so
        selecting rows never touches a banner mapping.  This is what the
        columnar dataset layer uses for port restrictions and seed/test
        splits.  An empty selection returns immediately with the shared
        tables and empty columns.
        """
        out = ObservationBatch(banners=self.banners, statuses=self.statuses,
                               local_banners=self.local_banners)
        rows = indices if isinstance(indices, (list, tuple, np.ndarray)) \
            else list(indices)
        if not len(rows):
            return out
        rows = np.asarray(rows, dtype=np.int64)
        out.ips = IntColumn.from_numpy(to_numpy(self.ips)[rows])
        out.ports = IntColumn.from_numpy(to_numpy(self.ports)[rows])
        out.status = IntColumn.from_numpy(to_numpy(self.status)[rows])
        out.banner_ids = IntColumn.from_numpy(to_numpy(self.banner_ids)[rows])
        out.ttls = IntColumn.from_numpy(to_numpy(self.ttls)[rows])
        return out

    @classmethod
    def from_observations(cls, observations: Iterable[ScanObservation],
                          banners: Optional[BannerInterner] = None,
                          statuses: Optional[DictionaryEncoder] = None,
                          ) -> "ObservationBatch":
        """Fold object rows into columns (the inverse of :meth:`materialize`).

        Banner mappings intern through :meth:`BannerInterner.intern`, which
        identity-caches: rows previously materialized from an interner view
        (dataset rows, columnar scan output) resolve their banner id with a
        single dict lookup, while foreign dicts intern by content.  Used by
        consumers that can stay columnar (GPS's fused feature ingest) when
        handed an object-row API boundary.
        """
        batch = cls(banners=banners if banners is not None else BannerInterner(),
                    statuses=statuses if statuses is not None else DictionaryEncoder())
        intern = batch.banners.intern
        encode = batch.statuses.encode
        for obs in observations:
            batch.ips.append(obs.ip)
            batch.ports.append(obs.port)
            batch.status.append(encode(obs.protocol))
            batch.banner_ids.append(intern(obs.app_features))
            batch.ttls.append(obs.ttl)
        return batch

    def row(self, i: int) -> ScanObservation:
        """Materialize one row as a :class:`ScanObservation` (lazy view).

        The observation's ``app_features`` is the interner's (or the
        batch's) read-only view of the banner -- shared, not copied; equal
        by ``==`` to the dict the pairwise path copies.
        """
        return ScanObservation(
            ip=self.ips[i],
            port=self.ports[i],
            protocol=self.statuses.decode(self.status[i]),
            app_features=self.banner_features(i),
            ttl=self.ttls[i],
        )

    def __getitem__(self, index: int) -> ScanObservation:
        return self.row(index)

    def __iter__(self) -> Iterator[ScanObservation]:
        return self.iter_rows()

    def iter_rows(self) -> Iterator[ScanObservation]:
        """Iterate lazily materialized rows in order."""
        decode_status = self.statuses.decode
        interned_features = self.banners.features
        local_banners = self.local_banners
        for ip, port, status_id, banner_id, ttl in zip(
                self.ips, self.ports, self.status, self.banner_ids, self.ttls):
            features = (interned_features(banner_id) if banner_id >= 0
                        else local_banners[-banner_id - 1])
            yield ScanObservation(ip=ip, port=port,
                                  protocol=decode_status(status_id),
                                  app_features=features,
                                  ttl=ttl)

    def materialize(self) -> List[ScanObservation]:
        """Materialize every row (the pipeline's API-boundary step)."""
        return list(self.iter_rows())


@dataclass(frozen=True)
class ProbeBatch:
    """A group of probe targets sharing one port and one subnetwork.

    The prediction scan (Section 5.4) probes targeted (ip, port) pairs; pairs
    that share a port and fall in the same subnetwork can be served by one
    batched pass through the scanner layers, amortizing ground-truth lookups
    and bandwidth-ledger charges that a pair-by-pair scan pays per probe.

    Attributes:
        port: the port every target in the batch is probed on.
        subnet: packed subnet key (see :func:`repro.net.ipv4.subnet_key`) the
            targets share -- informational for logs/ordering; the scanners
            only rely on the addresses being near each other.
        ips: target addresses, in the order they were submitted.
    """

    port: int
    subnet: int
    ips: Tuple[int, ...]

    def pairs(self) -> List[Tuple[int, int]]:
        """The batch flattened back into (ip, port) pairs."""
        return [(ip, self.port) for ip in self.ips]

    def __len__(self) -> int:
        return len(self.ips)


def group_pairs(pairs: Iterable[Tuple[int, int]],
                prefix_len: int = 16) -> List[ProbeBatch]:
    """Group (ip, port) pairs into per-(subnetwork, port) probe batches.

    Batches appear in first-seen order and addresses keep their submitted
    order inside each batch, so the grouping is deterministic and the probe
    schedule stays faithful to the caller's (e.g. probability-ordered)
    intent at batch granularity.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix_len must be 0-32: {prefix_len}")
    # Bucketing shifts the prefix bits out instead of calling subnet_key per
    # pair; the canonical subnet key is derived once per batch below.  This
    # loop runs once per predicted probe, so it must stay cheap relative to
    # the universe lookups the batches exist to amortize.
    shift = 32 - prefix_len
    grouped: Dict[Tuple[int, int], List[int]] = {}
    for ip, port in pairs:
        grouped.setdefault((port, ip >> shift), []).append(ip)
    return [ProbeBatch(port=port, subnet=subnet_key(ips[0], prefix_len),
                       ips=tuple(ips))
            for (port, _), ips in grouped.items()]


def group_order(ips: np.ndarray, ports: np.ndarray,
                prefix_len: int = 16) -> np.ndarray:
    """The permutation that lays target columns out in :func:`group_pairs` order.

    Taking ``ips`` and ``ports`` (int64 columns) at the returned rows lists
    the targets batch by batch, batches in first-seen order and addresses
    in submitted order inside each, exactly as flattening
    ``group_pairs(zip(ips, ports), prefix_len)`` would -- without building
    a pair or a batch.
    """
    if not 0 <= prefix_len <= 32:
        raise ValueError(f"prefix_len must be 0-32: {prefix_len}")
    if not len(ips):
        return np.zeros(0, dtype=np.int64)
    subnets = ips >> (32 - prefix_len)
    if subnets.min() >= 0 and subnets.max() < 1 << 32 \
            and -(1 << 30) < ports.min() and ports.max() < 1 << 30:
        # One int64 key per batch: (port, subnet) packs without overlap.
        batches = ports << 32 | subnets
    else:
        batches = _dense_pairs(ports, subnets)
    # Number the batches, find each one's first-seen target, and rank the
    # batches by it; a stable sort by rank keeps submitted order inside.
    order = np.argsort(batches)
    ordered = batches[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    batch_of = np.empty(len(order), dtype=np.int64)
    batch_of[order] = np.cumsum(starts) - 1
    first_seen = np.minimum.reduceat(order, np.flatnonzero(starts))
    rank = np.empty(len(first_seen), dtype=np.int64)
    rank[np.argsort(first_seen)] = np.arange(len(first_seen))
    # Few batches rank in 16 bits, which numpy sorts stably by radix.
    ranks = rank[batch_of]
    if len(first_seen) <= 1 << 16:
        ranks = ranks.astype(np.uint16)
    return np.argsort(ranks, kind="stable")


def _dense_pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One int64 id per distinct ``(first, second)`` row, whatever the widths."""
    _, inverse = np.unique(np.stack([first, second], axis=1), axis=0,
                           return_inverse=True)
    return inverse.reshape(-1)


def observations_by_host(observations: Iterable[ScanObservation]) -> Dict[int, List[ScanObservation]]:
    """Group observations by address.

    Both the pseudo-service filter (per-host service counts) and GPS's model
    building (per-host port co-occurrence) start from this grouping.
    """
    grouped: Dict[int, List[ScanObservation]] = {}
    for obs in observations:
        grouped.setdefault(obs.ip, []).append(obs)
    for obs_list in grouped.values():
        obs_list.sort(key=lambda o: o.port)
    return grouped


def unique_pairs(observations: Iterable[ScanObservation]) -> List[Tuple[int, int]]:
    """Deduplicated, sorted (ip, port) pairs of a set of observations."""
    return sorted({obs.pair() for obs in observations})
