"""Simulated LZR: middlebox filtering and service fingerprinting.

LZR (Izhikevich et al., USENIX Security 2021) takes over the TCP connection a
SYN scanner opened and decides, with one or two extra packets, whether a real
service is listening and what protocol it speaks.  This matters enormously
when scanning unassigned ports: a SYN-ACK alone may come from a middlebox or
an idle socket, and completing a full layer-7 handshake on every SYN-ACK would
waste bandwidth.

The simulator reproduces LZR's observable behaviour:

* **middleboxes** never produce data -- the fingerprint is ``None`` and the
  target is dropped before any layer-7 work is spent on it;
* **real services** yield their true protocol;
* **pseudo services** look like real HTTP services at this layer; weeding them
  out is the job of the dataset-level filter (Appendix B), not LZR.

Each fingerprint attempt costs a small, fixed number of probes which is
charged to the same ledger category as the scan that discovered the target.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.encoding import DictionaryEncoder
from repro.engine.faults import ProbeLossModel
from repro.internet.universe import PrefixResponders, ResolvedTargets, Universe
from repro.scanner.bandwidth import BandwidthLedger, ScanCategory

#: Extra packets LZR exchanges per responsive target (ACK + data / RST).
PROBES_PER_FINGERPRINT = 2

#: Loss-model layer tag (independent draws from the SYN and ZGrab layers).
LOSS_LAYER = "lzr"


@dataclass(frozen=True)
class FingerprintResult:
    """Outcome of fingerprinting one SYN-ACKing (ip, port) target.

    Attributes:
        ip: target address.
        port: target port.
        protocol: fingerprinted protocol, or ``None`` when no service is
            actually listening (middlebox or dead socket).
        is_real_service: whether a real, ground-truth service is behind the
            target (pseudo services report their apparent protocol but are not
            real; downstream filtering removes them by behaviour).
        ttl: observed IP TTL.
    """

    ip: int
    port: int
    protocol: Optional[str]
    is_real_service: bool
    ttl: int


@dataclass
class FingerprintBatch:
    """Columnar fingerprint outcomes: the LZR stage of an observation batch.

    Flat parallel columns for the protocol-bearing targets of one batched
    pass (middlebox / no-data targets are dropped, as in
    :meth:`LZRSimulator.fingerprint_many`).  ``status`` holds the
    fingerprinted protocol dictionary-encoded through ``statuses`` -- the
    same encoder the downstream :class:`~repro.scanner.records.ObservationBatch`
    decodes with, so ids flow through the ZGrab stage untouched.
    """

    statuses: DictionaryEncoder = field(default_factory=DictionaryEncoder)
    ips: List[int] = field(default_factory=list)
    ports: List[int] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    ttls: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ips)


@dataclass
class PrefixFingerprints(FingerprintBatch):
    """A prefix sweep's fingerprints, carrying its real services' banners.

    The rows of real services are slices of the universe's per-port
    columns, so their ground-truth banner ids ride along in ``banner_ids``
    for ZGrab.  The rows listed in ``pending`` (the responders resolved per
    target) hold a placeholder there: ZGrab grabs their banners itself.
    Every column is an int64 ``array``, which the observation batch copies
    in bulk.
    """

    banner_ids: array = field(default_factory=lambda: array("q"))
    pending: List[int] = field(default_factory=list)

    @classmethod
    def of_services(cls, found: PrefixResponders,
                    statuses: DictionaryEncoder) -> "PrefixFingerprints":
        """Rows ``found.start:found.stop`` of the real services, as slices."""
        services, start, stop = found.services, found.start, found.stop
        return cls(statuses=statuses,
                   ips=services.ips[start:stop],
                   ports=array("q", [found.port]) * (stop - start),
                   status=array("q", statuses.encode_column(
                       services.protocols[start:stop])),
                   ttls=services.ttls[start:stop],
                   banner_ids=services.banner_ids[start:stop])

    def insert_pending(self, ip: int, port: int, status_id: int,
                       ttl: int) -> None:
        """Merge one per-target row in at its address.

        Rows must arrive in ascending address order, so earlier
        ``pending`` rows never shift.
        """
        row = bisect_left(self.ips, ip)
        self.pending.append(row)
        self.ips.insert(row, ip)
        self.ports.insert(row, port)
        self.status.insert(row, status_id)
        self.ttls.insert(row, ttl)
        self.banner_ids.insert(row, -1)

    def without(self, rows: Sequence[int]) -> "PrefixFingerprints":
        """A copy without the given rows."""
        dropped = set(rows)
        kept = [i for i in range(len(self.ips)) if i not in dropped]
        new_index = {old: new for new, old in enumerate(kept)}

        def take(column: array) -> array:
            return array("q", [column[i] for i in kept])

        return PrefixFingerprints(
            statuses=self.statuses, ips=take(self.ips), ports=take(self.ports),
            status=take(self.status), ttls=take(self.ttls),
            banner_ids=take(self.banner_ids),
            pending=[new_index[i] for i in self.pending if i not in dropped])


@dataclass(frozen=True, eq=False)
class ResolvedFingerprints:
    """The speaking targets of a resolved sweep and their protocol-status ids.

    ``status[i]`` is row ``i`` of ``targets`` fingerprinted, encoded
    through ``statuses``: a real service's protocol, ``"http"`` for a
    pseudo page.  The columnar ZGrab step reads banners and TTLs from the
    rows' universe index entries.
    """

    targets: ResolvedTargets
    status: np.ndarray
    statuses: DictionaryEncoder

    def __len__(self) -> int:
        return len(self.targets)


class LZRSimulator:
    """Fingerprints SYN-ACKing targets against the ground-truth universe.

    With a seeded ``loss`` model, the data reply of a *responsive* target can
    be dropped; LZR then re-runs the handshake (charged as a retransmit) up
    to ``max_retries`` times.  A no-data target (middlebox, dead socket) is
    never retried: its silence is a definitive answer, not a timeout.  The
    default (``loss=None``) path is byte-identical to the pre-loss simulator.
    """

    def __init__(self, universe: Universe, ledger: BandwidthLedger,
                 loss: Optional[ProbeLossModel] = None, max_retries: int = 0,
                 retry_backoff_s: float = 0.0) -> None:
        self.universe = universe
        self.ledger = ledger
        self.loss = loss
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

    def _handshake_attempts(self, ip: int, port: int) -> Tuple[int, bool]:
        """(attempts spent, response observed) for one responsive target."""
        if self.loss is None:
            return 1, True
        for attempt in range(self.max_retries + 1):
            if not self.loss.lost(LOSS_LAYER, ip, port, attempt):
                return attempt + 1, True
            if attempt < self.max_retries and self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s)
        return self.max_retries + 1, False

    def fingerprint(self, ip: int, port: int,
                    category: ScanCategory = ScanCategory.OTHER) -> FingerprintResult:
        """Fingerprint a single target, charging the ledger for the handshake."""
        record = self.universe.lookup(ip, port)
        responded = record is not None or self.universe.is_pseudo_responsive(ip, port)
        attempts, observed = (self._handshake_attempts(ip, port)
                              if responded else (1, False))
        if not observed:
            # Every attempt's reply was lost: indistinguishable on the wire
            # from a dead socket, so the target reports no protocol (cannot
            # happen when the retry budget covers the loss model's bound).
            record, responded = None, False
        self.ledger.record(category, probes=PROBES_PER_FINGERPRINT * attempts,
                           responses=PROBES_PER_FINGERPRINT if responded else 0,
                           retransmits=PROBES_PER_FINGERPRINT * (attempts - 1))
        if record is not None:
            return FingerprintResult(ip=ip, port=port, protocol=record.protocol,
                                     is_real_service=True, ttl=record.ttl)
        if responded and self.universe.is_pseudo_responsive(ip, port):
            host = self.universe.host(ip)
            ttl = host.base_ttl if host is not None else 64
            return FingerprintResult(ip=ip, port=port, protocol="http",
                                     is_real_service=False, ttl=ttl)
        # Middlebox or stale SYN-ACK: no data ever arrives.
        host = self.universe.host(ip)
        ttl = host.base_ttl if host is not None else 64
        return FingerprintResult(ip=ip, port=port, protocol=None,
                                 is_real_service=False, ttl=ttl)

    def fingerprint_many(self, targets: Iterable[Tuple[int, int]],
                         category: ScanCategory = ScanCategory.OTHER) -> List[FingerprintResult]:
        """Fingerprint a batch of targets, keeping only those that spoke a protocol.

        Targets that produced no data (middleboxes) are dropped, mirroring how
        LZR prevents them from reaching ZGrab in the real pipeline.
        """
        results: List[FingerprintResult] = []
        for ip, port in targets:
            result = self.fingerprint(ip, port, category=category)
            if result.protocol is not None:
                results.append(result)
        return results

    def fingerprint_batch_columns(self, ips: Sequence[int], ports: Sequence[int],
                                  category: ScanCategory = ScanCategory.OTHER,
                                  statuses: Optional[DictionaryEncoder] = None,
                                  ) -> FingerprintBatch:
        """Columnar :meth:`fingerprint_many`: fold outcomes into flat columns.

        Same targets fingerprinted, same protocol-bearing rows kept in the
        same order, identical ledger totals -- but each target resolves with
        a single host lookup (a middlebox has no services and no pseudo
        range, so it falls through to "no data" without further queries),
        the handshake cost is charged once for the whole call, and per
        surviving target the work is four list appends instead of a
        :class:`FingerprintResult` allocation.  ``statuses`` lets a
        pipeline share one protocol-id space across batches; by default
        each batch gets its own encoder.
        """
        # "is not None", not truthiness: a shared encoder that is still empty
        # must not be silently replaced (DictionaryEncoder defines __len__).
        batch = FingerprintBatch(
            statuses=statuses if statuses is not None else DictionaryEncoder())
        encode_status = batch.statuses.encode
        pseudo_status = encode_status("http")
        b_ips, b_ports = batch.ips, batch.ports
        b_status, b_ttls = batch.status, batch.ttls
        hosts_get = self.universe.hosts.get
        lossy = self.loss is not None
        responded = 0
        retried = 0
        for ip, port in zip(ips, ports):
            host = hosts_get(ip)
            if host is None:
                continue
            record = host.services.get(port)
            if record is not None:
                if lossy:
                    attempts, observed = self._handshake_attempts(ip, port)
                    retried += attempts - 1
                    if not observed:
                        continue
                responded += 1
                b_ips.append(ip)
                b_ports.append(port)
                b_status.append(encode_status(record.protocol))
                b_ttls.append(record.ttl)
                continue
            if host.is_pseudo_responsive_on(port):
                if lossy:
                    attempts, observed = self._handshake_attempts(ip, port)
                    retried += attempts - 1
                    if not observed:
                        continue
                responded += 1
                b_ips.append(ip)
                b_ports.append(port)
                b_status.append(pseudo_status)
                b_ttls.append(host.base_ttl)
        self.ledger.record(category,
                           probes=PROBES_PER_FINGERPRINT * (len(ips) + retried),
                           responses=PROBES_PER_FINGERPRINT * responded,
                           retransmits=PROBES_PER_FINGERPRINT * retried)
        return batch

    def fingerprint_resolved(self, targets: ResolvedTargets,
                             category: ScanCategory = ScanCategory.OTHER,
                             statuses: Optional[DictionaryEncoder] = None,
                             ) -> ResolvedFingerprints:
        """:meth:`fingerprint_batch_columns` over resolved SYN-ACKing targets.

        Same rows kept in the same order and identical ledger totals, with
        no host lookup: the targets already say what answers.  Middlebox
        rows stay silent; the others speak, and under a loss model each of
        them draws its handshake attempts (one Python loop over the
        speaking rows).  Status ids are handed out as the per-target layer
        hands them out: ``"http"`` first, then each kept real service's
        protocol in row order.
        """
        statuses = statuses if statuses is not None else DictionaryEncoder()
        pseudo_status = statuses.encode("http")
        rows = np.flatnonzero(targets.speaking())
        retried = 0
        if self.loss is not None:
            kept: List[int] = []
            for row, ip, port in zip(rows.tolist(), targets.ips[rows].tolist(),
                                     targets.ports[rows].tolist()):
                attempts, observed = self._handshake_attempts(ip, port)
                retried += attempts - 1
                if observed:
                    kept.append(row)
            rows = np.array(kept, dtype=np.int64)
        found = targets.take(rows)
        self.ledger.record(category,
                           probes=PROBES_PER_FINGERPRINT * (len(targets) + retried),
                           responses=PROBES_PER_FINGERPRINT * len(found),
                           retransmits=PROBES_PER_FINGERPRINT * retried)
        index = self.universe.service_index
        real = found.service_rows >= 0
        codes = index.protocol_codes[found.service_rows[real]]
        present, first = np.unique(codes, return_index=True)
        status_of_code = np.zeros(len(index.protocols), dtype=np.int64)
        for code in present[np.argsort(first)].tolist():
            status_of_code[code] = statuses.encode(index.protocols[code])
        status = np.full(len(found), pseudo_status, dtype=np.int64)
        status[real] = status_of_code[codes]
        return ResolvedFingerprints(found, status, statuses)

    def charge_fingerprints(self, targets: int, speaking: int,
                            category: ScanCategory = ScanCategory.OTHER) -> None:
        """Charge ``targets`` handshakes, ``speaking`` of them answered, unrun.

        The totals :meth:`fingerprint_batch_columns` charges for targets a
        caller has already resolved: exact for silent targets under any loss
        model (a no-data target is never retried) and for speaking targets
        of a lossless sweep.
        """
        self.ledger.record(category, probes=PROBES_PER_FINGERPRINT * targets,
                           responses=PROBES_PER_FINGERPRINT * speaking)

    def fingerprint_prefix_columns(self, found: PrefixResponders,
                                   category: ScanCategory = ScanCategory.OTHER,
                                   statuses: Optional[DictionaryEncoder] = None,
                                   ) -> PrefixFingerprints:
        """:meth:`fingerprint_batch_columns` for one prefix sweep's responders.

        Same rows in the same (address) order and identical ledger totals as
        fingerprinting ``found.ips()`` on ``found.port`` -- but the real
        services come in as slices of the universe's per-port columns, with
        no host or record lookup.  Only ``found.others`` resolve per target
        (a pseudo page speaks HTTP, a middlebox stays silent, a real service
        the sweep could not place in the slice reads its record); their rows
        merge in at their address.  Under a loss model the handshake draws
        run over the merged rows, as they would target by target.
        """
        statuses = statuses if statuses is not None else DictionaryEncoder()
        pseudo_status = statuses.encode("http")
        batch = PrefixFingerprints.of_services(found, statuses)
        port = found.port
        hosts_get = self.universe.hosts.get
        for ip in found.others:
            host = hosts_get(ip)
            record = host.services.get(port) if host is not None else None
            if record is not None:
                batch.insert_pending(ip, port, statuses.encode(record.protocol),
                                     record.ttl)
            elif host is not None and host.is_pseudo_responsive_on(port):
                batch.insert_pending(ip, port, pseudo_status, host.base_ttl)
        retried = 0
        if self.loss is not None:
            lost: List[int] = []
            for row, ip in enumerate(batch.ips):
                attempts, observed = self._handshake_attempts(ip, port)
                retried += attempts - 1
                if not observed:
                    lost.append(row)
            if lost:
                batch = batch.without(lost)
        self.ledger.record(category,
                           probes=PROBES_PER_FINGERPRINT * (len(found) + retried),
                           responses=PROBES_PER_FINGERPRINT * len(batch),
                           retransmits=PROBES_PER_FINGERPRINT * retried)
        return batch
