"""Simulated ZGrab: the layer-7 application handshake.

After LZR has confirmed a real protocol is being spoken, the GPS pipeline may
hand the connection to ZGrab to complete the full application-layer handshake
and collect the banner data GPS uses as features (TLS certificates, HTTP
headers, SSH banners, ...).  The simulator returns the ground-truth feature
dictionary of the service (or the synthetic pseudo-service page content when
the target is a pseudo service) and charges the ledger for the handshake
packets.
"""

from __future__ import annotations

import time
from types import MappingProxyType
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.engine.columns import IntColumn
from repro.engine.faults import ProbeLossModel
from repro.internet.banners import BannerFactory
from repro.internet.universe import Universe
from repro.scanner.bandwidth import BandwidthLedger, ScanCategory
from repro.scanner.lzr import (
    FingerprintBatch,
    FingerprintResult,
    PrefixFingerprints,
    ResolvedFingerprints,
)
from repro.scanner.records import ObservationBatch, ScanObservation

#: Packets exchanged to complete a typical application handshake and banner grab.
PROBES_PER_HANDSHAKE = 4

#: Loss-model layer tag (independent draws from the SYN and LZR layers).
LOSS_LAYER = "zgrab"


class ZGrabSimulator:
    """Collects application-layer features for fingerprinted services.

    With a seeded ``loss`` model, a handshake whose banner reply is dropped
    is re-run (charged as a retransmit) up to ``max_retries`` times; LZR
    already proved a service is listening, so retrying is always correct.
    The default (``loss=None``) path is byte-identical to the pre-loss
    simulator.
    """

    def __init__(self, universe: Universe, ledger: BandwidthLedger,
                 banner_factory: Optional[BannerFactory] = None,
                 loss: Optional[ProbeLossModel] = None, max_retries: int = 0,
                 retry_backoff_s: float = 0.0) -> None:
        self.universe = universe
        self.ledger = ledger
        self.banner_factory = banner_factory or BannerFactory(
            unique_body_fraction=universe.config.unique_body_fraction
        )
        self.loss = loss
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

    def _handshake_attempts(self, ip: int, port: int) -> Tuple[int, bool]:
        """(attempts spent, banner observed) for one fingerprinted target."""
        if self.loss is None:
            return 1, True
        for attempt in range(self.max_retries + 1):
            if not self.loss.lost(LOSS_LAYER, ip, port, attempt):
                return attempt + 1, True
            if attempt < self.max_retries and self.retry_backoff_s > 0:
                time.sleep(self.retry_backoff_s)
        return self.max_retries + 1, False

    def grab(self, fingerprint: FingerprintResult,
             category: ScanCategory = ScanCategory.OTHER) -> Optional[ScanObservation]:
        """Complete the layer-7 handshake for one fingerprinted target.

        Returns a :class:`~repro.scanner.records.ScanObservation`, or ``None``
        when the target stopped responding between fingerprinting and the
        application handshake (only possible for targets that were never real
        services to begin with).
        """
        if fingerprint.protocol is None:
            return None
        attempts, observed = self._handshake_attempts(fingerprint.ip,
                                                      fingerprint.port)
        self.ledger.record(category, probes=PROBES_PER_HANDSHAKE * attempts,
                           responses=PROBES_PER_HANDSHAKE if observed else 0,
                           retransmits=PROBES_PER_HANDSHAKE * (attempts - 1))
        if not observed:
            # Every attempt's banner was lost (impossible when the retry
            # budget covers the loss model's consecutive-loss bound).
            return None
        record = self.universe.lookup(fingerprint.ip, fingerprint.port)
        if record is not None:
            return ScanObservation(ip=record.ip, port=record.port,
                                   protocol=record.protocol,
                                   app_features=dict(record.app_features),
                                   ttl=record.ttl)
        host = self.universe.host(fingerprint.ip)
        if host is not None and self.universe.is_pseudo_responsive(fingerprint.ip,
                                                                   fingerprint.port):
            features = self.banner_factory.pseudo_service_features(
                fingerprint.ip, host.pseudo_incident_style, port=fingerprint.port
            )
            return ScanObservation(ip=fingerprint.ip, port=fingerprint.port,
                                   protocol="http", app_features=features,
                                   ttl=host.base_ttl)
        return None

    def grab_many(self, fingerprints: Iterable[FingerprintResult],
                  category: ScanCategory = ScanCategory.OTHER) -> List[ScanObservation]:
        """Complete handshakes for a batch of fingerprinted targets."""
        observations: List[ScanObservation] = []
        for fingerprint in fingerprints:
            observation = self.grab(fingerprint, category=category)
            if observation is not None:
                observations.append(observation)
        return observations

    def grab_batch_columns(self, fingerprints: FingerprintBatch,
                           category: ScanCategory = ScanCategory.OTHER,
                           ) -> ObservationBatch:
        """Columnar :meth:`grab_many`: fold banner grabs into an observation batch.

        Same targets handshaked in the same order and identical ledger
        totals (charged once for the whole call), but per hit the work is
        one host lookup plus five list appends: real services resolve their
        banner through the universe's identity-cached interner (no dict
        copy); the static pseudo page
        interns by content (collapsing to one id universe-wide) while
        incident-style pseudo pages -- unique per target, so interning
        buys nothing -- ride as batch-local banners and die with the batch.
        Protocol status ids and TTLs pass through from the fingerprint
        columns -- they were read from the same ground-truth records.
        """
        universe = self.universe
        batch = ObservationBatch(banners=universe.banners,
                                 statuses=fingerprints.statuses)
        b_ips, b_ports = batch.ips, batch.ports
        b_status, b_banners, b_ttls = batch.status, batch.banner_ids, batch.ttls
        hosts_get = universe.hosts.get
        banner_id_of = universe.banner_id_of
        intern_pseudo = universe.banners.intern_value
        pseudo_features = self.banner_factory.pseudo_service_features
        # Every fingerprint row bears a protocol, so every row is handshaked
        # (and charged) even if the target stopped resolving since.
        handshakes = len(fingerprints)
        lossy = self.loss is not None
        answered = 0
        retried = 0
        for ip, port, status_id, ttl in zip(fingerprints.ips, fingerprints.ports,
                                            fingerprints.status, fingerprints.ttls):
            if lossy:
                attempts, observed = self._handshake_attempts(ip, port)
                retried += attempts - 1
                if not observed:
                    continue
                answered += 1
            host = hosts_get(ip)
            if host is None:
                continue
            record = host.services.get(port)
            if record is not None:
                banner_id = banner_id_of(record)
            elif host.is_pseudo_responsive_on(port):
                features = pseudo_features(ip, host.pseudo_incident_style,
                                           port=port)
                if host.pseudo_incident_style:
                    banner_id = batch.add_local_banner(MappingProxyType(features))
                else:
                    banner_id = intern_pseudo(features)
            else:
                continue
            b_ips.append(ip)
            b_ports.append(port)
            b_status.append(status_id)
            b_banners.append(banner_id)
            b_ttls.append(ttl)
        self.ledger.record(
            category, probes=PROBES_PER_HANDSHAKE * (handshakes + retried),
            responses=PROBES_PER_HANDSHAKE * (answered if lossy else handshakes),
            retransmits=PROBES_PER_HANDSHAKE * retried)
        return batch

    def grab_resolved(self, fingerprints: ResolvedFingerprints,
                      category: ScanCategory = ScanCategory.OTHER,
                      ) -> ObservationBatch:
        """:meth:`grab_batch_columns` over resolved fingerprints.

        Same rows, order and ledger totals, but the real services' banner
        ids and TTLs are gathered from the universe's
        :class:`~repro.internet.universe.ServiceIndex` rows in one array
        pass and the columns fill in bulk.  Only the pseudo rows loop in
        Python, in row order, to build their pages: the static page interns
        by content, an incident-style page rides batch-locally.  Under a
        loss model every row draws its handshake attempts first and rows
        whose banner was lost drop out.
        """
        universe = self.universe
        index = universe.service_index
        found, status = fingerprints.targets, fingerprints.status
        handshakes = len(found)
        retried = 0
        if self.loss is not None:
            kept: List[int] = []
            for row, (ip, port) in enumerate(zip(found.ips.tolist(),
                                                 found.ports.tolist())):
                attempts, observed = self._handshake_attempts(ip, port)
                retried += attempts - 1
                if observed:
                    kept.append(row)
            rows = np.array(kept, dtype=np.int64)
            found, status = found.take(rows), status[rows]
        batch = ObservationBatch(banners=universe.banners,
                                 statuses=fingerprints.statuses)
        service_rows = found.service_rows
        real = service_rows >= 0
        banner_ids = np.zeros(len(found), dtype=np.int64)
        ttls = np.zeros(len(found), dtype=np.int64)
        banner_ids[real] = index.banner_ids[service_rows[real]]
        ttls[real] = index.ttls[service_rows[real]]
        pseudo = np.flatnonzero(~real)
        if len(pseudo):
            pseudo_rows = found.pseudo_rows[pseudo]
            ttls[pseudo] = index.pseudo_ttls[pseudo_rows]
            pseudo_features = self.banner_factory.pseudo_service_features
            for row, ip, port, incident in zip(
                    pseudo.tolist(), found.ips[pseudo].tolist(),
                    found.ports[pseudo].tolist(),
                    index.pseudo_incident[pseudo_rows].tolist()):
                features = pseudo_features(ip, incident, port=port)
                banner_ids[row] = (
                    batch.add_local_banner(MappingProxyType(features))
                    if incident else universe.banners.intern_value(features))
        batch.ips = IntColumn.from_numpy(found.ips)
        batch.ports = IntColumn.from_numpy(found.ports)
        batch.status = IntColumn.from_numpy(status)
        batch.banner_ids = IntColumn.from_numpy(banner_ids)
        batch.ttls = IntColumn.from_numpy(ttls)
        self.ledger.record(
            category, probes=PROBES_PER_HANDSHAKE * (handshakes + retried),
            responses=PROBES_PER_HANDSHAKE * len(found),
            retransmits=PROBES_PER_HANDSHAKE * retried)
        return batch

    def charge_handshakes(self, count: int,
                          category: ScanCategory = ScanCategory.OTHER) -> None:
        """Charge ``count`` answered handshakes without grabbing any banner.

        The totals :meth:`grab_batch_columns` charges for as many rows of
        a lossless sweep, for rows a caller knows it would discard.
        """
        self.ledger.record(category, probes=PROBES_PER_HANDSHAKE * count,
                           responses=PROBES_PER_HANDSHAKE * count)

    def grab_prefix_columns(self, fingerprints: PrefixFingerprints,
                            category: ScanCategory = ScanCategory.OTHER,
                            ) -> ObservationBatch:
        """:meth:`grab_batch_columns` for one prefix sweep's fingerprints.

        Same rows, order and ledger totals, but the columns copy over
        whole: the real services' banner ids arrived with the fingerprints,
        so only the ``pending`` rows look their host up -- a real record
        resolves through the interner, a pseudo page is built as in
        :meth:`grab_batch_columns`.  Under a loss model the handshake draws
        run over every row first, and rows whose banner was lost drop out.
        """
        universe = self.universe
        handshakes = len(fingerprints)
        retried = 0
        dropped: Set[int] = set()
        if self.loss is not None:
            for row, (ip, port) in enumerate(zip(fingerprints.ips,
                                                 fingerprints.ports)):
                attempts, observed = self._handshake_attempts(ip, port)
                retried += attempts - 1
                if not observed:
                    dropped.add(row)
        answered = handshakes - len(dropped)
        batch = ObservationBatch(banners=universe.banners,
                                 statuses=fingerprints.statuses)
        batch.ips.extend(fingerprints.ips)
        batch.ports.extend(fingerprints.ports)
        batch.status.extend(fingerprints.status)
        batch.banner_ids.extend(fingerprints.banner_ids)
        batch.ttls.extend(fingerprints.ttls)
        for row in fingerprints.pending:
            if row in dropped:
                continue
            ip, port = batch.ips[row], batch.ports[row]
            host = universe.hosts.get(ip)
            record = host.services.get(port) if host is not None else None
            if record is not None:
                batch.banner_ids[row] = universe.banner_id_of(record)
            elif host is not None and host.is_pseudo_responsive_on(port):
                features = self.banner_factory.pseudo_service_features(
                    ip, host.pseudo_incident_style, port=port)
                batch.banner_ids[row] = (
                    batch.add_local_banner(MappingProxyType(features))
                    if host.pseudo_incident_style
                    else universe.banners.intern_value(features))
            else:
                dropped.add(row)
        if dropped:
            batch = batch.select([row for row in range(len(batch))
                                  if row not in dropped])
        self.ledger.record(
            category, probes=PROBES_PER_HANDSHAKE * (handshakes + retried),
            responses=PROBES_PER_HANDSHAKE * answered,
            retransmits=PROBES_PER_HANDSHAKE * retried)
        return batch
