"""The end-to-end scan pipeline: ZMap -> LZR -> ZGrab with bandwidth accounting.

:class:`ScanPipeline` is the only interface through which GPS, the baselines
and the dataset builders touch the synthetic universe.  It exposes the three
scan shapes the paper's system needs:

* :meth:`ScanPipeline.seed_scan` -- a uniform random address sample swept
  across all (or a subset of) ports, fingerprinted, banner-grabbed and
  pseudo-service-filtered: the "seed set" of Section 5.1;
* :meth:`ScanPipeline.scan_prefix` -- an exhaustive sweep of one port over one
  subnetwork: the building block of the priors scan (Section 5.3);
* :meth:`ScanPipeline.scan_pairs` -- targeted probes of predicted (ip, port)
  pairs: the prediction scan (Section 5.4).  Passing ``batch_prefix_len``
  probes them in per-(prefix, port) batch order in one array pass, charging
  each layer once instead of once per pair.

Every shape runs the *columnar* layers, which fold hits into flat int
columns.  The seed sweep chains ``fingerprint_batch_columns`` ->
``grab_batch_columns`` -> the columnar pseudo-service filter, resolving
every target's host; it first charges dark addresses, and the hosts the
filter's dense-host rule would drop, by count, so only rows the filter can
keep are built.  ``scan_prefix`` keeps ZMap's sweep but takes the prefix's
real services as one slice of the universe's per-port columns
(:meth:`~repro.internet.universe.Universe.prefix_responders`), so only the
pseudo pages and middleboxes among its responders resolve per target
(``fingerprint_prefix_columns`` -> ``grab_prefix_columns``); a single-port
sweep has one row per address, which the filter passes through untouched.
The batched prediction scan reads its targets as columns (a
:class:`~repro.core.predictions.Predictions` slice hands its own), puts
them in :func:`~repro.scanner.records.group_order` and resolves them all
against the universe's packed
:class:`~repro.internet.universe.ServiceIndex` with ``searchsorted``
(``zmap.scan_pair_columns`` -> ``lzr.fingerprint_resolved`` ->
``zgrab.grab_resolved``): Python loops run only over pseudo rows and, under
a loss model, over the responders.
``scan_prefix`` and the batched prediction scan return the
:class:`~repro.scanner.records.ObservationBatch` itself, whose
:class:`~repro.scanner.records.ScanObservation` rows materialize only when a
consumer reads them; the seed scan's :class:`SeedScanResult` carries its
batch and builds its rows once, on the first read of ``observations``.  The
per-pair layer methods (``zmap.scan_pairs``, ``fingerprint_many``,
``grab_many``, ``filter``) are the reference oracle:
unbatched :meth:`ScanPipeline.scan_pairs` chains them, and every columnar
shape is defined as producing the same observations in the same order with
identical ledger charges, lossless or under a loss model.

Every probe sent is charged to a :class:`~repro.scanner.bandwidth.BandwidthLedger`
so that each experiment can report cost in the paper's unit of "100 % scans".
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from typing import (
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.engine.columns import to_numpy
from repro.engine.encoding import DictionaryEncoder
from repro.engine.faults import FaultPlan
from repro.internet.banners import BannerFactory
from repro.internet.universe import Universe
from repro.net.ipv4 import prefix_size, subnet_key_parts
from repro.scanner.bandwidth import BandwidthLedger, ScanCategory
from repro.scanner.filtering import PseudoServiceFilter
from repro.scanner.lzr import LZRSimulator
from repro.scanner.records import ObservationBatch, ScanObservation, group_order
from repro.scanner.zgrab import ZGrabSimulator
from repro.scanner.zmap import SweptPorts, ZMapSimulator
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: If a host SYN-ACKs on more than this many ports in a single sweep, LZR
#: samples a handful of them before deciding the host is a middlebox, instead
#: of fingerprinting every port individually.
MIDDLEBOX_SUSPECT_PORT_COUNT = 30000
MIDDLEBOX_SAMPLE_PORTS = 10


@runtime_checkable
class PairColumns(Protocol):
    """Probe targets as parallel ``ips`` and ``ports`` int columns."""

    ips: Sequence[int]
    ports: Sequence[int]


def _target_columns(pairs: Union[Iterable[Tuple[int, int]], PairColumns],
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """The targets as two int64 arrays, read straight from columns if given."""
    if isinstance(pairs, PairColumns):
        return to_numpy(pairs.ips), to_numpy(pairs.ports)
    flat = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return flat[:, 0], flat[:, 1]


@dataclass
class SeedScanResult:
    """Outcome of a seed scan.

    Attributes:
        sampled_ips: the addresses that were probed (responsive or not).
        removed_pseudo_services: number of observations the Appendix B filter
            removed.
        ports_scanned: the ports each sampled address was probed on (``None``
            means all 65,535 ports).
        batch: the filtered observations in columnar form.  Live seed scans
            produce it natively (the sweep, the fingerprint/grab layers and
            the pseudo-service filter all run columnar) and dataset-split
            seeds slice the dataset's columns.  Row ``i`` of the batch
            materializes to ``observations[i]``; consumers that can stay
            columnar (GPS's fused feature ingest, its discovery log) read
            this and never build the object rows.
        rows: the object rows when the seed was built from them (a seed
            without a batch must pass them); otherwise ``None`` until
            :attr:`observations` first builds them from ``batch``.
    """

    sampled_ips: List[int]
    removed_pseudo_services: int
    ports_scanned: Optional[Tuple[int, ...]] = None
    batch: Optional[ObservationBatch] = None
    rows: Optional[List[ScanObservation]] = field(default=None, repr=False,
                                                  compare=False)

    @property
    def observations(self) -> List[ScanObservation]:
        """The filtered, fully-featured service observations.

        Built from ``batch`` on first read and cached, so every later read
        (a serving build, the reference feature extraction) shares one list.
        """
        if self.rows is None:
            self.rows = self.batch.materialize()
        return self.rows

    def pairs(self) -> List[Tuple[int, int]]:
        """The seed's (ip, port) pairs in row order, without building rows."""
        if self.batch is not None:
            return self.batch.pairs()
        return [obs.pair() for obs in self.observations]


class ScanPipeline:
    """Chains the simulated ZMap, LZR and ZGrab against one universe."""

    def __init__(self, universe: Universe,
                 ledger: Optional[BandwidthLedger] = None,
                 pseudo_filter: Optional[PseudoServiceFilter] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.universe = universe
        self.ledger = ledger or BandwidthLedger(
            address_space_size=universe.address_space_size()
        )
        # The telemetry bridge taps the ledger's single recording choke
        # point: every probe/response/retransmit any scanner layer charges
        # mirrors into live per-category counters, and the top-level scan
        # shapes time themselves into per-shape sweep histograms.  Scan
        # results and ledger totals are unaffected either way.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.ledger.observer = self._observe_bandwidth
        banner_factory = BannerFactory(
            unique_body_fraction=universe.config.unique_body_fraction
        )
        # A fault plan turns the pipeline lossy: each layer draws seeded,
        # independent loss decisions and retries unanswered targets with
        # backoff.  The loss model bounds consecutive losses below the retry
        # budget (FaultPlan validates this), so scan results stay identical
        # to the lossless run -- only the ledger shows the retransmits.
        self.fault_plan = fault_plan
        loss = fault_plan.loss_model() if fault_plan is not None else None
        retries = fault_plan.max_probe_retries if loss is not None else 0
        backoff = fault_plan.retry_backoff_s if loss is not None else 0.0
        self.zmap = ZMapSimulator(universe, self.ledger, loss=loss,
                                  max_retries=retries, retry_backoff_s=backoff)
        self.lzr = LZRSimulator(universe, self.ledger, loss=loss,
                                max_retries=retries, retry_backoff_s=backoff)
        self.zgrab = ZGrabSimulator(universe, self.ledger, banner_factory,
                                    loss=loss, max_retries=retries,
                                    retry_backoff_s=backoff)
        self.pseudo_filter = pseudo_filter or PseudoServiceFilter()
        # One protocol-status id space per pipeline, so status ids stay
        # stable across every columnar batch this pipeline produces.
        self._status_encoder = DictionaryEncoder()

    @property
    def status_encoder(self) -> DictionaryEncoder:
        """The pipeline-wide protocol-status id space.

        Consumers folding object rows back into columns
        (:meth:`~repro.scanner.records.ObservationBatch.from_observations`)
        pass this so their batches speak the same status ids as every batch
        the pipeline produced, instead of re-encoding into a fresh space.
        """
        return self._status_encoder

    # -- address sampling -------------------------------------------------------------

    def sample_addresses(self, fraction: float, rng: random.Random) -> List[int]:
        """Uniformly sample a fraction of the announced address space.

        Each draw is an offset into the announcements laid end to end,
        mapped to its prefix by a bisect over their cumulative sizes.  The
        offset is drawn as ``randrange(total)`` draws it -- ``getrandbits``
        of ``total``'s bit length, redrawn while out of range -- so a seed
        picks the same addresses either way.  Nested announcements put some
        addresses under several offsets; the sample never asks for more
        addresses than are distinct.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"sample fraction out of range: {fraction}")
        ends: List[int] = []    # cumulative end offset of each announcement
        shifts: List[int] = []  # address minus offset inside each one
        total = 0
        for system in self.universe.topology.systems:
            for base, length in system.prefixes:
                shifts.append(base - total)
                total += prefix_size(length)
                ends.append(total)
        count = max(1, int(round(total * fraction)))
        count = min(count, self.universe.distinct_announced())
        bits = total.bit_length()
        getrandbits = rng.getrandbits
        picks: set[int] = set()
        while len(picks) < count:
            # Each draw adds at most one pick, so drawing the shortfall in
            # one go never draws past the point where the sample is full.
            # Dropping out-of-range draws is randrange's redraw loop.
            draws = list(map(getrandbits, repeat(bits, count - len(picks))))
            picks.update([offset + shifts[bisect_right(ends, offset)]
                          for offset in draws if offset < total])
        return sorted(picks)

    # -- scan shapes -------------------------------------------------------------------

    def seed_scan(self, sample_fraction: float, seed: int = 0,
                  ports: Optional[Sequence[int]] = None,
                  apply_filter: bool = True) -> SeedScanResult:
        """Collect a seed set: random address sample swept across ports.

        The sweep (:meth:`_sweep_hosts_columnar`) charges dark addresses,
        and under the filter the hosts its dense-host rule would drop, by
        count; only the other hosts' rows are fingerprinted, grabbed and
        filtered.  The result carries the kept rows as a batch and builds
        the row objects on the first read of ``observations``.  Picks, rows,
        their order, ``removed_pseudo_services`` and the per-category ledger
        totals are those of chaining the per-host layers.

        Args:
            sample_fraction: fraction of the announced address space to probe.
            seed: RNG seed for the address sample.
            ports: restrict the sweep to these ports (``None`` = all 65,535,
                the paper's all-port seed scan; the Censys-style experiments
                pass the top-2K port list).
            apply_filter: run the Appendix B pseudo-service filter on the
                resulting observations (the paper always does).
        """
        sweep_t0 = time.perf_counter() if self.telemetry.enabled else None
        rng = random.Random(seed)
        sampled = self.sample_addresses(sample_fraction, rng)
        port_tuple = tuple(ports) if ports is not None else None
        batch, removed = self._sweep_hosts_columnar(
            sampled, port_tuple, ScanCategory.SEED, drop_dense=apply_filter)
        if apply_filter:
            kept = self.pseudo_filter.filter_batch(batch)
            removed += len(batch) - len(kept)
            batch = kept
        if sweep_t0 is not None:
            self._observe_sweep("seed", time.perf_counter() - sweep_t0)
        return SeedScanResult(sampled_ips=sampled,
                              removed_pseudo_services=removed,
                              ports_scanned=port_tuple, batch=batch)

    def scan_prefix(self, port: int, subnet: int | Tuple[int, int],
                    category: ScanCategory = ScanCategory.PRIORS,
                    apply_filter: bool = True) -> ObservationBatch:
        """Exhaustively scan one port across one subnetwork.

        ``subnet`` is either a packed subnet key (see
        :func:`repro.net.ipv4.subnet_key`) or a ``(base, prefix_len)`` tuple.
        The universe splits the prefix's responders once; ZMap sweeps and
        charges the prefix from that split.  The real services among its
        responders are one row range of the universe's per-port columns
        (protocol, interned banner id, TTL), found by bisect bounds, and
        arrive as column slices; only the other responders (pseudo pages,
        middleboxes) look their host up, in ``fingerprint_prefix_columns``
        and ``grab_prefix_columns``, which merge them in at their address.  If the sweep lost a responder for
        good (a retry budget below the loss bound), every answered responder
        resolves per target instead.  The result is the filtered
        :class:`~repro.scanner.records.ObservationBatch`: its rows
        materialize to the same observations, in the same order, with the
        same ledger charges as chaining ``fingerprint_many`` -> ``grab_many``
        -> ``filter`` over ZMap's responders, lossless or lossy; the rows are
        read-only interner views.
        """
        sweep_t0 = time.perf_counter() if self.telemetry.enabled else None
        if isinstance(subnet, tuple):
            base, length = subnet
        else:
            base, length = subnet_key_parts(subnet)
        found = self.universe.prefix_responders(port, base, length)
        responders = self.zmap.scan_prefix(port, base, length, category=category,
                                           split=found)
        fingerprints = self.lzr.fingerprint_prefix_columns(
            found.answered(responders), category=category,
            statuses=self._status_encoder)
        batch = self.zgrab.grab_prefix_columns(fingerprints, category=category)
        if apply_filter:
            batch = self.pseudo_filter.filter_batch(batch)
        if sweep_t0 is not None:
            self._observe_sweep("prefix", time.perf_counter() - sweep_t0)
        return batch

    def scan_pairs(self, pairs: Union[Iterable[Tuple[int, int]], PairColumns],
                   category: ScanCategory = ScanCategory.PREDICTION,
                   apply_filter: bool = True,
                   batch_prefix_len: Optional[int] = None,
                   ) -> Sequence[ScanObservation]:
        """Probe specific (ip, port) targets and banner-grab the responders.

        Args:
            pairs: the (ip, port) targets, probed in order: an iterable of
                pairs, or columns -- any object with parallel ``ips`` and
                ``ports`` int columns, such as a
                :class:`~repro.core.predictions.Predictions` slice.
            category: ledger category the probes are charged to.
            apply_filter: run the Appendix B pseudo-service filter.
            batch_prefix_len: when set, probe the targets batched per
                (subnetwork, port) at that prefix length -- Section 5.4's
                prediction scan, GPS's default use of this -- in one array
                pass: the targets go in
                :func:`~repro.scanner.records.group_pairs` order, resolve
                against the universe's
                :class:`~repro.internet.universe.ServiceIndex`
                (``zmap.scan_pair_columns``), and fingerprint and grab as
                columns (``lzr.fingerprint_resolved`` ->
                ``zgrab.grab_resolved``).  The same probes are sent, the
                same services are observed and the ledger totals are
                identical; results come back in batch order rather than
                strict pair order.

        Returns:
            With ``batch_prefix_len`` the observations as an
            :class:`~repro.scanner.records.ObservationBatch` (rows
            materialize when read); without it a list from the per-pair
            reference layers.
        """
        sweep_t0 = time.perf_counter() if self.telemetry.enabled else None
        if batch_prefix_len is not None:
            ips, ports = _target_columns(pairs)
            order = group_order(ips, ports, batch_prefix_len)
            hits = self.zmap.scan_pair_columns(ips[order], ports[order],
                                               category=category)
            fingerprints = self.lzr.fingerprint_resolved(
                hits, category=category, statuses=self._status_encoder)
            batch = self.zgrab.grab_resolved(fingerprints, category=category)
            if apply_filter:
                batch = self.pseudo_filter.filter_batch(batch)
            if sweep_t0 is not None:
                self._observe_sweep("pair_batches", time.perf_counter() - sweep_t0)
            return batch
        if isinstance(pairs, PairColumns):
            pairs = zip(pairs.ips, pairs.ports)
        hits = self.zmap.scan_pairs(pairs, category=category)
        fingerprints = self.lzr.fingerprint_many(hits, category=category)
        observations = self.zgrab.grab_many(fingerprints, category=category)
        if apply_filter:
            observations = self.pseudo_filter.filter(observations)
        if sweep_t0 is not None:
            self._observe_sweep("pairs", time.perf_counter() - sweep_t0)
        return observations

    # -- internals ---------------------------------------------------------------------

    def _observe_bandwidth(self, category: ScanCategory, probes: int,
                           responses: int, retransmits: int) -> None:
        """Ledger observer: mirror one record() into live counters."""
        tel = self.telemetry
        if probes:
            tel.counter("scan_probes_total", "Probes sent, by scan category",
                        category=category.value).inc(probes)
        if responses:
            tel.counter("scan_responses_total",
                        "Responsive probes, by scan category",
                        category=category.value).inc(responses)
        if retransmits:
            tel.counter("scan_retransmits_total",
                        "Probes re-sent after simulated loss",
                        category=category.value).inc(retransmits)

    def _observe_sweep(self, shape: str, seconds: float) -> None:
        """Record one top-level scan shape's wall-clock cost."""
        tel = self.telemetry
        tel.counter("scan_sweeps_total", "Top-level scan calls, by shape",
                    shape=shape).inc()
        tel.histogram("scan_sweep_seconds",
                      "Wall-clock time of one top-level scan call",
                      shape=shape).observe(seconds)

    def _sweep_hosts_columnar(self, ips: Sequence[int],
                              ports: Optional[Tuple[int, ...]],
                              category: ScanCategory, drop_dense: bool = False,
                              ) -> Tuple[ObservationBatch, int]:
        """Probe each address across the port set, building only rows that can stay.

        Returns the batch and the number of rows charged but not built.
        The charges and rows equal chaining ``scan_host_ports`` ->
        ``fingerprint_many`` -> ``grab_many`` per host (the LZR/ZGrab loss
        draws are pure functions of the target, not of batching):

        * dark addresses answer nothing and retry nothing, so ZMap charges
          them all in one record, lossless or lossy;
        * a silent SYN-ACK (a middlebox port) costs LZR its handshake and
          is never retried, so it is charged by count and never becomes a
          target -- a middlebox's 65,535 SYN-ACKs are counted, not listed,
          though its port sample still runs through LZR;
        * without a loss model, a live host's SYN-ACKs and speaking ports
          are counted from its services and pseudo range
          (:class:`~repro.scanner.zmap.SweptPorts`).  With ``drop_dense``
          (the filter will run), a host with more speaking ports than the
          filter's dense-host rule allows is charged its ZMap, LZR and ZGrab
          probes by count and builds no row, port list or banner; its rows
          are the second return value.  The status ids those rows would
          have taken are still assigned, in row order, so the pipeline's
          status id space does not depend on the shortcut.

        Every other host's speaking ports become targets, which
        fingerprinting and banner-grabbing fold through the columnar layers
        in one pass each.  Under a loss model every live host still sweeps
        through ``scan_host_ports`` (its loss draws decide what answers).
        """
        swept = SweptPorts(ports)
        hosts = self.universe.hosts
        lossy = self.zmap.loss is not None
        by_count = drop_dense and not lossy
        encode_status = self._status_encoder.encode
        if by_count:
            encode_status("http")  # the first id LZR hands out
        live = [ip for ip in ips if ip in hosts]
        # ZMap sweeps charged by count (the dark addresses, and every live
        # host when lossless) and the SYN-ACKs they drew.
        swept_hosts = len(ips) - len(live)
        answered = 0
        silent = 0   # SYN-ACKing targets LZR hears nothing from
        dropped = 0  # speaking targets of hosts dropped by count
        target_ips: List[int] = []
        target_ports: List[int] = []
        for ip in live:
            host = hosts[ip]
            if lossy:
                responsive = self.zmap.scan_host_ports(ip, ports=ports,
                                                       category=category)
                speaks = host.is_pseudo_responsive_on
                speaking = [port for port in responsive
                            if port in host.services or speaks(port)]
                acks = len(responsive)
            else:
                swept_hosts += 1
                speaking = None
                speaking_count = swept.speaking(host)
                acks = swept.answered(host)
                answered += acks
            if acks > MIDDLEBOX_SUSPECT_PORT_COUNT:
                # LZR middlebox shortcut: sample a few ports; if none ever
                # produce data the host is acking everything and is dropped.
                # A throwaway status encoder: the sample only asks whether
                # any port spoke, and must not reorder the shared id space.
                sample = (responsive[:MIDDLEBOX_SAMPLE_PORTS] if lossy
                          else swept.answered_head(host, MIDDLEBOX_SAMPLE_PORTS))
                if not self.lzr.fingerprint_batch_columns(
                        [ip] * len(sample), sample, category=category):
                    continue
            if by_count:
                for port in swept.service_ports(host):
                    encode_status(host.services[port].protocol)
                if self.pseudo_filter.drops_host(speaking_count):
                    silent += acks - speaking_count
                    dropped += speaking_count
                    continue
            if speaking is None:
                speaking = swept.speaking_ports(host)
            silent += acks - len(speaking)
            target_ips.extend([ip] * len(speaking))
            target_ports.extend(speaking)
        self.zmap.charge_host_sweeps(swept_hosts, swept, answered, category)
        self.lzr.charge_fingerprints(silent + dropped, dropped, category)
        self.zgrab.charge_handshakes(dropped, category)
        return self._grab_columns(target_ips, target_ports, category), dropped

    def _grab_columns(self, ips: Sequence[int], ports: Sequence[int],
                      category: ScanCategory) -> ObservationBatch:
        """Fingerprint then banner-grab SYN-ACKing targets on the columnar layers."""
        fingerprints = self.lzr.fingerprint_batch_columns(
            ips, ports, category=category, statuses=self._status_encoder)
        return self.zgrab.grab_batch_columns(fingerprints, category=category)
