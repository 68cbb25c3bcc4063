"""Simulated ZMap: the stateless layer-4 SYN scanner.

ZMap's role in the GPS pipeline (Section 5.5) is to discover which probes are
answered at all; it knows nothing about the service behind a SYN-ACK.  The
simulator mirrors that: every method returns only (address, port) pairs that
would SYN-ACK, and charges the bandwidth ledger for every probe *sent*, not
every response received -- the distinction is what drives the paper's
precision results (exhaustive scanning wastes almost all of its probes on
dark space).

The real ZMap also carries a fixed IP-ID fingerprint (54321) so that network
operators can block it; the simulator exposes the same constant for parity
with the paper's ethics discussion (Section 3) and so the value shows up in
documentation and tests.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.faults import ProbeLossModel
from repro.internet.universe import Host, PrefixResponders, ResolvedTargets, Universe
from repro.net.ports import MAX_PORT, is_valid_port
from repro.scanner.bandwidth import BandwidthLedger, ScanCategory

#: The IP-ID value ZMap stamps on every probe, allowing operators to filter it.
ZMAP_IP_ID_FINGERPRINT = 54321

#: Loss-model layer tag: decisions are per (layer, ip, port, attempt), so the
#: SYN sweep, LZR and ZGrab draw independent losses for the same target.
LOSS_LAYER = "zmap"


class SweptPorts:
    """The ports a seed sweep probes on every sampled host.

    ``None`` means all 65,535 ports; a sequence is probed in its order,
    repeats included.  Built (and validated) once per sweep, it answers what
    :meth:`ZMapSimulator.scan_host_ports` would return for a host -- and
    which of those ports speak a protocol -- from the host's services and
    pseudo range alone, so a sweep can count a host's responses without
    listing its ports.
    """

    def __init__(self, ports: Optional[Sequence[int]]) -> None:
        if ports is None:
            self.ports: Optional[Tuple[int, ...]] = None
            self.size = MAX_PORT
            return
        for port in ports:
            if not is_valid_port(port):
                raise ValueError(f"invalid port: {port}")
        self.ports = tuple(ports)
        self.size = len(self.ports)
        self._sorted = sorted(self.ports)
        self._repeats = Counter(self.ports)

    def speaking(self, host: Host) -> int:
        """Probes that reach one of ``host``'s services or pseudo pages.

        The length of :meth:`speaking_ports`, counted without building it.
        """
        services = host.services
        span = host.pseudo_port_range
        if self.ports is None:
            count = len(services)
            if span is not None:
                lo, hi = span
                count += max(0, hi - lo + 1) - sum(
                    lo <= port <= hi for port in services)
            return count
        repeats = self._repeats
        count = sum(repeats.get(port, 0) for port in services)
        if span is not None:
            lo, hi = span
            count += (bisect_right(self._sorted, hi)
                      - bisect_left(self._sorted, lo)
                      - sum(repeats.get(port, 0) for port in services
                            if lo <= port <= hi))
        return count

    def speaking_ports(self, host: Host) -> List[int]:
        """The probed ports where ``host`` speaks a protocol, in probe order."""
        services = host.services
        if self.ports is None:
            span = host.pseudo_port_range
            if span is None:
                return sorted(services)
            return sorted(set(services) | set(range(span[0], span[1] + 1)))
        speaks = host.is_pseudo_responsive_on
        return [port for port in self.ports if port in services or speaks(port)]

    def service_ports(self, host: Host) -> List[int]:
        """The probed ports of ``host``'s real services, in probe order."""
        if self.ports is None:
            return sorted(host.services)
        return [port for port in self.ports if port in host.services]

    def answered(self, host: Host) -> int:
        """How many probes ``host`` SYN-ACKs: all of them for a middlebox."""
        return self.size if host.is_middlebox else self.speaking(host)

    def answered_head(self, host: Host, count: int) -> List[int]:
        """The first ``count`` ports ``host`` SYN-ACKs, in probe order."""
        if not host.is_middlebox:
            return self.speaking_ports(host)[:count]
        if self.ports is None:
            return list(range(1, count + 1))
        return list(self.ports[:count])


class ZMapSimulator:
    """Layer-4 SYN scanning against a :class:`~repro.internet.universe.Universe`.

    ``loss`` plugs in a seeded :class:`~repro.engine.faults.ProbeLossModel`;
    every scan shape then runs bounded retry rounds -- each round retransmits
    exactly the probes that went unanswered (true responders whose reply was
    dropped *and* dark space, which can never be told apart on the wire) and
    charges the ledger for them as retransmits.  Because the loss model bounds
    consecutive losses per target, a retry budget of at least that depth
    makes every scan's responder set identical to the lossless run; the
    default (``loss=None``) is byte-identical to the pre-loss simulator.
    """

    def __init__(self, universe: Universe, ledger: BandwidthLedger,
                 loss: Optional[ProbeLossModel] = None, max_retries: int = 0,
                 retry_backoff_s: float = 0.0) -> None:
        self.universe = universe
        self.ledger = ledger
        self.ip_id = ZMAP_IP_ID_FINGERPRINT
        self.loss = loss
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s

    def _backoff(self) -> None:
        if self.retry_backoff_s > 0:
            time.sleep(self.retry_backoff_s)

    def _sweep_with_loss(self, responders: Sequence[int], port: int,
                         probes: int, category: ScanCategory) -> List[int]:
        """Retry rounds over one port's sweep: ``responders`` are the ground
        truth, ``probes`` the round-0 probe count (responders + dark space).

        Returns the observed responders in their original order, charging one
        ledger record per round.  Only unanswered probes retransmit, so no
        response is ever counted twice.
        """
        loss = self.loss
        observed: set = set()
        missing: Sequence[int] = responders
        outstanding = probes
        for attempt in range(self.max_retries + 1):
            got = [ip for ip in missing
                   if not loss.lost(LOSS_LAYER, ip, port, attempt)]
            self.ledger.record(category, probes=outstanding,
                               responses=len(got),
                               retransmits=outstanding if attempt else 0)
            observed.update(got)
            outstanding -= len(got)
            missing = [ip for ip in missing if ip not in observed]
            if not missing:
                break
            self._backoff()
        return [ip for ip in responders if ip in observed]

    # -- scan shapes -----------------------------------------------------------------

    def scan_prefix(self, port: int, base: int, prefix_len: int,
                    category: ScanCategory = ScanCategory.PRIORS,
                    split: Optional[PrefixResponders] = None) -> List[int]:
        """Exhaustively sweep one port across ``base/prefix_len``.

        Returns the addresses that SYN-ACKed.  The ledger is charged one probe
        per *announced* address in the prefix regardless of how many respond
        (probing unannounced space would not be part of a real deployment's
        target list, and charging for it would distort the "100 % scan" unit).
        ``split`` is the prefix's
        :meth:`~repro.internet.universe.Universe.prefix_responders` when the
        caller already holds it; without it the sweep asks the universe.
        """
        if not is_valid_port(port):
            raise ValueError(f"invalid port: {port}")
        responders = (split.ips() if split is not None
                      else self.universe.responders_in_prefix(port, base, prefix_len))
        probes = self.universe.announced_overlap(base, prefix_len)
        if self.loss is not None:
            return self._sweep_with_loss(responders, port, probes, category)
        self.ledger.record(category, probes=probes, responses=len(responders))
        return responders

    def scan_host_ports(self, ip: int, ports: Sequence[int] | None = None,
                        category: ScanCategory = ScanCategory.SEED) -> List[int]:
        """Probe one host across a set of ports (default: all 65,535).

        This is the per-host sweep used when collecting a seed scan: the cost
        is one probe per port probed, and the return value is the list of
        ports that SYN-ACKed.
        """
        host = self.universe.host(ip)
        if ports is None:
            probes_sent = MAX_PORT
            if host is None:
                responsive: List[int] = []
            elif host.is_middlebox:
                responsive = list(range(1, MAX_PORT + 1))
            else:
                responsive = sorted(set(host.services)
                                    | set(self._pseudo_ports(ip)))
        else:
            for port in ports:
                if not is_valid_port(port):
                    raise ValueError(f"invalid port: {port}")
            probes_sent = len(ports)
            responsive = [port for port in ports if self.universe.syn_ack(ip, port)]
        if self.loss is not None:
            # One host, many ports: the per-round loss decision keys on the
            # port (the address is fixed), mirroring _sweep_with_loss.
            loss = self.loss
            observed: set = set()
            missing: Sequence[int] = responsive
            outstanding = probes_sent
            for attempt in range(self.max_retries + 1):
                got = [port for port in missing
                       if not loss.lost(LOSS_LAYER, ip, port, attempt)]
                self.ledger.record(category, probes=outstanding,
                                   responses=len(got),
                                   retransmits=outstanding if attempt else 0)
                observed.update(got)
                outstanding -= len(got)
                missing = [port for port in missing if port not in observed]
                if not missing:
                    break
                self._backoff()
            return [port for port in responsive if port in observed]
        self.ledger.record(category, probes=probes_sent, responses=len(responsive))
        return responsive

    def charge_host_sweeps(self, hosts: int, ports: SweptPorts, responses: int,
                           category: ScanCategory = ScanCategory.SEED) -> None:
        """Charge ``hosts`` sweeps across ``ports`` in one ledger record.

        The totals :meth:`scan_host_ports` charges for the same hosts when
        ``responses`` is the sum of their SYN-ACKs and nothing is retried:
        any lossless sweep, and dark hosts under loss (a host that answers
        nothing has nothing to retransmit, so its sweep is one round).
        """
        self.ledger.record(category, probes=hosts * ports.size,
                           responses=responses)

    def scan_pairs(self, pairs: Iterable[Tuple[int, int]],
                   category: ScanCategory = ScanCategory.PREDICTION) -> List[Tuple[int, int]]:
        """Probe specific (ip, port) pairs (the prediction scan shape)."""
        sent = 0
        hits: List[Tuple[int, int]] = []
        observed = self.universe.syn_ack_observed if self.loss is not None else None
        retransmits = 0
        for ip, port in pairs:
            if not is_valid_port(port):
                raise ValueError(f"invalid port: {port}")
            sent += 1
            if observed is not None:
                # Per-target retry: retransmit until the SYN-ACK gets through
                # or the budget runs out; a non-responder is never retried
                # (no reply is indistinguishable from loss only for targets
                # that would answer -- dark targets time out either way and
                # the pair scan gives up after the first timeout window).
                for attempt in range(self.max_retries + 1):
                    if not self.universe.syn_ack(ip, port):
                        break
                    if observed(ip, port, self.loss, attempt):
                        hits.append((ip, port))
                        break
                    if attempt < self.max_retries:
                        sent += 1
                        retransmits += 1
                        self._backoff()
            elif self.universe.syn_ack(ip, port):
                hits.append((ip, port))
        self.ledger.record(category, probes=sent, responses=len(hits),
                           retransmits=retransmits)
        return hits

    def scan_pair_columns(self, ips: np.ndarray, ports: np.ndarray,
                          category: ScanCategory = ScanCategory.PREDICTION,
                          ) -> ResolvedTargets:
        """Columnar :meth:`scan_pairs`: the SYN-ACKing targets, resolved.

        ``ips`` and ``ports`` are int64 target columns.  Sends exactly the
        probes :meth:`scan_pairs` sends for the same targets in the same
        order, keeps the same responders in that order and charges the
        ledger the same totals in one record -- but every target resolves
        against the universe's
        :class:`~repro.internet.universe.ServiceIndex` in one array pass,
        and the result carries what answered (service row, pseudo row,
        middlebox) for the LZR and ZGrab steps.  An invalid port raises
        ``ValueError`` before anything is charged.  Under a loss model only
        the responders retry, one Python loop over them.
        """
        invalid = (ports < 1) | (ports > MAX_PORT)
        if invalid.any():
            raise ValueError(f"invalid port: {int(ports[invalid][0])}")
        targets = self.universe.service_index.resolve(ips, ports)
        rows = np.flatnonzero(targets.answering())
        retransmits = 0
        if self.loss is not None:
            lost = self.loss.lost
            kept: List[int] = []
            for row, ip, port in zip(rows.tolist(), ips[rows].tolist(),
                                     ports[rows].tolist()):
                for attempt in range(self.max_retries + 1):
                    if not lost(LOSS_LAYER, ip, port, attempt):
                        kept.append(row)
                        break
                    if attempt < self.max_retries:
                        retransmits += 1
                        self._backoff()
            rows = np.array(kept, dtype=np.int64)
        self.ledger.record(category, probes=len(targets) + retransmits,
                           responses=len(rows), retransmits=retransmits)
        return targets.take(rows)

    # -- helpers ----------------------------------------------------------------------

    def _pseudo_ports(self, ip: int) -> List[int]:
        host = self.universe.host(ip)
        if host is None or host.pseudo_port_range is None:
            return []
        lo, hi = host.pseudo_port_range
        return list(range(lo, hi + 1))
