"""The synthetic ground-truth universe of hosts and services.

A :class:`Universe` is the reproduction's stand-in for "the IPv4 Internet at a
point in time": a set of hosts, each with an address, an originating AS, a
device profile and a set of listening services with application-layer content.
The scanners in :mod:`repro.scanner` only ever interact with the universe
through point probes and prefix queries, so GPS and the baselines exercise the
same code path they would against live targets.

Three populations are generated, mirroring the phenomena the paper describes:

* **Real hosts** drawn from device profiles (the predictable structure GPS
  learns), clustered into subnets of compatible autonomous systems;
* **Pseudo-service hosts** (Appendix B): hosts that complete handshakes on
  more than a thousand contiguous ports but serve no real content;
* **Middleboxes** (handled by LZR): devices that SYN-ACK on every port but
  never complete an application handshake.

Scale note: the paper's universe is 3.7 billion addresses; the synthetic one
defaults to tens of thousands of hosts inside a few dozen /16s.  All metrics
in the reproduction are relative (fractions of services, bandwidth in units of
"100 % scans" of the synthetic address space), so the scale change preserves
the shape of every result while keeping experiments laptop-sized.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from repro.engine.columns import IntColumn
from repro.internet.banners import BannerFactory, BannerInterner
from repro.internet.profiles import DeviceProfile, default_profiles
from repro.internet.topology import (
    AutonomousSystem,
    Topology,
    TopologyConfig,
    generate_topology,
)
from repro.net.ipv4 import prefix_of, prefix_size
from repro.net.ports import MAX_PORT, PortRegistry

#: Device classes that gravitate towards access (residential/mobile) networks
#: versus datacenter-style (hosting/enterprise/academic) networks.
_ACCESS_CLASSES = {"router", "iot", "camera", "embedded"}
_DATACENTER_CLASSES = {"server", "database", "nas"}


@dataclass(frozen=True)
class ServiceRecord:
    """One real (ip, port) service in the ground truth.

    Attributes:
        ip: host address.
        port: listening port.
        protocol: protocol actually spoken (LZR fingerprint result).
        app_features: application-layer feature values (Table 1 keys), a
            read-only mapping: every service of one fleet whose banner has no
            per-host value shares the same object, so writing to it raises
            ``TypeError`` instead of changing the whole fleet.
        ttl: IP TTL observed from this service; differing TTLs across a host's
            services indicate port forwarding (paper Section 7).
    """

    ip: int
    port: int
    protocol: str
    app_features: Mapping[str, str]
    ttl: int = 64


@dataclass
class Host:
    """A host in the synthetic universe."""

    ip: int
    asn: int
    profile_name: str
    services: Dict[int, ServiceRecord] = field(default_factory=dict)
    base_ttl: int = 64
    pseudo_port_range: Optional[Tuple[int, int]] = None
    pseudo_incident_style: bool = False
    is_middlebox: bool = False

    def open_ports(self) -> List[int]:
        """Ports with real services, ascending."""
        return sorted(self.services)

    def is_pseudo_host(self) -> bool:
        """Whether the host serves pseudo services (Appendix B)."""
        return self.pseudo_port_range is not None

    def is_pseudo_responsive_on(self, port: int) -> bool:
        """Whether this host would answer ``port`` with a pseudo service.

        The single definition of pseudo-responsiveness: both the point-probe
        path (:meth:`Universe.is_pseudo_responsive`) and the batched scanner
        layers (which already hold the ``Host``) route through it, so the
        two paths cannot drift.
        """
        span = self.pseudo_port_range
        return span is not None and span[0] <= port <= span[1]


@dataclass(frozen=True)
class PortServices:
    """The real services on one port as parallel columns, in address order.

    Row ``i`` is the service at ``ips[i]``: the protocol LZR fingerprints,
    the interned id of the banner ZGrab grabs and the TTL both observe.
    The columns are built once with the universe's indices, so a prefix
    sweep takes its real services as one slice of each column instead of
    looking every responder's host and record up again.
    """

    ips: IntColumn
    protocols: List[str]
    banner_ids: IntColumn
    ttls: IntColumn

    def __len__(self) -> int:
        return len(self.ips)


def _rows_in(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's row in the sorted ``table``, or ``-1`` where it is absent."""
    if not len(table):
        return np.full(len(values), -1, dtype=np.int64)
    rows = np.searchsorted(table, values).clip(max=len(table) - 1)
    return np.where(table[rows] == values, rows, -1)


@dataclass(frozen=True, eq=False)
class ResolvedTargets:
    """Probe targets and what answers each one, as parallel int64 arrays.

    ``service_rows[i]`` is target ``i``'s row in the
    :class:`ServiceIndex` service columns, ``-1`` when no real service
    listens there.  ``pseudo_rows[i]`` is its host's row in the index's
    pseudo-host arrays when that host's pseudo range covers the port and no
    real service does, else ``-1``.  ``middlebox[i]`` says whether the host
    SYN-ACKs every port.  This is the precedence the per-target layers
    apply: a real service speaks its protocol, a pseudo page speaks HTTP, a
    middlebox answers the SYN and then stays silent, and anything else
    (dark space, a closed port) does not answer at all.
    """

    ips: np.ndarray
    ports: np.ndarray
    service_rows: np.ndarray
    pseudo_rows: np.ndarray
    middlebox: np.ndarray

    def __len__(self) -> int:
        return len(self.ips)

    def speaking(self) -> np.ndarray:
        """Mask of targets that complete a handshake (services, pseudo pages)."""
        return (self.service_rows >= 0) | (self.pseudo_rows >= 0)

    def answering(self) -> np.ndarray:
        """Mask of targets that SYN-ACK: the speaking ones and middleboxes."""
        return self.speaking() | self.middlebox

    def take(self, rows: np.ndarray) -> "ResolvedTargets":
        """The targets at ``rows`` (a mask or indices), in that order."""
        return ResolvedTargets(self.ips[rows], self.ports[rows],
                               self.service_rows[rows], self.pseudo_rows[rows],
                               self.middlebox[rows])


@dataclass(frozen=True, eq=False)
class ServiceIndex:
    """Every real service of a universe in one sorted table.

    The service columns are parallel arrays in ascending order of their
    int64 ``ip << 16 | port`` key (ports are 16-bit): the protocol code (an
    int16 index into ``protocols``), the interned banner id (int64) and the
    TTL (int16; narrow columns keep a universe's resident size down).
    Beside them sit the sorted addresses of the pseudo-service hosts, with
    each one's port range, incident style and TTL, and of the middleboxes.
    :meth:`resolve` answers a whole column of targets with three
    ``searchsorted`` passes, so a prediction scan never looks a host up.
    """

    keys: np.ndarray
    protocol_codes: np.ndarray
    protocols: Tuple[str, ...]
    banner_ids: np.ndarray
    ttls: np.ndarray
    pseudo_ips: np.ndarray
    pseudo_lo: np.ndarray
    pseudo_hi: np.ndarray
    pseudo_incident: np.ndarray
    pseudo_ttls: np.ndarray
    middlebox_ips: np.ndarray

    def resolve(self, ips: np.ndarray, ports: np.ndarray) -> ResolvedTargets:
        """What answers each ``(ips[i], ports[i])`` target (int64 arrays)."""
        service_rows = _rows_in(self.keys, ips << 16 | ports)
        pseudo_rows = _rows_in(self.pseudo_ips, ips)
        if len(self.pseudo_ips):
            covered = ((pseudo_rows >= 0) & (service_rows < 0)
                       & (self.pseudo_lo[pseudo_rows] <= ports)
                       & (ports <= self.pseudo_hi[pseudo_rows]))
            pseudo_rows = np.where(covered, pseudo_rows, -1)
        return ResolvedTargets(ips, ports, service_rows, pseudo_rows,
                               _rows_in(self.middlebox_ips, ips) >= 0)


_NO_SERVICES = PortServices(ips=IntColumn(), protocols=[],
                            banner_ids=IntColumn(), ttls=IntColumn())


@dataclass(frozen=True)
class PrefixResponders:
    """The addresses of one prefix that SYN-ACK on one port, split by kind.

    Rows ``start:stop`` of ``services`` are the prefix's real services on
    ``port``; ``others`` holds every other responder (pseudo services whose
    range covers the port, middleboxes), ascending.  Only ``others`` needs
    a per-target look at its host.
    """

    port: int
    services: PortServices
    start: int
    stop: int
    others: List[int]

    def __len__(self) -> int:
        return self.stop - self.start + len(self.others)

    def ips(self) -> List[int]:
        """Every responder, ascending."""
        return sorted(chain(self.services.ips[self.start:self.stop],
                            self.others))

    def answered(self, responders: Sequence[int]) -> "PrefixResponders":
        """The part of this split a sweep actually heard from.

        ``responders`` is a sweep's observed subset of :meth:`ips`, in
        order.  When nothing was dropped (always, once the retry budget
        covers the loss bound) this split is returned as it is; otherwise
        every answered address moves to ``others`` and resolves per target.
        """
        if len(responders) == len(self):
            return self
        return PrefixResponders(port=self.port, services=self.services,
                                start=self.start, stop=self.start,
                                others=list(responders))


@dataclass(frozen=True)
class UniverseConfig:
    """Parameters controlling universe generation.

    Attributes:
        host_count: number of real (profile-driven) hosts to generate.
        seed: RNG seed; generation is fully deterministic given the config.
        topology: topology generation parameters.
        pseudo_host_fraction: extra hosts (relative to ``host_count``) that are
            pseudo-service hosts.
        pseudo_port_span: width of the contiguous pseudo-service port range
            (the paper observes spans greater than 1,000 ports).
        pseudo_incident_fraction: fraction of pseudo hosts whose pages embed a
            random incident ID (the hard-to-filter long tail of Appendix B).
        middlebox_fraction: extra hosts that are SYN-ACK-everything middleboxes.
        subnet_cluster_len: prefix length of the pools hosts of a profile are
            clustered into inside an AS (models "services appear together in
            networks", Section 4).
        cluster_pools_per_profile_as: number of such pools per (profile, AS).
        cluster_probability: probability a host lands in one of its profile's
            pools rather than anywhere in the AS.
        unique_body_fraction: see :class:`~repro.internet.banners.BannerFactory`.
    """

    host_count: int = 20000
    seed: int = 1
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    profiles: Optional[Tuple[DeviceProfile, ...]] = None
    pseudo_host_fraction: float = 0.02
    pseudo_port_span: int = 1200
    pseudo_incident_fraction: float = 0.2
    middlebox_fraction: float = 0.01
    subnet_cluster_len: int = 24
    cluster_pools_per_profile_as: int = 4
    cluster_probability: float = 0.8
    unique_body_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.host_count < 1:
            raise ValueError("host_count must be >= 1")
        if not 0.0 <= self.pseudo_host_fraction <= 1.0:
            raise ValueError("pseudo_host_fraction out of range")
        if not 0.0 <= self.middlebox_fraction <= 1.0:
            raise ValueError("middlebox_fraction out of range")
        if not 0.0 <= self.pseudo_incident_fraction <= 1.0:
            raise ValueError("pseudo_incident_fraction out of range")
        # A pseudo range starts at port 1 or above and must leave room for
        # at least one start port below MAX_PORT.
        if not 1 <= self.pseudo_port_span <= MAX_PORT - 2:
            raise ValueError("pseudo_port_span out of range")
        if not 16 <= self.subnet_cluster_len <= 30:
            raise ValueError("subnet_cluster_len must be within /16-/30")
        if self.cluster_pools_per_profile_as < 1:
            raise ValueError("cluster_pools_per_profile_as must be >= 1")
        if not 0.0 <= self.cluster_probability <= 1.0:
            raise ValueError("cluster_probability out of range")
        if not 0.0 <= self.unique_body_fraction <= 1.0:
            raise ValueError("unique_body_fraction out of range")
        if self.profiles:
            names = [profile.name for profile in self.profiles]
            if len(set(names)) != len(names):
                raise ValueError("profile names must be unique")


def _announced_coverage(prefixes: Iterable[Tuple[int, int]],
                        ) -> Tuple[List[int], List[int], List[int]]:
    """The announcement coverage of the address line, as a step table.

    Returns the sorted announcement edges and, at each edge, the announced
    addresses below it and the number of announcements covering the stretch
    up to the next edge.  An address inside two announcements counts twice,
    as it does when every announcement's overlap is summed.
    """
    steps: Dict[int, int] = {}
    for base, length in prefixes:
        steps[base] = steps.get(base, 0) + 1
        end = base + prefix_size(length)
        steps[end] = steps.get(end, 0) - 1
    edges = sorted(steps)
    below: List[int] = []
    depth: List[int] = []
    total = covering = 0
    previous = edges[0] if edges else 0
    for edge in edges:
        total += covering * (edge - previous)
        below.append(total)
        covering += steps[edge]
        depth.append(covering)
        previous = edge
    return edges, below, depth


class Universe:
    """Ground-truth container with the query interface the scanners need."""

    def __init__(self, hosts: Dict[int, Host], topology: Topology,
                 config: UniverseConfig) -> None:
        self.hosts = hosts
        self.topology = topology
        self.config = config
        # port -> the *real* services on that port, as columns sorted by IP.
        self._port_services: Dict[int, PortServices] = {}
        self._pseudo_ips: List[int] = []
        self._middlebox_ips: List[int] = []
        # Banner interner: every distinct ground-truth banner mapping is
        # assigned a dense integer id once, so the columnar scan layers ship
        # ids instead of copying dicts per hit (see
        # repro.scanner.records.ObservationBatch).
        self.banners = BannerInterner()
        self._rebuild_indices()
        self._announced = _announced_coverage(
            prefix for system in topology.systems for prefix in system.prefixes)

    # -- index maintenance ---------------------------------------------------------

    def _rebuild_indices(self) -> None:
        ips: List[int] = []
        ports: List[int] = []
        codes: List[int] = []
        banner_ids: List[int] = []
        ttls: List[int] = []
        protocol_codes: Dict[str, int] = {}
        pseudo: List[Host] = []
        middlebox: List[int] = []
        intern_banner = self.banners.intern
        for ip, host in self.hosts.items():
            for port, record in host.services.items():
                ips.append(ip)
                ports.append(port)
                codes.append(protocol_codes.setdefault(record.protocol,
                                                       len(protocol_codes)))
                # Pre-intern every ground-truth banner so a scan hit resolves
                # its banner id with one identity-cache lookup; a fleet's
                # shared mapping is canonicalized on its first service only.
                banner_ids.append(intern_banner(record.app_features))
                ttls.append(record.ttl)
            if host.is_pseudo_host():
                pseudo.append(host)
            if host.is_middlebox:
                middlebox.append(ip)
        ip_column = np.array(ips, dtype=np.int64)
        port_column = np.array(ports, dtype=np.int64)
        code_column = np.array(codes, dtype=np.int16)
        banner_column = np.array(banner_ids, dtype=np.int64)
        ttl_column = np.array(ttls, dtype=np.int16)
        del ips, ports, codes, banner_ids, ttls
        protocols = tuple(protocol_codes)

        # Per port, the services in address order.
        by_port = np.lexsort((ip_column, port_column))
        sorted_ports = port_column[by_port]
        edges = np.flatnonzero(sorted_ports[1:] != sorted_ports[:-1]) + 1
        starts = np.concatenate(([0], edges)).tolist() if len(by_port) else []
        stops = np.concatenate((edges, [len(by_port)])).tolist() if len(by_port) else []
        port_services: Dict[int, PortServices] = {}
        for start, stop in zip(starts, stops):
            rows = by_port[start:stop]
            port_services[int(sorted_ports[start])] = PortServices(
                ips=IntColumn.from_numpy(ip_column[rows]),
                protocols=[protocols[code] for code in code_column[rows].tolist()],
                banner_ids=IntColumn.from_numpy(banner_column[rows]),
                ttls=IntColumn.from_numpy(ttl_column[rows]))
        self._port_services = port_services

        # Every service in packed-key order, and the hosts that answer
        # without one.
        keys = ip_column << 16 | port_column
        order = np.argsort(keys)
        pseudo.sort(key=lambda host: host.ip)
        self._pseudo_ips = [host.ip for host in pseudo]
        self._middlebox_ips = sorted(middlebox)
        self.service_index = ServiceIndex(
            keys=keys[order], protocol_codes=code_column[order],
            protocols=protocols, banner_ids=banner_column[order],
            ttls=ttl_column[order],
            pseudo_ips=np.array(self._pseudo_ips, dtype=np.int64),
            pseudo_lo=np.array([host.pseudo_port_range[0] for host in pseudo],
                               dtype=np.int64),
            pseudo_hi=np.array([host.pseudo_port_range[1] for host in pseudo],
                               dtype=np.int64),
            pseudo_incident=np.array([host.pseudo_incident_style
                                      for host in pseudo], dtype=bool),
            pseudo_ttls=np.array([host.base_ttl for host in pseudo],
                                 dtype=np.int64),
            middlebox_ips=np.array(self._middlebox_ips, dtype=np.int64))

    # -- basic lookups ---------------------------------------------------------------

    def host(self, ip: int) -> Optional[Host]:
        """Return the host at ``ip`` (or ``None`` when the address is dark)."""
        return self.hosts.get(ip)

    def lookup(self, ip: int, port: int) -> Optional[ServiceRecord]:
        """Return the real service at ``(ip, port)`` or ``None``."""
        host = self.hosts.get(ip)
        if host is None:
            return None
        return host.services.get(port)

    def banner_id_of(self, record: ServiceRecord) -> int:
        """Dense interned id of a service record's banner mapping.

        Records present at index-build time hit the identity cache (one
        int-keyed dict lookup); records added afterwards (churn) intern
        lazily on first use, so callers never need to re-index first.
        """
        return self.banners.intern(record.app_features)

    def is_pseudo_responsive(self, ip: int, port: int) -> bool:
        """Whether ``(ip, port)`` would answer with a pseudo service."""
        host = self.hosts.get(ip)
        return host is not None and host.is_pseudo_responsive_on(port)

    def is_middlebox(self, ip: int) -> bool:
        """Whether ``ip`` is a SYN-ACK-everything middlebox."""
        host = self.hosts.get(ip)
        return host is not None and host.is_middlebox

    def asn_of(self, ip: int) -> int:
        """ASN originating ``ip`` (0 when unannounced)."""
        return self.topology.asn_db.asn_of(ip)

    # -- aggregate views --------------------------------------------------------------

    def all_ips(self) -> List[int]:
        """All host addresses (real, pseudo and middlebox), ascending."""
        return sorted(self.hosts)

    def real_service_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate all real ``(ip, port)`` pairs in the ground truth."""
        for ip, host in self.hosts.items():
            for port in host.services:
                yield ip, port

    def real_services(self) -> Iterator[ServiceRecord]:
        """Iterate all real service records."""
        for host in self.hosts.values():
            yield from host.services.values()

    def service_count(self) -> int:
        """Total number of real services."""
        return sum(len(host.services) for host in self.hosts.values())

    def ports_in_use(self) -> List[int]:
        """Ports with at least one real service, ascending."""
        return sorted(self._port_services)

    def port_services(self, port: int) -> PortServices:
        """The real services on ``port`` as columns (empty when none)."""
        return self._port_services.get(port, _NO_SERVICES)

    def ips_on_port(self, port: int) -> List[int]:
        """Sorted addresses with a real service on ``port``."""
        return list(self.port_services(port).ips)

    def port_registry(self) -> PortRegistry:
        """Per-port real-service counts (used by popularity-ordered baselines)."""
        return PortRegistry.from_counts(
            {port: len(services)
             for port, services in self._port_services.items()}
        )

    def address_space_size(self) -> int:
        """Size of the announced address space (the denominator of a "100 % scan")."""
        return self.topology.total_address_capacity()

    def announced_overlap(self, base: int, prefix_len: int) -> int:
        """Number of announced addresses inside ``base/prefix_len``.

        Exhaustively scanning a prefix only costs probes for addresses that
        exist in the simulated Internet; a ``/0`` step size therefore costs
        exactly one "100 % scan" rather than 2**32 probes.
        """
        lo = prefix_of(base, prefix_len)
        hi = lo + prefix_size(prefix_len)
        return self._announced_below(hi) - self._announced_below(lo)

    def distinct_announced(self) -> int:
        """Number of distinct announced addresses.

        An address inside nested announcements counts once here (unlike
        :meth:`announced_overlap`): the stretches of the coverage table that
        at least one announcement covers.
        """
        edges, _, depth = self._announced
        return sum(edges[at + 1] - edges[at]
                   for at in range(len(edges) - 1) if depth[at] > 0)

    def _announced_below(self, address: int) -> int:
        """Announced addresses below ``address``, each announcement counted.

        Reads the coverage table built once from the topology: between two
        adjacent announcement edges the count grows by the number of
        announcements covering that stretch.
        """
        edges, below, depth = self._announced
        at = bisect_right(edges, address) - 1
        if at < 0:
            return 0
        return below[at] + depth[at] * (address - edges[at])

    # -- prefix queries (what the simulated ZMap uses) -------------------------------

    def responders_in_prefix(self, port: int, base: int, prefix_len: int) -> List[int]:
        """Addresses inside ``base/prefix_len`` that would SYN-ACK on ``port``.

        Includes real services, pseudo services whose port range covers
        ``port``, and middleboxes (which SYN-ACK on everything).  The caller
        pays the bandwidth cost of the exhaustive sweep; this method only
        avoids enumerating dark addresses.
        """
        return self.prefix_responders(port, base, prefix_len).ips()

    def prefix_responders(self, port: int, base: int,
                          prefix_len: int) -> PrefixResponders:
        """:meth:`responders_in_prefix`, split into real services and the rest.

        The real services are a row range of :meth:`port_services`, found by
        bisecting the sorted per-port index; the rest come from the small
        sorted pseudo-host and middlebox pools.
        """
        lo = prefix_of(base, prefix_len)
        hi = lo + prefix_size(prefix_len)
        services = self.port_services(port)
        ips = services.ips
        others: Set[int] = set()
        for pool in (self._pseudo_ips, self._middlebox_ips):
            for ip in pool[bisect_left(pool, lo):bisect_right(pool, hi - 1)]:
                host = self.hosts[ip]
                if host.is_middlebox or host.is_pseudo_responsive_on(port):
                    if port not in host.services:
                        others.add(ip)
        return PrefixResponders(port=port, services=services,
                                start=bisect_left(ips, lo),
                                stop=bisect_right(ips, hi - 1),
                                others=sorted(others))

    def syn_ack(self, ip: int, port: int) -> bool:
        """Whether a single SYN probe to ``(ip, port)`` would be answered."""
        host = self.hosts.get(ip)
        if host is None:
            return False
        if host.is_middlebox:
            return True
        if port in host.services:
            return True
        return self.is_pseudo_responsive(ip, port)

    def syn_ack_observed(self, ip: int, port: int, loss: Any,
                         attempt: int = 0) -> bool:
        """:meth:`syn_ack` as *observed* through a lossy network.

        ``loss`` is a :class:`~repro.engine.faults.ProbeLossModel` (or
        ``None`` for a perfect network): a target only counts as responsive
        when it would answer *and* the model does not drop this attempt's
        reply.  The decision is a pure function of ``(seed, ip, port,
        attempt)``, so every scanner layer observing the same attempt agrees
        on what was lost -- the property the retry-equivalence tests pin.
        """
        if not self.syn_ack(ip, port):
            return False
        return loss is None or not loss.lost("zmap", ip, port, attempt)

    def describe(self) -> Dict[str, int]:
        """Summary statistics used in docs, logs and tests."""
        return {
            "hosts": len(self.hosts),
            "real_services": self.service_count(),
            "ports_in_use": len(self._port_services),
            "pseudo_hosts": len(self._pseudo_ips),
            "middleboxes": len(self._middlebox_ips),
            "autonomous_systems": len(self.topology),
            "address_space": self.address_space_size(),
        }


# -- generation ------------------------------------------------------------------------


def _compatible_ases(profile: DeviceProfile, topology: Topology,
                     rng: random.Random) -> List[AutonomousSystem]:
    """Pick the ASes a profile is concentrated in, respecting category affinity."""
    if profile.device_class in _ACCESS_CLASSES:
        preferred = topology.by_category("residential") + topology.by_category("mobile")
    elif profile.device_class in _DATACENTER_CLASSES:
        preferred = (topology.by_category("hosting")
                     + topology.by_category("enterprise")
                     + topology.by_category("academic"))
    else:
        preferred = list(topology.systems)
    if not preferred:
        preferred = list(topology.systems)
    count = min(profile.preferred_as_count, len(preferred))
    return rng.sample(preferred, count)


def _allocate_address(profile: DeviceProfile, system: AutonomousSystem,
                      pools: Dict[Tuple[str, int], List[int]],
                      used: Set[int], config: UniverseConfig,
                      topology: Topology, rng: random.Random) -> int:
    """Pick a free address for a host, clustering it into per-profile pools."""
    key = (profile.name, system.asn)
    if key not in pools:
        pool_bases: List[int] = []
        for _ in range(config.cluster_pools_per_profile_as):
            anchor = topology.random_address(system.asn, rng)
            pool_bases.append(prefix_of(anchor, config.subnet_cluster_len))
        pools[key] = pool_bases
    for _ in range(64):
        if rng.random() < config.cluster_probability:
            base = rng.choice(pools[key])
            candidate = base + rng.randrange(prefix_size(config.subnet_cluster_len))
        else:
            candidate = topology.random_address(system.asn, rng)
        if candidate not in used:
            return candidate
    # Extremely dense pool: fall back to a linear scan from a random anchor.
    candidate = topology.random_address(system.asn, rng)
    while candidate in used:
        candidate += 1
    return candidate


@lru_cache(maxsize=4096)
def _as_specific_port(profile_name: str, bundle_port: int, asn: int) -> int:
    """Deterministic non-standard port for a bundle deployed in a given AS.

    Models ISP-customised firmware: the same device family listens on a
    different high port in every network, so the long tail of uncommon ports
    stays predictable from (banner, network) features while being invisible to
    popularity-ordered port scanning.
    """
    digest = hashlib.sha256(f"{profile_name}|{bundle_port}|{asn}".encode()).digest()
    return 1024 + int.from_bytes(digest[:4], "big") % (MAX_PORT - 1024)


def _host_services(profile: DeviceProfile, ip: int, asn: int, base_ttl: int,
                   banner_factory: BannerFactory,
                   rng: random.Random) -> Dict[int, ServiceRecord]:
    """Instantiate a host's services from its profile's port bundles."""
    services: Dict[int, ServiceRecord] = {}
    for bundle in profile.bundles:
        if rng.random() >= bundle.probability:
            continue
        if bundle.random_port:
            port = rng.randrange(1024, MAX_PORT + 1)
            # Forwarded services traverse extra hops: their observed TTL
            # differs from the host's other services (paper Section 7).
            ttl = max(8, base_ttl - rng.randrange(1, 6))
        elif bundle.as_specific:
            port = _as_specific_port(profile.name, bundle.port, asn)
            ttl = base_ttl
        else:
            port = bundle.port
            ttl = base_ttl
        if port in services:
            continue
        features = banner_factory.features_for(profile, bundle.protocol,
                                                bundle.banner_variant, ip)
        services[port] = ServiceRecord(ip=ip, port=port, protocol=bundle.protocol,
                                       app_features=features, ttl=ttl)
    if not services:
        # Every generated host exposes at least one service; otherwise it would
        # be indistinguishable from dark space and contribute nothing.
        bundle = profile.bundles[0]
        features = banner_factory.features_for(profile, bundle.protocol,
                                               bundle.banner_variant, ip)
        services[bundle.port] = ServiceRecord(ip=ip, port=bundle.port,
                                              protocol=bundle.protocol,
                                              app_features=features, ttl=base_ttl)
    return services


def generate_universe(config: UniverseConfig) -> Universe:
    """Generate a ground-truth universe from ``config`` (deterministically)."""
    rng = random.Random(config.seed)
    topology = generate_topology(config.topology, rng)
    profiles = list(config.profiles) if config.profiles else default_profiles()
    banner_factory = BannerFactory(unique_body_fraction=config.unique_body_fraction)

    profile_ases = {p.name: _compatible_ases(p, topology, rng) for p in profiles}
    # The running sums ``rng.choices`` would rebuild from the weights per call.
    cum_weights = list(accumulate(p.weight for p in profiles))

    hosts: Dict[int, Host] = {}
    used: Set[int] = set()
    pools: Dict[Tuple[str, int], List[int]] = {}

    for _ in range(config.host_count):
        profile = rng.choices(profiles, cum_weights=cum_weights, k=1)[0]
        if rng.random() < profile.network_concentration:
            system = rng.choice(profile_ases[profile.name])
        else:
            system = rng.choice(topology.systems)
        ip = _allocate_address(profile, system, pools, used, config, topology, rng)
        used.add(ip)
        base_ttl = rng.choice((64, 64, 64, 128, 255))
        services = _host_services(profile, ip, system.asn, base_ttl, banner_factory, rng)
        hosts[ip] = Host(ip=ip, asn=system.asn, profile_name=profile.name,
                         services=services, base_ttl=base_ttl)

    # Pseudo-service hosts (Appendix B).
    pseudo_count = int(round(config.host_count * config.pseudo_host_fraction))
    for _ in range(pseudo_count):
        system = rng.choice(topology.systems)
        ip = topology.random_address(system.asn, rng)
        while ip in used:
            ip = topology.random_address(system.asn, rng)
        used.add(ip)
        start = rng.randrange(1, MAX_PORT - config.pseudo_port_span)
        incident = rng.random() < config.pseudo_incident_fraction
        hosts[ip] = Host(ip=ip, asn=system.asn, profile_name="pseudo_host",
                         services={}, base_ttl=64,
                         pseudo_port_range=(start, start + config.pseudo_port_span - 1),
                         pseudo_incident_style=incident)

    # Middleboxes: SYN-ACK everything, never complete an application handshake.
    middlebox_count = int(round(config.host_count * config.middlebox_fraction))
    for _ in range(middlebox_count):
        system = rng.choice(topology.systems)
        ip = topology.random_address(system.asn, rng)
        while ip in used:
            ip = topology.random_address(system.asn, rng)
        used.add(ip)
        hosts[ip] = Host(ip=ip, asn=system.asn, profile_name="middlebox",
                         services={}, base_ttl=255, is_middlebox=True)

    return Universe(hosts=hosts, topology=topology, config=config)
