"""Ground-truth dataset builders.

A :class:`GroundTruthDataset` is what every experiment evaluates against: a
named set of fully-featured service observations, the port domain it covers,
and the fraction of the address space it observed.  Building a dataset does
not consume scan bandwidth -- it plays the role of the reference data (Censys,
the authors' month-long LZR scan) that the paper treats as ground truth.

Datasets are **columnar**: the builders fold the universe's service records
straight into :class:`~repro.scanner.records.ObservationBatch` parallel
columns (address, port, encoded protocol status, interned banner id, TTL)
through the universe's banner interner -- no per-service
:class:`~repro.scanner.records.ScanObservation` object and no banner-dict
copy is ever made.  The object API remains as lazy views (``observations``
materializes rows once, on first access) and stays the equivalence oracle:
a materialized row compares equal to what the historical object builder
produced.  Derived datasets (port restriction, the min-responsive filter)
are pure column slices sharing the parent's interner.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.internet.universe import Universe
from repro.net.ports import PortRegistry
from repro.scanner.records import ObservationBatch, ScanObservation

Pair = Tuple[int, int]


class GroundTruthDataset:
    """A ground-truth dataset plus the metadata experiments need.

    Attributes:
        name: dataset label (``"censys-like"``, ``"lzr-like"``, ...).
        port_domain: ports the dataset covers (``None`` = all 65,535).
        sample_fraction: fraction of the address space the dataset observed
            (1.0 for a Censys-style 100 % scan, 0.01 for an LZR-style 1 % scan).
        address_space_size: size of one "100 % scan" unit for this universe.

    The service data lives in exactly one of two backings: columnar
    (an :class:`~repro.scanner.records.ObservationBatch`, what the builders
    produce) or object rows (a list of
    :class:`~repro.scanner.records.ScanObservation`, the historical form --
    still accepted so loaded/handcrafted observation sets keep working and
    the tests have an oracle to compare against).  Whichever backing is
    missing is derived lazily and cached: ``observations`` materializes the
    columns once, :meth:`columns` folds object rows into a batch once.
    """

    def __init__(self, name: str,
                 observations: Optional[List[ScanObservation]] = None,
                 port_domain: Optional[Tuple[int, ...]] = None,
                 sample_fraction: float = 1.0,
                 address_space_size: int = 0,
                 columns: Optional[ObservationBatch] = None) -> None:
        if observations is None and columns is None:
            raise ValueError("a dataset needs observations or columns")
        self.name = name
        self.port_domain = port_domain
        self.sample_fraction = sample_fraction
        self.address_space_size = address_space_size
        self._columns = columns
        self._observations: Optional[List[ScanObservation]] = (
            list(observations) if observations is not None else None)
        self._pairs: Optional[Set[Pair]] = None

    # -- representations -------------------------------------------------------------

    @property
    def observations(self) -> List[ScanObservation]:
        """Every service in the dataset, as (lazily materialized) object rows."""
        if self._observations is None:
            self._observations = self._columns.materialize()
        return self._observations

    def columns(self) -> ObservationBatch:
        """The dataset's columnar backing (built once from rows if needed)."""
        if self._columns is None:
            self._columns = ObservationBatch.from_observations(self._observations)
        return self._columns

    def has_columns(self) -> bool:
        """Whether a columnar backing already exists (without building one).

        Consumers that merely *prefer* columns (the seed split's batch
        slice) check this so an object-backed dataset is not forced to
        intern every banner for a run that may never read the columns.
        """
        return self._columns is not None

    # -- queries ---------------------------------------------------------------------

    def pairs(self) -> Set[Pair]:
        """All (ip, port) services in the dataset (cached)."""
        if self._pairs is None:
            if self._columns is not None:
                self._pairs = set(zip(self._columns.ips, self._columns.ports))
            else:
                self._pairs = {obs.pair() for obs in self._observations}
        return self._pairs

    def ips(self) -> List[int]:
        """Distinct responsive addresses in the dataset, ascending."""
        if self._columns is not None:
            return sorted(set(self._columns.ips))
        return sorted({obs.ip for obs in self._observations})

    def port_registry(self) -> PortRegistry:
        """Per-port service counts within the dataset."""
        return PortRegistry.from_ports(port for _, port in self.pairs())

    def service_count(self) -> int:
        """Total number of services in the dataset."""
        if self._columns is not None:
            return len(self._columns)
        return len(self._observations)

    # -- derived datasets ------------------------------------------------------------

    def _restricted(self, allowed: Set[int], name: str,
                    port_domain: Optional[Tuple[int, ...]]) -> "GroundTruthDataset":
        """A copy keeping only services on ``allowed`` ports.

        Columnar datasets slice columns (sharing the interner, never
        touching a banner); object-backed datasets filter rows, exactly as
        the historical builder did -- the round-trip property tests compare
        the two.
        """
        if self._columns is not None:
            ports = self._columns.ports
            kept = self._columns.select(
                i for i in range(len(ports)) if ports[i] in allowed)
            return GroundTruthDataset(
                name=name, columns=kept, port_domain=port_domain,
                sample_fraction=self.sample_fraction,
                address_space_size=self.address_space_size,
            )
        return GroundTruthDataset(
            name=name,
            observations=[obs for obs in self._observations if obs.port in allowed],
            port_domain=port_domain,
            sample_fraction=self.sample_fraction,
            address_space_size=self.address_space_size,
        )

    def restricted_to_ports(self, ports: Sequence[int],
                            name: Optional[str] = None) -> "GroundTruthDataset":
        """A copy containing only services on the given ports."""
        allowed = set(ports)
        return self._restricted(allowed, name or f"{self.name}-restricted",
                                tuple(sorted(allowed)))

    def filtered_min_responsive_ips(self, minimum: int,
                                    name: Optional[str] = None) -> "GroundTruthDataset":
        """Keep only ports with at least ``minimum`` responsive addresses.

        The paper's LZR evaluation keeps ports with *greater than two*
        responsive addresses, i.e. ``minimum=3``.  The filter narrows the
        evaluation ground truth but not the dataset's *scan* domain: a seed
        scan across all ports still pays for all ports, so ``port_domain`` is
        left unchanged.
        """
        counts: Dict[int, Set[int]] = {}
        if self._columns is not None:
            for ip, port in zip(self._columns.ips, self._columns.ports):
                counts.setdefault(port, set()).add(ip)
        else:
            for obs in self._observations:
                counts.setdefault(obs.port, set()).add(obs.ip)
        allowed = {port for port, ips in counts.items() if len(ips) >= minimum}
        return self._restricted(allowed, name or f"{self.name}-min{minimum}",
                                self.port_domain)


def _observation_from_record(record) -> ScanObservation:
    """The historical object-row builder, kept as the equivalence oracle.

    Copies the record's banner dict per observation -- exactly what the
    pre-columnar builders did; the columnar round-trip tests and the dataset
    benchmark use it as the object-path baseline.
    """
    return ScanObservation(ip=record.ip, port=record.port, protocol=record.protocol,
                           app_features=dict(record.app_features), ttl=record.ttl)


def _columns_from_records(universe: Universe, records: Iterable) -> ObservationBatch:
    """Fold service records straight into observation columns.

    Per record: five list appends plus one identity-cached banner-id lookup
    (ground-truth banners are read-only mappings, shared by every service of
    a fleet, pre-interned when the universe's indices are built), so building
    a dataset is O(1) per service with no banner-dict copies -- the same
    contract the columnar scan path keeps per hit.
    """
    batch = ObservationBatch(banners=universe.banners)
    banner_id_of = universe.banner_id_of
    status_of = batch.statuses.encode
    ips, ports, status = batch.ips, batch.ports, batch.status
    banner_ids, ttls = batch.banner_ids, batch.ttls
    for record in records:
        ips.append(record.ip)
        ports.append(record.port)
        status.append(status_of(record.protocol))
        banner_ids.append(banner_id_of(record))
        ttls.append(record.ttl)
    return batch


def build_full_dataset(universe: Universe, name: str = "full") -> GroundTruthDataset:
    """Every real service in the universe (the omniscient reference)."""
    return GroundTruthDataset(
        name=name,
        columns=_columns_from_records(universe, universe.real_services()),
        port_domain=None,
        sample_fraction=1.0,
        address_space_size=universe.address_space_size(),
    )


def build_censys_like(universe: Universe, top_ports: int = 2000,
                      name: str = "censys-like") -> GroundTruthDataset:
    """A Censys-style dataset: 100 % coverage of the top-N most populated ports."""
    if top_ports < 1:
        raise ValueError("top_ports must be >= 1")
    registry = universe.port_registry()
    ports = tuple(sorted(registry.top_ports(top_ports)))
    allowed = set(ports)
    columns = _columns_from_records(
        universe,
        (record for record in universe.real_services() if record.port in allowed),
    )
    return GroundTruthDataset(
        name=name,
        columns=columns,
        port_domain=ports,
        sample_fraction=1.0,
        address_space_size=universe.address_space_size(),
    )


def build_lzr_like(universe: Universe, sample_fraction: float = 0.01,
                   seed: int = 11, min_responsive_ips: int = 3,
                   name: str = "lzr-like") -> GroundTruthDataset:
    """An LZR-style dataset: an address-sample scan across all ports.

    Args:
        universe: the ground-truth universe to sample.
        sample_fraction: fraction of the announced address space the scan
            covered (the paper uses 1 %).
        seed: RNG seed for the address sample.
        min_responsive_ips: minimum responsive addresses per port for the port
            to be kept (the paper keeps ports with more than two, i.e. 3).
        name: dataset label.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError("sample_fraction out of range")
    rng = random.Random(seed)
    space = universe.address_space_size()
    target = max(1, int(round(space * sample_fraction)))

    # Sampling uniformly from announced space and keeping the hits is
    # equivalent to sampling each responsive host independently with
    # probability ``sample_fraction`` -- which is how we draw it, so the
    # builder does not need to enumerate millions of dark addresses.
    sampled_set = {
        ip for ip in universe.all_ips() if rng.random() < sample_fraction
    }
    columns = _columns_from_records(
        universe,
        (record for record in universe.real_services() if record.ip in sampled_set),
    )
    dataset = GroundTruthDataset(
        name=name,
        columns=columns,
        port_domain=None,
        sample_fraction=target / space,
        address_space_size=space,
    )
    if min_responsive_ips > 1:
        dataset = dataset.filtered_min_responsive_ips(min_responsive_ips, name=name)
    return dataset
