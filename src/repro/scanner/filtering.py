"""Pseudo-service filtering (Appendix B).

A substantial number of hosts "successfully" answer application handshakes on
more than a thousand contiguous ports while hosting no real service at all --
block pages, CDN default pages, "no service exists here" responders.  If those
observations reached the seed set, GPS would learn to predict pseudo services
instead of real ones, so the paper filters them before training:

1. strip dynamic fields (dates, cookies, TLS randomness) from the banner data
   and remove all services on a host that share the same filtered content;
2. remove *every* service of any host that still serves more than ten
   services, which the paper reports identifies pseudo-service hosts with
   100 % recall and 99 % precision.

The second rule also removes the handful of genuinely service-dense hosts
(the 1 % precision loss); the :class:`FilterReport` keeps enough bookkeeping
to measure that trade-off against the synthetic ground truth in tests and the
Appendix B benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.internet.banners import BannerInterner
from repro.scanner.records import (
    ObservationBatch,
    ScanObservation,
    observations_by_host,
)

#: Banner fields that are expected to vary between otherwise identical
#: responses (the paper's "expected dynamic fields": HTTP Date, cookies, TLS
#: random bytes).  The synthetic banners do not emit these keys, but the filter
#: strips them anyway so that real-scan data with those fields present would be
#: handled identically.
DEFAULT_DYNAMIC_FIELDS = ("http_date", "http_cookie", "tls_random")


@dataclass
class FilterReport:
    """What the pseudo-service filter removed and why.

    Attributes:
        kept: observations that survived filtering.
        removed_duplicate_content: observations removed because every service
            on their host shared identical (dynamic-field-stripped) content.
        removed_dense_host: observations removed because their host served
            more than ``max_services_per_host`` services.
        flagged_hosts: addresses of hosts that had any observation removed.
    """

    kept: List[ScanObservation] = field(default_factory=list)
    removed_duplicate_content: List[ScanObservation] = field(default_factory=list)
    removed_dense_host: List[ScanObservation] = field(default_factory=list)
    flagged_hosts: Set[int] = field(default_factory=set)

    def removed_count(self) -> int:
        """Total number of observations removed."""
        return len(self.removed_duplicate_content) + len(self.removed_dense_host)


class PseudoServiceFilter:
    """Implements the Appendix B filtering procedure."""

    def __init__(self, max_services_per_host: int = 10,
                 dynamic_fields: Sequence[str] = DEFAULT_DYNAMIC_FIELDS,
                 min_duplicate_services: int = 5) -> None:
        """Create a filter.

        Args:
            max_services_per_host: hosts serving more than this many services
                have all their services removed (the paper uses 10).
            dynamic_fields: banner keys stripped before comparing content.
            min_duplicate_services: minimum number of identical-content
                services on a host before the duplicate-content rule fires;
                prevents a host that legitimately serves the same page on
                80 and 443 from being filtered.
        """
        if max_services_per_host < 1:
            raise ValueError("max_services_per_host must be >= 1")
        if min_duplicate_services < 2:
            raise ValueError("min_duplicate_services must be >= 2")
        self.max_services_per_host = max_services_per_host
        self.dynamic_fields = tuple(dynamic_fields)
        self.min_duplicate_services = min_duplicate_services
        # Stripped-content keys memoized per interned banner id (columnar
        # path): a banner's key is a pure function of its content, so it is
        # computed once per *distinct* banner instead of once per observation.
        self._content_keys: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        self._content_keys_interner: Optional[BannerInterner] = None

    # -- helpers ------------------------------------------------------------------

    def drops_host(self, services: int) -> bool:
        """Rule 2: whether a host with this many services is dropped whole."""
        return services > self.max_services_per_host

    def _stripped_content(self, observation: ScanObservation) -> Tuple[Tuple[str, str], ...]:
        """Banner content with dynamic fields removed, as a hashable key."""
        return tuple(sorted(
            (key, value) for key, value in observation.app_features.items()
            if key not in self.dynamic_fields
        ))

    # -- main entry point ------------------------------------------------------------

    def apply(self, observations: Iterable[ScanObservation]) -> FilterReport:
        """Filter a set of observations, returning a full report."""
        report = FilterReport()
        for ip, host_observations in observations_by_host(observations).items():
            # Rule 2 first: dense hosts are dropped wholesale.
            if self.drops_host(len(host_observations)):
                report.removed_dense_host.extend(host_observations)
                report.flagged_hosts.add(ip)
                continue

            # Rule 1: identical filtered content across many of the host's services.
            content_groups: Dict[Tuple[Tuple[str, str], ...], List[ScanObservation]] = {}
            for observation in host_observations:
                content_groups.setdefault(self._stripped_content(observation), []).append(observation)
            removed_here: Set[Tuple[int, int]] = set()
            for group in content_groups.values():
                if len(group) >= self.min_duplicate_services:
                    report.removed_duplicate_content.extend(group)
                    removed_here.update(obs.pair() for obs in group)
            if removed_here:
                report.flagged_hosts.add(ip)
            report.kept.extend(
                obs for obs in host_observations if obs.pair() not in removed_here
            )
        return report

    def filter(self, observations: Iterable[ScanObservation]) -> List[ScanObservation]:
        """Filter and return only the surviving observations."""
        return self.apply(observations).kept

    # -- columnar entry point ----------------------------------------------------------

    def _banner_content_keys(self, banners: BannerInterner) -> Dict[int, Tuple]:
        """The per-banner-id stripped-content memo, reset on interner change."""
        if self._content_keys_interner is not banners:
            self._content_keys = {}
            self._content_keys_interner = banners
        return self._content_keys

    def _kept_rows(self, batch: ObservationBatch) -> List[int]:
        """The row indices of a batch that survive both rules.

        The grouping is one sort-based pass over the flat columns: every ip
        is assigned its first-seen rank, all row indices sort once by
        ``(rank, port)`` (stable, so equal ports keep probe order), and
        hosts are the runs of equal ips in that order -- no per-host
        list-of-lists is ever built.  The rows therefore come back in host
        first-seen order with ports ascending within each host, exactly the
        order :meth:`apply` emits.
        """
        ips, ports = batch.ips, batch.ports
        banner_ids = batch.banner_ids
        rank: Dict[int, int] = {}
        for ip in ips:
            if ip not in rank:
                rank[ip] = len(rank)
        order = sorted(range(len(ips)),
                       key=lambda i: (rank[ips[i]], ports[i]))

        content_keys = self._banner_content_keys(batch.banners)
        content_keys_get = content_keys.get
        dynamic_fields = self.dynamic_fields
        banner_features = batch.banners.features
        local_banners = batch.local_banners
        kept: List[int] = []
        total = len(order)
        lo = 0
        while lo < total:
            # One run of equal ips == one host's rows, ports ascending.
            ip = ips[order[lo]]
            hi = lo + 1
            while hi < total and ips[order[hi]] == ip:
                hi += 1
            indices = order[lo:hi]
            lo = hi
            # Rule 2 first: dense hosts are dropped wholesale.
            if self.drops_host(len(indices)):
                continue
            # A host with fewer rows than the duplicate threshold cannot
            # form a removable content group; keep it without resolving any
            # content keys (the overwhelmingly common case in a prediction
            # scan, where most hosts contribute one or two targets).
            if len(indices) < self.min_duplicate_services:
                kept.extend(indices)
                continue
            # Rule 1: identical stripped content across many of the host's
            # services; keys resolve through the per-banner-id memo.
            groups: Dict[Tuple, List[int]] = {}
            for index in indices:
                banner_id = banner_ids[index]
                if banner_id >= 0:
                    key = content_keys_get(banner_id)
                    if key is None:
                        key = tuple(sorted(
                            item for item in banner_features(banner_id).items()
                            if item[0] not in dynamic_fields
                        ))
                        content_keys[banner_id] = key
                else:
                    # Batch-local banner (unique to one target): compute the
                    # key directly; memoizing it would outlive the batch.
                    key = tuple(sorted(
                        item
                        for item in local_banners[-banner_id - 1].items()
                        if item[0] not in dynamic_fields
                    ))
                group = groups.get(key)
                if group is None:
                    group = groups[key] = []
                group.append(index)
            removed: Set[int] = set()
            for group in groups.values():
                if len(group) >= self.min_duplicate_services:
                    removed.update(group)
            kept.extend(i for i in indices if i not in removed)
        return kept

    def filter_batch(self, batch: ObservationBatch) -> ObservationBatch:
        """Columnar :meth:`filter`: apply both rules to an observation batch.

        Returns the surviving rows as a batch (a ``batch.select`` of the
        kept rows, sharing the input's interner, status encoder and local
        banners) whose rows materialize to exactly
        ``self.filter(batch.materialize())`` -- same surviving observations
        in the same order.  The filtering runs
        on the batch's flat columns (one sort-based grouping pass, see
        :meth:`_kept_rows`) and the stripped-content key is computed
        once per *distinct* interned banner id (then memoized across
        batches) instead of once per observation; no
        :class:`~repro.scanner.records.ScanObservation` is built.

        Duplicate (ip, port) rows cannot disagree: the simulated universe is
        deterministic per target, so equal pairs always carry equal banner
        ids and land in the same content group -- index-wise removal is
        therefore identical to :meth:`apply`'s pair-wise removal.

        A batch whose addresses are all distinct (every single-port prefix
        sweep) comes back as it is: one row per host can neither exceed
        ``max_services_per_host`` (at least 1) nor form a content group of
        ``min_duplicate_services`` (at least 2), and the kept order is the
        input order.
        """
        if len(set(batch.ips)) == len(batch):
            return batch
        return batch.select(self._kept_rows(batch))


def filter_quality(report: FilterReport,
                   pseudo_hosts: Set[int]) -> Mapping[str, float]:
    """Recall/precision of the filter against ground-truth pseudo hosts.

    ``pseudo_hosts`` is the set of addresses the universe generator marked as
    pseudo-service hosts.  Recall is the fraction of those hosts the filter
    flagged; precision is the fraction of flagged hosts that really were
    pseudo hosts.  The paper reports 100 % recall and 99 % precision for the
    ">10 services" rule.
    """
    flagged = report.flagged_hosts
    if not flagged:
        return {"recall": 1.0 if not pseudo_hosts else 0.0, "precision": 1.0}
    flagged_pseudo = len(flagged & pseudo_hosts)
    recall = flagged_pseudo / len(pseudo_hosts) if pseudo_hosts else 1.0
    precision = flagged_pseudo / len(flagged)
    return {"recall": recall, "precision": precision}
