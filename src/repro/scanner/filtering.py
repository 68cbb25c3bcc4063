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

import numpy as np

from repro.engine.columns import to_numpy
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

    def _kept_rows(self, batch: ObservationBatch) -> np.ndarray:
        """The row indices of a batch that survive both rules.

        The grouping is array passes over the flat columns: every ip gets
        its first-seen rank, one stable ``lexsort`` orders the rows by
        ``(rank, port)`` (equal ports keep probe order), and hosts are the
        runs of equal ranks in that order -- no per-host list is built.  The
        rows therefore come back in host first-seen order with ports
        ascending within each host, exactly the order :meth:`apply` emits.
        Dense hosts drop and hosts below the duplicate threshold stay
        without a look at their banners; only the hosts in between group
        their rows by stripped content, in a Python loop.
        """
        ips, ports = to_numpy(batch.ips), to_numpy(batch.ports)
        hosts, first, host_of_row = np.unique(ips, return_index=True,
                                              return_inverse=True)
        rank = np.empty(len(hosts), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(hosts))
        order = np.lexsort((ports, rank[host_of_row]))
        sizes = np.bincount(host_of_row, minlength=len(hosts))[host_of_row[order]]
        dense = self.drops_host(sizes)
        keep = ~dense & (sizes < self.min_duplicate_services)
        grouped = np.flatnonzero(~dense & ~keep)
        if len(grouped):
            # Whole hosts come through, so a run starts where the host does.
            hosts_grouped = host_of_row[order][grouped]
            bounds = np.append(np.flatnonzero(np.diff(hosts_grouped, prepend=-1)),
                               len(grouped)).tolist()
            banner_ids = to_numpy(batch.banner_ids)
            for lo, hi in zip(bounds, bounds[1:]):
                positions = grouped[lo:hi]
                removed = self._duplicate_content(
                    batch, banner_ids[order[positions]].tolist())
                keep[positions] = ~removed
        return order[keep]

    def _duplicate_content(self, batch: ObservationBatch,
                           banner_ids: List[int]) -> np.ndarray:
        """Rule 1 over one host's rows: which rows share stripped content
        with at least ``min_duplicate_services - 1`` others.  Keys resolve
        through the per-banner-id memo."""
        content_keys = self._banner_content_keys(batch.banners)
        dynamic_fields = self.dynamic_fields
        groups: Dict[Tuple, List[int]] = {}
        for row, banner_id in enumerate(banner_ids):
            if banner_id >= 0:
                key = content_keys.get(banner_id)
                if key is None:
                    key = content_keys[banner_id] = tuple(sorted(
                        item for item in batch.banners.features(banner_id).items()
                        if item[0] not in dynamic_fields))
            else:
                # Batch-local banner (unique to one target): compute the
                # key directly; memoizing it would outlive the batch.
                key = tuple(sorted(
                    item for item in batch.local_banners[-banner_id - 1].items()
                    if item[0] not in dynamic_fields))
            groups.setdefault(key, []).append(row)
        removed = np.zeros(len(banner_ids), dtype=bool)
        for group in groups.values():
            if len(group) >= self.min_duplicate_services:
                removed[group] = True
        return removed

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
