"""A miniature autonomous-system (ASN) database.

GPS extracts an IP address's ASN as a network-layer feature by "joining on a
database that provides the feature" (paper Section 5.5).  The reproduction's
synthetic Internet allocates prefixes to autonomous systems when the universe
is generated; this module stores that allocation and answers longest-prefix
match lookups, exactly like a routing-table-derived IP-to-ASN dataset would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net.ipv4 import IPv4Error, format_ip, prefix_mask, prefix_of


@dataclass(frozen=True)
class AsnRecord:
    """One announced prefix.

    Attributes:
        base: integer base address of the announced prefix.
        prefix_len: prefix length of the announcement.
        asn: autonomous system number originating the prefix.
        name: organisation name (e.g. ``"Distributel Network"``); the paper's
            Section 6.6 examples talk about feature values like
            ``(ASN 1181, telnet banner)``.
    """

    base: int
    prefix_len: int
    asn: int
    name: str = ""

    def contains(self, ip: int) -> bool:
        """Return whether ``ip`` falls inside this announcement."""
        return prefix_of(ip, self.prefix_len) == prefix_of(self.base, self.prefix_len)

    def cidr(self) -> str:
        """Render the announcement in CIDR notation."""
        return f"{format_ip(self.base)}/{self.prefix_len}"


class AsnDatabase:
    """Longest-prefix-match IP-to-ASN lookups.

    Announcements are indexed by prefix length so a lookup walks from the most
    specific (/32) to the least specific (/0) length present, returning the
    first match -- the standard longest-prefix-match semantics of BGP routing
    tables.  The lengths present are kept sorted, most specific first, as
    announcements are added.  :meth:`asn_of_many` answers the same lookup
    for an address array over sorted per-length arrays, built on first use
    and dropped by :meth:`add`.
    """

    def __init__(self, records: Iterable[AsnRecord] = ()) -> None:
        self._by_len: Dict[int, Dict[int, AsnRecord]] = {}
        self._lengths: List[int] = []
        self._names: Dict[int, str] = {}
        self._arrays: Optional[List[Tuple[int, np.ndarray, np.ndarray]]] = None
        for record in records:
            self.add(record)

    def add(self, record: AsnRecord) -> None:
        """Register an announcement.

        Duplicate announcements of the same prefix are rejected: the synthetic
        topology generator never produces overlapping same-length allocations,
        so a collision indicates a bug upstream.
        """
        if not 0 <= record.prefix_len <= 32:
            raise IPv4Error(f"prefix length out of range: {record.prefix_len}")
        bucket = self._by_len.get(record.prefix_len)
        if bucket is None:
            bucket = self._by_len[record.prefix_len] = {}
            self._lengths = sorted(self._by_len, reverse=True)
        key = prefix_of(record.base, record.prefix_len)
        if key in bucket:
            raise ValueError(f"duplicate announcement for {record.cidr()}")
        bucket[key] = record
        self._arrays = None
        if record.name:
            self._names.setdefault(record.asn, record.name)

    def lookup(self, ip: int) -> Optional[AsnRecord]:
        """Return the most specific announcement containing ``ip``, if any."""
        for prefix_len in self._lengths:
            key = prefix_of(ip, prefix_len)
            record = self._by_len[prefix_len].get(key)
            if record is not None:
                return record
        return None

    def asn_of(self, ip: int, default: int = 0) -> int:
        """Return the ASN originating ``ip`` or ``default`` when unannounced.

        GPS uses ``0`` as the "unknown ASN" sentinel; services in unannounced
        space still participate in the model through their subnet feature.
        """
        record = self.lookup(ip)
        return record.asn if record is not None else default

    def asn_of_many(self, ips: np.ndarray) -> np.ndarray:
        """:meth:`asn_of` of every address in an int array (0 when unannounced).

        Each prefix length present holds its announcements' prefix keys
        sorted, with their ASNs alongside.  The masked addresses are
        ``searchsorted`` into each length, most specific first, and an
        address keeps the first length that holds its prefix.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = []
            for prefix_len in self._lengths:
                bucket = self._by_len[prefix_len]
                keys = np.array(sorted(bucket), dtype=np.int64)
                asns = np.array([bucket[key].asn for key in keys.tolist()],
                                dtype=np.int64)
                arrays.append((prefix_mask(prefix_len), keys, asns))
            self._arrays = arrays
        ips = np.asarray(ips, dtype=np.int64)
        out = np.zeros(len(ips), dtype=np.int64)
        unresolved = np.arange(len(ips))
        for mask, keys, asns in arrays:
            if not len(unresolved):
                break
            wanted = ips[unresolved] & mask
            at = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
            hit = keys[at] == wanted
            out[unresolved[hit]] = asns[at[hit]]
            unresolved = unresolved[~hit]
        return out

    def name_of(self, asn: int) -> str:
        """Return the organisation name registered for an ASN (or ``""``)."""
        return self._names.get(asn, "")

    def records(self) -> List[AsnRecord]:
        """All announcements, most specific first (for inspection/tests)."""
        out: List[AsnRecord] = []
        for prefix_len in self._lengths:
            out.extend(self._by_len[prefix_len].values())
        return out

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._by_len.values())
