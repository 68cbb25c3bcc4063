"""Integer-based IPv4 address and prefix arithmetic.

Every address in this reproduction is an ``int`` in ``[0, 2**32)``.  The GPS
pipeline touches millions of (address, port) pairs, so the representation must
be hashable, compact and friendly to numpy vectorization.  The helpers in this
module are deliberately tiny and allocation-free; they are the innermost loop
of the scanner simulation and of GPS feature extraction.

Terminology follows the paper:

* a *prefix* (or *subnetwork*) of length ``L`` is written ``a.b.c.d/L``;
* the *scanning step size* is a prefix length (e.g. ``/16``) used when GPS
  exhaustively scans the neighbourhood of a seed service (Section 5.3);
* ``subnet_key(ip, L)`` is the canonical integer identifying the ``/L``
  subnetwork an address belongs to.  GPS uses it as its network-layer feature
  value (Table 1 uses the /16 subnetwork and the ASN).
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Sequence

MAX_IPV4 = 2**32 - 1


class IPv4Error(ValueError):
    """Raised when an address or prefix is malformed."""


def parse_ip(text: str) -> int:
    """Parse dotted-quad notation into an integer address.

    >>> parse_ip("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise IPv4Error(f"malformed IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise IPv4Error(f"malformed IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise IPv4Error(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_ip(ip: int) -> str:
    """Format an integer address as dotted-quad notation.

    >>> format_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= ip <= MAX_IPV4:
        raise IPv4Error(f"address out of range: {ip}")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix_mask(prefix_len: int) -> int:
    """Return the netmask (as an int) for a prefix length.

    >>> hex(prefix_mask(16))
    '0xffff0000'
    """
    if not 0 <= prefix_len <= 32:
        raise IPv4Error(f"prefix length out of range: {prefix_len}")
    if prefix_len == 0:
        return 0
    return (MAX_IPV4 << (32 - prefix_len)) & MAX_IPV4


def prefix_of(ip: int, prefix_len: int) -> int:
    """Return the base address of the ``/prefix_len`` prefix containing ``ip``."""
    return ip & prefix_mask(prefix_len)


def subnet_key(ip: int, prefix_len: int) -> int:
    """Return a canonical integer key identifying the subnet of ``ip``.

    The key encodes both the prefix base address and the prefix length so that
    keys from different step sizes never collide:
    ``key = (base << 6) | prefix_len``.
    """
    return (prefix_of(ip, prefix_len) << 6) | prefix_len


def subnet_key_parts(key: int) -> tuple[int, int]:
    """Invert :func:`subnet_key`, returning ``(base_address, prefix_len)``."""
    return key >> 6, key & 0x3F


def format_subnet(key: int) -> str:
    """Render a subnet key in CIDR notation (e.g. ``"10.1.0.0/16"``)."""
    base, length = subnet_key_parts(key)
    return f"{format_ip(base)}/{length}"


def prefix_size(prefix_len: int) -> int:
    """Number of addresses contained in a prefix of the given length."""
    if not 0 <= prefix_len <= 32:
        raise IPv4Error(f"prefix length out of range: {prefix_len}")
    return 1 << (32 - prefix_len)


def ip_in_prefix(ip: int, base: int, prefix_len: int) -> bool:
    """Return whether ``ip`` falls inside ``base/prefix_len``."""
    return prefix_of(ip, prefix_len) == prefix_of(base, prefix_len)


def iter_prefix(base: int, prefix_len: int) -> Iterator[int]:
    """Iterate every address of ``base/prefix_len`` in ascending order.

    Useful for exhaustive scans of small prefixes in tests; production code
    paths intersect prefixes with known-host indices instead of enumerating.
    """
    start = prefix_of(base, prefix_len)
    return iter(range(start, start + prefix_size(prefix_len)))


def random_ips(count: int, rng: random.Random, universe: Sequence[int] | None = None) -> List[int]:
    """Draw ``count`` distinct random addresses.

    When ``universe`` is given the sample is drawn from it (the synthetic
    Internet's address pool); otherwise addresses are drawn uniformly from the
    full 32-bit space, mirroring ZMap's address-space randomization.
    """
    if count < 0:
        raise IPv4Error(f"negative sample size: {count}")
    if universe is not None:
        if count > len(universe):
            raise IPv4Error(
                f"cannot sample {count} addresses from a universe of {len(universe)}"
            )
        return rng.sample(list(universe), count)
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(rng.randrange(0, MAX_IPV4 + 1))
    return list(seen)


def summarize_prefixes(ips: Iterable[int], prefix_len: int) -> dict[int, int]:
    """Group addresses by their ``/prefix_len`` prefix.

    Returns a mapping of subnet key -> number of addresses observed in that
    subnet.  GPS's priors-scan planner uses this to count how many seed
    services each (port, subnetwork) tuple can cover.
    """
    counts: dict[int, int] = {}
    for ip in ips:
        key = subnet_key(ip, prefix_len)
        counts[key] = counts.get(key, 0) + 1
    return counts
