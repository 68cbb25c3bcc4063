"""Golden digests: the generated universe itself, pinned.

``tests/test_golden_digests.py`` pins what GPS finds; this file pins what
it searches.  Per seed, one sha256 covers, on the small scale:

* the packed service index: ``keys``, ``banner_ids``, ``ttls`` and
  ``protocol_codes``;
* the banner interner's contents in id order, each banner as its sorted
  items (so a banner id that moves, or a first-seen order that changes,
  fails here);
* every host in dict order: its address, AS, profile, TTL, pseudo range,
  incident style, middlebox flag and each service record in dict order
  (port, protocol, banner items as stored, TTL).

Any moved RNG draw changes the hosts, and any change to banner synthesis
changes the interner, so a change of generation that should be invisible
must leave these values alone.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.scenarios import SMALL_SCALE, make_universe

GOLDEN = {
    1: ("1d996f783b8ca99042069e4b2b6e05a0"
        "8186a5ee7c583f8746576f6df7ca52de"),
    7: ("0eec1ee9e6aae71ae6f15da5f3781090"
        "b2902e95bfcda7106773e797310dc1f1"),
}


def universe_digest(universe) -> str:
    """sha256 over the service index, the interner and every host record."""
    digest = hashlib.sha256()
    index = universe.service_index
    for column in (index.keys, index.banner_ids, index.ttls,
                   index.protocol_codes):
        digest.update(repr(column.tolist()).encode())
    digest.update(repr(index.protocols).encode())
    banners = universe.banners
    digest.update(repr([sorted(banners.features(banner_id).items())
                        for banner_id in range(len(banners))]).encode())
    for ip, host in universe.hosts.items():
        digest.update(repr((
            ip, host.asn, host.profile_name, host.base_ttl,
            host.pseudo_port_range, host.pseudo_incident_style,
            host.is_middlebox,
            [(port, record.ip, record.protocol,
              tuple(record.app_features.items()), record.ttl)
             for port, record in host.services.items()],
        )).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_universe(seed):
    assert universe_digest(make_universe(SMALL_SCALE, seed=seed)) == GOLDEN[seed]
