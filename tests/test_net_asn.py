"""Unit tests for repro.net.asn."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.asn import AsnDatabase, AsnRecord
from repro.net.ipv4 import IPv4Error, parse_ip


def _record(cidr_base: str, length: int, asn: int, name: str = "") -> AsnRecord:
    return AsnRecord(base=parse_ip(cidr_base), prefix_len=length, asn=asn, name=name)


class TestAsnRecord:
    def test_contains(self):
        record = _record("10.1.0.0", 16, 65001)
        assert record.contains(parse_ip("10.1.255.255"))
        assert not record.contains(parse_ip("10.2.0.0"))

    def test_cidr_rendering(self):
        assert _record("10.1.0.0", 16, 65001).cidr() == "10.1.0.0/16"


class TestAsnDatabase:
    def test_lookup_and_asn_of(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001, "One"),
                          _record("10.2.0.0", 16, 65002, "Two")])
        assert db.asn_of(parse_ip("10.1.4.5")) == 65001
        assert db.asn_of(parse_ip("10.2.4.5")) == 65002

    def test_unannounced_address_returns_default(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001)])
        assert db.asn_of(parse_ip("192.168.0.1")) == 0
        assert db.asn_of(parse_ip("192.168.0.1"), default=-1) == -1

    def test_longest_prefix_match_wins(self):
        db = AsnDatabase([
            _record("10.0.0.0", 8, 65000, "Coarse"),
            _record("10.1.0.0", 16, 65001, "Fine"),
        ])
        assert db.asn_of(parse_ip("10.1.2.3")) == 65001
        assert db.asn_of(parse_ip("10.200.2.3")) == 65000
        # Lengths added after a lookup take part in the next one, in order.
        db.add(_record("10.1.2.0", 24, 65002, "Finer"))
        assert db.asn_of(parse_ip("10.1.2.3")) == 65002
        db.add(_record("10.0.0.0", 12, 65003, "Middle"))
        assert db.asn_of(parse_ip("10.1.2.3")) == 65002
        assert db.asn_of(parse_ip("10.1.3.3")) == 65001
        assert db.asn_of(parse_ip("10.5.0.1")) == 65003
        assert db.asn_of(parse_ip("10.200.2.3")) == 65000
        assert [r.prefix_len for r in db.records()] == [24, 16, 12, 8]

    def test_duplicate_announcement_rejected(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001)])
        with pytest.raises(ValueError):
            db.add(_record("10.1.0.0", 16, 65099))

    def test_invalid_prefix_length_rejected(self):
        db = AsnDatabase()
        with pytest.raises(IPv4Error):
            db.add(AsnRecord(base=0, prefix_len=40, asn=1))

    def test_name_lookup(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001, "Distributel Network")])
        assert db.name_of(65001) == "Distributel Network"
        assert db.name_of(12345) == ""

    def test_records_and_len(self):
        db = AsnDatabase([_record("10.1.0.0", 16, 65001),
                          _record("10.0.0.0", 8, 65000)])
        assert len(db) == 2
        lengths = [record.prefix_len for record in db.records()]
        assert lengths == sorted(lengths, reverse=True)


#: Nested announcements of several lengths (10/8 > 10.0/16 > 10.0.0/24 >
#: 10.0.0.128/25, and 10.1.128/17 > 10.1.128/20) plus a lone /32.
NESTED = [("10.0.0.0", 8, 1), ("10.0.0.0", 16, 2), ("10.0.0.0", 24, 3),
          ("10.0.0.128", 25, 4), ("10.1.128.0", 17, 5), ("10.1.128.0", 20, 6),
          ("192.0.2.7", 32, 7)]
#: Every announcement's first and last address, their outside neighbours
#: and a few addresses no announcement covers.
EDGES = sorted({address
                for base, length, _ in NESTED
                for first in [parse_ip(base)]
                for address in (first - 1, first, first + 2 ** (32 - length) - 1,
                                first + 2 ** (32 - length))}
               | {0, parse_ip("11.0.0.1"), parse_ip("192.168.0.1"), 2 ** 32 - 1})


class TestAsnOfMany:
    """``asn_of_many`` is ``asn_of`` over an array, element for element."""

    @staticmethod
    def _nested():
        return AsnDatabase([_record(base, length, asn)
                            for base, length, asn in NESTED])

    @staticmethod
    def _agrees(db, ips):
        assert db.asn_of_many(np.array(ips, dtype=np.int64)).tolist() == \
            [db.asn_of(ip) for ip in ips]

    def test_nested_edges(self):
        self._agrees(self._nested(), EDGES)

    @settings(max_examples=200, deadline=None)
    @given(ips=st.lists(st.one_of(st.sampled_from(EDGES),
                                  st.integers(0x0A000000, 0x0A01FFFF),
                                  st.integers(0, 2 ** 32 - 1)), max_size=40))
    def test_nested_any_addresses(self, ips):
        self._agrees(self._nested(), ips)

    def test_empty_database_and_empty_input(self):
        assert AsnDatabase().asn_of_many(np.array(EDGES)).tolist() == [0] * len(EDGES)
        assert self._nested().asn_of_many(np.array([], dtype=np.int64)).tolist() == []

    def test_add_after_a_lookup_takes_part_in_the_next(self):
        db = AsnDatabase([_record("10.0.0.0", 8, 1)])
        self._agrees(db, EDGES)
        for base, length, asn in NESTED[1:]:
            db.add(_record(base, length, asn))
            self._agrees(db, EDGES)
        assert db.asn_of_many(np.array([parse_ip("10.0.0.200")])).tolist() == [4]


class TestUniverseAsnDatabase:
    def test_every_host_is_announced(self, universe):
        db = universe.topology.asn_db
        sample = universe.all_ips()[:200]
        assert all(db.asn_of(ip) != 0 for ip in sample)

    def test_host_asn_matches_database(self, universe):
        db = universe.topology.asn_db
        for ip in universe.all_ips()[:200]:
            assert universe.hosts[ip].asn == db.asn_of(ip)
