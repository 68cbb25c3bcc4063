"""Unit tests for repro.net.asn."""

from __future__ import annotations

import pytest

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


class TestUniverseAsnDatabase:
    def test_every_host_is_announced(self, universe):
        db = universe.topology.asn_db
        sample = universe.all_ips()[:200]
        assert all(db.asn_of(ip) != 0 for ip in sample)

    def test_host_asn_matches_database(self, universe):
        db = universe.topology.asn_db
        for ip in universe.all_ips()[:200]:
            assert universe.hosts[ip].asn == db.asn_of(ip)
