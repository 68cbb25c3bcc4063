"""Unit and property tests for repro.net.ipv4."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.ipv4 import (
    IPv4Error,
    format_ip,
    format_subnet,
    ip_in_prefix,
    iter_prefix,
    parse_ip,
    prefix_mask,
    prefix_of,
    prefix_size,
    random_ips,
    subnet_key,
    subnet_key_parts,
    summarize_prefixes,
)

addresses = st.integers(min_value=0, max_value=2**32 - 1)
prefix_lengths = st.integers(min_value=0, max_value=32)


class TestParseFormat:
    def test_parse_known_address(self):
        assert parse_ip("10.0.0.1") == (10 << 24) + 1

    def test_format_known_address(self):
        assert format_ip((192 << 24) + (168 << 16) + (1 << 8) + 5) == "192.168.1.5"

    def test_parse_rejects_short_address(self):
        with pytest.raises(IPv4Error):
            parse_ip("10.0.0")

    def test_parse_rejects_octet_out_of_range(self):
        with pytest.raises(IPv4Error):
            parse_ip("10.0.0.256")

    def test_parse_rejects_non_numeric(self):
        with pytest.raises(IPv4Error):
            parse_ip("10.0.0.x")

    @pytest.mark.parametrize("text", ["\u00b2.0.0.1", "\u0661.\u0662.\u0663.\u0664"])
    def test_parse_rejects_non_ascii_digits(self, text):
        with pytest.raises(IPv4Error):
            parse_ip(text)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(IPv4Error):
            format_ip(2**32)

    @given(addresses)
    def test_roundtrip(self, ip):
        assert parse_ip(format_ip(ip)) == ip


class TestPrefixes:
    def test_prefix_mask_values(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(16) == 0xFFFF0000
        assert prefix_mask(32) == 0xFFFFFFFF

    def test_prefix_mask_rejects_invalid(self):
        with pytest.raises(IPv4Error):
            prefix_mask(33)

    def test_prefix_of_truncates(self):
        assert prefix_of(parse_ip("10.1.2.3"), 16) == parse_ip("10.1.0.0")

    def test_prefix_size(self):
        assert prefix_size(24) == 256
        assert prefix_size(32) == 1
        assert prefix_size(0) == 2**32

    def test_ip_in_prefix(self):
        base = parse_ip("10.1.0.0")
        assert ip_in_prefix(parse_ip("10.1.200.7"), base, 16)
        assert not ip_in_prefix(parse_ip("10.2.0.1"), base, 16)

    def test_iter_prefix_small(self):
        ips = list(iter_prefix(parse_ip("10.0.0.8"), 30))
        assert ips == [parse_ip("10.0.0.8") + i for i in range(4)]

    @given(addresses, prefix_lengths)
    def test_prefix_of_is_idempotent(self, ip, length):
        base = prefix_of(ip, length)
        assert prefix_of(base, length) == base

    @given(addresses, prefix_lengths)
    def test_ip_always_in_its_own_prefix(self, ip, length):
        assert ip_in_prefix(ip, prefix_of(ip, length), length)


class TestSubnetKeys:
    @given(addresses, prefix_lengths)
    def test_subnet_key_roundtrip(self, ip, length):
        base, parsed_length = subnet_key_parts(subnet_key(ip, length))
        assert parsed_length == length
        assert base == prefix_of(ip, length)

    @given(addresses, addresses)
    def test_same_slash16_same_key(self, a, b):
        same_prefix = prefix_of(a, 16) == prefix_of(b, 16)
        assert (subnet_key(a, 16) == subnet_key(b, 16)) == same_prefix

    def test_keys_of_different_lengths_never_collide(self):
        ip = parse_ip("10.1.2.3")
        keys = {subnet_key(ip, length) for length in range(33)}
        assert len(keys) == 33

    def test_format_subnet(self):
        assert format_subnet(subnet_key(parse_ip("10.1.2.3"), 16)) == "10.1.0.0/16"


class TestSampling:
    def test_random_ips_distinct(self):
        rng = random.Random(0)
        ips = random_ips(100, rng)
        assert len(set(ips)) == 100

    def test_random_ips_from_universe(self):
        rng = random.Random(0)
        universe = list(range(1000, 1100))
        ips = random_ips(10, rng, universe=universe)
        assert all(ip in set(universe) for ip in ips)

    def test_random_ips_rejects_oversample(self):
        with pytest.raises(IPv4Error):
            random_ips(5, random.Random(0), universe=[1, 2, 3])

    def test_random_ips_rejects_negative(self):
        with pytest.raises(IPv4Error):
            random_ips(-1, random.Random(0))

    def test_summarize_prefixes_counts(self):
        ips = [parse_ip("10.0.0.1"), parse_ip("10.0.0.2"), parse_ip("10.1.0.1")]
        counts = summarize_prefixes(ips, 16)
        assert counts[subnet_key(parse_ip("10.0.0.0"), 16)] == 2
        assert counts[subnet_key(parse_ip("10.1.0.0"), 16)] == 1
