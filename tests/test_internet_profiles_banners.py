"""Unit tests for the device catalogue and banner synthesis."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.internet.banners import APP_FEATURE_KEYS, BannerFactory
from repro.internet.profiles import (
    DeviceProfile,
    PortBundle,
    default_profiles,
    profiles_by_name,
)


class TestPortBundle:
    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            PortBundle(port=0, protocol="http")

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            PortBundle(port=80, protocol="http", probability=1.5)


class TestDeviceProfile:
    def test_profile_requires_bundles(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", vendor="v", device_class="iot", bundles=())

    def test_profile_rejects_bad_concentration(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", vendor="v", device_class="iot",
                          bundles=(PortBundle(80, "http"),),
                          network_concentration=2.0)

    def test_profile_rejects_non_positive_weight(self):
        with pytest.raises(ValueError):
            DeviceProfile(name="x", vendor="v", device_class="iot",
                          bundles=(PortBundle(80, "http"),), weight=0.0)

    def test_ports_helper(self):
        profile = DeviceProfile(name="x", vendor="v", device_class="iot",
                                bundles=(PortBundle(80, "http"), PortBundle(22, "ssh")))
        assert profile.ports() == [80, 22]


class TestDefaultCatalogue:
    def test_names_are_unique(self):
        profiles = default_profiles()
        assert len({p.name for p in profiles}) == len(profiles)

    def test_profiles_by_name_indexes_catalogue(self):
        index = profiles_by_name()
        assert "home_router_av" in index
        assert index["isp_freebox"].network_concentration == 1.0

    def test_profiles_by_name_rejects_duplicates(self):
        profile = default_profiles()[0]
        with pytest.raises(ValueError):
            profiles_by_name([profile, profile])

    def test_catalogue_includes_paper_motivated_devices(self):
        index = profiles_by_name()
        # Freebox-style single-network device and the 23->8082 telnet example.
        assert index["isp_freebox"].preferred_as_count == 1
        telnet_ports = index["telnet_modem_2323"].ports()
        assert 23 in telnet_ports and 8082 in telnet_ports

    def test_catalogue_has_long_tail_sources(self):
        profiles = default_profiles()
        assert any(b.as_specific for p in profiles for b in p.bundles)
        assert any(b.random_port for p in profiles for b in p.bundles)


class TestBannerFactory:
    @pytest.fixture()
    def factory(self):
        return BannerFactory()

    @pytest.fixture()
    def profile(self):
        return profiles_by_name()["web_hosting"]

    def test_rejects_invalid_unique_fraction(self):
        with pytest.raises(ValueError):
            BannerFactory(unique_body_fraction=1.5)

    def test_features_include_protocol(self, factory, profile):
        features = factory.features_for(profile, "http", 0, ip=1234)
        assert features["protocol"] == "http"

    def test_http_features_present(self, factory, profile):
        features = factory.features_for(profile, "http", 0, ip=1234)
        assert {"http_html_title", "http_server", "http_header"} <= set(features)

    def test_https_includes_tls_and_http(self, factory, profile):
        features = factory.features_for(profile, "https", 0, ip=1234)
        assert "tls_cert_org" in features and "http_server" in features

    def test_fleet_level_values_shared_across_hosts(self, factory, profile):
        a = factory.features_for(profile, "http", 0, ip=1)
        b = factory.features_for(profile, "http", 0, ip=2)
        assert a["http_server"] == b["http_server"]
        assert a["http_html_title"] == b["http_html_title"]

    def test_host_level_values_differ_across_hosts(self, factory, profile):
        a = factory.features_for(profile, "ssh", 0, ip=1)
        b = factory.features_for(profile, "ssh", 0, ip=2)
        assert a["ssh_host_key"] != b["ssh_host_key"]
        assert a["ssh_banner"] == b["ssh_banner"]

    def test_tls_cert_hash_unique_per_host(self, factory, profile):
        a = factory.features_for(profile, "https", 0, ip=1)
        b = factory.features_for(profile, "https", 0, ip=2)
        assert a["tls_cert_hash"] != b["tls_cert_hash"]
        assert a["tls_cert_org"] == b["tls_cert_org"]

    def test_variants_produce_different_content(self, factory, profile):
        a = factory.features_for(profile, "http", 0, ip=1)
        b = factory.features_for(profile, "http", 1, ip=1)
        assert a["http_html_title"] != b["http_html_title"]

    def test_only_known_feature_keys_emitted(self, factory, profile):
        for protocol in ("http", "https", "ssh", "telnet", "cwmp", "vnc", "ftp",
                         "smtp", "imap", "pop3", "pptp", "mysql", "memcached",
                         "mssql", "ipmi", "rtsp", "dns", "unknown-proto"):
            features = factory.features_for(profile, protocol, 0, ip=9)
            assert set(features) <= set(APP_FEATURE_KEYS)

    def test_determinism(self, factory, profile):
        assert (factory.features_for(profile, "https", 1, ip=77)
                == factory.features_for(profile, "https", 1, ip=77))

    def test_pseudo_static_shares_body_across_hosts(self, factory):
        a = factory.pseudo_service_features(1, incident_style=False, port=80)
        b = factory.pseudo_service_features(2, incident_style=False, port=8080)
        assert a["http_body_hash"] == b["http_body_hash"]

    def test_pseudo_incident_varies_per_port(self, factory):
        a = factory.pseudo_service_features(1, incident_style=True, port=80)
        b = factory.pseudo_service_features(1, incident_style=True, port=81)
        assert a["http_body_hash"] != b["http_body_hash"]


class TestFleetBannerSharing:
    """Fleet banners are built once and shared; per-host ones are not."""

    #: Recipes with no per-host value (the HTTP page only when no host
    #: falls in the unique-body bucket).
    FLEET = ("http", "http-proxy", "telnet", "cwmp", "vnc", "ftp", "smtp",
             "imap", "pop3", "pptp", "mysql", "rtsp", "dns", "unknown-proto")
    PER_HOST = ("https", "smtps", "imaps", "pop3s", "ssh")

    @pytest.fixture()
    def profile(self):
        return profiles_by_name()["web_hosting"]

    @pytest.mark.parametrize("protocol", FLEET)
    def test_fleet_recipe_is_one_object(self, profile, protocol):
        factory = BannerFactory(unique_body_fraction=0.0)
        first = factory.features_for(profile, protocol, 1, ip=1)
        assert factory.features_for(profile, protocol, 1, ip=2) is first
        assert factory.features_for(profile, protocol, 1, ip=1) is first
        assert factory.features_for(profile, protocol, 0, ip=1) is not first

    @pytest.mark.parametrize("protocol, key", [
        ("https", "tls_cert_hash"), ("smtps", "tls_cert_hash"),
        ("ssh", "ssh_host_key"), ("http", "http_body_hash"),
        ("elasticsearch", "http_body_hash"),
    ])
    def test_per_host_recipes_differ_per_address(self, profile, protocol, key):
        factory = BannerFactory(unique_body_fraction=1.0)
        a = factory.features_for(profile, protocol, 0, ip=1)
        b = factory.features_for(profile, protocol, 0, ip=2)
        assert a is not b
        assert a[key] != b[key]
        assert factory.features_for(profile, protocol, 0, ip=1) == a

    def test_unique_body_bucket_splits_one_factory(self, profile):
        # With the default fraction a minority of addresses get their own
        # page; every other address shares the one fleet page.
        factory = BannerFactory()
        pages = [factory.features_for(profile, "http", 0, ip=ip)
                 for ip in range(1, 201)]
        counts = Counter(id(page) for page in pages)
        [(fleet, shared)] = [(key, n) for key, n in counts.items() if n > 1]
        assert 0 < len(pages) - shared < shared
        unique = {page["http_body_hash"] for page in pages if id(page) != fleet}
        assert len(unique) == len(pages) - shared

    @pytest.mark.parametrize("protocol", FLEET + PER_HOST)
    def test_returned_mappings_are_read_only(self, profile, protocol):
        features = BannerFactory().features_for(profile, protocol, 0, ip=5)
        with pytest.raises(TypeError):
            features["protocol"] = "tampered"
        with pytest.raises(TypeError):
            del features["protocol"]
        assert features["protocol"] == protocol

    def test_same_name_profiles_keep_their_own_banners(self, profile):
        twin = replace(profile, vendor="OtherVendor")
        factory = BannerFactory(unique_body_fraction=0.0)
        ours = factory.features_for(profile, "http", 0, ip=1)
        theirs = factory.features_for(twin, "http", 0, ip=1)
        assert ours is not theirs
        assert ours["http_server"].startswith(profile.vendor)
        assert theirs["http_server"].startswith("OtherVendor")
        assert factory.features_for(profile, "http", 0, ip=2) is ours
        assert factory.features_for(twin, "http", 0, ip=2) is theirs

    @pytest.mark.parametrize("protocol", FLEET + PER_HOST)
    def test_new_factory_returns_equal_content(self, profile, protocol):
        first = BannerFactory().features_for(profile, protocol, 1, ip=77)
        second = BannerFactory().features_for(profile, protocol, 1, ip=77)
        assert first is not second
        assert dict(first) == dict(second)

    def test_universe_services_share_fleet_mappings(self, universe):
        records = list(universe.real_services())
        carriers = {id(record.app_features) for record in records}
        assert len(carriers) < len(records)
        # Each carrier is interned once, by identity, under its own content.
        assert len(universe.banners) <= len(carriers)
        for record in records[:200]:
            with pytest.raises(TypeError):
                record.app_features["protocol"] = "tampered"
