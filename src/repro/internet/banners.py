"""Application-layer banner synthesis.

Table 1 of the paper lists the 25 features GPS extracts; 23 of them are
application-layer values pulled from protocol banners (TLS certificate fields,
HTTP titles and server headers, SSH banners and host keys, ...).  The
:class:`BannerFactory` synthesises those values for services in the synthetic
universe with two properties that matter for reproducing the paper:

1. **Fleet-level values are shared.**  All hosts of a given device profile emit
   the same HTTP ``Server`` header, TLS organisation, telnet banner, etc.  This
   is what makes application-layer features predictive: seeing the banner on
   one port identifies the device family and therefore its other ports.
2. **Host-level values are unique.**  TLS certificate hashes, SSH host keys and
   HTTP body hashes get per-host entropy, mirroring the dimensionality spread
   of Table 1 (certificate hashes have tens of millions of unique values while
   CWMP headers have ten).  Per-host values are *not* useful for generalising
   across hosts, and GPS's probability cut-off is what keeps them from
   polluting the model -- a behaviour the tests exercise explicitly.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.engine.encoding import DictionaryEncoder
from repro.internet.profiles import DeviceProfile

#: Canonical application-layer feature keys (Table 1), keyed the way the
#: feature-extraction code expects them.
APP_FEATURE_KEYS = (
    "protocol",
    "tls_cert_hash",
    "tls_cert_org",
    "tls_cert_subject",
    "http_html_title",
    "http_body_hash",
    "http_server",
    "http_header",
    "ssh_host_key",
    "ssh_banner",
    "vnc_desktop_name",
    "smtp_banner",
    "ftp_banner",
    "imap_banner",
    "pop3_banner",
    "cwmp_header",
    "cwmp_body_hash",
    "telnet_banner",
    "pptp_vendor",
    "mysql_version",
    "memcached_version",
    "mssql_version",
    "ipmi_banner",
)


def _digest(*parts: object) -> str:
    """Stable short hex digest of the given parts (used for hashes/keys)."""
    joined = "|".join(map(str, parts))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


#: Body hash of the static pseudo-service page, shared by every such target.
_PSEUDO_STATIC_BODY_HASH = _digest("pseudo-static")


#: Protocols whose banner carries a per-host value (a TLS certificate hash or
#: an SSH host key), so it is built anew for every address.
_PER_HOST_PROTOCOLS = frozenset(("https", "smtps", "imaps", "pop3s", "ssh"))

#: Protocols answered with an HTTP page, whose body hash is per-host for the
#: unique-body bucket of addresses.
_HTTP_PROTOCOLS = frozenset(("http", "http-proxy", "elasticsearch"))


class BannerFactory:
    """Builds application-layer feature mappings for synthetic services.

    Feature values are pure functions of the device profile, protocol, banner
    variant and (for host-unique values) the host address, so regenerating a
    universe from the same seed yields identical banners.  Every mapping is
    read-only.  A banner that does not depend on the address is built once
    per (profile, protocol, variant) and cached on the factory, so every
    service of that fleet carries the same mapping object; the cache is keyed
    by the profile object's identity and pins the profile, so two profiles
    that share a name keep their own banners.
    """

    def __init__(self, unique_body_fraction: float = 0.15) -> None:
        """Create a factory.

        Args:
            unique_body_fraction: fraction of hosts whose HTTP body hash is
                host-unique rather than fleet-shared.  Real fleets mix static
                firmware pages (shared hash) with pages embedding host-specific
                data (unique hash); the mix controls how much of the HTTP body
                feature is usable for prediction.
        """
        if not 0.0 <= unique_body_fraction <= 1.0:
            raise ValueError(
                f"unique_body_fraction out of range: {unique_body_fraction}"
            )
        self.unique_body_fraction = unique_body_fraction
        # (id(profile), protocol, variant) -> (profile, shared mapping).
        self._fleet: Dict[Tuple[int, str, int],
                          Tuple[DeviceProfile, Mapping[str, str]]] = {}

    # -- protocol-specific helpers ------------------------------------------------

    def _unique_body(self, ip: int) -> bool:
        """Whether the host at ``ip`` embeds host-specific content in its pages."""
        return (ip * 2654435761) % 1000 / 1000.0 < self.unique_body_fraction

    def _http_features(self, profile: DeviceProfile, variant: int, ip: int) -> Dict[str, str]:
        title = f"{profile.vendor} {profile.device_class} v{variant}"
        server = f"{profile.vendor}-httpd/{1 + variant}.{len(profile.name) % 10}"
        header = f"X-Powered-By: {profile.os_name}"
        if self._unique_body(ip):
            body_hash = _digest("body", profile.name, variant, ip)
        else:
            body_hash = _digest("body", profile.name, variant)
        return {
            "http_html_title": title,
            "http_body_hash": body_hash,
            "http_server": server,
            "http_header": header,
        }

    def _tls_features(self, profile: DeviceProfile, variant: int, ip: int) -> Dict[str, str]:
        org = f"{profile.vendor} Inc."
        subject = f"CN={profile.name}.device.example"
        cert_hash = _digest("cert", profile.name, variant, ip)
        return {
            "tls_cert_hash": cert_hash,
            "tls_cert_org": org,
            "tls_cert_subject": subject,
        }

    def _ssh_features(self, profile: DeviceProfile, variant: int, ip: int) -> Dict[str, str]:
        banner = f"SSH-2.0-{profile.vendor}_{profile.os_name}_{variant}"
        host_key = _digest("sshkey", profile.name, ip)
        return {"ssh_banner": banner, "ssh_host_key": host_key}

    # -- public API ----------------------------------------------------------------

    def features_for(
        self,
        profile: DeviceProfile,
        protocol: str,
        variant: int,
        ip: int,
    ) -> Mapping[str, str]:
        """Return the read-only application-layer feature values for one service.

        Only the keys relevant to ``protocol`` are present (plus ``protocol``
        itself, which LZR fingerprinting always yields); GPS's feature
        extraction treats missing keys as "feature not available".  A fleet
        banner (one without a per-host value) is the same mapping object on
        every call for the same profile, protocol and variant.
        """
        if protocol in _PER_HOST_PROTOCOLS or (
                protocol in _HTTP_PROTOCOLS and self._unique_body(ip)):
            return MappingProxyType(self._build(profile, protocol, variant, ip))
        key = (id(profile), protocol, variant)
        cached = self._fleet.get(key)
        if cached is None:
            cached = self._fleet[key] = (profile, MappingProxyType(
                self._build(profile, protocol, variant, ip)))
        return cached[1]

    def _build(self, profile: DeviceProfile, protocol: str, variant: int,
               ip: int) -> Dict[str, str]:
        features: Dict[str, str] = {"protocol": protocol}

        if protocol in _HTTP_PROTOCOLS:
            features.update(self._http_features(profile, variant, ip))
        elif protocol == "https":
            features.update(self._tls_features(profile, variant, ip))
            features.update(self._http_features(profile, variant, ip))
        elif protocol in ("smtps", "imaps", "pop3s"):
            features.update(self._tls_features(profile, variant, ip))
            base = protocol[:-1]  # smtps -> smtp, imaps -> imap, pop3s -> pop3
            features[f"{base}_banner"] = (
                f"220 {profile.vendor} {base.upper()} service ready ({profile.os_name})"
            )
        elif protocol == "ssh":
            features.update(self._ssh_features(profile, variant, ip))
        elif protocol == "telnet":
            if variant == 0:
                banner = f"{profile.vendor} login:"
            else:
                banner = (
                    "Telnet service is disabled or Your telnet session has "
                    f"expired due to inactivity ({profile.vendor})"
                )
            features["telnet_banner"] = banner
        elif protocol == "cwmp":
            features["cwmp_header"] = f"Server: {profile.vendor}-cwmp"
            features["cwmp_body_hash"] = _digest("cwmp", profile.vendor)
        elif protocol == "vnc":
            features["vnc_desktop_name"] = f"{profile.vendor}-{profile.device_class}"
        elif protocol == "ftp":
            features["ftp_banner"] = f"220 {profile.vendor} FTP server ({profile.os_name}) ready"
        elif protocol == "smtp":
            features["smtp_banner"] = f"220 {profile.vendor} ESMTP ({profile.os_name})"
        elif protocol == "submission":
            features["smtp_banner"] = f"220 {profile.vendor} ESMTP submission ({profile.os_name})"
        elif protocol == "imap":
            if profile.name == "shared_hosting_imap_ssh":
                features["imap_banner"] = "* OK IMAP4 ready - STARTTLS required"
            else:
                features["imap_banner"] = f"* OK {profile.vendor} IMAP4 service ready"
        elif protocol == "pop3":
            features["pop3_banner"] = f"+OK {profile.vendor} POP3 service ready"
        elif protocol == "pptp":
            features["pptp_vendor"] = profile.vendor
        elif protocol == "mysql":
            features["mysql_version"] = f"5.7.{20 + variant}-{profile.vendor}"
        elif protocol == "memcached":
            features["memcached_version"] = f"1.6.{variant}"
        elif protocol == "mssql":
            features["mssql_version"] = f"15.0.{2000 + variant}"
        elif protocol == "ipmi":
            features["ipmi_banner"] = f"IPMI-2.0 {profile.vendor} BMC"
        elif protocol == "rtsp":
            features["http_server"] = f"{profile.vendor}-rtsp/{variant + 1}.0"
        elif protocol in ("dns", "sip", "ipp", "jetdirect", "smb", "rsync",
                          "redis", "mongodb", "ike", "postgres"):
            # Protocols for which Table 1 defines no dedicated banner feature:
            # LZR still fingerprints the protocol, which is itself a feature.
            pass
        else:
            # Unknown protocol: keep only the fingerprint.
            pass
        return features

    def pseudo_service_features(self, ip: int, incident_style: bool,
                                port: int = 0) -> Dict[str, str]:
        """Feature values for a *pseudo service* (Appendix B).

        Pseudo services are HTTP(ish) responders that successfully complete a
        handshake but host no real content ("no service exists here" pages,
        block pages, CDN default pages).  Most share identical content across
        all their ports; a long tail embeds a random incident identifier or
        timestamp (modelled by hashing the port into the body), which makes
        them harder to filter by content hash alone.
        """
        if incident_style:
            body_hash = _digest("pseudo-incident", ip, port)
            title = "Request blocked - Incident ID"
        else:
            body_hash = _PSEUDO_STATIC_BODY_HASH
            title = "No service is available on this address"
        return {
            "protocol": "http",
            "http_html_title": title,
            "http_body_hash": body_hash,
            "http_server": "edge-gateway/1.0",
            "http_header": "X-Powered-By: gateway",
        }


class BannerInterner:
    """Interns banner feature dictionaries as dense integer ids.

    The columnar scan path (:class:`repro.scanner.records.ObservationBatch`)
    ships one small int per hit instead of copying the hit's banner dict; the
    interner is the id space those ints live in.  Two layers of lookup keep
    the per-hit cost O(1):

    * an **identity cache**: a mapping object that was interned before maps
      to its id without being re-canonicalized.  Ground-truth
      :class:`~repro.internet.universe.ServiceRecord` banners are read-only
      mappings that live for the lifetime of the universe, and every service
      of one fleet shares one of them; they are pre-interned when its
      indices are built, so each distinct mapping is canonicalized once and
      a scan hit resolves its banner id with a single int-keyed dict lookup.
      The interner pins a reference to every identity-cached mapping, so
      ``id()`` keys can never be recycled to a different mapping.
    * a **value table** built on :class:`~repro.engine.encoding.DictionaryEncoder`:
      dicts with equal content (canonicalized as sorted item tuples) share
      one id, whichever object carried them.  Transient dicts -- pseudo-service
      pages generated during a scan -- dedupe through this layer; the static
      "no service here" page collapses to a single id across every pseudo
      host and port.

    ``features(banner_id)`` returns a read-only :class:`types.MappingProxyType`
    view of the first mapping interned under the id (created once per id, so
    materializing observation rows allocates nothing per row).  An
    identity-cached carrier that is already a ``MappingProxyType`` (every
    ground-truth banner) is that view itself, so the proxy may alias
    ground-truth state; read-only access is exactly the contract
    :class:`~repro.scanner.records.ScanObservation` already documents for
    ``app_features``.
    """

    def __init__(self) -> None:
        self._encoder = DictionaryEncoder()
        self._by_identity: Dict[int, Tuple[Mapping[str, str], int]] = {}
        self._views: List[Mapping[str, str]] = []

    def __len__(self) -> int:
        return len(self._views)

    def intern(self, features: Mapping[str, str]) -> int:
        """Return the id for ``features``, interning it if unseen.

        The mapping is identity-cached (a reference is pinned), so repeated
        calls with the same object are a single dict lookup; it must not
        change afterwards.
        """
        cached = self._by_identity.get(id(features))
        if cached is not None and cached[0] is features:
            return cached[1]
        view = features if type(features) is MappingProxyType else None
        banner_id = self._encode(features, view)
        self._by_identity[id(features)] = (features, banner_id)
        return banner_id

    def intern_value(self, features: Mapping[str, str]) -> int:
        """Return the id for ``features`` by content, without identity caching.

        Meant for transient dicts (generated pseudo-service pages): equal
        content maps to one id and the interner keeps a copy of the first
        carrier.
        """
        return self._encode(features, None)

    def _encode(self, features: Mapping[str, str],
                view: Optional[Mapping[str, str]]) -> int:
        key = tuple(sorted(features.items()))
        before = len(self._encoder)
        banner_id = self._encoder.encode(key)
        if banner_id == before:
            self._views.append(MappingProxyType(dict(features))
                               if view is None else view)
        return banner_id

    def features(self, banner_id: int) -> Mapping[str, str]:
        """The read-only banner mapping interned under ``banner_id``.

        Negative ids are rejected outright: they address batch-local banners
        (:meth:`repro.scanner.records.ObservationBatch.banner_features`),
        and letting them fall through to Python's negative list indexing
        would silently return an unrelated interned banner.
        """
        if banner_id < 0:
            raise KeyError(f"unknown banner id: {banner_id}")
        try:
            return self._views[banner_id]
        except IndexError:
            raise KeyError(f"unknown banner id: {banner_id}") from None
