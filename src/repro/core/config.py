"""GPS configuration objects.

GPS exposes exactly the knobs the paper describes as user parameters:

* the **seed size** (what fraction of the address space the seed scan probes,
  Section 5.1 / Appendix D.2);
* the **scanning step size** (the prefix length exhaustively scanned around a
  seed service when predicting first services, Section 5.3 / Appendix D.1);
* the **feature set** (which application- and network-layer features the model
  may use, Table 1 / Appendix C);
* the **bandwidth budget** ``c1`` (Equation 3) that caps total probes;
* the **probability cut-off** below which a pattern is considered random noise
  (Section 5.4 uses 1e-5, roughly the hit rate of random probing);
* the **compute backend** used for the three Table 2 builds (the single-core
  reference, or the in-process engine runtime, Section 5.5 / Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.engine.runtime import RUNTIME_EXECUTORS
from repro.internet.banners import APP_FEATURE_KEYS

#: Network-layer feature kinds GPS can be configured with.  Appendix C
#: evaluates /16-/23 subnets plus the ASN and finds the ASN and /16 most
#: predictive; the final configuration (and our default) uses those two.
NETWORK_FEATURE_KINDS = (
    "asn",
    "subnet16",
    "subnet17",
    "subnet18",
    "subnet19",
    "subnet20",
    "subnet21",
    "subnet22",
    "subnet23",
)

DEFAULT_NETWORK_KINDS = ("asn", "subnet16")

#: Application-layer feature keys (Table 1) excluding the protocol fingerprint,
#: which is always available and handled explicitly.
DEFAULT_APP_FEATURE_KEYS = tuple(key for key in APP_FEATURE_KEYS)


@dataclass(frozen=True)
class FeatureConfig:
    """Which features GPS extracts from each discovered service.

    Attributes:
        app_feature_keys: application-layer banner fields used as features
            (Table 1).  ``protocol`` is a legitimate member: the paper's most
            predictive single feature is (Port, Port's protocol), Table 3.
        network_feature_kinds: network-layer features ("asn" and/or
            "subnetNN" for NN in 16-23).
        include_transport_only: include the bare (Port_b) predictor
            (Expression 4).  Disabling it is only meaningful for ablations.
        include_app: include (Port_b, App) predictors (Expression 5).
        include_network: include (Port_b, Net) predictors (Expression 6).
        include_app_network: include (Port_b, App, Net) predictors
            (Expression 7).
    """

    app_feature_keys: Tuple[str, ...] = DEFAULT_APP_FEATURE_KEYS
    network_feature_kinds: Tuple[str, ...] = DEFAULT_NETWORK_KINDS
    include_transport_only: bool = True
    include_app: bool = True
    include_network: bool = True
    include_app_network: bool = True

    def __post_init__(self) -> None:
        for kind in self.network_feature_kinds:
            if kind not in NETWORK_FEATURE_KINDS:
                raise ValueError(f"unknown network feature kind: {kind}")
        if not (self.include_transport_only or self.include_app
                or self.include_network or self.include_app_network):
            raise ValueError("at least one predictor family must be enabled")

    def transport_only(self) -> "FeatureConfig":
        """An ablated copy using only Expression 4 (port-to-port correlations)."""
        return FeatureConfig(
            app_feature_keys=(),
            network_feature_kinds=(),
            include_transport_only=True,
            include_app=False,
            include_network=False,
            include_app_network=False,
        )


@dataclass(frozen=True)
class GPSConfig:
    """Top-level GPS configuration.

    Attributes:
        seed_fraction: fraction of the address space probed by the seed scan
            (only used when GPS collects its own seed; in dataset-split mode
            the seed is supplied and this records its nominal size for
            bandwidth accounting).
        step_size: scanning step size as a prefix length (``16`` means each
            priors entry exhaustively sweeps a /16; ``0`` sweeps the whole
            address space for that port).
        probability_cutoff: minimum conditional probability for a pattern to
            enter the most-predictive-feature list (Section 5.4, 1e-5).
        min_pattern_support: minimum number of seed hosts a pattern must have
            been observed on to be preferred in the most-predictive-feature
            list (patterns below the threshold are only used as a fallback).
            Mirrors the paper's premise of training from "at least two
            responsive IP addresses on a port".
        port_domain: optional port whitelist.  The Censys-style experiments
            restrict GPS to the dataset's 2K ports; ``None`` means all 65,535.
        max_full_scans: bandwidth budget ``c1`` in units of 100 % scans
            (``None`` = unbounded; the analysis layer can still cut the
            discovery log at any budget afterwards).
        feature_config: which features the model uses.
        seed_scan_seed: RNG seed for the seed scan's address sample.
        prediction_batch_size: how many predicted (ip, port) probes are sent
            per batch.  Affects the granularity of the discovery log and of
            the budget check; inside each batch the probes are additionally
            grouped per (subnetwork, port) for the pipeline's batched
            scanner layers, which changes bookkeeping cost but not what is
            probed or charged.
        use_engine: run model building (Section 5.2), priors planning
            (Section 5.3) and the prediction-index build (Section 5.4) on
            the engine runtime rather than the single-core dictionary
            implementations (the reference oracle).  The engine ingests the
            seed columnar, loads the encoded columns into the runtime once
            per run (:class:`~repro.core.runtime_plans.ResidentHostGroups`)
            and folds all three builds against the resident columns, which
            are released when the run's builds end; every result is
            bit-identical to the reference.  The :class:`GPS`
            orchestrator owns one
            :class:`~repro.engine.runtime.EngineRuntime` for its lifetime.
        executor: the runtime executor the engine runs on; ``"serial"``
            is the only one.
        telemetry_enabled: create a :class:`~repro.telemetry.Telemetry`
            instance for the run -- per-phase spans, engine/scan metrics.
            Off by default: telemetry must never tax a run that did not
            ask for it.
    """

    seed_fraction: float = 0.01
    step_size: int = 16
    probability_cutoff: float = 1e-5
    min_pattern_support: int = 2
    port_domain: Optional[Tuple[int, ...]] = None
    max_full_scans: Optional[float] = None
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)
    seed_scan_seed: int = 0
    prediction_batch_size: int = 2000
    use_engine: bool = False
    # The ``[benchmark]`` change ahead of step 2 of ROADMAP item 1 removes it.
    executor: str = "serial"
    telemetry_enabled: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.seed_fraction <= 1.0:
            raise ValueError(f"seed_fraction out of range: {self.seed_fraction}")
        if not 0 <= self.step_size <= 32:
            raise ValueError(f"step_size must be a prefix length 0-32: {self.step_size}")
        if self.probability_cutoff < 0:
            raise ValueError("probability_cutoff must be non-negative")
        if self.min_pattern_support < 1:
            raise ValueError("min_pattern_support must be >= 1")
        if self.max_full_scans is not None and self.max_full_scans <= 0:
            raise ValueError("max_full_scans must be positive when set")
        if self.prediction_batch_size < 1:
            raise ValueError("prediction_batch_size must be >= 1")
        if self.executor not in RUNTIME_EXECUTORS:
            raise ValueError(
                f"unknown executor: {self.executor!r} "
                f"(expected one of {RUNTIME_EXECUTORS})")
        if self.port_domain is not None:
            for port in self.port_domain:
                if not 1 <= port <= 65535:
                    raise ValueError(f"invalid port in port_domain: {port}")
