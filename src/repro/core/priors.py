"""Planning the priors scan: predicting the first service of every host.

Section 5.3: GPS's seed set only covers a small sample of hosts, so before it
can exploit application- and transport-layer correlations it must discover at
least one service on every other responsive host.  Only network-layer
information is available for hosts outside the seed, so GPS exhaustively scans
(port, subnetwork) tuples around seed services, choosing the tuples that cover
the most seed services per unit of bandwidth.

The planning algorithm (verbatim from the paper):

1. hosts that respond on a single port contribute ``(Port_a, Net_IP)``;
2. hosts that respond on several ports contribute, for every service
   ``(IP, Port_a)``, the ``(Port_b, Net_IP)`` of the *other* port whose
   predictor tuples give the maximum ``P(Port_a)``;
3. identical (port, subnetwork) tuples are grouped and weighted by how many
   seed services they help predict (maximal coverage);
4. the list is sorted by coverage, descending.

The output is the "priors scan list": an ordered list of (port, subnetwork of
the scanning step size) pairs that the orchestrator sweeps with the simulated
ZMap.

Two implementations produce that list:

* :func:`build_priors_plan` -- the single-core reference (pure dict loops,
  one :meth:`~repro.core.model.CooccurrenceModel.best_predictor` call per
  ordered port pair), kept as the oracle the equivalence tests compare
  against;
* :func:`build_priors_plan_with_engine` -- the same query on the engine
  runtime: the model's packed counts load once beside the resident
  columns, and every service's partner is selected with numpy segment
  reductions
  (:func:`repro.engine.fused.fold_partner_counts`), folding coverage counts.
  This is the Table 2 "computation" story applied to the Section 5.3
  planning pass; ``GPSConfig.use_engine`` selects the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.features import HostFeatureColumns, HostFeatures
from repro.core.model import CooccurrenceModel
from repro.core.runtime_plans import ResidentHostGroups
from repro.net.ipv4 import format_subnet, subnet_key


@dataclass(frozen=True)
class PriorsEntry:
    """One entry of the priors scan list.

    Attributes:
        port: the port to sweep.
        subnet: packed subnet key (base + prefix length) to sweep it over.
        coverage: number of seed services this entry helps predict; the list
            is ordered by this value, descending.
    """

    port: int
    subnet: int
    coverage: int

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``"port 80 over 10.1.0.0/16 (covers 37)"``."""
        return f"port {self.port} over {format_subnet(self.subnet)} (covers {self.coverage})"


def build_priors_plan(
    host_features: Mapping[int, HostFeatures],
    model: CooccurrenceModel,
    step_size: int,
    port_domain: Optional[Sequence[int]] = None,
) -> List[PriorsEntry]:
    """Build the ordered priors scan list from the seed set.

    Args:
        host_features: per-host features extracted from the seed observations.
        model: the co-occurrence model built from the same seed set.
        step_size: scanning step size as a prefix length (0-32).
        port_domain: optional port whitelist; entries whose port falls outside
            it are dropped (used by the Censys-style 2K-port experiments).

    Returns:
        The priors scan list, sorted by coverage (descending) with
        deterministic tie-breaking on (port, subnet).
    """
    if not 0 <= step_size <= 32:
        raise ValueError(f"step_size must be a prefix length 0-32: {step_size}")
    allowed: Optional[Set[int]] = set(port_domain) if port_domain is not None else None

    coverage: Dict[Tuple[int, int], int] = {}

    def add(port: int, ip: int) -> None:
        if allowed is not None and port not in allowed:
            return
        key = (port, subnet_key(ip, step_size))
        coverage[key] = coverage.get(key, 0) + 1

    for host in host_features.values():
        open_ports = host.open_ports()
        if len(open_ports) == 1:
            # Step 1: single-service hosts; the sole service is the one that
            # must be found first (and is the only one that can be).
            add(open_ports[0], host.ip)
            continue
        # Step 2: multi-service hosts; for each target service pick the other
        # port whose predictor tuples are most predictive of it.
        for port_a in open_ports:
            best_port_b: Optional[int] = None
            best_prob = -1.0
            for port_b in open_ports:
                if port_b == port_a:
                    continue
                _, prob = model.best_predictor(host.ports[port_b], port_a)
                if prob > best_prob or (prob == best_prob and best_port_b is not None
                                        and port_b < best_port_b):
                    best_prob = prob
                    best_port_b = port_b
            if best_port_b is None:
                best_port_b = min(port for port in open_ports if port != port_a)
            add(best_port_b, host.ip)

    # Steps 3-4: group, weight by coverage, and order.
    entries = [
        PriorsEntry(port=port, subnet=subnet, coverage=count)
        for (port, subnet), count in coverage.items()
    ]
    entries.sort(key=lambda entry: (-entry.coverage, entry.port, entry.subnet))
    return entries


# -- engine-backed implementation --------------------------------------------------------


def build_priors_plan_with_engine(
    host_features: HostFeatureColumns,
    model: CooccurrenceModel,
    step_size: int,
    port_domain: Optional[Sequence[int]] = None,
    *,
    dataset: ResidentHostGroups,
) -> List[PriorsEntry]:
    """Priors planning on the engine runtime (Section 5.3 / Table 2).

    Produces exactly the ordered :class:`PriorsEntry` list of
    :func:`build_priors_plan` (the oracle; the test suite asserts
    equality), but folds the partner selection against ``dataset`` --
    ``host_features``' encoded columns, resident in the runtime: the
    model's packed counts load once per model, and only the port whitelist
    passes per call.

    Args:
        host_features: the seed's encoded host features.
        model: the co-occurrence model built from the same seed set.
        step_size: scanning step size as a prefix length; must equal the
            ``step_size`` the dataset grouped hosts by.
        port_domain: optional port whitelist (Censys-style 2K-port runs).
        dataset: the resident dataset loaded from ``host_features``.
    """
    if dataset.step_size != step_size:
        raise ValueError(
            f"resident dataset was grouped for step_size {dataset.step_size}, "
            f"not {step_size}")
    coverage = dataset.priors_coverage(model, port_domain)
    entries = [
        PriorsEntry(port=port, subnet=subnet, coverage=count)
        for (port, subnet), count in coverage.items()
    ]
    entries.sort(key=lambda entry: (-entry.coverage, entry.port, entry.subnet))
    return entries


def plan_bandwidth(entries: Sequence[PriorsEntry], addresses_per_subnet: int) -> int:
    """Total probes a priors plan will send, assuming equal-size subnets.

    Exact accounting happens in the bandwidth ledger during execution; this
    estimate (entries x subnet size) is what a user consults when choosing a
    step size against their bandwidth budget (Equation 3).
    """
    if addresses_per_subnet < 0:
        raise ValueError("addresses_per_subnet must be non-negative")
    return len(entries) * addresses_per_subnet
