"""Deterministic probe loss for the scanner path.

Robustness claims are worthless unless they are testable, and testable means
*repeatable*: the same seed must drop the same probes in the same sweep,
every run, on every machine.  This module provides the seeded loss layer the
scanner simulators are exercised with:

* :class:`FaultPlan` -- a frozen description of *how lossy* the simulated
  network is.  A plan is plain data: it hashes into cache keys.
* :class:`ProbeLossModel` -- a seeded, per-(layer, ip, port, attempt) loss
  decision for the scanner simulators.  Losses are *bounded*: after
  ``max_consecutive_losses`` attempts on the same target the probe always
  gets through, which is what makes retry-equivalence provable (with a retry
  budget at least that deep, every ground-truth responder is observed and
  scan results are bit-identical to the lossless run).

Determinism rests on :func:`repro.engine.encoding.stable_hash`, which is
``PYTHONHASHSEED``-independent, so loss decisions need no shared RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.encoding import stable_hash

_HASH_SPAN = float(2**64)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """Finalize a 64-bit hash into a uniformly distributed 64-bit value.

    :func:`stable_hash` does not mix its bits: nearby keys (consecutive
    addresses, small attempt indices) land on nearby outputs, which is
    exactly wrong for a loss draw -- without mixing, one decision would
    effectively cover a whole sweep.  The splitmix64 finalizer avalanches
    every input bit across the output, turning the stable hash into an
    independent per-target coin.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of scanner probe loss.

    Attributes:
        seed: base seed folded into every loss-model decision.
        probe_loss_rate: probability in ``[0, 1)`` that a probe attempt is
            dropped.
        max_consecutive_losses: hard bound on losses for one (layer, ip,
            port) target; the attempt with this index always succeeds.
        max_probe_retries: retry budget the scan pipeline threads into the
            simulators; must be ``>= max_consecutive_losses`` for loss to be
            coverage-neutral.
        retry_backoff_s: simulated per-retry backoff (kept tiny; it exists so
            the retry loop has the same shape as a real scanner's).
    """

    seed: int = 0
    probe_loss_rate: float = 0.0
    max_consecutive_losses: int = 2
    max_probe_retries: int = 3
    retry_backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probe_loss_rate < 1.0:
            raise ValueError("probe_loss_rate must be in [0, 1)")
        if self.max_consecutive_losses < 1:
            raise ValueError("max_consecutive_losses must be at least 1")
        if self.max_probe_retries < 0:
            raise ValueError("max_probe_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.probe_loss_rate > 0 and (
                self.max_probe_retries < self.max_consecutive_losses):
            raise ValueError(
                "max_probe_retries must cover max_consecutive_losses so loss "
                "stays coverage-neutral")

    def loss_model(self) -> Optional["ProbeLossModel"]:
        """The scanner loss model, or ``None`` when the plan is lossless."""
        if self.probe_loss_rate == 0.0:
            return None
        return ProbeLossModel(seed=self.seed,
                              loss_rate=self.probe_loss_rate,
                              max_consecutive_losses=self.max_consecutive_losses)


@dataclass(frozen=True)
class ProbeLossModel:
    """Seeded per-probe loss decisions with bounded consecutive losses.

    The decision for attempt ``k`` on target ``(layer, ip, port)`` is a pure
    function of ``(seed, layer, ip, port, k)`` via ``stable_hash``, so the
    pipeline, tests, and any re-run agree on exactly which probes drop.
    Attempt indices at or beyond ``max_consecutive_losses`` never drop, which
    bounds the worst case and keeps retry loops finite and provably
    coverage-neutral.
    """

    seed: int
    loss_rate: float
    max_consecutive_losses: int = 2

    def lost(self, layer: str, ip: int, port: int, attempt: int = 0) -> bool:
        """Whether this probe attempt is dropped by the simulated network."""
        if self.loss_rate <= 0.0 or attempt >= self.max_consecutive_losses:
            return False
        draw = _mix64(stable_hash((self.seed, layer, ip, port, attempt)))
        return draw / _HASH_SPAN < self.loss_rate


__all__ = ["FaultPlan", "ProbeLossModel"]
