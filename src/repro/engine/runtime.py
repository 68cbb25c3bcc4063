"""The runtime names left from the old dispatch layer.

GPS's three Table 2 builds fold in process over one build's host groups
(:class:`repro.core.runtime_plans.ResidentHostGroups`); nothing here runs
them.  The end-to-end benchmark (``benchmarks/e2e``) still reads the names
below, so they stay until the harness stops reading them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RUNTIME_EXECUTORS", "RecoveryStats", "SERIAL_RUNTIME"]

# benchmarks/e2e sets ``executor="serial"`` on GPSConfig and ServingConfig.
#: The executor names ``GPSConfig.executor``, ``ServingConfig.executor`` and
#: the CLI's ``--executor`` accept.
RUNTIME_EXECUTORS = ("serial",)


# benchmarks/e2e reads it through ``GPS.runtime()`` and ``/stats``'s ``recovery``.
@dataclass(frozen=True)
class RecoveryStats:
    """Recovery counters: always zero, since nothing runs out of process."""

    respawns: int = 0
    redispatched_tasks: int = 0


class _SerialRuntime:
    """What :meth:`repro.core.gps.GPS.runtime` returns on an engine config."""

    recovery_stats = RecoveryStats()


SERIAL_RUNTIME = _SerialRuntime()
