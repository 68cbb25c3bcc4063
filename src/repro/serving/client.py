"""In-process async client for :class:`~repro.serving.service.GPSService`.

Tests, benchmarks and embedded consumers need no network: the client is a
thin typed facade over the service's coroutine API, constructing the request
dataclasses so call sites read like RPCs.  It adds nothing else -- no
retries, no hidden buffering -- so anything the equivalence battery proves
about the client holds for the service itself.
"""

from __future__ import annotations

from typing import AsyncIterator, Iterable, Optional, Tuple

from repro.core.config import GPSConfig
from repro.scanner.pipeline import ScanPipeline, SeedScanResult
from repro.scanner.records import ScanObservation
from repro.serving.schemas import (
    BulkPredict,
    BulkReply,
    LookupReply,
    ModelInfo,
    PointLookup,
    ScanJobRequest,
    ScanUpdate,
)
from repro.serving.service import GPSService

Pair = Tuple[int, int]


class InProcessClient:
    """Typed async access to a service living in the same process."""

    def __init__(self, service: GPSService) -> None:
        self.service = service

    # -- model management --------------------------------------------------------------

    async def load_model(self, name: str, pipeline: ScanPipeline,
                         seed: SeedScanResult,
                         gps_config: Optional[GPSConfig] = None) -> ModelInfo:
        """Build and register a named model on the service."""
        return await self.service.load_model(name, pipeline, seed, gps_config)

    async def evict_model(self, name: str) -> None:
        """Drop a named model."""
        await self.service.evict_model(name)

    def models(self) -> list:
        """Summaries of the loaded models."""
        return self.service.models()

    # -- the three serving operations --------------------------------------------------

    async def lookup(self, model: str,
                     observations: Iterable[ScanObservation],
                     known_pairs: Iterable[Pair] = ()) -> LookupReply:
        """Point lookup: predict one host's remaining services."""
        return await self.service.lookup(PointLookup(
            model=model,
            observations=tuple(observations),
            known_pairs=frozenset(known_pairs)))

    async def lookup_ip(self, model: str, ip: int) -> LookupReply:
        """Point lookup by bare address, evidenced by the model's own seed."""
        return await self.service.lookup_ip(model, ip)

    async def bulk_predict(self, model: str,
                           observations: Iterable[ScanObservation],
                           known_pairs: Iterable[Pair] = (),
                           ) -> BulkReply:
        """Bulk prediction, batched per (subnet, port) like the scan path."""
        return await self.service.bulk_predict(BulkPredict(
            model=model,
            observations=tuple(observations),
            known_pairs=frozenset(known_pairs)))

    async def scan(self, model: str,
                   observations: Iterable[ScanObservation] = (),
                   known_pairs: Iterable[Pair] = (),
                   batch_size: int = 2000,
                   timeout_s: Optional[float] = None,
                   ) -> AsyncIterator[ScanUpdate]:
        """Submit a scan job and stream its updates as they arrive."""
        job_id = await self.service.submit_scan(ScanJobRequest(
            model=model,
            observations=tuple(observations),
            known_pairs=frozenset(known_pairs),
            batch_size=batch_size))
        async for update in self.service.scan_updates(job_id, timeout_s=timeout_s):
            yield update


__all__ = ["InProcessClient"]
