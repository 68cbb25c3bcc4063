"""GPS-as-a-service: the async serving layer over warm GPS models.

The paper's prediction index is a *product*, not an experiment artifact:
once built, it answers "what services does this host likely run?" for
pennies.  This package turns GPS's build sequence into a
long-lived serving layer with three operations -- point lookup, bulk
prediction and streamed scan jobs -- behind micro-batching, bounded-queue
backpressure and graceful drain.  Layering follows the classic backend
split:

* :mod:`repro.serving.schemas` -- typed requests/replies/errors;
* :mod:`repro.serving.registry` -- named models, each built once;
* :mod:`repro.serving.service` -- the framework-free asyncio core;
* :mod:`repro.serving.client` -- the in-process async client;
* :mod:`repro.serving.http` -- a thin stdlib JSON/HTTP adapter
  (``gps-repro serve``).
"""

from repro.serving.client import InProcessClient
from repro.serving.registry import ModelRegistry, PreparedModel, build_prepared_model
from repro.serving.schemas import (
    BulkPredict,
    BulkReply,
    InvalidRequest,
    LookupReply,
    ModelInfo,
    ModelNotFound,
    PayloadTooLarge,
    PointLookup,
    RequestTimeout,
    ScanJobFailed,
    ScanJobNotFound,
    ScanJobRequest,
    ScanUpdate,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServingStats,
)
from repro.serving.service import GPSService, ServingConfig

__all__ = [
    "BulkPredict",
    "BulkReply",
    "GPSService",
    "InProcessClient",
    "InvalidRequest",
    "LookupReply",
    "ModelInfo",
    "ModelNotFound",
    "ModelRegistry",
    "PayloadTooLarge",
    "PointLookup",
    "PreparedModel",
    "RequestTimeout",
    "ScanJobFailed",
    "ScanJobNotFound",
    "ScanJobRequest",
    "ScanUpdate",
    "ServiceClosed",
    "ServiceError",
    "ServiceOverloaded",
    "ServingConfig",
    "ServingStats",
    "build_prepared_model",
]
