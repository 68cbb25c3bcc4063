"""GPS core: the paper's primary contribution.

The modules in this package implement the four-phase GPS system described in
Section 5 of the paper:

1. :mod:`repro.core.config` -- user-facing configuration (seed size, scanning
   step size, feature selection, bandwidth budget, compute backend);
2. :mod:`repro.core.features` -- extraction of the transport-, application-
   and network-layer predictor tuples of Expressions 4-7;
3. :mod:`repro.core.model` -- the conditional-probability (co-occurrence)
   model, with a single-core reference implementation and an implementation
   on the parallel engine;
4. :mod:`repro.core.priors` -- planning the "priors scan" that finds the first
   service of every responsive host (Section 5.3);
5. :mod:`repro.core.predictions` -- the "most predictive feature values" index
   and the prediction of remaining services (Section 5.4);
6. :mod:`repro.core.gps` -- the orchestrator tying the phases together against
   a scan pipeline, producing a bandwidth-annotated discovery log;
7. :mod:`repro.core.metrics` -- the paper's evaluation metrics (fraction of
   services, normalized services, precision, coverage-vs-bandwidth curves).
"""

from repro.core.config import FeatureConfig, GPSConfig
from repro.core.features import (
    HostFeatures,
    extract_host_features,
    network_feature_values,
    predictor_tuples_for_observation,
)
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.core.priors import PriorsEntry, build_priors_plan
from repro.core.predictions import (
    PredictedService,
    Predictions,
    PredictiveFeature,
    PredictiveFeatureIndex,
)
from repro.core.gps import GPS, DiscoveryBatch, GPSRunResult
from repro.core.metrics import (
    coverage_curve,
    fraction_of_services,
    normalized_fraction_of_services,
    precision_curve,
)

__all__ = [
    "FeatureConfig",
    "GPSConfig",
    "HostFeatures",
    "extract_host_features",
    "network_feature_values",
    "predictor_tuples_for_observation",
    "CooccurrenceModel",
    "build_model",
    "build_model_with_engine",
    "PriorsEntry",
    "build_priors_plan",
    "PredictiveFeature",
    "PredictiveFeatureIndex",
    "PredictedService",
    "Predictions",
    "GPS",
    "DiscoveryBatch",
    "GPSRunResult",
    "fraction_of_services",
    "normalized_fraction_of_services",
    "coverage_curve",
    "precision_curve",
]
