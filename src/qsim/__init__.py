"""Uncertainty-driven dissemination of data synopses among edge nodes.

A deterministic discrete-time simulator and decision library: nodes summarize
their streams into synopses, watch the update quanta between the current and
last-shared synopsis, forecast the short-term quantum trend, fuse past and
forecast views through an interval Type-2 fuzzy system, and disseminate when
the fused potential exceeds a threshold or an epoch deadline expires.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    IngestionError,
    InvariantViolation,
    QsimError,
    StreamTruncationError,
)
from .forecasting import Forecast, HoltState, holt_forecast, holt_init, holt_step
from .policies import (
    BmPolicy,
    Decision,
    EpochState,
    PmPolicy,
    UddmPolicy,
    build_policy,
    combine_pods,
)
from .simulator import (
    DisseminationEvent,
    ExperimentConfig,
    ExperimentTrace,
    MetricsReport,
    generate_synthetic_stream,
    run_cell,
    run_experiment,
)
from .synopsis import DataVector
from .t2fls import (
    InferenceEngine,
    IntervalTerm,
    RuleBase,
    default_engine,
    default_rule_base,
    default_terms,
    make_term,
)

__all__ = [
    "__version__",
    "QsimError",
    "ConfigurationError",
    "IngestionError",
    "StreamTruncationError",
    "InvariantViolation",
    "DataVector",
    "HoltState",
    "Forecast",
    "holt_init",
    "holt_step",
    "holt_forecast",
    "IntervalTerm",
    "RuleBase",
    "InferenceEngine",
    "make_term",
    "default_terms",
    "default_rule_base",
    "default_engine",
    "Decision",
    "EpochState",
    "combine_pods",
    "UddmPolicy",
    "BmPolicy",
    "PmPolicy",
    "build_policy",
    "ExperimentConfig",
    "DisseminationEvent",
    "ExperimentTrace",
    "MetricsReport",
    "generate_synthetic_stream",
    "run_experiment",
    "run_cell",
]
