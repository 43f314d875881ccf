"""Prediction intervals from past forecast errors, with cross-horizon coherence
and proper-scoring-rule evaluation."""

from intervalcast.domain import (
    VARIABLES,
    Horizon,
    ReleaseDate,
    Season,
    TargetId,
    horizon_of,
)
from intervalcast.quantile import QuantileMethod, empirical_quantile
from intervalcast.errorsets import ErrorMethod, ErrorSet, build_error_set, forecast_error
from intervalcast.intervals import (
    IntervalGrid,
    IntervalOffsets,
    PredictionInterval,
    enforce_horizon_monotonicity,
)
from intervalcast.ingest import parse_forecast_panel
from intervalcast.scoring import (
    ScoreDecomposition,
    WisWeights,
    coverage_rate,
    interval_score,
    weighted_interval_score,
)
from intervalcast.pipeline import RunConfig, produce_forecast, run_backtest, run_tuning

__all__ = [
    "VARIABLES",
    "Horizon",
    "ReleaseDate",
    "Season",
    "TargetId",
    "horizon_of",
    "QuantileMethod",
    "empirical_quantile",
    "ErrorMethod",
    "ErrorSet",
    "build_error_set",
    "forecast_error",
    "IntervalGrid",
    "IntervalOffsets",
    "PredictionInterval",
    "enforce_horizon_monotonicity",
    "parse_forecast_panel",
    "ScoreDecomposition",
    "WisWeights",
    "coverage_rate",
    "interval_score",
    "weighted_interval_score",
    "RunConfig",
    "produce_forecast",
    "run_backtest",
    "run_tuning",
]
