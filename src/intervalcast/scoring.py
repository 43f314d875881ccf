"""Interval score with decomposition, weighted interval score, coverage, and
report aggregation.

Scores are negatively oriented: smaller is better. The interval score is the
interval width plus penalties of 2/(1-tau) times the distance by which the
outcome misses the interval, charged to overprediction (outcome below the
interval) or underprediction (outcome above it).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from intervalcast.domain import Horizon, ReleaseDate, TargetId
from intervalcast.intervals import PredictionInterval

POOLED = "pooled"


@dataclass(frozen=True)
class ScoreDecomposition:
    dispersion: float
    overprediction: float
    underprediction: float

    @property
    def total(self) -> float:
        return self.dispersion + self.overprediction + self.underprediction


def interval_score(lower: float, upper: float, outcome: float, tau: float) -> ScoreDecomposition:
    """Interval score of [lower, upper] against ``outcome`` at level ``tau``."""
    if not all(math.isfinite(v) for v in (lower, upper, outcome)):
        raise ValueError("interval score requires finite inputs")
    if lower > upper:
        raise ValueError(f"inverted interval [{lower}, {upper}]")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"confidence level {tau} outside (0, 1)")
    penalty = 2.0 / (1.0 - tau)
    over = penalty * (lower - outcome) if outcome < lower else 0.0
    under = penalty * (outcome - upper) if outcome > upper else 0.0
    return ScoreDecomposition(
        dispersion=upper - lower, overprediction=over, underprediction=under
    )


@dataclass(frozen=True)
class WisWeights:
    """Per-level weights (1 - tau)/2 for the weighted interval score."""

    levels: tuple[float, ...]

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple((1.0 - tau) / 2.0 for tau in self.levels)

    @cached_property
    def total(self) -> float:
        return sum(self.weights)


def weighted_interval_score(
    intervals: Mapping[float, PredictionInterval],
    outcome: float,
    weights: WisWeights,
) -> float:
    """Normalized weighted mean of per-level interval scores.

    The normalization by the weight sum keeps the score on the interval-score
    scale; with a single level it reduces to the plain interval score. No
    point-forecast term is included.
    """
    scores = {
        tau: interval_score(intervals[tau].lower, intervals[tau].upper, outcome, tau)
        for tau in weights.levels
        if tau in intervals
    }
    return wis_from_scores(scores, weights)


def wis_from_scores(scores: Mapping[float, ScoreDecomposition], weights: WisWeights) -> float:
    """The weighted interval score from per-level interval scores in hand."""
    missing = [tau for tau in weights.levels if tau not in scores]
    if missing:
        raise ValueError(f"incomplete level set: missing levels {missing}")
    acc = 0.0
    for tau, w in zip(weights.levels, weights.weights):
        acc += w * scores[tau].total
    return acc / weights.total


def coverage_rate(pairs: Sequence[tuple[PredictionInterval, float]]) -> float:
    """Fraction of outcomes inside their (closed) intervals."""
    if not pairs:
        raise ValueError("no observations: coverage requires at least one pair")
    return sum(1 for pi, y in pairs if pi.contains(y)) / len(pairs)


@dataclass(frozen=True)
class ScoredForecast:
    """One interval forecast scored against its outcome, at all levels."""

    target: TargetId
    horizon: Horizon
    origin: ReleaseDate
    target_year: int
    method: str
    outcome: float
    intervals: Mapping[float, PredictionInterval]
    scores: Mapping[float, ScoreDecomposition]
    wis: float


@dataclass
class CellStats:
    """Aggregated scores for one (country, variable, horizon, method) cell."""

    n: int
    mean_wis: float
    mean_dispersion: float
    mean_overprediction: float
    mean_underprediction: float
    coverage: dict[float, float]
    mean_length: dict[float, float]
    mean_is: dict[float, float]


@dataclass
class EvaluationReport:
    """Per-cell aggregates plus country-pooled cells (country = 'pooled')."""

    levels: tuple[float, ...]
    cells: dict[tuple[str, str, str, str], CellStats] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for (country, variable, horizon, method), stats in sorted(self.cells.items()):
            base = dict(country=country, variable=variable, horizon=horizon, method=method)
            rows.append({**base, "level": "", "metric": "wis", "value": stats.mean_wis, "n": stats.n})
            rows.append({**base, "level": "", "metric": "dispersion", "value": stats.mean_dispersion, "n": stats.n})
            rows.append({**base, "level": "", "metric": "overprediction", "value": stats.mean_overprediction, "n": stats.n})
            rows.append({**base, "level": "", "metric": "underprediction", "value": stats.mean_underprediction, "n": stats.n})
            for tau in self.levels:
                rows.append({**base, "level": tau, "metric": "interval_score", "value": stats.mean_is[tau], "n": stats.n})
                rows.append({**base, "level": tau, "metric": "coverage", "value": stats.coverage[tau], "n": stats.n})
                rows.append({**base, "level": tau, "metric": "mean_length", "value": stats.mean_length[tau], "n": stats.n})
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["country", "variable", "horizon", "method", "level", "metric", "value", "n"])
        for row in self.to_rows():
            writer.writerow(
                [
                    row["country"],
                    row["variable"],
                    row["horizon"],
                    row["method"],
                    row["level"],
                    row["metric"],
                    _fmt(row["value"]),
                    row["n"],
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "levels": list(self.levels),
            "rows": [
                {**row, "value": float(row["value"])} for row in self.to_rows()
            ],
            "warnings": list(self.warnings),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, summed left to right: tuning's and the report's."""
    return sum(values) / len(values)


def _cell_stats(group: Sequence[ScoredForecast], levels: tuple[float, ...]) -> CellStats:
    coverage: dict[float, float] = {}
    mean_length: dict[float, float] = {}
    mean_is: dict[float, float] = {}
    for tau in levels:
        pairs = [(sf.intervals[tau], sf.outcome) for sf in group]
        coverage[tau] = coverage_rate(pairs)
        mean_length[tau] = mean([sf.intervals[tau].length for sf in group])
        mean_is[tau] = mean([sf.scores[tau].total for sf in group])
    # Component means are taken on the same weighted-average scale as the WIS
    # so that dispersion + over + under sums to the mean WIS per cell.
    wts = WisWeights(levels)

    def wis_component(sf: ScoredForecast, attr: str) -> float:
        return (
            sum(w * getattr(sf.scores[tau], attr) for tau, w in zip(levels, wts.weights))
            / wts.total
        )

    return CellStats(
        n=len(group),
        mean_wis=mean([sf.wis for sf in group]),
        mean_dispersion=mean([wis_component(sf, "dispersion") for sf in group]),
        mean_overprediction=mean([wis_component(sf, "overprediction") for sf in group]),
        mean_underprediction=mean([wis_component(sf, "underprediction") for sf in group]),
        coverage=coverage,
        mean_length=mean_length,
        mean_is=mean_is,
    )


def aggregate_report(
    scored: Iterable[ScoredForecast],
    levels: tuple[float, ...],
    exclusions: Sequence[tuple[str, int, int]] = (),
) -> EvaluationReport:
    """Aggregate scored forecasts into per-cell and country-pooled statistics.

    ``exclusions`` are (country, first-year, last-year) spans dropped before
    aggregation. Empty cells are omitted with a warning rather than failing.
    """
    kept: list[ScoredForecast] = []
    report = EvaluationReport(levels=levels)
    for sf in scored:
        excluded = any(
            sf.target.country == c and lo <= sf.target_year <= hi
            for c, lo, hi in exclusions
        )
        if excluded:
            continue
        kept.append(sf)
    if not kept:
        report.warnings.append("no scored forecasts after exclusions")
        return report
    groups: dict[tuple[str, str, str, str], list[ScoredForecast]] = {}
    for sf in kept:
        key = (sf.target.country, sf.target.variable, sf.horizon.label, sf.method)
        groups.setdefault(key, []).append(sf)
        pooled = (POOLED, sf.target.variable, sf.horizon.label, sf.method)
        groups.setdefault(pooled, []).append(sf)
    for key, group in groups.items():
        report.cells[key] = _cell_stats(group, levels)
    return report
