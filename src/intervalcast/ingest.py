"""Panel ingestion and truth-vintage selection.

Forecasts and realizations share one long-format CSV schema:

    country,variable,kind,origin_year,origin_season,target_year,vintage_year,vintage_season,value

``kind`` is ``forecast`` (origin columns filled, vintage columns empty/NA) or
``realization`` (vintage columns filled, origin columns empty/NA). Seasons are
``S``/``F``, the missing-value token is ``NA``, values are percent per year.

Quarterly benchmark data use the schema ``country,variable,year,quarter,value``;
``cpi`` rows carry index levels (converted to log growth), ``gdp`` rows carry
quarterly growth rates in percent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, TextIO

from intervalcast.benchmark import QuarterlySeries
from intervalcast.domain import (
    ForecastRecord,
    RealizationVintage,
    ReleaseDate,
    Season,
    TargetId,
)

FORECAST_HEADER = [
    "country",
    "variable",
    "kind",
    "origin_year",
    "origin_season",
    "target_year",
    "vintage_year",
    "vintage_season",
    "value",
]
QUARTERLY_HEADER = ["country", "variable", "year", "quarter", "value"]
NA_TOKENS = {"", "NA", "n/a", "N/A", "na"}


class SchemaMismatchError(ValueError):
    pass


class DuplicateRecordError(ValueError):
    pass


class TruthUnavailableError(LookupError):
    pass


class EvaluationRule(Enum):
    FIRST_FALL_AFTER_TARGET_YEAR = "first-fall-release-after-target-year"


class ConstructionRule(Enum):
    FALL_ELSE_SPRING_FOR_PRECEDING_YEAR = "fall-release-else-spring-for-preceding-year"


class FallbackRule(Enum):
    LATEST_AVAILABLE = "latest-available-release"
    NONE = "none"


@dataclass(frozen=True)
class TruthRule:
    evaluation: EvaluationRule = EvaluationRule.FIRST_FALL_AFTER_TARGET_YEAR
    construction: ConstructionRule = ConstructionRule.FALL_ELSE_SPRING_FOR_PRECEDING_YEAR
    fallback: FallbackRule = FallbackRule.LATEST_AVAILABLE


@dataclass
class ForecastPanel:
    """Immutable-once-built store of point forecasts and realization vintages."""

    forecasts: dict[tuple[TargetId, ReleaseDate, int], float] = field(default_factory=dict)
    realizations: dict[tuple[TargetId, int, ReleaseDate], float] = field(default_factory=dict)
    source: str = ""
    skipped: list[tuple[int, str]] = field(default_factory=list)

    def forecast(self, target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        return self.forecasts.get((target, origin, target_year))

    def add_forecast(self, rec: ForecastRecord, line: Optional[int] = None) -> None:
        key = (rec.target, rec.origin, rec.target_year)
        if key in self.forecasts:
            raise DuplicateRecordError(
                f"duplicate record: forecast {rec.target.country}/{rec.target.variable} "
                f"origin {rec.origin} target {rec.target_year}"
                + (f" (line {line})" if line else "")
            )
        self.forecasts[key] = rec.value

    def add_realization(self, rec: RealizationVintage, line: Optional[int] = None) -> None:
        key = (rec.target, rec.target_year, rec.vintage)
        if key in self.realizations:
            raise DuplicateRecordError(
                f"duplicate record: realization {rec.target.country}/{rec.target.variable} "
                f"target {rec.target_year} vintage {rec.vintage}"
                + (f" (line {line})" if line else "")
            )
        self.realizations[key] = rec.value

    def vintages_for(self, target: TargetId, target_year: int) -> list[tuple[ReleaseDate, float]]:
        return self._vintage_index().get((target, target_year), [])

    def _vintage_index(self) -> dict[tuple[TargetId, int], list[tuple[ReleaseDate, float]]]:
        # Rebuilt whenever the number of realizations changes; truth selection
        # is called once per error-set source year, so a linear scan per call
        # would dominate the pipeline runtime.
        cached_size = self.__dict__.get("_index_size")
        if cached_size != len(self.realizations):
            index: dict[tuple[TargetId, int], list[tuple[ReleaseDate, float]]] = {}
            for (t, y, vintage), value in self.realizations.items():
                index.setdefault((t, y), []).append((vintage, value))
            for vintages in index.values():
                vintages.sort(key=lambda pair: pair[0])
            self.__dict__["_index"] = index
            self.__dict__["_index_size"] = len(self.realizations)
        return self.__dict__["_index"]

    def countries(self) -> list[str]:
        return sorted({t.country for (t, _, _) in self.forecasts})

    def variables(self) -> list[str]:
        return sorted({t.variable for (t, _, _) in self.forecasts})

    def max_vintage(self) -> Optional[ReleaseDate]:
        vintages = [v for (_, _, v) in self.realizations]
        return max(vintages) if vintages else None

    def until_vintage(self, cutoff: ReleaseDate) -> "ForecastPanel":
        """Span-scoped view: drop forecasts and vintages after ``cutoff``.

        Used to keep tuning from ever touching hold-out data.
        """
        view = ForecastPanel(source=f"{self.source} (<= {cutoff})")
        view.forecasts = {
            key: value for key, value in self.forecasts.items() if key[1] <= cutoff
        }
        view.realizations = {
            key: value for key, value in self.realizations.items() if key[2] <= cutoff
        }
        return view

    def to_canonical_csv(self) -> str:
        """Stable serialization: sorted rows, fixed numeric formatting."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(FORECAST_HEADER)
        forecast_rows = sorted(
            (t.country, t.variable, origin.year, origin.season.value, year, value)
            for (t, origin, year), value in self.forecasts.items()
        )
        for country, variable, oy, os_, ty, value in forecast_rows:
            writer.writerow(
                [country, variable, "forecast", oy, os_, ty, "NA", "NA", format(value, ".10g")]
            )
        realization_rows = sorted(
            (t.country, t.variable, year, vintage.year, vintage.season.value, value)
            for (t, year, vintage), value in self.realizations.items()
        )
        for country, variable, ty, vy, vs, value in realization_rows:
            writer.writerow(
                [country, variable, "realization", "NA", "NA", ty, vy, vs, format(value, ".10g")]
            )
        return buf.getvalue()


def _check_header(row: list[str], expected: list[str]) -> None:
    if [c.strip() for c in row] != expected:
        raise SchemaMismatchError(
            f"schema mismatch: expected header {','.join(expected)}, got {','.join(row)}"
        )


def _parse_value(token: str, line: int) -> Optional[float]:
    if token.strip() in NA_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError as exc:
        raise SchemaMismatchError(f"line {line}: unparseable value {token!r}") from exc
    if not math.isfinite(value):
        raise SchemaMismatchError(f"line {line}: non-finite value {token!r}")
    return value


def _parse_int(token: str, line: int, column: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise SchemaMismatchError(f"line {line}: unparseable {column} {token!r}") from exc


def parse_forecast_panel(stream: TextIO, source: str = "") -> ForecastPanel:
    """Parse the long-format forecast/realization CSV into a panel.

    Rows with a missing value token are skipped and recorded in
    ``panel.skipped`` with their line numbers. Duplicate keys and malformed
    rows raise with line-numbered diagnostics.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatchError("schema mismatch: empty file") from None
    _check_header(header, FORECAST_HEADER)
    panel = ForecastPanel(source=source)
    seen: dict[object, int] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(FORECAST_HEADER):
            raise SchemaMismatchError(
                f"line {line}: expected {len(FORECAST_HEADER)} columns, got {len(row)}"
            )
        country, variable, kind, oy, os_, ty, vy, vs, value_token = [c.strip() for c in row]
        value = _parse_value(value_token, line)
        if value is None:
            panel.skipped.append((line, "missing value"))
            continue
        target = TargetId(country=country, variable=variable)
        target_year = _parse_int(ty, line, "target_year")
        if kind == "forecast":
            origin = ReleaseDate(_parse_int(oy, line, "origin_year"), Season.parse(os_))
            rec = ForecastRecord(target=target, origin=origin, target_year=target_year, value=value)
            key = ("forecast", rec.target, rec.origin, rec.target_year)
            if key in seen:
                raise DuplicateRecordError(
                    f"duplicate record: forecast {country}/{variable} origin {origin} "
                    f"target {target_year} at lines {seen[key]} and {line}"
                )
            seen[key] = line
            panel.add_forecast(rec, line=line)
        elif kind == "realization":
            vintage = ReleaseDate(_parse_int(vy, line, "vintage_year"), Season.parse(vs))
            rec = RealizationVintage(
                target=target, target_year=target_year, vintage=vintage, value=value
            )
            key = ("realization", rec.target, rec.target_year, rec.vintage)
            if key in seen:
                raise DuplicateRecordError(
                    f"duplicate record: realization {country}/{variable} target "
                    f"{target_year} vintage {vintage} at lines {seen[key]} and {line}"
                )
            seen[key] = line
            panel.add_realization(rec, line=line)
        else:
            raise SchemaMismatchError(f"line {line}: unknown kind {kind!r}")
    return panel


def select_truth(
    panel: ForecastPanel,
    target: TargetId,
    target_year: int,
    as_of: ReleaseDate,
    rule: TruthRule = TruthRule(),
    mode: str = "evaluation",
) -> float:
    """Pick the realization vintage serving as truth for ``target_year``.

    Evaluation mode prefers the fall release of the following year.
    Construction mode additionally accepts the spring release of the following
    year for the directly preceding target year (the fall release is not out
    yet at a spring origin). Either mode falls back to the latest admissible
    release when configured, and never uses vintages after ``as_of``.
    """
    if mode not in ("evaluation", "construction"):
        raise ValueError(f"unknown truth mode {mode!r}")
    # The fall release after the target year, once dated at or before
    # ``as_of``, is the truth whatever else is out; read it directly.
    if target_year + 1 < as_of.year or (
        target_year + 1 == as_of.year and as_of.season is Season.FALL
    ):
        fall_after = ReleaseDate(target_year + 1, Season.FALL)
        settled = panel.realizations.get((target, target_year, fall_after))
        if settled is not None:
            return settled
    available = {v: val for v, val in panel.vintages_for(target, target_year) if v <= as_of}
    if not available:
        raise TruthUnavailableError(
            f"truth unavailable for {target.country}/{target.variable} {target_year} as of {as_of}"
        )
    if mode == "construction":
        spring_after = ReleaseDate(target_year + 1, Season.SPRING)
        if target_year == as_of.year - 1 and spring_after in available:
            return available[spring_after]
    if rule.fallback is FallbackRule.LATEST_AVAILABLE:
        latest = max(available)
        return available[latest]
    raise TruthUnavailableError(
        f"truth unavailable for {target.country}/{target.variable} {target_year} "
        f"as of {as_of} (no admissible vintage under the rule)"
    )


@dataclass(frozen=True)
class PanelTruthSelector:
    """Realization selector backed by a forecast panel and truth rule."""

    panel: ForecastPanel
    rule: TruthRule = TruthRule()
    mode: str = "construction"

    def __call__(self, target: TargetId, year: int, as_of: ReleaseDate) -> Optional[float]:
        # Years that have not ended cannot serve as error-history truths.
        if year >= as_of.year:
            return None
        try:
            return select_truth(self.panel, target, year, as_of, self.rule, mode=self.mode)
        except TruthUnavailableError:
            return None


def parse_quarterly(
    stream: TextIO, index_variables: Iterable[str] = ("cpi",)
) -> dict[TargetId, QuarterlySeries]:
    """Parse quarterly benchmark data into per-target series.

    Variables listed in ``index_variables`` arrive as positive index levels
    and are converted to quarterly log growth in percent; all other variables
    are taken as quarterly growth rates already in percent. Missing quarters
    are left as gaps for the series to report.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaMismatchError("schema mismatch: empty file") from None
    _check_header(header, QUARTERLY_HEADER)
    index_set = set(index_variables)
    levels: dict[TargetId, dict[tuple[int, int], float]] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(QUARTERLY_HEADER):
            raise SchemaMismatchError(
                f"line {line}: expected {len(QUARTERLY_HEADER)} columns, got {len(row)}"
            )
        country, variable, year_tok, quarter_tok, value_token = [c.strip() for c in row]
        value = _parse_value(value_token, line)
        if value is None:
            continue
        year = _parse_int(year_tok, line, "year")
        quarter = _parse_int(quarter_tok, line, "quarter")
        if quarter not in (1, 2, 3, 4):
            raise SchemaMismatchError(f"line {line}: quarter must be 1-4, got {quarter}")
        target = TargetId(country=country, variable=variable)
        if variable in index_set and value <= 0:
            raise SchemaMismatchError(
                f"line {line}: invalid level {value} (index levels must be positive)"
            )
        levels.setdefault(target, {})[(year, quarter)] = value
    out: dict[TargetId, QuarterlySeries] = {}
    for target, obs in levels.items():
        if target.variable in index_set:
            growth = _log_growth(obs)
        else:
            growth = dict(obs)
        out[target] = QuarterlySeries(target=target, growth=growth)
    return out


def _log_growth(levels: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Quarterly log growth (percent) from index levels; gaps break the chain."""
    growth: dict[tuple[int, int], float] = {}
    for (year, quarter), level in levels.items():
        prev = (year, quarter - 1) if quarter > 1 else (year - 1, 4)
        if prev in levels:
            growth[(year, quarter)] = 100.0 * math.log(level / levels[prev])
    return growth
