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
import hashlib
import io
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, TextIO

from intervalcast.benchmark import QuarterlySeries
from intervalcast.domain import ReleaseDate, Season, TargetId, horizon_of

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


class FallbackRule(Enum):
    LATEST_AVAILABLE = "latest-available-release"
    NONE = "none"


@dataclass(frozen=True)
class ForecastPanel:
    """Read-only store of point forecasts, keyed (target, origin, target year),
    and realization vintages, keyed (target, target year, vintage).

    The constructor copies both mappings once and exposes read-only views;
    no attribute can be reassigned, so a variant is a new panel. The vintage
    index and the input digest are built once, on first use.
    """

    forecasts: Mapping[tuple[TargetId, ReleaseDate, int], float]
    realizations: Mapping[tuple[TargetId, int, ReleaseDate], float]
    source: str = ""
    skipped: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        # The hot path reads the private copies: a proxy lookup costs twice a dict's.
        forecasts, realizations = dict(self.forecasts), dict(self.realizations)
        object.__setattr__(self, "_forecasts", forecasts)
        object.__setattr__(self, "_realizations", realizations)
        object.__setattr__(self, "forecasts", MappingProxyType(forecasts))
        object.__setattr__(self, "realizations", MappingProxyType(realizations))
        object.__setattr__(self, "skipped", tuple(self.skipped))

    def forecast(self, target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        return self._forecasts.get((target, origin, target_year))

    def vintages_for(self, target: TargetId, target_year: int) -> list[tuple[ReleaseDate, float]]:
        return list(self._vintage_index.get((target, target_year), ()))

    @cached_property
    def _vintage_index(self) -> dict[tuple[TargetId, int], tuple[tuple[ReleaseDate, float], ...]]:
        index: dict[tuple[TargetId, int], list[tuple[ReleaseDate, float]]] = {}
        for (t, y, vintage), value in self._realizations.items():
            index.setdefault((t, y), []).append((vintage, value))
        return {key: tuple(sorted(pairs)) for key, pairs in index.items()}

    @cached_property
    def content_tag(self) -> str:
        """The ``generated_at`` tag of forecast files: ``input-`` and 16 hex
        digits of the SHA-256 of the canonical CSV."""
        digest = hashlib.sha256(self.to_canonical_csv().encode("utf-8")).hexdigest()
        return f"input-{digest[:16]}"

    def countries(self) -> list[str]:
        return sorted({t.country for (t, _, _) in self._forecasts})

    def variables(self) -> list[str]:
        return sorted({t.variable for (t, _, _) in self._forecasts})

    def max_vintage(self) -> Optional[ReleaseDate]:
        vintages = [v for (_, _, v) in self._realizations]
        return max(vintages) if vintages else None

    def until_vintage(self, cutoff: ReleaseDate, last_origin_year: int) -> "ForecastPanel":
        """A new panel of the forecasts from origins up to ``cutoff`` and in
        or before ``last_origin_year``, and the vintages up to ``cutoff``:
        tuning's view, which holds no hold-out data."""
        last_origin = min(cutoff, ReleaseDate(last_origin_year, Season.FALL))
        return ForecastPanel(
            {key: value for key, value in self._forecasts.items() if key[1] <= last_origin},
            {key: value for key, value in self._realizations.items() if key[2] <= cutoff},
            source=f"{self.source} (<= {cutoff})",
        )

    def to_canonical_csv(self) -> str:
        """Stable serialization: sorted rows, fixed numeric formatting."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(FORECAST_HEADER)
        forecast_rows = sorted(
            (t.country, t.variable, origin.year, origin.season.value, year, value)
            for (t, origin, year), value in self._forecasts.items()
        )
        for country, variable, oy, os_, ty, value in forecast_rows:
            writer.writerow(
                [country, variable, "forecast", oy, os_, ty, "NA", "NA", format(value, ".10g")]
            )
        realization_rows = sorted(
            (t.country, t.variable, year, vintage.year, vintage.season.value, value)
            for (t, year, vintage), value in self._realizations.items()
        )
        for country, variable, ty, vy, vs, value in realization_rows:
            writer.writerow(
                [country, variable, "realization", "NA", "NA", ty, vy, vs, format(value, ".10g")]
            )
        return buf.getvalue()


def _check_header(reader: Iterator[list[str]], expected: list[str]) -> None:
    row = next(reader, None)  # the header
    if row is None:
        raise SchemaMismatchError("schema mismatch: empty file")
    if [c.strip() for c in row] != expected:
        raise SchemaMismatchError(
            f"schema mismatch: expected header {','.join(expected)}, got {','.join(row)}"
        )


def _parse_value(token: str) -> Optional[float]:
    if token.strip() in NA_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise SchemaMismatchError(f"unparseable value {token!r}") from None
    if not math.isfinite(value):
        raise SchemaMismatchError(f"non-finite value {token!r}")
    return value


def _parse_int(token: str, column: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SchemaMismatchError(f"unparseable {column} {token!r}") from None


def parse_forecast_panel(stream: TextIO, source: str = "") -> ForecastPanel:
    """Parse the long-format forecast/realization CSV into a panel.

    Rows with a missing value token are skipped and recorded in
    ``panel.skipped`` with their line numbers. Duplicate keys and malformed
    rows raise with line-numbered diagnostics.
    """
    reader = csv.reader(stream)
    _check_header(reader, FORECAST_HEADER)
    forecasts: dict[tuple[TargetId, ReleaseDate, int], float] = {}
    realizations: dict[tuple[TargetId, int, ReleaseDate], float] = {}
    skipped: list[tuple[int, str]] = []
    # The first line of each forecast and realization key.
    seen: dict[object, int] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) != len(FORECAST_HEADER):
                raise SchemaMismatchError(
                    f"expected {len(FORECAST_HEADER)} columns, got {len(row)}"
                )
            country, variable, kind, oy, os_, ty, vy, vs, value_token = [c.strip() for c in row]
            value = _parse_value(value_token)
            if value is None:
                skipped.append((line, "missing value"))
                continue
            target = TargetId(country=country, variable=variable)
            target_year = _parse_int(ty, "target_year")
            if kind == "forecast":
                origin = ReleaseDate(_parse_int(oy, "origin_year"), Season.parse(os_))
                horizon_of(origin, target_year)  # raises for an unsupported horizon
                key, store = (target, origin, target_year), forecasts
            elif kind == "realization":
                vintage = ReleaseDate(_parse_int(vy, "vintage_year"), Season.parse(vs))
                if vintage.year < target_year:
                    raise ValueError(f"vintage {vintage} predates target year {target_year}")
                key, store = (target, target_year, vintage), realizations
            else:
                raise SchemaMismatchError(f"unknown kind {kind!r}")
        except ValueError as exc:
            raise type(exc)(f"line {line}: {exc}") from None
        first = seen.setdefault(key, line)
        if first != line:
            what = (
                f"forecast {country}/{variable} origin {origin} target {target_year}"
                if kind == "forecast"
                else f"realization {country}/{variable} target {target_year} vintage {vintage}"
            )
            raise DuplicateRecordError(f"duplicate record: {what} at lines {first} and {line}")
        store[key] = value
    return ForecastPanel(forecasts, realizations, source=source, skipped=skipped)


def select_truth(
    panel: ForecastPanel,
    target: TargetId,
    target_year: int,
    as_of: ReleaseDate,
    rule: FallbackRule = FallbackRule.LATEST_AVAILABLE,
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
    fall_after = ReleaseDate(target_year + 1, Season.FALL)
    settled = panel._realizations.get((target, target_year, fall_after))
    if settled is not None and fall_after <= as_of:
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
    if rule is FallbackRule.LATEST_AVAILABLE:
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
    rule: FallbackRule = FallbackRule.LATEST_AVAILABLE
    mode: str = "construction"

    def __call__(self, target: TargetId, year: int, as_of: ReleaseDate) -> Optional[float]:
        # Years that have not ended cannot serve as error-history truths.
        if year >= as_of.year:
            return None
        try:
            return select_truth(self.panel, target, year, as_of, self.rule, mode=self.mode)
        except TruthUnavailableError:
            return None

    def settled(self, target: TargetId, year: int) -> Optional[tuple[ReleaseDate, float]]:
        """The fall release after ``year`` and its value, which ``select_truth``
        takes first in both modes once out; None when the panel lacks it."""
        fall_after = ReleaseDate(year + 1, Season.FALL)
        truth = self.panel._realizations.get((target, year, fall_after))
        return None if truth is None else (fall_after, truth)


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
    _check_header(reader, QUARTERLY_HEADER)
    index_set = set(index_variables)
    levels: dict[TargetId, dict[tuple[int, int], float]] = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) != len(QUARTERLY_HEADER):
                raise SchemaMismatchError(
                    f"expected {len(QUARTERLY_HEADER)} columns, got {len(row)}"
                )
            country, variable, year_tok, quarter_tok, value_token = [c.strip() for c in row]
            value = _parse_value(value_token)
            if value is None:
                continue
            year = _parse_int(year_tok, "year")
            quarter = _parse_int(quarter_tok, "quarter")
            if quarter not in (1, 2, 3, 4):
                raise SchemaMismatchError(f"quarter must be 1-4, got {quarter}")
            target = TargetId(country=country, variable=variable)
            if variable in index_set and value <= 0:
                raise SchemaMismatchError(
                    f"invalid level {value} (index levels must be positive)"
                )
        except ValueError as exc:
            raise type(exc)(f"line {line}: {exc}") from None
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
