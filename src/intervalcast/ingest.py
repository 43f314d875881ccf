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
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from intervalcast.benchmark import QuarterlySeries
from intervalcast.domain import ReleaseDate, Season, Table, TargetId, Token, horizon_of

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


class FallbackRule(Token):
    LATEST_AVAILABLE = "latest-available-release"
    NONE = "none"


@dataclass(frozen=True)
class ForecastPanel:
    """Read-only store of point forecasts, keyed (target, origin, target year),
    and realization vintages, keyed (target, target year, vintage).

    The constructor copies both mappings once and exposes read-only views;
    no attribute can be reassigned, so a variant is a new panel. The vintage
    index, target list, input digest and grid memo are built on first use.
    """

    forecasts: Mapping[tuple[TargetId, ReleaseDate, int], float]
    realizations: Mapping[tuple[TargetId, int, ReleaseDate], float]
    source: str = ""
    skipped: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "forecasts", MappingProxyType(dict(self.forecasts)))
        object.__setattr__(self, "realizations", MappingProxyType(dict(self.realizations)))
        object.__setattr__(self, "skipped", tuple(self.skipped))

    def forecast(self, target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        return self.forecasts.get((target, origin, target_year))

    def settled_truth(self, target: TargetId, year: int) -> Optional[tuple[ReleaseDate, float]]:
        """The fall release after ``year`` and its value, the year's truth at
        every release from then on under both truth rules; None when absent."""
        return self._settled.get((target, year))

    @cached_property
    def _settled(self) -> dict[tuple[TargetId, int], tuple[ReleaseDate, float]]:
        """``settled_truth`` of each (target, year) that has one, indexed once."""
        return {(t, y): (v, value) for (t, y, v), value in self.realizations.items()
                if v.season is Season.FALL and v.year == y + 1}

    def vintages_for(self, target: TargetId, target_year: int) -> list[tuple[ReleaseDate, float]]:
        return list(self._vintage_index.get((target, target_year), ()))

    @cached_property
    def _vintage_index(self) -> dict[tuple[TargetId, int], tuple[tuple[ReleaseDate, float], ...]]:
        index: dict[tuple[TargetId, int], list[tuple[ReleaseDate, float]]] = {}
        for (t, y, vintage), value in self.realizations.items():
            index.setdefault((t, y), []).append((vintage, value))
        return {key: tuple(sorted(pairs)) for key, pairs in index.items()}

    @cached_property
    def targets(self) -> tuple[TargetId, ...]:
        """The panel's forecast targets, sorted by country, then variable."""
        return tuple(sorted({t for (t, _, _) in self.forecasts}, key=lambda t: (t.country, t.variable)))

    @cached_property
    def _grids(self) -> dict[tuple, dict]:
        """The pipeline's IMF grids on this panel, by the config fields they use."""
        return {}

    @cached_property
    def content_tag(self) -> str:
        """The ``generated_at`` tag of forecast files: ``input-`` and 16 hex
        digits of the SHA-256 of the canonical CSV."""
        digest = hashlib.sha256(self.to_canonical_csv().encode("utf-8")).hexdigest()
        return f"input-{digest[:16]}"

    def countries(self) -> list[str]:
        return sorted({t.country for t in self.targets})

    def variables(self) -> list[str]:
        return sorted({t.variable for t in self.targets})

    def max_vintage(self) -> Optional[ReleaseDate]:
        vintages = [v for (_, _, v) in self.realizations]
        return max(vintages) if vintages else None

    def until_vintage(self, cutoff: ReleaseDate, last_origin_year: int) -> "ForecastPanel":
        """A new panel of the forecasts from origins up to ``cutoff`` and in
        or before ``last_origin_year``, and the vintages up to ``cutoff``:
        tuning's view, which holds no hold-out data."""
        last_origin = min(cutoff, ReleaseDate(last_origin_year, Season.FALL))
        return ForecastPanel(
            {key: value for key, value in self.forecasts.items() if key[1] <= last_origin},
            {key: value for key, value in self.realizations.items() if key[2] <= cutoff},
            source=f"{self.source} (<= {cutoff})",
        )

    def to_canonical_csv(self) -> str:
        """Stable serialization: sorted rows, fixed numeric formatting."""
        forecast_rows = sorted(
            (t.country, t.variable, origin.year, origin.season.value, year, value)
            for (t, origin, year), value in self.forecasts.items()
        )
        realization_rows = sorted(
            (t.country, t.variable, year, vintage.year, vintage.season.value, value)
            for (t, year, vintage), value in self.realizations.items()
        )
        return csv_text(FORECAST_HEADER, chain(
            ([country, variable, "forecast", oy, os_, ty, "NA", "NA", format(value, ".10g")]
             for country, variable, oy, os_, ty, value in forecast_rows),
            ([country, variable, "realization", "NA", "NA", ty, vy, vs, format(value, ".10g")]
             for country, variable, ty, vy, vs, value in realization_rows),
        ))


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The CSV text of ``header`` and then ``rows``, each line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_input(path: str, parse: Callable[[TextIO], Any]) -> Any:
    """``parse`` of the UTF-8 file at ``path``, after the byte-order mark a spreadsheet
    export starts with, if any; every ``ValueError`` of the read names the file."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            return parse(fh)
        except ValueError as exc:  # text that is not UTF-8 or not JSON, and schema and row errors
            raise ValueError(f"{path}: {exc}") from None


def _rows(stream: TextIO, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The line and stripped cells of each nonblank row below ``header``."""
    reader = csv.reader(stream)
    _check_header(reader, header)
    for line, row in enumerate(reader, start=2):
        if not any(cells := [c.strip() for c in row]):
            continue
        if len(cells) != len(header):
            raise SchemaMismatchError(f"line {line}: expected {len(header)} columns, got {len(row)}")
        yield line, cells


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
    rows raise with line-numbered diagnostics. Equal targets and releases share one object.
    """
    forecasts: dict[tuple[TargetId, ReleaseDate, int], float] = {}
    realizations: dict[tuple[TargetId, int, ReleaseDate], float] = {}
    skipped: list[tuple[int, str]] = []
    targets, years = Table(lambda names: TargetId(*names)), Table(lambda t: _parse_int(t, "target_year"))
    releases = Table(lambda release: release)  # equal releases share the first object
    origins = Table(lambda t: releases[ReleaseDate(_parse_int(t[0], "origin_year"), Season.parse(t[1]))])
    vintages = Table(lambda t: releases[ReleaseDate(_parse_int(t[0], "vintage_year"), Season.parse(t[1]))])
    horizons = Table(lambda t: horizon_of(origins[t[:2]], years[t[2]]))
    # The line of each forecast and realization key, in insertion order.
    lines: dict[str, list[int]] = {"forecast": [], "realization": []}
    for line, cells in _rows(stream, FORECAST_HEADER):
        try:
            country, variable, kind, oy, os_, ty, vy, vs, value_token = cells
            value = _parse_value(value_token)
            if value is None:
                skipped.append((line, "missing value"))
                continue
            target = targets[country, variable]
            target_year = years[ty]
            if kind == "forecast":
                origin = origins[oy, os_]
                horizons[oy, os_, ty]  # raises for an unsupported horizon
                key, store = (target, origin, target_year), forecasts
            elif kind == "realization":
                vintage = vintages[vy, vs]
                if vintage.year < target_year:
                    raise ValueError(f"vintage {vintage} predates target year {target_year}")
                key, store = (target, target_year, vintage), realizations
            else:
                raise SchemaMismatchError(f"unknown kind {kind!r}")
        except ValueError as exc:
            raise type(exc)(f"line {line}: {exc}") from None
        if store.setdefault(key, value) is not value:  # each row's float is a new object
            first = lines[kind][list(store).index(key)]
            what = (
                f"forecast {country}/{variable} origin {origin} target {target_year}"
                if kind == "forecast"
                else f"realization {country}/{variable} target {target_year} vintage {vintage}"
            )
            raise DuplicateRecordError(f"duplicate record: {what} at lines {first} and {line}")
        lines[kind].append(line)
    return ForecastPanel(forecasts, realizations, source=source, skipped=skipped)


def select_truth(
    panel: ForecastPanel,
    target: TargetId,
    target_year: int,
    as_of: ReleaseDate,
    rule: FallbackRule = FallbackRule.LATEST_AVAILABLE,
) -> float:
    """Pick the realization vintage serving as truth for ``target_year``: the
    fall release of the following year, else, when the rule falls back, the
    latest release out by ``as_of``. Vintages after ``as_of`` are never used.
    """
    # The fall release after the target year, once dated at or before
    # ``as_of``, is the truth whatever else is out; read it directly.
    settled = panel.settled_truth(target, target_year)
    if settled is not None and settled[0] <= as_of:
        return settled[1]
    available = [pair for pair in panel.vintages_for(target, target_year) if pair[0] <= as_of]
    if not available:
        raise TruthUnavailableError(
            f"truth unavailable for {target.country}/{target.variable} {target_year} as of {as_of}"
        )
    if rule is FallbackRule.LATEST_AVAILABLE:
        return available[-1][1]  # the pairs are sorted by vintage
    raise TruthUnavailableError(
        f"truth unavailable for {target.country}/{target.variable} {target_year} "
        f"as of {as_of} (no admissible vintage under the rule)"
    )


@dataclass(frozen=True)
class PanelTruthSelector:
    """Error-history truths of a forecast panel under a truth rule: ``select_truth``'s,
    except that a spring origin takes the spring release after the preceding year,
    whose fall release is not out yet."""

    panel: ForecastPanel
    rule: FallbackRule = FallbackRule.LATEST_AVAILABLE

    def __call__(self, target: TargetId, year: int, as_of: ReleaseDate) -> Optional[float]:
        # Years that have not ended cannot serve as error-history truths.
        if year >= as_of.year:
            return None
        try:
            return select_truth(self.panel, target, year, as_of, self.rule)
        except TruthUnavailableError:
            # That spring release is out by ``as_of``; under the fallback it is already the latest.
            spring_after = ReleaseDate(year + 1, Season.SPRING)
            return self.panel.realizations.get((target, year, spring_after)) if year == as_of.year - 1 else None

    def settled(self, target: TargetId, year: int) -> Optional[tuple[ReleaseDate, float]]:
        return self.panel.settled_truth(target, year)


def parse_quarterly(
    stream: TextIO, index_variables: Iterable[str] = ("cpi",)
) -> dict[TargetId, QuarterlySeries]:
    """Parse quarterly benchmark data into per-target series.

    Variables listed in ``index_variables`` arrive as positive index levels
    and are converted to quarterly log growth in percent; all other variables
    are taken as quarterly growth rates already in percent. Missing quarters
    are left as gaps for the series to report.
    """
    index_set = set(index_variables)
    years, quarters = Table(lambda t: _parse_int(t, "year")), Table(lambda t: _parse_int(t, "quarter"))
    levels = Table(lambda names: (TargetId(*names), {}))  # names -> (target, (year, quarter) -> value)
    first_lines: dict[tuple[str, str, int, int], int] = {}
    for line, cells in _rows(stream, QUARTERLY_HEADER):
        try:
            country, variable, year_tok, quarter_tok, value_token = cells
            value = _parse_value(value_token)
            if value is None:
                continue
            year, quarter = years[year_tok], quarters[quarter_tok]
            if quarter not in (1, 2, 3, 4):
                raise SchemaMismatchError(f"quarter must be 1-4, got {quarter}")
            obs = levels[country, variable][1]
            if variable in index_set and value <= 0:
                raise SchemaMismatchError(
                    f"invalid level {value} (index levels must be positive)"
                )
        except ValueError as exc:
            raise type(exc)(f"line {line}: {exc}") from None
        if (first := first_lines.setdefault((country, variable, year, quarter), line)) != line:
            what = f"quarterly {country}/{variable} {year} quarter {quarter}"
            raise DuplicateRecordError(f"duplicate record: {what} at lines {first} and {line}")
        obs[year, quarter] = value
    return {
        target: QuarterlySeries(target=target, growth=_log_growth(obs) if target.variable in index_set else obs)
        for target, obs in levels.values()
    }


def _log_growth(levels: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    """Quarterly log growth (percent) from index levels; gaps break the chain."""
    growth: dict[tuple[int, int], float] = {}
    for (year, quarter), level in levels.items():
        prev = (year, quarter - 1) if quarter > 1 else (year - 1, 4)
        if prev in levels:
            growth[(year, quarter)] = 100.0 * math.log(level / levels[prev])
    return growth
