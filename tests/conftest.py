"""Shared fixtures: synthetic forecast panels and quarterly series."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import settings

from intervalcast.benchmark import (
    InsufficientQuarterlyHistoryError,
    aggregate_annual,
    annual_window,
    forecast_ar1_path,
    quarter_cutoff,
)
from intervalcast.domain import HORIZONS, ReleaseDate, Season, TargetId, horizon_of
from intervalcast.ingest import (
    FORECAST_HEADER,
    DuplicateRecordError,
    ForecastPanel,
    SchemaMismatchError,
    _check_header,
    _parse_int,
    _parse_value,
)
from intervalcast.intervals import PredictionInterval, pool_level_rows

DEFAULT_SIGMAS = {h: 0.5 + 0.25 * h.index for h in HORIZONS}

# HYPOTHESIS_PROFILE=ci: reproducible examples, and more of them where a test
# does not set its own count. Local runs keep hypothesis's default profile.
settings.register_profile("ci", derandomize=True, max_examples=300)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

# Acceptance-criterion result lines, replayed after capture ends.
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def make_panel(
    countries=("AAA", "BBB"),
    variables=("gdp",),
    first_year=1990,
    last_year=2023,
    sigmas=None,
    seed=0,
    truth_loc=2.0,
    truth_scale=1.0,
) -> ForecastPanel:
    """Panel with i.i.d. Gaussian truths, forecasts = truth - error, and
    unrevised realization vintages at spring and fall of the following year."""
    sigmas = dict(DEFAULT_SIGMAS if sigmas is None else sigmas)
    rng = np.random.default_rng(seed)
    forecasts, realizations = {}, {}
    for country in countries:
        for variable in variables:
            target = TargetId(country=country, variable=variable)
            for year in range(first_year, last_year + 2):
                truth = float(rng.normal(truth_loc, truth_scale))
                for horizon in HORIZONS:
                    origin = horizon.origin_for(year)
                    if not first_year <= origin.year <= last_year:
                        continue
                    err = float(rng.normal(0.0, sigmas[horizon]))
                    forecasts[(target, origin, year)] = truth - err
                if year > last_year:
                    continue
                for season in (Season.SPRING, Season.FALL):
                    realizations[(target, year, ReleaseDate(year + 1, season))] = truth
    return ForecastPanel(forecasts, realizations, source="synthetic")


def parse_forecast_panel_per_row(stream, source=""):
    """``ingest.parse_forecast_panel`` as it was before its token tables: every
    row's tokens parsed and checked afresh, and a new ``TargetId`` and
    ``ReleaseDate`` per row. The oracle of the table-driven parser."""
    reader = csv.reader(stream)
    _check_header(reader, FORECAST_HEADER)
    forecasts, realizations, skipped = {}, {}, []
    # The first line of each forecast and realization key.
    seen = {}
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


def without(panel, forecasts=(), realizations=()) -> ForecastPanel:
    """A copy of ``panel`` without the given forecast and realization keys,
    each of which it must hold."""
    forecasts, realizations = set(forecasts), set(realizations)
    for keys, mapping in ((forecasts, panel.forecasts), (realizations, panel.realizations)):
        missing = [key for key in keys if key not in mapping]
        if missing:
            raise KeyError(missing)
    return ForecastPanel(
        {k: v for k, v in panel.forecasts.items() if k not in forecasts},
        {k: v for k, v in panel.realizations.items() if k not in realizations},
        source=panel.source,
        skipped=panel.skipped,
    )


def interval_from_offsets(point, tau, offs) -> PredictionInterval:
    """The interval ``point`` plus ``offs`` at level ``tau``, flagged as the
    audit row flags it: degenerate when its ends meet, excludes_center when
    the point lies outside."""
    lower = point + offs.lower
    upper = point + offs.upper
    return PredictionInterval(
        level=tau,
        lower=lower,
        upper=upper,
        center=point,
        degenerate=lower == upper,
        excludes_center=not (lower <= point <= upper),
    )


def benchmark_forecast_per_quarter(series, origin, horizon, fit) -> float:
    """The annual AR(1) forecast read quarter by quarter: observed quarters up
    to the origin's cutoff, then step ``k`` of one path as long as the
    furthest quarter's step. The oracle of ``benchmark.benchmark_forecast``."""
    if horizon.season is not origin.season:
        raise ValueError(
            f"horizon {horizon.label} cannot be issued at a "
            f"{origin.season.name.lower()} origin"
        )
    target_year = origin.year + horizon.year_offset
    cutoff = quarter_cutoff(origin)
    last_value = series.value(cutoff)
    assert last_value is not None

    def index(q):
        return q[0] * 4 + q[1] - 1

    window_quarters = annual_window(target_year)
    max_steps = max(index(q) - index(cutoff) for q in window_quarters)
    path = forecast_ar1_path(fit, last_value, max_steps) if max_steps >= 1 else []
    values = []
    for q in window_quarters:
        steps_ahead = index(q) - index(cutoff)
        if steps_ahead <= 0:
            observed = series.value(q)
            if observed is None:
                raise InsufficientQuarterlyHistoryError(
                    f"missing observed quarter {q} before origin cutoff {cutoff}"
                )
            values.append(observed)
        else:
            values.append(path[steps_ahead - 1])
    return aggregate_annual(values)


def pool_adjacent_horizons(columns):
    """``pool_level_rows`` over ``columns``, which map each level to (lower
    offsets, upper offsets) in horizon order; returns columns and blocks."""
    levels = list(columns)
    if len({len(side) for sides in columns.values() for side in sides}) > 1:
        raise ValueError("all levels must cover the same horizons")
    lowers, uppers, blocks = pool_level_rows(
        list(zip(*[columns[tau][0] for tau in levels])),
        list(zip(*[columns[tau][1] for tau in levels])),
    )
    corrected = {
        tau: ([row[k] for row in lowers], [row[k] for row in uppers])
        for k, tau in enumerate(levels)
    }
    return corrected, blocks


def dumped_tuning(report) -> str:
    """``tuning.json`` as ``json.dumps`` renders it, each row through
    ``asdict`` with its coverage keyed by ``str(level)``: the oracle of
    ``TuningReport.to_json``."""
    rows = [
        {**asdict(r), "coverage": {str(tau): c for tau, c in sorted(r.coverage.items())}}
        for r in report.rows
    ]
    return json.dumps({"levels": list(report.levels), "rows": rows}, indent=2, sort_keys=True) + "\n"


def tuning_cell(report, window, error_method, quantile_method, variable, horizon):
    """The tuning row of one grid point and (variable, horizon) cell, or None."""
    wanted = (window, error_method, quantile_method, variable, horizon)
    return next(
        (
            row for row in report.rows
            if (row.window, row.error_method, row.quantile_method, row.variable, row.horizon)
            == wanted
        ),
        None,
    )


@pytest.fixture
def small_panel() -> ForecastPanel:
    return make_panel()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
