"""Shared fixtures: synthetic forecast panels and quarterly series."""

from __future__ import annotations

import numpy as np
import pytest

from intervalcast.domain import HORIZONS, ReleaseDate, Season, TargetId
from intervalcast.ingest import ForecastPanel

DEFAULT_SIGMAS = {h: 0.5 + 0.25 * h.index for h in HORIZONS}

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
    panel = ForecastPanel(source="synthetic")
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
                    panel.forecasts[(target, origin, year)] = truth - err
                if year > last_year:
                    continue
                for season in (Season.SPRING, Season.FALL):
                    panel.realizations[(target, year, ReleaseDate(year + 1, season))] = truth
    return panel


@pytest.fixture
def small_panel() -> ForecastPanel:
    return make_panel()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
