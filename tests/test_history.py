"""The error-history provider against the scalar per-year walk, and tuning
through it against the loop that rebuilt every set at every window."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.benchmark import QuarterlySeries, QuarterlyTruthSelector
from intervalcast.domain import HORIZONS, ReleaseDate, Season, TargetId
from intervalcast.errorsets import (
    ErrorMethod,
    ErrorSet,
    InsufficientHistoryError,
    forecast_error,
)
from intervalcast.ingest import (
    ForecastPanel,
    PanelTruthSelector,
    TruthUnavailableError,
    select_truth,
)
from intervalcast.intervals import IntervalOffsets, interval_from_offsets
from intervalcast.pipeline import (
    ErrorHistory,
    RunConfig,
    TuningReport,
    _ar_lookup,
    _targets,
    _tuning_row,
    outstanding_cells,
    run_tuning,
)
from intervalcast.quantile import QuantileMethod, empirical_quantile

from conftest import make_panel

TARGET = TargetId("AAA", "gdp")


def scalar_error_set(
    forecasts, truths, target, horizon, anchor_year, origin, window,
    method=ErrorMethod.ABSOLUTE, max_lookback=200,
):
    """The scalar error-set walk: one truth-selector call and one forecast
    lookup by release date per year. The oracle for the provider's rows."""
    if window < 1:
        raise ValueError("window length must be positive")
    errors, source_years, skipped = [], [], []
    year = min(anchor_year, origin.year) - 1
    floor = year - max_lookback
    while len(errors) < window and year > floor:
        realized = truths(target, year, origin)
        forecast = None
        if realized is not None:
            forecast = forecasts(target, horizon.origin_for(year), year)
        if realized is None or forecast is None:
            skipped.append(year)
        else:
            errors.append(forecast_error(realized, forecast, method))
            source_years.append(year)
        year -= 1
    if len(errors) < window:
        raise InsufficientHistoryError("insufficient history", len(errors), window)
    return ErrorSet(target, horizon, anchor_year, method, tuple(errors),
                    tuple(source_years), tuple(skipped))


def scalar_offsets(errs, tau, qmethod):
    """Offsets at one level from single-level quantile calls; the oracle for
    ``offsets_for``."""
    if errs.method is ErrorMethod.ABSOLUTE:
        q = empirical_quantile(errs.errors, tau, qmethod)
        return IntervalOffsets(-q, q)
    return IntervalOffsets(
        empirical_quantile(errs.errors, (1.0 - tau) / 2.0, qmethod),
        empirical_quantile(errs.errors, (1.0 + tau) / 2.0, qmethod),
    )


def _drop(mapping: dict, picks: list[int]) -> None:
    keys = list(mapping)
    for pick in picks:
        mapping.pop(keys[pick % len(keys)], None)


def _cells(first: int, last: int):
    """(horizon, anchor year, origin) as backtest grids and tuning use them."""
    for year in range(first, last + 1):
        for season in (Season.SPRING, Season.FALL):
            for horizon, (_, target_year) in outstanding_cells(ReleaseDate(year, season)).items():
                yield horizon, target_year, ReleaseDate(year, season)
        for horizon in HORIZONS:
            yield horizon, year, horizon.origin_for(year)


def vintage_panel(seed, missing_forecast, missing_fall, revised, first=1988, last=2005):
    """One target with missing forecasts, years whose first fall release is
    missing (so truths fall back to another vintage), and revisions: spring,
    fall and a second fall release each carry their own value."""
    rng = np.random.default_rng(seed)
    panel = ForecastPanel(source="vintages")
    for year in range(first, last + 2):
        truth = float(rng.normal(2.0, 1.0))
        for horizon in HORIZONS:
            origin = horizon.origin_for(year)
            if first <= origin.year <= last and rng.random() >= missing_forecast:
                panel.forecasts[(TARGET, origin, year)] = truth - float(
                    rng.normal(0.0, 0.5 + 0.25 * horizon.index)
                )
        vintages = (
            ReleaseDate(year + 1, Season.SPRING),
            ReleaseDate(year + 1, Season.FALL),
            ReleaseDate(year + 2, Season.FALL),
        )
        for vintage in vintages:
            if vintage.year > last + 1:
                continue
            if vintage == vintages[1] and rng.random() < missing_fall:
                continue
            revision = float(rng.normal(0.0, 0.3)) if revised else 0.0
            panel.realizations[(TARGET, year, vintage)] = truth + revision
    return panel


def assert_provider_matches_scalar(forecasts, truths, max_window, first, last):
    history = ErrorHistory(forecasts, truths, max_window)
    for method in ErrorMethod:
        for horizon, anchor, origin in _cells(first, last):
            def build(w: int):
                return scalar_error_set(
                    forecasts, truths, TARGET, horizon,
                    anchor_year=anchor, origin=origin, window=w, method=method,
                )

            try:
                build(max_window)
            except InsufficientHistoryError:
                for w in range(1, max_window + 1):
                    with pytest.raises(InsufficientHistoryError):
                        history.error_set(TARGET, horizon, anchor, origin, method, w)
                continue
            for w in range(1, max_window + 1):
                assert history.error_set(TARGET, horizon, anchor, origin, method, w) == build(w)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    drop_forecasts=st.lists(st.integers(0, 10**6), max_size=12),
    drop_vintages=st.lists(st.integers(0, 10**6), max_size=12),
    max_window=st.integers(1, 9),
)
def test_provider_serves_prefixes_of_per_window_builds(
    seed, drop_forecasts, drop_vintages, max_window
):
    panel = make_panel(countries=("AAA",), first_year=1990, last_year=2004, seed=seed)
    _drop(panel.forecasts, drop_forecasts)
    _drop(panel.realizations, drop_vintages)
    assert_provider_matches_scalar(
        panel.forecast, PanelTruthSelector(panel), max_window, 1994, 2004
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    missing_forecast=st.sampled_from([0.0, 0.1, 0.3]),
    missing_fall=st.sampled_from([0.0, 0.2, 0.6]),
    revised=st.booleans(),
    max_window=st.integers(1, 8),
)
def test_provider_matches_scalar_walk_on_vintaged_panels(
    seed, missing_forecast, missing_fall, revised, max_window
):
    panel = vintage_panel(seed, missing_forecast, missing_fall, revised)
    for mode in ("construction", "evaluation"):
        assert_provider_matches_scalar(
            panel.forecast, PanelTruthSelector(panel, mode=mode), max_window, 1995, 2005
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    gaps=st.lists(st.integers(0, 4 * 32 - 1), max_size=6),
    max_window=st.integers(1, 8),
)
def test_provider_matches_scalar_walk_on_quarterly_truths(seed, gaps, max_window):
    rng = np.random.default_rng(seed)
    growth, x = {}, 0.5
    for year in range(1975, 2007):
        for quarter in (1, 2, 3, 4):
            x = 0.3 + 0.5 * x + float(rng.normal(0.0, 0.4))
            growth[(year, quarter)] = x
    for gap in gaps:
        growth.pop((1975 + gap // 4, gap % 4 + 1), None)
    quarterly = {TARGET: QuarterlySeries(target=TARGET, growth=growth)}
    assert_provider_matches_scalar(
        _ar_lookup(quarterly, RunConfig(methods=("ar",))),
        QuarterlyTruthSelector(quarterly), max_window, 1998, 2006,
    )


def test_provider_rejects_windows_outside_its_range(small_panel):
    history = ErrorHistory(small_panel.forecast, PanelTruthSelector(small_panel), 11)
    origin = ReleaseDate(2020, Season.FALL)
    for w in (0, 12):
        with pytest.raises(ValueError, match="window"):
            history.error_set(TARGET, HORIZONS[0], 2020, origin, ErrorMethod.ABSOLUTE, w)


def reference_tuning(config, panel, grid) -> TuningReport:
    """Tuning as it ran before the provider: every set rebuilt for every
    window of the feasibility check and again for each grid point."""
    t0, t1 = config.train_span
    cutoff = ReleaseDate(t1 + 1, Season.FALL)
    view = panel.until_vintage(cutoff)
    view.forecasts = {
        key: value for key, value in view.forecasts.items() if key[1].year <= t1
    }
    truths = PanelTruthSelector(view, config.truth_rule, mode="construction")
    all_windows = sorted({w for w, _, _ in grid})
    report = TuningReport(levels=config.levels)
    targets = _targets(view)
    variables = sorted({t.variable for t in targets})
    for window, emethod, qmethod in grid:
        for variable in variables:
            for horizon in HORIZONS:
                observations = []
                for target in (t for t in targets if t.variable == variable):
                    for year in range(t0, t1 + 1):
                        forecast_origin = horizon.origin_for(year)
                        point = view.forecast(target, forecast_origin, year)
                        if point is None:
                            continue
                        try:
                            outcome = select_truth(
                                view, target, year, cutoff, config.truth_rule,
                                mode="evaluation",
                            )
                        except TruthUnavailableError:
                            continue
                        try:
                            for w in all_windows:
                                scalar_error_set(
                                    view.forecast, truths, target, horizon,
                                    anchor_year=year, origin=forecast_origin,
                                    window=w, method=emethod,
                                )
                        except InsufficientHistoryError:
                            continue
                        errs = scalar_error_set(
                            view.forecast, truths, target, horizon,
                            anchor_year=year, origin=forecast_origin,
                            window=window, method=emethod,
                        )
                        intervals = {
                            tau: interval_from_offsets(
                                point, tau, scalar_offsets(errs, tau, qmethod)
                            )
                            for tau in config.levels
                        }
                        observations.append((intervals, outcome))
                report.rows.append(
                    _tuning_row(window, emethod, qmethod, variable, horizon,
                                observations, config.levels)
                )
    return report


def _gappy_panel():
    panel = make_panel(countries=("AAA",), variables=("gdp", "cpi"), seed=7)
    del panel.forecasts[(TARGET, ReleaseDate(2003, Season.FALL), 2003)]
    del panel.forecasts[(TargetId("AAA", "cpi"), ReleaseDate(1998, Season.SPRING), 1999)]
    del panel.realizations[(TARGET, 2006, ReleaseDate(2007, Season.FALL))]
    return panel


DEFAULT_GRID = [
    (w, em, QuantileMethod.LINEAR) for w in range(4, 12) for em in ErrorMethod
]


@pytest.mark.parametrize(
    "panel, config, grid",
    [
        (make_panel(countries=("AAA",)), RunConfig(), DEFAULT_GRID),
        (make_panel(countries=("AAA", "BBB", "CCC"), seed=3), RunConfig(levels=(0.5, 0.8, 0.9)),
         [(11, ErrorMethod.DIRECTIONAL, QuantileMethod.INVERSE_ECDF),
          (3, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR)]),
        (_gappy_panel(), RunConfig(), DEFAULT_GRID),
    ],
    ids=["default-grid", "short-grid", "deleted-forecast"],
)
def test_tuning_output_is_byte_identical_to_rebuilding_loop(panel, config, grid):
    expected = reference_tuning(config, panel, grid)
    actual = run_tuning(config, panel, grid)
    assert actual.to_csv() == expected.to_csv()
    assert actual.to_json() == expected.to_json()


def test_reimport_leaves_one_target_class_alive():
    # A cached typing subscription over TargetId would pin every imported
    # copy of the package; benchmarks and notebooks re-import it.
    script = (
        "import gc, importlib, sys\n"
        "importlib.import_module('intervalcast.cli')\n"
        "for name in [m for m in sys.modules if m.split('.')[0] == 'intervalcast']:\n"
        "    del sys.modules[name]\n"
        "importlib.import_module('intervalcast.cli')\n"
        "gc.collect()\n"
        "print(sum(1 for o in gc.get_objects()\n"
        "          if isinstance(o, type) and o.__name__ == 'TargetId'))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "1"
