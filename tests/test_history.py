"""The error-history provider against the scalar per-year walk, settled
truths against per-origin selection, and tuning, backtests and forecast files
against the paths that rebuilt every set at every window and pooled by
rescanning."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.benchmark import QuarterlySeries, QuarterlyTruthSelector
from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, Season, TargetId
from intervalcast.errorsets import (
    ErrorMethod,
    ErrorSet,
    InsufficientHistoryError,
    forecast_error,
)
from intervalcast import pipeline
from intervalcast.ingest import (
    FallbackRule,
    ForecastPanel,
    PanelTruthSelector,
    TruthUnavailableError,
    select_truth,
)
from intervalcast.intervals import GridCell, IntervalGrid, IntervalOffsets, interval_from_offsets
from intervalcast.pipeline import (
    ErrorHistory,
    RunConfig,
    TuningReport,
    _ar_lookup,
    _targets,
    _tuning_row,
    outstanding_cells,
    produce_forecast,
    run_backtest,
    run_tuning,
    write_backtest_outputs,
)
from intervalcast.quantile import QuantileMethod, empirical_quantile
from intervalcast.scoring import interval_score

from conftest import make_panel, tuning_cell, without
from test_intervals import rescanning_pool

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
        raise InsufficientHistoryError(
            f"insufficient history for {target} {horizon.label} anchor {anchor_year}: "
            f"found {len(errors)} of {window} eligible years",
            len(errors), window,
        )
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


def _picked(mapping, picks: list[int]) -> set:
    """The keys of ``mapping`` at the picked positions."""
    keys = list(mapping)
    return {keys[pick % len(keys)] for pick in picks}


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
    forecasts, realizations = {}, {}
    for year in range(first, last + 2):
        truth = float(rng.normal(2.0, 1.0))
        for horizon in HORIZONS:
            origin = horizon.origin_for(year)
            if first <= origin.year <= last and rng.random() >= missing_forecast:
                forecasts[(TARGET, origin, year)] = truth - float(
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
            realizations[(TARGET, year, vintage)] = truth + revision
    return ForecastPanel(forecasts, realizations, source="vintages")


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
    full = make_panel(countries=("AAA",), first_year=1990, last_year=2004, seed=seed)
    panel = without(
        full,
        forecasts=_picked(full.forecasts, drop_forecasts),
        realizations=_picked(full.realizations, drop_vintages),
    )
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


def _releases(first: ReleaseDate, last_year: int):
    """Every release from ``first`` through the fall of ``last_year``."""
    for year in range(first.year, last_year + 1):
        for season in (Season.SPRING, Season.FALL):
            if ReleaseDate(year, season) >= first:
                yield ReleaseDate(year, season)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    missing_fall=st.sampled_from([0.0, 0.3, 0.7]),
    revised=st.booleans(),
    fallback=st.sampled_from(list(FallbackRule)),
)
def test_panel_settled_truth_holds_from_its_release_on(seed, missing_fall, revised, fallback):
    panel = vintage_panel(seed, 0.1, missing_fall, revised)
    for mode in ("construction", "evaluation"):
        truths = PanelTruthSelector(panel, fallback, mode=mode)
        for year in range(1986, 2008):
            found = truths.settled(TARGET, year)
            if found is None:
                assert (TARGET, year, ReleaseDate(year + 1, Season.FALL)) not in panel.realizations
                continue
            release, truth = found
            assert [truths(TARGET, year, at) for at in _releases(release, 2009)] == [
                truth for _ in _releases(release, 2009)
            ]


@settings(max_examples=20, deadline=None)
@given(gaps=st.lists(st.integers(0, 4 * 32 - 1), max_size=8))
def test_quarterly_settled_truth_holds_from_its_release_on(gaps):
    growth = {
        (year, quarter): 0.1 * quarter + 0.01 * (year - 1975)
        for year in range(1975, 2007) for quarter in (1, 2, 3, 4)
    }
    for gap in gaps:
        growth.pop((1975 + gap // 4, gap % 4 + 1), None)
    truths = QuarterlyTruthSelector({TARGET: QuarterlySeries(target=TARGET, growth=growth)})
    for target in (TARGET, TargetId("ZZZ", "gdp")):
        for year in range(1974, 2009):
            release, truth = truths.settled(target, year)
            assert [truths(target, year, at) for at in _releases(release, 2010)] == [
                truth for _ in _releases(release, 2010)
            ]


def test_provider_rejects_windows_outside_its_range(small_panel):
    history = ErrorHistory(small_panel.forecast, PanelTruthSelector(small_panel), 11)
    origin = ReleaseDate(2020, Season.FALL)
    for w in (0, 12):
        with pytest.raises(ValueError, match="window"):
            history.error_set(TARGET, HORIZONS[0], 2020, origin, ErrorMethod.ABSOLUTE, w)


def reference_observations(config, panel, grid):
    """Tuning's scored (intervals, outcome) pairs per grid point and
    (variable, horizon) cell, as it ran before the provider: every set
    rebuilt for every window of the feasibility check and again for each
    grid point. Yields ``((window, emethod, qmethod, variable, horizon),
    observations)``."""
    t0, t1 = config.train_span
    cutoff = ReleaseDate(t1 + 1, Season.FALL)
    view = ForecastPanel(
        {
            key: value for key, value in panel.forecasts.items()
            if key[1] <= cutoff and key[1].year <= t1
        },
        {key: value for key, value in panel.realizations.items() if key[2] <= cutoff},
    )
    truths = PanelTruthSelector(view, config.truth_rule, mode="construction")
    all_windows = sorted({w for w, _, _ in grid})
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
                yield (window, emethod, qmethod, variable, horizon), observations


def reference_tuning(config, panel, grid) -> TuningReport:
    """Tuning's report from the reference observations."""
    report = TuningReport(levels=config.levels)
    for (window, emethod, qmethod, variable, horizon), observations in reference_observations(
        config, panel, grid
    ):
        report.rows.append(
            _tuning_row(window, emethod, qmethod, variable, horizon, observations, config.levels)
        )
    return report


def _gappy_panel():
    return without(
        make_panel(countries=("AAA",), variables=("gdp", "cpi"), seed=7),
        forecasts=[
            (TARGET, ReleaseDate(2003, Season.FALL), 2003),
            (TargetId("AAA", "cpi"), ReleaseDate(1998, Season.SPRING), 1999),
        ],
        realizations=[(TARGET, 2006, ReleaseDate(2007, Season.FALL))],
    )


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


def test_tuning_statistics_match_a_hand_computation():
    """One feasible cell's mean WIS and coverage, recomputed from
    ``interval_score`` in the backtest's summation order, exact by ``repr``."""
    panel, config = make_panel(countries=("AAA",)), RunConfig()
    grid = [(11, ErrorMethod.DIRECTIONAL, QuantileMethod.LINEAR)]
    observations = dict(reference_observations(config, panel, grid))[
        (*grid[0], "gdp", Horizon.SPRING_NEXT)
    ]
    weights = [(1.0 - tau) / 2.0 for tau in config.levels]
    wis = []
    for intervals, outcome in observations:
        acc = 0.0
        for tau, w in zip(config.levels, weights):
            pi = intervals[tau]
            acc += w * interval_score(pi.lower, pi.upper, outcome, tau).total
        wis.append(acc / sum(weights))
    row = tuning_cell(run_tuning(config, panel, grid), 11, "directional", "type7", "gdp",
                      "spring-next")
    assert row.feasible and row.n == len(observations) > 0
    assert repr(row.mean_wis) == repr(sum(wis) / len(wis))
    for tau in config.levels:
        inside = sum(
            1 for intervals, y in observations if intervals[tau].lower <= y <= intervals[tau].upper
        )
        assert repr(row.coverage[tau]) == repr(inside / len(observations))


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


class ParentErrorHistory:
    """The error history as a per-origin walk: every truth selected again at
    each origin, nothing shared across origins."""

    def __init__(self, forecasts, truths, max_window):
        self.forecasts = forecasts
        self.truths = truths

    def error_set(self, target, horizon, anchor_year, origin, method, window):
        return scalar_error_set(
            self.forecasts, self.truths, target, horizon,
            anchor_year=anchor_year, origin=origin, window=window, method=method,
        )


def parent_build_grid(history, target, origin, config):
    """Grid assembly with offsets built per level, then rebuilt after pooling
    the columns by rescanning."""
    cells, gaps = {}, []
    for horizon, (forecast_origin, target_year) in outstanding_cells(origin).items():
        point = history.forecasts(target, forecast_origin, target_year)
        if point is None:
            gaps.append(
                f"{target.country}/{target.variable} {origin}: no {horizon.label} "
                f"forecast for {target_year}"
            )
            continue
        try:
            errs = history.error_set(
                target, horizon, target_year, origin, config.error_method, config.window
            )
        except InsufficientHistoryError as exc:
            gaps.append(f"{target.country}/{target.variable} {origin} {horizon.label}: {exc}")
            continue
        cells[horizon] = GridCell(
            point=point, target_year=target_year, forecast_origin=forecast_origin,
            offsets={tau: scalar_offsets(errs, tau, config.quantile_method) for tau in config.levels},
            source_years=errs.source_years, skipped_years=errs.skipped_years,
        )
    if not cells:
        return None, gaps
    horizons = [h for h in HORIZONS if h in cells]
    if len(horizons) == 1:
        return IntervalGrid(target=target, origin=origin, cells=cells, blocks=(1,)), gaps
    corrected, blocks = rescanning_pool({
        tau: ([cells[h].offsets[tau].lower for h in horizons],
              [cells[h].offsets[tau].upper for h in horizons])
        for tau in config.levels
    })
    pooled = {
        h: GridCell(
            point=cells[h].point, target_year=cells[h].target_year,
            forecast_origin=cells[h].forecast_origin,
            offsets={
                tau: IntervalOffsets(corrected[tau][0][i], corrected[tau][1][i])
                for tau in config.levels
            },
            source_years=cells[h].source_years, skipped_years=cells[h].skipped_years,
        )
        for i, h in enumerate(horizons)
    }
    return IntervalGrid(target=target, origin=origin, cells=pooled, blocks=blocks), gaps


def _golden_inputs():
    vintaged = vintage_panel(11, 0.05, 0.3, True, first=1958, last=2016)
    forecasts = dict(vintaged.forecasts)
    # Forecasts equal to their truth give zero errors, ties and zero quantiles
    # (-0.0 lower offsets under absolute errors) for pooling to handle.
    for year in range(1962, 1990):
        truth = vintaged.realizations.get((TARGET, year, ReleaseDate(year + 1, Season.FALL)))
        for horizon in HORIZONS:
            key = (TARGET, horizon.origin_for(year), year)
            if truth is not None and key in forecasts and year % 3:
                forecasts[key] = truth
    panel = ForecastPanel(forecasts, vintaged.realizations, source=vintaged.source)
    rng = np.random.default_rng(5)
    growth, x = {}, 0.5
    for year in range(1950, 2018):
        for quarter in (1, 2, 3, 4):
            x = 0.3 + 0.5 * x + float(rng.normal(0.0, 0.4))
            growth[(year, quarter)] = x
    for gap in ((1985, 2), (1999, 4)):
        del growth[gap]
    return panel, {TARGET: QuarterlySeries(target=TARGET, growth=growth)}


def _backtest_files(config, panel, quarterly, out_dir):
    result = run_backtest(config, panel, quarterly=quarterly)
    files = {}
    for path in write_backtest_outputs(result, str(out_dir)):
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read()
    forecasts = [
        produce_forecast(config, panel, ReleaseDate(year, season), quarterly=quarterly)
        for year in (2005, 2010, 2016) for season in Season
    ]
    return files, forecasts


@pytest.mark.parametrize("error_method, quantile_method, window", [
    (ErrorMethod.DIRECTIONAL, QuantileMethod.INVERSE_ECDF, 20),
    (ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR, 24),
])
def test_backtest_and_forecasts_are_byte_identical_to_per_origin_path(
    error_method, quantile_method, window, tmp_path, monkeypatch
):
    panel, quarterly = _golden_inputs()
    config = RunConfig(
        levels=tuple(round(0.1 * k, 1) for k in range(1, 10)),
        error_method=error_method, quantile_method=quantile_method, window=window,
        train_span=(1985, 2004), holdout_span=(2005, 2015), methods=("imf", "ar"),
        generated_at="golden",
    )
    actual = _backtest_files(config, panel, quarterly, tmp_path / "actual")
    monkeypatch.setattr(pipeline, "ErrorHistory", ParentErrorHistory)
    monkeypatch.setattr(pipeline, "build_grid", parent_build_grid)
    expected = _backtest_files(config, panel, quarterly, tmp_path / "expected")
    assert actual == expected
    rows = json.loads(actual[0]["audit.json"])
    assert {row["method"] for row in rows} == {"imf", "ar"}
    assert any(max(row["pava_blocks"]) > 1 for row in rows)
    assert any(row["skipped_years"] for row in rows)
