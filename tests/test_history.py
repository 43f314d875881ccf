"""The error-history provider against per-window builds, and tuning through
it against the loop that rebuilt every set at every window."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.domain import HORIZONS, ReleaseDate, Season, TargetId
from intervalcast.errorsets import ErrorMethod, InsufficientHistoryError, build_error_set
from intervalcast.ingest import PanelTruthSelector, TruthUnavailableError, select_truth
from intervalcast.intervals import interval_from_offsets, offsets_for
from intervalcast.pipeline import (
    ErrorHistory,
    RunConfig,
    TuningReport,
    _targets,
    _tuning_row,
    outstanding_cells,
    run_tuning,
)
from intervalcast.quantile import QuantileMethod

from conftest import make_panel

TARGET = TargetId("AAA", "gdp")


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
    truths = PanelTruthSelector(panel)
    history = ErrorHistory(panel.forecast, truths, max_window)
    for method in ErrorMethod:
        for horizon, anchor, origin in _cells(1994, 2004):
            def build(w: int):
                return build_error_set(
                    panel.forecast, truths, TARGET, horizon,
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
                                build_error_set(
                                    view.forecast, truths, target, horizon,
                                    anchor_year=year, origin=forecast_origin,
                                    window=w, method=emethod,
                                )
                        except InsufficientHistoryError:
                            continue
                        errs = build_error_set(
                            view.forecast, truths, target, horizon,
                            anchor_year=year, origin=forecast_origin,
                            window=window, method=emethod,
                        )
                        intervals = {
                            tau: interval_from_offsets(
                                point, tau, offsets_for(errs, tau, qmethod)
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
