import pytest

from intervalcast.domain import Horizon, ReleaseDate, Season, TargetId
from intervalcast.errorsets import (
    ErrorMethod,
    ErrorSet,
    InsufficientHistoryError,
    YearRow,
    build_error_set,
    forecast_error,
)
from intervalcast.ingest import PanelTruthSelector

from conftest import make_panel

TARGET = TargetId("AAA", "gdp")


def build(panel, horizon, anchor_year, origin, window, method=ErrorMethod.ABSOLUTE):
    """``build_error_set`` over year rows of the panel's forecasts and truths."""
    truths = PanelTruthSelector(panel)
    return build_error_set(
        YearRow(lambda year: panel.forecast(TARGET, horizon.origin_for(year), year)),
        YearRow(lambda year: truths(TARGET, year, origin)),
        TARGET, horizon, anchor_year=anchor_year, origin=origin, window=window, method=method,
    )


def test_forecast_error_formulas():
    assert forecast_error(2.0, 3.5, ErrorMethod.ABSOLUTE) == 1.5
    assert forecast_error(2.0, 3.5, ErrorMethod.DIRECTIONAL) == -1.5
    for x in (-3.0, 0.0, 7.25):
        assert forecast_error(x, x, ErrorMethod.ABSOLUTE) == 0.0
        assert forecast_error(x, x, ErrorMethod.DIRECTIONAL) == 0.0
    with pytest.raises(ValueError):
        forecast_error(float("inf"), 1.0, ErrorMethod.ABSOLUTE)


def test_error_set_invariants():
    with pytest.raises(ValueError):
        ErrorSet(TARGET, Horizon.FALL_CURRENT, 2020, ErrorMethod.ABSOLUTE,
                 errors=(1.0, -0.5), source_years=(2018, 2019))
    with pytest.raises(ValueError):
        ErrorSet(TARGET, Horizon.FALL_CURRENT, 2020, ErrorMethod.DIRECTIONAL,
                 errors=(1.0, -0.5), source_years=(2019, 2020))
    with pytest.raises(ValueError):
        ErrorSet(TARGET, Horizon.FALL_CURRENT, 2020, ErrorMethod.DIRECTIONAL,
                 errors=(1.0, -0.5), source_years=(2019, 2019))


def test_window_fall_origin_current_year():
    panel = make_panel(first_year=1990, last_year=2023)
    errs = build(
        panel, Horizon.FALL_CURRENT,
        anchor_year=2023, origin=ReleaseDate(2023, Season.FALL), window=11,
    )
    assert errs.source_years == tuple(range(2022, 2011, -1))
    assert len(errs) == 11
    assert errs.skipped_years == ()


def test_window_spring_origin_shifts_back_for_incomplete_year():
    panel = make_panel(first_year=1990, last_year=2023)
    errs = build(
        panel, Horizon.SPRING_NEXT,
        anchor_year=2024, origin=ReleaseDate(2023, Season.SPRING), window=11,
    )
    # 2023 is not complete at a spring-2023 origin: most recent source is 2022.
    assert errs.source_years == tuple(range(2022, 2011, -1))


def test_insufficient_history():
    panel = make_panel(first_year=1990, last_year=2023)
    with pytest.raises(InsufficientHistoryError) as exc:
        build(
            panel, Horizon.FALL_CURRENT,
            anchor_year=1995, origin=ReleaseDate(1995, Season.FALL), window=11,
        )
    assert exc.value.found <= 5
    assert exc.value.required == 11


def test_absolute_is_elementwise_abs_of_directional():
    panel = make_panel(first_year=1990, last_year=2023)
    kwargs = dict(
        horizon=Horizon.SPRING_CURRENT, anchor_year=2020,
        origin=ReleaseDate(2020, Season.SPRING), window=11,
    )
    abs_set = build(panel, method=ErrorMethod.ABSOLUTE, **kwargs)
    dir_set = build(panel, method=ErrorMethod.DIRECTIONAL, **kwargs)
    assert abs_set.source_years == dir_set.source_years
    assert abs_set.errors == tuple(abs(e) for e in dir_set.errors)


def test_rolling_window_shifts_by_at_most_one_year():
    panel = make_panel(first_year=1990, last_year=2023)
    for anchor in range(2005, 2022):
        a = build(
            panel, Horizon.FALL_CURRENT,
            anchor_year=anchor, origin=ReleaseDate(anchor, Season.FALL), window=11,
        )
        b = build(
            panel, Horizon.FALL_CURRENT,
            anchor_year=anchor + 1, origin=ReleaseDate(anchor + 1, Season.FALL), window=11,
        )
        assert 0 <= max(b.source_years) - max(a.source_years) <= 1
        assert 0 <= min(b.source_years) - min(a.source_years) <= 1


def test_missing_year_substitution_is_recorded():
    panel = make_panel(first_year=1990, last_year=2023)
    missing = (TARGET, ReleaseDate(2018, Season.FALL), 2018)
    del panel.forecasts[missing]
    errs = build(
        panel, Horizon.FALL_CURRENT,
        anchor_year=2023, origin=ReleaseDate(2023, Season.FALL), window=11,
    )
    assert 2018 not in errs.source_years
    assert 2018 in errs.skipped_years
    assert len(errs) == 11
    assert min(errs.source_years) == 2011  # one older year substitutes


def test_unfinished_year_is_not_a_substitution():
    # At a spring-2012 origin, 2012 has not ended: it was never observable,
    # so the window starting at 2011 substitutes nothing.
    panel = make_panel(first_year=1990, last_year=2023)
    errs = build(
        panel, Horizon.SPRING_NEXT,
        anchor_year=2013, origin=ReleaseDate(2012, Season.SPRING), window=11,
    )
    assert errs.source_years == tuple(range(2011, 2000, -1))
    assert errs.skipped_years == ()
