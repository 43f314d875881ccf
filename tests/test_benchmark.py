import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.benchmark import (
    ANNUAL_WEIGHTS,
    Ar1Fit,
    DegenerateRegressorError,
    InsufficientQuarterlyHistoryError,
    QuarterlySeries,
    aggregate_annual,
    annual_truth,
    annual_window,
    benchmark_forecast,
    fit_ar1,
    forecast_ar1_path,
    quarter_cutoff,
)
from intervalcast.domain import Horizon, ReleaseDate, Season, TargetId

TARGET = TargetId("USA", "gdp")


def series_from_values(values, start=(2000, 1)):
    year, quarter = start
    growth = {}
    for v in values:
        growth[(year, quarter)] = float(v)
        quarter += 1
        if quarter == 5:
            year, quarter = year + 1, 1
    return QuarterlySeries(target=TARGET, growth=growth)


def ar1_values(a, b, x0, n):
    xs = [x0]
    for _ in range(n - 1):
        xs.append(a + b * xs[-1])
    return xs


class TestFit:
    def test_noiseless_recurrence_recovered_exactly(self):
        series = series_from_values(ar1_values(1.0, 0.5, 0.0, 40))
        fit = fit_ar1(series, (2009, 4))
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)
        assert fit.n_obs == 39

    def test_zero_slope_consistency(self):
        rng = np.random.default_rng(3)
        series = series_from_values(rng.normal(size=10_000), start=(100, 1))
        fit = fit_ar1(series, max(series.growth))
        assert abs(fit.slope) < 0.05

    def test_constant_series_degenerate(self):
        series = series_from_values([2.0] * 40)
        with pytest.raises(DegenerateRegressorError):
            fit_ar1(series, (2009, 4))

    def test_insufficient_history(self):
        series = series_from_values(ar1_values(1.0, 0.5, 0.0, 10))
        with pytest.raises(InsufficientQuarterlyHistoryError):
            fit_ar1(series, (2002, 2))

    def test_rolling_window_option(self):
        # Oscillating recurrence: the tail never flattens to a constant.
        values = ar1_values(1.0, -0.9, 5.0, 60)
        series = series_from_values(values)
        fit = fit_ar1(series, (2014, 4), window=30)
        assert fit.n_obs == 30


class TestForecastPath:
    def test_random_walk_mean(self):
        fit = Ar1Fit(0.0, 1.0, (2000, 1), (2009, 4), 39)
        assert forecast_ar1_path(fit, 3.0, 4) == [3.0, 3.0, 3.0, 3.0]

    def test_white_noise_about_mean(self):
        fit = Ar1Fit(2.0, 0.0, (2000, 1), (2009, 4), 39)
        assert forecast_ar1_path(fit, -17.0, 3) == [2.0, 2.0, 2.0]

    def test_hand_iteration(self):
        fit = Ar1Fit(1.0, 0.5, (2000, 1), (2009, 4), 39)
        assert forecast_ar1_path(fit, 4.0, 3) == pytest.approx([3.0, 2.5, 2.25])


class TestAnnualAggregation:
    def test_weights(self):
        assert sum(ANNUAL_WEIGHTS) == 4.0
        assert ANNUAL_WEIGHTS == (0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25)

    def test_constant_growth_aggregates_to_four_times(self):
        for g in (0.1, 0.5, 2.0):
            assert aggregate_annual([g] * 7) == pytest.approx(4 * g, abs=1e-12)

    def test_middle_quarter_weight_is_one(self):
        assert aggregate_annual([0, 0, 0, 1.3, 0, 0, 0]) == pytest.approx(1.3)

    def test_arity(self):
        with pytest.raises(ValueError, match="seven quarters"):
            aggregate_annual([1.0] * 6)

    def test_linearity(self, rng):
        a = rng.normal(size=7)
        b = rng.normal(size=7)
        assert aggregate_annual(list(a + b)) == pytest.approx(
            aggregate_annual(list(a)) + aggregate_annual(list(b)), abs=1e-12
        )

    def test_against_exact_annual_average_growth(self, rng):
        # Brute-force oracle: build quarterly levels, compute the exact
        # annual-average growth, and compare with the weighted log-growth sum.
        for _ in range(50):
            quarterly_pct = rng.uniform(-1.0, 1.0, size=12)
            levels = [100.0]
            for g in quarterly_pct:
                levels.append(levels[-1] * math.exp(g / 100.0))
            # Levels cover 2000Q1..2003Q1; annual averages for 2001 vs 2000
            # need quarters 2000Q1..2001Q4 = levels[0:8].
            year0 = sum(levels[0:4]) / 4
            year1 = sum(levels[4:8]) / 4
            exact = 100.0 * (year1 / year0 - 1.0)
            log_growth = [100.0 * math.log(levels[i + 1] / levels[i]) for i in range(7)]
            approx = aggregate_annual(log_growth)
            assert abs(approx - exact) < 0.05


class TestBenchmarkForecast:
    def test_window_layout(self):
        assert annual_window(2020) == [
            (2019, 2), (2019, 3), (2019, 4), (2020, 1), (2020, 2), (2020, 3), (2020, 4)
        ]

    def test_cutoffs(self):
        assert quarter_cutoff(ReleaseDate(2020, Season.SPRING)) == (2020, 1)
        assert quarter_cutoff(ReleaseDate(2020, Season.FALL)) == (2020, 3)

    def test_noiseless_recurrence_matches_exact_continuation(self):
        values = ar1_values(1.0, 0.5, 5.0, 80)
        series = series_from_values(values)  # 2000Q1..2019Q4
        origin = ReleaseDate(2018, Season.FALL)
        got = benchmark_forecast(series, origin, Horizon.FALL_NEXT)
        exact = annual_truth(series, 2019)
        assert got == pytest.approx(exact, abs=1e-9)

    def test_fall_current_mixes_six_observed_and_one_forecast(self):
        rng = np.random.default_rng(11)
        values = list(rng.normal(1.0, 0.3, size=76))  # 2000Q1..2018Q4
        series = series_from_values(values)
        origin = ReleaseDate(2018, Season.FALL)
        got = benchmark_forecast(series, origin, Horizon.FALL_CURRENT)
        fit = fit_ar1(series, (2018, 3))
        q4 = forecast_ar1_path(fit, series.value((2018, 3)), 1)[0]
        window = [series.value(q) for q in annual_window(2018)[:-1]] + [q4]
        assert got == pytest.approx(aggregate_annual(window), abs=1e-12)

    def test_spring_next_is_fully_model_driven(self):
        values = ar1_values(0.5, 0.8, 2.0, 80)
        series = series_from_values(values)
        origin = ReleaseDate(2018, Season.SPRING)
        got = benchmark_forecast(series, origin, Horizon.SPRING_NEXT)
        fit = fit_ar1(series, (2018, 1))
        path = forecast_ar1_path(fit, series.value((2018, 1)), 7)
        assert got == pytest.approx(aggregate_annual(path), abs=1e-9)

    def test_given_fit_or_error_is_used(self):
        rng = np.random.default_rng(12)
        series = series_from_values(list(rng.normal(1.0, 0.3, size=76)))
        origin = ReleaseDate(2017, Season.SPRING)
        fit = fit_ar1(series, quarter_cutoff(origin))
        for horizon in (Horizon.SPRING_CURRENT, Horizon.SPRING_NEXT):
            assert repr(benchmark_forecast(series, origin, horizon, fit=fit)) == repr(
                benchmark_forecast(series, origin, horizon)
            )
        error = InsufficientQuarterlyHistoryError("no fit at this origin")
        with pytest.raises(InsufficientQuarterlyHistoryError, match="no fit at this origin"):
            benchmark_forecast(series, origin, Horizon.SPRING_NEXT, fit=error)

    def test_season_mismatch_rejected(self):
        series = series_from_values(ar1_values(1.0, 0.5, 0.0, 80))
        with pytest.raises(ValueError):
            benchmark_forecast(series, ReleaseDate(2018, Season.SPRING), Horizon.FALL_NEXT)


class TestSeriesBookkeeping:
    def test_fit_window_does_not_span_gaps(self):
        growth = {(y, q): 1.0 + 0.1 * ((y * 4 + q) % 5) for y in range(2000, 2015) for q in (1, 2, 3, 4)}
        del growth[(2005, 2)]
        series = QuarterlySeries(target=TARGET, growth=growth)
        run = series.contiguous_run_ending((2014, 4))
        assert len(run) == (2014 - 2005) * 4 + 2 + 1 - 1  # 2005Q3..2014Q4

    def test_series_is_a_read_only_copy(self):
        growth = {q: 1.0 for q in annual_window(2020)}
        series = QuarterlySeries(target=TARGET, growth=growth)
        assert len(series.contiguous_run_ending((2020, 4))) == 7
        del growth[(2020, 2)]
        assert len(series.contiguous_run_ending((2020, 4))) == 7
        assert annual_truth(series, 2020) == pytest.approx(4.0)
        with pytest.raises(TypeError):
            series.growth[(2020, 2)] = 0.0  # type: ignore[index]

    def test_annual_truth_requires_all_seven_quarters(self):
        growth = {q: 1.0 for q in annual_window(2020)}
        series = QuarterlySeries(target=TARGET, growth=growth)
        assert annual_truth(series, 2020) == pytest.approx(4.0)
        del growth[(2020, 2)]
        assert annual_truth(QuarterlySeries(TARGET, growth), 2020) is None


def walked_run(series, last):
    """The gap-free run ending at ``last``, walked back one quarter at a time:
    the oracle of ``QuarterlySeries.contiguous_run_ending``."""
    values = []
    growth, (year, quarter) = series.growth.get, last
    while (value := growth((year, quarter))) is not None:
        values.append(value)
        year, quarter = (year, quarter - 1) if quarter > 1 else (year - 1, 4)
    values.reverse()
    return values


def quarter_at(index):
    return (index // 4, index % 4 + 1)


@st.composite
def gappy_series(draw):
    """A series over ``n`` quarters with some quarters missing, and cutoffs
    before, at and after each gap and at both ends."""
    start, n = draw(st.integers(1990 * 4, 2000 * 4)), draw(st.integers(0, 48))
    gaps = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=6)) if n else set()
    growth = {quarter_at(start + i): draw(st.floats(-5, 5)) for i in range(n) if i not in gaps}
    ends = {-1, 0, n - 1, n} | {i + d for i in gaps for d in (-1, 0, 1)}
    return QuarterlySeries(TARGET, growth), [quarter_at(start + i) for i in sorted(ends)]


@settings(max_examples=200, deadline=None)
@given(gappy_series())
def test_runs_found_once_match_the_walk(case):
    series, cutoffs = case
    for cutoff in cutoffs:
        assert series.contiguous_run_ending(cutoff) == walked_run(series, cutoff)
