import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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

from conftest import benchmark_forecast_per_quarter, make_panel

SRC = Path(__file__).resolve().parents[1] / "src"
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


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=21, max_size=200))
def test_fit_matches_exact_ols(run):
    """Both coefficients lie within 1e-12 of exact OLS, scaled by
    max(1, |exact|). The run's sum of squares is at most 100 times the
    regressor's centered sum, which bounds the error whatever the run's
    correlation; that centered sum is kept above 1e-100, out of the range
    where squared deviations underflow."""
    x, y = [Fraction(v) for v in run[:-1]], [Fraction(v) for v in run[1:]]
    xbar, ybar = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((v - xbar) ** 2 for v in x)
    assume(sxx >= 1e-100 and 100 * sxx >= sum(Fraction(v) ** 2 for v in run))
    slope = sum((a - xbar) * (b - ybar) for a, b in zip(x, y)) / sxx
    intercept = ybar - slope * xbar
    series = series_from_values(run)
    fit = fit_ar1(series, max(series.growth))
    for got, exact in ((fit.slope, slope), (fit.intercept, intercept)):
        assert abs(Fraction(got) - exact) <= 1e-12 * max(1, abs(exact))


@pytest.mark.parametrize("values", [
    [(-1) ** k * 1e300 * (1 + k / 64) for k in range(41)],
    [k * 1e-300 for k in range(41)],
    [(-1) ** k * 1.7e308 for k in range(41)],
], ids=["near-1e300", "1e-300-apart", "1.7e308"])
def test_sums_beyond_the_float_range_are_degenerate(values):
    # The centered squares overflow, underflow to zero, or the sums overflow.
    with pytest.raises(DegenerateRegressorError):
        fit_ar1(series_from_values(values), (2010, 1))


def test_backtest_with_ar_runs_without_numpy(tmp_path):
    panel = make_panel(countries=("AAA",), first_year=1995, last_year=2021)
    (tmp_path / "panel.csv").write_text(panel.to_canonical_csv())
    rng = np.random.default_rng(0)
    quarters = [f"AAA,gdp,{year},{q},{rng.normal(0.5, 0.4):.4f}" for year in range(1960, 2022) for q in range(1, 5)]
    (tmp_path / "quarterly.csv").write_text("\n".join(["country,variable,year,quarter,value", *quarters]) + "\n")
    args = ["backtest", "--methods", "imf,ar", "--data", "panel.csv", "--quarterly-data", "quarterly.csv",
            "--out", "out"]
    code = f"import sys; sys.modules['numpy'] = None\nfrom intervalcast import cli\nsys.exit(cli.main({args!r}))\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode in (0, 2), out.stderr
    assert ",ar," in (tmp_path / "out" / "report.csv").read_text()


class TestForecastPath:
    def test_random_walk_mean(self):
        fit = Ar1Fit(0.0, 1.0, 39)
        assert forecast_ar1_path(fit, 3.0, 4) == [3.0, 3.0, 3.0, 3.0]

    def test_white_noise_about_mean(self):
        fit = Ar1Fit(2.0, 0.0, 39)
        assert forecast_ar1_path(fit, -17.0, 3) == [2.0, 2.0, 2.0]

    def test_hand_iteration(self):
        fit = Ar1Fit(1.0, 0.5, 39)
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
        got = benchmark_forecast(series, origin, Horizon.FALL_NEXT, fit_ar1(series, quarter_cutoff(origin)))
        exact = annual_truth(series, 2019)
        assert got == pytest.approx(exact, abs=1e-9)

    def test_fall_current_mixes_six_observed_and_one_forecast(self):
        rng = np.random.default_rng(11)
        values = list(rng.normal(1.0, 0.3, size=76))  # 2000Q1..2018Q4
        series = series_from_values(values)
        origin = ReleaseDate(2018, Season.FALL)
        fit = fit_ar1(series, (2018, 3))
        got = benchmark_forecast(series, origin, Horizon.FALL_CURRENT, fit)
        q4 = forecast_ar1_path(fit, series.value((2018, 3)), 1)[0]
        window = [series.value(q) for q in annual_window(2018)[:-1]] + [q4]
        assert got == pytest.approx(aggregate_annual(window), abs=1e-12)

    def test_spring_next_is_fully_model_driven(self):
        values = ar1_values(0.5, 0.8, 2.0, 80)
        series = series_from_values(values)
        origin = ReleaseDate(2018, Season.SPRING)
        fit = fit_ar1(series, (2018, 1))
        got = benchmark_forecast(series, origin, Horizon.SPRING_NEXT, fit)
        path = forecast_ar1_path(fit, series.value((2018, 1)), 7)
        assert got == pytest.approx(aggregate_annual(path), abs=1e-9)

    def test_given_fit_is_used(self):
        # White noise about 2: every forecast quarter is 2, whatever the data.
        rng = np.random.default_rng(12)
        series = series_from_values(list(rng.normal(1.0, 0.3, size=76)))
        origin = ReleaseDate(2017, Season.SPRING)
        fit = Ar1Fit(2.0, 0.0, 39)
        observed = [series.value((2016, q)) for q in (2, 3, 4)] + [series.value((2017, 1))]
        assert benchmark_forecast(series, origin, Horizon.SPRING_CURRENT, fit) == aggregate_annual([*observed, 2.0, 2.0, 2.0])
        assert benchmark_forecast(series, origin, Horizon.SPRING_NEXT, fit) == aggregate_annual([2.0] * 7)

    def test_season_mismatch_rejected(self):
        series = series_from_values(ar1_values(1.0, 0.5, 0.0, 80))
        with pytest.raises(ValueError):
            benchmark_forecast(series, ReleaseDate(2018, Season.SPRING), Horizon.FALL_NEXT, Ar1Fit(0.0, 1.0, 39))

    def test_unobserved_cutoff_quarter_is_insufficient_history(self):
        # A series of 2019 alone holds no 2021Q1. An assert stopped this, and
        # under ``python -O`` the AR(1) path then multiplied the fit by None.
        call = ("series = QuarterlySeries(TargetId('USA', 'gdp'), {(2019, q): 1.0 for q in (1, 2, 3, 4)})\n"
                "benchmark_forecast(series, ReleaseDate(2021, Season.SPRING), Horizon.SPRING_NEXT, "
                "Ar1Fit(1.0, 0.5, 39))\n")
        message = "missing observed quarter (2021, 1) at origin cutoff"
        with pytest.raises(InsufficientQuarterlyHistoryError) as exc:
            exec(call, dict(globals()))
        assert str(exc.value) == message
        imports = ("from intervalcast.benchmark import Ar1Fit, QuarterlySeries, benchmark_forecast\n"
                   "from intervalcast.domain import Horizon, ReleaseDate, Season, TargetId\n")
        out = subprocess.run([sys.executable, "-O", "-c", imports + call], env={**os.environ, "PYTHONPATH": str(SRC)},
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert out.stderr.splitlines()[-1] == f"intervalcast.benchmark.InsufficientQuarterlyHistoryError: {message}"


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


@st.composite
def holed_series_at_an_origin(draw):
    """An origin, and a series over the four years around it whose quarters
    may be missing anywhere but at the origin's cutoff."""
    origin = ReleaseDate(draw(st.integers(1990, 2030)), draw(st.sampled_from(Season)))
    first = (origin.year - 2) * 4
    cutoff = quarter_cutoff(origin)
    quarters = [quarter_at(first + i) for i in range(16)]
    holes = draw(st.sets(st.sampled_from([q for q in quarters if q != cutoff]), max_size=5))
    growth = {q: draw(st.floats(-5, 5)) for q in quarters if q not in holes}
    return QuarterlySeries(TARGET, growth), origin


@settings(max_examples=300, derandomize=True, deadline=None)
@given(holed_series_at_an_origin())
def test_forecast_matches_the_per_quarter_reads(case):
    series, origin = case
    try:
        fit = fit_ar1(series, quarter_cutoff(origin), min_obs=2)
    except ValueError:  # too short or constant a run ends at the cutoff
        assume(False)
    for horizon in Horizon:
        try:
            want = repr(benchmark_forecast_per_quarter(series, origin, horizon, fit))
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                benchmark_forecast(series, origin, horizon, fit)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            assert repr(benchmark_forecast(series, origin, horizon, fit)) == want
