import io
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, TargetId
from intervalcast.intervals import GridCell, IntervalGrid, IntervalOffsets, PredictionInterval
from intervalcast.scoring import (
    POOLED,
    REPORT_HEADER,
    CellStats,
    EvaluationReport,
    ScoreDecomposition,
    WisWeights,
    aggregate_report,
    audit_row,
    check_rows,
    coverage_rate,
    interval_score,
    mean,
    score_parts,
    weighted_interval_score,
    wis_of_totals,
    write_audit,
)

from conftest import interval_from_offsets


class TestIntervalScore:
    def test_outcome_inside_scores_width(self):
        sc = interval_score(1.0, 3.0, 2.0, 0.8)
        assert sc.total == 2.0
        assert (sc.dispersion, sc.overprediction, sc.underprediction) == (2.0, 0.0, 0.0)

    def test_overprediction_example(self):
        sc = interval_score(1.0, 3.0, 0.0, 0.8)
        assert sc.total == pytest.approx(12.0, abs=1e-12)
        assert sc.overprediction == pytest.approx(10.0, abs=1e-12)
        assert sc.underprediction == 0.0

    def test_underprediction_example(self):
        sc = interval_score(1.0, 3.0, 4.5, 0.5)
        assert sc.total == pytest.approx(8.0, abs=1e-12)
        assert sc.underprediction == pytest.approx(6.0, abs=1e-12)
        assert sc.overprediction == 0.0

    def test_boundary_outcomes_incur_no_penalty(self):
        assert interval_score(1.0, 3.0, 1.0, 0.8).total == 2.0
        assert interval_score(1.0, 3.0, 3.0, 0.8).total == 2.0

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            interval_score(3.0, 1.0, 2.0, 0.8)

    @pytest.mark.parametrize("score", [interval_score, score_parts])
    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_level_at_either_end_of_the_open_interval_rejected(self, score, tau):
        # At 0.0 the penalty 2 / (1 - tau) is finite and at 1.0 it divides by
        # zero: only the level check turns both into a ValueError.
        with pytest.raises(ValueError, match="outside"):
            score(1.0, 3.0, 0.0, tau)

    def test_decomposition_identity_and_exclusivity(self, rng):
        for _ in range(500):
            l, u = sorted(rng.normal(size=2))
            y = float(rng.normal(scale=3))
            tau = float(rng.uniform(0.05, 0.95))
            sc = interval_score(l, u, y, tau)
            assert sc.total == sc.dispersion + sc.overprediction + sc.underprediction
            assert sc.overprediction == 0.0 or sc.underprediction == 0.0

    def test_translation_and_scale_equivariance(self, rng):
        for _ in range(200):
            l, u = sorted(rng.normal(size=2))
            y = float(rng.normal(scale=3))
            tau = float(rng.uniform(0.05, 0.95))
            c = float(rng.normal(scale=5))
            s = float(rng.uniform(0.1, 10))
            base = interval_score(l, u, y, tau).total
            assert interval_score(l + c, u + c, y + c, tau).total == pytest.approx(
                base, abs=1e-9
            )
            assert interval_score(s * l, s * u, s * y, tau).total == pytest.approx(
                s * base, rel=1e-12
            )


def make_interval(tau, lower, upper, center=None):
    center = (lower + upper) / 2 if center is None else center
    return PredictionInterval(level=tau, lower=lower, upper=upper, center=center)


class TestWeightedIntervalScore:
    def test_default_level_weights(self):
        wts = WisWeights((0.5, 0.8))
        assert wts.weights == (0.25, pytest.approx(0.1))

    def test_weights_and_total_computed_once(self):
        wts = WisWeights((0.5, 0.8, 0.9))
        assert wts.weights is wts.weights
        assert wts.weights == ((1.0 - 0.5) / 2.0, (1.0 - 0.8) / 2.0, (1.0 - 0.9) / 2.0)
        assert wts.total == sum(wts.weights)
        assert wts == WisWeights((0.5, 0.8, 0.9))
        assert hash(wts) == hash(WisWeights((0.5, 0.8, 0.9)))

    def test_two_level_example(self):
        intervals = {
            0.5: make_interval(0.5, -2.0, 2.0),
            0.8: make_interval(0.8, -4.0, 4.0),
        }
        wis = weighted_interval_score(intervals, 0.0, WisWeights((0.5, 0.8)))
        assert wis == pytest.approx(1.8 / 0.35, abs=1e-12)

    def test_degenerate_zero(self):
        intervals = {0.5: make_interval(0.5, 1.0, 1.0), 0.8: make_interval(0.8, 1.0, 1.0)}
        assert weighted_interval_score(intervals, 1.0, WisWeights((0.5, 0.8))) == 0.0

    def test_single_level_reduces_to_interval_score(self, rng):
        for _ in range(50):
            l, u = sorted(rng.normal(size=2))
            y = float(rng.normal())
            wis = weighted_interval_score(
                {0.8: make_interval(0.8, l, u)}, y, WisWeights((0.8,))
            )
            assert wis == pytest.approx(interval_score(l, u, y, 0.8).total, abs=1e-12)

    def test_wis_between_min_and_max_per_level_scores(self, rng):
        for _ in range(50):
            cuts = np.sort(rng.normal(size=4))
            intervals = {
                0.5: make_interval(0.5, float(cuts[1]), float(cuts[2])),
                0.8: make_interval(0.8, float(cuts[0]), float(cuts[3])),
            }
            y = float(rng.normal())
            per_level = [
                interval_score(pi.lower, pi.upper, y, tau).total
                for tau, pi in intervals.items()
            ]
            wis = weighted_interval_score(intervals, y, WisWeights((0.5, 0.8)))
            assert min(per_level) - 1e-12 <= wis <= max(per_level) + 1e-12
            assert wis >= 0

    def test_missing_level_rejected(self):
        with pytest.raises(ValueError, match="incomplete level set"):
            weighted_interval_score(
                {0.5: make_interval(0.5, 0, 1)}, 0.5, WisWeights((0.5, 0.8))
            )


class TestCoverage:
    def test_all_inside(self):
        pairs = [(make_interval(0.8, 0, 1), 0.5)] * 5
        assert coverage_rate(pairs) == 1.0

    def test_alternating(self):
        pairs = []
        for i in range(10):
            pairs.append((make_interval(0.8, 0, 1), 0.5 if i % 2 == 0 else 2.0))
        assert coverage_rate(pairs) == 0.5

    def test_endpoint_counts_as_covered(self):
        assert coverage_rate([(make_interval(0.8, 0, 1), 1.0)]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            coverage_rate([])

    def test_simulated_calibration(self):
        rng = np.random.default_rng(7)
        history = np.abs(rng.normal(size=2000))
        q = float(np.quantile(history, 0.8, method="linear"))
        outcomes = rng.normal(size=2000)
        pairs = [(make_interval(0.8, -q, q, center=0.0), float(y)) for y in outcomes]
        assert coverage_rate(pairs) == pytest.approx(0.80, abs=0.05)


def scored(country, horizon, outcome=0.0, year=2015, method="imf"):
    """The audit row of a forecast at point 0 with offsets +-1 (level 0.5)
    and +-2 (level 0.8), built by the backtest's own row builder."""
    origin = horizon.origin_for(year)
    cell = GridCell(point=0.0, target_year=year, forecast_origin=origin, lower=(-1.0, -2.0), upper=(1.0, 2.0))
    grid = IntervalGrid(TargetId(country, "gdp"), origin, {horizon: cell}, (0.5, 0.8), blocks=(1,))
    return audit_row(grid, horizon, method, outcome, WisWeights((0.5, 0.8)))


def test_audit_row_rejects_a_grid_of_other_levels():
    origin = Horizon.FALL_CURRENT.origin_for(2015)
    cell = GridCell(point=0.0, target_year=2015, forecast_origin=origin, lower=(-1.0, -2.0), upper=(1.0, 2.0))
    grid = IntervalGrid(TargetId("AAA", "gdp"), origin, {Horizon.FALL_CURRENT: cell}, (0.5, 0.9), blocks=(1,))
    with pytest.raises(ValueError, match="grid levels"):
        audit_row(grid, Horizon.FALL_CURRENT, "imf", 0.0, WisWeights((0.5, 0.8)))


class TestAggregateReport:
    def test_row_scores(self):
        row = scored("AAA", Horizon.FALL_CURRENT, outcome=5.0)
        assert row["intervals"]["0.5"] == {
            "lower": -1.0, "upper": 1.0, "degenerate": False, "excludes_center": False,
        }
        # Outcome 5 lies 4 above [-1, 1] and 3 above [-2, 2].
        assert row["scores"]["0.5"] == {
            "total": 18.0, "dispersion": 2.0, "overprediction": 0.0, "underprediction": 16.0,
        }
        assert row["scores"]["0.8"]["total"] == pytest.approx(34.0, abs=1e-12)
        assert row["wis"] == pytest.approx((0.25 * 18.0 + 0.1 * 34.0) / 0.35, abs=1e-12)

    def test_cell_mean(self):
        report = aggregate_report(
            [scored("AAA", Horizon.FALL_CURRENT, 0.0), scored("AAA", Horizon.FALL_CURRENT, 5.0)],
            levels=(0.5, 0.8),
        )
        cell = report.cells[("AAA", "gdp", "fall-current", "imf")]
        # WIS (0.25 * 2 + 0.1 * 4) / 0.35 at outcome 0, (0.25 * 18 + 0.1 * 34) / 0.35 at 5.
        assert cell.mean_wis == pytest.approx((0.9 / 0.35 + 7.9 / 0.35) / 2, abs=1e-12)
        assert cell.coverage == {0.5: 0.5, 0.8: 0.5}
        assert cell.mean_length == {0.5: 2.0, 0.8: 4.0}
        assert cell.n == 2

    def test_component_shares_sum_to_mean_wis(self, rng):
        forecasts = [
            scored("AAA", Horizon.FALL_CURRENT, outcome=float(rng.normal(scale=3)))
            for _ in range(20)
        ]
        report = aggregate_report(forecasts, levels=(0.5, 0.8))
        cell = report.cells[("AAA", "gdp", "fall-current", "imf")]
        total = cell.mean_dispersion + cell.mean_overprediction + cell.mean_underprediction
        assert total == pytest.approx(cell.mean_wis, abs=1e-12)

    def test_pooled_cell_is_count_weighted_mean(self):
        forecasts = []
        for i, country in enumerate("ABCDEFG"):
            for _ in range(i + 1):
                forecasts.append(scored(country * 3, Horizon.FALL_NEXT, outcome=float(i)))
        report = aggregate_report(forecasts, levels=(0.5, 0.8))
        pooled = report.cells[(POOLED, "gdp", "fall-next", "imf")]
        wis = [forecasts[i * (i + 1) // 2]["wis"] for i in range(7)]
        counts = [i + 1 for i in range(7)]
        expected = sum(n * w for n, w in zip(counts, wis)) / sum(counts)
        assert pooled.mean_wis == pytest.approx(expected, abs=1e-12)
        assert pooled.n == sum(counts)

    def test_exclusions(self):
        forecasts = [
            scored("JPN", Horizon.FALL_CURRENT, 0.0, year=2021),
            scored("JPN", Horizon.FALL_CURRENT, 5.0, year=2019),
        ]
        report = aggregate_report(forecasts, levels=(0.5, 0.8),
                                  exclusions=(("JPN", 2021, 2023),))
        cell = report.cells[("JPN", "gdp", "fall-current", "imf")]
        assert cell.n == 1
        assert cell.mean_wis == forecasts[1]["wis"]

    def test_empty_after_exclusions_warns(self):
        report = aggregate_report(
            [scored("JPN", Horizon.FALL_CURRENT, 1.0, year=2021)],
            levels=(0.5, 0.8), exclusions=(("JPN", 2021, 2023),),
        )
        assert report.cells == {}
        assert report.warnings

    def test_serialization_roundtrip_schema(self):
        report = aggregate_report(
            [scored("AAA", Horizon.FALL_CURRENT, 2.0)], levels=(0.5, 0.8)
        )
        csv_text = report.to_csv()
        header = csv_text.splitlines()[0]
        assert header == "country,variable,horizon,method,level,metric,value,n"
        payload = json.loads(report.to_json())
        assert payload["levels"] == [0.5, 0.8]
        assert any(row["metric"] == "coverage" for row in payload["rows"])


# -- the object path, the oracle of the audit rows and their aggregation -----
@dataclass(frozen=True)
class ScoredForecast:
    """One interval forecast scored against its outcome, at all levels: the
    record the backtest kept before its audit rows were its scored record."""

    target: TargetId
    horizon: Horizon
    origin: ReleaseDate
    target_year: int
    method: str
    outcome: float
    intervals: Mapping[float, PredictionInterval]
    scores: Mapping[float, ScoreDecomposition]
    wis: float


def scored_forecast(grid, horizon, method, outcome, levels):
    """The forecast as the backtest scored it into objects."""
    cell = grid.cells[horizon]
    intervals = {
        tau: interval_from_offsets(cell.point, tau, IntervalOffsets(lo, up))
        for tau, lo, up in zip(levels, cell.lower, cell.upper)
    }
    scores = {tau: interval_score(pi.lower, pi.upper, outcome, tau) for tau, pi in intervals.items()}
    return ScoredForecast(
        target=grid.target, horizon=horizon, origin=cell.forecast_origin,
        target_year=cell.target_year, method=method, outcome=outcome, intervals=intervals,
        scores=scores, wis=wis_of_totals([scores[tau].total for tau in levels], WisWeights(levels)),
    )


def object_audit_row(sf, grid, cell):
    """The audit row the backtest built from a ``ScoredForecast``."""
    return {
        "country": sf.target.country,
        "variable": sf.target.variable,
        "method": sf.method,
        "horizon": sf.horizon.label,
        "grid_origin": str(grid.origin),
        "forecast_origin": str(cell.forecast_origin),
        "target_year": sf.target_year,
        "point": cell.point,
        "outcome": sf.outcome,
        "source_years": list(cell.source_years),
        "skipped_years": list(cell.skipped_years),
        "pava_blocks": list(grid.blocks or ()),
        "intervals": {
            str(tau): {
                "lower": pi.lower,
                "upper": pi.upper,
                "degenerate": pi.degenerate,
                "excludes_center": pi.excludes_center,
            }
            for tau, pi in sorted(sf.intervals.items())
        },
        "scores": {
            str(tau): {
                "total": sc.total,
                "dispersion": sc.dispersion,
                "overprediction": sc.overprediction,
                "underprediction": sc.underprediction,
            }
            for tau, sc in sorted(sf.scores.items())
        },
        "wis": sf.wis,
    }


def object_cell_stats(group, levels):
    coverage, mean_length, mean_is = {}, {}, {}
    for tau in levels:
        pairs = [(sf.intervals[tau], sf.outcome) for sf in group]
        coverage[tau] = coverage_rate(pairs)
        mean_length[tau] = mean([sf.intervals[tau].length for sf in group])
        mean_is[tau] = mean([sf.scores[tau].total for sf in group])
    wts = WisWeights(levels)

    def wis_component(sf, attr):
        return (
            sum(w * getattr(sf.scores[tau], attr) for tau, w in zip(levels, wts.weights))
            / wts.total
        )

    return CellStats(
        n=len(group),
        mean_wis=mean([sf.wis for sf in group]),
        mean_dispersion=mean([wis_component(sf, "dispersion") for sf in group]),
        mean_overprediction=mean([wis_component(sf, "overprediction") for sf in group]),
        mean_underprediction=mean([wis_component(sf, "underprediction") for sf in group]),
        coverage=coverage,
        mean_length=mean_length,
        mean_is=mean_is,
    )


def object_report(scored, levels, exclusions=()):
    """The backtest's report from ``ScoredForecast`` objects."""
    report = EvaluationReport(levels=levels)
    kept = [
        sf for sf in scored
        if not any(sf.target.country == c and lo <= sf.target_year <= hi for c, lo, hi in exclusions)
    ]
    if not kept:
        report.warnings.append("no scored forecasts after exclusions")
        return report
    groups = {}
    for sf in kept:
        key = (sf.target.country, sf.target.variable, sf.horizon.label, sf.method)
        groups.setdefault(key, []).append(sf)
        pooled = (POOLED, sf.target.variable, sf.horizon.label, sf.method)
        groups.setdefault(pooled, []).append(sf)
    for key, group in groups.items():
        report.cells[key] = object_cell_stats(group, levels)
    return report


# Levels whose string order differs from their numeric order ("0.05" <
# "1e-05"), and single levels.
level_sets = st.lists(
    st.one_of(st.sampled_from([1e-05, 0.05, 0.1, 0.5, 0.8, 0.9, 0.95, 0.123456789]),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    unique=True, min_size=1, max_size=4,
).map(lambda taus: tuple(sorted(taus)))
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def scored_forecasts(draw, levels):
    """A one-cell grid and an outcome, often on an interval end or at the point."""
    horizon = draw(st.sampled_from(HORIZONS))
    year = draw(st.integers(2010, 2016))
    point = draw(values)
    offsets = {tau: IntervalOffsets(*sorted([draw(values), draw(values)])) for tau in levels}
    origin = horizon.origin_for(year)
    cell = GridCell(point=point, target_year=year, forecast_origin=origin,
                    lower=[offs.lower for offs in offsets.values()],
                    upper=[offs.upper for offs in offsets.values()],
                    source_years=(year - 2, year - 1))
    target = TargetId(draw(st.sampled_from(["AAA", "BBB", "CCC"])), draw(st.sampled_from(["gdp", "cpi"])))
    grid = IntervalGrid(target, origin, {horizon: cell}, levels, blocks=(1,))
    ends = [point + o for offs in offsets.values() for o in (offs.lower, offs.upper)]
    outcome = draw(st.one_of(st.sampled_from([point, -0.0, *ends]), values))
    return grid, horizon, draw(st.sampled_from(["imf", "ar"])), outcome


@st.composite
def backtests(draw):
    levels = draw(level_sets)
    forecasts = draw(st.lists(scored_forecasts(levels), max_size=12))
    exclusions = draw(st.lists(
        st.tuples(st.sampled_from(["AAA", "BBB", "DDD"]), st.integers(2009, 2017), st.integers(0, 3))
        .map(lambda t: (t[0], t[1], t[1] + t[2])),
        max_size=2,
    ))
    return levels, forecasts, tuple(exclusions)


@settings(max_examples=150, deadline=None)
@given(backtests())
def test_row_aggregation_is_byte_identical_to_the_object_path(case):
    levels, forecasts, exclusions = case
    weights = WisWeights(levels)
    rows = [audit_row(grid, h, method, y, weights) for grid, h, method, y in forecasts]
    objects = [scored_forecast(grid, h, method, y, levels) for grid, h, method, y in forecasts]
    old_rows = [object_audit_row(sf, grid, grid.cells[h]) for sf, (grid, h, _, _) in zip(objects, forecasts)]
    assert json.dumps(rows, sort_keys=True) == json.dumps(old_rows, sort_keys=True)
    expected = object_report(objects, levels, exclusions)
    # Rows as built, and as read back from the audit file.
    buf = io.StringIO()
    write_audit(rows, buf)
    read_back = json.loads(buf.getvalue())
    check_rows(read_back, levels)
    for got in (aggregate_report(rows, levels, exclusions), aggregate_report(read_back, levels, exclusions)):
        assert got.to_csv() == expected.to_csv()
        assert got.to_json() == dumped_report(expected)


def dumped_report(report):
    """``report.json`` as ``json.dumps`` renders it: the oracle of ``to_json``."""
    payload = {
        "levels": list(report.levels),
        "rows": [{**dict(zip(REPORT_HEADER, row)), "value": float(row[6])} for row in report.to_rows()],
        "warnings": list(report.warnings),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


report_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1e16, 1e-7, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
names = st.one_of(st.sampled_from(["AAA", POOLED, "Ünïcødé", "\x00\"\\", "%s %%"]), st.text(max_size=8))


@st.composite
def reports(draw):
    """A report of arbitrary cells, possibly none, and warnings."""
    levels = draw(level_sets)
    report = EvaluationReport(levels=levels, warnings=draw(st.lists(names, max_size=3)))

    def per_level():
        return {tau: draw(report_values) for tau in levels}

    for _ in range(draw(st.integers(0, 3))):
        key = (draw(names), draw(names), draw(st.sampled_from([h.label for h in HORIZONS])), draw(names))
        report.cells[key] = CellStats(
            n=draw(st.integers(0, 10**6)), mean_wis=draw(report_values),
            mean_dispersion=draw(report_values), mean_overprediction=draw(report_values),
            mean_underprediction=draw(report_values),
            coverage=per_level(), mean_length=per_level(), mean_is=per_level(),
        )
    return report


@settings(max_examples=150, deadline=None)
@given(reports())
def test_report_json_is_json_dumps_text(report):
    assert report.to_json() == dumped_report(report)
