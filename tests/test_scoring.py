import numpy as np
import pytest

from intervalcast.domain import Horizon, ReleaseDate, Season, TargetId
from intervalcast.intervals import PredictionInterval
from intervalcast.scoring import (
    POOLED,
    ScoredForecast,
    WisWeights,
    aggregate_report,
    coverage_rate,
    interval_score,
    weighted_interval_score,
)


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


def scored(country, horizon, wis_value, outcome=0.0, year=2015, method="imf"):
    intervals = {
        0.5: make_interval(0.5, -1.0, 1.0),
        0.8: make_interval(0.8, -2.0, 2.0),
    }
    scores = {
        tau: interval_score(pi.lower, pi.upper, outcome, tau)
        for tau, pi in intervals.items()
    }
    return ScoredForecast(
        target=TargetId(country, "gdp"),
        horizon=horizon,
        origin=horizon.origin_for(year),
        target_year=year,
        method=method,
        outcome=outcome,
        intervals=intervals,
        scores=scores,
        wis=wis_value,
    )


class TestAggregateReport:
    def test_cell_mean(self):
        report = aggregate_report(
            [scored("AAA", Horizon.FALL_CURRENT, 2.0), scored("AAA", Horizon.FALL_CURRENT, 4.0)],
            levels=(0.5, 0.8),
        )
        cell = report.cells[("AAA", "gdp", "fall-current", "imf")]
        assert cell.mean_wis == 3.0
        assert cell.n == 2

    def test_component_shares_sum_to_mean_wis(self, rng):
        forecasts = []
        for i in range(20):
            outcome = float(rng.normal(scale=3))
            sf = scored("AAA", Horizon.FALL_CURRENT, 0.0, outcome=outcome)
            wis = weighted_interval_score(sf.intervals, outcome, WisWeights((0.5, 0.8)))
            forecasts.append(
                ScoredForecast(**{**sf.__dict__, "wis": wis})
            )
        report = aggregate_report(forecasts, levels=(0.5, 0.8))
        cell = report.cells[("AAA", "gdp", "fall-current", "imf")]
        total = cell.mean_dispersion + cell.mean_overprediction + cell.mean_underprediction
        assert total == pytest.approx(cell.mean_wis, abs=1e-12)

    def test_pooled_cell_is_count_weighted_mean(self):
        forecasts = []
        for i, country in enumerate("ABCDEFG"):
            for _ in range(i + 1):
                forecasts.append(scored(country * 3, Horizon.FALL_NEXT, float(i)))
        report = aggregate_report(forecasts, levels=(0.5, 0.8))
        pooled = report.cells[(POOLED, "gdp", "fall-next", "imf")]
        counts = [i + 1 for i in range(7)]
        expected = sum((i + 1) * float(i) for i in range(7)) / sum(counts)
        assert pooled.mean_wis == pytest.approx(expected, abs=1e-12)
        assert pooled.n == sum(counts)

    def test_exclusions(self):
        forecasts = [
            scored("JPN", Horizon.FALL_CURRENT, 1.0, year=2021),
            scored("JPN", Horizon.FALL_CURRENT, 9.0, year=2019),
        ]
        report = aggregate_report(forecasts, levels=(0.5, 0.8),
                                  exclusions=(("JPN", 2021, 2023),))
        cell = report.cells[("JPN", "gdp", "fall-current", "imf")]
        assert cell.n == 1
        assert cell.mean_wis == 9.0

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
        import json

        payload = json.loads(report.to_json())
        assert payload["levels"] == [0.5, 0.8]
        assert any(row["metric"] == "coverage" for row in payload["rows"])
