import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast import benchmark, pipeline
from intervalcast.benchmark import QuarterlySeries, QuarterlyTruthSelector
from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, Season, TargetId, horizon_of
from intervalcast.errorsets import ErrorMethod
from intervalcast.ingest import FallbackRule, ForecastPanel, PanelTruthSelector
from intervalcast.pipeline import (
    ErrorHistory,
    RunConfig,
    TuningReport,
    TuningRow,
    _ar_lookup,
    build_grid,
    fresh_horizons,
    load_config,
    outstanding_cells,
    parse_exclusions,
    parse_span,
    produce_forecast,
    run_backtest,
    run_tuning,
    write_backtest_outputs,
)
from intervalcast.quantile import QuantileMethod

from conftest import dumped_tuning, make_panel, tuning_cell, without

TARGET = TargetId("AAA", "gdp")


class TestConfig:
    def test_span_validation(self):
        with pytest.raises(ValueError, match="disjoint"):
            RunConfig(train_span=(1990, 2013), holdout_span=(2013, 2023))
        with pytest.raises(ValueError, match="ordered"):
            RunConfig(train_span=(2012, 1990), holdout_span=(2013, 2023))
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(methods=("imf", "arma"))
        with pytest.raises(ValueError, match="window"):
            RunConfig(window=0)

    @pytest.mark.parametrize("field, value", [
        ("methods", ()), ("ar_window", 0), ("ar_window", -3), ("ar_min_obs", 0),
    ])
    def test_values_that_would_run_silently_wrong_are_rejected(self, field, value):
        # Accepted before: no method wrote header-only files, and ar_window -3
        # fitted on all but the first two quarters of the run.
        with pytest.raises(ValueError, match=f"^{field} must "):
            RunConfig(**{field: value})

    def test_parse_exclusions(self):
        assert parse_exclusions(["JPN:2021-2023", "DEU:2009"]) == (
            ("JPN", 2021, 2023),
            ("DEU", 2009, 2009),
        )
        with pytest.raises(ValueError, match="bad exclusion"):
            parse_exclusions(["JPN"])

    @pytest.mark.parametrize("token, why", [
        (["JPN", 2021, 2023], "expected COUNTRY:FIRST-LAST"),
        ("JPN:2023-2021", "first year after last"),
        (":2021", "expected COUNTRY:FIRST-LAST"),
    ])
    def test_load_config_rejects_bad_exclusion(self, tmp_path, token, why):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"exclude": [token]}))
        with pytest.raises(ValueError, match=f"bad config value for exclude: bad exclusion .*{why}"):
            load_config(str(path))

    def test_parse_span(self):
        assert parse_span("1990-2012") == (1990, 2012)
        assert parse_span("2020") == (2020, 2020)
        for token in ("2013-", "-2023", "-", ""):
            with pytest.raises(ValueError, match=f"^bad span '{token}': expected FIRST-LAST or YEAR$"):
                parse_span(token)

    def test_load_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "levels": [0.5, 0.8],
            "error_method": "directional",
            "quantile_method": "type1",
            "train_span": "1985-2010",
            "holdout_span": [2011, 2020],
            "exclude": "JPN:2021-2023",
            "window": 8,
            "eval_as_of": "2024S",
        }))
        config = load_config(str(path), out="results")
        assert config.error_method is ErrorMethod.DIRECTIONAL
        assert config.quantile_method is QuantileMethod.INVERSE_ECDF
        assert config.train_span == (1985, 2010)
        assert config.holdout_span == (2011, 2020)
        assert config.exclude == (("JPN", 2021, 2023),)
        assert config.window == 8
        assert config.eval_as_of == ReleaseDate(2024, Season.SPRING)
        assert config.out == "results"

    @pytest.mark.parametrize("source", ["json", "override"])
    def test_load_config_ignores_spaces_around_list_items_and_release_dates(self, tmp_path, source):
        # Each raised: "unknown method ' ar'" and "bad release date '2023F '".
        raw = {"methods": " imf, ar ", "eval_as_of": "2023F ", "levels": "0.5 ,0.9"}
        if source == "json":
            (tmp_path / "config.json").write_text(json.dumps(raw))
            config = load_config(str(tmp_path / "config.json"))
        else:
            config = load_config(None, **raw)
        assert config.methods == ("imf", "ar")
        assert config.eval_as_of == ReleaseDate(2023, Season.FALL)
        assert config.levels == (0.5, 0.9)
        with pytest.raises(ValueError, match=r"^bad config value for methods: empty item in comma list 'imf, ,ar'$"):
            load_config(None, methods="imf, ,ar")

    def test_load_config_keeps_spaces_of_paths_and_tags(self):
        config = load_config(None, data=" panel.csv ", out=" out", generated_at="tag ")
        assert (config.data, config.out, config.generated_at) == (" panel.csv ", " out", "tag ")

    def test_load_config_defaults(self):
        config = load_config()
        assert config.window == 11
        assert config.levels == (0.5, 0.8)
        assert config.methods == ("imf",)

    def test_load_config_converts_truth_rule_and_ar_settings(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"truth_rule": "none", "ar_min_obs": "12", "ar_window": "8"}))
        config = load_config(str(path))
        assert config.truth_rule == FallbackRule.NONE
        assert (config.ar_min_obs, config.ar_window) == (12, 8)
        path.write_text(json.dumps({"ar_window": None}))
        assert load_config(str(path)).ar_window is None
        assert load_config(None, truth_rule=FallbackRule.LATEST_AVAILABLE).truth_rule == FallbackRule.LATEST_AVAILABLE

    def test_truth_rule_string_rejected_by_name(self):
        # Accepted before, then failed in select_truth with an AttributeError.
        with pytest.raises(ValueError, match="truth_rule must be FallbackRule, got 'none'"):
            RunConfig(truth_rule="none")

    def test_ar_window_string_rejected_by_name(self):
        with pytest.raises(ValueError, match="ar_window must be int or None, got '8'"):
            RunConfig(ar_window="8")

    @pytest.mark.parametrize("field, value", [
        ("error_method", "absolute"),
        ("quantile_method", "type7"),
        ("window", "11"),
        ("window", True),
        ("ar_min_obs", 20.0),
        ("ar_window", False),
        ("eval_as_of", "2024S"),
    ])
    def test_wrong_value_types_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field, value, fragment", [
        # A list of levels built, then failed in run_backtest as an unhashable memo key.
        ("levels", [0.5, 0.8], "levels must be a tuple of float"),
        ("levels", (0.5, 1), "levels must be a tuple of float"),
        ("levels", (0.5, True), "levels must be a tuple of float"),
        # A string of methods was read letter by letter: "unknown method 'i'".
        ("methods", "imf", "methods must be a tuple of str"),
        ("methods", ("imf", 1), "methods must be a tuple of str"),
        ("exclude", [("AAA", 2015, 2016)], "exclude must be a tuple of tuple"),
        ("exclude", ("AAA:2015-2016",), "exclude must be a tuple of tuple"),
        # A year of the wrong type built, then failed inside aggregate_report.
        ("exclude", (("AAA", "x", 2),), "exclude entry"),
        ("exclude", (("AAA", 2015, True),), "exclude entry"),
        ("exclude", (("", 2015, 2016),), "exclude entry"),
        ("exclude", ((5, 2015, 2016),), "exclude entry"),
        ("exclude", (("AAA", 2015),), "exclude entry"),
        ("exclude", (("AAA", 2016, 2015),), "first <= last"),
    ])
    def test_collection_values_checked_by_name(self, field, value, fragment):
        with pytest.raises(ValueError, match=f"^{field}") as exc:
            RunConfig(**{field: value})
        assert fragment in str(exc.value)

    def test_load_config_rejects_unknown_keys_by_name(self):
        with pytest.raises(ValueError, match="unknown config key.*quantile, windw"):
            load_config(None, windw=9, quantile="type1")

    @pytest.mark.parametrize("methods", [("imf", "imf"), ("imf", "ar", "imf"), ("ar", "ar")])
    def test_repeated_method_rejected_by_name(self, methods):
        # Accepted before: each forecast of the label was scored once per listing.
        with pytest.raises(ValueError, match=f"method '{methods[-1]}' listed twice"):
            RunConfig(methods=methods)
        with pytest.raises(ValueError, match="listed twice"):
            load_config(None, methods=",".join(methods))


class TestGridLayout:
    def test_fall_origin_cells(self):
        cells = outstanding_cells(ReleaseDate(2020, Season.FALL))
        assert cells[Horizon.FALL_CURRENT] == (ReleaseDate(2020, Season.FALL), 2020)
        assert cells[Horizon.SPRING_CURRENT] == (ReleaseDate(2020, Season.SPRING), 2020)
        assert cells[Horizon.FALL_NEXT] == (ReleaseDate(2020, Season.FALL), 2021)
        assert cells[Horizon.SPRING_NEXT] == (ReleaseDate(2020, Season.SPRING), 2021)

    def test_spring_origin_cells(self):
        cells = outstanding_cells(ReleaseDate(2020, Season.SPRING))
        assert cells[Horizon.FALL_CURRENT] == (ReleaseDate(2019, Season.FALL), 2019)
        assert cells[Horizon.SPRING_CURRENT] == (ReleaseDate(2020, Season.SPRING), 2020)
        assert cells[Horizon.FALL_NEXT] == (ReleaseDate(2019, Season.FALL), 2020)
        assert cells[Horizon.SPRING_NEXT] == (ReleaseDate(2020, Season.SPRING), 2021)

    def test_each_cell_is_at_its_stated_horizon(self):
        for season in Season:
            origin = ReleaseDate(2020, season)
            for horizon, (forecast_origin, year) in outstanding_cells(origin).items():
                assert horizon.origin_for(year) == forecast_origin

    def test_fresh_horizons(self):
        assert fresh_horizons(ReleaseDate(2020, Season.FALL)) == (
            Horizon.FALL_CURRENT, Horizon.FALL_NEXT,
        )
        assert fresh_horizons(ReleaseDate(2020, Season.SPRING)) == (
            Horizon.SPRING_CURRENT, Horizon.SPRING_NEXT,
        )


class TestBuildGrid:
    def test_full_grid(self, small_panel):
        config = RunConfig()
        truths = PanelTruthSelector(small_panel)
        history = ErrorHistory(small_panel.forecast, truths, config.window)
        grid, gaps = build_grid(history, TARGET, ReleaseDate(2020, Season.FALL), config)
        assert gaps == []
        assert grid.horizons == HORIZONS
        for k in range(len(config.levels)):
            lengths = [grid.cells[h].upper[k] - grid.cells[h].lower[k] for h in HORIZONS]
            assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_missing_forecast_becomes_gap(self, small_panel):
        panel = without(small_panel, forecasts=[(TARGET, ReleaseDate(2020, Season.SPRING), 2021)])
        config = RunConfig()
        truths = PanelTruthSelector(panel)
        history = ErrorHistory(panel.forecast, truths, config.window)
        grid, gaps = build_grid(history, TARGET, ReleaseDate(2020, Season.FALL), config)
        assert Horizon.SPRING_NEXT not in grid.cells
        assert len(gaps) == 1 and "spring-next" in gaps[0]

    def test_insufficient_history_becomes_gap(self, small_panel):
        config = RunConfig(train_span=(1980, 1992), holdout_span=(1993, 1996))
        truths = PanelTruthSelector(small_panel)
        history = ErrorHistory(small_panel.forecast, truths, config.window)
        grid, gaps = build_grid(history, TARGET, ReleaseDate(1993, Season.FALL), config)
        assert grid is None
        assert gaps

    def test_pooling_turns_negative_zero_offsets_into_zero(self):
        # Exact forecasts: every absolute error is 0, so every lower offset is -0.0.
        panel = make_panel(countries=("AAA",), sigmas={h: 0.0 for h in HORIZONS})
        config = RunConfig()
        origin = ReleaseDate(2020, Season.FALL)
        history = ErrorHistory(panel.forecast, PanelTruthSelector(panel), config.window)
        grid, _ = build_grid(history, TARGET, origin, config)
        assert grid.blocks == (1, 1, 1, 1)
        assert {repr(lo) for cell in grid.cells.values() for lo in cell.lower} == {"0.0"}
        panel = without(panel, forecasts=[
            (TARGET, forecast_origin, year)
            for horizon, (forecast_origin, year) in outstanding_cells(origin).items()
            if horizon is not Horizon.FALL_CURRENT
        ])
        history = ErrorHistory(panel.forecast, PanelTruthSelector(panel), config.window)
        grid, _ = build_grid(history, TARGET, origin, config)
        assert grid.blocks == (1,)
        assert {repr(lo) for lo in grid.cells[Horizon.FALL_CURRENT].lower} == {"-0.0"}


def ar_quarterly(targets, seed):
    """AR(1) quarterly growth, 1950-2024, for each of ``targets``."""
    rng = np.random.default_rng(seed)
    quarterly = {}
    for target in targets:
        growth = {}
        x = 0.5
        for year in range(1950, 2025):
            for q in (1, 2, 3, 4):
                x = 0.3 + 0.5 * x + float(rng.normal(0.0, 0.4))
                growth[(year, q)] = x
        quarterly[target] = QuarterlySeries(target=target, growth=growth)
    return quarterly


def backtest_panel(n_countries=6, seed=5):
    countries = tuple(chr(ord("A") + i) * 3 for i in range(n_countries))
    return make_panel(countries=countries, seed=seed)


class TestRunBacktest:
    def test_each_forecast_scored_once(self):
        panel = backtest_panel(2)
        result = run_backtest(RunConfig(), panel)
        keys = [
            (row["method"], row["country"], row["variable"], row["horizon"], row["target_year"])
            for row in result.audit
        ]
        assert len(keys) == len(set(keys))

    def test_kept_grids_share_windows_pooled_rows_and_releases(self):
        # Within one target's history, equal windows are one tuple and each
        # year is one int; a pooled block's cells hold one lower and one upper
        # row; a fresh cell's release is the grid's origin, and the cells of
        # the other season share one release.
        result = run_backtest(RunConfig(), backtest_panel(2))
        tables: dict[TargetId, tuple[dict, dict]] = {}
        n_cells = n_merged = 0
        for grid in result.grids:
            windows, years = tables.setdefault(grid.target, ({}, {}))
            cells = [grid.cells[h] for h in grid.horizons]
            n_cells += len(cells)
            for cell in cells:
                assert windows.setdefault(cell.source_years, cell.source_years) is cell.source_years
                assert all(years.setdefault(year, year) is year for year in cell.source_years)
            start = 0
            for size in grid.blocks:
                block, start = cells[start:start + size], start + size
                n_merged += size > 1
                assert all(c.lower is block[0].lower and c.upper is block[0].upper for c in block)
            assert all(grid.cells[h].forecast_origin is grid.origin
                       for h in fresh_horizons(grid.origin) if h in grid.cells)
            assert len({id(c.forecast_origin) for c in cells if c.forecast_origin is not grid.origin}) <= 1
        assert len(tables) == 2 and n_merged > 0
        assert sum(len(windows) for windows, _ in tables.values()) < n_cells

    def test_target_years_within_holdout_and_origins_consistent(self):
        panel = backtest_panel(2)
        config = RunConfig()
        result = run_backtest(config, panel)
        h0, h1 = config.holdout_span
        horizons = {h.label: h for h in HORIZONS}
        for row in result.audit:
            assert h0 <= row["target_year"] <= h1
            origin = horizons[row["horizon"]].origin_for(row["target_year"])
            assert str(origin) == row["forecast_origin"]

    def test_expected_count(self):
        # 2 countries x 1 variable x 4 horizons x 11 holdout years.
        panel = backtest_panel(2)
        result = run_backtest(RunConfig(), panel)
        assert len(result.audit) == 2 * 4 * 11

    def test_holdout_walk_stops_at_the_last_realized_year(self, monkeypatch):
        # Realized target years run to 2023, so no origin after 2023 can
        # score; the walk once went on to 999999, asking for 4 million grids.
        # The first run keeps its grids on its panel, so the counted run
        # walks a fresh one.
        bounded = run_backtest(RunConfig(), backtest_panel(2))
        panel, build, asked = backtest_panel(2), pipeline.build_grid, []

        def counted(*args):
            asked.append(args)
            assert len(asked) <= 2 * 2 * (2023 - 2012 + 1), "walked past the data"
            return build(*args)

        monkeypatch.setattr(pipeline, "build_grid", counted)
        result = run_backtest(RunConfig(holdout_span=(2013, 999999)), panel)
        assert len(asked) == 2 * 2 * (2023 - 2012 + 1)
        assert result.audit == bounded.audit
        # The 2023 origins' next-year cells (2024) are unrealized, as before.
        assert result.gaps == [
            "holdout origins 2024-999999 skipped: no realization for target years 2024-1000000",
            *(f"truth unavailable for {country}/gdp 2024 as of 2024F" for country in ("AAA", "BBB") for _ in "SF"),
        ]

    def test_pooled_coverage_near_nominal(self):
        panel = backtest_panel(6)
        result = run_backtest(RunConfig(), panel)
        # Finite error windows under-cover slightly: about tau - (2*tau-1)/(R+1).
        expected = {0.5: 0.5, 0.8: 0.8 - 0.6 / 12}
        for tau in (0.5, 0.8):
            per_horizon = [
                result.report.cells[("pooled", "gdp", h.label, "imf")].coverage[tau]
                for h in HORIZONS
            ]
            for cvg in per_horizon:
                assert abs(cvg - expected[tau]) < 0.15
            assert abs(np.mean(per_horizon) - expected[tau]) < 0.08

    def test_grid_lengths_monotone_after_correction(self):
        panel = backtest_panel(2)
        config = RunConfig()
        result = run_backtest(config, panel)
        assert result.grids
        for grid in result.grids:
            for k in range(len(config.levels)):
                lengths = [grid.cells[h].upper[k] - grid.cells[h].lower[k] for h in grid.horizons]
                assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_exclusions_remove_country_cells(self):
        panel = backtest_panel(2)
        config = RunConfig(exclude=(("AAA", 2013, 2023),))
        result = run_backtest(config, panel)
        assert not any(key[0] == "AAA" for key in result.report.cells)
        assert any(key[0] == "BBB" for key in result.report.cells)

    def test_deterministic_outputs(self, tmp_path):
        panel = backtest_panel(2)
        config = RunConfig()
        a = run_backtest(config, panel)
        b = run_backtest(config, panel)
        assert a.report.to_csv() == b.report.to_csv()
        assert json.dumps(a.audit, sort_keys=True) == json.dumps(b.audit, sort_keys=True)
        paths = write_backtest_outputs(a, str(tmp_path / "out"))
        assert sorted(p.rsplit("/", 1)[1] for p in paths) == [
            "audit.json", "gaps.json", "report.csv", "report.json", "run.json",
        ]

    def test_audit_rows_expose_provenance(self):
        panel = backtest_panel(2)
        result = run_backtest(RunConfig(), panel)
        row = result.audit[0]
        assert set(row) >= {
            "country", "horizon", "grid_origin", "forecast_origin", "target_year",
            "source_years", "pava_blocks", "intervals", "scores", "wis",
        }
        assert len(row["source_years"]) == 11

    def test_ar_method_runs_on_quarterly_data(self):
        panel = backtest_panel(2)
        config = RunConfig(methods=("ar",))
        result = run_backtest(config, panel, quarterly=ar_quarterly(panel.targets, seed=9))
        assert result.audit
        assert {row["method"] for row in result.audit} == {"ar"}

    def test_ar_method_requires_quarterly_data(self):
        with pytest.raises(ValueError, match="quarterly data"):
            run_backtest(RunConfig(methods=("ar",)), backtest_panel(2))

    @staticmethod
    def _counted_ar(monkeypatch):
        calls = {"fit": 0, "forecast": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(benchmark, "fit_ar1", counted("fit", benchmark.fit_ar1))
        monkeypatch.setattr(pipeline, "benchmark_forecast", counted("forecast", pipeline.benchmark_forecast))
        return calls

    def test_ar_lookup_fits_once_per_target_and_origin(self, monkeypatch):
        rng = np.random.default_rng(4)
        growth = {(year, q): float(rng.normal(0.5, 0.4)) for year in range(1990, 2021)
                  for q in (1, 2, 3, 4)}
        del growth[(2008, 2)]  # origins 2008F to 2013S lack 20 contiguous pairs
        series = QuarterlySeries(target=TARGET, growth=growth)
        quarterly = {TARGET: series}
        config = RunConfig(methods=("ar",))
        asks = [
            (target, ReleaseDate(year, season), year + offset)
            for target in (TARGET, TargetId("BBB", "gdp"))  # BBB has no series
            for year in range(2000, 2020) for season in Season for offset in (1, 0, 1, 0)
        ]

        def unshared(target, origin, target_year):
            if target not in quarterly:
                return None
            try:
                fit = benchmark.fit_ar1(series, benchmark.quarter_cutoff(origin),
                                        min_obs=config.ar_min_obs, window=config.ar_window)
                return benchmark.benchmark_forecast(series, origin, horizon_of(origin, target_year), fit)
            except ValueError:
                return None

        expected = [unshared(*ask) for ask in asks]
        assert None in expected[:len(expected) // 2] and any(v is not None for v in expected)
        calls = self._counted_ar(monkeypatch)
        history = ErrorHistory(_ar_lookup(quarterly, config), QuarterlyTruthSelector(quarterly), config.window)
        points = [history.points[target, horizon_of(origin, year)][year] for target, origin, year in asks]
        assert points == expected
        # Each point asked twice is forecast once, and only where its origin's fit holds.
        fitted = {ask[:2] for ask, value in zip(asks, expected) if value is not None}
        assert calls == {"fit": 20 * 2, "forecast": 2 * len(fitted)}
        assert 0 < len(fitted) < 20 * 2

    def test_failed_ar_fit_makes_no_forecast_call(self, monkeypatch):
        growth = {(year, q): 0.5 + 0.1 * q for year in range(2015, 2021) for q in (1, 2, 3, 4)}
        quarterly = {TARGET: QuarterlySeries(target=TARGET, growth=growth)}
        calls = self._counted_ar(monkeypatch)
        lookup = _ar_lookup(quarterly, RunConfig(methods=("ar",)))  # 18 pairs at 2019F, 20 needed
        origin = ReleaseDate(2019, Season.FALL)
        assert [lookup(TARGET, origin, year) for year in (2019, 2020, 2019)] == [None] * 3
        assert calls == {"fit": 1, "forecast": 0}

    def test_error_set_builds_no_row_when_its_rows_exist(self, small_panel, monkeypatch):
        history = ErrorHistory(small_panel.forecast, PanelTruthSelector(small_panel), 11)
        origin = ReleaseDate(2020, Season.FALL)
        first = history.error_set(TARGET, Horizon.FALL_NEXT, 2021, origin, ErrorMethod.ABSOLUTE)
        made = []

        class CountedRow(pipeline.Table):
            def __init__(self, fill):
                made.append(fill)
                super().__init__(fill)

        monkeypatch.setattr(pipeline, "Table", CountedRow)
        again = history.error_set(TARGET, Horizon.FALL_NEXT, 2021, origin, ErrorMethod.ABSOLUTE)
        assert again == first and made == []
        history.error_set(TARGET, Horizon.FALL_NEXT, 2021, origin, ErrorMethod.DIRECTIONAL)
        assert len(made) == 1  # the settled row of the new method only


class TestRunTuning:
    GRID = [
        (8, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR),
        (11, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR),
        (11, ErrorMethod.DIRECTIONAL, QuantileMethod.LINEAR),
    ]

    def test_rows_cover_grid_and_horizons(self):
        panel = backtest_panel(2)
        report = run_tuning(RunConfig(), panel, self.GRID)
        assert len(report.rows) == len(self.GRID) * 1 * 4
        row = tuning_cell(report, 11, "absolute", "type7", "gdp", "fall-current")
        assert row is not None and row.feasible and row.n > 0

    def test_comparable_cells_share_sample_size(self):
        panel = backtest_panel(2)
        report = run_tuning(RunConfig(), panel, self.GRID)
        for horizon in HORIZONS:
            ns = {
                row.n for row in report.rows
                if row.horizon == horizon.label and row.n > 0
            }
            assert len(ns) == 1

    def test_holdout_data_is_invisible(self):
        config = RunConfig()
        t0, t1 = config.train_span
        panel = backtest_panel(2)
        cutoff = ReleaseDate(t1 + 1, Season.FALL)
        mutated = ForecastPanel(
            forecasts={
                key: value + (100.0 if key[1].year > t1 else 0.0)
                for key, value in panel.forecasts.items()
            },
            realizations={
                key: value + (100.0 if key[2] > cutoff else 0.0)
                for key, value in panel.realizations.items()
            },
        )
        a = run_tuning(config, panel, self.GRID)
        b = run_tuning(config, mutated, self.GRID)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_training_coverage_near_nominal(self):
        panel = backtest_panel(6)
        report = run_tuning(
            RunConfig(), panel, [(11, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR)]
        )
        expected = {0.5: 0.5, 0.8: 0.8 - 0.6 / 12}
        for tau in (0.5, 0.8):
            values = [row.coverage[tau] for row in report.rows if row.n > 0]
            assert len(values) == 4
            for cvg in values:
                assert abs(cvg - expected[tau]) < 0.15
            assert abs(np.mean(values) - expected[tau]) < 0.08

    def test_each_error_set_is_built_once(self, monkeypatch):
        # Both quantile methods of an error method read the same sets.
        keys = []
        build = pipeline.build_error_set

        def counted(points, truths, target, horizon, **kw):
            keys.append((target, horizon, kw["anchor_year"], kw["origin"], kw["method"]))
            return build(points, truths, target, horizon, **kw)

        monkeypatch.setattr(pipeline, "build_error_set", counted)
        grid = [(w, em, qm) for w in (4, 11) for em in ErrorMethod for qm in QuantileMethod]
        run_tuning(RunConfig(), backtest_panel(2), grid)
        assert keys and len(keys) == len(set(keys))

    def test_train_span_walk_stops_at_the_realized_years(self, monkeypatch):
        # A span reaching far before the data gives the same rows, with one
        # truth lookup at most per target and realized year.
        calls = []
        select = pipeline.select_truth

        def counted(*args, **kw):
            calls.append(args[1:3])
            return select(*args, **kw)

        panel = make_panel(countries=("AAA",))
        grid = [(4, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR)]
        expected = run_tuning(RunConfig(train_span=(1990, 2012)), panel, grid).to_csv()
        monkeypatch.setattr(pipeline, "select_truth", counted)
        report = run_tuning(RunConfig(train_span=(-200000, 2012)), panel, grid)
        assert report.to_csv() == expected
        realized_years = {year for _, year, _ in panel.realizations if year <= 2012}
        assert 0 < len(calls) <= len(panel.targets) * len(realized_years)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_tuning(RunConfig(), backtest_panel(2), [])

    @pytest.mark.parametrize("grid, match", [
        ([(4, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR)] * 2, "window 4 listed twice with absolute, type7"),
        ([(8, ErrorMethod.DIRECTIONAL, QuantileMethod.INVERSE_ECDF), (3, ErrorMethod.ABSOLUTE,
          QuantileMethod.LINEAR), (8, ErrorMethod.DIRECTIONAL, QuantileMethod.INVERSE_ECDF)],
         "window 8 listed twice with directional, type1"),
        ([(0, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR)], "window 0 must be >= 1"),
        ([(4, ErrorMethod.ABSOLUTE, QuantileMethod.LINEAR), (-2, ErrorMethod.ABSOLUTE,
          QuantileMethod.LINEAR)], "window -2 must be >= 1"),
    ])
    def test_bad_grid_point_rejected_by_window(self, grid, match):
        with pytest.raises(ValueError, match=match):
            run_tuning(RunConfig(), backtest_panel(2), grid)


# Level sets whose keys sort otherwise as strings than as numbers ("1e-05"
# after "0.5"), values json writes in a form of its own, and names that need
# escaping or hold ``%``.
tuning_levels = st.one_of(
    st.just((1e-05, 0.5)),
    st.lists(st.one_of(st.sampled_from([1e-05, 2.5e-07, 0.05, 0.5, 0.8, 0.95]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
             unique=True, min_size=1, max_size=4).map(lambda taus: tuple(sorted(taus))),
)
tuning_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, 5e-324, math.nan, math.inf, -math.inf]), st.floats(),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
tuning_names = st.one_of(st.sampled_from(["absolute", "type7", "%s %%", "\x00\"\\", "Ünïcødé"]),
                         st.text(max_size=8))


@st.composite
def tuning_reports(draw):
    """A report of feasible rows, whose coverage holds the levels or some of
    them in any order, and infeasible rows, possibly none of either."""
    levels = draw(tuning_levels)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        names = [draw(tuning_names) for _ in range(4)]
        window = draw(st.integers(1, 10**6))
        if draw(st.booleans()):
            taus = draw(st.permutations(levels))[:draw(st.integers(0, len(levels)))]
            rows.append(TuningRow(window, *names, mean_wis=draw(tuning_values),
                                  coverage={tau: draw(tuning_values) for tau in taus},
                                  n=draw(st.integers(1, 10**6)), feasible=True))
        else:
            rows.append(TuningRow(window, *names, mean_wis=None, coverage={}, n=0, feasible=False))
    return TuningReport(levels=levels, rows=rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(tuning_reports())
def test_tuning_json_is_json_dumps_text(report):
    assert report.to_json() == dumped_tuning(report)


class TestProduceForecast:
    def seven_country_panel(self):
        countries = tuple(chr(ord("A") + i) * 3 for i in range(7))
        return make_panel(countries=countries, variables=("gdp", "cpi"), seed=3)

    def test_row_count_per_origin(self):
        panel = self.seven_country_panel()
        text, gaps = produce_forecast(RunConfig(), panel, ReleaseDate(2023, Season.FALL))
        lines = text.strip().splitlines()
        assert gaps == []
        # 7 countries x 2 variables x 4 horizons x 2 levels, plus the header.
        assert len(lines) == 1 + 7 * 2 * 4 * 2

    def test_rerun_is_byte_identical(self):
        panel = self.seven_country_panel()
        origin = ReleaseDate(2023, Season.FALL)
        first, _ = produce_forecast(RunConfig(), panel, origin)
        second, _ = produce_forecast(RunConfig(), panel, origin)
        assert first == second

    def test_content_tag_tracks_input(self):
        panel = self.seven_country_panel()
        origin = ReleaseDate(2023, Season.FALL)
        full, _ = produce_forecast(RunConfig(), panel, origin)
        smaller = ForecastPanel(
            forecasts={k: v for k, v in panel.forecasts.items() if k[0].country != "GGG"},
            realizations={k: v for k, v in panel.realizations.items() if k[0].country != "GGG"},
        )
        reduced, _ = produce_forecast(RunConfig(), smaller, origin)
        tag_full = full.splitlines()[1].rsplit(",", 1)[1]
        tag_reduced = reduced.splitlines()[1].rsplit(",", 1)[1]
        assert tag_full != tag_reduced
        assert tag_full.startswith("input-")

    def test_panel_is_serialized_once_for_repeated_forecasts(self, monkeypatch):
        calls = []
        serialize = ForecastPanel.to_canonical_csv

        def counted(panel):
            calls.append(panel)
            return serialize(panel)

        monkeypatch.setattr(ForecastPanel, "to_canonical_csv", counted)
        panel = self.seven_country_panel()
        texts = [
            produce_forecast(RunConfig(), panel, ReleaseDate(year, season))[0]
            for year in (2022, 2023) for season in Season
        ]
        assert len(calls) == 1
        assert len({text.splitlines()[1].rsplit(",", 1)[1] for text in texts}) == 1

    def test_generated_at_is_the_digest_of_the_canonical_csv(self):
        panel = make_panel(countries=("AAA", "BBB"), variables=("gdp", "cpi"), seed=3)
        text, _ = produce_forecast(RunConfig(), panel, ReleaseDate(2023, Season.FALL))
        digest = hashlib.sha256(panel.to_canonical_csv().encode("utf-8")).hexdigest()
        tags = {line.rsplit(",", 1)[1] for line in text.splitlines()[1:]}
        assert tags == {"input-" + digest[:16]}
        # The tag as earlier releases wrote it for this panel.
        assert tags == {"input-7f60323c4dd5d6fb"}

    def test_explicit_generated_at_used_verbatim(self):
        panel = self.seven_country_panel()
        text, _ = produce_forecast(
            RunConfig(generated_at="run-42"), panel, ReleaseDate(2023, Season.FALL)
        )
        assert text.splitlines()[1].endswith(",run-42")

    def test_missing_history_reported_as_gaps(self):
        panel = make_panel(countries=("AAA",), first_year=2015, last_year=2023)
        text, gaps = produce_forecast(RunConfig(), panel, ReleaseDate(2023, Season.FALL))
        assert text.strip().splitlines() == [text.strip().splitlines()[0]]
        assert gaps


@st.composite
def later_inputs(draw):
    """A panel seed, an origin, which kinds of data dated after it to add
    (moved by a shift), the recent years whose fall release is withheld, so
    their truth falls back to the latest vintage, and the error method."""
    origin = ReleaseDate(draw(st.integers(2003, 2022)), draw(st.sampled_from(list(Season))))
    kinds = draw(st.sets(st.sampled_from(["forecasts", "vintages", "quarters"]), min_size=1))
    unreleased = {origin.year - k for k in draw(st.sets(st.integers(1, 8), min_size=1, max_size=3))}
    return (draw(st.integers(0, 2**16)), origin, kinds, draw(st.sampled_from([-3.0, 0.5, 2.0])),
            unreleased, draw(st.sampled_from(list(ErrorMethod))))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(later_inputs())
def test_forecast_reads_nothing_dated_after_its_origin(case):
    """Forecasts issued after the origin, vintages dated after it (later
    revisions of past years included) and quarters after its cutoff quarter
    leave the IMF and AR forecast file and its gaps as they are."""
    seed, origin, kinds, shift, unreleased, error_method = case
    panel = without(make_panel(countries=("AAA",), seed=seed), realizations=[
        (TARGET, year, ReleaseDate(year + 1, Season.FALL)) for year in unreleased
    ])
    quarterly = ar_quarterly(panel.targets, seed)[TARGET].growth
    cutoff = (origin.year, 1 if origin.season is Season.SPRING else 3)  # Q1 in spring, Q3 in fall
    forecasts = {k: v for k, v in panel.forecasts.items() if k[1] <= origin}
    realizations = {k: v for k, v in panel.realizations.items() if k[2] <= origin}
    quarters = {q: x for q, x in quarterly.items() if q <= cutoff}
    later_forecasts, later_realizations, later_quarters = {}, {}, {}
    if "forecasts" in kinds:
        later_forecasts = {k: v + shift for k, v in panel.forecasts.items() if k[1] > origin}
    if "vintages" in kinds:
        later_realizations = {k: v + shift for k, v in panel.realizations.items() if k[2] > origin}
        # Revisions of every past year at the next two releases.
        for vintage in (ReleaseDate(origin.year, Season.FALL), ReleaseDate(origin.year + 1, Season.SPRING)):
            for year in range(1990, origin.year) if vintage > origin else ():
                truth = panel.realizations[(TARGET, year, ReleaseDate(year + 1, Season.SPRING))]
                later_realizations[(TARGET, year, vintage)] = truth + shift
    if "quarters" in kinds:
        later_quarters = {q: x + shift for q, x in quarterly.items() if q > cutoff}
    config = RunConfig(methods=("imf", "ar"), window=6, error_method=error_method, generated_at="fixed")
    known = produce_forecast(config, ForecastPanel(forecasts, realizations), origin,
                             quarterly={TARGET: QuarterlySeries(TARGET, quarters)})
    assert ",imf,fixed\n" in known[0] and ",ar,fixed\n" in known[0]
    extended = produce_forecast(
        config, ForecastPanel({**forecasts, **later_forecasts}, {**realizations, **later_realizations}),
        origin, quarterly={TARGET: QuarterlySeries(TARGET, {**quarters, **later_quarters})},
    )
    assert extended == known


class TestGridMemo:
    """A panel keeps the IMF grids it built; a later run on it reuses one only
    under the same grid settings."""

    ORIGIN = ReleaseDate(2014, Season.FALL)  # inside the backtest's origins
    # At window 11 the type-1 and type-7 quantiles agree at levels 0.5 and 0.8.
    BASE = RunConfig(window=10)

    @staticmethod
    def panel():
        panel = make_panel(countries=("AAA", "BBB"), variables=("gdp", "cpi"), seed=3)
        # Without these fall releases the truth rule changes AAA/gdp's sets.
        return without(panel, realizations=[
            (TargetId("AAA", "gdp"), year, ReleaseDate(year + 1, Season.FALL)) for year in (2008, 2010)
        ])

    @staticmethod
    def fresh(panel):
        return ForecastPanel(panel.forecasts, panel.realizations)

    def test_forecast_inside_the_backtest_builds_no_grid(self, monkeypatch):
        panel = self.panel()
        run_backtest(self.BASE, panel)
        calls = []
        build = pipeline.build_grid
        monkeypatch.setattr(pipeline, "build_grid", lambda *args: calls.append(args) or build(*args))
        reused = produce_forecast(self.BASE, panel, self.ORIGIN)
        assert calls == []
        assert reused == produce_forecast(self.BASE, self.fresh(panel), self.ORIGIN)
        assert len(calls) == 4  # one grid per target on the fresh panel

    def test_backtest_builds_each_grid_once(self, monkeypatch):
        panel = self.panel()
        config = replace(self.BASE, methods=("imf", "ar"))
        calls = []
        build = pipeline.build_grid

        class LabelledHistory(pipeline.ErrorHistory):
            def __init__(self, forecasts, truths, max_window):
                super().__init__(forecasts, truths, max_window)
                self.method = "imf" if forecasts == panel.forecast else "ar"

        def counted(history, target, origin, config):
            calls.append((history.method, target, origin))
            return build(history, target, origin, config)

        monkeypatch.setattr(pipeline, "ErrorHistory", LabelledHistory)
        monkeypatch.setattr(pipeline, "build_grid", counted)
        run_backtest(config, panel, quarterly=ar_quarterly(panel.targets, seed=9))
        h0, h1 = config.holdout_span
        assert sorted(calls, key=repr) == sorted((
            (method, target, ReleaseDate(year, season))
            for method in ("imf", "ar") for target in panel.targets
            for year in range(h0 - 1, h1 + 1) for season in Season
        ), key=repr)

    @pytest.mark.parametrize("change", [
        {"window": 8},
        {"levels": (0.5, 0.9)},
        {"error_method": ErrorMethod.DIRECTIONAL},
        {"quantile_method": QuantileMethod.INVERSE_ECDF},
        {"truth_rule": FallbackRule.NONE},
    ])
    def test_forecast_under_other_grid_settings_matches_a_fresh_panel(self, change):
        panel = self.panel()
        run_backtest(self.BASE, panel)
        config = replace(self.BASE, **change)
        changed = produce_forecast(config, panel, self.ORIGIN)
        assert changed == produce_forecast(config, self.fresh(panel), self.ORIGIN)
        # The setting moves the file, so a memo blind to it would fail above.
        assert changed != produce_forecast(self.BASE, self.fresh(panel), self.ORIGIN)

    def test_ar_forecast_follows_a_swapped_quarterly_input(self):
        panel = self.panel()
        first, second = ar_quarterly(panel.targets, seed=9), ar_quarterly(panel.targets, seed=10)
        config = replace(self.BASE, methods=("imf", "ar"))
        run_backtest(config, panel, quarterly=first)
        produce_forecast(config, panel, self.ORIGIN, quarterly=first)
        swapped = produce_forecast(config, panel, self.ORIGIN, quarterly=second)
        assert swapped == produce_forecast(config, self.fresh(panel), self.ORIGIN, quarterly=second)
        assert swapped != produce_forecast(config, self.fresh(panel), self.ORIGIN, quarterly=first)

    def test_grids_are_read_only(self):
        grid = run_backtest(self.BASE, self.panel()).grids[0]
        horizon, cell = next(iter(grid.cells.items()))
        with pytest.raises(TypeError):
            grid.cells[horizon] = cell
        with pytest.raises(TypeError):
            cell.lower[0] = -1.0


def test_run_json_reads_back_as_the_run_config(tmp_path):
    # Every key away from its default, enums, exclusions and release dates included.
    config = RunConfig(
        data="panel.csv", quarterly_data="quarterly.csv", external_forecasts="other.csv",
        out="results", levels=(0.2, 0.5, 0.9), error_method=ErrorMethod.DIRECTIONAL,
        quantile_method=QuantileMethod.INVERSE_ECDF, window=9, train_span=(1991, 2010),
        holdout_span=(2011, 2022), methods=("imf", "external"),
        exclude=(("AAA", 2015, 2016), ("BBB", 2020, 2020)), truth_rule=FallbackRule.NONE,
        eval_as_of=ReleaseDate(2024, Season.SPRING), ar_min_obs=16, ar_window=30,
        generated_at="tag",
    )
    assert all(getattr(config, f.name) != f.default for f in fields(RunConfig))
    panel = make_panel()
    result = run_backtest(config, panel, external=panel)
    assert result.config is config
    paths = write_backtest_outputs(result, str(tmp_path))
    assert paths[-1] == str(tmp_path / "run.json")
    assert load_config(paths[-1]) == result.config
    text = (tmp_path / "run.json").read_text()
    assert '"exclude": [\n    "AAA:2015-2016",' in text and '"eval_as_of": "2024S"' in text
