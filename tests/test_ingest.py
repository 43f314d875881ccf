import dataclasses
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.domain import ReleaseDate, Season, TargetId
from intervalcast.ingest import (
    DuplicateRecordError,
    FallbackRule,
    ForecastPanel,
    SchemaMismatchError,
    TruthUnavailableError,
    parse_forecast_panel,
    parse_quarterly,
    select_truth,
)

from conftest import make_panel

TARGET = TargetId("AAA", "gdp")

HEADER = "country,variable,kind,origin_year,origin_season,target_year,vintage_year,vintage_season,value"


def parse(rows):
    return parse_forecast_panel(io.StringIO("\n".join([HEADER, *rows]) + "\n"))


class TestParseForecastPanel:
    def test_minimal_panel(self):
        panel = parse([
            "AAA,gdp,forecast,2020,F,2020,NA,NA,2.5",
            "AAA,gdp,forecast,2020,F,2021,NA,NA,1.75",
            "AAA,gdp,realization,NA,NA,2020,2021,F,2.1",
        ])
        assert panel.forecast(TARGET, ReleaseDate(2020, Season.FALL), 2020) == 2.5
        assert panel.forecast(TARGET, ReleaseDate(2020, Season.FALL), 2021) == 1.75
        assert panel.vintages_for(TARGET, 2020) == [(ReleaseDate(2021, Season.FALL), 2.1)]
        assert panel.skipped == ()

    def test_duplicate_names_both_lines(self):
        with pytest.raises(DuplicateRecordError, match=r"lines 2 and 4"):
            parse([
                "AAA,gdp,forecast,2020,F,2020,NA,NA,2.5",
                "AAA,gdp,forecast,2020,S,2020,NA,NA,2.4",
                "AAA,gdp,forecast,2020,F,2020,NA,NA,2.6",
            ])

    def test_duplicate_realization_names_both_lines(self):
        with pytest.raises(DuplicateRecordError, match=r"realization .* vintage 2021F at lines 2 and 4"):
            parse([
                "AAA,gdp,realization,NA,NA,2020,2021,F,2.5",
                "AAA,gdp,realization,NA,NA,2020,2021,S,2.4",
                "AAA,gdp,realization,NA,NA,2020,2021,F,2.6",
            ])

    def test_na_rows_skipped_and_recorded(self):
        panel = parse([
            "AAA,gdp,forecast,2020,F,2020,NA,NA,NA",
            "AAA,gdp,forecast,2020,F,2021,NA,NA,1.0",
        ])
        assert panel.skipped == ((2, "missing value"),)
        assert len(panel.forecasts) == 1

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatchError, match="schema mismatch"):
            parse_forecast_panel(io.StringIO("country,value\nAAA,1.0\n"))
        with pytest.raises(SchemaMismatchError, match="empty file"):
            parse_forecast_panel(io.StringIO(""))
        with pytest.raises(SchemaMismatchError, match="line 2"):
            parse(["AAA,gdp,forecast,2020,F,2020,NA,NA"])
        with pytest.raises(SchemaMismatchError, match="unknown kind"):
            parse(["AAA,gdp,guess,2020,F,2020,NA,NA,1.0"])
        with pytest.raises(SchemaMismatchError, match="non-finite"):
            parse(["AAA,gdp,forecast,2020,F,2020,NA,NA,inf"])

    @pytest.mark.parametrize("row, message", [
        ("AAA,gdp,forecast,2020,F,2025,NA,NA,1.0",
         "unsupported horizon: origin 2020F cannot target year 2025"),
        ("AAA,gdp,realization,NA,NA,2020,2019,F,1.0", "vintage 2019F predates target year 2020"),
        ("AAA,gdp,forecast,2020,X,2020,NA,NA,1.0", "unknown season 'X' (expected S or F)"),
        (",gdp,forecast,2020,F,2020,NA,NA,1.0", "country and variable must be nonempty"),
    ], ids=["horizon", "vintage", "season", "country"])
    def test_row_errors_name_their_line(self, row, message):
        with pytest.raises(ValueError) as info:
            parse(["AAA,gdp,forecast,2020,F,2020,NA,NA,2.5", row])
        assert str(info.value) == f"line 3: {message}"

    def test_canonical_roundtrip_is_idempotent(self):
        panel = make_panel(countries=("AAA",), last_year=1995)
        text = panel.to_canonical_csv()
        reparsed = parse_forecast_panel(io.StringIO(text))
        assert reparsed.to_canonical_csv() == text

    def test_until_vintage_restricts_both_sides(self):
        panel = make_panel(countries=("AAA",), first_year=1990, last_year=2023)
        cutoff = ReleaseDate(2013, Season.FALL)
        view = panel.until_vintage(cutoff, 2012)
        assert all(origin <= cutoff for (_, origin, _) in view.forecasts)
        assert max(origin.year for (_, origin, _) in view.forecasts) == 2012
        assert all(v <= cutoff for (_, _, v) in view.realizations)
        assert view.max_vintage() == cutoff


class TestReadOnlyPanel:
    FORECAST = (TARGET, ReleaseDate(2020, Season.FALL), 2020)
    SPRING, FALL = ReleaseDate(2021, Season.SPRING), ReleaseDate(2021, Season.FALL)

    def make(self):
        forecasts = {self.FORECAST: 2.5}
        # Inserted out of release order: the index sorts them.
        realizations = {(TARGET, 2020, self.FALL): 2.1, (TARGET, 2020, self.SPRING): 1.9}
        return ForecastPanel(forecasts, realizations, source="s"), forecasts, realizations

    def test_item_assignment_and_deletion_raise(self):
        panel, _, _ = self.make()
        with pytest.raises(TypeError):
            panel.forecasts[self.FORECAST] = 99.0
        with pytest.raises(TypeError):
            del panel.forecasts[self.FORECAST]
        with pytest.raises(TypeError):
            panel.realizations[(TARGET, 2020, self.FALL)] = 99.0
        with pytest.raises(TypeError):
            del panel.realizations[(TARGET, 2020, self.FALL)]
        assert panel.vintages_for(TARGET, 2020) == [(self.SPRING, 1.9), (self.FALL, 2.1)]

    def test_attribute_reassignment_raises(self):
        panel, forecasts, realizations = self.make()
        for name, value in (("forecasts", forecasts), ("realizations", realizations),
                            ("source", "t"), ("skipped", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(panel, name, value)

    def test_vintages_follow_the_constructor_data_not_the_callers_dicts(self):
        panel, forecasts, realizations = self.make()
        assert panel.vintages_for(TARGET, 2020) == [(self.SPRING, 1.9), (self.FALL, 2.1)]
        # The constructor copied both mappings: later edits of the caller's
        # dicts reach neither the lookups nor the vintage index.
        realizations[(TARGET, 2020, self.FALL)] = 99.0
        realizations[(TARGET, 2020, ReleaseDate(2022, Season.FALL))] = 98.0
        forecasts[self.FORECAST] = 97.0
        assert panel.vintages_for(TARGET, 2020) == [(self.SPRING, 1.9), (self.FALL, 2.1)]
        assert panel.forecast(*self.FORECAST) == 2.5
        assert select_truth(panel, TARGET, 2020, ReleaseDate(2023, Season.FALL)) == 2.1
        assert panel.vintages_for(TARGET, 2019) == []

    def test_until_vintage_keeps_cutoff_below_last_origin_year(self):
        panel = make_panel(countries=("AAA",), first_year=1990, last_year=2023)
        cutoff = ReleaseDate(2013, Season.SPRING)
        view = panel.until_vintage(cutoff, 2013)
        assert max(origin for (_, origin, _) in view.forecasts) == cutoff
        assert view.max_vintage() == cutoff
        assert len(panel.forecasts) > len(view.forecasts)


class TestSelectTruth:
    def make_vintage_panel(self, vintages):
        rows = [
            f"AAA,gdp,realization,NA,NA,{ty},{vy},{vs},{val}"
            for ty, vy, vs, val in vintages
        ]
        return parse(rows)

    def test_evaluation_prefers_first_fall_after_target_year(self):
        panel = self.make_vintage_panel([
            (2022, 2023, "S", 1.0),
            (2022, 2023, "F", 2.0),
            (2022, 2024, "S", 3.0),
        ])
        got = select_truth(panel, TARGET, 2022, ReleaseDate(2024, Season.SPRING))
        assert got == 2.0

    def test_construction_accepts_spring_for_preceding_year(self):
        panel = self.make_vintage_panel([(2022, 2023, "S", 1.0)])
        got = select_truth(
            panel, TARGET, 2022, ReleaseDate(2023, Season.SPRING), mode="construction"
        )
        assert got == 1.0

    def test_evaluation_does_not_accept_that_spring_without_fallback(self):
        panel = self.make_vintage_panel([(2022, 2023, "S", 1.0)])
        rule = FallbackRule.NONE
        with pytest.raises(TruthUnavailableError):
            select_truth(panel, TARGET, 2022, ReleaseDate(2023, Season.SPRING), rule=rule)

    def test_fallback_latest_available(self):
        panel = self.make_vintage_panel([(2023, 2024, "S", 4.5)])
        got = select_truth(panel, TARGET, 2023, ReleaseDate(2024, Season.SPRING))
        assert got == 4.5

    def test_never_uses_vintages_after_as_of(self):
        panel = self.make_vintage_panel([
            (2022, 2023, "S", 1.0),
            (2022, 2023, "F", 2.0),
        ])
        got = select_truth(panel, TARGET, 2022, ReleaseDate(2023, Season.SPRING))
        assert got == 1.0  # fall 2023 exists but is in the future

    def test_unavailable(self):
        panel = self.make_vintage_panel([(2022, 2023, "F", 2.0)])
        with pytest.raises(TruthUnavailableError):
            select_truth(panel, TARGET, 2021, ReleaseDate(2024, Season.FALL))
        with pytest.raises(ValueError, match="unknown truth mode"):
            select_truth(panel, TARGET, 2022, ReleaseDate(2024, Season.FALL), mode="oops")


def truth_rule_oracle(vintages, target_year, as_of, mode, fallback):
    """The documented truth rule over ``{vintage: value}``; None when no
    vintage qualifies."""
    admissible = {v: x for v, x in vintages.items() if v <= as_of}
    fall_after = ReleaseDate(target_year + 1, Season.FALL)
    spring_after = ReleaseDate(target_year + 1, Season.SPRING)
    if fall_after in admissible:
        return admissible[fall_after]
    if mode == "construction" and target_year == as_of.year - 1 and spring_after in admissible:
        return admissible[spring_after]
    if admissible and fallback is FallbackRule.LATEST_AVAILABLE:
        return admissible[max(admissible)]
    return None


RELEASES = [ReleaseDate(y, s) for y in range(2008, 2015) for s in Season]


@settings(max_examples=300, deadline=None)
@given(
    picks=st.lists(st.sampled_from([r for r in RELEASES if r.year >= 2010]), unique=True),
    other_year=st.lists(st.sampled_from([r for r in RELEASES if r.year >= 2011]), unique=True),
    as_of=st.sampled_from(RELEASES),
    mode=st.sampled_from(["evaluation", "construction"]),
    fallback=st.sampled_from(list(FallbackRule)),
)
def test_select_truth_follows_documented_rule(picks, other_year, as_of, mode, fallback):
    vintages = {v: float(i) for i, v in enumerate(picks)}
    realizations = {(TARGET, 2010, vintage): value for vintage, value in vintages.items()}
    for vintage in other_year:  # another target year's vintages must not leak in
        realizations[(TARGET, 2011, vintage)] = -1.0
    panel = ForecastPanel({}, realizations)
    expected = truth_rule_oracle(vintages, 2010, as_of, mode, fallback)
    rule = fallback
    if expected is None:
        with pytest.raises(TruthUnavailableError):
            select_truth(panel, TARGET, 2010, as_of, rule, mode=mode)
    else:
        assert select_truth(panel, TARGET, 2010, as_of, rule, mode=mode) == expected


QHEADER = "country,variable,year,quarter,value"


def parse_q(rows, **kwargs):
    return parse_quarterly(io.StringIO("\n".join([QHEADER, *rows]) + "\n"), **kwargs)


class TestParseQuarterly:
    def test_growth_passthrough(self):
        series = parse_q(["AAA,gdp,2020,1,0.7", "AAA,gdp,2020,2,-0.2"])
        s = series[TargetId("AAA", "gdp")]
        assert s.growth == {(2020, 1): 0.7, (2020, 2): -0.2}

    def test_constant_index_gives_zero_growth(self):
        series = parse_q([f"AAA,cpi,2020,{q},105.0" for q in (1, 2, 3, 4)])
        s = series[TargetId("AAA", "cpi")]
        assert s.growth == {(2020, 2): 0.0, (2020, 3): 0.0, (2020, 4): 0.0}

    def test_doubling_index_gives_log_two(self):
        series = parse_q(["AAA,cpi,2020,4,100.0", "AAA,cpi,2021,1,200.0"])
        s = series[TargetId("AAA", "cpi")]
        assert s.growth[(2021, 1)] == pytest.approx(100.0 * math.log(2.0), abs=1e-12)

    def test_gap_breaks_growth_chain(self):
        series = parse_q([
            "AAA,cpi,2020,1,100.0",
            "AAA,cpi,2020,2,101.0",
            "AAA,cpi,2020,4,103.0",
        ])
        s = series[TargetId("AAA", "cpi")]
        assert set(s.growth) == {(2020, 2)}

    def test_nonpositive_index_level_rejected(self):
        with pytest.raises(SchemaMismatchError, match="must be positive"):
            parse_q(["AAA,cpi,2020,1,0.0"])

    def test_bad_quarter_rejected(self):
        with pytest.raises(SchemaMismatchError, match="quarter must be 1-4"):
            parse_q(["AAA,gdp,2020,5,1.0"])

    def test_empty_country_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: country and variable must be nonempty$"):
            parse_q([",gdp,2020,1,1.0"])

    def test_index_variable_set_is_configurable(self):
        series = parse_q(
            ["AAA,gdp,2020,1,100.0", "AAA,gdp,2020,2,101.0"],
            index_variables=("gdp",),
        )
        s = series[TargetId("AAA", "gdp")]
        assert s.growth[(2020, 2)] == pytest.approx(100.0 * math.log(1.01), abs=1e-12)
