import copy
import io
import itertools
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intervalcast.domain import (
    HORIZONS,
    POOLED,
    Horizon,
    ReleaseDate,
    Season,
    Table,
    TargetId,
    Token,
    UnsupportedHorizonError,
    horizon_of,
    validate_levels,
)
from intervalcast.errorsets import ErrorMethod
from intervalcast.ingest import FallbackRule, parse_forecast_panel
from intervalcast.quantile import QuantileMethod

TOKEN_ENUMS = (Season, ErrorMethod, QuantileMethod, FallbackRule)


def test_horizon_of_definitions():
    assert horizon_of(ReleaseDate(2022, Season.FALL), 2022) is Horizon.FALL_CURRENT
    assert horizon_of(ReleaseDate(2022, Season.SPRING), 2023) is Horizon.SPRING_NEXT
    assert horizon_of(ReleaseDate(2022, Season.SPRING), 2022) is Horizon.SPRING_CURRENT
    assert horizon_of(ReleaseDate(2022, Season.FALL), 2023) is Horizon.FALL_NEXT


def test_horizon_of_out_of_range():
    with pytest.raises(UnsupportedHorizonError):
        horizon_of(ReleaseDate(2022, Season.FALL), 2024)
    with pytest.raises(UnsupportedHorizonError):
        horizon_of(ReleaseDate(2022, Season.FALL), 2021)


def test_horizon_total_order():
    assert (
        Horizon.FALL_CURRENT
        < Horizon.SPRING_CURRENT
        < Horizon.FALL_NEXT
        < Horizon.SPRING_NEXT
    )
    # Antisymmetry and transitivity over all pairs/triples.
    for a, b in itertools.product(HORIZONS, repeat=2):
        assert not (a < b and b < a)
    for a, b, c in itertools.product(HORIZONS, repeat=3):
        if a < b and b < c:
            assert a < c


def test_horizon_of_is_a_bijection():
    seen = set()
    for season in Season:
        for offset in (0, 1):
            origin = ReleaseDate(2020, season)
            seen.add(horizon_of(origin, 2020 + offset))
    assert seen == set(HORIZONS)


def test_origin_for_roundtrip():
    for h in HORIZONS:
        origin = h.origin_for(2021)
        assert horizon_of(origin, 2021) is h


def test_release_date_ordering():
    assert ReleaseDate(2022, Season.SPRING) < ReleaseDate(2022, Season.FALL)
    assert ReleaseDate(2022, Season.FALL) < ReleaseDate(2023, Season.SPRING)
    assert str(ReleaseDate(2022, Season.FALL)) == "2022F"


def test_validate_levels():
    assert validate_levels((0.5, 0.8)) == (0.5, 0.8)
    with pytest.raises(ValueError):
        validate_levels((0.8, 0.5))
    with pytest.raises(ValueError):
        validate_levels((0.0, 0.5))
    with pytest.raises(ValueError):
        validate_levels(())


@given(st.integers(-10**6, 10**6), st.sampled_from(Season))
def test_release_date_parse_inverts_str(year, season):
    date = ReleaseDate(year, season)
    assert ReleaseDate.parse(str(date)) == ReleaseDate.parse(f" {date} ") == date


@pytest.mark.parametrize("token", ["2023", "2023X", "", "S", 2023, {"a": 1}, " "])
def test_release_date_parse_names_bad_token(token):
    with pytest.raises(ValueError, match=f"bad release date {token!r}"):
        ReleaseDate.parse(token)


def test_target_country_may_not_be_the_pooled_cells_name():
    with pytest.raises(ValueError, match="country name 'pooled' is reserved"):
        TargetId(POOLED, "gdp")
    assert TargetId("Pooled", "gdp").country == "Pooled"  # only the exact name is reserved


def test_table_fills_each_key_once():
    calls = []
    table = Table(lambda key: calls.append(key) or key * 2)
    assert [table[3], table[4], table[3], table[4]] == [6, 8, 6, 8]
    assert calls == [3, 4] and table == {3: 6, 4: 8}


def test_table_keeps_no_key_whose_fill_raises():
    calls = []

    def fill(key):
        calls.append(key)
        raise ValueError(f"bad {key}")

    table = Table(fill)
    for _ in range(2):
        with pytest.raises(ValueError, match="bad x"):
            table["x"]
    assert calls == ["x", "x"] and "x" not in table and len(table) == 0


@pytest.mark.parametrize("enum, token, member", [
    # Every token the enums' own ``parse`` methods, and ``FallbackRule``'s
    # constructor, accepted before they shared one rule.
    *[(Season, t, Season.SPRING) for t in ("S", "s", "spring", "SPRING", " S ")],
    *[(Season, t, Season.FALL) for t in ("F", "f", "fall", "Fall")],
    *[(ErrorMethod, t, ErrorMethod.ABSOLUTE) for t in ("absolute", "ABSOLUTE", " Absolute")],
    *[(ErrorMethod, t, ErrorMethod.DIRECTIONAL) for t in ("directional", "Directional")],
    *[(QuantileMethod, t, QuantileMethod.INVERSE_ECDF)
      for t in ("type1", "TYPE1", "inverse_ecdf", "inverse-ecdf", "Inverse-ECDF")],
    *[(QuantileMethod, t, QuantileMethod.LINEAR)
      for t in ("type7", "linear", "LINEAR", "linear_interpolation", "linear-interpolation")],
    (FallbackRule, "latest-available-release", FallbackRule.LATEST_AVAILABLE),
    (FallbackRule, "none", FallbackRule.NONE),
])
def test_token_accepted_by_the_old_parsers_still_parses(enum, token, member):
    assert enum.parse(token) is member and enum(token) is member


def test_token_enums_keep_their_members_and_nouns():
    assert list(QuantileMethod) == [QuantileMethod.INVERSE_ECDF, QuantileMethod.LINEAR]
    assert QuantileMethod.LINEAR_INTERPOLATION is QuantileMethod.LINEAR
    for enum, noun in ((Season, "season"), (ErrorMethod, "error method"),
                       (QuantileMethod, "quantile method"), (FallbackRule, "fallback rule")):
        with pytest.raises(ValueError, match=f"^unknown {noun} 'x' "):
            enum.parse("x")


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_token_enum_reads_a_value_or_name_in_any_case(data):
    enum = data.draw(st.sampled_from(TOKEN_ENUMS))
    name, member = data.draw(st.sampled_from(list(enum.__members__.items())))  # aliases too
    text = data.draw(st.sampled_from([name, member.value]))
    spelled = data.draw(st.tuples(*(st.sampled_from("-_" if c in "-_" else (c.lower(), c.upper())) for c in text)))
    pad = st.text(" \t\n", max_size=2)
    assert enum.parse(data.draw(pad) + "".join(spelled) + data.draw(pad)) is member


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(TOKEN_ENUMS),
       st.one_of(st.text(max_size=12), st.sampled_from(["X", "latest", "abs", "type 1", "inverse ecdf", "lin", ""])))
def test_token_enum_rejects_other_text_naming_its_values(enum, text):
    accepted = {t.lower().replace("-", "_") for name, m in enum.__members__.items() for t in (name, m.value)}
    assume(text.strip().lower().replace("-", "_") not in accepted)
    with pytest.raises(ValueError) as exc:
        enum.parse(text)
    assert str(exc.value).endswith(f" {text!r} (expected {' or '.join(m.value for m in enum)})")


def test_enum_members_hash_by_identity_and_stay_singletons():
    # Members are compared by identity, so an identity hash agrees with
    # equality and keys holding them hash in C.
    assert set(Token.__subclasses__()) == set(TOKEN_ENUMS)
    for enum in (*TOKEN_ENUMS, Horizon):
        for member in enum.__members__.values():  # aliases too
            assert hash(member) == object.__hash__(member)
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member and copy.copy(member) is member
    assert QuantileMethod.LINEAR_INTERPOLATION is QuantileMethod.LINEAR


def test_parsed_panel_answers_keys_built_elsewhere():
    panel = parse_forecast_panel(io.StringIO(
        "country,variable,kind,origin_year,origin_season,target_year,vintage_year,vintage_season,value\n"
        "AAA,gdp,forecast,2020,S,2021,NA,NA,1.5\n"
        "AAA,gdp,forecast,2021,f,2021,NA,NA,2.5\n"
        "AAA,gdp,realization,NA,NA,2021,2022,spring,3.5\n"
    ))
    target = TargetId("AAA", "gdp")
    assert panel.forecast(target, Horizon.SPRING_NEXT.origin_for(2021), 2021) == 1.5
    assert panel.forecast(target, ReleaseDate(2020, Season.parse("spring")), 2021) == 1.5
    assert panel.forecast(target, Horizon.FALL_CURRENT.origin_for(2021), 2021) == 2.5
    assert panel.realizations[target, 2021, ReleaseDate(2022, Season.parse("spring"))] == 3.5
