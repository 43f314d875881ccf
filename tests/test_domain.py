import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalcast.domain import (
    HORIZONS,
    Horizon,
    ReleaseDate,
    Season,
    UnsupportedHorizonError,
    horizon_of,
    validate_levels,
)


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
    assert ReleaseDate.parse(str(date)) == date


@pytest.mark.parametrize("token", ["2023", "2023X", "", "S", 2023])
def test_release_date_parse_names_bad_token(token):
    with pytest.raises(ValueError, match=f"bad release date {token!r}"):
        ReleaseDate.parse(token)
