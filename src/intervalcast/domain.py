"""Core vocabulary: release dates, horizons, targets, confidence levels and the memo ``Table``."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from typing import Any, Callable


class Table(dict):
    """``key -> fill(key)``, each value computed on the key's first
    subscription (``table[key]``) and kept; a key whose fill raises is not kept."""

    def __init__(self, fill: Callable[[Any], Any]) -> None:
        self.fill = fill

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.fill(key)
        return value


class UnsupportedHorizonError(ValueError):
    """Raised when an (origin, target-year) pair maps to no supported horizon."""


class Token(Enum):
    """An enum read from text: a member's value or name in any case, with
    ``-`` read as ``_`` and surrounding spaces ignored."""

    __hash__ = object.__hash__  # members are singletons compared by identity

    @classmethod
    def _missing_(cls, value: object) -> "Token":
        key = value.strip().lower().replace("-", "_") if isinstance(value, str) else None
        for name, member in cls.__members__.items():  # aliases too
            if key in (member.value.lower().replace("-", "_"), name.lower()):
                return member
        noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        raise ValueError(f"unknown {noun} {value!r} (expected {' or '.join(m.value for m in cls)})")

    @classmethod
    def parse(cls, token: str) -> "Token":
        return cls(token)


class Season(Token):
    """Release season; the spring edition of a year precedes the fall edition."""

    SPRING = "S"
    FALL = "F"

    def __init__(self, token: str) -> None:
        self.rank = 0 if token == "S" else 1  # a year's order: spring, then fall


@total_ordering
@dataclass(frozen=True)
class ReleaseDate:
    """A bi-annual release date (forecast origin or realization vintage)."""

    year: int
    season: Season

    @property
    def ordinal(self) -> int:
        """Position in the release sequence: each year's spring, then its fall."""
        return self.year * 2 + self.season.rank

    def __lt__(self, other: "ReleaseDate") -> bool:
        return self.ordinal < other.ordinal

    def __str__(self) -> str:
        return f"{self.year}{self.season.value}"

    @classmethod
    def parse(cls, token: str) -> "ReleaseDate":
        """The release date written as ``str(date)``, e.g. '2012S'."""
        try:
            text = token.strip()
            return cls(int(text[:-1]), Season.parse(text[-1]))
        except (AttributeError, ValueError, LookupError):  # a non-string has no strip; an empty one no last character
            raise ValueError(f"bad release date {token!r}, expected e.g. 2012S") from None


@total_ordering
class Horizon(Enum):
    """The four supported horizons, ordered by increasing time to target.

    A fall origin for the same calendar year is the shortest horizon
    (~0.25 years to target); a spring origin for the next year the longest
    (~1.75 years).
    """

    FALL_CURRENT = (Season.FALL, 0)
    SPRING_CURRENT = (Season.SPRING, 0)
    FALL_NEXT = (Season.FALL, 1)
    SPRING_NEXT = (Season.SPRING, 1)
    __hash__ = object.__hash__  # as ``Token``'s

    def __init__(self, season: Season, year_offset: int) -> None:
        self.season = season
        self.year_offset = year_offset  # 0 for current-year targets, 1 for next-year ones
        self.label = f"{season.name.lower()}-{'next' if year_offset else 'current'}"

    @property
    def index(self) -> int:
        return HORIZONS.index(self)

    def origin_for(self, target_year: int) -> ReleaseDate:
        """The release date at which a forecast for ``target_year`` at this
        horizon is issued."""
        return ReleaseDate(target_year - self.year_offset, self.season)

    def __lt__(self, other: "Horizon") -> bool:
        return self.index < other.index


HORIZONS = tuple(Horizon)


def horizon_of(origin: ReleaseDate, target_year: int) -> Horizon:
    """Map a forecast origin and target year to one of the four horizons."""
    offset = target_year - origin.year
    if offset not in (0, 1):
        raise UnsupportedHorizonError(
            f"unsupported horizon: origin {origin} cannot target year {target_year}"
        )
    return Horizon((origin.season, offset))


@dataclass(frozen=True)
class TargetId:
    """A forecast target: one country/variable pair."""

    country: str
    variable: str

    def __post_init__(self) -> None:
        if not self.country or not self.variable:
            raise ValueError("country and variable must be nonempty")
        if self.country == POOLED:
            raise ValueError(f"country name {POOLED!r} is reserved for the report's pooled cells")


def validate_levels(levels: tuple[float, ...]) -> tuple[float, ...]:
    """Check that confidence levels lie in (0, 1) and strictly increase."""
    if not levels:
        raise ValueError("at least one confidence level required")
    for tau in levels:
        if not (0.0 < tau < 1.0):
            raise ValueError(f"confidence level {tau} outside (0, 1)")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"confidence levels must be strictly increasing: {levels}")
    return tuple(levels)


DEFAULT_LEVELS = (0.5, 0.8)
POOLED = "pooled"  # the country of the report's country-pooled cells, which no target may take
