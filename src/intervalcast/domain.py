"""Core vocabulary: release dates, horizons, targets and confidence levels."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering


class UnsupportedHorizonError(ValueError):
    """Raised when an (origin, target-year) pair maps to no supported horizon."""


class Season(Enum):
    """Release season; the spring edition of a year precedes the fall edition."""

    SPRING = "S"
    FALL = "F"

    @property
    def rank(self) -> int:
        return 0 if self is Season.SPRING else 1

    @classmethod
    def parse(cls, token: str) -> "Season":
        token = token.strip().upper()
        for s in cls:
            if token in (s.value, s.name):
                return s
        raise ValueError(f"unknown season {token!r} (expected S or F)")


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
            return cls(int(token[:-1]), Season.parse(token[-1]))
        except (TypeError, ValueError, IndexError):
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

    @property
    def season(self) -> Season:
        return self.value[0]

    @property
    def year_offset(self) -> int:
        """0 for current-year targets, 1 for next-year targets."""
        return self.value[1]

    @property
    def index(self) -> int:
        return _HORIZON_ORDER.index(self)

    @property
    def label(self) -> str:
        when = "current" if self.year_offset == 0 else "next"
        return f"{self.season.name.lower()}-{when}"

    def origin_for(self, target_year: int) -> ReleaseDate:
        """The release date at which a forecast for ``target_year`` at this
        horizon is issued."""
        return ReleaseDate(target_year - self.year_offset, self.season)

    def __lt__(self, other: "Horizon") -> bool:
        return self.index < other.index


_HORIZON_ORDER = (
    Horizon.FALL_CURRENT,
    Horizon.SPRING_CURRENT,
    Horizon.FALL_NEXT,
    Horizon.SPRING_NEXT,
)

HORIZONS = _HORIZON_ORDER


def horizon_of(origin: ReleaseDate, target_year: int) -> Horizon:
    """Map a forecast origin and target year to one of the four horizons."""
    offset = target_year - origin.year
    if offset not in (0, 1):
        raise UnsupportedHorizonError(
            f"unsupported horizon: origin {origin} cannot target year {target_year}"
        )
    for h in _HORIZON_ORDER:
        if h.season is origin.season and h.year_offset == offset:
            return h
    raise AssertionError("unreachable")  # pragma: no cover


@dataclass(frozen=True)
class TargetId:
    """A forecast target: one country/variable pair."""

    country: str
    variable: str

    def __post_init__(self) -> None:
        if not self.country or not self.variable:
            raise ValueError("country and variable must be nonempty")


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
