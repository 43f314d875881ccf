"""Rolling-window sets of past forecast errors.

An error set collects the R most recent forecast errors at one horizon,
strictly before an anchor target year, using only realizations observable at
the forecast origin. When the directly preceding year is not yet complete, the
window shifts back so the set always holds exactly R errors.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Protocol

from intervalcast.domain import Horizon, ReleaseDate, TargetId

# ``typing.Callable`` would cache these subscriptions and so keep every
# imported ``TargetId`` class alive across re-imports of the package.

# Forecast lookup: point forecast for (target, origin, target-year), or None.
ForecastLookup = Callable[[TargetId, ReleaseDate, int], Optional[float]]


class TruthSelector(Protocol):
    """``selector(target, year, as_of)``: the truth of (target, year) observable
    at release ``as_of``, or None. ``settled(target, year)``: ``(release, truth)``
    when every call for the year from ``release`` on returns ``truth``, or None."""

    def __call__(self, target: TargetId, year: int, as_of: ReleaseDate) -> Optional[float]: ...
    def settled(self, target: TargetId, year: int) -> Optional[tuple[ReleaseDate, Optional[float]]]: ...


class InsufficientHistoryError(ValueError):
    """Fewer eligible past years than the requested window length."""

    def __init__(self, message: str, found: int, required: int):
        super().__init__(message)
        self.found = found
        self.required = required


class ErrorMethod(Enum):
    ABSOLUTE = "absolute"
    DIRECTIONAL = "directional"

    @classmethod
    def parse(cls, token: str) -> "ErrorMethod":
        token = token.strip().lower()
        for m in cls:
            if token == m.value:
                return m
        raise ValueError(f"unknown error method {token!r}")


def forecast_error(realized: float, forecast: float, method: ErrorMethod) -> float:
    """Forecast error: |realized - forecast| or the signed difference."""
    if not (math.isfinite(realized) and math.isfinite(forecast)):
        raise ValueError("invalid observation: realized and forecast must be finite")
    diff = realized - forecast
    return abs(diff) if method is ErrorMethod.ABSOLUTE else diff


@dataclass(frozen=True)
class ErrorSet:
    """The R past errors for one (target, horizon, anchor-year) cell.

    ``source_years`` lists the target years contributing each error, newest
    first; ``skipped_years`` records otherwise-eligible years that lacked a
    forecast or realization and were substituted by older years.
    """

    target: TargetId
    horizon: Horizon
    anchor_year: int
    method: ErrorMethod
    errors: tuple[float, ...]
    source_years: tuple[int, ...]
    skipped_years: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.errors) != len(self.source_years):
            raise ValueError("errors and source_years lengths differ")
        if len(set(self.source_years)) != len(self.source_years):
            raise ValueError("source_years must be pairwise distinct")
        if any(y >= self.anchor_year for y in self.source_years):
            raise ValueError("source years must precede the anchor year")
        if self.method is ErrorMethod.ABSOLUTE and any(e < 0 for e in self.errors):
            raise ValueError("absolute error sets must be nonnegative")

    def __len__(self) -> int:
        return len(self.errors)


class YearRow(dict[int, Any]):
    """``year -> value`` of one series, each year computed by ``fill`` on its
    first subscription (``row[year]``)."""

    def __init__(self, fill: Callable[[int], Any]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, year: int) -> Any:
        value = self[year] = self.fill(year)
        return value


def year_error(
    realized: Optional[float], points: Mapping[int, Any], year: int, method: ErrorMethod
) -> Optional[float]:
    """The error of ``year`` against ``realized``, or None; reads the point
    only when the truth is present."""
    forecast = None if realized is None else points[year]
    return None if forecast is None else forecast_error(realized, forecast, method)  # type: ignore[arg-type]


# Years an error-set build walks back before giving up.
MAX_LOOKBACK = 200


def build_error_set(
    points: Mapping[int, Optional[float]],
    truths: Mapping[int, Optional[float]],
    target: TargetId,
    horizon: Horizon,
    anchor_year: int,
    origin: ReleaseDate,
    window: int,
    method: ErrorMethod = ErrorMethod.ABSOLUTE,
    settled: Optional[Mapping[int, tuple[int, Optional[float]]]] = None,
) -> ErrorSet:
    """Collect the ``window`` most recent eligible errors before ``anchor_year``.

    ``points[year]`` is the forecast for ``year`` at ``horizon`` and
    ``truths[year]`` its realization observable at ``origin``, None when
    absent; both are read by subscription, so a ``YearRow`` fills them on
    demand. A point is read only for a year whose truth is present. A year is
    eligible when both are present. Ineligible years inside the window are
    substituted by the next older eligible year and recorded in
    ``skipped_years``. Years not yet ended at ``origin`` are never eligible
    and are not substitutions.

    ``settled[year]``, when given, is ``(first, error)``: at every origin
    whose ``ReleaseDate.ordinal`` is at least ``first`` the year's error is
    ``error`` (None when ineligible), and neither row is read.
    """
    if window < 1:
        raise ValueError("window length must be positive")
    errors: list[float] = []
    source_years: list[int] = []
    skipped: list[int] = []
    year = min(anchor_year, origin.year) - 1
    floor = year - MAX_LOOKBACK
    at = origin.ordinal
    while len(errors) < window and year > floor:
        first, error = (at + 1, None) if settled is None else settled[year]
        if first > at:
            error = year_error(truths[year], points, year, method)
        if error is None:
            skipped.append(year)
        else:
            errors.append(error)
            source_years.append(year)
        year -= 1
    if len(errors) < window:
        raise InsufficientHistoryError(
            f"insufficient history for {target} {horizon.label} anchor {anchor_year}: "
            f"found {len(errors)} of {window} eligible years",
            found=len(errors),
            required=window,
        )
    return ErrorSet(
        target=target,
        horizon=horizon,
        anchor_year=anchor_year,
        method=method,
        errors=tuple(errors),
        source_years=tuple(source_years),
        skipped_years=tuple(skipped),
    )
