"""AR(1) benchmark: OLS fit on quarterly growth, iterated forecasts, and
quarterly-to-annual aggregation.

Annual growth is approximated as a weighted sum of the seven quarterly growth
rates from Q2 of the preceding year through Q4 of the target year, with
triangular weights (1,2,3,4,3,2,1)/4. The benchmark fills that window with
observed quarters where available and iterated AR(1) means elsewhere, so its
annual point forecasts feed the same interval machinery as external forecasts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from intervalcast.domain import Horizon, ReleaseDate, Season, TargetId

ANNUAL_WEIGHTS = (0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25)


class InsufficientQuarterlyHistoryError(ValueError):
    pass


class DegenerateRegressorError(ValueError):
    pass


Quarter = tuple[int, int]


def _q_index(q: Quarter) -> int:
    return q[0] * 4 + (q[1] - 1)


def _q_from_index(i: int) -> Quarter:
    return (i // 4, i % 4 + 1)


def quarter_cutoff(origin: ReleaseDate) -> Quarter:
    """Last quarter of data available to a benchmark fitted at ``origin``:
    Q1 for spring releases, Q3 for fall releases."""
    return (origin.year, 1 if origin.season is Season.SPRING else 3)


@dataclass(frozen=True)
class QuarterlySeries:
    """Quarterly growth rates (percent per quarter) for one target, keyed by
    (year, quarter) with quarters numbered 1-4. ``growth`` is a read-only
    copy, so the runs found once stay the series' runs."""

    target: TargetId
    growth: Mapping[Quarter, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "growth", MappingProxyType(dict(self.growth)))

    def value(self, q: Quarter) -> Optional[float]:
        return self.growth.get(q)

    @cached_property
    def _runs(self) -> tuple[list[int], list[list[float]]]:
        """The first quarter's index and the values (oldest first) of each
        gap-free run, in order: found once per series."""
        firsts: list[int] = []
        runs: list[list[float]] = []
        for q in sorted(self.growth):
            if not runs or _q_index(q) != firsts[-1] + len(runs[-1]):
                firsts.append(_q_index(q))
                runs.append([])
            runs[-1].append(self.growth[q])
        return firsts, runs

    def contiguous_run_ending(self, last: Quarter) -> list[float]:
        """Observed values of the longest gap-free run ending at ``last``
        (newest last); empty if ``last`` itself is unobserved."""
        if last not in self.growth:
            return []
        firsts, runs = self._runs
        k = bisect_right(firsts, _q_index(last)) - 1
        return runs[k][:_q_index(last) - firsts[k] + 1]


@dataclass(frozen=True)
class Ar1Fit:
    intercept: float
    slope: float
    first_quarter: Quarter
    last_quarter: Quarter
    n_obs: int


def fit_ar1(
    series: QuarterlySeries,
    last_usable_quarter: Quarter,
    min_obs: int = 20,
    window: Optional[int] = None,
) -> Ar1Fit:
    """OLS fit of x_q on (1, x_{q-1}) over the contiguous run ending at
    ``last_usable_quarter``.

    The fit window expands over all contiguous quarters by default; pass
    ``window`` to cap it at a rolling number of observations.
    """
    run = series.contiguous_run_ending(last_usable_quarter)
    if window is not None and len(run) > window + 1:
        run = run[-(window + 1):]
    n_pairs = len(run) - 1
    if n_pairs < min_obs:
        raise InsufficientQuarterlyHistoryError(
            f"insufficient quarterly history for {series.target.country}/"
            f"{series.target.variable}: {max(n_pairs, 0)} usable pairs, need {min_obs}"
        )
    x = np.asarray(run[:-1], dtype=float)
    y = np.asarray(run[1:], dtype=float)
    if np.ptp(x) == 0.0:
        raise DegenerateRegressorError(
            f"degenerate regressor: constant series for {series.target.country}/"
            f"{series.target.variable}"
        )
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    if not (math.isfinite(intercept) and math.isfinite(slope)):
        raise DegenerateRegressorError("non-finite AR(1) coefficients")
    first = _q_from_index(_q_index(last_usable_quarter) - n_pairs)
    return Ar1Fit(
        intercept=intercept,
        slope=slope,
        first_quarter=first,
        last_quarter=last_usable_quarter,
        n_obs=n_pairs,
    )


def forecast_ar1_path(fit: Ar1Fit, last_value: float, steps: int) -> list[float]:
    """Iterated conditional means a + b*x, chained ``steps`` quarters ahead."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    path: list[float] = []
    x = last_value
    for _ in range(steps):
        x = fit.intercept + fit.slope * x
        path.append(x)
    return path


def aggregate_annual(quarterly_growth: Sequence[float]) -> float:
    """Annual growth from the seven quarterly rates Q2(t-1)..Q4(t), weighted
    (1,2,3,4,3,2,1)/4. Constant quarterly growth g aggregates to 4g."""
    if len(quarterly_growth) != 7:
        raise ValueError(f"expected seven quarters, got {len(quarterly_growth)}")
    return float(sum(w * g for w, g in zip(ANNUAL_WEIGHTS, quarterly_growth)))


def annual_window(target_year: int) -> list[Quarter]:
    """The seven quarters entering the annual aggregate for ``target_year``."""
    return [_q_from_index(_q_index((target_year - 1, 2)) + k) for k in range(7)]


def annual_truth(series: QuarterlySeries, target_year: int) -> Optional[float]:
    """Annual growth aggregated from observed quarters; None if any of the
    seven is missing."""
    values = [series.value(q) for q in annual_window(target_year)]
    if any(v is None for v in values):
        return None
    return aggregate_annual([v for v in values if v is not None])


def benchmark_forecast(
    series: QuarterlySeries,
    origin: ReleaseDate,
    horizon: Horizon,
    min_obs: int = 20,
    window: Optional[int] = None,
    fit: Ar1Fit | ValueError | None = None,
) -> float:
    """Annual AR(1) benchmark forecast for the target year implied by
    ``origin`` and ``horizon``.

    Quarters up to the origin cutoff are taken from the data; later quarters
    come from the iterated AR(1) path started at the last observed value.
    ``fit`` is the origin's ``fit_ar1`` result, or the error it raised, when
    the caller already has it; both horizons of an origin share one fit.
    """
    if horizon.season is not origin.season:
        raise ValueError(
            f"horizon {horizon.label} cannot be issued at a "
            f"{origin.season.name.lower()} origin"
        )
    target_year = origin.year + horizon.year_offset
    cutoff = quarter_cutoff(origin)
    if fit is None:
        fit = fit_ar1(series, cutoff, min_obs=min_obs, window=window)
    elif isinstance(fit, ValueError):
        raise fit.with_traceback(None)
    last_value = series.value(cutoff)
    assert last_value is not None  # fit_ar1 succeeded on the run ending here
    window_quarters = annual_window(target_year)
    max_steps = max(_q_index(q) - _q_index(cutoff) for q in window_quarters)
    path = forecast_ar1_path(fit, last_value, max_steps) if max_steps >= 1 else []
    values: list[float] = []
    for q in window_quarters:
        steps_ahead = _q_index(q) - _q_index(cutoff)
        if steps_ahead <= 0:
            observed = series.value(q)
            if observed is None:
                raise InsufficientQuarterlyHistoryError(
                    f"missing observed quarter {q} before origin cutoff {cutoff}"
                )
            values.append(observed)
        else:
            values.append(path[steps_ahead - 1])
    return aggregate_annual(values)


@dataclass(frozen=True)
class QuarterlyTruthSelector:
    """Realization selector deriving annual truths from quarterly data.

    A year's aggregate is observable at an origin once the origin cutoff has
    passed Q4 of that year, mirroring how the fitted data arrive.
    """

    series_by_target: dict[TargetId, QuarterlySeries]

    def __call__(self, target: TargetId, year: int, as_of: ReleaseDate) -> Optional[float]:
        if year >= as_of.year:
            return None
        return self.settled(target, year)[1]

    def settled(self, target: TargetId, year: int) -> tuple[ReleaseDate, Optional[float]]:
        """The spring release after ``year`` and the year's aggregate (None
        without a series or with a quarter missing)."""
        series = self.series_by_target.get(target)
        truth = None if series is None else annual_truth(series, year)
        return ReleaseDate(year + 1, Season.SPRING), truth
