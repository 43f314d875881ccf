"""Prediction intervals from error quantiles, and the cross-horizon
pool-adjacent-violators correction.

Interval endpoints are the point forecast plus level-dependent offsets taken
from the empirical distribution of past errors. Across the four horizons the
offsets must widen (weakly) with time to target; adjacent horizons violating
that order are pooled and averaged, jointly at every confidence level, so no
quantile crossing is introduced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, TargetId
from intervalcast.errorsets import ErrorMethod, ErrorSet
# ``empirical_quantile`` is re-exported for callers that look the
# single-level reader up here (the benchmark's per-layer tracer does).
from intervalcast.quantile import QuantileMethod, empirical_quantile, empirical_quantiles  # noqa: F401


@dataclass(frozen=True)
class IntervalOffsets:
    """Signed offsets added to the point forecast for one confidence level."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower offset {self.lower} exceeds upper {self.upper}")


@dataclass(frozen=True)
class PredictionInterval:
    level: float
    lower: float
    upper: float
    center: float
    degenerate: bool = False
    excludes_center: bool = False

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"inverted interval [{self.lower}, {self.upper}]")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, outcome: float) -> bool:
        return self.lower <= outcome <= self.upper


def offsets_for(
    errs: ErrorSet,
    levels: Sequence[float],
    method: QuantileMethod = QuantileMethod.LINEAR,
) -> dict[float, IntervalOffsets]:
    """Offsets at every level of ``levels``, read from one sorted copy of the
    error window.

    Absolute errors give symmetric offsets +-q_tau; directional errors give
    the (1-tau)/2 and (1+tau)/2 quantiles of the signed errors.
    """
    if errs.method is ErrorMethod.ABSOLUTE:
        qs = empirical_quantiles(errs.errors, levels, method)
        return {tau: IntervalOffsets(lower=-q, upper=q) for tau, q in zip(levels, qs)}
    taus = [t for tau in levels for t in ((1.0 - tau) / 2.0, (1.0 + tau) / 2.0)]
    qs = empirical_quantiles(errs.errors, taus, method)
    return {
        tau: IntervalOffsets(lower=qs[2 * i], upper=qs[2 * i + 1])
        for i, tau in enumerate(levels)
    }


def interval_from_offsets(point: float, tau: float, offs: IntervalOffsets) -> PredictionInterval:
    lower = point + offs.lower
    upper = point + offs.upper
    return PredictionInterval(
        level=tau,
        lower=lower,
        upper=upper,
        center=point,
        degenerate=lower == upper,
        excludes_center=not (lower <= point <= upper),
    )


@dataclass(frozen=True)
class GridCell:
    """One horizon of an interval grid: the point forecast and its offsets."""

    point: float
    target_year: int
    forecast_origin: ReleaseDate
    offsets: Mapping[float, IntervalOffsets]
    source_years: tuple[int, ...] = ()
    skipped_years: tuple[int, ...] = ()

    def interval(self, tau: float) -> PredictionInterval:
        return interval_from_offsets(self.point, tau, self.offsets[tau])


@dataclass(frozen=True)
class IntervalGrid:
    """Interval offsets for (a subset of) the four horizons at one origin.

    ``blocks`` records the pooled-block sizes after the monotonicity
    correction (None before correction).
    """

    target: TargetId
    origin: ReleaseDate
    cells: Mapping[Horizon, GridCell]
    blocks: Optional[tuple[int, ...]] = None

    @property
    def horizons(self) -> tuple[Horizon, ...]:
        return tuple(h for h in HORIZONS if h in self.cells)

    @property
    def levels(self) -> tuple[float, ...]:
        first = self.cells[self.horizons[0]]
        return tuple(sorted(first.offsets))


def _is_symmetric(columns: dict[float, tuple[list[float], list[float]]]) -> bool:
    return all(
        lo == -up
        for lows, ups in columns.values()
        for lo, up in zip(lows, ups)
    )


def _violates(
    columns: dict[float, tuple[list[float], list[float]]],
    blocks: list[list[int]],
    r: int,
    symmetric: bool,
) -> bool:
    """Whether adjacent blocks r, r+1 break the horizon ordering at any level."""

    def block_mean(vals: list[float], members: list[int]) -> float:
        return sum(vals[i] for i in members) / len(members)

    for lows, ups in columns.values():
        if block_mean(ups, blocks[r]) > block_mean(ups, blocks[r + 1]):
            return True
        if not symmetric and block_mean(lows, blocks[r]) < block_mean(lows, blocks[r + 1]):
            return True
    return False


def _apply_blocks(
    columns: dict[float, tuple[list[float], list[float]]], blocks: list[list[int]]
) -> dict[float, tuple[list[float], list[float]]]:
    out: dict[float, tuple[list[float], list[float]]] = {}
    for tau, (lows, ups) in columns.items():
        new_lo = list(lows)
        new_up = list(ups)
        for members in blocks:
            mlo = sum(lows[i] for i in members) / len(members)
            mup = sum(ups[i] for i in members) / len(members)
            for i in members:
                new_lo[i] = mlo
                new_up[i] = mup
        out[tau] = (new_lo, new_up)
    return out


def pool_adjacent_horizons(
    columns: Mapping[float, tuple[list[float], list[float]]],
) -> tuple[dict[float, tuple[list[float], list[float]]], tuple[int, ...]]:
    """Pool-adjacent-violators over horizon positions, jointly at all levels.

    ``columns`` maps each confidence level to (lower offsets, upper offsets)
    listed in horizon order. A violation at any level merges the two adjacent
    blocks at every level and on both sides; merged blocks take their
    size-weighted mean. Scanning restarts from the front after each merge.
    Returns the corrected columns and the final block sizes.
    """
    cols = {tau: (list(lo), list(up)) for tau, (lo, up) in columns.items()}
    n = len(next(iter(cols.values()))[0])
    for lows, ups in cols.values():
        if len(lows) != n or len(ups) != n:
            raise ValueError("all levels must cover the same horizons")
    symmetric = _is_symmetric(cols)
    blocks: list[list[int]] = [[i] for i in range(n)]
    merged = True
    while merged:
        merged = False
        for r in range(len(blocks) - 1):
            if _violates(cols, blocks, r, symmetric):
                blocks[r] = blocks[r] + blocks[r + 1]
                del blocks[r + 1]
                merged = True
                break
    corrected = _apply_blocks(cols, blocks)
    return corrected, tuple(len(b) for b in blocks)


def enforce_horizon_monotonicity(grid: IntervalGrid) -> IntervalGrid:
    """Correct an interval grid so offsets widen weakly with the horizon.

    Point forecasts are untouched; only the offsets move. Idempotent, and a
    no-op on already-monotone grids.
    """
    horizons = grid.horizons
    if len(horizons) <= 1:
        return replace(grid, blocks=tuple([1] * len(horizons)))
    levels = grid.levels
    columns = {
        tau: (
            [grid.cells[h].offsets[tau].lower for h in horizons],
            [grid.cells[h].offsets[tau].upper for h in horizons],
        )
        for tau in levels
    }
    corrected, blocks = pool_adjacent_horizons(columns)
    new_cells = {}
    for idx, h in enumerate(horizons):
        cell = grid.cells[h]
        new_offsets = {
            tau: IntervalOffsets(corrected[tau][0][idx], corrected[tau][1][idx])
            for tau in levels
        }
        new_cells[h] = replace(cell, offsets=new_offsets)
    return IntervalGrid(target=grid.target, origin=grid.origin, cells=new_cells, blocks=blocks)
