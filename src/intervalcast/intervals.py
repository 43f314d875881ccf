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
from operator import add, gt, lt
from types import MappingProxyType
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


def offset_taus(levels: Sequence[float], method: ErrorMethod) -> tuple[float, ...]:
    """The quantile levels that ``offset_rows`` turns into offsets at ``levels``."""
    if method is ErrorMethod.ABSOLUTE:
        return tuple(levels)
    return tuple(t for tau in levels for t in ((1.0 - tau) / 2.0, (1.0 + tau) / 2.0))


def offset_rows(qs: list[float], method: ErrorMethod) -> tuple[list[float], list[float]]:
    """Lower and upper offsets from the quantiles read at ``offset_taus``."""
    if method is ErrorMethod.ABSOLUTE:
        return [-q for q in qs], qs
    return qs[0::2], qs[1::2]


def offsets_for(
    errs: ErrorSet,
    levels: Sequence[float],
    method: QuantileMethod = QuantileMethod.LINEAR,
) -> dict[float, IntervalOffsets]:
    """Offsets keyed by level, read from one sorted copy of the error window.

    Absolute errors give the offsets -q_tau and +q_tau; directional errors give
    the (1-tau)/2 and (1+tau)/2 quantiles of the signed errors.
    """
    qs = empirical_quantiles(errs.errors, offset_taus(levels, errs.method), method)
    return dict(zip(levels, map(IntervalOffsets, *offset_rows(qs, errs.method))))


@dataclass(frozen=True)
class GridCell:
    """One horizon of an interval grid: the point forecast and its lower and
    upper offsets, one per level in the grid's level order."""

    point: float
    target_year: int
    forecast_origin: ReleaseDate
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    source_years: tuple[int, ...] = ()
    skipped_years: tuple[int, ...] = ()

    def __post_init__(self) -> None:  # a panel shares its grids between runs
        lower, upper = tuple(self.lower), tuple(self.upper)
        if len(lower) != len(upper):
            raise ValueError(f"{len(lower)} lower offsets but {len(upper)} upper")
        for lo, up in zip(lower, upper):
            if lo > up:
                raise ValueError(f"lower offset {lo} exceeds upper {up}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class IntervalGrid:
    """Interval offsets for (a subset of) the four horizons at one origin.

    Each cell holds one offset per level of ``levels``, in that order.
    ``blocks`` records the pooled-block sizes after the monotonicity
    correction (None before correction). ``cells`` is a read-only copy.
    """

    target: TargetId
    origin: ReleaseDate
    cells: Mapping[Horizon, GridCell]
    levels: tuple[float, ...]
    blocks: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        object.__setattr__(self, "levels", tuple(self.levels))
        if any(len(cell.lower) != len(self.levels) for cell in self.cells.values()):
            raise ValueError(f"every cell needs one offset per level of {self.levels}")

    @property
    def horizons(self) -> tuple[Horizon, ...]:
        return tuple(h for h in HORIZONS if h in self.cells)


def pool_level_rows(
    lowers: Sequence[Sequence[float]], uppers: Sequence[Sequence[float]]
) -> tuple[list[tuple[float, ...]], list[tuple[float, ...]], tuple[int, ...]]:
    """Pool-adjacent-violators over positions (horizons), jointly at all levels.

    ``lowers[p]`` and ``uppers[p]`` hold position p's offsets, one per level.
    A violation at any level (an upper mean above the next block's or a lower
    mean below it) merges the two blocks at every level and on both sides. A
    block keeps running sums per level, added left to right from 0, so a
    merge adds only the absorbed block's rows. Only the merged block and its
    left neighbour can newly violate, so the scan steps back one block rather
    than to the front (Best & Chakravarti 1990). Returns each position's
    block mean (-0.0 becomes 0.0) as one tuple shared by the block's members,
    and the block sizes."""
    blocks = [[p] for p in range(len(uppers))]
    # A lone position's sums and means: 0 + x.
    lo_sums, up_sums = ([[0 + x for x in row] for row in rows] for rows in (lowers, uppers))
    lo_means, up_means = lo_sums[:], up_sums[:]
    r = 0
    while r < len(blocks) - 1:
        if any(map(gt, up_means[r], up_means[r + 1])) or any(map(lt, lo_means[r], lo_means[r + 1])):
            lo, up = lo_sums[r], up_sums[r]
            for p in blocks[r + 1]:
                lo, up = list(map(add, lo, lowers[p])), list(map(add, up, uppers[p]))
            blocks[r:r + 2] = [blocks[r] + blocks[r + 1]]
            k = len(blocks[r])
            lo_sums[r:r + 2], up_sums[r:r + 2] = [lo], [up]
            lo_means[r:r + 2], up_means[r:r + 2] = [[s / k for s in lo]], [[s / k for s in up]]
            r = max(r - 1, 0)
        else:
            r += 1
    pooled_lo = [mean for members, mean in zip(blocks, map(tuple, lo_means)) for _ in members]
    pooled_up = [mean for members, mean in zip(blocks, map(tuple, up_means)) for _ in members]
    return pooled_lo, pooled_up, tuple(len(members) for members in blocks)


def enforce_horizon_monotonicity(grid: IntervalGrid) -> IntervalGrid:
    """Correct an interval grid so offsets widen weakly with the horizon.

    Point forecasts are untouched; only the offsets move. Idempotent, and a
    no-op on already-monotone grids.
    """
    horizons = grid.horizons
    if len(horizons) <= 1:
        return replace(grid, blocks=tuple([1] * len(horizons)))
    cells = [grid.cells[h] for h in horizons]
    lowers, uppers, blocks = pool_level_rows([cell.lower for cell in cells], [cell.upper for cell in cells])
    new_cells = {
        h: replace(cell, lower=lo, upper=up)
        for h, cell, lo, up in zip(horizons, cells, lowers, uppers)
    }
    return replace(grid, cells=new_cells, blocks=blocks)
