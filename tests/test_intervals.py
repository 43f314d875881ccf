import numpy as np
import pytest

from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, Season, TargetId
from intervalcast.errorsets import ErrorMethod, ErrorSet
from intervalcast.intervals import (
    GridCell,
    IntervalGrid,
    IntervalOffsets,
    _apply_blocks,
    _is_symmetric,
    _violates,
    enforce_horizon_monotonicity,
    interval_from_offsets,
    offsets_for,
    pool_adjacent_horizons,
)
from intervalcast.quantile import QuantileMethod, empirical_quantile

TARGET = TargetId("AAA", "gdp")


def abs_set(values, anchor=2020):
    years = tuple(range(anchor - 1, anchor - 1 - len(values), -1))
    return ErrorSet(TARGET, Horizon.FALL_CURRENT, anchor, ErrorMethod.ABSOLUTE,
                    errors=tuple(values), source_years=years)


def dir_set(values, anchor=2020):
    years = tuple(range(anchor - 1, anchor - 1 - len(values), -1))
    return ErrorSet(TARGET, Horizon.FALL_CURRENT, anchor, ErrorMethod.DIRECTIONAL,
                    errors=tuple(values), source_years=years)


def interval(point, errs, tau):
    return interval_from_offsets(point, tau, offsets_for(errs, (tau,))[tau])


class TestIntervalConstruction:
    def test_absolute_example(self):
        errs = abs_set([0.1 * i for i in range(1, 12)])
        pi = interval(2.0, errs, 0.8)
        assert pi.lower == pytest.approx(1.1, abs=1e-12)
        assert pi.upper == pytest.approx(2.9, abs=1e-12)
        assert not pi.degenerate and not pi.excludes_center

    def test_absolute_degenerate_flagged(self):
        pi = interval(2.0, abs_set([0.0] * 11), 0.8)
        assert pi.lower == pi.upper == 2.0
        assert pi.degenerate

    def test_absolute_median_example(self):
        pi = interval(-1.0, abs_set(list(range(1, 12))), 0.5)
        assert (pi.lower, pi.upper) == (-7.0, 5.0)

    def test_absolute_symmetry(self, rng):
        for _ in range(20):
            errs = abs_set(list(np.abs(rng.normal(size=11))))
            point = float(rng.normal())
            pi = interval(point, errs, 0.8)
            assert pi.upper - point == pytest.approx(point - pi.lower, abs=1e-12)
            assert pi.contains(point)

    def test_directional_one_sided_pathology(self):
        errs = dir_set([round(-0.1 * i, 10) for i in range(1, 12)])
        pi = interval(0.0, errs, 0.5)
        assert pi.lower == pytest.approx(-0.85, abs=1e-12)
        assert pi.upper == pytest.approx(-0.35, abs=1e-12)
        assert pi.excludes_center

    def test_directional_symmetric_errors(self):
        errs = dir_set(list(range(-5, 6)))
        pi = interval(2.0, errs, 0.8)
        assert (pi.lower, pi.upper) == (-2.0, 6.0)
        assert not pi.excludes_center

    def test_directional_degenerate(self):
        pi = interval(1.5, dir_set([0.0] * 11), 0.8)
        assert pi.degenerate
        assert not pi.excludes_center

    def test_offsets_for_reads_each_level_as_a_single_quantile(self, rng):
        levels = (0.2, 0.5, 0.8, 0.9)
        errs = abs_set(list(np.abs(rng.normal(size=11))))
        offsets = offsets_for(errs, levels, QuantileMethod.INVERSE_ECDF)
        assert list(offsets) == list(levels)
        for tau, offs in offsets.items():
            q = empirical_quantile(errs.errors, tau, QuantileMethod.INVERSE_ECDF)
            assert offs == IntervalOffsets(-q, q)
        errs = dir_set(list(rng.normal(size=11)))
        offsets = offsets_for(errs, levels)
        assert list(offsets) == list(levels)
        for tau, offs in offsets.items():
            assert offs == IntervalOffsets(
                empirical_quantile(errs.errors, (1 - tau) / 2),
                empirical_quantile(errs.errors, (1 + tau) / 2),
            )


def symmetric_columns(uppers_by_level):
    return {
        tau: ([-u for u in ups], list(ups)) for tau, ups in uppers_by_level.items()
    }


class TestPoolAdjacentHorizons:
    def test_single_level_merge(self):
        cols = symmetric_columns({0.5: [2.0, 5.0, 4.0]})
        corrected, blocks = pool_adjacent_horizons(cols)
        assert corrected[0.5][1] == [2.0, 4.5, 4.5]
        assert blocks == (1, 2)

    def test_merge_applies_to_all_levels(self):
        cols = symmetric_columns({0.5: [2.0, 5.0, 4.0], 0.8: [3.0, 6.0, 7.0]})
        corrected, _ = pool_adjacent_horizons(cols)
        assert corrected[0.5][1] == [2.0, 4.5, 4.5]
        assert corrected[0.8][1] == [3.0, 6.5, 6.5]

    def test_monotone_input_unchanged(self):
        cols = symmetric_columns({0.5: [1.0, 2.0, 3.0, 4.0]})
        corrected, blocks = pool_adjacent_horizons(cols)
        assert corrected[0.5][1] == [1.0, 2.0, 3.0, 4.0]
        assert blocks == (1, 1, 1, 1)

    def test_ties_are_not_violations(self):
        cols = symmetric_columns({0.5: [1.0, 1.0, 1.0]})
        _, blocks = pool_adjacent_horizons(cols)
        assert blocks == (1, 1, 1)


def random_columns(rng, symmetric, levels=(0.5, 0.8), horizons=4):
    cols = {tau: ([], []) for tau in levels}
    for _ in range(horizons):
        if symmetric:
            qs = np.sort(np.abs(rng.normal(size=len(levels))))
            for tau, q in zip(levels, qs):
                cols[tau][0].append(-float(q))
                cols[tau][1].append(float(q))
        else:
            # Four ordered cut points per horizon: no quantile crossing in input.
            cuts = np.sort(rng.normal(size=2 * len(levels)))
            for k, tau in enumerate(sorted(levels)):
                lo = float(cuts[len(levels) - 1 - k])
                up = float(cuts[len(levels) + k])
                cols[tau][0].append(lo)
                cols[tau][1].append(up)
    return cols


def assert_pava_properties(cols, corrected, blocks):
    levels = sorted(cols)
    n = len(cols[levels[0]][0])
    for tau in levels:
        lo, up = corrected[tau]
        assert all(a <= b + 1e-12 for a, b in zip(up, up[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(lo, lo[1:]))
    # No quantile crossing at any horizon.
    for i in range(n):
        for t1, t2 in zip(levels, levels[1:]):
            assert corrected[t1][1][i] <= corrected[t2][1][i] + 1e-12
            assert corrected[t1][0][i] >= corrected[t2][0][i] - 1e-12
    # Block means preserved, per level and side.
    start = 0
    for size in blocks:
        members = range(start, start + size)
        for tau in levels:
            for side in (0, 1):
                orig = np.mean([cols[tau][side][i] for i in members])
                corr = np.mean([corrected[tau][side][i] for i in members])
                assert corr == pytest.approx(orig, abs=1e-12)
        start += size
    # Idempotence.
    again, blocks2 = pool_adjacent_horizons(corrected)
    for tau in levels:
        assert again[tau][0] == pytest.approx(corrected[tau][0], abs=1e-12)
        assert again[tau][1] == pytest.approx(corrected[tau][1], abs=1e-12)


@pytest.mark.parametrize("symmetric", [True, False])
def test_pava_random_properties(symmetric, rng):
    for _ in range(300):
        cols = random_columns(rng, symmetric)
        corrected, blocks = pool_adjacent_horizons(cols)
        assert_pava_properties(cols, corrected, blocks)
        if symmetric:
            for tau in cols:
                lo, up = corrected[tau]
                assert lo == pytest.approx([-u for u in up], abs=1e-12)


def pool_adjacent_horizons_stack(columns):
    """Stack formulation of the same correction; used to cross-check the
    rescanning form (both reach the same fixpoint)."""
    cols = {tau: (list(lo), list(up)) for tau, (lo, up) in columns.items()}
    n = len(next(iter(cols.values()))[0])
    symmetric = _is_symmetric(cols)
    stack: list[list[int]] = []
    for i in range(n):
        stack.append([i])
        while len(stack) >= 2:
            blocks = stack[-2:]
            if _violates(cols, blocks, 0, symmetric):
                top = stack.pop()
                stack[-1] = stack[-1] + top
            else:
                break
    corrected = _apply_blocks(cols, stack)
    return corrected, tuple(len(b) for b in stack)


@pytest.mark.parametrize("symmetric", [True, False])
def test_rescan_and_stack_forms_agree(symmetric, rng):
    for _ in range(300):
        cols = random_columns(rng, symmetric)
        a, blocks_a = pool_adjacent_horizons(cols)
        b, blocks_b = pool_adjacent_horizons_stack(cols)
        assert blocks_a == blocks_b
        for tau in cols:
            assert a[tau][0] == pytest.approx(b[tau][0], abs=1e-12)
            assert a[tau][1] == pytest.approx(b[tau][1], abs=1e-12)


def make_grid(uppers_by_horizon_level, points=None):
    cells = {}
    for i, h in enumerate(HORIZONS):
        offsets = {
            tau: IntervalOffsets(-ups[i], ups[i])
            for tau, ups in uppers_by_horizon_level.items()
        }
        cells[h] = GridCell(
            point=(points or {}).get(h, 1.0),
            target_year=2020 + h.year_offset,
            forecast_origin=h.origin_for(2020 + h.year_offset),
            offsets=offsets,
        )
    return IntervalGrid(target=TARGET, origin=ReleaseDate(2020, Season.FALL), cells=cells)


class TestEnforceHorizonMonotonicity:
    def test_points_untouched_offsets_corrected(self):
        grid = make_grid({0.5: [2.0, 5.0, 4.0, 6.0]},
                         points={h: 10.0 + h.index for h in HORIZONS})
        fixed = enforce_horizon_monotonicity(grid)
        uppers = [fixed.cells[h].offsets[0.5].upper for h in HORIZONS]
        assert uppers == [2.0, 4.5, 4.5, 6.0]
        assert [fixed.cells[h].point for h in HORIZONS] == [10.0, 11.0, 12.0, 13.0]
        assert fixed.blocks == (1, 2, 1)

    def test_idempotent(self):
        grid = make_grid({0.5: [5.0, 2.0, 4.0, 1.0], 0.8: [6.0, 3.0, 5.0, 2.0]})
        once = enforce_horizon_monotonicity(grid)
        twice = enforce_horizon_monotonicity(once)
        for h in HORIZONS:
            for tau in (0.5, 0.8):
                assert twice.cells[h].offsets[tau] == once.cells[h].offsets[tau]

    def test_interval_lengths_nondecreasing_after_correction(self, rng):
        for _ in range(100):
            uppers = {
                0.5: list(np.abs(rng.normal(size=4))),
                0.8: [],
            }
            uppers[0.8] = [u + abs(rng.normal()) for u in uppers[0.5]]
            fixed = enforce_horizon_monotonicity(make_grid(uppers))
            for tau in (0.5, 0.8):
                lengths = [fixed.cells[h].interval(tau).length for h in HORIZONS]
                assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_partial_grid_supported(self):
        grid = make_grid({0.5: [2.0, 5.0, 4.0, 6.0]})
        cells = {h: grid.cells[h] for h in (Horizon.FALL_CURRENT, Horizon.FALL_NEXT)}
        partial = IntervalGrid(target=grid.target, origin=grid.origin, cells=cells)
        fixed = enforce_horizon_monotonicity(partial)
        assert fixed.horizons == (Horizon.FALL_CURRENT, Horizon.FALL_NEXT)
