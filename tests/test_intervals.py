from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.domain import HORIZONS, Horizon, ReleaseDate, Season, TargetId
from intervalcast.errorsets import ErrorMethod, ErrorSet
from intervalcast.intervals import (
    GridCell,
    IntervalGrid,
    IntervalOffsets,
    enforce_horizon_monotonicity,
    offsets_for,
    pool_level_rows,
)
from intervalcast.quantile import QuantileMethod, empirical_quantile

from conftest import interval_from_offsets, pool_adjacent_horizons

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


def _is_symmetric(columns):
    return all(
        lo == -up
        for lows, ups in columns.values()
        for lo, up in zip(lows, ups)
    )


def block_mean(vals, members):
    """The members' mean, summed left to right from 0 as ``pool_level_rows``
    sums (the built-in ``sum`` of floats is compensated from CPython 3.12 on)."""
    return reduce(add, (vals[i] for i in members), 0) / len(members)


def _violates(columns, blocks, r, symmetric):
    """Whether adjacent blocks r, r+1 break the horizon ordering at any level."""
    for lows, ups in columns.values():
        if block_mean(ups, blocks[r]) > block_mean(ups, blocks[r + 1]):
            return True
        if not symmetric and block_mean(lows, blocks[r]) < block_mean(lows, blocks[r + 1]):
            return True
    return False


def _apply_blocks(columns, blocks):
    out = {}
    for tau, (lows, ups) in columns.items():
        new_lo = list(lows)
        new_up = list(ups)
        for members in blocks:
            mlo = block_mean(lows, members)
            mup = block_mean(ups, members)
            for i in members:
                new_lo[i] = mlo
                new_up[i] = mup
        out[tau] = (new_lo, new_up)
    return out


def rescanning_pool(columns):
    """The rescanning form of the joint correction: every block mean summed
    again at every level on each scan. The oracle for ``pool_level_rows``."""
    cols = {tau: (list(lo), list(up)) for tau, (lo, up) in columns.items()}
    n = len(next(iter(cols.values()))[0])
    symmetric = _is_symmetric(cols)
    blocks = [[i] for i in range(n)]
    merged = True
    while merged:
        merged = False
        for r in range(len(blocks) - 1):
            if _violates(cols, blocks, r, symmetric):
                blocks[r] = blocks[r] + blocks[r + 1]
                del blocks[r + 1]
                merged = True
                break
    return _apply_blocks(cols, blocks), tuple(len(b) for b in blocks)


# Few distinct values, so ties and repeated block means are common; the
# signed zeros check that pooling maps -0.0 to 0.0 exactly as the oracle.
OFFSET = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 0.1, 0.2, 0.3]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def level_columns(draw):
    positions = draw(st.integers(1, 8))
    levels = [round(0.1 * k, 1) for k in range(1, draw(st.integers(1, 9)) + 1)]
    shape = draw(st.sampled_from(["symmetric", "asymmetric", "zero"]))
    cols = {}
    for tau in levels:
        if shape == "zero":
            lows = [draw(st.sampled_from([0.0, -0.0])) for _ in range(positions)]
            ups = [draw(st.sampled_from([0.0, -0.0])) for _ in range(positions)]
        else:
            ups = draw(st.lists(OFFSET, min_size=positions, max_size=positions))
            lows = (
                [-u for u in ups] if shape == "symmetric"
                else draw(st.lists(OFFSET, min_size=positions, max_size=positions))
            )
        cols[tau] = (lows, ups)
    return cols


def assert_matches_rescanning_oracle(cols):
    """``pool_level_rows`` gives the oracle's blocks and the same floats, and
    each block's members share one lower and one upper tuple."""
    expected, expected_blocks = rescanning_pool(cols)
    levels = list(cols)
    lowers, uppers, blocks = pool_level_rows(
        [[cols[tau][0][p] for tau in levels] for p in range(len(cols[levels[0]][0]))],
        [[cols[tau][1][p] for tau in levels] for p in range(len(cols[levels[0]][0]))],
    )
    assert blocks == expected_blocks
    for k, tau in enumerate(levels):
        assert repr([row[k] for row in lowers]) == repr(expected[tau][0])
        assert repr([row[k] for row in uppers]) == repr(expected[tau][1])
    start = 0
    for size in blocks:
        for p in range(start, start + size):
            assert lowers[p] is lowers[start] and uppers[p] is uppers[start]
        start += size
    corrected, adapter_blocks = pool_adjacent_horizons(cols)
    assert adapter_blocks == expected_blocks
    assert repr(corrected) == repr(expected)
    return corrected, blocks


@settings(max_examples=400, deadline=None)
@given(cols=level_columns())
def test_row_pava_matches_rescanning_oracle_exactly(cols):
    assert_matches_rescanning_oracle(cols)


def test_a_merge_that_exposes_a_violation_one_block_back_pools_it():
    # 2.5 <= 3.0 holds until 3.0 and 1.0 pool to 2.0; then 2.5 > 2.0 pools all three.
    corrected, blocks = assert_matches_rescanning_oracle(symmetric_columns({0.5: [2.5, 3.0, 1.0]}))
    assert blocks == (3,)
    assert corrected[0.5][1] == [6.5 / 3] * 3


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
        uppers = [ups[i] for ups in uppers_by_horizon_level.values()]
        cells[h] = GridCell(
            point=(points or {}).get(h, 1.0),
            target_year=2020 + h.year_offset,
            forecast_origin=h.origin_for(2020 + h.year_offset),
            lower=[-up for up in uppers],
            upper=uppers,
        )
    return IntervalGrid(target=TARGET, origin=ReleaseDate(2020, Season.FALL), cells=cells,
                        levels=tuple(uppers_by_horizon_level))


class TestEnforceHorizonMonotonicity:
    def test_points_untouched_offsets_corrected(self):
        grid = make_grid({0.5: [2.0, 5.0, 4.0, 6.0]},
                         points={h: 10.0 + h.index for h in HORIZONS})
        fixed = enforce_horizon_monotonicity(grid)
        uppers = [fixed.cells[h].upper[0] for h in HORIZONS]
        assert uppers == [2.0, 4.5, 4.5, 6.0]
        assert [fixed.cells[h].point for h in HORIZONS] == [10.0, 11.0, 12.0, 13.0]
        assert fixed.blocks == (1, 2, 1)

    def test_idempotent(self):
        grid = make_grid({0.5: [5.0, 2.0, 4.0, 1.0], 0.8: [6.0, 3.0, 5.0, 2.0]})
        once = enforce_horizon_monotonicity(grid)
        twice = enforce_horizon_monotonicity(once)
        for h in HORIZONS:
            assert (twice.cells[h].lower, twice.cells[h].upper) == (once.cells[h].lower, once.cells[h].upper)

    def test_interval_lengths_nondecreasing_after_correction(self, rng):
        for _ in range(100):
            uppers = {
                0.5: list(np.abs(rng.normal(size=4))),
                0.8: [],
            }
            uppers[0.8] = [u + abs(rng.normal()) for u in uppers[0.5]]
            fixed = enforce_horizon_monotonicity(make_grid(uppers))
            for k in range(2):
                lengths = [fixed.cells[h].upper[k] - fixed.cells[h].lower[k] for h in HORIZONS]
                assert all(a <= b + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_partial_grid_supported(self):
        grid = make_grid({0.5: [2.0, 5.0, 4.0, 6.0]})
        cells = {h: grid.cells[h] for h in (Horizon.FALL_CURRENT, Horizon.FALL_NEXT)}
        partial = IntervalGrid(target=grid.target, origin=grid.origin, cells=cells, levels=grid.levels)
        fixed = enforce_horizon_monotonicity(partial)
        assert fixed.horizons == (Horizon.FALL_CURRENT, Horizon.FALL_NEXT)


class TestGridRows:
    CELL = dict(point=1.0, target_year=2020, forecast_origin=ReleaseDate(2020, Season.FALL))

    def test_rows_are_stored_as_tuples(self):
        cell = GridCell(**self.CELL, lower=[-1.0, -2.0], upper=[1.0, 2.0])
        assert (cell.lower, cell.upper) == ((-1.0, -2.0), (1.0, 2.0))
        with pytest.raises(TypeError):
            cell.upper[0] = 5.0

    def test_inverted_offsets_rejected(self):
        with pytest.raises(ValueError, match="lower offset 0.5 exceeds upper 0.25"):
            GridCell(**self.CELL, lower=(-1.0, 0.5), upper=(1.0, 0.25))

    def test_rows_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="2 lower offsets but 1 upper"):
            GridCell(**self.CELL, lower=(-1.0, -2.0), upper=(1.0,))

    def test_grid_needs_one_offset_per_level(self):
        cell = GridCell(**self.CELL, lower=(-1.0,), upper=(1.0,))
        grid = IntervalGrid(TARGET, ReleaseDate(2020, Season.FALL), {Horizon.FALL_CURRENT: cell}, [0.5])
        assert grid.levels == (0.5,)
        with pytest.raises(ValueError, match="one offset per level"):
            IntervalGrid(TARGET, ReleaseDate(2020, Season.FALL), {Horizon.FALL_CURRENT: cell}, (0.5, 0.8))

    def test_pooling_keeps_the_levels(self):
        grid = make_grid({0.5: [2.0, 5.0, 4.0, 6.0], 0.8: [3.0, 6.0, 5.0, 7.0]})
        fixed = enforce_horizon_monotonicity(grid)
        assert fixed.levels == grid.levels == (0.5, 0.8)
        assert [fixed.cells[h].upper for h in HORIZONS] == [(2.0, 3.0), (4.5, 5.5), (4.5, 5.5), (6.0, 7.0)]
