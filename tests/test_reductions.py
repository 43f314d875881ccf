"""Float reductions that feed the output files add left to right, from 0.

CPython 3.12 made the built-in ``sum`` of floats compensated, so a ``sum``
there gives other bits than on 3.10 and 3.11. Each case below holds values on
which a compensated sum (``math.fsum`` stands in for one) and plain
left-to-right addition differ, so these tests fail on 3.12 and later if any of
these reductions goes back to the built-in ``sum``.
"""

from __future__ import annotations

import math

from intervalcast.benchmark import aggregate_annual
from intervalcast.domain import Horizon, TargetId
from intervalcast.intervals import GridCell, IntervalGrid, pool_level_rows
from intervalcast.scoring import WisWeights, aggregate_report, audit_row, mean

# 1e16 + 1.0 rounds back to 1e16, so each 1.0 is lost when added after it.
CANCELLING = [1e16, 1.0, -1e16]
ABSORBED = [1e16, 1.0, 1.0]


def left_to_right(values):
    total = 0
    for value in values:
        total = total + value
    return total


def test_cases_tell_the_two_summations_apart():
    for values in (CANCELLING, ABSORBED):
        assert left_to_right(values) != math.fsum(values)


def test_mean_adds_left_to_right():
    assert repr(mean(CANCELLING)) == repr(left_to_right(CANCELLING) / 3) == "0.0"


def test_wis_components_add_left_to_right():
    # Weights (1 - tau) / 2 are 0.25, 0.125 and 0.0625, so the weighted
    # dispersions of these widths are exactly 1e16, 1.0 and 1.0.
    levels = (0.5, 0.75, 0.875)
    origin = Horizon.FALL_CURRENT.origin_for(2015)
    cell = GridCell(point=0.0, target_year=2015, forecast_origin=origin,
                    lower=(-2e16, -4.0, -8.0), upper=(2e16, 4.0, 8.0))
    grid = IntervalGrid(TargetId("AAA", "gdp"), origin, {Horizon.FALL_CURRENT: cell}, levels, blocks=(1,))
    row = audit_row(grid, Horizon.FALL_CURRENT, "imf", 0.0, WisWeights(levels))
    stats = aggregate_report([row], levels).cells[("AAA", "gdp", "fall-current", "imf")]
    assert repr(stats.mean_dispersion) == repr(left_to_right(ABSORBED) / 0.4375)
    assert (stats.mean_overprediction, stats.mean_underprediction) == (0.0, 0.0)


def test_block_means_add_left_to_right():
    # Each position's upper offset exceeds the next, so all three pool.
    lowers, uppers, blocks = pool_level_rows([[-v] for v in CANCELLING], [[v] for v in CANCELLING])
    assert blocks == (3,)
    assert repr([u for (u,) in uppers]) == repr([left_to_right(CANCELLING) / 3] * 3) == "[0.0, 0.0, 0.0]"
    assert repr([lo for (lo,) in lowers]) == "[0.0, 0.0, 0.0]"


def test_annual_aggregate_adds_left_to_right():
    # Weighted by (1, 2, 3, 4, 3, 2, 1) / 4: the terms are 1e16, 1.0, 0, -1e16, 0, 0, 0.
    assert repr(aggregate_annual([4e16, 2.0, 0.0, -1e16, 0.0, 0.0, 0.0])) == "0.0"
