"""``write_audit`` against ``json.dumps(rows, indent=2, sort_keys=True)``, on
generated rows of ``audit_row``'s shape and on a real backtest, and the
report rebuilt from a written ``audit.json`` and ``run.json``."""

from __future__ import annotations

import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalcast.domain import HORIZONS
from intervalcast.pipeline import (
    RunConfig,
    evaluation_report,
    load_config,
    run_backtest,
    write_backtest_outputs,
)
from intervalcast.scoring import check_rows, write_audit

from test_history import _golden_inputs


def dumped(rows) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


def written(rows) -> str:
    buf = io.StringIO()
    write_audit(rows, buf)
    return buf.getvalue()


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 1e-7, 1e22, 123456789.123, 0.1, math.nan, math.inf, -math.inf,
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
numbers = st.one_of(floats, floats.map(np.float64))  # numpy scalars write as plain floats
texts = st.one_of(st.sampled_from(["CAN", "Ünïcødé", "\x00\n\t\"\\/", " \ud800", ""]), st.text())
# ``audit_row`` keeps the cells' tuples; rows read back from JSON hold lists.
years = st.lists(st.integers(-10**6, 10**6), max_size=5).flatmap(lambda v: st.sampled_from([v, tuple(v)]))
# Levels whose string order differs from their numeric order (1e-05 < 0.05
# numerically, "0.05" < "1e-05" as strings).
levels = st.lists(
    st.one_of(st.sampled_from([1e-05, 0.05, 0.5, 0.9, 0.95, 0.1, 0.123456789]),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    unique=True, max_size=5,
).map(sorted)
interval_parts = st.fixed_dictionaries({
    "lower": numbers, "upper": numbers, "degenerate": st.booleans(), "excludes_center": st.booleans(),
})
score_parts = st.fixed_dictionaries({
    "total": numbers, "dispersion": numbers, "overprediction": numbers, "underprediction": numbers,
})


@st.composite
def audit_rows(draw):
    """One row with ``audit_row``'s keys, in its insertion order."""
    taus = draw(levels)
    return {
        "country": draw(texts),
        "variable": draw(texts),
        "method": draw(texts),
        "horizon": draw(texts),
        "grid_origin": draw(texts),
        "forecast_origin": draw(texts),
        "target_year": draw(st.integers(-10**6, 10**6)),
        "point": draw(numbers),
        "outcome": draw(numbers),
        "source_years": draw(years),
        "skipped_years": draw(years),
        "pava_blocks": draw(years),
        "intervals": {str(tau): draw(interval_parts) for tau in taus},
        "scores": {str(tau): draw(score_parts) for tau in taus},
        "wis": draw(numbers),
    }


@settings(deadline=None)
@given(st.lists(audit_rows(), max_size=4))
@example([])
def test_write_audit_is_json_dumps_text(rows):
    assert written(rows) == dumped(rows)


def test_real_backtest_audit_is_json_dumps_text(tmp_path):
    panel, quarterly = _golden_inputs()
    config = RunConfig(
        levels=tuple(round(0.1 * k, 1) for k in range(1, 10)),
        window=20, train_span=(1985, 2004), holdout_span=(2005, 2015), methods=("imf", "ar"),
    )
    result = run_backtest(config, panel, quarterly=quarterly)
    rows = result.audit
    assert {row["method"] for row in rows} == {"imf", "ar"}
    assert any(max(row["pava_blocks"]) > 1 for row in rows)
    assert any(row["skipped_years"] for row in rows)
    expected = dumped(rows)
    assert written(rows) == expected
    write_backtest_outputs(result, str(tmp_path))
    assert (tmp_path / "audit.json").read_bytes() == expected.encode("ascii")


def test_rows_keep_the_cells_shared_year_and_block_tuples():
    """A row holds its cell's ``source_years`` and ``skipped_years`` and its
    grid's ``blocks`` themselves, not fresh lists, and writes them as lists."""
    panel, _ = _golden_inputs()
    result = run_backtest(RunConfig(window=20, train_span=(1985, 2004), holdout_span=(2005, 2015)), panel)
    grids = {(grid.target.country, grid.target.variable, str(grid.origin)): grid for grid in result.grids}
    horizons = {h.label: h for h in HORIZONS}
    rows = result.audit
    for row in rows:
        grid = grids[row["country"], row["variable"], row["grid_origin"]]
        cell = grid.cells[horizons[row["horizon"]]]
        assert row["source_years"] is cell.source_years
        assert row["skipped_years"] is cell.skipped_years
        assert row["pava_blocks"] is grid.blocks
    assert any(row["skipped_years"] for row in rows) and any(max(row["pava_blocks"]) > 1 for row in rows)
    assert written(rows) == dumped(rows)
    assert isinstance(json.loads(written(rows))[0]["source_years"], list)


def test_report_rebuilt_from_written_audit_is_byte_identical(tmp_path):
    panel, quarterly = _golden_inputs()
    config = RunConfig(
        levels=tuple(round(0.1 * k, 1) for k in range(1, 10)),
        window=20, train_span=(1985, 2004), holdout_span=(2005, 2015), methods=("imf", "ar"),
        exclude=(("AAA", 2007, 2008),),
    )
    result = run_backtest(config, panel, quarterly=quarterly)
    write_backtest_outputs(result, str(tmp_path))
    rows = json.loads((tmp_path / "audit.json").read_text())
    rebuilt = load_config(str(tmp_path / "run.json"))
    check_rows(rows, rebuilt.levels)
    report = evaluation_report(rows, rebuilt)
    assert {row["method"] for row in rows} == {"imf", "ar"}
    assert report.to_csv() == (tmp_path / "report.csv").read_text()
    assert report.to_json() == (tmp_path / "report.json").read_text()
