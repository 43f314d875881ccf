"""Tests of the benchmark's own checks, on small inputs.

Run with ``python -m pytest bench -q``. Each check passes on the program's
real outputs and fails on a deliberately corrupted copy: a shifted interval
bound, a wrong vintage, a dropped row, a non-monotone width.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from intervalcast.domain import ReleaseDate, Season  # noqa: E402
from intervalcast.errorsets import ErrorMethod  # noqa: E402
from intervalcast.ingest import parse_forecast_panel, parse_quarterly  # noqa: E402
from intervalcast.pipeline import load_config, produce_forecast, run_backtest, run_tuning  # noqa: E402

SPEC = checks.Spec(methods=("imf", "ar"), exclude=(("BBB", 2022, 2023),))


@pytest.fixture(scope="module")
def small():
    """Backtest, one forecast file and a two-window tuning grid on two targets."""
    text, rec = gen.make_panel(7, countries=("AAA", "BBB"), variables=("gdp",), first_year=1985)
    quarterly_text = gen.make_quarterly(7, rec, first_year=1975)
    panel = parse_forecast_panel(io.StringIO(text))
    quarterly = parse_quarterly(io.StringIO(quarterly_text))
    config = load_config(None, methods="imf,ar", exclude="BBB:2022-2023")
    result = run_backtest(config, panel, quarterly=quarterly)
    audit = json.loads(json.dumps(result.audit))
    forecast, _ = produce_forecast(config, panel, ReleaseDate(2020, Season.FALL), quarterly=quarterly)
    grid = [(w, m, config.quantile_method) for w in (4, 6) for m in (ErrorMethod.ABSOLUTE, ErrorMethod.DIRECTIONAL)]
    tuning = run_tuning(config, panel, grid)
    return {
        "rec": rec,
        "audit": audit,
        "report_csv": result.report.to_csv(),
        "forecast": forecast,
        "tuning": json.loads(tuning.to_json()),
        "tuning_csv": tuning.to_csv(),
        "tune_grid": [(4, False), (4, True), (6, False), (6, True)],
    }


def audit_problems(small, audit):
    return checks.check_audit(audit, checks.Oracle(small["rec"], SPEC))


def forecast_problems(small, text):
    return checks.check_forecast_file(text, (2020, gen.FALL), checks.Oracle(small["rec"], SPEC))


def test_real_outputs_pass(small):
    assert audit_problems(small, small["audit"]) == []
    assert checks.check_report_csv(small["report_csv"], checks.expected_cells(small["audit"], SPEC)) == []
    assert forecast_problems(small, small["forecast"]) == []
    assert checks.check_tuning(small["tuning"], small["tuning_csv"], small["rec"], checks.Spec(),
                               small["tune_grid"]) == []


def test_shifted_interval_bound_fails(small):
    audit = copy.deepcopy(small["audit"])
    audit[5]["intervals"]["0.8"]["upper"] += 1e-6
    problems = audit_problems(small, audit)
    assert any("interval" in p for p in problems)
    assert any("scores" in p or "wis" in p for p in problems)


def test_shifted_forecast_file_bound_fails(small):
    rows = list(csv.reader(io.StringIO(small["forecast"])))
    rows[3][6] = repr(float(rows[3][6]) - 0.01)
    assert any("expected" in p for p in forecast_problems(small, _csv(rows)))


def test_wrong_vintage_fails(small):
    audit = copy.deepcopy(small["audit"])
    row = audit[0]
    year = row["target_year"]
    spring = small["rec"].vintages[(row["country"], row["variable"], year)][(year + 1, gen.SPRING)]
    row["outcome"] = spring
    assert any("outcome" in p for p in audit_problems(small, audit))


def test_wrong_vintage_in_error_window_fails(small):
    # A spring release taken as the truth of an older year moves the error
    # window's quantiles: rebuild the record with one fall release replaced.
    rec = copy.deepcopy(small["rec"])
    key = next(k for k in rec.vintages if k[2] == 2010)
    releases = rec.vintages[key]
    releases[(2011, gen.FALL)] = releases[(2011, gen.SPRING)]
    problems = checks.check_audit(small["audit"], checks.Oracle(rec, SPEC))
    assert any("interval" in p for p in problems)


def test_dropped_row_fails(small):
    audit = copy.deepcopy(small["audit"])
    del audit[7]
    assert any("missing" in p for p in audit_problems(small, audit))
    cells = checks.expected_cells(audit, SPEC)
    assert checks.check_report_csv(small["report_csv"], cells) != []


def test_dropped_forecast_row_fails(small):
    rows = list(csv.reader(io.StringIO(small["forecast"])))
    del rows[4]
    assert forecast_problems(small, _csv(rows)) != []


def test_non_monotone_width_fails(small):
    rows = list(csv.reader(io.StringIO(small["forecast"])))
    # Rows run horizon by horizon, two levels each: widen the fall-current
    # interval at level 0.5 past the spring-current one, keeping it nested.
    first, second = rows[1], rows[3]
    assert first[5] == second[5] == "0.5" and first[:2] == second[:2]
    width = float(second[7]) - float(second[6])
    first[6] = repr(float(first[8]) - width)
    first[7] = repr(float(first[8]) + width)
    rows[2][6], rows[2][7] = repr(float(first[6]) - 1), repr(float(first[7]) + 1)
    assert any("width shrinks" in p for p in forecast_problems(small, _csv(rows)))


def test_non_monotone_audit_width_fails(small):
    audit = copy.deepcopy(small["audit"])
    pairs = {}
    for row in audit:
        pairs.setdefault((row["method"], row["country"], row["grid_origin"]), []).append(row)
    short, long_ = next(rows for rows in pairs.values() if len(rows) == 2)
    iv = long_["intervals"]["0.5"]
    iv["upper"] = iv["lower"] + (short["intervals"]["0.5"]["upper"] - short["intervals"]["0.5"]["lower"]) / 2
    assert any("width shrinks" in p for p in audit_problems(small, audit))


def test_unequal_tuning_n_fails(small):
    tuning = copy.deepcopy(small["tuning"])
    tuning["rows"][0]["n"] -= 1
    problems = checks.check_tuning(tuning, small["tuning_csv"], small["rec"], checks.Spec(), small["tune_grid"])
    assert any("n" in p for p in problems)


def test_shifted_ar_point_fails(small):
    audit = copy.deepcopy(small["audit"])
    row = next(r for r in audit if r["method"] == "ar")
    row["point"] += 1e-6
    assert any("point" in p for p in audit_problems(small, audit))


def test_calibration_fails_when_intervals_shift(small):
    audit = copy.deepcopy(small["audit"])
    for row in audit:
        for iv in row["intervals"].values():
            iv["lower"] += 5.0
            iv["upper"] += 5.0
    assert checks.check_calibration(audit, SPEC, minimum=10) != []


def test_report_command_ignores_exclusions(small, tmp_path):
    from intervalcast.cli import main

    (tmp_path / "audit.json").write_text(json.dumps(small["audit"]))
    out = io.StringIO()
    sys_stdout, sys.stdout = sys.stdout, out
    try:
        assert main(["report", "--out", str(tmp_path)]) == 0
    finally:
        sys.stdout = sys_stdout
    problems = checks.check_report_command(out.getvalue(), checks.expected_cells(small["audit"], SPEC))
    assert any("lacks" in p for p in problems)
    assert any("BBB" in p for p in problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tune", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()
