import csv
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.cli import main
from intervalcast.domain import ReleaseDate, Season, TargetId
from intervalcast.pipeline import RunConfig

from conftest import make_panel, without


@pytest.fixture
def panel_path(tmp_path):
    panel = make_panel(countries=("AAA", "BBB"))
    path = tmp_path / "panel.csv"
    path.write_text(panel.to_canonical_csv())
    return str(path)


@pytest.fixture(scope="module")
def backtest_out(tmp_path_factory):
    """The output directory of a two-country backtest run with an exclusion,
    so its ``run.json`` holds one."""
    root = tmp_path_factory.mktemp("backtest")
    data = root / "panel.csv"
    data.write_text(make_panel(countries=("AAA", "BBB")).to_canonical_csv())
    assert main(["backtest", "--data", str(data), "--out", str(root / "out"),
                 "--exclude", "AAA:2015-2016"]) == 0
    return root / "out"


DELETE = object()


def changed(row, path, value):
    """Set the field at ``path`` (a key path) of ``row`` to ``value``, or
    delete it when ``value`` is ``DELETE``."""
    *parents, key = path
    for part in parents:
        row = row[part]
    if value is DELETE:
        del row[key]
    else:
        row[key] = value


def audit_with(backtest_out, dest, index, path, value, run_json=True):
    """``backtest_out``'s audit with one field of row ``index`` changed,
    written to ``dest`` with the run's ``run.json`` beside it (or not)."""
    rows = json.loads((backtest_out / "audit.json").read_text())
    changed(rows[index], path, value)
    (dest / "audit.json").write_text(json.dumps(rows))
    if run_json:
        (dest / "run.json").write_text((backtest_out / "run.json").read_text())
    return dest / "audit.json"


class TestIngest:
    def test_canonicalizes_and_summarizes(self, panel_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["ingest", "--data", panel_path, "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["countries"] == ["AAA", "BBB"]
        assert summary["variables"] == ["gdp"]
        canonical = (out / "panel_canonical.csv").read_text()
        with open(panel_path) as fh:
            assert canonical == fh.read()

    def test_bad_schema_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("country,value\nAAA,1.0\n")
        code = main(["ingest", "--data", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "schema mismatch" in capsys.readouterr().err


class TestBacktest:
    def test_outputs_written(self, panel_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["backtest", "--data", panel_path, "--out", str(out)])
        assert code == 0
        report = (out / "report.csv").read_text()
        rows = list(csv.DictReader(report.splitlines()))
        assert any(r["country"] == "pooled" and r["metric"] == "wis" for r in rows)
        audit = json.loads((out / "audit.json").read_text())
        assert len(audit) == 2 * 4 * 11

    def test_gaps_exit_two(self, tmp_path):
        # Too little history for the default window: every cell is a gap.
        panel = make_panel(countries=("AAA",), first_year=2005, last_year=2023)
        path = tmp_path / "short.csv"
        path.write_text(panel.to_canonical_csv())
        out = tmp_path / "out"
        code = main(["backtest", "--data", str(path), "--out", str(out),
                     "--holdout-span", "2010-2012", "--train-span", "2005-2009"])
        assert code == 2
        assert json.loads((out / "gaps.json").read_text())

    def test_holdout_span_past_the_data_is_one_gap(self, panel_path, tmp_path):
        out = tmp_path / "out"
        code = main(["backtest", "--data", panel_path, "--out", str(out), "--holdout-span", "2013-2100"])
        assert code == 2
        # One gap for the skipped origins; the others are the 2023 origins'
        # unrealized next-year cells, 2 targets x 2 seasons.
        gaps = json.loads((out / "gaps.json").read_text())
        assert gaps[0] == "holdout origins 2024-2100 skipped: no realization for target years 2024-2101"
        assert len(gaps) == 5 and all(gap.startswith("truth unavailable") for gap in gaps[1:])
        assert len(json.loads((out / "audit.json").read_text())) == 2 * 4 * 11

    def test_flag_overrides(self, panel_path, tmp_path):
        out = tmp_path / "out"
        code = main([
            "backtest", "--data", panel_path, "--out", str(out),
            "--levels", "0.5", "--error-method", "directional",
            "--exclude", "AAA:2013-2023",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["levels"] == [0.5]
        assert not any(r["country"] == "AAA" for r in report["rows"])


    def test_truth_rule_from_config(self, tmp_path):
        # Without 2015's fall release, no truth for 2015 is admissible under
        # the "none" fallback: its cells become gaps instead of a crash.
        panel = without(make_panel(countries=("AAA",)), realizations=[
            (TargetId("AAA", "gdp"), 2015, ReleaseDate(2016, Season.FALL)),
        ])
        path = tmp_path / "panel.csv"
        path.write_text(panel.to_canonical_csv())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"truth_rule": "none", "ar_window": "8"}))
        out = tmp_path / "out"
        code = main(["backtest", "--config", str(config), "--data", str(path),
                     "--out", str(out)])
        assert code == 2
        gaps = json.loads((out / "gaps.json").read_text())
        assert any("AAA/gdp 2015" in gap and "no admissible vintage" in gap for gap in gaps)


class TestTune:
    def test_tuning_outputs(self, panel_path, tmp_path):
        out = tmp_path / "out"
        code = main(["tune", "--data", panel_path, "--out", str(out),
                     "--grid-windows", "8,11"])
        assert code == 0
        rows = list(csv.DictReader((out / "tuning.csv").read_text().splitlines()))
        # 2 windows x 2 error methods x 1 variable x 4 horizons.
        assert len(rows) == 16
        assert {r["error_method"] for r in rows} == {"absolute", "directional"}


class TestForecast:
    def test_interval_file(self, panel_path, tmp_path):
        out = tmp_path / "out"
        code = main(["forecast", "--data", panel_path, "--out", str(out),
                     "--origin-year", "2023", "--origin-season", "F"])
        assert code == 0
        rows = list(csv.DictReader((out / "intervals_2023F.csv").read_text().splitlines()))
        assert len(rows) == 2 * 4 * 2
        assert {r["country"] for r in rows} == {"AAA", "BBB"}
        for r in rows:
            assert float(r["lower"]) <= float(r["point"]) <= float(r["upper"])

    def test_gaps_manifest_and_exit_two(self, tmp_path):
        panel = make_panel(countries=("AAA",), first_year=2015, last_year=2023)
        path = tmp_path / "short.csv"
        path.write_text(panel.to_canonical_csv())
        out = tmp_path / "out"
        code = main(["forecast", "--data", str(path), "--out", str(out),
                     "--origin-year", "2023", "--origin-season", "F"])
        assert code == 2
        assert json.loads((out / "gaps_2023F.json").read_text())


class TestReport:
    def test_rerenders_from_audit(self, panel_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["backtest", "--data", panel_path, "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["report", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        assert lines[0] == "country,variable,horizon,method,mean_wis,n"
        assert any(line.startswith("AAA,gdp,") for line in lines[1:])

    def test_rows_are_the_wis_rows_of_report_csv(self, panel_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["backtest", "--data", panel_path, "--out", str(out),
                     "--exclude", "AAA:2015-2016"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        got = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert got[0] == ["country", "variable", "horizon", "method", "mean_wis", "n"]
        wis = [
            [r["country"], r["variable"], r["horizon"], r["method"], r["value"], r["n"]]
            for r in csv.DictReader((out / "report.csv").read_text().splitlines())
            if r["metric"] == "wis"
        ]
        assert got[1:] == wis
        assert any(row[0] == "pooled" for row in wis)
        assert {row[5] for row in wis if row[0] == "AAA"} == {"9"}

    def test_country_with_a_comma_is_quoted(self, tmp_path, capsys):
        # Its rows once printed seven fields under the six-field header.
        data, out = tmp_path / "panel.csv", tmp_path / "out"
        data.write_text(make_panel(countries=("BBB", "Korea, Rep.")).to_canonical_csv())
        assert main(["backtest", "--data", str(data), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        got = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert {len(row) for row in got} == {6}
        wis = [
            [r["country"], r["variable"], r["horizon"], r["method"], r["value"], r["n"]]
            for r in csv.DictReader(io.StringIO((out / "report.csv").read_text())) if r["metric"] == "wis"
        ]
        assert got[1:] == wis
        assert any(row[0] == "Korea, Rep." for row in wis)

    def test_audit_without_run_json_prints_per_target_cells(self, panel_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["backtest", "--data", panel_path, "--out", str(out),
                     "--exclude", "AAA:2015-2016"]) == 0
        (out / "run.json").unlink()
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
        assert str(out / "run.json") in captured.err
        rows = list(csv.reader(captured.out.splitlines()))[1:]
        assert rows and not any(row[0] == "pooled" for row in rows)
        assert {row[5] for row in rows if row[0] == "AAA"} == {"11"}


class TestBadInput:
    def _assert_one_line_error(self, capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code = main(["backtest", "--data", missing, "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "missing.csv")

    def test_unknown_config_key_exits_one(self, panel_path, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window": 8, "windw": 9}))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "unknown config key", "windw")

    @pytest.mark.parametrize("key, value", [
        ("truth_rule", "latest"), ("ar_window", "eight"), ("ar_min_obs", [20]),
        # These ran: an empty method list wrote header-only files, and
        # ar_window -3 fitted on all but the first two quarters of a run.
        ("methods", ""), ("methods", []), ("ar_window", -3), ("ar_min_obs", 0),
    ])
    def test_bad_config_value_exits_one(self, panel_path, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "bad config value", key)

    @pytest.mark.parametrize("text, fragment", [
        # Converted before the type checks: these ran with window 1, window 2,
        # ar_min_obs 0 and methods ("imf",), and 1e400 ended in an OverflowError.
        ('{"window": true}', "window must be int, got True"),
        ('{"window": 2.7}', "window must be int, got 2.7"),
        ('{"ar_min_obs": false}', "ar_min_obs must be int, got False"),
        ('{"window": 1e400}', "window must be int, got inf"),
        ('{"methods": {"imf": 1}}', "methods must be a tuple of str, got {'imf': 1}"),
        ('{"levels": [0.5, 1]}', "levels must be a tuple of float"),
    ])
    def test_config_value_of_wrong_type_is_not_converted(self, panel_path, tmp_path, capsys, text, fragment):
        config = tmp_path / "config.json"
        config.write_text(text)
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "bad config value", fragment)
        assert not (tmp_path / "out").exists()

    def test_empty_data_path_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"data": ""}')
        assert main(["backtest", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        self._assert_one_line_error(capsys, "--data (or config 'data') is required")

    @pytest.mark.parametrize("key, value", [
        ("train_span", ["a", "b"]), ("holdout_span", [2013.5, 2023]), ("train_span", [1990, 2012, 5]),
        ("holdout_span", [True, 2023]),
    ])
    def test_bad_span_exits_one(self, panel_path, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, key)

    @pytest.mark.parametrize("flag, value, token", [
        # These ran: 2013- as a one-year holdout and JPN:2021- as 2021 only;
        # -2023 printed int()'s message without naming the span.
        ("--holdout-span", "2013-", "'2013-'"), ("--holdout-span", "-2023", "'-2023'"),
        ("--train-span", "1990-", "'1990-'"), ("--exclude", "JPN:2021-", "'2021-'"),
        ("--holdout-span", "2013-20x", "'2013-20x'"),
    ])
    def test_span_with_an_empty_or_bad_side_exits_one(self, panel_path, tmp_path, capsys, flag, value, token):
        code = main(["backtest", "--data", panel_path, "--out", str(tmp_path / "out"), flag, value])
        assert code == 1
        self._assert_one_line_error(capsys, f"bad span {token}: expected FIRST-LAST or YEAR")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("out", 5), ("data", ["panel.csv"]), ("data", 7)])
    def test_path_of_wrong_type_exits_one(self, panel_path, tmp_path, capsys, key, value):
        # The flag of ``key`` would override the config value, so it is left out.
        paths = {"data": panel_path, "out": str(tmp_path / "out")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        flags = [arg for name, path in paths.items() if name != key for arg in (f"--{name}", path)]
        code = main(["backtest", "--config", str(config), *flags])
        assert code == 1
        self._assert_one_line_error(capsys, f"{key} must be str")

    def test_duplicate_quarterly_row_exits_one(self, panel_path, tmp_path, capsys):
        quarterly = tmp_path / "quarterly.csv"
        quarterly.write_text("country,variable,year,quarter,value\nAAA,gdp,2000,1,1.0\nAAA,gdp,2000,1,9.0\n")
        code = main(["forecast", "--data", panel_path, "--quarterly-data", str(quarterly),
                     "--methods", "imf,ar", "--out", str(tmp_path / "out"),
                     "--origin-year", "2023", "--origin-season", "F"])
        assert code == 1
        self._assert_one_line_error(capsys, "duplicate record: quarterly AAA/gdp 2000 quarter 1 at lines 2 and 3")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--data", "--external-forecasts", "--quarterly-data"])
    def test_country_named_pooled_exits_one(self, panel_path, tmp_path, capsys, flag):
        # Its cells merged with the pooled cells, which counted its forecasts twice.
        paths, _ = self._forecast_inputs(panel_path, tmp_path)
        paths["--external-forecasts"] = tmp_path / "external.csv"
        paths["--external-forecasts"].write_bytes(paths["--data"].read_bytes())
        lines = paths[flag].read_text().splitlines()
        line = next(i for i, text in enumerate(lines, start=1) if text.startswith("BBB,"))
        paths[flag].write_text("\n".join(text.replace("BBB,", "pooled,") for text in lines) + "\n")
        code = main(["backtest", *[arg for name, path in paths.items() for arg in (name, str(path))],
                     "--methods", "imf,ar,external", "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, f"line {line}: country name 'pooled' is reserved")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _forecast_inputs(panel_path, root):
        """A panel and a quarterly CSV for a two-method forecast, and its flags."""
        quarters = [f"{c},gdp,{y},{q},{0.5 + 0.4 * math.sin(3 * y + q + len(c)):.4f}"
                    for c in ("AAA", "BBB") for y in range(1960, 2024) for q in range(1, 5)]
        quarterly = root / "quarterly.csv"
        quarterly.write_text("\n".join(["country,variable,year,quarter,value", *quarters]) + "\n")
        panel = root / "panel.csv"
        panel.write_bytes(Path(panel_path).read_bytes())
        flags = ["--methods", "imf,ar", "--origin-year", "2023", "--origin-season", "F"]
        return {"--data": panel, "--quarterly-data": quarterly}, flags

    @pytest.mark.parametrize("flag", ["--data", "--quarterly-data"])
    def test_csv_with_a_byte_order_mark_reads_as_without(self, panel_path, tmp_path, capsys, flag):
        # Spreadsheet CSV exports start with one; it was read into the first header cell.
        paths, flags = self._forecast_inputs(panel_path, tmp_path)
        args = [arg for name, path in paths.items() for arg in (name, str(path))]
        plain = main(["forecast", *args, *flags, "--out", str(tmp_path / "plain")])
        assert plain in (0, 2)
        paths[flag].write_bytes(b"\xef\xbb\xbf" + paths[flag].read_bytes())
        assert main(["forecast", *args, *flags, "--out", str(tmp_path / "marked")]) == plain
        assert capsys.readouterr().err == ""
        for name in ("intervals_2023F.csv", "gaps_2023F.json"):
            assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert b",ar," in (tmp_path / "marked" / "intervals_2023F.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--data", "--quarterly-data"])
    def test_csv_that_is_not_utf8_names_the_file(self, panel_path, tmp_path, capsys, flag):
        paths, flags = self._forecast_inputs(panel_path, tmp_path)
        paths[flag].write_bytes(paths[flag].read_bytes().replace(b"AAA", b"\xc5AA"))  # Latin-1 text
        code = main(["forecast", *[arg for name, path in paths.items() for arg in (name, str(path))],
                     *flags, "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, f"{paths[flag]}: 'utf-8' codec can't decode byte 0xc5")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--data", "--quarterly-data", "--external-forecasts"])
    @pytest.mark.parametrize("defect, fragment", [
        ("empty", "schema mismatch: empty file"),
        ("header", "schema mismatch: expected header"),
        ("row", "line 2: unparseable value 'x'"),
    ])
    def test_csv_error_names_the_file(self, panel_path, tmp_path, capsys, flag, defect, fragment):
        # Schema and row errors named no file, so a run of three CSVs did not say which was at fault.
        paths, _ = self._forecast_inputs(panel_path, tmp_path)
        paths["--external-forecasts"] = tmp_path / "external.csv"
        paths["--external-forecasts"].write_bytes(paths["--data"].read_bytes())
        header, first, *rest = paths[flag].read_text().splitlines()
        lines = {"empty": [], "header": [header.replace("country", "nation"), first, *rest],
                 "row": [header, first.rsplit(",", 1)[0] + ",x", *rest]}[defect]
        paths[flag].write_text("".join(line + "\n" for line in lines))
        code = main(["backtest", *[arg for name, path in paths.items() for arg in (name, str(path))],
                     "--methods", "imf,ar,external", "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, f"{paths[flag]}: {fragment}")
        assert not (tmp_path / "out").exists()

    def test_generated_at_of_wrong_type_exits_one(self, panel_path, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"generated_at": ["x"]}))
        code = main(["forecast", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out"), "--origin-year", "2023", "--origin-season", "F"])
        assert code == 1
        self._assert_one_line_error(capsys, "generated_at must be str or None")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", ["", "{\"window\": 8,}", "\xff"])
    def test_malformed_config_json_names_the_file(self, panel_path, tmp_path, capsys, content):
        config = tmp_path / "config.json"
        config.write_bytes(content.encode("latin-1"))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, str(config))

    @pytest.mark.parametrize("content", ["", "[{", "\xff"])
    def test_malformed_audit_json_names_the_file(self, tmp_path, capsys, content):
        audit = tmp_path / "audit.json"
        audit.write_bytes(content.encode("latin-1"))
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        self._assert_one_line_error(capsys, str(audit))

    @pytest.mark.parametrize("exclude, fragment", [
        (["JPN", 2021, 2023], "['JPN', 2021, 2023]"),
        ("JPN:2023-2021", "first year after last"),
        (":2021", "':2021'"),
    ])
    def test_bad_exclusion_exits_one(self, panel_path, tmp_path, capsys, exclude, fragment):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"exclude": [exclude]}))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "bad config value for exclude", fragment)

    def test_repeated_method_exits_one(self, panel_path, tmp_path, capsys):
        code = main(["backtest", "--data", panel_path, "--methods", "imf,imf",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "method 'imf' listed twice")
        assert not (tmp_path / "out").exists()

    def test_malformed_audit_exits_one(self, tmp_path, capsys):
        audit = tmp_path / "audit.json"
        audit.write_text(json.dumps([{"country": "AAA", "wis": 1.0}]))
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        self._assert_one_line_error(capsys, "variable")

    @pytest.mark.parametrize("path, value, fragment", [
        (("outcome",), "x", "'outcome' must be a number"),
        (("outcome",), None, "'outcome' must be a number"),
        (("outcome",), True, "'outcome' must be a number"),
        (("wis",), "x", "'wis' must be a number"),
        (("scores", "0.5", "dispersion"), "x", "score '0.5'"),
        (("intervals", "0.8", "lower"), "x", "interval '0.8'"),
        (("intervals", "0.8", "lower"), 1e9, "interval '0.8'"),
        (("country",), 5, "'country' must be a nonempty string"),
        (("target_year",), "2015", "'target_year' must be an integer"),
        (("target_year",), True, "'target_year' must be an integer"),
        (("country",), "pooled", "'country' must be a nonempty string other than 'pooled', got 'pooled'"),
        (("forecast_origin",), 5, "'forecast_origin' must be a release date like 2012S"),
    ])
    def test_malformed_audit_row_exits_one(self, backtest_out, tmp_path, capsys, path, value, fragment):
        # The run excluded AAA:2015-2016, and row 3 is an AAA row.
        audit = audit_with(backtest_out, tmp_path, 3, path, value)
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        self._assert_one_line_error(capsys, "malformed audit row 3: ", fragment)

    @pytest.mark.parametrize("run_json", [True, False])
    @pytest.mark.parametrize("part", ["intervals", "scores"])
    def test_audit_without_a_level_names_row_and_level(self, backtest_out, tmp_path, capsys,
                                                       run_json, part):
        audit = audit_with(backtest_out, tmp_path, 5, (part, "0.5"), DELETE, run_json=run_json)
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        # No warning about the missing run.json: the error is the only line.
        self._assert_one_line_error(capsys, f"malformed audit row 5: no {part[:-1]} at level 0.5")

    @pytest.mark.parametrize("argv, fragment", [
        (["backtest", "--window", "x"], "bad config value for window"),
        (["forecast", "--origin-year", "2020", "--origin-season", "X"], "unknown season 'X' (expected S or F)"),
        ([], "required: command"),
    ])
    def test_usage_error_exits_one(self, capsys, argv, fragment):
        if argv:  # a flag's text is read as its config key's, not checked by argparse
            assert main(argv) == 1
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        self._assert_one_line_error(capsys, fragment)

    @pytest.mark.parametrize("command, flags", [
        ("tune", ["--window", "5", "--error-method", "directional"]),
        ("ingest", ["--window", "0"]),
    ])
    def test_flag_the_command_does_not_read_exits_one(self, panel_path, tmp_path, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", panel_path, "--out", str(tmp_path / "out"), *flags])
        assert exc.value.code == 1
        self._assert_one_line_error(capsys, f"unrecognized arguments: {' '.join(flags)}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        *(("report", flag) for flag in ("--data", "--quarterly-data", "--window", "--error-method",
                                        "--quantile-method", "--train-span", "--holdout-span", "--methods",
                                        "--external-forecasts")),
        *(("forecast", flag) for flag in ("--train-span", "--holdout-span", "--exclude")),
    ])
    def test_report_and_forecast_reject_a_flag_they_do_not_read(self, panel_path, tmp_path, capsys,
                                                                command, flag):
        # Each was accepted and ignored: `report --window 5` printed the stored run's table.
        argv = {"report": ["report", "--out", str(tmp_path / "out")],
                "forecast": ["forecast", "--data", panel_path, "--out", str(tmp_path / "out"),
                             "--origin-year", "2023", "--origin-season", "F"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "AAA:2000"])
        assert exc.value.code == 1
        self._assert_one_line_error(capsys, f"unrecognized arguments: {flag} AAA:2000")
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: intervalcast backtest")

    @pytest.mark.parametrize("content, kind", [("[1, 2]", "list"), ('"abc"', "str")])
    def test_config_that_is_not_an_object_exits_one(self, panel_path, tmp_path, capsys,
                                                     content, kind):
        config = tmp_path / "config.json"
        config.write_text(content)
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, str(config), "JSON object", kind)

    def test_audit_that_is_not_an_array_exits_one(self, tmp_path, capsys):
        audit = tmp_path / "audit.json"
        audit.write_text("{}")
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        self._assert_one_line_error(capsys, str(audit), "array of objects")

    @pytest.mark.parametrize("windows, fragment", [
        ("4,4", "window 4"), ("0,3", "window 0 must be >= 1"), ("4,", "--grid-windows"),
        ("", "--grid-windows"),
    ])
    def test_bad_grid_windows_exit_one(self, panel_path, tmp_path, capsys, windows, fragment):
        code = main(["tune", "--data", panel_path, "--out", str(tmp_path / "out"),
                     "--grid-windows", windows])
        assert code == 1
        self._assert_one_line_error(capsys, fragment)
        assert not (tmp_path / "out").exists()

    # One rule for comma lists, as for --grid-windows: each of these dropped
    # its empty item and ran, writing outputs.
    @pytest.mark.parametrize("key, text", [
        ("levels", "0.5,,0.8"), ("levels", ",0.5"), ("methods", "imf,"),
        ("exclude", "AAA:2013-2014,"), ("exclude", ","),
        # A blank item is empty once stripped: this one failed as "unknown method ' '".
        ("methods", "imf, ,ar"), ("levels", "0.5, "),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_comma_list_with_an_empty_item_exits_one(self, panel_path, tmp_path, capsys, key, text, source):
        argv = ["backtest", "--data", panel_path, "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [f"--{key}", text]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: text}))
            argv += ["--config", str(config)]
        assert main(argv) == 1
        self._assert_one_line_error(capsys, f"bad config value for {key}", "empty item", repr(text))
        assert not (tmp_path / "out").exists()


class TestInputsReadAlike:
    """Every input file may start with a byte-order mark, and a flag's text
    reads as the same text under its key in a config file."""

    @staticmethod
    def _run(capsys, argv, out):
        """Exit code, stdout, stderr and the bytes of each file in ``out``."""
        code = main(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
        return code, captured.out, captured.err, files

    @pytest.mark.parametrize("name", ["config.json", "run.json", "audit.json"])
    def test_json_with_a_byte_order_mark_reads_as_without(self, backtest_out, panel_path, tmp_path, capsys, name):
        # Each was read with plain UTF-8, and exited 1 with "Unexpected UTF-8 BOM".
        out = tmp_path / "out"
        if name == "config.json":
            (tmp_path / name).write_text('{"window": 8, "levels": [0.5, 0.9]}')
            argv = ["backtest", "--config", str(tmp_path / name), "--data", panel_path, "--out", str(out)]
        else:
            for part in ("audit.json", "run.json"):
                (tmp_path / part).write_bytes((backtest_out / part).read_bytes())
            argv = ["report", "--audit", str(tmp_path / "audit.json")]
        plain = self._run(capsys, argv, out)
        assert plain[0] == 0 and plain[1] and plain[2] == ""
        (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        assert self._run(capsys, argv, out) == plain

    @pytest.mark.parametrize("key, text", [
        # argparse's choices and int() rejected the flag of all but " 7".
        ("quantile_method", "inverse_ecdf"), ("quantile_method", "LINEAR"),
        ("quantile_method", "linear_interpolation"), ("error_method", "ABSOLUTE"),
        ("error_method", "Directional"), ("window", " 7"), ("window", "x"),
    ])
    def test_flag_reads_as_its_config_key(self, panel_path, tmp_path, capsys, key, text):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: text}))
        runs = []
        for name, args in (("flag", [f"--{key.replace('_', '-')}", text]), ("config", ["--config", str(config)])):
            code, _, err, files = self._run(capsys, ["backtest", "--data", panel_path,
                                                     "--out", str(tmp_path / name), *args], tmp_path / name)
            runs.append((code, err, files.get("report.csv")))
        assert runs[0] == runs[1]
        if text == "x":
            assert runs[0][:2] == (1, "error: bad config value for window: "
                                      "invalid literal for int() with base 10: 'x'\n")
        else:
            assert runs[0][0] in (0, 2) and runs[0][2]

    # Each exited 1: "unknown method ' external'" and "bad release date '2023F '".
    @pytest.mark.parametrize("key, text, plain, source", [
        ("methods", "imf, external", "imf,external", "flag"),
        ("methods", " imf ,external ", "imf,external", "config"),
        ("eval_as_of", "2023F ", "2023F", "config"),
        ("eval_as_of", " 2023 F ", "2023F", "config"),
    ])
    def test_text_reads_as_without_surrounding_spaces(self, panel_path, tmp_path, capsys, key, text, plain, source):
        runs = []
        for name, value in (("spaced", text), ("plain", plain)):
            argv = ["backtest", "--data", panel_path, "--out", str(tmp_path / name),
                    "--external-forecasts", panel_path]
            if source == "flag":
                argv += [f"--{key}", value]
            else:
                (tmp_path / "config.json").write_text(json.dumps({key: value}))
                argv += ["--config", str(tmp_path / "config.json")]
            code, _, err, files = self._run(capsys, argv, tmp_path / name)
            runs.append((code, err, files.get("report.csv"), files.get("audit.json")))
        assert runs[0] == runs[1]
        assert runs[0][0] in (0, 2) and runs[0][1] == "" and runs[0][2]


def key_paths(obj, prefix=()):
    """The key path of every field of ``obj``, nested objects' fields included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -(10**400)]),
    st.floats(), st.text(max_size=6), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_report_on_an_audit_with_one_field_changed_exits_cleanly(backtest_out, data):
    """One field of one row deleted or retyped to each JSON type: ``report``
    exits 0 with nothing on stderr, or 1 with one ``error:`` line."""
    rows = json.loads((backtest_out / "audit.json").read_text())
    index = data.draw(st.integers(0, len(rows) - 1), label="row")
    path = data.draw(st.sampled_from(sorted(key_paths(rows[index]))), label="path")
    value = data.draw(st.one_of(st.just(DELETE), json_values), label="value")
    dest = backtest_out.parent / "fuzz"
    dest.mkdir(exist_ok=True)
    audit = audit_with(backtest_out, dest, index, path, value)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["report", "--audit", str(audit)])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("country,variable,horizon,method,mean_wis,n\n")


@pytest.fixture(scope="module")
def fuzz_backtest(tmp_path_factory):
    """A working directory two levels down, and a backtest config that sets
    every config key to a working value (three methods, external and AR
    included)."""
    root = tmp_path_factory.mktemp("config_fuzz")
    (root / "panel.csv").write_text(make_panel(countries=("AAA",), first_year=1995, last_year=2021).to_canonical_csv())
    rng = np.random.default_rng(0)
    quarters = [f"AAA,gdp,{year},{q},{rng.normal(0.5, 0.4):.4f}" for year in range(1960, 2022) for q in range(1, 5)]
    (root / "quarterly.csv").write_text("\n".join(["country,variable,year,quarter,value", *quarters]) + "\n")
    cwd = root / "run" / "here"
    cwd.mkdir(parents=True)
    config = {
        "data": str(root / "panel.csv"), "quarterly_data": str(root / "quarterly.csv"),
        "external_forecasts": str(root / "panel.csv"), "out": "out", "levels": [0.5, 0.8],
        "error_method": "directional", "quantile_method": "type1", "window": 6,
        "train_span": "1995-2012", "holdout_span": [2019, 2021], "methods": "imf,ar,external",
        "exclude": ["AAA:2020"], "truth_rule": "latest-available-release", "eval_as_of": "2022F",
        "ar_min_obs": 12, "ar_window": 40, "generated_at": "tag",
    }
    assert set(config) == {f.name for f in fields(RunConfig)}
    return cwd, config


# Text holds no path separator: an ``out`` of ".." stays inside the fixture's root.
config_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.sampled_from([10**30, -(10**400)]),
    st.sampled_from([math.inf, -math.inf]), st.floats(),
    st.sampled_from(["", "imf,ar", "0.5,0.9", "1990-2012", "2013-2013", "AAA:2020-2021", "2022S",
                     "type7", "absolute", "none", "12", "1e400", "nan"]),
    st.text(st.characters(blacklist_characters="/\\"), max_size=6),
    st.lists(st.one_of(st.integers(-3, 2030), st.floats(), st.text(max_size=3), st.booleans(), st.none()),
             max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_backtest_with_one_config_value_changed_exits_cleanly(fuzz_backtest, data):
    """One config key set to each JSON type (infinities written as +-1e400), or
    a top level that is not an object: ``backtest`` exits 0, or 2 with a
    non-empty gaps manifest, with nothing on stderr, or 1 with one ``error:``
    line."""
    cwd, base = fuzz_backtest
    key = data.draw(st.sampled_from([*sorted(base), None]), label="key (None: the top level)")
    value = data.draw(config_values if key else config_values.filter(lambda v: not isinstance(v, dict)),
                      label="value")
    config = cwd / "config.json"
    config.write_text(json.dumps({**base, key: value} if key else value).replace("Infinity", "1e400"))
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["backtest", "--config", str(config)])
    finally:
        os.chdir(previous)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == "" and out.getvalue().startswith("backtest: ")
    if code == 2:
        assert json.loads((cwd / (value if key == "out" else base["out"]) / "gaps.json").read_text())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_report_beside_a_changed_run_json_exits_cleanly(backtest_out, data):
    """The backtest's ``run.json`` with one key set to each JSON type, or a
    top level that is not an object: ``report --audit`` exits 0 with nothing
    on stderr, or 1 with one ``error:`` line, and never prints a traceback."""
    run = json.loads((backtest_out / "run.json").read_text())
    key = data.draw(st.sampled_from([*sorted(run), None]), label="key (None: the top level)")
    value = data.draw(config_values if key else config_values.filter(lambda v: not isinstance(v, dict)),
                      label="value")
    dest = backtest_out.parent / "run_fuzz"
    dest.mkdir(exist_ok=True)
    (dest / "audit.json").write_bytes((backtest_out / "audit.json").read_bytes())
    (dest / "run.json").write_text(json.dumps({**run, key: value} if key else value).replace("Infinity", "1e400"))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["report", "--audit", str(dest / "audit.json")])
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("country,variable,horizon,method,mean_wis,n\n")


@pytest.fixture(scope="module")
def fuzz_panel(tmp_path_factory):
    """A working directory and the lines of each input of a small two-country
    backtest at window 2 that scores forecasts: the panel, a quarterly CSV
    and an external-forecast panel."""
    root = tmp_path_factory.mktemp("panel_fuzz")
    panel, external = (make_panel(countries=("AAA", "BBB"), first_year=2006, last_year=2016, seed=seed)
                       for seed in (0, 1))
    rng = np.random.default_rng(0)
    quarters = [f"{country},gdp,{year},{q},{rng.normal(0.5, 0.4):.4f}"
                for country in ("AAA", "BBB") for year in range(2000, 2017) for q in range(1, 5)]
    return root, {"panel": panel.to_canonical_csv().splitlines(),
                  "quarterly": ["country,variable,year,quarter,value", *quarters],
                  "external": external.to_canonical_csv().splitlines()}


def _mutated_lines(draw, lines):
    """``lines`` after one drawn row, column or content change; no lines stay no lines."""
    if not lines:
        return lines
    rows = [line.split(",") for line in lines]  # the base inputs quote no cell
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    k, m = draw(st.integers(0, len(rows[0]) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    first = draw(st.integers(0, 1))  # 1: a column change below the header only
    kind = draw(st.sampled_from(["drop row", "duplicate row", "swap rows", "drop column", "duplicate column",
                                 "swap columns", "empty", "header only", "comma country", "pooled country"]))
    if kind == "drop row":
        del rows[i]
    elif kind == "duplicate row":
        rows.insert(j, rows[i])
    elif kind == "swap rows":
        rows[i], rows[j] = rows[j], rows[i]
    elif "column" in kind:
        for row in rows[first:]:
            if max(k, m) >= len(row):
                continue
            if kind == "drop column":
                del row[k]
            elif kind == "duplicate column":
                row.insert(m, row[k])
            else:
                row[k], row[m] = row[m], row[k]
    elif kind == "empty":
        rows = []
    elif kind == "header only":
        rows = rows[:1]
    else:
        name = {"comma country": draw(st.sampled_from(['"Korea, Rep."', "Korea, Rep."])),
                "pooled country": "pooled"}[kind]
        rows = [[name if cell == "BBB" and draw(st.booleans()) else cell for cell in row] for row in rows]
    return [",".join(row) for row in rows]


@st.composite
def mutated_panels(draw, lines):
    """The bytes of ``lines`` after one to three changes, then possibly CRLF
    line ends, a byte-order mark or a byte that is not UTF-8."""
    for _ in range(draw(st.integers(1, 3))):
        lines = _mutated_lines(draw, lines)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    raw = "".join(line + ending for line in lines).encode()
    encoding = draw(st.sampled_from(["utf-8", "bom", "not utf-8"]))
    if encoding == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif encoding == "not utf-8":
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc5", b"\x80"])) + raw[at:]
    return raw


@pytest.mark.parametrize("mutated", ["panel", "quarterly", "external"])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_backtest_of_a_mutated_panel_exits_cleanly(fuzz_panel, mutated, data):
    """One input (the panel, the quarterly CSV or the external panel) with
    rows or columns dropped, repeated or swapped, other line ends or bytes,
    no rows, or a country with a comma or named ``pooled``: ``backtest``
    exits 0, 2 with a non-empty gaps manifest, or 1 with one ``error:``
    line, and never prints a traceback."""
    root, inputs = fuzz_panel
    out = root / "out"
    (root / "panel.csv").write_text("".join(line + "\n" for line in inputs["panel"]))
    (root / f"{mutated}.csv").write_bytes(data.draw(mutated_panels(inputs[mutated]), label=mutated))
    reads = {"panel": [], "quarterly": ["--methods", "imf,ar", "--quarterly-data", str(root / "quarterly.csv")],
             "external": ["--methods", "imf,external", "--external-forecasts", str(root / "external.csv")]}
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["backtest", "--data", str(root / "panel.csv"), "--out", str(out), "--window", "2",
                     *reads[mutated]])
    assert code in (0, 1, 2)
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    if code == 1:
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
    else:
        assert stderr.getvalue() == "" and stdout.getvalue().startswith("backtest: ")
    if code == 2:
        assert json.loads((out / "gaps.json").read_text())
