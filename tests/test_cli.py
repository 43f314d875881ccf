import csv
import json

import pytest

from intervalcast.cli import main
from intervalcast.domain import ReleaseDate, Season, TargetId

from conftest import make_panel, without


@pytest.fixture
def panel_path(tmp_path):
    panel = make_panel(countries=("AAA", "BBB"))
    path = tmp_path / "panel.csv"
    path.write_text(panel.to_canonical_csv())
    return str(path)


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
    ])
    def test_bad_config_value_exits_one(self, panel_path, tmp_path, capsys, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main(["backtest", "--config", str(config), "--data", panel_path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        self._assert_one_line_error(capsys, "bad config value", key)

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

    def test_malformed_audit_exits_one(self, tmp_path, capsys):
        audit = tmp_path / "audit.json"
        audit.write_text(json.dumps([{"country": "AAA", "wis": 1.0}]))
        code = main(["report", "--audit", str(audit)])
        assert code == 1
        self._assert_one_line_error(capsys, "variable")
