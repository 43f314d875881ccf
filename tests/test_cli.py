import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.cli import main
from intervalcast.domain import ReleaseDate, Season, TargetId

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
        (["backtest", "--window", "x"], "argument --window: invalid int value: 'x'"),
        (["forecast", "--origin-year", "2020", "--origin-season", "X"], "argument --origin-season"),
        ([], "required: command"),
    ])
    def test_usage_error_exits_one(self, capsys, argv, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        self._assert_one_line_error(capsys, fragment)

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
    ])
    def test_bad_grid_windows_exit_one(self, panel_path, tmp_path, capsys, windows, fragment):
        code = main(["tune", "--data", panel_path, "--out", str(tmp_path / "out"),
                     "--grid-windows", windows])
        assert code == 1
        self._assert_one_line_error(capsys, fragment)
        assert not (tmp_path / "out").exists()


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
