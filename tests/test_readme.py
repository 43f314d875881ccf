"""The README's Library example runs as written."""

from __future__ import annotations

from pathlib import Path

from conftest import make_panel

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "panel.csv").write_text(make_panel().to_canonical_csv(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_snippet(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("country,variable,horizon,method,level,metric,value,n\n")
    assert "pooled,gdp,fall-current,imf" in printed
