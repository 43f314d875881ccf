"""One short round of each benchmark workload: ``tune`` and ``paper``
untraced and traced, ``wide`` untraced.

The tracer wraps the package's functions by the names their callers use, so a
refactor that drops one of those names fails here. The ``paper`` and ``wide``
rounds run the benchmark's independent checks over a full backtest, including
``wide``'s 10 MB ``audit.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def bench_round(workload: str, trace: str = "0") -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tune_round_is_correct(trace):
    result = bench_round("tune", trace)
    if trace == "1":
        # One build per distinct error set, at the grid's largest window:
        # tuning reads every shorter window from that set's sorted prefix.
        metrics = result["metrics"]
        assert metrics["errorsets.build_calls"]["value"] == 364
        assert metrics["errorsets.distinct_sets"]["value"] == 364


def test_paper_round_is_correct():
    result = bench_round("paper")
    # ``intervalcast report`` rebuilds the report from audit.json and
    # run.json through the backtest's own aggregation, so no operation fails.
    assert (result["failed"], result["attempted"]) == (0, 24)


def test_traced_paper_round_reuses_the_backtests_grids():
    metrics = bench_round("paper", "1")["metrics"]
    # The 22 forecast files reuse the backtest's IMF grids (3,920 builds
    # when each file built its own), and each (target, origin) fits AR(1) once.
    assert metrics["errorsets.build_calls"]["value"] == 2688
    assert metrics["benchmark.fit_calls"]["value"] == 672


def test_wide_round_is_correct():
    result = bench_round("wide")
    assert (result["failed"], result["attempted"]) == (0, 1)
