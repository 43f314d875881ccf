"""One short round of each benchmark workload: ``tune`` and ``paper``
untraced and traced, ``wide`` untraced.

The tracer wraps the package's functions by the names their callers use, so a
refactor that drops one of those names fails here. The ``paper`` and ``wide``
rounds run the benchmark's independent checks over a full backtest, including
``wide``'s 10 MB ``audit.json``.

Each untraced round also compares the SHA-256 of its round-0 output files
(which ``bench/run.py`` keeps in ``.bench_work/<workload>/round0/``) with the
table in ``bench_seed1_sha256.json``, so a change to any gated byte fails
tier-1. The table holds every round-0 file: all 28 of ``paper`` (its AR(1)
values included, which the package fits in pure Python with no BLAS kernel
chosen at run time), both ``tune`` files and all five ``wide`` files. The
host inputs that remain are libm's ``exp``, which makes the cpi levels
``bench/gen.py`` writes, and libm's ``log``, which turns them into growth
rates in ``ingest._log_growth``. The CPython minor version is not one: the
AR(1) fit does its own sums and every float sum that feeds an output adds
left to right (see the README's ``benchmark`` line), so the table holds on
3.10 to 3.13. CI runs these rounds on 3.11 and on 3.13.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
ROUND0_SHA256 = json.loads((Path(__file__).parent / "bench_seed1_sha256.json").read_text(encoding="utf-8"))


def bench_round(workload: str, trace: str = "0") -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
    if trace == "0":
        round0 = ROOT / ".bench_work" / workload / "round0"
        changed = sorted(name for name, digest in ROUND0_SHA256[workload].items()
                         if hashlib.sha256((round0 / name).read_bytes()).hexdigest() != digest)
        assert not changed, f"{workload} round-0 files differ from the committed bytes: {changed}"
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
