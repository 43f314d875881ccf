"""One short round of the benchmark, untraced and traced.

The tracer wraps the package's functions by the names their callers use, so a
refactor that drops one of those names fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tune_round_is_correct(trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "tune", "--seed", "1",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
