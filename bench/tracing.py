"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the ``intervalcast`` modules
with wrappers, under the names their callers look them up by (for example
``intervalcast.pipeline.build_error_set``, which is what ``pipeline`` calls).
Each wrapper records a span (name, start, end, parent) in typed
arrays, so a round of hundreds of thousands of calls stays small in
memory, and bumps counters where the work happens. ``summary`` turns one
round's spans and counters into the per-layer metrics; a layer's self time is
its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import numpy as np

# Span names whose time counts as the pipeline's own command time.
COMMANDS = ("run_backtest", "run_tuning", "produce_forecast")
WRITES = ("write_backtest_outputs", "write_files")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter[str] = Counter()
        self.distinct: set[tuple] = set()
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (one round at a time)."""
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counts.clear()
        self.distinct.clear()

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn`` under ``name``."""

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(idx)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager for a span around the benchmark's own steps."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def counter(self, name: str, fn: Callable) -> Callable:
        """A wrapper that only counts calls (no span), for hot inner calls."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def install(self, ic) -> None:
        """Wrap the public functions of a freshly imported package ``ic``
        (a namespace with the ``ingest``, ``errorsets``, ``intervals``,
        ``scoring``, ``benchmark``, ``pipeline`` and ``cli`` modules)."""
        ingest, intervals, scoring = ic.ingest, ic.intervals, ic.scoring
        benchmark, pipeline, cli = ic.benchmark, ic.pipeline, ic.cli
        counts = self.counts

        def count(key: str) -> Callable:
            def bump(*_args, **_kwargs) -> None:
                counts[key] += 1
            return bump

        select_truth = self.wrap("select_truth", ingest.select_truth, before=count("select_truth"))
        ingest.select_truth = select_truth
        pipeline.select_truth = select_truth
        ingest.ForecastPanel.to_canonical_csv = self.wrap(
            "to_canonical_csv", ingest.ForecastPanel.to_canonical_csv,
            before=count("to_canonical_csv"),
        )
        for cls in (ingest.PanelTruthSelector, benchmark.QuarterlyTruthSelector):
            cls.__call__ = self.counter("truth_lookup", cls.__call__)

        def build_key(forecasts, truths, target, horizon, anchor_year, origin, window,
                      method=None, **_kw) -> None:
            counts["build"] += 1
            self.distinct.add(
                (type(truths).__name__, target, horizon, anchor_year, origin, method)
            )

        def insufficient(exc: Exception) -> None:
            if isinstance(exc, ic.errorsets.InsufficientHistoryError):
                counts["insufficient"] += 1

        pipeline.build_error_set = self.wrap(
            "build_error_set", pipeline.build_error_set, before=build_key, on_error=insufficient
        )

        def quantile_samples(samples, *_args, **_kwargs) -> None:
            counts["quantile"] += 1
            counts["quantile_samples"] += len(samples)

        intervals.empirical_quantile = self.wrap(
            "empirical_quantile", intervals.empirical_quantile, before=quantile_samples
        )
        pipeline.offsets_for = self.wrap("offsets_for", pipeline.offsets_for, before=count("offsets"))

        def merged(grid) -> None:
            if any(size > 1 for size in grid.blocks or ()):
                counts["pava_merged"] += 1

        pipeline.enforce_horizon_monotonicity = self.wrap(
            "pava", pipeline.enforce_horizon_monotonicity, before=count("pava"), after=merged
        )
        interval_score = self.counter("interval_score", scoring.interval_score)
        scoring.interval_score = interval_score
        pipeline.interval_score = interval_score
        pipeline.weighted_interval_score = self.wrap(
            "weighted_interval_score", pipeline.weighted_interval_score, before=count("wis")
        )
        pipeline.aggregate_report = self.wrap("aggregate_report", pipeline.aggregate_report)
        pipeline.benchmark_forecast = self.wrap(
            "benchmark_forecast", pipeline.benchmark_forecast, before=count("ar_forecast")
        )
        benchmark.fit_ar1 = self.counter("ar_fit", benchmark.fit_ar1)
        for name in COMMANDS + ("write_backtest_outputs",):
            setattr(pipeline, name, self.wrap(name, getattr(pipeline, name)))
        cli.cmd_report = self.wrap("cmd_report", cli.cmd_report)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since ``reset``."""
        names = np.frombuffer(self.name_id, dtype=np.uint16) if len(self.name_id) else np.zeros(0, np.uint16)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.zeros(0)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.zeros(0, np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child

        def total(name: str, values: np.ndarray = duration) -> float:
            nid = self._name_ids.get(name)
            return float(values[names == nid].sum()) if nid is not None else 0.0

        def self_of(*span_names: str) -> float:
            return sum(total(n, self_time) for n in span_names)

        c = self.counts
        build_calls = c["build"]
        return {
            "ingest.select_truth_calls": c["select_truth"],
            "ingest.select_truth_s": total("select_truth"),
            "ingest.canonical_csv_calls": c["to_canonical_csv"],
            "ingest.canonical_csv_s": total("to_canonical_csv"),
            "errorsets.build_calls": build_calls,
            "errorsets.build_self_s": self_of("build_error_set"),
            "errorsets.truth_lookups": c["truth_lookup"],
            "errorsets.insufficient": c["insufficient"],
            "errorsets.distinct_sets": len(self.distinct),
            "errorsets.build_yield": len(self.distinct) / build_calls if build_calls else 0.0,
            "quantile.calls": c["quantile"],
            "quantile.s": total("empirical_quantile"),
            "quantile.samples": c["quantile_samples"],
            "intervals.offsets_calls": c["offsets"],
            "intervals.pava_calls": c["pava"],
            "intervals.pava_s": total("pava"),
            "intervals.pava_merged": c["pava_merged"],
            "scoring.interval_score_calls": c["interval_score"],
            "scoring.wis_calls": c["wis"],
            "scoring.wis_s": total("weighted_interval_score"),
            "scoring.aggregate_s": total("aggregate_report"),
            "benchmark.forecast_calls": c["ar_forecast"],
            "benchmark.fit_calls": c["ar_fit"],
            "benchmark.forecast_s": total("benchmark_forecast"),
            "pipeline.backtest_s": total("run_backtest"),
            "pipeline.tune_s": total("run_tuning"),
            "pipeline.forecast_s": total("produce_forecast"),
            "pipeline.self_s": self_of(*COMMANDS),
            "pipeline.write_s": sum(total(n) for n in WRITES),
            "cli.report_s": total("cmd_report"),
        }

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as CSV: name,start,end,parent (row index)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]},{s!r},{e!r},{p}\n")
