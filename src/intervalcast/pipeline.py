"""Orchestration: tuning over the training span, hold-out backtesting, and
prospective forecast production.

At each origin the pipeline assembles an interval grid holding, for every
horizon, the most recent forecast at that horizon together with offsets
estimated from errors observable at the origin. The grid is corrected for
horizon monotonicity as a whole; only the horizons newly issued at that origin
are scored, so each forecast is scored exactly once.
"""

from __future__ import annotations

import io
import json
import csv
import math
import os
import sys
from bisect import insort
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from intervalcast import benchmark
from intervalcast.benchmark import (
    Ar1Fit,
    QuarterlySeries,
    QuarterlyTruthSelector,
    benchmark_forecast,
    quarter_cutoff,
)
from intervalcast.domain import (
    DEFAULT_LEVELS,
    HORIZONS,
    Horizon,
    ReleaseDate,
    Season,
    TargetId,
    horizon_of,
    validate_levels,
)
from intervalcast.errorsets import (
    ErrorMethod,
    ErrorSet,
    ForecastLookup,
    InsufficientHistoryError,
    TruthSelector,
    YearRow,
    build_error_set,
    year_error,
)
from intervalcast.ingest import (
    FallbackRule,
    ForecastPanel,
    PanelTruthSelector,
    TruthUnavailableError,
    select_truth,
)
from intervalcast.intervals import (
    GridCell,
    IntervalGrid,
    IntervalOffsets,
    enforce_horizon_monotonicity,  # noqa: F401  (looked up here by the benchmark's tracer)
    level_rows,
    offset_rows,
    offset_taus,
    offsets_for,  # noqa: F401  (likewise)
    pool_level_rows,
)
from intervalcast.quantile import InvalidErrorValueError, QuantileMethod, index_table, read_sorted
from intervalcast.scoring import (
    EvaluationReport,
    WisWeights,
    aggregate_report,
    audit_row,
    mean,
    score_parts,
    weighted_interval_score,  # noqa: F401  (likewise)
    wis_of_totals,
    write_audit,
)


@dataclass(frozen=True)
class RunConfig:
    data: str = ""
    quarterly_data: Optional[str] = None
    external_forecasts: Optional[str] = None
    out: str = "out"
    levels: tuple[float, ...] = DEFAULT_LEVELS
    error_method: ErrorMethod = ErrorMethod.ABSOLUTE
    quantile_method: QuantileMethod = QuantileMethod.LINEAR
    window: int = 11
    train_span: tuple[int, int] = (1990, 2012)
    holdout_span: tuple[int, int] = (2013, 2023)
    methods: tuple[str, ...] = ("imf",)
    exclude: tuple[tuple[str, int, int], ...] = ()
    truth_rule: FallbackRule = FallbackRule.LATEST_AVAILABLE
    eval_as_of: Optional[ReleaseDate] = None
    ar_min_obs: int = 20
    ar_window: Optional[int] = None
    generated_at: Optional[str] = None

    def __post_init__(self) -> None:
        for name, kind, optional in (
            ("truth_rule", FallbackRule, False), ("error_method", ErrorMethod, False),
            ("quantile_method", QuantileMethod, False), ("window", int, False),
            ("ar_min_obs", int, False), ("ar_window", int, True), ("eval_as_of", ReleaseDate, True),
        ):
            value = getattr(self, name)
            if not (isinstance(value, kind) and not isinstance(value, bool) or optional and value is None):
                raise ValueError(f"{name} must be {kind.__name__}{' or None' * optional}, got {value!r}")
        for name in ("train_span", "holdout_span"):
            span = getattr(self, name)
            if not (isinstance(span, tuple) and len(span) == 2
                    and all(isinstance(year, int) and not isinstance(year, bool) for year in span)):
                raise ValueError(f"{name} must be a pair of integer years, got {span!r}")
        validate_levels(self.levels)
        if self.window < 1:
            raise ValueError("window length must be >= 1")
        t0, t1 = self.train_span
        h0, h1 = self.holdout_span
        if t0 > t1 or h0 > h1:
            raise ValueError("spans must be ordered (first <= last)")
        if t1 >= h0:
            raise ValueError("training and holdout spans must be disjoint and ordered")
        for i, m in enumerate(self.methods):
            if m not in ("imf", "ar", "external"):
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} listed twice")


def parse_exclusions(tokens: Iterable[str]) -> tuple[tuple[str, int, int], ...]:
    """Parse exclusion tokens like 'JPN:2021-2023' or 'JPN:2021'."""
    out = []
    for token in tokens:
        country, _, span = token.partition(":") if isinstance(token, str) else ("", "", "")
        if not (country.strip() and span):
            raise ValueError(f"bad exclusion {token!r}: expected COUNTRY:FIRST-LAST")
        first, last = parse_span(span)
        if first > last:
            raise ValueError(f"bad exclusion {token!r}: first year after last")
        out.append((country.strip(), first, last))
    return tuple(out)


def parse_span(token: str) -> tuple[int, int]:
    first, _, last = token.partition("-")
    return (int(first), int(last or first))


def load_config(path: Optional[str] = None, **overrides: object) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides."""
    raw: dict[str, object] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # malformed JSON or text that is not UTF-8
                raise ValueError(f"config file {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a JSON object, not {type(raw).__name__}")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _config_value(key, value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config value for {key}: {exc}") from None
    return RunConfig(**kwargs)  # type: ignore[arg-type]


def _config_value(key: str, value: object) -> object:
    """The ``RunConfig`` value of one config key, from JSON or a flag."""
    if key in ("levels", "methods", "exclude") and isinstance(value, str):
        value = [v for v in value.split(",") if v]
    if key == "levels":
        return tuple(float(v) for v in value)  # type: ignore[union-attr]
    if key == "error_method":
        return value if isinstance(value, ErrorMethod) else ErrorMethod.parse(str(value))
    if key == "quantile_method":
        return value if isinstance(value, QuantileMethod) else QuantileMethod.parse(str(value))
    if key in ("train_span", "holdout_span"):
        return parse_span(value) if isinstance(value, str) else tuple(value)  # type: ignore[arg-type]
    if key == "methods":
        return tuple(value)  # type: ignore[arg-type]
    if key == "exclude":
        return parse_exclusions(value)  # type: ignore[arg-type]
    if key == "eval_as_of" and value is not None and not isinstance(value, ReleaseDate):
        return ReleaseDate.parse(value)  # type: ignore[arg-type]
    if key == "truth_rule":
        return FallbackRule(value)
    if key in ("window", "ar_min_obs") or (key == "ar_window" and value is not None):
        return int(value)  # type: ignore[arg-type]
    return value


def config_json(config: RunConfig) -> str:
    """``config`` as JSON that ``load_config`` reads back as an equal config:
    enums as values, exclusions as 'C:FIRST-LAST' and release dates as '2023F'."""
    raw = {f.name: getattr(config, f.name) for f in fields(config)}
    raw["exclude"] = [f"{country}:{first}-{last}" for country, first, last in config.exclude]
    return json.dumps(raw, indent=2, sort_keys=True,
                      default=lambda v: v.value if isinstance(v, Enum) else str(v)) + "\n"


def outstanding_cells(origin: ReleaseDate) -> dict[Horizon, tuple[ReleaseDate, int]]:
    """Most recent (forecast-origin, target-year) per horizon as of ``origin``,
    in horizon order: each from the latest release of its season up to ``origin``."""
    cells: dict[Horizon, tuple[ReleaseDate, int]] = {}
    for horizon in HORIZONS:
        season, offset = horizon.value  # one enum read for both fields, once per grid
        issued = ReleaseDate(origin.year - (season is Season.FALL and origin.season is Season.SPRING), season)
        cells[horizon] = (issued, issued.year + offset)
    return cells


def fresh_horizons(origin: ReleaseDate) -> tuple[Horizon, ...]:
    """Horizons newly issued at ``origin`` (the origin's own season)."""
    return tuple(h for h in HORIZONS if h.season is origin.season)


class ErrorHistory:
    """Error sets of one forecast source, each built once.

    Each (target, horizon, anchor year, origin, error method) set is built at
    ``max_window``, the longest window any caller asks for; a caller that
    needs a shorter window w reads the set's first w entries, exactly what a
    build at window w returns. A set infeasible at ``max_window`` raises
    ``InsufficientHistoryError`` on every request. Sets are walked over rows
    filled on first use: settled ``year -> (first release, error)`` per (target,
    horizon, method), ``year -> point`` per (target, horizon), and, for years
    not yet settled, ``year -> truth`` per (target, origin)."""

    def __init__(self, forecasts: ForecastLookup, truths: TruthSelector, max_window: int) -> None:
        self.forecasts = forecasts
        self.max_window = max_window
        self._truth_source = truths
        self._points: dict[tuple[TargetId, Horizon], YearRow] = {}
        self._settled: dict[tuple[TargetId, Horizon, ErrorMethod], YearRow] = {}
        self._truths: dict[tuple[TargetId, ReleaseDate], YearRow] = {}
        self._sets: dict[tuple, ErrorSet | InsufficientHistoryError] = {}

    def error_set(
        self,
        target: TargetId,
        horizon: Horizon,
        anchor_year: int,
        origin: ReleaseDate,
        method: ErrorMethod,
    ) -> ErrorSet:
        key = (target, horizon, anchor_year, origin, method)
        full = self._sets.get(key)
        if full is None:
            forecasts, truths = self.forecasts, self._truth_source
            points = self._points.setdefault((target, horizon), YearRow(
                lambda year: forecasts(target, horizon.origin_for(year), year)
            ))
            settled = self._settled.setdefault((target, horizon, method), YearRow(
                lambda year: _settled_entry(truths.settled(target, year), points, year, method)
            ))
            truth_row = self._truths.setdefault(
                (target, origin), YearRow(lambda year: truths(target, year, origin))
            )
            try:
                full = build_error_set(
                    points, truth_row, target, horizon, anchor_year=anchor_year,
                    origin=origin, window=self.max_window, method=method, settled=settled,
                )
            except InsufficientHistoryError as exc:
                full = exc
            self._sets[key] = full
        if isinstance(full, InsufficientHistoryError):
            raise full.with_traceback(None)
        return full


def _settled_entry(found, points: YearRow, year: int, method: ErrorMethod) -> tuple[int, Optional[float]]:
    """A settled row's ``(first release ordinal, error)``; None is never settled."""
    if found is None:
        return sys.maxsize, None
    return found[0].ordinal, year_error(found[1], points, year, method)


def build_grid(
    history: ErrorHistory,
    target: TargetId,
    origin: ReleaseDate,
    config: RunConfig,
) -> tuple[Optional[IntervalGrid], list[str]]:
    """Assemble the pooled interval grid at one origin; gaps are reported, not
    fatal. Offsets are read and pooled as level rows, then built once."""
    found: list[tuple[Horizon, float, int, ReleaseDate, ErrorSet]] = []
    gaps: list[str] = []
    # ``outstanding_cells`` lists the horizons in order, as pooling needs.
    for horizon, (forecast_origin, target_year) in outstanding_cells(origin).items():
        point = history.forecasts(target, forecast_origin, target_year)
        if point is None:
            gaps.append(
                f"{target.country}/{target.variable} {origin}: no {horizon.label} "
                f"forecast for {target_year}"
            )
            continue
        try:
            errs = history.error_set(target, horizon, target_year, origin, config.error_method)
        except InsufficientHistoryError as exc:
            gaps.append(f"{target.country}/{target.variable} {origin} {horizon.label}: {exc}")
            continue
        found.append((horizon, point, target_year, forecast_origin, errs))
    if not found:
        return None, gaps
    lowers, uppers = zip(*(level_rows(f[-1], config.levels, config.quantile_method) for f in found))
    blocks: tuple[int, ...] = (1,)
    if len(found) > 1:  # a lone cell keeps its offsets as read
        lowers, uppers, blocks = pool_level_rows(lowers, uppers)
    cells = {
        horizon: GridCell(
            point=point,
            target_year=target_year,
            forecast_origin=forecast_origin,
            offsets=dict(zip(config.levels, map(IntervalOffsets, lower, upper))),
            source_years=errs.source_years,
            skipped_years=errs.skipped_years,
        )
        for (horizon, point, target_year, forecast_origin, errs), lower, upper
        in zip(found, lowers, uppers)
    }
    return IntervalGrid(target=target, origin=origin, cells=cells, blocks=blocks), gaps


def _ar_lookup(
    series_by_target: dict[TargetId, QuarterlySeries], config: RunConfig
) -> ForecastLookup:
    """AR(1) forecasts; one fit per (target, origin) serves both target years."""
    fits: dict[tuple[TargetId, ReleaseDate], Ar1Fit | ValueError] = {}
    cache: dict[tuple[TargetId, ReleaseDate, int], Optional[float]] = {}

    def lookup(target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        key = (target, origin, target_year)
        if key not in cache:
            series = series_by_target.get(target)
            value: Optional[float] = None
            if series is not None:
                fit = fits.get((target, origin))
                if fit is None:
                    try:
                        fit = benchmark.fit_ar1(series, quarter_cutoff(origin),
                                                min_obs=config.ar_min_obs, window=config.ar_window)
                    except ValueError as exc:
                        fit = exc
                    fits[(target, origin)] = fit
                try:
                    value = benchmark_forecast(
                        series, origin, horizon_of(origin, target_year),
                        min_obs=config.ar_min_obs, window=config.ar_window, fit=fit,
                    )
                except ValueError:  # InsufficientQuarterlyHistoryError included
                    value = None
            cache[key] = value
        return cache[key]

    return lookup


@dataclass
class MethodData:
    """Forecast source and error-history truth source for one method label."""

    label: str
    forecasts: ForecastLookup
    error_truths: TruthSelector


def _method_data(
    config: RunConfig,
    panel: ForecastPanel,
    quarterly: Optional[dict[TargetId, QuarterlySeries]],
    external: Optional[ForecastPanel],
) -> list[MethodData]:
    panel_truths = PanelTruthSelector(panel, config.truth_rule, mode="construction")
    out: list[MethodData] = []
    for label in config.methods:
        if label == "imf":
            out.append(MethodData(label, panel.forecast, panel_truths))
        elif label == "ar":
            if quarterly is None:
                raise ValueError("method 'ar' requires quarterly data")
            out.append(
                MethodData(label, _ar_lookup(quarterly, config), QuarterlyTruthSelector(quarterly))
            )
        elif label == "external":
            if external is None:
                raise ValueError("method 'external' requires an external forecast file")
            out.append(MethodData(label, external.forecast, panel_truths))
    return out


def _grids_of(
    config: RunConfig, panel: ForecastPanel, method: MethodData, target: TargetId
) -> Callable[[ReleaseDate], tuple[Optional[IntervalGrid], tuple[str, ...]]]:
    """``origin -> (grid or None, gaps)`` for one method and target. The panel
    keeps IMF grids, which depend only on it and five config fields; other
    sources read inputs it lacks. One error history serves a target's origins."""
    key = (config.truth_rule, config.window, config.error_method, config.quantile_method, config.levels)
    grids = panel._grids.setdefault(key, {}) if method.label == "imf" else {}
    history: Optional[ErrorHistory] = None

    def grid_at(origin: ReleaseDate) -> tuple[Optional[IntervalGrid], tuple[str, ...]]:
        nonlocal history
        found = grids.get((target, origin))
        if found is None:
            history = history or ErrorHistory(method.forecasts, method.error_truths, config.window)
            grid, gaps = build_grid(history, target, origin, config)
            found = grids[(target, origin)] = (grid, tuple(gaps))
        return found

    return grid_at


def _eval_as_of(config: RunConfig, panel: ForecastPanel) -> ReleaseDate:
    if config.eval_as_of is not None:
        return config.eval_as_of
    latest = panel.max_vintage()
    if latest is None:
        raise ValueError("panel has no realization vintages")
    return latest


@dataclass
class BacktestResult:
    config: RunConfig
    report: EvaluationReport
    grids: list[IntervalGrid]
    audit: list[dict[str, object]]
    gaps: list[str]


def run_backtest(
    config: RunConfig,
    panel: ForecastPanel,
    quarterly: Optional[dict[TargetId, QuarterlySeries]] = None,
    external: Optional[ForecastPanel] = None,
) -> BacktestResult:
    """Score every forecast with a target year in the holdout span.

    Iterates over origins, builds and corrects each origin's grid, scores the
    freshly issued horizons against evaluation truths, and aggregates with the
    configured exclusions.
    """
    h0, h1 = config.holdout_span
    as_of = _eval_as_of(config, panel)
    weights = WisWeights(config.levels)
    grids: list[IntervalGrid] = []
    audit: list[dict[str, object]] = []
    gaps: list[str] = []
    origins = [
        ReleaseDate(year, season)
        for year in range(h0 - 1, h1 + 1)
        for season in (Season.SPRING, Season.FALL)
    ]
    for method in _method_data(config, panel, quarterly, external):
        for target in panel.targets:
            grid_at = _grids_of(config, panel, method, target)
            for origin in origins:
                grid, grid_gaps = grid_at(origin)
                gaps.extend(grid_gaps)
                if grid is None:
                    continue
                grids.append(grid)
                for horizon in fresh_horizons(origin):
                    cell = grid.cells.get(horizon)
                    if cell is None:
                        continue
                    if not (h0 <= cell.target_year <= h1):
                        continue
                    try:
                        outcome = select_truth(
                            panel, target, cell.target_year, as_of,
                            config.truth_rule, mode="evaluation",
                        )
                    except TruthUnavailableError as exc:
                        gaps.append(str(exc))
                        continue
                    audit.append(audit_row(grid, horizon, method.label, outcome, weights))
    report = evaluation_report(audit, config)
    return BacktestResult(config=config, report=report, grids=grids, audit=audit, gaps=gaps)


def evaluation_report(rows: Iterable[dict], config: RunConfig) -> EvaluationReport:
    """The backtest report of audit ``rows``, with the run's levels and exclusions."""
    return aggregate_report(rows, config.levels, exclusions=config.exclude)


@dataclass
class TuningRow:
    window: int
    error_method: str
    quantile_method: str
    variable: str
    horizon: str
    mean_wis: Optional[float]
    coverage: dict[float, float]
    n: int
    feasible: bool


@dataclass
class TuningReport:
    levels: tuple[float, ...]
    rows: list[TuningRow] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["window", "error_method", "quantile_method", "variable", "horizon",
                         "mean_wis", "n", "feasible", *(f"coverage_{tau}" for tau in self.levels)])
        for r in self.rows:
            writer.writerow([
                r.window, r.error_method, r.quantile_method, r.variable, r.horizon,
                "" if r.mean_wis is None else format(r.mean_wis, ".10g"), r.n, int(r.feasible),
                *("" if tau not in r.coverage else format(r.coverage[tau], ".10g") for tau in self.levels),
            ])
        return buf.getvalue()

    def to_json(self) -> str:
        rows = [
            {**asdict(r), "coverage": {str(tau): c for tau, c in sorted(r.coverage.items())}}
            for r in self.rows
        ]
        return json.dumps({"levels": list(self.levels), "rows": rows}, indent=2, sort_keys=True) + "\n"


def run_tuning(
    config: RunConfig,
    panel: ForecastPanel,
    grid: Sequence[tuple[int, ErrorMethod, QuantileMethod]],
) -> TuningReport:
    """Evaluate tuning-parameter combinations on the training span only.

    The panel is restricted so that no hold-out forecasts or vintages are
    visible. Within each (variable, horizon), scored years start once every
    requested window length is feasible, keeping cells comparable; since
    feasibility is monotone in the window, that is feasibility at the largest.
    A scored year's errors, taken once at that window, go newest first into
    one sorted list; each window w of an (error method, quantile method) group
    reads its levels from the sorted first w, the set a build at w holds.
    """
    if not grid:
        raise ValueError("tuning grid must be nonempty")
    groups: dict[tuple[ErrorMethod, QuantileMethod], list[int]] = {}
    for window, emethod, qmethod in grid:
        windows = groups.setdefault((emethod, qmethod), [])
        if window < 1 or window in windows:
            problem = "must be >= 1" if window < 1 else f"listed twice with {emethod.value}, {qmethod.value}"
            raise ValueError(f"tuning window {window} {problem}")
        windows.append(window)
    t0, t1 = config.train_span
    cutoff = ReleaseDate(t1 + 1, Season.FALL)
    view = panel.until_vintage(cutoff, t1)
    truths = PanelTruthSelector(view, config.truth_rule, mode="construction")
    history = ErrorHistory(view.forecast, truths, max(w for w, _, _ in grid))
    variables = view.variables()
    # Scorable (target, year, point, outcome) per (variable, horizon) cell.
    scorable: dict[tuple[str, Horizon], list[tuple[TargetId, int, float, float]]] = {
        (variable, horizon): [] for variable in variables for horizon in HORIZONS
    }
    for target in view.targets:
        for year in range(t0, t1 + 1):
            try:
                outcome = select_truth(
                    view, target, year, cutoff, config.truth_rule, mode="evaluation"
                )
            except TruthUnavailableError:
                continue
            for horizon in HORIZONS:
                point = view.forecast(target, horizon.origin_for(year), year)
                if point is not None:
                    scorable[(target.variable, horizon)].append((target, year, point, outcome))
    levels, weights = config.levels, WisWeights(config.levels)
    rows: dict[tuple[int, ErrorMethod, QuantileMethod, str, Horizon], TuningRow] = {}
    for (emethod, qmethod), windows in groups.items():
        windows = sorted(windows)
        taus = offset_taus(levels, emethod)
        tables = [index_table(w, taus, qmethod) for w in windows]
        for (variable, horizon), observations in scorable.items():
            # Per window: each scored year's WIS, and the hits at each level.
            wis: list[list[float]] = [[] for _ in windows]
            hits: list[list[int]] = [[0] * len(levels) for _ in windows]
            for target, year, point, outcome in observations:
                try:
                    errors = history.error_set(
                        target, horizon, year, horizon.origin_for(year), emethod
                    ).errors
                except InsufficientHistoryError:
                    continue
                if not all(map(math.isfinite, errors)):
                    raise InvalidErrorValueError("invalid error value: samples must be finite")
                xs: list[float] = []
                for w, table, wis_w, hits_w in zip(windows, tables, wis, hits):
                    for error in errors[len(xs):w]:
                        insort(xs, error)
                    totals = []
                    for k, (lo, up, tau) in enumerate(zip(*offset_rows(read_sorted(xs, table), emethod), levels)):
                        if lo > up:
                            raise ValueError(f"lower offset {lo} exceeds upper {up}")
                        lower, upper = point + lo, point + up
                        dispersion, over, under = score_parts(lower, upper, outcome, tau)
                        totals.append(dispersion + over + under)
                        hits_w[k] += lower <= outcome <= upper
                    wis_w.append(wis_of_totals(totals, weights))
            for w, wis_w, hits_w in zip(windows, wis, hits):
                n = len(wis_w)
                # The backtest's formulas: ``mean`` and a hit count over n.
                rows[(w, emethod, qmethod, variable, horizon)] = TuningRow(
                    window=w, error_method=emethod.value, quantile_method=qmethod.value,
                    variable=variable, horizon=horizon.label,
                    mean_wis=mean(wis_w) if n else None,
                    coverage={tau: hit / n for tau, hit in zip(levels, hits_w)} if n else {},
                    n=n, feasible=n > 0,
                )
    return TuningReport(levels=levels, rows=[
        rows[(w, emethod, qmethod, variable, horizon)]
        for w, emethod, qmethod in grid for variable in variables for horizon in HORIZONS
    ])


FORECAST_FILE_HEADER = [
    "country", "variable", "origin_year", "origin_season", "target_year",
    "level", "lower", "upper", "point", "method", "generated_at",
]


def produce_forecast(
    config: RunConfig,
    panel: ForecastPanel,
    origin: ReleaseDate,
    quarterly: Optional[dict[TargetId, QuarterlySeries]] = None,
    external: Optional[ForecastPanel] = None,
) -> tuple[str, list[str]]:
    """Interval file for one origin: one row per target, horizon, and level.

    Returns the CSV text and the list of gaps (cells that could not be
    produced). Deterministic given identical inputs: the ``generated_at`` tag
    defaults to the panel's ``content_tag``, a digest computed once per panel.
    """
    tag = config.generated_at or panel.content_tag
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FORECAST_FILE_HEADER)
    gaps: list[str] = []
    for method in _method_data(config, panel, quarterly, external):
        for target in panel.targets:
            grid, grid_gaps = _grids_of(config, panel, method, target)(origin)
            gaps.extend(grid_gaps)
            if grid is None:
                continue
            for horizon in grid.horizons:
                cell = grid.cells[horizon]
                for tau in config.levels:
                    pi = cell.interval(tau)
                    writer.writerow([
                        target.country, target.variable, cell.forecast_origin.year,
                        cell.forecast_origin.season.value, cell.target_year,
                        *(format(x, ".10g") for x in (tau, pi.lower, pi.upper, pi.center)),
                        method.label, tag,
                    ])
    return buf.getvalue(), gaps


def write_backtest_outputs(result: BacktestResult, out_dir: str) -> list[str]:
    """Write report.csv / report.json / audit.json / gaps.json / run.json;
    returns paths.

    ``audit.json`` is streamed one row at a time by ``write_audit``, with the
    bytes of ``json.dumps(result.audit, indent=2, sort_keys=True) + "\\n"``.
    ``run.json`` holds the run's config (``config_json``), so ``audit.json``
    and ``run.json`` together rebuild the report."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, write in (
        ("report.csv", lambda fh: fh.write(result.report.to_csv())),
        ("report.json", lambda fh: fh.write(result.report.to_json())),
        ("audit.json", lambda fh: write_audit(result.audit, fh)),
        ("gaps.json", lambda fh: fh.write(json.dumps(sorted(result.gaps), indent=2) + "\n")),
        ("run.json", lambda fh: fh.write(config_json(result.config))),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        paths.append(path)
    return paths
