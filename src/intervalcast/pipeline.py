"""Orchestration: tuning over the training span, hold-out backtesting, and
prospective forecast production.

At each origin the pipeline assembles an interval grid holding, for every
horizon, the most recent forecast at that horizon together with offsets
estimated from errors observable at the origin. The grid is corrected for
horizon monotonicity as a whole; only the horizons newly issued at that origin
are scored, so each forecast is scored exactly once.
"""

from __future__ import annotations

import hashlib
import io
import json
import csv
import os
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Optional, Sequence

from intervalcast.benchmark import (
    InsufficientQuarterlyHistoryError,
    QuarterlySeries,
    QuarterlyTruthSelector,
    benchmark_forecast,
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
)
from intervalcast.ingest import (
    ForecastPanel,
    PanelTruthSelector,
    TruthRule,
    TruthUnavailableError,
    select_truth,
)
from intervalcast.intervals import (
    GridCell,
    IntervalGrid,
    enforce_horizon_monotonicity,
    interval_from_offsets,
    offsets_for,
)
from intervalcast.quantile import QuantileMethod
from intervalcast.scoring import (
    EvaluationReport,
    ScoredForecast,
    WisWeights,
    aggregate_report,
    interval_score,
    weighted_interval_score,
    wis_from_scores,
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
    truth_rule: TruthRule = TruthRule()
    eval_as_of: Optional[ReleaseDate] = None
    ar_min_obs: int = 20
    ar_window: Optional[int] = None
    generated_at: Optional[str] = None

    def __post_init__(self) -> None:
        validate_levels(self.levels)
        if self.window < 1:
            raise ValueError("window length must be >= 1")
        t0, t1 = self.train_span
        h0, h1 = self.holdout_span
        if t0 > t1 or h0 > h1:
            raise ValueError("spans must be ordered (first <= last)")
        if t1 >= h0:
            raise ValueError("training and holdout spans must be disjoint and ordered")
        for m in self.methods:
            if m not in ("imf", "ar", "external"):
                raise ValueError(f"unknown method {m!r}")


def parse_exclusions(tokens: Iterable[str]) -> tuple[tuple[str, int, int], ...]:
    """Parse exclusion tokens like 'JPN:2021-2023' or 'JPN:2021'."""
    out = []
    for token in tokens:
        country, _, span = token.partition(":")
        if not span:
            raise ValueError(f"bad exclusion {token!r}: expected COUNTRY:FIRST-LAST")
        first, _, last = span.partition("-")
        out.append((country.strip(), int(first), int(last or first)))
    return tuple(out)


def parse_span(token: str) -> tuple[int, int]:
    first, _, last = token.partition("-")
    return (int(first), int(last or first))


def load_config(path: Optional[str] = None, **overrides: object) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides."""
    raw: dict[str, object] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            raw.update(json.load(fh))
    raw.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        if key == "levels":
            kwargs[key] = tuple(float(v) for v in value)  # type: ignore[union-attr]
        elif key == "error_method":
            kwargs[key] = value if isinstance(value, ErrorMethod) else ErrorMethod.parse(str(value))
        elif key == "quantile_method":
            kwargs[key] = (
                value if isinstance(value, QuantileMethod) else QuantileMethod.parse(str(value))
            )
        elif key in ("train_span", "holdout_span"):
            kwargs[key] = parse_span(value) if isinstance(value, str) else tuple(value)  # type: ignore[arg-type]
        elif key == "methods":
            kwargs[key] = tuple(value) if not isinstance(value, str) else tuple(value.split(","))
        elif key == "exclude":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            kwargs[key] = parse_exclusions(value)  # type: ignore[arg-type]
        elif key == "eval_as_of":
            if isinstance(value, ReleaseDate) or value is None:
                kwargs[key] = value
            else:
                token = str(value)
                kwargs[key] = ReleaseDate(int(token[:-1]), Season.parse(token[-1]))
        elif key == "window":
            kwargs[key] = int(value)  # type: ignore[arg-type]
        else:
            kwargs[key] = value
    return RunConfig(**kwargs)  # type: ignore[arg-type]


def outstanding_cells(origin: ReleaseDate) -> dict[Horizon, tuple[ReleaseDate, int]]:
    """Most recent (forecast-origin, target-year) per horizon as of ``origin``."""
    y = origin.year
    if origin.season is Season.FALL:
        return {
            Horizon.FALL_CURRENT: (ReleaseDate(y, Season.FALL), y),
            Horizon.SPRING_CURRENT: (ReleaseDate(y, Season.SPRING), y),
            Horizon.FALL_NEXT: (ReleaseDate(y, Season.FALL), y + 1),
            Horizon.SPRING_NEXT: (ReleaseDate(y, Season.SPRING), y + 1),
        }
    return {
        Horizon.FALL_CURRENT: (ReleaseDate(y - 1, Season.FALL), y - 1),
        Horizon.SPRING_CURRENT: (ReleaseDate(y, Season.SPRING), y),
        Horizon.FALL_NEXT: (ReleaseDate(y - 1, Season.FALL), y),
        Horizon.SPRING_NEXT: (ReleaseDate(y, Season.SPRING), y + 1),
    }


def fresh_horizons(origin: ReleaseDate) -> tuple[Horizon, ...]:
    """Horizons newly issued at ``origin`` (the origin's own season)."""
    if origin.season is Season.FALL:
        return (Horizon.FALL_CURRENT, Horizon.FALL_NEXT)
    return (Horizon.SPRING_CURRENT, Horizon.SPRING_NEXT)


class ErrorHistory:
    """Error sets of one forecast source, each built once.

    Each (target, horizon, anchor year, origin, error method) set is built at
    ``max_window``, the longest window any caller asks for; a shorter window w
    is served as its first w entries, exactly what a build at window w
    returns. A set infeasible at ``max_window`` raises
    ``InsufficientHistoryError`` for every window. Sets are walked over year
    rows filled on first use: one ``year -> point`` row per (target, horizon)
    and one ``year -> truth`` row per (target, origin).
    """

    def __init__(self, forecasts: ForecastLookup, truths: TruthSelector, max_window: int) -> None:
        self.forecasts = forecasts
        self.max_window = max_window
        self._truth_source = truths
        self._points: dict[tuple[TargetId, Horizon], YearRow] = {}
        self._truths: dict[tuple[TargetId, ReleaseDate], YearRow] = {}
        self._sets: dict[tuple, ErrorSet | InsufficientHistoryError] = {}

    def error_set(
        self,
        target: TargetId,
        horizon: Horizon,
        anchor_year: int,
        origin: ReleaseDate,
        method: ErrorMethod,
        window: int,
    ) -> ErrorSet:
        if not 1 <= window <= self.max_window:
            raise ValueError(f"window length must be in 1..{self.max_window}, got {window}")
        key = (target, horizon, anchor_year, origin, method)
        full = self._sets.get(key)
        if full is None:
            forecasts, truths = self.forecasts, self._truth_source
            points = self._points.setdefault((target, horizon), YearRow(
                lambda year: forecasts(target, horizon.origin_for(year), year)
            ))
            truth_row = self._truths.setdefault(
                (target, origin), YearRow(lambda year: truths(target, year, origin))
            )
            try:
                full = build_error_set(
                    points, truth_row, target, horizon, anchor_year=anchor_year,
                    origin=origin, window=self.max_window, method=method,
                )
            except InsufficientHistoryError as exc:
                full = exc
            self._sets[key] = full
        if isinstance(full, InsufficientHistoryError):
            raise full.with_traceback(None)
        if window == self.max_window:
            return full
        oldest = full.source_years[window - 1]
        return replace(
            full,
            errors=full.errors[:window],
            source_years=full.source_years[:window],
            skipped_years=tuple(y for y in full.skipped_years if y > oldest),
        )


def build_grid(
    history: ErrorHistory,
    target: TargetId,
    origin: ReleaseDate,
    config: RunConfig,
) -> tuple[Optional[IntervalGrid], list[str]]:
    """Assemble the interval grid at one origin; gaps are reported, not fatal."""
    cells: dict[Horizon, GridCell] = {}
    gaps: list[str] = []
    for horizon, (forecast_origin, target_year) in outstanding_cells(origin).items():
        point = history.forecasts(target, forecast_origin, target_year)
        if point is None:
            gaps.append(
                f"{target.country}/{target.variable} {origin}: no {horizon.label} "
                f"forecast for {target_year}"
            )
            continue
        try:
            errs = history.error_set(
                target, horizon, target_year, origin, config.error_method, config.window
            )
        except InsufficientHistoryError as exc:
            gaps.append(f"{target.country}/{target.variable} {origin} {horizon.label}: {exc}")
            continue
        cells[horizon] = GridCell(
            point=point,
            target_year=target_year,
            forecast_origin=forecast_origin,
            offsets=offsets_for(errs, config.levels, config.quantile_method),
            source_years=errs.source_years,
            skipped_years=errs.skipped_years,
        )
    if not cells:
        return None, gaps
    grid = IntervalGrid(target=target, origin=origin, cells=cells)
    return enforce_horizon_monotonicity(grid), gaps


def _ar_lookup(
    series_by_target: dict[TargetId, QuarterlySeries], config: RunConfig
) -> ForecastLookup:
    cache: dict[tuple[TargetId, ReleaseDate, int], Optional[float]] = {}

    def lookup(target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        key = (target, origin, target_year)
        if key not in cache:
            series = series_by_target.get(target)
            value: Optional[float] = None
            if series is not None:
                try:
                    value = benchmark_forecast(
                        series,
                        origin,
                        horizon_of(origin, target_year),
                        min_obs=config.ar_min_obs,
                        window=config.ar_window,
                    )
                except (InsufficientQuarterlyHistoryError, ValueError):
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


def _targets(panel: ForecastPanel) -> list[TargetId]:
    return sorted(
        {t for (t, _, _) in panel.forecasts}, key=lambda t: (t.country, t.variable)
    )


def _eval_as_of(config: RunConfig, panel: ForecastPanel) -> ReleaseDate:
    if config.eval_as_of is not None:
        return config.eval_as_of
    latest = panel.max_vintage()
    if latest is None:
        raise ValueError("panel has no realization vintages")
    return latest


@dataclass
class BacktestResult:
    report: EvaluationReport
    scored: list[ScoredForecast]
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
    scored: list[ScoredForecast] = []
    grids: list[IntervalGrid] = []
    audit: list[dict[str, object]] = []
    gaps: list[str] = []
    origins = [
        ReleaseDate(year, season)
        for year in range(h0 - 1, h1 + 1)
        for season in (Season.SPRING, Season.FALL)
    ]
    for method in _method_data(config, panel, quarterly, external):
        for target in _targets(panel):
            # Sets and truths are keyed by target, so a provider per target
            # loses no reuse and holds one target's sets at a time.
            history = ErrorHistory(method.forecasts, method.error_truths, config.window)
            for origin in origins:
                grid, grid_gaps = build_grid(history, target, origin, config)
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
                    intervals = {tau: cell.interval(tau) for tau in config.levels}
                    scores = {
                        tau: interval_score(pi.lower, pi.upper, outcome, tau)
                        for tau, pi in intervals.items()
                    }
                    wis = wis_from_scores(scores, weights)
                    sf = ScoredForecast(
                        target=target,
                        horizon=horizon,
                        origin=cell.forecast_origin,
                        target_year=cell.target_year,
                        method=method.label,
                        outcome=outcome,
                        intervals=intervals,
                        scores=scores,
                        wis=wis,
                    )
                    scored.append(sf)
                    audit.append(_audit_row(sf, grid, cell))
    report = aggregate_report(scored, config.levels, exclusions=config.exclude)
    return BacktestResult(report=report, scored=scored, grids=grids, audit=audit, gaps=gaps)


def _audit_row(
    sf: ScoredForecast, grid: IntervalGrid, cell: GridCell
) -> dict[str, object]:
    return {
        "country": sf.target.country,
        "variable": sf.target.variable,
        "method": sf.method,
        "horizon": sf.horizon.label,
        "grid_origin": str(grid.origin),
        "forecast_origin": str(cell.forecast_origin),
        "target_year": sf.target_year,
        "point": cell.point,
        "outcome": sf.outcome,
        "source_years": list(cell.source_years),
        "skipped_years": list(cell.skipped_years),
        "pava_blocks": list(grid.blocks or ()),
        "intervals": {
            str(tau): {
                "lower": pi.lower,
                "upper": pi.upper,
                "degenerate": pi.degenerate,
                "excludes_center": pi.excludes_center,
            }
            for tau, pi in sorted(sf.intervals.items())
        },
        "scores": {
            str(tau): {
                "total": sc.total,
                "dispersion": sc.dispersion,
                "overprediction": sc.overprediction,
                "underprediction": sc.underprediction,
            }
            for tau, sc in sorted(sf.scores.items())
        },
        "wis": sf.wis,
    }


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
        header = ["window", "error_method", "quantile_method", "variable", "horizon",
                  "mean_wis", "n", "feasible"]
        header += [f"coverage_{tau}" for tau in self.levels]
        writer.writerow(header)
        for row in self.rows:
            line = [
                row.window, row.error_method, row.quantile_method, row.variable,
                row.horizon,
                "" if row.mean_wis is None else format(row.mean_wis, ".10g"),
                row.n, int(row.feasible),
            ]
            line += [
                "" if tau not in row.coverage else format(row.coverage[tau], ".10g")
                for tau in self.levels
            ]
            writer.writerow(line)
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "levels": list(self.levels),
            "rows": [
                {
                    "window": r.window,
                    "error_method": r.error_method,
                    "quantile_method": r.quantile_method,
                    "variable": r.variable,
                    "horizon": r.horizon,
                    "mean_wis": r.mean_wis,
                    "coverage": {str(tau): c for tau, c in sorted(r.coverage.items())},
                    "n": r.n,
                    "feasible": r.feasible,
                }
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def cell(
        self, window: int, error_method: str, quantile_method: str, variable: str, horizon: str
    ) -> Optional[TuningRow]:
        for row in self.rows:
            if (
                row.window == window
                and row.error_method == error_method
                and row.quantile_method == quantile_method
                and row.variable == variable
                and row.horizon == horizon
            ):
                return row
        return None


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
    """
    if not grid:
        raise ValueError("tuning grid must be nonempty")
    t0, t1 = config.train_span
    cutoff = ReleaseDate(t1 + 1, Season.FALL)
    view = panel.until_vintage(cutoff)
    view.forecasts = {
        key: value for key, value in view.forecasts.items() if key[1].year <= t1
    }
    truths = PanelTruthSelector(view, config.truth_rule, mode="construction")
    history = ErrorHistory(view.forecast, truths, max(w for w, _, _ in grid))
    targets = _targets(view)
    variables = sorted({t.variable for t in targets})
    # Scorable (target, year, point, outcome) per (variable, horizon) cell.
    scorable: dict[tuple[str, Horizon], list[tuple[TargetId, int, float, float]]] = {
        (variable, horizon): [] for variable in variables for horizon in HORIZONS
    }
    for target in targets:
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
    report = TuningReport(levels=config.levels)
    for window, emethod, qmethod in grid:
        for variable in variables:
            for horizon in HORIZONS:
                observations: list[tuple[dict[float, object], float]] = []
                for target, year, point, outcome in scorable[(variable, horizon)]:
                    try:
                        errs = history.error_set(
                            target, horizon, year, horizon.origin_for(year), emethod, window
                        )
                    except InsufficientHistoryError:
                        continue
                    offsets = offsets_for(errs, config.levels, qmethod)
                    intervals = {
                        tau: interval_from_offsets(point, tau, offs)
                        for tau, offs in offsets.items()
                    }
                    observations.append((intervals, outcome))
                report.rows.append(
                    _tuning_row(window, emethod, qmethod, variable, horizon,
                                observations, config.levels)
                )
    return report


def _tuning_row(
    window: int,
    emethod: ErrorMethod,
    qmethod: QuantileMethod,
    variable: str,
    horizon: Horizon,
    observations: list[tuple[dict[float, object], float]],
    levels: tuple[float, ...],
) -> TuningRow:
    if not observations:
        return TuningRow(
            window=window, error_method=emethod.value, quantile_method=qmethod.value,
            variable=variable, horizon=horizon.label, mean_wis=None, coverage={},
            n=0, feasible=False,
        )
    weights = WisWeights(levels)
    wis_values = [
        weighted_interval_score(intervals, outcome, weights)  # type: ignore[arg-type]
        for intervals, outcome in observations
    ]
    coverage = {
        tau: sum(1 for intervals, outcome in observations if intervals[tau].contains(outcome))  # type: ignore[union-attr]
        / len(observations)
        for tau in levels
    }
    return TuningRow(
        window=window, error_method=emethod.value, quantile_method=qmethod.value,
        variable=variable, horizon=horizon.label,
        mean_wis=sum(wis_values) / len(wis_values),
        coverage=coverage, n=len(observations), feasible=True,
    )


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
    defaults to a digest of the panel content.
    """
    tag = config.generated_at or _content_tag(panel)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FORECAST_FILE_HEADER)
    gaps: list[str] = []
    for method in _method_data(config, panel, quarterly, external):
        for target in _targets(panel):
            history = ErrorHistory(method.forecasts, method.error_truths, config.window)
            grid, grid_gaps = build_grid(history, target, origin, config)
            gaps.extend(grid_gaps)
            if grid is None:
                continue
            for horizon in grid.horizons:
                cell = grid.cells[horizon]
                for tau in config.levels:
                    pi = cell.interval(tau)
                    writer.writerow(
                        [
                            target.country,
                            target.variable,
                            cell.forecast_origin.year,
                            cell.forecast_origin.season.value,
                            cell.target_year,
                            format(tau, ".10g"),
                            format(pi.lower, ".10g"),
                            format(pi.upper, ".10g"),
                            format(pi.center, ".10g"),
                            method.label,
                            tag,
                        ]
                    )
    return buf.getvalue(), gaps


def _content_tag(panel: ForecastPanel) -> str:
    digest = hashlib.sha256(panel.to_canonical_csv().encode("utf-8")).hexdigest()
    return f"input-{digest[:16]}"


def write_backtest_outputs(result: BacktestResult, out_dir: str) -> list[str]:
    """Write report.csv / report.json / audit.json / gaps.json; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in (
        ("report.csv", result.report.to_csv()),
        ("report.json", result.report.to_json()),
        ("audit.json", json.dumps(result.audit, indent=2, sort_keys=True) + "\n"),
        ("gaps.json", json.dumps(sorted(result.gaps), indent=2) + "\n"),
    ):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        paths.append(path)
    return paths
