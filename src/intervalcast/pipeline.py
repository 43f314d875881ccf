"""Orchestration: tuning over the training span, hold-out backtesting, and
prospective forecast production.

At each origin the pipeline assembles an interval grid holding, for every
horizon, the most recent forecast at that horizon together with offsets
estimated from errors observable at the origin. The grid is corrected for
horizon monotonicity as a whole; only the horizons newly issued at that origin
are scored, so each forecast is scored exactly once.
"""

from __future__ import annotations

import json
import math
import os
import sys
from bisect import insort
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

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
    Table,
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
    build_error_set,
    year_error,
)
from intervalcast.ingest import (
    FallbackRule,
    ForecastPanel,
    PanelTruthSelector,
    TruthUnavailableError,
    csv_text,
    read_input,
    select_truth,
)
from intervalcast.intervals import (
    GridCell,
    IntervalGrid,
    enforce_horizon_monotonicity,  # noqa: F401  (looked up here by the benchmark's tracer)
    offset_rows,
    offset_taus,
    offsets_for,  # noqa: F401  (likewise)
    pool_level_rows,
)
from intervalcast.quantile import InvalidErrorValueError, QuantileMethod, index_table, read_sorted, sorted_samples
from intervalcast.scoring import (
    EvaluationReport,
    TuningReport,
    TuningRow,
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
            ("data", str, False), ("out", str, False), ("quarterly_data", str, True),
            ("external_forecasts", str, True), ("generated_at", str, True),
            ("truth_rule", FallbackRule, False), ("error_method", ErrorMethod, False),
            ("quantile_method", QuantileMethod, False), ("window", int, False),
            ("ar_min_obs", int, False), ("ar_window", int, True), ("eval_as_of", ReleaseDate, True),
        ):
            value = getattr(self, name)
            if not (isinstance(value, kind) and not isinstance(value, bool) or optional and value is None):
                raise ValueError(f"{name} must be {kind.__name__}{' or None' * optional}, got {value!r}")
        for name, kind, size in (("train_span", int, 2), ("holdout_span", int, 2), ("levels", float, None),
                                 ("methods", str, None), ("exclude", tuple, None)):
            value = getattr(self, name)
            if not (isinstance(value, tuple) and (size is None or len(value) == size)
                    and all(isinstance(v, kind) and not isinstance(v, bool) for v in value)):
                raise ValueError(f"{name} must be a {'pair' if size else 'tuple'} of {kind.__name__}, got {value!r}")
        for entry in self.exclude:
            if not (len(entry) == 3 and isinstance(entry[0], str) and entry[0]
                    and all(type(year) is int for year in entry[1:]) and entry[1] <= entry[2]):
                raise ValueError(f"exclude entry {entry!r} must be (country, first year, last year), first <= last")
        validate_levels(self.levels)
        for name in ("window", "ar_min_obs", "ar_window"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
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
    """'FIRST-LAST', or 'YEAR' for one year; a side left empty is an error."""
    first, dash, last = token.partition("-")
    try:
        return (int(first), int(last if dash else first))
    except ValueError:
        raise ValueError(f"bad span {token!r}: expected FIRST-LAST or YEAR") from None


def load_config(path: Optional[str] = None, **overrides: object) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus keyword overrides."""
    raw: dict[str, object] = {}
    if path:
        raw = read_input(path, json.load)
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
    try:
        return RunConfig(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:  # each check names its key
        raise ValueError(f"bad config value: {exc}") from None


# The parser of each key whose value a flag or a JSON string gives as text.
_TEXT_PARSERS: dict[str, Callable[[str], object]] = {
    "error_method": ErrorMethod.parse, "quantile_method": QuantileMethod.parse, "train_span": parse_span,
    "holdout_span": parse_span, "eval_as_of": ReleaseDate.parse, "truth_rule": FallbackRule.parse,
    "window": int, "ar_min_obs": int, "ar_window": int,
}


def _config_value(key: str, value: object) -> object:
    """The ``RunConfig`` value of one config key, from JSON or a flag. Only
    text is parsed and arrays become tuples; any other value reaches
    ``RunConfig``'s type checks as given."""
    if key in ("levels", "methods", "exclude") and isinstance(value, str):
        items = [item.strip() for item in value.split(",")]
        if "" in items:
            raise ValueError(f"empty item in comma list {value!r}")
        value = items
    if isinstance(value, list):
        value = tuple(value)
    if key == "levels" and isinstance(value, tuple):
        return tuple(float(v) if isinstance(v, str) else v for v in value)
    if key == "exclude" and isinstance(value, tuple):
        return parse_exclusions(value)
    return _TEXT_PARSERS[key](value) if isinstance(value, str) and key in _TEXT_PARSERS else value


def config_json(config: RunConfig) -> str:
    """``config`` as JSON that ``load_config`` reads back as an equal config:
    enums as values, exclusions as 'C:FIRST-LAST' and release dates as '2023F'."""
    raw = {f.name: getattr(config, f.name) for f in fields(config)}
    raw["exclude"] = [f"{country}:{first}-{last}" for country, first, last in config.exclude]
    return json.dumps(raw, indent=2, sort_keys=True,
                      default=lambda v: v.value if isinstance(v, Enum) else str(v)) + "\n"


def outstanding_cells(origin: ReleaseDate) -> dict[Horizon, tuple[ReleaseDate, int]]:
    """Most recent (forecast-origin, target-year) per horizon as of ``origin``,
    in horizon order: ``origin`` itself, or one release of the other season per grid."""
    spring = origin.season is Season.SPRING  # the other season's latest release: last fall, or this spring
    other = ReleaseDate(origin.year - spring, Season.FALL if spring else Season.SPRING)
    cells: dict[Horizon, tuple[ReleaseDate, int]] = {}
    for horizon in HORIZONS:
        season, offset = horizon.value  # one enum read for both fields, once per grid
        issued = origin if season is origin.season else other
        cells[horizon] = (issued, issued.year + offset)
    return cells


def fresh_horizons(origin: ReleaseDate) -> tuple[Horizon, ...]:
    """Horizons newly issued at ``origin`` (the origin's own season)."""
    return tuple(h for h in HORIZONS if h.season is origin.season)


class ErrorHistory:
    """Error sets of one forecast source, each built when asked for.

    Each (target, horizon, anchor year, origin, error method) set is built at
    ``max_window``, the longest window any caller asks for; a caller that
    needs a shorter window w reads the set's first w entries, exactly what a
    build at window w returns. A set infeasible at ``max_window`` raises
    ``InsufficientHistoryError``. No run asks for one set twice, so sets are
    not kept. The source's only memo is three rows of year rows, each made
    on first request: ``points[target, horizon][year]``, the forecast;
    ``settled[target, horizon, method][year]``, ``(first release, error)``;
    and ``truths[target, origin][year]``, for years not yet settled. Their
    fills capture locals, not ``self``, so no cycle keeps a history alive."""

    def __init__(self, forecasts: ForecastLookup, truths: TruthSelector, max_window: int) -> None:
        self.max_window = max_window
        points = self.points = Table(lambda key: Table(
            lambda year: forecasts(key[0], key[1].origin_for(year), year)))
        self.settled = Table(lambda key: Table(
            lambda year: _settled_entry(truths.settled(key[0], year), points[key[:2]], year, key[2])))
        self.truths = Table(lambda key: Table(lambda year: truths(key[0], year, key[1])))
        years = Table(lambda year: year)  # one int per year, for the windows' tuples
        self.windows = Table(lambda window: tuple([years[y] for y in window]))  # one per distinct window

    def error_set(
        self,
        target: TargetId,
        horizon: Horizon,
        anchor_year: int,
        origin: ReleaseDate,
        method: ErrorMethod,
    ) -> ErrorSet:
        return build_error_set(
            self.points[target, horizon], self.truths[target, origin], target, horizon,
            anchor_year=anchor_year, origin=origin, window=self.max_window, method=method,
            settled=self.settled[target, horizon, method],
        )


def _settled_entry(found, points: Table, year: int, method: ErrorMethod) -> tuple[int, Optional[float]]:
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
    fatal. Offsets are read and pooled as level rows, which the cells keep."""
    found: list[tuple[Horizon, float, int, ReleaseDate, ErrorSet]] = []
    gaps: list[str] = []
    # ``outstanding_cells`` lists the horizons in order, as pooling needs.
    for horizon, (forecast_origin, target_year) in outstanding_cells(origin).items():
        point = history.points[target, horizon][target_year]
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
    # Every set holds the history's window, so one index table serves the grid.
    method = config.error_method
    table = index_table(history.max_window, offset_taus(config.levels, method), config.quantile_method)
    lowers, uppers = zip(*(offset_rows(read_sorted(sorted_samples(f[-1].errors), table), method) for f in found))
    blocks: tuple[int, ...] = (1,)
    if len(found) > 1:  # a lone cell keeps its offsets as read
        lowers, uppers, blocks = pool_level_rows(lowers, uppers)
    cells = {
        horizon: GridCell(
            point=point,
            target_year=target_year,
            forecast_origin=forecast_origin,
            lower=lower,
            upper=upper,
            source_years=history.windows[errs.source_years],
            skipped_years=history.windows[errs.skipped_years],
        )
        for (horizon, point, target_year, forecast_origin, errs), lower, upper
        in zip(found, lowers, uppers)
    }
    return IntervalGrid(target=target, origin=origin, cells=cells, levels=config.levels, blocks=blocks), gaps


def _ar_lookup(
    series_by_target: dict[TargetId, QuarterlySeries], config: RunConfig
) -> ForecastLookup:
    """AR(1) forecasts; one fit per (target, origin) serves both target years,
    and a fit that fails is None and gives no forecast."""

    def fit_or_none(key: tuple[TargetId, ReleaseDate]) -> Optional[Ar1Fit]:
        try:
            return benchmark.fit_ar1(series_by_target[key[0]], quarter_cutoff(key[1]),
                                     min_obs=config.ar_min_obs, window=config.ar_window)
        except ValueError:
            return None

    fits = Table(fit_or_none)

    def lookup(target: TargetId, origin: ReleaseDate, target_year: int) -> Optional[float]:
        series = series_by_target.get(target)
        if series is None or (fit := fits[target, origin]) is None:
            return None
        try:
            return benchmark_forecast(series, origin, horizon_of(origin, target_year), fit=fit)
        except ValueError:  # a missing quarter in the aggregate's observed part
            return None

    return lookup


def _sources(
    config: RunConfig,
    panel: ForecastPanel,
    quarterly: Optional[dict[TargetId, QuarterlySeries]],
    external: Optional[ForecastPanel],
) -> list[tuple[str, ForecastLookup, TruthSelector]]:
    """``(label, forecasts, error-history truths)`` of each configured method."""
    panel_truths = PanelTruthSelector(panel, config.truth_rule)
    out: list[tuple[str, ForecastLookup, TruthSelector]] = []
    for label in config.methods:
        if label == "imf":
            out.append((label, panel.forecast, panel_truths))
        elif label == "ar":
            if quarterly is None:
                raise ValueError("method 'ar' requires quarterly data")
            out.append((label, _ar_lookup(quarterly, config), QuarterlyTruthSelector(quarterly)))
        elif label == "external":
            if external is None:
                raise ValueError("method 'external' requires an external forecast file")
            out.append((label, external.forecast, panel_truths))
    return out


def _grids(
    config: RunConfig,
    panel: ForecastPanel,
    quarterly: Optional[dict[TargetId, QuarterlySeries]],
    external: Optional[ForecastPanel],
    origins: Sequence[ReleaseDate],
    gaps: list[str],
) -> Iterator[tuple[str, IntervalGrid]]:
    """``(label, grid)`` of each source, target and origin that has a grid, in
    that order, from one ``ErrorHistory`` per (source, target); an origin's gaps
    join ``gaps`` before its grid is yielded. The panel keeps IMF grids, which
    depend only on it and five config fields; other sources read inputs it lacks."""
    kept = panel._grids.setdefault(
        (config.truth_rule, config.window, config.error_method, config.quantile_method, config.levels), {})
    for label, forecasts, truths in _sources(config, panel, quarterly, external):
        grids = kept if label == "imf" else {}
        for target in panel.targets:
            history = ErrorHistory(forecasts, truths, config.window)
            for origin in origins:
                found = grids.get((target, origin))
                if found is None:
                    grid, grid_gaps = build_grid(history, target, origin, config)
                    found = grids[target, origin] = (grid, tuple(grid_gaps))
                gaps.extend(found[1])
                if found[0] is not None:
                    yield label, found[0]


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
    configured exclusions. An origin scores target years of its own year and
    the next, so only origin years from the panel's first realized target
    year minus 1 to its last are walked; one gap names each skipped range.
    """
    h0, h1 = config.holdout_span
    as_of = _eval_as_of(config, panel)
    weights = WisWeights(config.levels)
    grids: list[IntervalGrid] = []
    audit: list[dict[str, object]] = []
    realized = [year for _, year, _ in panel.realizations]
    first = max(h0 - 1, min(realized, default=h1 + 1) - 1)
    last = min(h1, max(realized, default=h0 - 2))
    skipped = [(h0 - 1, h1)] if first > last else [(h0 - 1, first - 1), (last + 1, h1)]
    gaps = [f"holdout origins {a}-{b} skipped: no realization for target years {a}-{b + 1}"
            for a, b in skipped if a <= b]
    origins = [ReleaseDate(year, season) for year in range(first, last + 1) for season in (Season.SPRING, Season.FALL)]
    for label, grid in _grids(config, panel, quarterly, external, origins, gaps):
        grids.append(grid)
        for horizon in fresh_horizons(grid.origin):
            cell = grid.cells.get(horizon)
            if cell is None or not h0 <= cell.target_year <= h1:
                continue
            try:
                outcome = select_truth(panel, grid.target, cell.target_year, as_of, config.truth_rule)
            except TruthUnavailableError as exc:
                gaps.append(str(exc))
                continue
            audit.append(audit_row(grid, horizon, label, outcome, weights))
    report = evaluation_report(audit, config)
    return BacktestResult(config=config, report=report, grids=grids, audit=audit, gaps=gaps)


def evaluation_report(rows: Iterable[dict], config: RunConfig) -> EvaluationReport:
    """The backtest report of audit ``rows``, with the run's levels and exclusions."""
    return aggregate_report(rows, config.levels, exclusions=config.exclude)


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
    A scored year's errors, taken once per error method at that window, go
    newest first into one sorted list; each (window w, quantile method) of the
    error method reads its levels from the sorted first w, the set a build at
    w holds. The span is walked only from the view's first realized year to its last.
    """
    if not grid:
        raise ValueError("tuning grid must be nonempty")
    groups: dict[ErrorMethod, list[tuple[int, QuantileMethod]]] = {}
    for window, emethod, qmethod in grid:
        entries = groups.setdefault(emethod, [])
        if window < 1 or (window, qmethod) in entries:
            problem = "must be >= 1" if window < 1 else f"listed twice with {emethod.value}, {qmethod.value}"
            raise ValueError(f"tuning window {window} {problem}")
        entries.append((window, qmethod))
    t0, t1 = config.train_span
    cutoff = ReleaseDate(t1 + 1, Season.FALL)
    view = panel.until_vintage(cutoff, t1)
    truths = PanelTruthSelector(view, config.truth_rule)
    history = ErrorHistory(view.forecast, truths, max(w for w, _, _ in grid))
    variables = view.variables()
    # Scorable (target, year, point, outcome) per (variable, horizon) cell.
    scorable: dict[tuple[str, Horizon], list[tuple[TargetId, int, float, float]]] = {
        (variable, horizon): [] for variable in variables for horizon in HORIZONS
    }
    realized = [year for _, year, _ in view.realizations]
    years = range(max(t0, min(realized, default=t1 + 1)), min(t1, max(realized, default=t0 - 1)) + 1)
    for target in view.targets:
        for year in years:
            try:
                outcome = select_truth(view, target, year, cutoff, config.truth_rule)
            except TruthUnavailableError:
                continue
            for horizon in HORIZONS:
                point = history.points[target, horizon][year]
                if point is not None:
                    scorable[(target.variable, horizon)].append((target, year, point, outcome))
    levels, weights = config.levels, WisWeights(config.levels)
    rows: dict[tuple[int, ErrorMethod, QuantileMethod, str, Horizon], TuningRow] = {}
    for emethod, entries in groups.items():
        entries = sorted(entries, key=lambda entry: entry[0])
        taus = offset_taus(levels, emethod)
        tables = [index_table(w, taus, qmethod) for w, qmethod in entries]
        for (variable, horizon), observations in scorable.items():
            # Per entry: each scored year's WIS, and the hits at each level.
            wis: list[list[float]] = [[] for _ in entries]
            hits: list[list[int]] = [[0] * len(levels) for _ in entries]
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
                for (w, _), table, wis_w, hits_w in zip(entries, tables, wis, hits):
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
            for (w, qmethod), wis_w, hits_w in zip(entries, wis, hits):
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
    rows: list[list[object]] = []
    gaps: list[str] = []
    for label, grid in _grids(config, panel, quarterly, external, [origin], gaps):
        for horizon in grid.horizons:
            cell = grid.cells[horizon]
            point = cell.point
            for tau, lo, up in zip(grid.levels, cell.lower, cell.upper):
                rows.append([
                    grid.target.country, grid.target.variable, cell.forecast_origin.year,
                    cell.forecast_origin.season.value, cell.target_year,
                    *(format(x, ".10g") for x in (tau, point + lo, point + up, point)),
                    label, tag,
                ])
    return csv_text(FORECAST_FILE_HEADER, rows), gaps


def gaps_json(gaps: Iterable[str]) -> str:
    """The text of a gaps manifest: the gaps sorted, as a JSON array."""
    return json.dumps(sorted(gaps), indent=2) + "\n"


def write_outputs(out_dir: str, files: Iterable[tuple[str, str | Callable[[TextIO], object]]]) -> list[str]:
    """Write each ``(name, text or writer of the file)`` into ``out_dir``,
    made if missing, as UTF-8 with newlines as given; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, content in files:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if callable(content):
                content(fh)
            else:
                fh.write(content)
        paths.append(path)
    return paths


def write_backtest_outputs(result: BacktestResult, out_dir: str) -> list[str]:
    """Write report.csv / report.json / audit.json / gaps.json / run.json;
    returns paths.

    ``audit.json`` is streamed one row at a time by ``write_audit``, with the
    bytes of ``json.dumps(result.audit, indent=2, sort_keys=True) + "\\n"``.
    ``run.json`` holds the run's config (``config_json``), so ``audit.json``
    and ``run.json`` together rebuild the report."""
    return write_outputs(out_dir, (
        ("report.csv", result.report.to_csv()),
        ("report.json", result.report.to_json()),
        ("audit.json", lambda fh: write_audit(result.audit, fh)),
        ("gaps.json", gaps_json(result.gaps)),
        ("run.json", config_json(result.config)),
    ))
