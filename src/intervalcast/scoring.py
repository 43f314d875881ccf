"""Interval score with decomposition, weighted interval score, coverage, the
audit row (the backtest's one scored record), and report aggregation.

Scores are negatively oriented: smaller is better. The interval score is the
interval width plus penalties of 2/(1-tau) times the distance by which the
outcome misses the interval, charged to overprediction (outcome below the
interval) or underprediction (outcome above it).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from intervalcast.domain import HORIZONS, POOLED, Horizon, ReleaseDate, Table
from intervalcast.ingest import csv_text
from intervalcast.intervals import IntervalGrid, PredictionInterval


@dataclass(frozen=True)
class ScoreDecomposition:
    dispersion: float
    overprediction: float
    underprediction: float

    @property
    def total(self) -> float:
        return self.dispersion + self.overprediction + self.underprediction


def score_parts(lower: float, upper: float, outcome: float, tau: float) -> tuple[float, float, float]:
    """``(dispersion, overprediction, underprediction)`` of [lower, upper]
    against ``outcome`` at level ``tau``, as plain floats."""
    if not (math.isfinite(lower) and math.isfinite(upper) and math.isfinite(outcome)):
        raise ValueError("interval score requires finite inputs")
    if lower > upper:
        raise ValueError(f"inverted interval [{lower}, {upper}]")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"confidence level {tau} outside (0, 1)")
    penalty = 2.0 / (1.0 - tau)
    over = penalty * (lower - outcome) if outcome < lower else 0.0
    under = penalty * (outcome - upper) if outcome > upper else 0.0
    return upper - lower, over, under


def interval_score(lower: float, upper: float, outcome: float, tau: float) -> ScoreDecomposition:
    """Interval score of [lower, upper] against ``outcome`` at level ``tau``."""
    return ScoreDecomposition(*score_parts(lower, upper, outcome, tau))


@dataclass(frozen=True)
class WisWeights:
    """Per-level weights (1 - tau)/2 for the weighted interval score."""

    levels: tuple[float, ...]

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return tuple((1.0 - tau) / 2.0 for tau in self.levels)

    @cached_property
    def total(self) -> float:
        return reduce(add, self.weights, 0)

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """The audit row's key of each level, ``str(tau)``."""
        return tuple(str(tau) for tau in self.levels)


def weighted_interval_score(
    intervals: Mapping[float, PredictionInterval],
    outcome: float,
    weights: WisWeights,
) -> float:
    """Normalized weighted mean of per-level interval scores.

    The normalization by the weight sum keeps the score on the interval-score
    scale; with a single level it reduces to the plain interval score. No
    point-forecast term is included.
    """
    missing = [tau for tau in weights.levels if tau not in intervals]
    if missing:
        raise ValueError(f"incomplete level set: missing levels {missing}")
    return wis_of_totals([
        interval_score(intervals[tau].lower, intervals[tau].upper, outcome, tau).total
        for tau in weights.levels
    ], weights)


def wis_of_totals(totals: Sequence[float], weights: WisWeights) -> float:
    """The weighted interval score of per-level totals in ``weights``' level order."""
    acc = 0.0
    for total, w in zip(totals, weights.weights):
        acc += w * total
    return acc / weights.total


def coverage_rate(pairs: Sequence[tuple[PredictionInterval, float]]) -> float:
    """Fraction of outcomes inside their (closed) intervals."""
    if not pairs:
        raise ValueError("no observations: coverage requires at least one pair")
    return sum(1 for pi, y in pairs if pi.contains(y)) / len(pairs)


@dataclass
class CellStats:
    """Aggregated scores for one (country, variable, horizon, method) cell."""

    n: int
    mean_wis: float
    mean_dispersion: float
    mean_overprediction: float
    mean_underprediction: float
    coverage: dict[float, float]
    mean_length: dict[float, float]
    mean_is: dict[float, float]


# The columns of ``report.csv``, and the fields of each row ``to_rows`` gives.
REPORT_HEADER = ("country", "variable", "horizon", "method", "level", "metric", "value", "n")


@dataclass
class EvaluationReport:
    """Per-cell aggregates plus country-pooled cells (country = 'pooled')."""

    levels: tuple[float, ...]
    cells: dict[tuple[str, str, str, str], CellStats] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_rows(self) -> list[tuple]:
        """One tuple per cell and metric, its fields in ``REPORT_HEADER``'s
        order; ``level`` is ``""`` for the WIS and its three components."""
        rows: list[tuple] = []
        for cell, s in sorted(self.cells.items()):
            rows += [(*cell, "", metric, value, s.n) for metric, value in (
                ("wis", s.mean_wis), ("dispersion", s.mean_dispersion),
                ("overprediction", s.mean_overprediction), ("underprediction", s.mean_underprediction))]
            rows += [(*cell, tau, metric, values[tau], s.n) for tau in self.levels for metric, values in (
                ("interval_score", s.mean_is), ("coverage", s.coverage), ("mean_length", s.mean_length))]
        return rows

    def to_csv(self) -> str:
        return csv_text(REPORT_HEADER, ((*row[:6], format(row[6], ".10g"), row[7]) for row in self.to_rows()))

    def to_json(self) -> str:
        """The text of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
        for the payload ``{"levels", "rows", "warnings"}``, each row an object
        of ``REPORT_HEADER``'s fields, its value as ``float(value)``."""
        text, number = encode_basestring_ascii, _json_number
        rows = [
            _REPORT_ROW % (text(country), text(horizon), '""' if level == "" else number(level), text(method),
                           text(metric), int.__repr__(n), number(float(value)), text(variable))
            for country, variable, horizon, method, level, metric, value, n in self.to_rows()
        ]
        return _json_template(("levels", "rows", "warnings"), "") % (
            _json_list(map(number, self.levels)), _json_list(rows), _json_list(map(text, self.warnings))) + "\n"


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
        return csv_text(["window", "error_method", "quantile_method", "variable", "horizon",
                         "mean_wis", "n", "feasible", *(f"coverage_{tau}" for tau in self.levels)], (
            [r.window, r.error_method, r.quantile_method, r.variable, r.horizon,
             "" if r.mean_wis is None else format(r.mean_wis, ".10g"), r.n, int(r.feasible),
             *("" if tau not in r.coverage else format(r.coverage[tau], ".10g") for tau in self.levels)]
            for r in self.rows
        ))

    def to_json(self) -> str:
        """The text of ``json.dumps({"levels", "rows"}, indent=2, sort_keys=True) + "\\n"``, coverage
        keyed by ``str(level)``, each row through the ``%`` template of its coverage keys."""
        text, number, templates = encode_basestring_ascii, _json_number, Table(_tuning_template)
        rows = []
        for r in self.rows:
            template, taus = templates[tuple(r.coverage)]
            rows.append(template % (*(number(r.coverage[tau]) for tau in taus), text(r.error_method),
                                    "true" if r.feasible else "false", text(r.horizon),
                                    "null" if r.mean_wis is None else number(r.mean_wis), r.n,
                                    text(r.quantile_method), text(r.variable), r.window))
        return _json_template(("levels", "rows"), "") % (_json_list(map(number, self.levels)), _json_list(rows)) + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(value: float) -> str:
    """``json.dumps``' text of a float: its repr, or NaN / Infinity / -Infinity."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _json_list(items: Iterable[str], indent: str = "  ") -> str:
    """``json.dumps(indent=2)``'s layout, at ``indent``, of a list of rendered ``items``."""
    body = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {body}\n{indent}]" if body else "[]"


def _json_template(shape: Iterable[str], indent: str) -> str:
    """``json.dumps(indent=2, sort_keys=True)``'s layout, at ``indent``, of an
    object of ``shape``'s keys, sorted. A mapping holds each key's ``%`` slot
    text, or the shape of a nested object; a collection of keys, a slot each."""
    if not isinstance(shape, Mapping):
        shape = dict.fromkeys(shape, "%s")
    inner = indent + "  "
    items = [f"\n{inner}{encode_basestring_ascii(key).replace('%', '%%')}: "
             + (value if isinstance(value, str) else _json_template(value, inner))  # type: ignore[arg-type]
             for key, value in sorted(shape.items())]
    return "{" + ",".join(items) + f"\n{indent}}}" if items else "{}"


def _tuning_template(taus: tuple[float, ...]) -> tuple[str, list[float]]:
    """A row's template at coverage levels ``taus``, and ``taus`` sorted as strings, as json sorts keys."""
    ordered = sorted(taus, key=str)
    shape = {**dict.fromkeys((f.name for f in fields(TuningRow)), "%s"), "coverage": [str(tau) for tau in ordered]}
    return _json_template(shape, "    "), ordered


_REPORT_ROW = _json_template(REPORT_HEADER, "    ")  # a row of ``report.json``, as an item of its ``rows`` list


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, summed left to right on every CPython: tuning's and the report's."""
    return reduce(add, values, 0) / len(values)


def _row_record(row: dict, weights: WisWeights) -> tuple:
    """``row`` reduced once for the cells it joins: its WIS, its three WIS
    components, then per level its closed-interval hit (as ``coverage_rate``),
    its interval length and its total summed from the parts."""
    intervals, scores, outcome = row["intervals"], row["scores"], row["outcome"]
    hits, lengths, totals, dispersion, over, under = [], [], [], 0, 0, 0  # each sum from 0, left to right
    for key, w in zip(weights.keys, weights.weights):
        interval, parts = intervals[key], scores[key]
        lower, upper = interval["lower"], interval["upper"]
        d, o, u = parts["dispersion"], parts["overprediction"], parts["underprediction"]
        hits.append(lower <= outcome <= upper)
        lengths.append(upper - lower)
        totals.append(d + o + u)
        dispersion += w * d
        over += w * o
        under += w * u
    # Component means are taken on the same weighted-average scale as the WIS
    # so that dispersion + over + under sums to the mean WIS per cell.
    total = weights.total
    return (row["wis"], dispersion / total, over / total, under / total, *hits, *lengths, *totals)


def _cell_stats(records: Sequence[tuple], levels: tuple[float, ...]) -> CellStats:
    n, k = len(records), len(levels)
    wis, dispersion, over, under, *columns = zip(*records)
    return CellStats(
        n=n,
        mean_wis=mean(wis),
        mean_dispersion=mean(dispersion),
        mean_overprediction=mean(over),
        mean_underprediction=mean(under),
        coverage={tau: sum(hits) / n for tau, hits in zip(levels, columns[:k])},
        mean_length={tau: mean(lengths) for tau, lengths in zip(levels, columns[k:2 * k])},
        mean_is={tau: mean(totals) for tau, totals in zip(levels, columns[2 * k:])},
    )


def aggregate_report(
    rows: Iterable[dict],
    levels: tuple[float, ...],
    exclusions: Sequence[tuple[str, int, int]] = (),
) -> EvaluationReport:
    """Aggregate audit rows into per-cell and country-pooled statistics.

    ``rows`` are ``audit_row``'s, or rows read back that ``check_rows``
    passed at ``levels``. Each row is reduced once, and its record joins both
    its country's cell and the pooled cell. ``exclusions`` are (country,
    first-year, last-year) spans dropped before aggregation. Empty cells are
    omitted with a warning rather than failing.
    """
    report = EvaluationReport(levels=levels)
    weights = WisWeights(levels)
    groups: dict[tuple[str, str, str, str], list[tuple]] = {}
    for row in rows:
        country, year = row["country"], row["target_year"]
        if any(country == c and lo <= year <= hi for c, lo, hi in exclusions):
            continue
        cell = (row["variable"], row["horizon"], row["method"])
        record = _row_record(row, weights)
        groups.setdefault((country, *cell), []).append(record)
        groups.setdefault((POOLED, *cell), []).append(record)
    if not groups:
        report.warnings.append("no scored forecasts after exclusions")
        return report
    for key, records in groups.items():
        report.cells[key] = _cell_stats(records, levels)
    return report


def audit_row(
    grid: IntervalGrid, horizon: Horizon, method: str, outcome: float, weights: WisWeights
) -> dict[str, object]:
    """The audit row of ``grid``'s ``horizon`` forecast, scored against
    ``outcome`` at each of ``weights``' levels: the backtest's one scored
    record. Each interval is the point plus its offsets, flagged
    ``degenerate`` when its ends meet and ``excludes_center`` when the point
    lies outside, and each score's total is the sum of its parts. The year
    and block lists are the cell's and the grid's own (shared) tuples."""
    if grid.levels != weights.levels:
        raise ValueError(f"grid levels {grid.levels} differ from the scored levels {weights.levels}")
    cell = grid.cells[horizon]
    point = cell.point
    intervals: dict[str, dict[str, object]] = {}
    scores: dict[str, dict[str, float]] = {}
    totals: list[float] = []
    for tau, key, lo, up in zip(weights.levels, weights.keys, cell.lower, cell.upper):
        lower, upper = point + lo, point + up
        dispersion, over, under = score_parts(lower, upper, outcome, tau)
        totals.append(total := dispersion + over + under)
        intervals[key] = {
            "lower": lower, "upper": upper,
            "degenerate": lower == upper, "excludes_center": not (lower <= point <= upper),
        }
        scores[key] = {
            "total": total, "dispersion": dispersion, "overprediction": over, "underprediction": under,
        }
    return {
        "country": grid.target.country,
        "variable": grid.target.variable,
        "method": method,
        "horizon": horizon.label,
        "grid_origin": str(grid.origin),
        "forecast_origin": str(cell.forecast_origin),
        "target_year": cell.target_year,
        "point": point,
        "outcome": outcome,
        "source_years": cell.source_years,
        "skipped_years": cell.skipped_years,
        "pava_blocks": grid.blocks or (),
        "intervals": intervals,
        "scores": scores,
        "wis": wis_of_totals(totals, weights),
    }


_LABELS = frozenset(h.label for h in HORIZONS)
_SCORE_PARTS = ("dispersion", "overprediction", "underprediction")


def _number(value: object) -> bool:
    """A float, or an int (not a bool) that converts to one."""
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def _parses(parse: Callable[[str], object], value: object) -> bool:
    try:
        parse(value)  # type: ignore[arg-type]
    except ValueError:
        return False
    return True


# The fields a rebuilt report reads or names, each with its test.
_ROW_FIELDS: tuple[tuple[str, Callable[[object], bool], str], ...] = (
    ("country", lambda v: isinstance(v, str) and v not in ("", POOLED), f"a nonempty string other than {POOLED!r}"),
    ("variable", lambda v: isinstance(v, str) and v != "", "a nonempty string"),
    ("method", lambda v: isinstance(v, str), "a string"),
    ("horizon", lambda v: isinstance(v, str) and v in _LABELS, "a horizon label"),
    ("forecast_origin", lambda v: _parses(ReleaseDate.parse, v), "a release date like 2012S"),
    ("target_year", lambda v: type(v) is int, "an integer"),
    ("point", _number, "a number"),
    ("outcome", _number, "a number"),
    ("wis", _number, "a number"),
    ("intervals", lambda v: isinstance(v, dict), "an object"),
    ("scores", lambda v: isinstance(v, dict), "an object"),
)


def _row_problem(row: object, levels: Sequence[float], passed: set[object]) -> Optional[str]:
    """Why ``aggregate_report`` cannot read ``row`` at ``levels``, or None. The forecast
    origins and (interval keys, score keys) pairs in ``passed`` need no second check."""
    if not isinstance(row, dict):
        return f"a row must be an object, not {type(row).__name__}"
    for key, ok, kind in _ROW_FIELDS:
        value = row.get(key)
        if not (key == "forecast_origin" and isinstance(value, str) and value in passed or ok(value)):
            return f"{key!r} must be {kind}, got {row[key]!r}" if key in row else f"no {key!r}"
    new = (shape := (tuple(row["intervals"]), tuple(row["scores"]))) not in passed
    for key, p in row["intervals"].items():
        if not ((not new or _parses(float, key)) and isinstance(p, dict) and "degenerate" in p
                and "excludes_center" in p and _number(p.get("lower")) and _number(p.get("upper"))
                and p["lower"] <= p["upper"]):
            return f"interval {key!r} must hold numbers lower <= upper and both flags, got {p!r}"
    for key, p in row["scores"].items():
        if not ((not new or _parses(float, key)) and isinstance(p, dict) and all(_number(p.get(k)) for k in _SCORE_PARTS)):
            return f"score {key!r} must hold numeric {', '.join(_SCORE_PARTS)}, got {p!r}"
    for tau in levels if new else ():
        for part in ("intervals", "scores"):
            if str(tau) not in row[part]:
                return f"no {part[:-1]} at level {tau}"
    passed.update((row["forecast_origin"], shape))
    return None


def check_rows(rows: Sequence[object], levels: Sequence[float]) -> None:
    """Raise ``ValueError`` naming the first of ``rows``, read back from an
    ``audit.json``, that ``aggregate_report`` cannot read at ``levels``; each
    distinct origin and pair of level-key tuples once, each row's values."""
    passed: set[object] = set()
    for i, row in enumerate(rows):
        problem = _row_problem(row, levels, passed)
        if problem is not None:
            raise ValueError(f"malformed audit row {i}: {problem}")


# ``audit_row``'s fields outside its levels, then each level's; ``write_audit`` reads the scores' in this order.
_AUDIT_FIELDS = ("country", "variable", "method", "horizon", "grid_origin", "forecast_origin", "target_year",
                 "point", "outcome", "source_years", "skipped_years", "pava_blocks", "wis")
_INTERVAL_FIELDS = ("lower", "upper", "degenerate", "excludes_center")
_SCORE_FIELDS = ("dispersion", "overprediction", "total", "underprediction")


def _audit_template(shape: tuple[Sequence[str], Sequence[str]]) -> tuple[str, list[str], list[str]]:
    """``write_audit``'s ``%`` template of a row whose (interval, score) level
    keys are ``shape``, and both keys sorted as strings, as json sorts them."""
    interval_keys, score_keys = sorted(shape[0]), sorted(shape[1])
    row = {**dict.fromkeys(_AUDIT_FIELDS, "%s"), "intervals": dict.fromkeys(interval_keys, _INTERVAL_FIELDS),
           "scores": dict.fromkeys(score_keys, _SCORE_FIELDS)}
    return "  " + _json_template(row, "  "), interval_keys, score_keys


def write_audit(rows: Iterable[dict[str, object]], fh) -> None:
    """Write ``audit_row`` rows to ``fh`` one at a time, as exactly the text
    of ``json.dumps(rows, indent=2, sort_keys=True) + "\\n"``.

    Each distinct pair of level-key tuples gets one ``%`` template, so a row
    is written by one ``%`` over a flat tuple of its values' texts."""
    text, nonfinite = encode_basestring_ascii, _NONFINITE.get
    bounds, score_fields = itemgetter("lower", "upper"), itemgetter(*_SCORE_FIELDS)
    templates = Table(_audit_template)
    # Each distinct int tuple's text; a row's lists are keyed as tuples.
    ints = Table(lambda key: _json_list(map(int.__repr__, key), "    "))
    sep = "[\n"
    for row in rows:
        intervals, scores = row["intervals"], row["scores"]
        template, interval_keys, score_keys = templates[tuple(intervals), tuple(scores)]
        levels = [intervals[key] for key in interval_keys]
        # The row's floats in one list: outcome, point, wis, then each
        # interval's bounds and each score's parts in template order.
        floats = [row["outcome"], row["point"], row["wis"]]
        for p in levels:
            floats += bounds(p)
        for key in score_keys:
            floats += score_fields(scores[key])
        reprs = list(map(float.__repr__, floats))  # float's repr, also for numpy scalars
        if "nan" in reprs or "inf" in reprs or "-inf" in reprs:
            reprs = [nonfinite(r, r) for r in reprs]
        n = 2 * len(levels)
        interval_values: list[str] = [""] * (2 * n)  # per level: both flags, lower, upper
        interval_values[0::4] = ["true" if p["degenerate"] else "false" for p in levels]
        interval_values[1::4] = ["true" if p["excludes_center"] else "false" for p in levels]
        interval_values[2::4] = reprs[3:3 + n:2]
        interval_values[3::4] = reprs[4:3 + n:2]
        fh.write(sep + template % (
            text(row["country"]), text(row["forecast_origin"]), text(row["grid_origin"]),
            text(row["horizon"]), *interval_values, text(row["method"]), reprs[0],
            ints[tuple(row["pava_blocks"])], reprs[1], *reprs[3 + n:], ints[tuple(row["skipped_years"])],
            ints[tuple(row["source_years"])], int.__repr__(row["target_year"]), text(row["variable"]), reprs[2],
        ))
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")
