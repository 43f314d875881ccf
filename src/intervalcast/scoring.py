"""Interval score with decomposition, weighted interval score, coverage, the
audit row (the backtest's one scored record), and report aggregation.

Scores are negatively oriented: smaller is better. The interval score is the
interval width plus penalties of 2/(1-tau) times the distance by which the
outcome misses the interval, charged to overprediction (outcome below the
interval) or underprediction (outcome above it).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from intervalcast.domain import HORIZONS, Horizon, ReleaseDate
from intervalcast.intervals import IntervalGrid, PredictionInterval

POOLED = "pooled"


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
        return sum(self.weights)

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


@dataclass
class EvaluationReport:
    """Per-cell aggregates plus country-pooled cells (country = 'pooled')."""

    levels: tuple[float, ...]
    cells: dict[tuple[str, str, str, str], CellStats] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def to_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for (country, variable, horizon, method), stats in sorted(self.cells.items()):
            base = dict(country=country, variable=variable, horizon=horizon, method=method)
            rows.append({**base, "level": "", "metric": "wis", "value": stats.mean_wis, "n": stats.n})
            rows.append({**base, "level": "", "metric": "dispersion", "value": stats.mean_dispersion, "n": stats.n})
            rows.append({**base, "level": "", "metric": "overprediction", "value": stats.mean_overprediction, "n": stats.n})
            rows.append({**base, "level": "", "metric": "underprediction", "value": stats.mean_underprediction, "n": stats.n})
            for tau in self.levels:
                rows.append({**base, "level": tau, "metric": "interval_score", "value": stats.mean_is[tau], "n": stats.n})
                rows.append({**base, "level": tau, "metric": "coverage", "value": stats.coverage[tau], "n": stats.n})
                rows.append({**base, "level": tau, "metric": "mean_length", "value": stats.mean_length[tau], "n": stats.n})
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["country", "variable", "horizon", "method", "level", "metric", "value", "n"])
        for row in self.to_rows():
            writer.writerow(
                [
                    row["country"],
                    row["variable"],
                    row["horizon"],
                    row["method"],
                    row["level"],
                    row["metric"],
                    _fmt(row["value"]),
                    row["n"],
                ]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        """The text of ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
        for the payload ``{"levels", "rows", "warnings"}``, each row rendered
        through one template, its value as ``float(value)``."""
        text, number = encode_basestring_ascii, _json_number
        rows = [
            _REPORT_ROW % (
                text(row["country"]), text(row["horizon"]),
                '""' if row["level"] == "" else number(row["level"]),  # type: ignore[arg-type]
                text(row["method"]), text(row["metric"]), int.__repr__(row["n"]),  # type: ignore[arg-type]
                number(float(row["value"])), text(row["variable"]),  # type: ignore[arg-type]
            )
            for row in self.to_rows()
        ]
        return (f'{{\n  "levels": {_json_list(map(number, self.levels))},'
                f'\n  "rows": {_json_list(rows)},'
                f'\n  "warnings": {_json_list(map(text, self.warnings))}\n}}\n')


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(value: float) -> str:
    """``json.dumps``' text of a float: its repr, or NaN / Infinity / -Infinity."""
    text = float.__repr__(value)
    return _NONFINITE.get(text, text)


def _json_list(items: Iterable[str]) -> str:
    """``json.dumps(indent=2)``'s layout of a list of rendered ``items`` one level deep."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, summed left to right: tuning's and the report's."""
    return sum(values) / len(values)


def _row_record(row: dict, weights: WisWeights) -> tuple:
    """``row`` reduced once for the cells it joins: its WIS, its three WIS
    components, then per level its closed-interval hit (as ``coverage_rate``),
    its interval length and its total summed from the parts."""
    intervals, scores, outcome = row["intervals"], row["scores"], row["outcome"]
    hits, lengths, totals, dispersion, over, under = [], [], [], [], [], []
    for key, w in zip(weights.keys, weights.weights):
        interval, parts = intervals[key], scores[key]
        lower, upper = interval["lower"], interval["upper"]
        d, o, u = parts["dispersion"], parts["overprediction"], parts["underprediction"]
        hits.append(lower <= outcome <= upper)
        lengths.append(upper - lower)
        totals.append(d + o + u)
        dispersion.append(w * d)
        over.append(w * o)
        under.append(w * u)
    # Component means are taken on the same weighted-average scale as the WIS
    # so that dispersion + over + under sums to the mean WIS per cell.
    total = weights.total
    return (row["wis"], sum(dispersion) / total, sum(over) / total, sum(under) / total,
            *hits, *lengths, *totals)


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
    record. Each interval is the point plus its offsets, flagged as
    ``interval_from_offsets`` flags it, and each score's total is the sum of
    its parts."""
    cell = grid.cells[horizon]
    point = cell.point
    intervals: dict[str, dict[str, object]] = {}
    scores: dict[str, dict[str, float]] = {}
    totals: list[float] = []
    for tau, key in zip(weights.levels, weights.keys):
        offsets = cell.offsets[tau]
        lower, upper = point + offsets.lower, point + offsets.upper
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
        "source_years": list(cell.source_years),
        "skipped_years": list(cell.skipped_years),
        "pava_blocks": list(grid.blocks or ()),
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
    ("country", lambda v: isinstance(v, str) and v != "", "a nonempty string"),
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


def _row_problem(row: object, levels: Sequence[float]) -> Optional[str]:
    if not isinstance(row, dict):
        return f"a row must be an object, not {type(row).__name__}"
    for key, ok, kind in _ROW_FIELDS:
        if not ok(row.get(key)):
            return f"{key!r} must be {kind}, got {row[key]!r}" if key in row else f"no {key!r}"
    for key, p in row["intervals"].items():
        if not (_parses(float, key) and isinstance(p, dict) and "degenerate" in p and "excludes_center" in p
                and _number(p.get("lower")) and _number(p.get("upper")) and p["lower"] <= p["upper"]):
            return f"interval {key!r} must hold numbers lower <= upper and both flags, got {p!r}"
    for key, p in row["scores"].items():
        if not (_parses(float, key) and isinstance(p, dict) and all(_number(p.get(k)) for k in _SCORE_PARTS)):
            return f"score {key!r} must hold numeric {', '.join(_SCORE_PARTS)}, got {p!r}"
    for tau in levels:
        for part in ("intervals", "scores"):
            if str(tau) not in row[part]:
                return f"no {part[:-1]} at level {tau}"
    return None


def check_rows(rows: Sequence[object], levels: Sequence[float]) -> None:
    """Raise ``ValueError`` naming the first of ``rows``, read back from an
    ``audit.json``, that ``aggregate_report`` cannot read at ``levels``."""
    for i, row in enumerate(rows):
        problem = _row_problem(row, levels)
        if problem is not None:
            raise ValueError(f"malformed audit row {i}: {problem}")


def _layout(slots: Mapping[str, str], indent: str) -> str:
    """``json.dumps(indent=2)``'s layout, at ``indent``, of an object whose
    keys, in order, hold the ``%`` template ``slots``."""
    return "{" + ",".join(f'\n{indent}  "{key}": {slot}' for key, slot in slots.items()) + f"\n{indent}}}"


def _by_level(keys: Sequence[str], fields: Sequence[str]) -> str:
    """The layout of an audit row's per-level object with the sorted level
    ``keys``, each an object of ``fields``."""
    if not keys:
        return "{}"
    level = _layout(dict.fromkeys(fields, "%s"), "      ")
    heads = [encode_basestring_ascii(key).replace("%", "%%") for key in keys]
    return "{\n" + ",\n".join(f"      {head}: {level}" for head in heads) + "\n    }"


# ``audit_row``'s keys, and its intervals' and scores' fields, each sorted as
# ``sort_keys=True`` sorts them.
_ROW_KEYS = (
    "country", "forecast_origin", "grid_origin", "horizon", "intervals", "method", "outcome",
    "pava_blocks", "point", "scores", "skipped_years", "source_years", "target_year",
    "variable", "wis",
)
_INTERVAL_FIELDS = ("degenerate", "excludes_center", "lower", "upper")
_SCORE_FIELDS = ("dispersion", "overprediction", "total", "underprediction")
# A row of ``report.json``, as an item of its ``rows`` list.
_REPORT_ROW = _layout(dict.fromkeys(
    ("country", "horizon", "level", "method", "metric", "n", "value", "variable"), "%s"), "    ")


def _audit_template(interval_keys: Sequence[str], score_keys: Sequence[str]) -> str:
    """``write_audit``'s ``%`` template of a row with these sorted level keys."""
    slots = dict.fromkeys(_ROW_KEYS, "%s")
    slots["intervals"] = _by_level(interval_keys, _INTERVAL_FIELDS)
    slots["scores"] = _by_level(score_keys, _SCORE_FIELDS)
    return "  " + _layout(slots, "  ")


def write_audit(rows: Iterable[dict[str, object]], fh) -> None:
    """Write ``audit_row`` rows to ``fh`` one at a time, as exactly the text
    of ``json.dumps(rows, indent=2, sort_keys=True) + "\\n"``.

    Each distinct pair of level-key tuples gets one ``%`` template, so a row
    is written by one ``%`` over a flat tuple of its values' texts."""
    text, nonfinite = encode_basestring_ascii, _NONFINITE.get
    bounds, score_fields = itemgetter("lower", "upper"), itemgetter(*_SCORE_FIELDS)
    templates: dict[tuple, tuple[str, list[str], list[str]]] = {}

    def ints(values: list[int]) -> str:
        return "[\n      " + ",\n      ".join(map(int.__repr__, values)) + "\n    ]" if values else "[]"

    sep = "[\n"
    for row in rows:
        intervals, scores = row["intervals"], row["scores"]
        shape = (tuple(intervals), tuple(scores))
        if (entry := templates.get(shape)) is None:  # level keys sort as strings, as json sorts them
            interval_keys, score_keys = sorted(intervals), sorted(scores)
            entry = templates[shape] = (_audit_template(interval_keys, score_keys), interval_keys, score_keys)
        template, interval_keys, score_keys = entry
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
            ints(row["pava_blocks"]), reprs[1], *reprs[3 + n:], ints(row["skipped_years"]),
            ints(row["source_years"]), int.__repr__(row["target_year"]), text(row["variable"]), reprs[2],
        ))
        sep = ",\n"
    fh.write("[]\n" if sep == "[\n" else "\n]\n")
