"""Checks of the program's outputs, recomputed without the program.

``Oracle`` rebuilds what each output should hold from the generator's
``Record`` and the workload's ``Spec`` alone: error windows by their
definition (the ``window`` most recent years with a forecast at the horizon
and a truth observable at the origin), quantiles with ``numpy.quantile``, the
joint cross-horizon pooling by a stack pass, AR(1) forecasts by closed-form
OLS, and scores by their formulas. It imports nothing from ``intervalcast``.

Every ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from gen import FALL, HORIZON_LABELS, HORIZONS, SEASON_TOKEN, SPRING, Record, origin_for

ANNUAL_WEIGHTS = (0.25, 0.5, 0.75, 1.0, 0.75, 0.5, 0.25)
POOLED = "pooled"
TAG = re.compile(r"input-[0-9a-f]{16}")
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Spec:
    """The run configuration, as the checks understand it."""

    window: int = 11
    levels: tuple[float, ...] = (0.5, 0.8)
    directional: bool = False
    quantile: str = "linear"  # numpy.quantile method: "linear" or "inverted_cdf"
    methods: tuple[str, ...] = ("imf",)
    train: tuple[int, int] = (1990, 2012)
    holdout: tuple[int, int] = (2013, 2023)
    exclude: tuple[tuple[str, int, int], ...] = ()
    ar_min_obs: int = 20


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _q(q: tuple[int, int]) -> int:
    return 4 * q[0] + q[1] - 1


class Oracle:
    """Expected outputs from the generator's record."""

    def __init__(self, rec: Record, spec: Spec):
        self.rec = rec
        self.spec = spec
        self._ar: dict[tuple, Optional[float]] = {}

    # -- inputs -------------------------------------------------------------
    def point(self, method: str, target, origin: tuple[int, int], year: int) -> Optional[float]:
        if method == "imf":
            return self.rec.forecasts.get((*target, *origin, year))
        key = (target, origin, year)
        if key not in self._ar:
            self._ar[key] = self._ar_point(target, origin, year)
        return self._ar[key]

    def _growth(self, target, q: tuple[int, int]) -> Optional[float]:
        first, growth = self.rec.quarterly[target]
        k = _q(q) - _q(first)
        return growth[k] if 0 <= k < len(growth) else None

    def _ar_point(self, target, origin, year) -> Optional[float]:
        """OLS of x_q on x_{q-1} over every quarter up to the origin's cutoff
        (Q1 in spring, Q3 in fall), iterated forward, aggregated over
        Q2(year-1)..Q4(year) with weights (1,2,3,4,3,2,1)/4."""
        first, growth = self.rec.quarterly[target]
        cutoff = _q((origin[0], 1 if origin[1] == SPRING else 3))
        run = np.asarray(growth[: cutoff - _q(first) + 1])
        if len(run) - 1 < self.spec.ar_min_obs:
            return None
        x, y = run[:-1], run[1:]
        xm, ym = x.mean(), y.mean()
        slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
        intercept = float(ym - slope * xm)
        last = float(run[-1])
        path = {}
        for k in range(1, 12):
            last = intercept + slope * last
            path[cutoff + k] = last
        start = _q((year - 1, 2))
        values = [
            float(run[q - _q(first)]) if q <= cutoff else path[q] for q in range(start, start + 7)
        ]
        return sum(w * v for w, v in zip(ANNUAL_WEIGHTS, values))

    def construction_truth(self, method: str, target, year: int, as_of) -> Optional[float]:
        """Truth of ``year`` for error windows at ``as_of``: none before the
        year has ended; the first fall release, else the spring release for
        the year just ended, else the latest release out by then. The AR
        method's truths are annual aggregates of observed quarters."""
        if year >= as_of[0]:
            return None
        if method == "ar":
            values = [self._growth(target, (year - 1 + (k + 1) // 4, (k + 1) % 4 + 1)) for k in range(7)]
            if any(v is None for v in values):
                return None
            return sum(w * v for w, v in zip(ANNUAL_WEIGHTS, values))
        out = {v: x for v, x in self.rec.vintages.get((*target, year), {}).items() if v <= as_of}
        if not out:
            return None
        if (year + 1, FALL) in out:
            return out[(year + 1, FALL)]
        if year == as_of[0] - 1 and (year + 1, SPRING) in out:
            return out[(year + 1, SPRING)]
        return out[max(out)]

    def evaluation_truth(self, target, year: int, as_of) -> Optional[float]:
        out = {v: x for v, x in self.rec.vintages.get((*target, year), {}).items() if v <= as_of}
        if not out:
            return None
        return out.get((year + 1, FALL), out[max(out)])

    # -- method ---------------------------------------------------------------
    def window(self, method, target, h, anchor, origin, size):
        """(years, errors) of the ``size`` most recent eligible years before
        ``anchor``, newest first; None when fewer exist."""
        years, errors = [], []
        for y in range(anchor - 1, self.rec.first_year - 3, -1):
            truth = self.construction_truth(method, target, y, origin)
            if truth is None:
                continue
            point = self.point(method, target, origin_for(h, y), y)
            if point is None:
                continue
            years.append(y)
            errors.append(truth - point)
            if len(years) == size:
                break
        if len(years) < size:
            return None
        if not self.spec.directional:
            errors = [abs(e) for e in errors]
        return years, errors

    def offsets(self, errors) -> list[tuple[float, float]]:
        levels = self.spec.levels
        if self.spec.directional:
            probs = [(1.0 - tau) / 2.0 for tau in levels] + [(1.0 + tau) / 2.0 for tau in levels]
        else:
            probs = list(levels)
        q = np.quantile(np.asarray(errors), probs, method=self.spec.quantile).tolist()
        if self.spec.directional:
            return list(zip(q[: len(levels)], q[len(levels):]))
        return [(-x, x) for x in q]

    def grid(self, method, target, origin):
        """Cells at ``origin``: horizon -> (point, target year, forecast
        origin, source years, pre-pooling offsets, pooled offsets), and the
        pooled block sizes."""
        cells = {}
        for h, (season, offset) in enumerate(HORIZONS):
            fo = (origin[0], season) if (origin[0], season) <= origin else (origin[0] - 1, season)
            year = fo[0] + offset
            point = self.point(method, target, fo, year)
            if point is None:
                continue
            win = self.window(method, target, h, year, origin, self.spec.window)
            if win is None:
                continue
            cells[h] = [point, year, fo, win[0], self.offsets(win[1])]
        order = sorted(cells)
        pooled, blocks = pool([cells[h][4] for h in order])
        for h, offs in zip(order, pooled):
            cells[h].append(offs)
        return cells, blocks


def pool(columns: list[list[tuple[float, float]]]):
    """Stack form of pool-adjacent-violators over horizon positions, jointly
    at every level: adjacent blocks merge when the upper offset shrinks or
    (unless every interval is symmetric) the lower offset grows at any level.
    ``columns[position][level] = (lower, upper)``."""
    if not columns:
        return [], ()
    symmetric = all(lo == -up for col in columns for lo, up in col)
    levels = range(len(columns[0]))

    def mean(block, level, side):
        return sum(columns[i][level][side] for i in block) / len(block)

    def violates(a, b):
        return any(
            mean(a, k, 1) > mean(b, k, 1) or (not symmetric and mean(a, k, 0) < mean(b, k, 0))
            for k in levels
        )

    blocks: list[list[int]] = []
    for i in range(len(columns)):
        blocks.append([i])
        while len(blocks) >= 2 and violates(blocks[-2], blocks[-1]):
            top = blocks.pop()
            blocks[-1] = blocks[-1] + top
    out = [None] * len(columns)
    for block in blocks:
        means = [(mean(block, k, 0), mean(block, k, 1)) for k in levels]
        for i in block:
            out[i] = means
    return out, tuple(len(b) for b in blocks)


def interval_score(lower, upper, y, tau):
    penalty = 2.0 / (1.0 - tau)
    over = penalty * (lower - y) if y < lower else 0.0
    under = penalty * (y - upper) if y > upper else 0.0
    return upper - lower, over, under


def wis(intervals, y, levels):
    weights = [(1.0 - tau) / 2.0 for tau in levels]
    total = sum(w * sum(interval_score(*intervals[k], y, tau)) for k, (w, tau) in enumerate(zip(weights, levels)))
    return total / sum(weights)


def backtest_origins(spec: Spec):
    return [(y, s) for y in range(spec.holdout[0] - 1, spec.holdout[1] + 1) for s in (SPRING, FALL)]


def fresh(origin):
    return (0, 2) if origin[1] == FALL else (1, 3)


def _problem(problems: list[str], text: str) -> None:
    if len(problems) < MAX_PROBLEMS:
        problems.append(text)
    elif len(problems) == MAX_PROBLEMS:
        problems.append("... more problems omitted")


def _release(token: str) -> tuple[int, int]:
    return (int(token[:-1]), SPRING if token[-1] == "S" else FALL)


# -- backtest ---------------------------------------------------------------
def check_audit(audit: list[dict], oracle: Oracle) -> list[str]:
    """Error windows, scored outcomes, quantiles with pooling, AR points,
    interval properties and scores of every audit row, and that the rows are
    exactly the forecasts the hold-out span scores."""
    spec, rec = oracle.spec, oracle.rec
    problems: list[str] = []
    levels = spec.levels
    keys = [str(tau) for tau in levels]
    grids: dict = {}
    seen = set()
    by_grid: dict = {}
    for row in audit:
        target = (row["country"], row["variable"])
        method, origin = row["method"], _release(row["grid_origin"])
        h = HORIZON_LABELS.index(row["horizon"])
        year = row["target_year"]
        where = f"{target[0]}/{target[1]} {method} {row['grid_origin']} {row['horizon']}"
        seen.add((method, target, origin, h))
        if (method, target, origin) not in grids:
            grids[(method, target, origin)] = oracle.grid(method, target, origin)
        cells, blocks = grids[(method, target, origin)]
        cell = cells.get(h)
        if cell is None:
            _problem(problems, f"{where}: scored but no cell is feasible")
            continue
        point, cell_year, fo, years, _raw, pooled = cell
        if year != cell_year or row["forecast_origin"] != f"{fo[0]}{SEASON_TOKEN[fo[1]]}":
            _problem(problems, f"{where}: target {year} / origin {row['forecast_origin']} "
                               f"expected {cell_year} / {fo}")
        if row["source_years"] != years:
            _problem(problems, f"{where}: source_years {row['source_years']} expected {years}")
        if not close(row["point"], point, 1e-9):
            _problem(problems, f"{where}: point {row['point']} expected {point}")
        fall = rec.vintages.get((*target, year), {}).get((year + 1, FALL))
        if row["outcome"] != fall:
            _problem(problems, f"{where}: outcome {row['outcome']} is not the fall {year + 1} release {fall}")
        if tuple(row["pava_blocks"]) != blocks:
            _problem(problems, f"{where}: pooled blocks {row['pava_blocks']} expected {list(blocks)}")
        intervals = []
        for k, (key, tau) in enumerate(zip(keys, levels)):
            iv = row["intervals"][key]
            lo, up = point + pooled[k][0], point + pooled[k][1]
            if not (close(iv["lower"], lo, 1e-12) and close(iv["upper"], up, 1e-12)):
                _problem(problems, f"{where} level {tau}: interval [{iv['lower']}, {iv['upper']}] "
                                   f"expected [{lo}, {up}]")
            intervals.append((iv["lower"], iv["upper"]))
            disp, over, under = interval_score(iv["lower"], iv["upper"], row["outcome"], tau)
            sc = row["scores"][key]
            if not all(close(a, b, 1e-12) for a, b in (
                (sc["dispersion"], disp), (sc["overprediction"], over),
                (sc["underprediction"], under), (sc["total"], disp + over + under),
            )):
                _problem(problems, f"{where} level {tau}: scores {sc} expected {(disp, over, under)}")
        for (lo_a, up_a), (lo_b, up_b) in zip(intervals, intervals[1:]):
            if lo_b > lo_a + 1e-12 or up_b < up_a - 1e-12:
                _problem(problems, f"{where}: intervals do not nest across levels")
        if not close(row["wis"], wis(intervals, row["outcome"], levels), 1e-12):
            _problem(problems, f"{where}: wis {row['wis']} expected {wis(intervals, row['outcome'], levels)}")
        by_grid.setdefault((method, target, origin), []).append((h, intervals))
    for where, rows in by_grid.items():
        rows.sort()
        for (ha, a), (hb, b) in zip(rows, rows[1:]):
            for k, tau in enumerate(levels):
                if b[k][1] - b[k][0] < a[k][1] - a[k][0] - 1e-12:
                    _problem(problems, f"{where}: width shrinks from {HORIZON_LABELS[ha]} to "
                                       f"{HORIZON_LABELS[hb]} at level {tau}")
    expected = set()
    for method in spec.methods:
        for target in rec.targets:
            for origin in backtest_origins(spec):
                for h in fresh(origin):
                    fo_year = origin[0]
                    year = fo_year + HORIZONS[h][1]
                    if not spec.holdout[0] <= year <= spec.holdout[1]:
                        continue
                    if (method, target, origin) not in grids:
                        grids[(method, target, origin)] = oracle.grid(method, target, origin)
                    if h in grids[(method, target, origin)][0]:
                        expected.add((method, target, origin, h))
    for key in sorted(expected - seen)[:5]:
        _problem(problems, f"audit row missing: {key}")
    for key in sorted(seen - expected)[:5]:
        _problem(problems, f"unexpected audit row: {key}")
    if len(audit) != len(expected):
        _problem(problems, f"audit has {len(audit)} rows, expected {len(expected)}")
    return problems


def expected_cells(audit: list[dict], spec: Spec) -> dict:
    """Report cells from the audit rows after exclusions, pooled included:
    (country, variable, horizon, method) -> {(level, metric): value, "n": n}."""
    groups: dict = {}
    for row in audit:
        if any(row["country"] == c and lo <= row["target_year"] <= hi for c, lo, hi in spec.exclude):
            continue
        for country in (row["country"], POOLED):
            groups.setdefault((country, row["variable"], row["horizon"], row["method"]), []).append(row)
    weights = [(1.0 - tau) / 2.0 for tau in spec.levels]
    out = {}
    for key, rows in groups.items():
        n = len(rows)
        cell = {"n": n, ("", "wis"): sum(r["wis"] for r in rows) / n}
        for part in ("dispersion", "overprediction", "underprediction"):
            cell[("", part)] = sum(
                sum(w * r["scores"][str(tau)][part] for w, tau in zip(weights, spec.levels)) / sum(weights)
                for r in rows
            ) / n
        for tau in spec.levels:
            ivs = [(r["intervals"][str(tau)], r["outcome"]) for r in rows]
            cell[(str(tau), "interval_score")] = sum(r["scores"][str(tau)]["total"] for r in rows) / n
            cell[(str(tau), "coverage")] = sum(iv["lower"] <= y <= iv["upper"] for iv, y in ivs) / n
            cell[(str(tau), "mean_length")] = sum(iv["upper"] - iv["lower"] for iv, _ in ivs) / n
        out[key] = cell
    return out


def check_report_csv(text: str, cells: dict) -> list[str]:
    """report.csv holds exactly the recomputed cells, with their n and means."""
    problems: list[str] = []
    got: dict = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["country"], row["variable"], row["horizon"], row["method"])
        cell = got.setdefault(key, {"n": int(row["n"])})
        cell[(row["level"], row["metric"])] = float(row["value"])
        if cell["n"] != int(row["n"]):
            _problem(problems, f"report.csv {key}: inconsistent n")
    if set(got) != set(cells):
        _problem(problems, f"report.csv cells differ: missing {sorted(set(cells) - set(got))[:3]}, "
                           f"extra {sorted(set(got) - set(cells))[:3]}")
    for key in sorted(set(got) & set(cells)):
        want, have = cells[key], got[key]
        if set(want) != set(have):
            _problem(problems, f"report.csv {key}: metrics differ")
            continue
        for metric, value in want.items():
            if metric == "n":
                ok = have["n"] == value
            else:
                ok = close(have[metric], value, 1e-9)
            if not ok:
                _problem(problems, f"report.csv {key} {metric}: {have[metric]} expected {value}")
    return problems


def check_report_command(text: str, cells: dict) -> list[str]:
    """The ``report`` re-render must agree with the aggregation, cell by cell."""
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["country", "variable", "horizon", "method", "mean_wis", "n"]:
        return ["report output has no header"]
    got = {tuple(r[:4]): (float(r[4]), int(r[5])) for r in rows[1:] if r}
    missing = sorted(set(cells) - set(got))
    if missing:
        _problem(problems, f"report output lacks {len(missing)} cells, e.g. {missing[0]}")
    wrong = [
        key for key in sorted(set(got) & set(cells))
        if got[key][1] != cells[key]["n"] or not close(got[key][0], cells[key][("", "wis")], 1e-9)
    ]
    for key in wrong[:3]:
        _problem(problems, f"report output {key}: n={got[key][1]} mean_wis={got[key][0]}, "
                           f"expected n={cells[key]['n']} mean_wis={cells[key][('', 'wis')]}")
    if wrong:
        _problem(problems, f"report output disagrees on {len(wrong)} of {len(got)} cells")
    for key in sorted(set(got) - set(cells))[:3]:
        _problem(problems, f"report output has unexpected cell {key}")
    return problems


def coverage(audit: list[dict], levels) -> dict[float, float]:
    """Share of scored outcomes inside their interval, by level."""
    return {
        tau: sum(r["intervals"][str(tau)]["lower"] <= r["outcome"] <= r["intervals"][str(tau)]["upper"]
                 for r in audit) / len(audit)
        for tau in levels
    }


def check_calibration(audit: list[dict], spec: Spec, tolerance: float = 0.05, minimum: int = 1000) -> list[str]:
    """Empirical coverage within ``tolerance`` of nominal at every level."""
    if len(audit) < minimum:
        return [f"only {len(audit)} scored forecasts, need {minimum}"]
    return [
        f"coverage {cov:.4f} at level {tau} over {len(audit)} forecasts"
        for tau, cov in coverage(audit, spec.levels).items()
        if abs(cov - tau) > tolerance
    ]


# -- forecast files ----------------------------------------------------------
FORECAST_HEADER = ["country", "variable", "origin_year", "origin_season", "target_year",
                   "level", "lower", "upper", "point", "method", "generated_at"]


def check_forecast_file(text: str, origin: tuple[int, int], oracle: Oracle) -> list[str]:
    """Every row recomputed; widths never shrink across horizons and
    intervals nest across levels; one input digest throughout."""
    spec = oracle.spec
    problems: list[str] = []
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != FORECAST_HEADER:
        return ["forecast file header differs"]
    rows = rows[1:]
    expected = []
    for method in spec.methods:
        for target in sorted(oracle.rec.targets):
            cells, _ = oracle.grid(method, target, origin)
            for h in sorted(cells):
                point, year, fo, _years, _raw, pooled = cells[h]
                for k, tau in enumerate(spec.levels):
                    expected.append((target, fo, year, tau, point + pooled[k][0], point + pooled[k][1], point, method, h))
    if len(rows) != len(expected):
        _problem(problems, f"{len(rows)} rows, expected {len(expected)}")
    tags = {r[10] for r in rows}
    if len(tags) != 1 or not TAG.fullmatch(next(iter(tags))):
        _problem(problems, f"generated_at tags {sorted(tags)[:3]}")
    widths: dict = {}
    for row, (target, fo, year, tau, lo, up, point, method, h) in zip(rows, expected):
        head = (target[0], target[1], str(fo[0]), SEASON_TOKEN[fo[1]], str(year), method)
        if (row[0], row[1], row[2], row[3], row[4], row[9]) != head or not close(float(row[5]), tau, 1e-12):
            _problem(problems, f"row {row[:6]} expected {head} level {tau}")
            continue
        lower, upper, got_point = float(row[6]), float(row[7]), float(row[8])
        if not (close(lower, lo, 1e-9) and close(upper, up, 1e-9) and close(got_point, point, 1e-9)):
            _problem(problems, f"row {row[:6]} level {tau}: [{lower}, {upper}] point {got_point}, "
                               f"expected [{lo}, {up}] point {point}")
        widths.setdefault((method, target), {}).setdefault(tau, []).append((h, lower, upper))
    # Values carry ten significant digits, so compare within the rounding of
    # the four numbers involved.
    def slack(*values):
        return 4e-9 * max(1.0, *(abs(v) for v in values))

    for key, per_level in widths.items():
        for tau, cells in per_level.items():
            for (ha, la, ua), (hb, lb, ub) in zip(cells, cells[1:]):
                if ub - lb < ua - la - slack(la, ua, lb, ub):
                    _problem(problems, f"{key}: width shrinks from {HORIZON_LABELS[ha]} to "
                                       f"{HORIZON_LABELS[hb]} at level {tau}")
        for low, high in zip(spec.levels, spec.levels[1:]):
            for (_, la, ua), (_, lb, ub) in zip(per_level.get(low, []), per_level.get(high, [])):
                if lb > la + slack(la, lb) or ub < ua - slack(ua, ub):
                    _problem(problems, f"{key}: level {high} does not contain level {low}")
    return problems


# -- tuning -----------------------------------------------------------------
def training_view(rec: Record, spec: Spec) -> Record:
    """The record as tuning may see it: origins up to the end of the
    training span, releases up to the fall after it."""
    cutoff = (spec.train[1] + 1, FALL)
    view = Record(targets=rec.targets, first_year=rec.first_year)
    view.forecasts = {k: v for k, v in rec.forecasts.items() if k[2] <= spec.train[1]}
    view.vintages = {
        k: {v: x for v, x in rel.items() if v <= cutoff} for k, rel in rec.vintages.items()
    }
    return view


def check_tuning(tuning: dict, csv_text: str, rec: Record, spec: Spec,
                 grid: list[tuple[int, bool]]) -> list[str]:
    """Every grid row recomputed on the training view: its n (which must be
    equal across the grid within each variable and horizon), mean WIS and
    coverage. ``grid`` lists (window, directional) pairs in run order."""
    problems: list[str] = []
    view = training_view(rec, spec)
    cutoff = (spec.train[1] + 1, FALL)
    largest = max(w for w, _ in grid)
    rows = tuning["rows"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(csv_rows) != len(rows):
        _problem(problems, f"tuning.csv has {len(csv_rows)} rows, tuning.json {len(rows)}")
    variables = sorted({v for _, v in rec.targets})
    keys = [(w, d, v, h) for w, d in grid for v in variables for h in range(4)]
    if len(rows) != len(keys):
        _problem(problems, f"tuning has {len(rows)} rows, expected {len(keys)}")
    n_by_cell: dict = {}
    oracles = {d: Oracle(view, Spec(**{**spec.__dict__, "directional": d})) for d in (False, True)}
    for row, crow, (w, d, v, h) in zip(rows, csv_rows, keys):
        where = f"window {w} {'directional' if d else 'absolute'} {v} {HORIZON_LABELS[h]}"
        if (row["window"], row["error_method"], row["variable"], row["horizon"]) != (
            w, "directional" if d else "absolute", v, HORIZON_LABELS[h]
        ):
            _problem(problems, f"{where}: row {row['window']} {row['error_method']} {row['variable']} {row['horizon']}")
            continue
        if int(crow["n"]) != row["n"]:
            _problem(problems, f"{where}: tuning.csv n {crow['n']} differs from tuning.json {row['n']}")
        n_by_cell.setdefault((v, h), set()).add(row["n"])
        oracle = oracles[d]
        wis_values, hits = [], [0] * len(spec.levels)
        for target in (t for t in rec.targets if t[1] == v):
            for year in range(spec.train[0], spec.train[1] + 1):
                fo = origin_for(h, year)
                point = oracle.point("imf", target, fo, year)
                outcome = oracle.evaluation_truth(target, year, cutoff)
                if point is None or outcome is None:
                    continue
                if oracle.window("imf", target, h, year, fo, largest) is None:
                    continue
                _years, errors = oracle.window("imf", target, h, year, fo, w)
                ivs = [(point + lo, point + up) for lo, up in oracle.offsets(errors)]
                wis_values.append(wis(ivs, outcome, spec.levels))
                for k, (lo, up) in enumerate(ivs):
                    hits[k] += lo <= outcome <= up
        n = len(wis_values)
        if row["n"] != n:
            _problem(problems, f"{where}: n {row['n']} expected {n}")
            continue
        if n and not close(row["mean_wis"], sum(wis_values) / n, 1e-12):
            _problem(problems, f"{where}: mean_wis {row['mean_wis']} expected {sum(wis_values) / n}")
        for k, tau in enumerate(spec.levels):
            got = row["coverage"].get(str(tau))
            if n and (got is None or not close(got, hits[k] / n, 1e-12)):
                _problem(problems, f"{where}: coverage {got} at {tau} expected {hits[k] / n}")
    for (v, h), ns in sorted(n_by_cell.items()):
        if len(ns) != 1:
            _problem(problems, f"{v} {HORIZON_LABELS[h]}: n differs across the grid: {sorted(ns)}")
    return problems

