"""Seeded synthetic inputs for the benchmark workloads.

Each generator returns the CSV texts the program parses together with a
``Record`` of every value written. The checks recompute the program's outputs
from the record alone, so the record holds exactly what the CSV says (values
are written with ``repr`` and read back bit for bit).

Which rows are missing or revised never depends on the seed: the seed only
moves values. Every seed therefore drives the same control flow, the same
operation counts and the same failures.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

G7 = ("CAN", "DEU", "FRA", "GBR", "ITA", "JPN", "USA")
SPRING, FALL = 0, 1
SEASON_TOKEN = {SPRING: "S", FALL: "F"}
# (season, year offset) in horizon order, shortest first, as the program
# orders them; labels as they appear in its outputs.
HORIZONS = ((FALL, 0), (SPRING, 0), (FALL, 1), (SPRING, 1))
HORIZON_LABELS = ("fall-current", "spring-current", "fall-next", "spring-next")
PANEL_HEADER = (
    "country,variable,kind,origin_year,origin_season,target_year,"
    "vintage_year,vintage_season,value\n"
)
QUARTERLY_HEADER = "country,variable,year,quarter,value\n"


@dataclass
class Record:
    """What the generator wrote, keyed the way the checks look it up.

    ``forecasts``: (country, variable, origin_year, origin_season, target_year)
    -> value, with seasons as 0 (spring) / 1 (fall).
    ``vintages``: (country, variable, target_year) -> {(vintage_year, season):
    value}.
    ``quarterly``: (country, variable) -> (first (year, quarter), growth values
    in percent as the program derives them from the written rows).
    """

    targets: list[tuple[str, str]]
    first_year: int
    forecasts: dict[tuple[str, str, int, int, int], float] = field(default_factory=dict)
    vintages: dict[tuple[str, str, int], dict[tuple[int, int], float]] = field(
        default_factory=dict
    )
    quarterly: dict[tuple[str, str], tuple[tuple[int, int], list[float]]] = field(
        default_factory=dict
    )


def origin_for(horizon: int, target_year: int) -> tuple[int, int]:
    """Forecast origin (year, season) of ``target_year`` at ``horizon``."""
    season, offset = HORIZONS[horizon]
    return (target_year - offset, season)


def missing_forecasts(targets: list[tuple[str, str]]) -> dict[tuple[str, str], tuple[int, int]]:
    """One pre-holdout (horizon, target year) gap per target, fixed by position."""
    return {t: (i % 4, 1998 + (3 * i) % 13) for i, t in enumerate(targets)}


# Years whose first fall release is withheld; a later spring release revises
# them instead, so error windows must fall back to the latest release.
FALLBACK_YEARS = (1996, 2004)


def make_panel(
    seed: int,
    countries: tuple[str, ...] = G7,
    variables: tuple[str, ...] = ("gdp", "cpi"),
    first_year: int = 1975,
    last_year: int = 2023,
    sigmas: tuple[float, ...] = (0.4, 0.8, 1.2, 1.6),
    revised: bool = True,
) -> tuple[str, Record]:
    """Forecast/realization panel CSV and its record.

    Truths are i.i.d. Gaussian; forecasts are truth minus a Gaussian error
    whose scale grows with the horizon. With ``revised`` the spring release
    differs from the fall release, some pre-holdout forecasts are missing
    (half written as ``NA``, half left out) and ``FALLBACK_YEARS`` lack their
    first fall release.
    """
    rng = np.random.default_rng(seed)
    targets = [(c, v) for c in countries for v in variables]
    rec = Record(targets=targets, first_year=first_year)
    gaps = missing_forecasts(targets) if revised else {}
    out = io.StringIO()
    out.write(PANEL_HEADER)
    for i, (country, variable) in enumerate(targets):
        loc = 2.0 if variable == "gdp" else 2.5
        for year in range(first_year, last_year + 2):
            truth = float(rng.normal(loc, 1.5))
            errors = rng.normal(0.0, sigmas)
            for h in range(4):
                oy, os_ = origin_for(h, year)
                if not first_year <= oy <= last_year:
                    continue
                value = truth - float(errors[h])
                if gaps.get((country, variable)) == (h, year):
                    if i % 2 == 0:
                        out.write(f"{country},{variable},forecast,{oy},{SEASON_TOKEN[os_]},{year},NA,NA,NA\n")
                    continue
                rec.forecasts[(country, variable, oy, os_, year)] = value
                out.write(
                    f"{country},{variable},forecast,{oy},{SEASON_TOKEN[os_]},{year},NA,NA,{value!r}\n"
                )
            if year > last_year:
                continue
            spring = truth + float(rng.normal(0.0, 0.3)) if revised else truth
            releases = {(year + 1, SPRING): spring, (year + 1, FALL): truth}
            if revised and year in FALLBACK_YEARS:
                del releases[(year + 1, FALL)]
                releases[(year + 2, SPRING)] = truth + float(rng.normal(0.0, 0.1))
            rec.vintages[(country, variable, year)] = releases
            for (vy, vs), value in releases.items():
                out.write(
                    f"{country},{variable},realization,NA,NA,{year},{vy},{SEASON_TOKEN[vs]},{value!r}\n"
                )
    return out.getvalue(), rec


def make_quarterly(
    seed: int, rec: Record, first_year: int = 1970, last_year: int = 2023
) -> str:
    """Quarterly AR(1) data for every target of ``rec``: ``gdp`` as growth
    rates, ``cpi`` as index levels. Stores the growth the program will derive
    in ``rec.quarterly`` (for ``cpi``, log growth of the written levels, so
    the first quarter drops out)."""
    rng = np.random.default_rng([seed, 1])
    out = io.StringIO()
    out.write(QUARTERLY_HEADER)
    n = 4 * (last_year - first_year + 1)
    for country, variable in rec.targets:
        mean, phi = (0.5, 0.4) if variable == "gdp" else (0.6, 0.6)
        g = np.empty(n)
        x = mean
        for k in range(n):
            x = mean + phi * (x - mean) + float(rng.normal(0.0, 0.5))
            g[k] = x
        quarters = [(first_year + k // 4, k % 4 + 1) for k in range(n)]
        if variable == "cpi":
            levels = [100.0]
            for k in range(1, n):
                levels.append(levels[-1] * math.exp(g[k] / 100.0))
            written = levels
            growth = [100.0 * math.log(b / a) for a, b in zip(levels, levels[1:])]
            rec.quarterly[(country, variable)] = (quarters[1], growth)
        else:
            written = [float(v) for v in g]
            rec.quarterly[(country, variable)] = (quarters[0], written)
        for (y, q), value in zip(quarters, written):
            out.write(f"{country},{variable},{y},{q},{value!r}\n")
    return out.getvalue()
