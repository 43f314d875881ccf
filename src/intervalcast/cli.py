"""Command-line interface.

Subcommands: ``ingest`` (validate and canonicalize a panel), ``tune`` (grid
search on the training span), ``backtest`` (hold-out evaluation), ``forecast``
(interval files for one origin), ``report`` (rebuild the backtest's report
from a stored audit trail and its ``run.json``). Exit codes: 0 success, 1
validation failure, 2 partial output with a gaps manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Any, NoReturn, Optional

from intervalcast.domain import POOLED, ReleaseDate, Season
from intervalcast.errorsets import ErrorMethod
from intervalcast.ingest import ForecastPanel, csv_text, parse_forecast_panel, parse_quarterly, read_input
from intervalcast.pipeline import (
    RunConfig,
    evaluation_report,
    gaps_json,
    load_config,
    produce_forecast,
    run_backtest,
    run_tuning,
    write_backtest_outputs,
    write_outputs,
)
from intervalcast.scoring import check_rows


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one ``error:`` line, as other bad input does."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


# The config flags in ``--help`` order, each with its dest as its config key.
_FLAGS: dict[str, dict[str, Any]] = {
    "--config": {"help": "JSON config file; flags override it"},
    "--data": {"help": "forecast/realization panel CSV"},
    "--quarterly-data": {"help": "quarterly benchmark CSV"},
    "--out": {"help": "output directory"},
    "--levels": {"help": "comma-separated confidence levels, e.g. 0.5,0.8"},
    "--window": {"help": "rolling window length R"},
    "--error-method": {"help": "absolute or directional"},
    "--quantile-method": {"help": "type1 (inverse-ecdf) or type7 (linear)"},
    "--train-span": {"help": "e.g. 1990-2012"},
    "--holdout-span": {"help": "e.g. 2013-2023"},
    "--methods": {"help": "comma-separated subset of imf,ar,external"},
    "--exclude": {"help": "comma-separated COUNTRY:FIRST-LAST spans"},
    "--external-forecasts": {},
}


def _config_from_args(args: argparse.Namespace, config_path: Optional[str] = None) -> RunConfig:
    """The config of ``--config`` (else ``config_path``) with the flags given
    as overrides; each flag's ``dest`` is its config key."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(args.config or config_path, **overrides)


def _load_panel(path: Optional[str]) -> ForecastPanel:
    if not path:
        raise ValueError("--data (or config 'data') is required")
    return read_input(path, lambda fh: parse_forecast_panel(fh, source=path))


def _inputs(config: RunConfig) -> tuple[ForecastPanel, Optional[dict], Optional[ForecastPanel]]:
    """The panel, quarterly series and external panel that ``config`` names, read in that order."""
    panel = _load_panel(config.data)
    quarterly = read_input(config.quarterly_data, parse_quarterly) if config.quarterly_data else None
    return panel, quarterly, _load_panel(config.external_forecasts) if config.external_forecasts else None


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel = _load_panel(config.data)
    write_outputs(config.out, [("panel_canonical.csv", panel.to_canonical_csv())])
    summary = {
        "forecasts": len(panel.forecasts),
        "realizations": len(panel.realizations),
        "skipped_rows": [{"line": line, "reason": reason} for line, reason in panel.skipped],
        "countries": panel.countries(),
        "variables": panel.variables(),
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel = _load_panel(config.data)
    windows = list(range(4, 12))
    if args.grid_windows is not None:  # an empty value is a bad value, not an absent one
        try:
            windows = [int(v) for v in args.grid_windows.split(",")]
        except ValueError:
            raise ValueError(f"--grid-windows takes comma-separated integers, got {args.grid_windows!r}") from None
    grid = [(w, em, config.quantile_method) for w in windows for em in ErrorMethod]
    report = run_tuning(config, panel, grid)
    write_outputs(config.out, [("tuning.csv", report.to_csv()), ("tuning.json", report.to_json())])
    print(f"tuning report written to {config.out} ({len(report.rows)} cells)")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel, quarterly, external = _inputs(config)
    result = run_backtest(config, panel, quarterly=quarterly, external=external)
    paths = write_backtest_outputs(result, config.out)
    print(f"backtest: {len(result.audit)} scored forecasts, outputs: {', '.join(paths)}")
    return 2 if result.gaps else 0


def cmd_forecast(args: argparse.Namespace) -> int:
    origin = ReleaseDate(args.origin_year, Season.parse(args.origin_season))
    config = _config_from_args(args)
    panel, quarterly, external = _inputs(config)
    text, gaps = produce_forecast(config, panel, origin, quarterly=quarterly, external=external)
    out_path, _ = write_outputs(config.out, [
        (f"intervals_{origin}.csv", text), (f"gaps_{origin}.json", gaps_json(gaps)),
    ])
    print(f"forecast file written to {out_path}")
    return 2 if gaps else 0


def cmd_report(args: argparse.Namespace) -> int:
    """Print the mean-WIS cells of the backtest's report, rebuilt from its
    audit trail and the ``run.json`` next to it (or ``--config``).

    An audit trail without either, written before ``run.json`` existed,
    re-renders as it always did: the per-target cells of every row, with no
    exclusions and no pooled cells, and a warning that the run's config is
    unknown."""
    audit_path = args.audit or os.path.join(_config_from_args(args).out, "audit.json")
    rows = read_input(audit_path, json.load)
    if not isinstance(rows, list):
        raise ValueError(f"{audit_path}: an audit must be an array of objects, not {type(rows).__name__}")
    run_json = os.path.join(os.path.dirname(audit_path), "run.json")
    known = bool(args.config) or os.path.exists(run_json)
    config = _config_from_args(args, run_json if known else None)
    check_rows(rows, config.levels)
    if not known:
        print(f"warning: no {run_json}; printing per-target cells of every audit row, "
              "without the run's exclusions or pooled cells", file=sys.stderr)
    cells = sorted(evaluation_report(rows, config).cells.items())
    print(csv_text(["country", "variable", "horizon", "method", "mean_wis", "n"], (
        [*key, format(stats.mean_wis, ".10g"), stats.n] for key, stats in cells if known or key[0] != POOLED
    )), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intervalcast",
        description="Calibrated prediction intervals from past forecast errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every, ingest, spans = tuple(_FLAGS), ("--config", "--data", "--out"), ("--train-span", "--holdout-span")
    commands = {}
    # Each command registers only the config flags it reads.
    for name, func, flags, summary in (
        ("ingest", cmd_ingest, ingest, "validate and canonicalize a panel CSV"),
        ("tune", cmd_tune, (*ingest, "--levels", "--quantile-method", *spans),
         "tuning-grid evaluation on the training span"),
        ("backtest", cmd_backtest, every, "hold-out evaluation"),
        ("forecast", cmd_forecast, [f for f in every if f not in (*spans, "--exclude")],
         "produce interval files for one origin"),
        ("report", cmd_report, ("--config", "--out", "--levels", "--exclude"),
         "re-render the report from a stored audit trail"),
    ):
        command = commands[name] = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
    commands["tune"].add_argument("--grid-windows", dest="grid_windows",
                                  help="comma-separated window lengths (default 4..11)")
    commands["forecast"].add_argument("--origin-year", dest="origin_year", type=int, required=True)
    commands["forecast"].add_argument("--origin-season", dest="origin_season", required=True,
                                      help="S (spring) or F (fall)")
    commands["report"].add_argument("--audit", help="path to audit.json (default <out>/audit.json); "
                                    "the run's config is read from run.json beside it")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
