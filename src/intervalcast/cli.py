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
from typing import NoReturn, Optional

from intervalcast.domain import ReleaseDate, Season
from intervalcast.errorsets import ErrorMethod
from intervalcast.ingest import ForecastPanel, parse_forecast_panel, parse_quarterly
from intervalcast.pipeline import (
    RunConfig,
    evaluation_report,
    load_config,
    produce_forecast,
    run_backtest,
    run_tuning,
    write_backtest_outputs,
)
from intervalcast.scoring import POOLED, check_rows


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one ``error:`` line, as other bad input does."""

    def error(self, message: str) -> NoReturn:
        self.exit(1, f"error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--data", help="forecast/realization panel CSV")
    parser.add_argument("--quarterly-data", dest="quarterly_data", help="quarterly benchmark CSV")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--levels", help="comma-separated confidence levels, e.g. 0.5,0.8")
    parser.add_argument("--window", type=int, help="rolling window length R")
    parser.add_argument("--error-method", dest="error_method", choices=["absolute", "directional"])
    parser.add_argument(
        "--quantile-method", dest="quantile_method",
        choices=["type1", "type7", "inverse-ecdf", "linear"],
    )
    parser.add_argument("--train-span", dest="train_span", help="e.g. 1990-2012")
    parser.add_argument("--holdout-span", dest="holdout_span", help="e.g. 2013-2023")
    parser.add_argument("--methods", help="comma-separated subset of imf,ar,external")
    parser.add_argument("--exclude", help="comma-separated COUNTRY:FIRST-LAST spans")
    parser.add_argument("--external-forecasts", dest="external_forecasts")


def _config_from_args(args: argparse.Namespace, config_path: Optional[str] = None) -> RunConfig:
    """The config of ``--config`` (else ``config_path``) with the flags given
    as overrides; each flag's ``dest`` is its config key."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(args.config or config_path, **overrides)


def _load_panel(path: Optional[str]) -> ForecastPanel:
    if not path:
        raise SystemExit("error: --data (or config 'data') is required")
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_forecast_panel(fh, source=path)


def _load_quarterly(path: Optional[str]):
    if not path:
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_quarterly(fh)


def _load_external(path: Optional[str]) -> Optional[ForecastPanel]:
    return _load_panel(path) if path else None


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel = _load_panel(config.data)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, "panel_canonical.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(panel.to_canonical_csv())
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
    if args.grid_windows:
        try:
            windows = [int(v) for v in args.grid_windows.split(",")]
        except ValueError:
            raise ValueError(f"--grid-windows takes comma-separated integers, got {args.grid_windows!r}") from None
    grid = [(w, em, config.quantile_method) for w in windows for em in ErrorMethod]
    report = run_tuning(config, panel, grid)
    os.makedirs(config.out, exist_ok=True)
    for name, text in (("tuning.csv", report.to_csv()), ("tuning.json", report.to_json())):
        with open(os.path.join(config.out, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"tuning report written to {config.out} ({len(report.rows)} cells)")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel = _load_panel(config.data)
    quarterly = _load_quarterly(config.quarterly_data)
    external = _load_external(config.external_forecasts)
    result = run_backtest(config, panel, quarterly=quarterly, external=external)
    paths = write_backtest_outputs(result, config.out)
    print(f"backtest: {len(result.audit)} scored forecasts, outputs: {', '.join(paths)}")
    return 2 if result.gaps else 0


def cmd_forecast(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    panel = _load_panel(config.data)
    quarterly = _load_quarterly(config.quarterly_data)
    external = _load_external(config.external_forecasts)
    origin = ReleaseDate(args.origin_year, Season.parse(args.origin_season))
    text, gaps = produce_forecast(config, panel, origin, quarterly=quarterly, external=external)
    os.makedirs(config.out, exist_ok=True)
    out_path = os.path.join(config.out, f"intervals_{origin}.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    manifest_path = os.path.join(config.out, f"gaps_{origin}.json")
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(sorted(gaps), indent=2) + "\n")
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
    with open(audit_path, encoding="utf-8") as fh:
        try:
            rows = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValueError(f"{audit_path}: {exc}") from None
    if not isinstance(rows, list):
        raise ValueError(f"{audit_path}: an audit must be an array of objects, not {type(rows).__name__}")
    run_json = os.path.join(os.path.dirname(audit_path), "run.json")
    known = bool(args.config) or os.path.exists(run_json)
    config = _config_from_args(args, run_json if known else None)
    check_rows(rows, config.levels)
    if not known:
        print(f"warning: no {run_json}; printing per-target cells of every audit row, "
              "without the run's exclusions or pooled cells", file=sys.stderr)
    report = evaluation_report(rows, config)
    lines = ["country,variable,horizon,method,mean_wis,n"]
    for key, stats in sorted(report.cells.items()):
        if known or key[0] != POOLED:
            lines.append(",".join([*key, format(stats.mean_wis, ".10g"), str(stats.n)]))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intervalcast",
        description="Calibrated prediction intervals from past forecast errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate and canonicalize a panel CSV")
    _add_common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_tune = sub.add_parser("tune", help="tuning-grid evaluation on the training span")
    _add_common(p_tune)
    p_tune.add_argument("--grid-windows", dest="grid_windows",
                        help="comma-separated window lengths (default 4..11)")
    p_tune.set_defaults(func=cmd_tune)

    p_backtest = sub.add_parser("backtest", help="hold-out evaluation")
    _add_common(p_backtest)
    p_backtest.set_defaults(func=cmd_backtest)

    p_forecast = sub.add_parser("forecast", help="produce interval files for one origin")
    _add_common(p_forecast)
    p_forecast.add_argument("--origin-year", dest="origin_year", type=int, required=True)
    p_forecast.add_argument("--origin-season", dest="origin_season", required=True,
                            choices=["S", "F"])
    p_forecast.set_defaults(func=cmd_forecast)

    p_report = sub.add_parser("report", help="re-render the report from a stored audit trail")
    _add_common(p_report)
    p_report.add_argument("--audit", help="path to audit.json (default <out>/audit.json); "
                          "the run's config is read from run.json beside it")
    p_report.set_defaults(func=cmd_report)

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
