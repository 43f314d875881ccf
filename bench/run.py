"""Benchmark of the intervalcast pipeline.

    python3 bench/run.py --workload paper|tune|wide --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, imports ``intervalcast`` from
``src/`` of the checkout the script lives in, and drives its public API in
this one process. Whole rounds run until ``--seconds`` have passed; each
round imports the package afresh and parses the inputs (timed as set-up),
then runs the workload's commands (timed from the parsed panels to the last
output file written). Means over the rounds are reported. The outputs of
the first round are checked against values recomputed from the generator's
record (see ``checks.py``); later rounds must write byte-identical files. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``. A traced run alternates wrapped and unwrapped rounds and
reports the difference as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("ingest", "errorsets", "intervals", "scoring", "benchmark", "pipeline", "cli")
PAPER_ORIGINS = [(y, s) for y in range(2013, 2024) for s in (gen.SPRING, gen.FALL)]
TUNE_GRID = [(w, d) for w in range(4, 12) for d in (False, True)]


@dataclass
class Workload:
    """One benchmark workload: what it generates, how it configures the
    program, what one round runs, and how its outputs are checked."""

    generate: Callable[[int], tuple[dict[str, str], gen.Record]]
    spec: checks.Spec
    config: dict
    run: Callable  # (ic, data, config, out_dir, tracer) -> {op name: [output files]}
    check: Callable  # (out_dir, record, spec) -> ({op name: problems}, intervals delivered)
    known_failing: tuple[str, ...] = ()


# -- inputs -------------------------------------------------------------------
def paper_inputs(seed: int):
    panel, rec = gen.make_panel(seed)
    return {"panel.csv": panel, "quarterly.csv": gen.make_quarterly(seed, rec)}, rec


def tune_inputs(seed: int):
    # One country keeps a round near three seconds, so a run holds about ten
    # of them; the grid is the subcommand's default, whose repeated
    # feasibility builds are the point.
    panel, rec = gen.make_panel(seed, countries=gen.G7[:1])
    return {"panel.csv": panel}, rec


def wide_inputs(seed: int):
    countries = tuple(f"W{i:02d}" for i in range(20))
    panel, rec = gen.make_panel(
        seed, countries=countries, variables=("gdp",), first_year=1940,
        sigmas=(0.5, 0.75, 1.0, 1.25), revised=False,
    )
    return {"panel.csv": panel}, rec


# -- rounds -------------------------------------------------------------------
def _write(out: Path, name: str, text: str) -> Path:
    path = out / name
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_paper(ic, data, config, out: Path, tracer):
    p = ic.pipeline
    # The published forecast files carry intervals around the IMF forecasts;
    # the AR(1) benchmark appears only in the backtest.
    forecast_config = replace(config, methods=("imf",))
    result = p.run_backtest(config, data["panel.csv"], quarterly=data["quarterly.csv"])
    ops = {"backtest": [Path(x) for x in p.write_backtest_outputs(result, str(out))]}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ic.cli.main(["report", "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"report exited {code}")
    with _span(tracer, "write_files"):
        ops["report"] = [_write(out, "report_cli.csv", buf.getvalue())]
    for year, season in PAPER_ORIGINS:
        origin = ic.domain.ReleaseDate(year, ic.domain.Season.parse(gen.SEASON_TOKEN[season]))
        text, _gaps = p.produce_forecast(forecast_config, data["panel.csv"], origin)
        with _span(tracer, "write_files"):
            ops[f"forecast {origin}"] = [_write(out, f"intervals_{origin}.csv", text)]
    return ops


def run_tune(ic, data, config, out: Path, tracer):
    method = ic.errorsets.ErrorMethod
    grid = [(w, method.DIRECTIONAL if d else method.ABSOLUTE, config.quantile_method) for w, d in TUNE_GRID]
    report = ic.pipeline.run_tuning(config, data["panel.csv"], grid)
    with _span(tracer, "write_files"):
        files = [_write(out, "tuning.csv", report.to_csv()), _write(out, "tuning.json", report.to_json())]
    return {"tune": files}


def run_wide(ic, data, config, out: Path, tracer):
    p = ic.pipeline
    result = p.run_backtest(config, data["panel.csv"])
    return {"backtest": [Path(x) for x in p.write_backtest_outputs(result, str(out))]}


# -- checks -------------------------------------------------------------------
def _read(path: Path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_backtest(out: Path, rec, spec):
    audit = json.loads(_read(out / "audit.json"))
    oracle = checks.Oracle(rec, spec)
    problems = checks.check_audit(audit, oracle)
    cells = checks.expected_cells(audit, spec)
    problems += checks.check_report_csv(_read(out / "report.csv"), cells)
    gaps = json.loads(_read(out / "gaps.json"))
    if gaps:
        problems.append(f"{len(gaps)} gaps, expected none: {gaps[0]}")
    return audit, oracle, cells, problems


def check_paper(out: Path, rec, spec):
    audit, oracle, cells, problems = _check_backtest(out, rec, spec)
    result = {"backtest": problems, "report": checks.check_report_command(_read(out / "report_cli.csv"), cells)}
    delivered = len(audit) * len(spec.levels)
    forecast_oracle = checks.Oracle(oracle.rec, replace(spec, methods=("imf",)))
    for year, season in PAPER_ORIGINS:
        name = f"{year}{gen.SEASON_TOKEN[season]}"
        text = _read(out / f"intervals_{name}.csv")
        result[f"forecast {name}"] = checks.check_forecast_file(text, (year, season), forecast_oracle)
        delivered += text.count("\n") - 1
    return result, delivered


def check_tune(out: Path, rec, spec):
    tuning = json.loads(_read(out / "tuning.json"))
    problems = checks.check_tuning(tuning, _read(out / "tuning.csv"), rec, spec, TUNE_GRID)
    return {"tune": problems}, sum(r["n"] for r in tuning["rows"]) * len(spec.levels)


def check_wide(out: Path, rec, spec):
    audit, _oracle, _cells, problems = _check_backtest(out, rec, spec)
    # Reported, not gated: joint pooling over the nine levels lifts coverage
    # at levels 0.2-0.6 by up to 0.04 on average over seeds, so the 0.05
    # tolerance is crossed on some seeds (seed 105: 0.4504 at level 0.4).
    # A check that fails on some seeds only cannot tell a fault from chance.
    cov = checks.coverage(audit, spec.levels)
    print("wide coverage by level: " + " ".join(f"{tau}:{c:.4f}" for tau, c in cov.items()), file=sys.stderr)
    for text in checks.check_calibration(audit, spec):
        print(f"wide calibration (not gated): {text}", file=sys.stderr)
    return {"backtest": problems}, len(audit) * len(spec.levels)


WIDE_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 10))
WORKLOADS = {
    "paper": Workload(
        generate=paper_inputs,
        spec=checks.Spec(methods=("imf", "ar"), exclude=(("JPN", 2021, 2023),)),
        config=dict(methods="imf,ar", window=11, levels=[0.5, 0.8], holdout_span="2013-2023",
                    exclude="JPN:2021-2023"),
        run=run_paper,
        check=check_paper,
        # ``intervalcast report`` re-averages audit.json itself: it ignores the
        # exclusions and emits no pooled cells, so it disagrees with report.csv.
        known_failing=("report",),
    ),
    "tune": Workload(
        generate=tune_inputs,
        spec=checks.Spec(),
        config=dict(train_span="1990-2012"),
        run=run_tune,
        check=check_tune,
    ),
    "wide": Workload(
        generate=wide_inputs,
        spec=checks.Spec(window=49, levels=WIDE_LEVELS, directional=True, quantile="inverted_cdf",
                         train=(1940, 1991), holdout=(1992, 2023)),
        config=dict(window=49, levels=list(WIDE_LEVELS), error_method="directional",
                    quantile_method="type1", train_span="1940-1991", holdout_span="1992-2023"),
        run=run_wide,
        check=check_wide,
    ),
}


# -- harness ------------------------------------------------------------------
def setup(paths: dict[str, Path], tracer):
    """Import intervalcast afresh and parse the inputs; returns the modules,
    the parsed data, the timed seconds and the parse seconds."""
    for name in [m for m in sys.modules if m == "intervalcast" or m.startswith("intervalcast.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("intervalcast")
    ic = SimpleNamespace(**{m: importlib.import_module(f"intervalcast.{m}") for m in MODULES + ("domain",)})
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install(ic)
    t2 = time.perf_counter()
    data = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8", newline="") as fh:
            if name == "quarterly.csv":
                data[name] = ic.ingest.parse_quarterly(fh)
            else:
                data[name] = ic.ingest.parse_forecast_panel(fh, source=str(path))
    t3 = time.perf_counter()
    return ic, data, (t1 - t0) + (t3 - t2), t3 - t2


def digest(files) -> str:
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "intervalcast" / "__init__.py").is_file():
        print(f"error: no intervalcast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)

    texts, rec = wl.generate(args.seed)
    paths = {name: _write(work / "inputs", name, text) for name, text in texts.items()}
    rows_parsed = sum(text.count("\n") - 1 for text in texts.values())
    del texts

    # Every round sets up afresh, so set-up and run times are sampled over
    # the same stretch of the run. A traced run alternates traced and
    # untraced rounds and so measures its own overhead.
    tracer = Tracer() if args.trace else None
    kinds = (tracer, None) if tracer is not None else (None,)
    setup_times, parse_times, run_times, traced_times = [], [], [], []
    layers, digests = [], []
    deadline = time.perf_counter() + args.seconds
    while len(digests) < len(kinds) or time.perf_counter() < deadline:
        round_tracer = kinds[len(digests) % len(kinds)]
        ic, data, setup_s, parse_s = setup(paths, round_tracer)
        if not Path(ic.ingest.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: intervalcast imported from {ic.ingest.__file__}, not {src}", file=sys.stderr)
            return 2
        parse_times.append(parse_s)
        if round_tracer is None:
            setup_times.append(setup_s)
        config = ic.pipeline.load_config(None, **wl.config)
        out = work / f"round{len(digests)}"
        out.mkdir()
        if round_tracer is not None:
            round_tracer.reset()
        gc.collect()
        t0 = time.perf_counter()
        ops = wl.run(ic, data, config, out, round_tracer)
        elapsed = time.perf_counter() - t0
        if round_tracer is None:
            run_times.append(elapsed)
        else:
            traced_times.append(elapsed)
            summary = round_tracer.summary()
            summary["pipeline.output_bytes"] = sum(p.stat().st_size for files in ops.values() for p in files)
            layers.append(summary)
            if len(layers) == 1:
                round_tracer.write_spans(str(work / "spans.csv"))
        digests.append({op: digest(files) for op, files in ops.items()})
        if digests[1:]:
            shutil.rmtree(out)
        del ic, data, config
        gc.collect()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results, delivered = wl.check(work / "round0", rec, wl.spec)
    correct, failed = True, 0
    for op, problems in results.items():
        for text in problems:
            print(f"{args.workload} {op}: {text}", file=sys.stderr)
        unstable = sum(d[op] != digests[0][op] for d in digests)
        if unstable:
            correct = False
            print(f"{args.workload} {op}: output differs from the first round in {unstable} rounds", file=sys.stderr)
        if problems and op in wl.known_failing:
            failed += len(digests)
        elif problems:
            correct = False
    attempted = len(results) * len(digests)
    # Means, not medians: the host's speed switches between levels for
    # seconds to minutes at a time, and a median over rounds jumps with
    # whichever level held most rounds, while the mean moves in proportion.
    run_s = statistics.fmean(run_times)

    print(f"{args.workload} seed {args.seed}: {len(digests)} rounds, run_s per untraced round "
          f"{' '.join(f'{t:.3f}' for t in run_times)}; setup_s {' '.join(f'{t:.4f}' for t in setup_times)}",
          file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.fmean(setup_times), "s"),
            "run_s": (run_s, "s"),
            "intervals_per_s": (delivered / run_s, "1/s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        traced_s = statistics.fmean(traced_times)
        print(f"traced run_s per round {' '.join(f'{t:.3f}' for t in traced_times)}", file=sys.stderr)
        metrics = {"ingest.parse_s": (statistics.median(parse_times), "s"),
                   "ingest.rows_parsed": (rows_parsed, "count")}
        for name, first in layers[0].items():
            if name.endswith(("_s", ".s")):
                metrics[name] = (statistics.median(layer[name] for layer in layers), "s")
            else:
                unit = "ratio" if name.endswith("yield") else "bytes" if name.endswith("bytes") else "count"
                metrics[name] = (first, unit)
                if any(layer[name] != first for layer in layers):
                    correct = False
                    print(f"{args.workload}: count {name} differs between traced rounds", file=sys.stderr)
        metrics["trace.traced_run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (run_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
