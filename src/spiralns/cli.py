"""Command line front end.

Subcommands: `run` (one seeded run), `batch` (a seeded batch with summary),
`analyze` (recompute fits and coverage from telemetry CSVs) and `plot`
(render an SVG panel from lineage CSVs).  Flags mirror the config file keys;
a config file can be combined with flags, flags winning.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .analysis import MIN_FIT_SAMPLES, fit_damped_oscillator, segment_phases
from .experiments import (
    ConfigError,
    config_from_items,
    effective_config_items,
    parse_config_items,
    read_lineage,
    read_telemetry,
    run_batch,
)
from .spiral import SpiralParams
from .svgplot import emit_svg

# flag destination -> config key
_FLAG_KEYS = {
    "scenario": "scenario",
    "runs": "runs",
    "seed": "base_seed",
    "out": "output_dir",
    "spiral_a": "spiral.a",
    "alpha": "spiral.alpha",
    "pop_size": "evolution.pop_size",
    "offspring_size": "evolution.offspring_size",
    "k": "evolution.k",
    "sigma": "evolution.sigma",
    "g_max": "evolution.g_max",
    "metric": "evolution.metric",
    "genotype_space": "evolution.genotype_space",
    "init_t0": "evolution.init_t0",
    "archive_kind": "archive.kind",
    "archive_max_size": "archive.max_size",
    "archive_additions": "archive.additions_per_generation",
    "grid_resolution": "archive.resolution",
    "grid_epsilon": "archive.epsilon",
    "sampling_mode": "sampling.mode",
    "archive_fraction": "sampling.archive_fraction",
    "tau": "sampling.tau",
}


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    parser.add_argument("--scenario", help="named scenario or Custom")
    parser.add_argument("--runs", help="number of seeded runs in the batch")
    parser.add_argument("--seed", help="base seed; run i uses seed + i")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--spiral-a", help="spiral scale coefficient")
    parser.add_argument("--alpha", help="spiral turns parameter")
    parser.add_argument("--pop-size", help="population size")
    parser.add_argument("--offspring-size", help="offspring per generation")
    parser.add_argument("--k", help="nearest neighbors for novelty")
    parser.add_argument("--sigma", help="mutation standard deviation")
    parser.add_argument("--g-max", help="generations per run")
    parser.add_argument("--metric", help="euclidean or geodesic")
    parser.add_argument("--genotype-space", help="angle or arc_length")
    parser.add_argument("--init-t0", help="initial curve parameter")
    parser.add_argument(
        "--archive-kind",
        help="none, unstructured_unbounded, unstructured_bounded or grid",
    )
    parser.add_argument("--archive-max-size", help="bound for a bounded archive")
    parser.add_argument("--archive-additions", help="archive additions per generation")
    parser.add_argument("--grid-resolution", help="grid cells per axis")
    parser.add_argument("--grid-epsilon", help="grid replacement probability")
    parser.add_argument(
        "--sampling-mode", help="population_only, mixed_random or mixed_guided"
    )
    parser.add_argument("--archive-fraction", help="parent slots drawn from archive")
    parser.add_argument("--tau", help="discovery score update rate")


def _collect_items(args) -> dict:
    items = {}
    if args.config:
        with open(args.config) as fh:
            items = parse_config_items(fh.read(), f"{args.config}:")
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is not None:
            items[key] = value
    return items


def _echo_config(config):
    for key, value in effective_config_items(config):
        print(f"# {key} = {value}")


def _cmd_run(args) -> int:
    items = _collect_items(args)
    if items.get("runs") not in (None, "1"):
        raise ConfigError("runs: the run subcommand executes exactly one run; use batch")
    items["runs"] = "1"
    config = config_from_items(items)
    _echo_config(config)
    batch = run_batch(config)
    tel = batch.telemetries[0]
    print(f"run 0 (seed {tel.seed}): final coverage {tel.final_coverage!r}")
    print(f"artifacts in {config.output_dir}")
    return 0


def _cmd_batch(args) -> int:
    config = config_from_items(_collect_items(args))
    _echo_config(config)
    batch = run_batch(config)
    for tel in batch.telemetries:
        print(f"run {tel.run_index} (seed {tel.seed}): final coverage {tel.final_coverage!r}")
    print(f"cumulative coverage {batch.cumulative.fraction!r}")
    print(f"artifacts in {config.output_dir}")
    return 0


def _expand_inputs(inputs, suffix) -> list:
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            names = sorted(n for n in os.listdir(item) if n.endswith(suffix))
            if not names:
                raise ConfigError(f"{item}: no *{suffix} files found")
            paths.extend(os.path.join(item, n) for n in names)
        else:
            paths.append(item)
    return paths


ANALYSIS_COLUMNS = [
    "file",
    "generations",
    "final_coverage",
    "fit_amplitude",
    "fit_decay",
    "fit_frequency",
    "fit_phase",
    "fit_offset",
    "fit_residual",
    "phase_count",
]


def _cmd_analyze(args) -> int:
    import csv

    paths = _expand_inputs(args.inputs, "_telemetry.csv")
    out_rows = []
    for path in paths:
        _, rows = read_telemetry(path)
        H = [row.median_delta for row in rows]
        final_coverage = rows[-1].coverage_fraction if rows else 0.0
        cells = [""] * 6
        phase_count = ""
        if len(H) >= MIN_FIT_SAMPLES:
            fit = fit_damped_oscillator(H)
            cells = [
                repr(fit.amplitude),
                repr(fit.decay),
                repr(fit.frequency),
                repr(fit.phase),
                repr(fit.offset),
                repr(fit.residual),
            ]
            phase_count = str(len(segment_phases(H)))
        out_rows.append(
            [path, str(len(H)), repr(final_coverage), *cells, phase_count]
        )
        print(f"{path}: coverage {final_coverage!r}")

    with open(args.out, "w", newline="\n") as fh:
        fh.write(f"# spiralns {__version__}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ANALYSIS_COLUMNS)
        writer.writerows(out_rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    import numpy as np

    paths = _expand_inputs(args.inputs, "_lineage.csv")
    ts_parts = []
    first_header = None
    for path in paths:
        header, entries = read_lineage(path)
        if first_header is None:
            first_header = header
        pop_size = int(header["evolution.pop_size"])
        init_t0 = float(header["evolution.init_t0"])
        ts_parts.append(np.full(pop_size, init_t0))
        ts_parts.append(np.array([e.child_t for e in entries]))
    params = SpiralParams(
        float(first_header["spiral.a"]), float(first_header["spiral.alpha"])
    )
    emit_svg(
        np.concatenate(ts_parts),
        params,
        float(first_header["evolution.init_t0"]),
        args.out,
        list(first_header.items()),
    )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiralns",
        description="Novelty-search exploration experiments on a spiral benchmark",
    )
    parser.add_argument("--version", action="version", version=f"spiralns {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded run")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="execute a batch of seeded runs")
    _add_config_flags(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_analyze = sub.add_parser(
        "analyze", help="recompute fits and coverage from telemetry CSVs"
    )
    p_analyze.add_argument("inputs", nargs="+", help="telemetry CSVs or directories")
    p_analyze.add_argument("--out", default="analysis.csv", help="output CSV path")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_plot = sub.add_parser("plot", help="render an SVG panel from lineage CSVs")
    p_plot.add_argument("inputs", nargs="+", help="lineage CSVs or directories")
    p_plot.add_argument("--out", default="panel.svg", help="output SVG path")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
