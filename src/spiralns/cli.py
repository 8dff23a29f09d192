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

# Config key, command line flag and help text of each config flag.
_CONFIG_FLAGS = [
    ("scenario", "--scenario", "named scenario or Custom"),
    ("runs", "--runs", "number of seeded runs in the batch"),
    ("base_seed", "--seed", "base seed; run i uses seed + i"),
    ("output_dir", "--out", "output directory"),
    ("spiral.a", "--spiral-a", "spiral scale coefficient"),
    ("spiral.alpha", "--alpha", "spiral turns parameter"),
    ("evolution.pop_size", "--pop-size", "population size"),
    ("evolution.offspring_size", "--offspring-size", "offspring per generation"),
    ("evolution.k", "--k", "nearest neighbors for novelty"),
    ("evolution.sigma", "--sigma", "mutation standard deviation"),
    ("evolution.g_max", "--g-max", "generations per run"),
    ("evolution.metric", "--metric", "euclidean or geodesic"),
    ("evolution.genotype_space", "--genotype-space", "angle or arc_length"),
    ("evolution.init_t0", "--init-t0", "initial curve parameter"),
    (
        "archive.kind",
        "--archive-kind",
        "none, unstructured_unbounded, unstructured_bounded or grid",
    ),
    ("archive.max_size", "--archive-max-size", "bound for a bounded archive"),
    (
        "archive.additions_per_generation",
        "--archive-additions",
        "archive additions per generation",
    ),
    ("archive.resolution", "--grid-resolution", "grid cells per axis"),
    ("archive.epsilon", "--grid-epsilon", "grid replacement probability"),
    ("sampling.mode", "--sampling-mode", "population_only, mixed_random or mixed_guided"),
    ("sampling.archive_fraction", "--archive-fraction", "parent slots drawn from archive"),
    ("sampling.tau", "--tau", "discovery score update rate"),
]


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for key, flag, text in _CONFIG_FLAGS:
        metavar = flag[2:].replace("-", "_").upper()
        parser.add_argument(flag, dest=key, metavar=metavar, help=text)


def _collect_items(args) -> dict:
    items = {}
    if args.config:
        with open(args.config) as fh:
            items = parse_config_items(fh.read(), f"{args.config}:")
    for key, _, _ in _CONFIG_FLAGS:
        value = getattr(args, key)
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
        for key in ("evolution.pop_size", "evolution.init_t0", "spiral.a", "spiral.alpha"):
            if key not in header:
                raise ConfigError(f"{path}: missing header key {key}")
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
