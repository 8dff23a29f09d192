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
# Unused here: bench/layers.py wraps these names on this module (analyze
# reaches them through experiments.fit_cells).
from .analysis import fit_damped_oscillator, segment_phases  # noqa: F401
from .experiments import (
    CONFIG_KEYS,
    FIT_COLUMNS,
    ConfigError,
    config_from_items,
    _write_csv,
    effective_config_items,
    final_coverage,
    fit_cells,
    parse_config_items,
    parse_value,
    read_lineage,
    read_telemetry,
    run_batch,
)
from .spiral import SpiralParams
from .svgplot import emit_svg


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="FILE", help="key = value config file")
    for row in CONFIG_KEYS:
        metavar = row.flag[2:].replace("-", "_").upper()
        parser.add_argument(row.flag, dest=row.key, metavar=metavar, help=row.help)


def _collect_items(args) -> dict:
    items = {}
    if args.config:
        with open(args.config) as fh:
            items = parse_config_items(fh.read(), f"{args.config}:")
    for row in CONFIG_KEYS:
        value = getattr(args, row.key)
        if value is not None:
            items[row.key] = value
    return items


def _echo_config(config):
    for key, value in effective_config_items(config):
        print(f"# {key} = {value}")


def _cmd_run(args) -> int:
    items = _collect_items(args)
    if parse_value("runs", items.get("runs", "1")) != 1:
        raise ConfigError("runs: the run subcommand executes exactly one run; use batch")
    items["runs"] = "1"
    config = config_from_items(items)
    _echo_config(config)
    batch = run_batch(config)
    tel = batch.telemetries[0]
    print(f"run 0 (seed {tel.seed}): final coverage {final_coverage(tel.telemetry)!r}")
    print(f"artifacts in {config.output_dir}")
    return 0


def _cmd_batch(args) -> int:
    config = config_from_items(_collect_items(args))
    _echo_config(config)
    batch = run_batch(config)
    for tel in batch.telemetries:
        final = final_coverage(tel.telemetry)
        print(f"run {tel.run_index} (seed {tel.seed}): final coverage {final!r}")
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


ANALYSIS_COLUMNS = ["file", "generations", "final_coverage", *FIT_COLUMNS]


def _cmd_analyze(args) -> int:
    paths = _expand_inputs(args.inputs, "_telemetry.csv")
    out_rows = []
    for path in paths:
        _, table = read_telemetry(path)
        final = final_coverage(table)
        try:
            cells = fit_cells(table)
        except ValueError as e:
            raise ConfigError(f"{path}: median_delta: {e}") from None
        out_rows.append([path, str(len(table)), repr(final), *cells])
        print(f"{path}: coverage {final!r}")

    _write_csv(args.out, [f"# spiralns {__version__}"], ANALYSIS_COLUMNS, out_rows)
    print(f"wrote {args.out}")
    return 0


def _header_value(path, header, key):
    if key not in header:
        raise ConfigError(f"{path}: missing header key {key}")
    try:
        return parse_value(key, header[key])
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


# Header keys that fix the curve and the start marker: every plotted file must agree on them.
_CURVE_KEYS = ("spiral.a", "spiral.alpha", "evolution.init_t0")


def _cmd_plot(args) -> int:
    import numpy as np

    paths = _expand_inputs(args.inputs, "_lineage.csv")
    ts_parts = []
    first = None
    for path in paths:
        header, columns = read_lineage(path)
        pop_size, *curve = [
            _header_value(path, header, key) for key in ("evolution.pop_size", *_CURVE_KEYS)
        ]
        if first is None:
            first = path, header, curve
        for key, value, expected in zip(_CURVE_KEYS, curve, first[2]):
            if value != expected:
                raise ConfigError(
                    f"{path}: {key} = {value!r} differs from {expected!r} in {first[0]}"
                )
        params = SpiralParams(*curve[:2])
        ts = columns["child_t"]
        outside = ~((0.0 <= ts) & (ts <= params.t_max))  # NaN included
        if outside.any():
            i = int(outside.argmax())
            raise ConfigError(
                f"{path}: child_t {ts[i].item()!r} (generation {columns['generation'][i]}) "
                f"outside the curve domain [0, {params.t_max}]"
            )
        ts_parts.append(np.full(pop_size, curve[2]))
        ts_parts.append(ts)
    _, header, (_, _, init_t0) = first
    emit_svg(np.concatenate(ts_parts), params, init_t0, args.out, list(header.items()))
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
