"""Experiment configuration, batch execution and artifact emission.

A handful of named scenarios pin the algorithmic settings of the benchmark
panels (metric and genotype space pairings, archive variants, the matched
large-population baseline); the Custom scenario leaves everything open.
Batches run sequentially with seeds base_seed + run index and write one
telemetry CSV and one lineage CSV per run, a batch summary CSV, and a
cumulative coverage SVG.  All output bytes are deterministic for a fixed
config.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (
    CoverageAccumulator,
    MIN_FIT_SAMPLES,
    coverage_bins,
    fit_damped_oscillator,
    medians,
    segment_phases,
)
from .archives import (
    BIRTH_DELTA,
    NOVELTY,
    GridArchive,
    SamplingMode,
    SamplingStrategy,
    UnstructuredArchive,
)
from .evolution import (
    LINEAGE_DTYPE,
    EvolutionConfig,
    Metric,
    init_population,
    step_generation,
)
from .spiral import GenotypeSpace, SpiralParams

__all__ = [
    "Scenario",
    "ArchiveKind",
    "ConfigError",
    "ExperimentConfig",
    "ConfigKey",
    "CONFIG_KEYS",
    "TELEMETRY_DTYPE",
    "LINEAGE_DTYPE",
    "RunTelemetry",
    "BatchResult",
    "parse_config",
    "parse_config_items",
    "parse_value",
    "config_from_items",
    "effective_config_items",
    "run_single",
    "execute_batch",
    "run_batch",
    "emit_summary",
    "final_coverage",
    "fit_cells",
    "read_telemetry",
    "read_lineage",
    "COVERAGE_BINS",
    "FULL_COVERAGE_THRESHOLD",
]

COVERAGE_BINS = 100
FULL_COVERAGE_THRESHOLD = 0.95
PHASE_WINDOW = 11


class Scenario(Enum):
    FIG2A = "Fig2a"
    FIG2B = "Fig2b"
    FIG2C = "Fig2c"
    FIG2D = "Fig2d"
    FIG3A = "Fig3a"
    FIG3C = "Fig3c"
    FIG3E = "Fig3e"
    FIG3F = "Fig3f"
    FIG3G = "Fig3g"
    FIG3H = "Fig3h"
    FIG3I = "Fig3i"
    FIG3J = "Fig3j"
    FIG3K = "Fig3k"
    FIG3L = "Fig3l"
    CUSTOM = "Custom"


class ArchiveKind(Enum):
    NONE = "none"
    UNSTRUCTURED_UNBOUNDED = "unstructured_unbounded"
    UNSTRUCTURED_BOUNDED = "unstructured_bounded"
    GRID = "grid"


class ConfigError(ValueError):
    """A configuration problem, phrased around the offending key."""


@dataclass
class ExperimentConfig:
    scenario: Scenario = Scenario.CUSTOM
    spiral: SpiralParams = field(default_factory=SpiralParams)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    archive_kind: ArchiveKind = ArchiveKind.NONE
    archive_max_size: Optional[int] = None
    additions_per_generation: int = 6
    grid_resolution: int = 50
    grid_epsilon: float = 0.05
    sampling: SamplingStrategy = field(
        default_factory=lambda: SamplingStrategy(SamplingMode.POPULATION_ONLY)
    )
    runs: int = 20
    base_seed: int = 0
    output_dir: str = "out"

    def validate(self):
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.additions_per_generation < 1:
            raise ConfigError(
                "archive.additions_per_generation must be >= 1, got "
                f"{self.additions_per_generation}"
            )
        if self.archive_kind is ArchiveKind.UNSTRUCTURED_BOUNDED:
            if self.archive_max_size is None or self.archive_max_size < 1:
                raise ConfigError(
                    "archive.max_size must be a positive integer for a bounded archive"
                )
        elif self.archive_max_size is not None:
            raise ConfigError(
                "archive.max_size only applies when archive.kind = unstructured_bounded"
            )
        if self.grid_resolution < 1:
            raise ConfigError(f"archive.resolution must be >= 1, got {self.grid_resolution}")
        if not 0.0 <= self.grid_epsilon < 1.0:
            raise ConfigError(f"archive.epsilon must be in [0, 1), got {self.grid_epsilon!r}")
        if (
            self.sampling.mode is not SamplingMode.POPULATION_ONLY
            and self.archive_kind is ArchiveKind.NONE
        ):
            raise ConfigError(
                "sampling.mode: archive resampling requires an archive"
            )
        if (
            self.sampling.mode is SamplingMode.MIXED_GUIDED
            and self.archive_kind is not ArchiveKind.GRID
        ):
            raise ConfigError(
                "sampling.mode: guided resampling requires archive.kind = grid"
            )
        _keyed("evolution", self.evolution.validate, self.spiral)


def _keyed(section: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), its ValueError raised again as a ConfigError
    that starts with the dotted key.  A library message starts with the
    field name, or with dotted keys already (the arc-length check's)."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        named = "." in str(e).split(" ", 1)[0]
        raise ConfigError(str(e) if named else f"{section}.{e}") from e


# ---------------------------------------------------------------------------
# Config keys: flat dotted paths, each with a parser and an attribute path.

def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _enum_parser(enum_cls):
    def parse(key, text):
        lowered = text.strip().lower()
        for member in enum_cls:
            if member.value.lower() == lowered:
                return member
        choices = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"{key}: expected one of {{{choices}}}, got {text!r}")

    return parse


def _one_of(enum_cls) -> str:
    *rest, last = [member.value for member in enum_cls]
    return f"{', '.join(rest)} or {last}"


def _parse_optional_int(key, text):
    if text.strip().lower() == "none":
        return None
    return _parse_int(key, text)


def _parse_str(key, text):
    return text


class ConfigKey(NamedTuple):
    """One config key: its parser, where it lives, its flag and help text."""

    key: str
    parse: Callable  # (key, text) -> value, raising ConfigError
    path: str  # ExperimentConfig attribute path, e.g. "evolution.sigma"
    flag: str
    help: str


# Every config key, in the order headers and echoes list them.
CONFIG_KEYS = (
    ConfigKey("scenario", _enum_parser(Scenario), "scenario", "--scenario", _one_of(Scenario)),
    ConfigKey("runs", _parse_int, "runs", "--runs", "number of seeded runs in the batch"),
    ConfigKey("base_seed", _parse_int, "base_seed", "--seed", "base seed; run i uses seed + i"),
    ConfigKey("output_dir", _parse_str, "output_dir", "--out", "output directory"),
    ConfigKey("spiral.a", _parse_float, "spiral.a", "--spiral-a", "spiral scale coefficient"),
    ConfigKey("spiral.alpha", _parse_float, "spiral.alpha", "--alpha", "spiral turns parameter"),
    ConfigKey("evolution.pop_size", _parse_int, "evolution.pop_size", "--pop-size",
              "population size"),
    ConfigKey("evolution.offspring_size", _parse_int, "evolution.offspring_size",
              "--offspring-size", "offspring per generation"),
    ConfigKey("evolution.k", _parse_int, "evolution.k", "--k", "nearest neighbors for novelty"),
    ConfigKey("evolution.sigma", _parse_float, "evolution.sigma", "--sigma",
              "mutation standard deviation"),
    ConfigKey("evolution.g_max", _parse_int, "evolution.g_max", "--g-max",
              "generations per run"),
    ConfigKey("evolution.metric", _enum_parser(Metric), "evolution.metric", "--metric",
              _one_of(Metric)),
    ConfigKey("evolution.genotype_space", _enum_parser(GenotypeSpace),
              "evolution.genotype_space", "--genotype-space", _one_of(GenotypeSpace)),
    ConfigKey("evolution.init_t0", _parse_float, "evolution.init_t0", "--init-t0",
              "initial curve parameter"),
    ConfigKey("archive.kind", _enum_parser(ArchiveKind), "archive_kind", "--archive-kind",
              _one_of(ArchiveKind)),
    ConfigKey("archive.max_size", _parse_optional_int, "archive_max_size",
              "--archive-max-size", "bound for a bounded archive"),
    ConfigKey("archive.additions_per_generation", _parse_int, "additions_per_generation",
              "--archive-additions", "archive additions per generation"),
    ConfigKey("archive.resolution", _parse_int, "grid_resolution", "--grid-resolution",
              "grid cells per axis"),
    ConfigKey("archive.epsilon", _parse_float, "grid_epsilon", "--grid-epsilon",
              "grid replacement probability"),
    ConfigKey("sampling.mode", _enum_parser(SamplingMode), "sampling.mode", "--sampling-mode",
              _one_of(SamplingMode)),
    ConfigKey("sampling.archive_fraction", _parse_float, "sampling.archive_fraction",
              "--archive-fraction", "parent slots drawn from archive"),
    ConfigKey("sampling.tau", _parse_float, "sampling.tau", "--tau",
              "discovery score update rate"),
)

_KEYS = {row.key: row for row in CONFIG_KEYS}

# The class owning the attributes under each path prefix ("" for top level).
_SECTIONS = {
    "": ExperimentConfig,
    "spiral": SpiralParams,
    "evolution": EvolutionConfig,
    "sampling": SamplingStrategy,
}


def _field_default(path):
    # Field defaults, not a default instance: SamplingStrategy zeroes
    # archive_fraction under population-only sampling.
    section, _, name = path.rpartition(".")
    return next(f.default for f in fields(_SECTIONS[section]) if f.name == name)


_DEFAULTS = {row.key: _field_default(row.path) for row in CONFIG_KEYS}


def parse_value(key: str, text: str):
    """The typed value of one config key's raw text; errors name the key."""
    row = _KEYS.get(key)
    if row is None:
        raise ConfigError(f"unknown key: {key}")
    return row.parse(key, str(text).strip())


# Settings fixed by each named scenario, at their defaults unless a scenario
# says otherwise.  Experiment-shape keys (runs, seeds, output paths, the
# shared start point and the archive/sampling rates that no reference value
# exists for) stay adjustable everywhere.
_COMMON_PINS = (
    "spiral.a",
    "spiral.alpha",
    "evolution.pop_size",
    "evolution.offspring_size",
    "evolution.k",
    "evolution.sigma",
    "evolution.g_max",
    "archive.max_size",
)


def _pins(metric, space, kind, mode, **extra):
    pins = {key: _DEFAULTS[key] for key in _COMMON_PINS}
    pins.update(
        {
            "evolution.metric": metric,
            "evolution.genotype_space": space,
            "archive.kind": kind,
            "sampling.mode": mode,
        }
    )
    pins.update(extra)
    return pins


_EUC = Metric.EUCLIDEAN
_GEO = Metric.GEODESIC
_ANG = GenotypeSpace.ANGLE
_ARC = GenotypeSpace.ARC_LENGTH
_POP = SamplingMode.POPULATION_ONLY

SCENARIO_PINS = {
    Scenario.FIG2A: _pins(_EUC, _ANG, ArchiveKind.NONE, _POP),
    Scenario.FIG2B: _pins(_EUC, _ARC, ArchiveKind.NONE, _POP),
    Scenario.FIG2C: _pins(_GEO, _ANG, ArchiveKind.NONE, _POP),
    Scenario.FIG2D: _pins(_GEO, _ARC, ArchiveKind.NONE, _POP),
    Scenario.FIG3A: _pins(_EUC, _ANG, ArchiveKind.UNSTRUCTURED_UNBOUNDED, _POP),
    Scenario.FIG3C: _pins(
        _EUC, _ANG, ArchiveKind.UNSTRUCTURED_BOUNDED, _POP, **{"archive.max_size": 100}
    ),
    Scenario.FIG3E: _pins(
        _EUC, _ANG, ArchiveKind.UNSTRUCTURED_BOUNDED, _POP, **{"archive.max_size": 50}
    ),
    Scenario.FIG3F: _pins(
        _EUC, _ANG, ArchiveKind.UNSTRUCTURED_BOUNDED, _POP, **{"archive.max_size": 200}
    ),
    Scenario.FIG3G: _pins(
        _EUC, _ANG, ArchiveKind.UNSTRUCTURED_BOUNDED, _POP, **{"archive.max_size": 3000}
    ),
    Scenario.FIG3H: _pins(_EUC, _ANG, ArchiveKind.GRID, _POP),
    Scenario.FIG3I: _pins(
        _EUC,
        _ANG,
        ArchiveKind.UNSTRUCTURED_BOUNDED,
        SamplingMode.MIXED_RANDOM,
        **{"archive.max_size": 200},
    ),
    # Archive-free baseline holding the evaluation budget of Fig3i fixed:
    # 1030 + 29 * 1000 = 30 + 30 * 1000 evaluations.
    Scenario.FIG3J: _pins(
        _EUC,
        _ANG,
        ArchiveKind.NONE,
        _POP,
        **{"evolution.pop_size": 1030, "evolution.offspring_size": 29},
    ),
    Scenario.FIG3K: _pins(_EUC, _ANG, ArchiveKind.GRID, SamplingMode.MIXED_RANDOM),
    Scenario.FIG3L: _pins(_EUC, _ANG, ArchiveKind.GRID, SamplingMode.MIXED_GUIDED),
}

SCENARIO_DEFAULT_RUNS = {Scenario.FIG3J: 5}


def config_from_items(items: dict) -> ExperimentConfig:
    """Build a validated config from a flat {key: raw string} mapping."""
    pending = dict(items)
    scenario = parse_value("scenario", pending.pop("scenario", Scenario.CUSTOM.value))

    values = dict(_DEFAULTS, scenario=scenario)
    pins = SCENARIO_PINS.get(scenario, {})
    values.update(pins)
    if scenario in SCENARIO_DEFAULT_RUNS:
        values["runs"] = SCENARIO_DEFAULT_RUNS[scenario]

    for key, raw in pending.items():
        parsed = parse_value(key, raw)
        if key in pins and parsed != pins[key]:
            raise ConfigError(
                f"{key} is fixed to {_fmt(pins[key])} by scenario "
                f"{scenario.value}, cannot set it to {_fmt(parsed)}"
            )
        values[key] = parsed

    sections = {section: {} for section in _SECTIONS}
    for row in CONFIG_KEYS:
        section, _, name = row.path.rpartition(".")
        sections[section][name] = values[row.key]
    config = ExperimentConfig(
        **sections[""],
        spiral=_keyed("spiral", SpiralParams, **sections["spiral"]),
        evolution=EvolutionConfig(**sections["evolution"]),
        sampling=_keyed("sampling", SamplingStrategy, **sections["sampling"]),
    )
    config.validate()
    return config


def parse_config_items(text: str, source: str = "line ") -> dict:
    """{key: raw string} from a flat key = value document (# comments).

    Errors name the line as f"{source}{lineno}".  A key given twice is an
    error, not a silent override.
    """
    items = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}{lineno}: expected key = value, got {line!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"{source}{lineno}: duplicate key {key}")
        items[key] = value.strip()
    return items


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat key = value document (one pair per line, # comments)."""
    return config_from_items(parse_config_items(text))


def _fmt(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    return str(value)


def effective_config_items(config: ExperimentConfig) -> list:
    """Every effective setting as (key, string) pairs, defaults included."""
    return [(row.key, _fmt(attrgetter(row.path)(config))) for row in CONFIG_KEYS]


# ---------------------------------------------------------------------------
# Execution


# The tables of a run's telemetry and lineage CSVs (LINEAGE_DTYPE, from
# `evolution`), one field per column in file order: the run fills them, the
# writers write them and the readers return them.  median_delta is H, the
# median birth_delta of the surviving population, roots excluded.
TELEMETRY_DTYPE = np.dtype(
    [("generation", np.int64), ("coverage_fraction", np.float64), ("median_delta", np.float64),
     ("archive_size", np.int64), ("grid_occupied", np.int64), ("max_novelty", np.float64)]
)


@dataclass
class RunTelemetry:
    run_index: int
    seed: int
    telemetry: np.ndarray  # TELEMETRY_DTYPE, one row per generation
    lineage: np.ndarray  # LINEAGE_DTYPE, one row per offspring
    archive: object  # the run's final archive: None, UnstructuredArchive or GridArchive
    evaluated_ts: np.ndarray  # curve parameter of every evaluated individual

    @property
    def final_archive(self) -> list:
        """Fresh records of the final archive's entries ([] without an archive)."""
        return self.archive.individuals() if self.archive is not None else []


@dataclass
class BatchResult:
    config: ExperimentConfig
    telemetries: list
    cumulative: CoverageAccumulator


def _build_archive(config: ExperimentConfig):
    kind = config.archive_kind
    if kind is ArchiveKind.NONE:
        return None
    if kind is ArchiveKind.GRID:
        return GridArchive(config.spiral, config.grid_resolution, config.grid_epsilon)
    # A validated config holds a max_size only for a bounded archive.
    return UnstructuredArchive(config.archive_max_size, config.additions_per_generation)


def run_single(config: ExperimentConfig, run_index: int = 0) -> RunTelemetry:
    """One full seeded run; the seed is base_seed + run_index."""
    config.validate()
    seed = config.base_seed + run_index
    evo = replace(config.evolution, seed=seed)
    state = init_population(evo, config.spiral, archive=_build_archive(config))

    deltas = np.empty((evo.g_max, evo.pop_size))  # the survivors' birth deltas
    sizes, max_novelty = [], []
    for g in range(evo.g_max):
        step_generation(state, evo, config.sampling)
        deltas[g] = state.columns[BIRTH_DELTA]
        sizes.append(len(state.archive) if state.archive is not None else 0)
        max_novelty.append(state.columns[NOVELTY].max())

    lineage = state.lineage_log.table()
    evaluated_ts = np.concatenate((np.full(evo.pop_size, evo.init_t0), lineage["child_t"]))

    table = np.empty(evo.g_max, TELEMETRY_DTYPE)
    table["generation"] = np.arange(1, evo.g_max + 1)
    # The first generation to hit each bin; unhit bins count past the run.
    first_hit = np.full(COVERAGE_BINS, evo.g_max + 1)
    born = np.concatenate((np.zeros(evo.pop_size, np.int64), lineage["generation"]))
    np.minimum.at(first_hit, coverage_bins(evaluated_ts, config.spiral, COVERAGE_BINS), born)
    hits = np.bincount(first_hit, minlength=evo.g_max + 2).cumsum()
    table["coverage_fraction"] = hits[1 : evo.g_max + 1] / COVERAGE_BINS
    table["median_delta"] = medians(deltas)
    table["archive_size"] = sizes
    table["grid_occupied"] = sizes if isinstance(state.archive, GridArchive) else 0
    table["max_novelty"] = max_novelty

    return RunTelemetry(
        run_index=run_index,
        seed=seed,
        telemetry=table,
        lineage=lineage,
        archive=state.archive,
        evaluated_ts=evaluated_ts,
    )


def execute_batch(config: ExperimentConfig) -> BatchResult:
    """All runs of a batch, in memory (no files written)."""
    config.validate()
    telemetries = [run_single(config, i) for i in range(config.runs)]
    acc = CoverageAccumulator(config.spiral, COVERAGE_BINS)
    for tel in telemetries:
        acc.add_parameters(tel.evaluated_ts)
    return BatchResult(config, telemetries, acc)


# ---------------------------------------------------------------------------
# Artifacts

FIT_COLUMNS = [
    "fit_amplitude",
    "fit_decay",
    "fit_frequency",
    "fit_phase",
    "fit_offset",
    "fit_residual",
    "phase_count",
]

SUMMARY_COLUMNS = [
    "run",
    "seed",
    "final_coverage",
    "success",
    "coverage_mean",
    "coverage_min",
    "coverage_max",
    "success_rate",
    *FIT_COLUMNS,
]


def _header_lines(config: ExperimentConfig, extra=()) -> list:
    lines = [f"# spiralns {__version__}"]
    lines.extend(f"# {key} = {value}" for key, value in effective_config_items(config))
    lines.extend(f"# {key} = {value}" for key, value in extra)
    return lines


def _write_csv(path, header_lines, columns, rows):
    # Through the csv module: summary and analysis cells include user paths,
    # which may need quoting.
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


# Rows formatted and written per block of a table.  A block's cells are held
# as Python strings until it is written, so the block size keeps peak RSS
# flat: in one process running the archive-free benchmark's batches, analyze
# and plot three times (2-CPU x86-64, Python 3.11), 4,096-row blocks raised
# peak RSS from 85.0-85.2 MB to 86.1-87.0 MB (1.1% to 2.2%) over 1,024.
BLOCK_ROWS = 1024


def _cell_texts(column: np.ndarray) -> list:
    """repr of every cell of an int64 or float64 column, as the csv module
    writes it.  Each distinct bit pattern is formatted once: lineage rows
    repeat their generation and their parents' t.  Keyed by bits, not value,
    -0.0 and nan keep their own text."""
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    texts = list(map(repr, bits.view(column.dtype).tolist()))
    return [texts[i] for i in where.tolist()]


def _write_table(config: ExperimentConfig, tel: RunTelemetry, table: np.ndarray, path: str):
    # Numbers never need csv quoting, so each block is its columns' texts
    # joined row by row and written in one call.
    extra = [("run_index", str(tel.run_index)), ("seed", str(tel.seed))]
    lines = [*_header_lines(config, extra), ",".join(table.dtype.names)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for i in range(0, len(table), BLOCK_ROWS):
            block = table[i : i + BLOCK_ROWS]
            columns = [_cell_texts(block[name]) for name in table.dtype.names]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_run_telemetry(config: ExperimentConfig, tel: RunTelemetry, path: str):
    _write_table(config, tel, tel.telemetry, path)


def write_run_lineage(config: ExperimentConfig, tel: RunTelemetry, path: str):
    _write_table(config, tel, tel.lineage, path)


def final_coverage(telemetry: np.ndarray) -> float:
    """Coverage after the last generation of a telemetry table, 0.0 if it is empty."""
    return telemetry["coverage_fraction"][-1].item() if len(telemetry) else 0.0


def fit_cells(telemetry: np.ndarray) -> list:
    """The oscillator fit and phase count of a telemetry table's H as seven
    cells (FIT_COLUMNS), all empty below MIN_FIT_SAMPLES generations."""
    if len(telemetry) < MIN_FIT_SAMPLES:
        return [""] * len(FIT_COLUMNS)
    H = telemetry["median_delta"]
    fit = fit_damped_oscillator(H)
    params = (fit.amplitude, fit.decay, fit.frequency, fit.phase, fit.offset, fit.residual)
    return [*map(repr, params), str(len(segment_phases(H, PHASE_WINDOW)))]


def summary_rows(batch: BatchResult) -> list:
    """Per-run rows plus one aggregate row, as string cells."""
    rows = []
    coverages = []
    successes = 0
    for tel in batch.telemetries:
        final = final_coverage(tel.telemetry)
        coverages.append(final)
        success = final >= FULL_COVERAGE_THRESHOLD
        successes += int(success)
        rows.append(
            [
                str(tel.run_index),
                str(tel.seed),
                repr(final),
                str(int(success)),
                "",
                "",
                "",
                "",
                *fit_cells(tel.telemetry),
            ]
        )
    n = len(coverages)
    rows.append(
        [
            "aggregate",
            "",
            "",
            "",
            repr(sum(coverages) / n),
            repr(min(coverages)),
            repr(max(coverages)),
            repr(successes / n),
            *[""] * len(FIT_COLUMNS),
        ]
    )
    return rows


def emit_summary(batch: BatchResult, path: str) -> list:
    rows = summary_rows(batch)
    _write_csv(path, _header_lines(batch.config), SUMMARY_COLUMNS, rows)
    return rows


def _remove_stale_runs(directory: str, runs: int):
    """Delete the run files an earlier, larger batch left in the directory:
    run_NNN_telemetry.csv and run_NNN_lineage.csv with index NNN >= runs,
    named as run_batch names them.  analyze and plot read every such file."""
    for entry in os.scandir(directory):
        match = re.fullmatch(r"run_(\d+)_(telemetry|lineage)\.csv", entry.name)
        if not (match and entry.is_file()):
            continue
        index = int(match[1])
        if index >= runs and entry.name == f"run_{index:03d}_{match[2]}.csv":
            os.remove(entry.path)


def run_batch(config: ExperimentConfig) -> BatchResult:
    """Execute the batch and write all artifacts into output_dir."""
    from .svgplot import emit_svg

    config.validate()
    os.makedirs(config.output_dir, exist_ok=True)
    if not os.access(config.output_dir, os.W_OK):
        raise OSError(f"output directory {config.output_dir!r} is not writable")

    batch = execute_batch(config)
    for tel in batch.telemetries:
        stem = os.path.join(config.output_dir, f"run_{tel.run_index:03d}")
        write_run_telemetry(config, tel, stem + "_telemetry.csv")
        write_run_lineage(config, tel, stem + "_lineage.csv")
    _remove_stale_runs(config.output_dir, config.runs)
    emit_summary(batch, os.path.join(config.output_dir, "summary.csv"))
    emit_svg(
        np.concatenate([tel.evaluated_ts for tel in batch.telemetries]),
        config.spiral,
        config.evolution.init_t0,
        os.path.join(config.output_dir, "cumulative.svg"),
        effective_config_items(config),
    )
    return batch


# ---------------------------------------------------------------------------
# Readers for the analyze/plot subcommands.


def _bad_line(body, dtype, lineno):
    """'line N[, column C]: reason' for the first body line np.loadtxt rejects,
    N counting file lines from 1 (the body starts at line lineno)."""
    for n, line in enumerate(body.splitlines(), lineno):
        if not line.partition("#")[0].strip():  # skipped by np.loadtxt
            continue
        try:
            np.loadtxt([line], dtype, delimiter=",")
        except ValueError as e:
            cell = re.fullmatch(r"(.*) at row \d+, column (\d+)\.", str(e))
            if cell:
                return f"line {n}, column {cell[2]}: {cell[1]}"
            return f"line {n}: expected {len(dtype)} cells, found {len(line.split(','))}"


def _read_columns(path, dtype, kind):
    """Header dict plus the body as a structured array of the given dtype.

    The leading `# key = value` lines form the header, the next line must
    name the dtype's fields, and the rest is parsed in one np.loadtxt call.
    """
    header = {}
    lineno = 1
    with open(path, newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, sep, value = line[1:].strip().partition(" = ")
            if sep:
                header[key.strip()] = value.strip()
            line = fh.readline()
            lineno += 1
        body = fh.read()
    if not line:
        raise ValueError(f"{path}: no CSV rows found")
    columns = next(csv.reader([line]))
    if columns != list(dtype.names):
        raise ValueError(f"{path}: not a {kind} file (columns {columns})")
    if not body.strip():  # np.loadtxt warns on an empty body
        return header, np.empty(0, dtype)
    try:
        return header, np.loadtxt(io.StringIO(body), dtype, delimiter=",", ndmin=1)
    except ValueError:
        raise ValueError(f"{path}: {_bad_line(body, dtype, lineno + 1)}") from None


def read_telemetry(path):
    """Header dict plus the body of a telemetry CSV as a TELEMETRY_DTYPE array."""
    return _read_columns(path, TELEMETRY_DTYPE, "telemetry")


def read_lineage(path):
    """Header dict plus the body of a lineage CSV as a LINEAGE_DTYPE array."""
    return _read_columns(path, LINEAGE_DTYPE, "lineage")
