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
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .analysis import (
    CoverageAccumulator,
    CoverageReport,
    MIN_FIT_SAMPLES,
    fit_damped_oscillator,
    median,
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
    DEFAULT_INIT_T0,
    EvolutionConfig,
    LineageEntry,
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
    "GenerationRow",
    "RunTelemetry",
    "BatchResult",
    "parse_config",
    "parse_config_items",
    "config_from_items",
    "effective_config_items",
    "evaluation_count",
    "run_single",
    "execute_batch",
    "run_batch",
    "emit_summary",
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
        try:
            self.evolution.validate(self.spiral)
        except ValueError as e:
            raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# Config keys: flat dotted paths, each with a parser and a setter.

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


def _parse_optional_int(key, text):
    if text.strip().lower() == "none":
        return None
    return _parse_int(key, text)


def _parse_str(key, text):
    return text


_KEY_PARSERS = {
    "runs": _parse_int,
    "base_seed": _parse_int,
    "output_dir": _parse_str,
    "spiral.a": _parse_float,
    "spiral.alpha": _parse_float,
    "evolution.pop_size": _parse_int,
    "evolution.offspring_size": _parse_int,
    "evolution.k": _parse_int,
    "evolution.sigma": _parse_float,
    "evolution.g_max": _parse_int,
    "evolution.metric": _enum_parser(Metric),
    "evolution.genotype_space": _enum_parser(GenotypeSpace),
    "evolution.init_t0": _parse_float,
    "archive.kind": _enum_parser(ArchiveKind),
    "archive.max_size": _parse_optional_int,
    "archive.additions_per_generation": _parse_int,
    "archive.resolution": _parse_int,
    "archive.epsilon": _parse_float,
    "sampling.mode": _enum_parser(SamplingMode),
    "sampling.archive_fraction": _parse_float,
    "sampling.tau": _parse_float,
}

_BASE_VALUES = {
    "runs": 20,
    "base_seed": 0,
    "output_dir": "out",
    "spiral.a": 0.01,
    "spiral.alpha": 30.0,
    "evolution.pop_size": 30,
    "evolution.offspring_size": 30,
    "evolution.k": 10,
    "evolution.sigma": 0.3,
    "evolution.g_max": 1000,
    "evolution.metric": Metric.EUCLIDEAN,
    "evolution.genotype_space": GenotypeSpace.ANGLE,
    "evolution.init_t0": DEFAULT_INIT_T0,
    "archive.kind": ArchiveKind.NONE,
    "archive.max_size": None,
    "archive.additions_per_generation": 6,
    "archive.resolution": 50,
    "archive.epsilon": 0.05,
    "sampling.mode": SamplingMode.POPULATION_ONLY,
    "sampling.archive_fraction": 0.5,
    "sampling.tau": 0.5,
}

# Settings fixed by each named scenario.  Experiment-shape keys (runs,
# seeds, output paths, the shared start point and the archive/sampling
# rates that no reference value exists for) stay adjustable everywhere.
_COMMON_PINS = {
    "spiral.a": 0.01,
    "spiral.alpha": 30.0,
    "evolution.pop_size": 30,
    "evolution.offspring_size": 30,
    "evolution.k": 10,
    "evolution.sigma": 0.3,
    "evolution.g_max": 1000,
    "archive.max_size": None,
}


def _pins(metric, space, kind, mode, **extra):
    pins = dict(_COMMON_PINS)
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
    scenario_text = pending.pop("scenario", Scenario.CUSTOM.value)
    scenario = _enum_parser(Scenario)("scenario", scenario_text)

    values = dict(_BASE_VALUES)
    pins = SCENARIO_PINS.get(scenario, {})
    values.update(pins)
    if scenario in SCENARIO_DEFAULT_RUNS:
        values["runs"] = SCENARIO_DEFAULT_RUNS[scenario]

    for key, raw in pending.items():
        parser = _KEY_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown key: {key}")
        parsed = parser(key, str(raw).strip())
        if key in pins and parsed != pins[key]:
            raise ConfigError(
                f"{key} is fixed to {_fmt(pins[key])} by scenario "
                f"{scenario.value}, cannot set it to {_fmt(parsed)}"
            )
        values[key] = parsed

    try:
        spiral = SpiralParams(values["spiral.a"], values["spiral.alpha"])
    except ValueError as e:
        raise ConfigError(f"spiral.a/spiral.alpha: {e}") from e
    evolution = EvolutionConfig(
        pop_size=values["evolution.pop_size"],
        offspring_size=values["evolution.offspring_size"],
        k=values["evolution.k"],
        sigma=values["evolution.sigma"],
        g_max=values["evolution.g_max"],
        metric=values["evolution.metric"],
        genotype_space=values["evolution.genotype_space"],
        init_t0=values["evolution.init_t0"],
    )
    try:
        sampling = SamplingStrategy(
            mode=values["sampling.mode"],
            archive_fraction=values["sampling.archive_fraction"],
            tau=values["sampling.tau"],
        )
    except ValueError as e:
        raise ConfigError(f"sampling: {e}") from e
    config = ExperimentConfig(
        scenario=scenario,
        spiral=spiral,
        evolution=evolution,
        archive_kind=values["archive.kind"],
        archive_max_size=values["archive.max_size"],
        additions_per_generation=values["archive.additions_per_generation"],
        grid_resolution=values["archive.resolution"],
        grid_epsilon=values["archive.epsilon"],
        sampling=sampling,
        runs=values["runs"],
        base_seed=values["base_seed"],
        output_dir=values["output_dir"],
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
    return [
        ("scenario", config.scenario.value),
        ("runs", _fmt(config.runs)),
        ("base_seed", _fmt(config.base_seed)),
        ("output_dir", config.output_dir),
        ("spiral.a", _fmt(config.spiral.a)),
        ("spiral.alpha", _fmt(config.spiral.alpha)),
        ("evolution.pop_size", _fmt(config.evolution.pop_size)),
        ("evolution.offspring_size", _fmt(config.evolution.offspring_size)),
        ("evolution.k", _fmt(config.evolution.k)),
        ("evolution.sigma", _fmt(config.evolution.sigma)),
        ("evolution.g_max", _fmt(config.evolution.g_max)),
        ("evolution.metric", _fmt(config.evolution.metric)),
        ("evolution.genotype_space", _fmt(config.evolution.genotype_space)),
        ("evolution.init_t0", _fmt(config.evolution.init_t0)),
        ("archive.kind", _fmt(config.archive_kind)),
        ("archive.max_size", _fmt(config.archive_max_size)),
        (
            "archive.additions_per_generation",
            _fmt(config.additions_per_generation),
        ),
        ("archive.resolution", _fmt(config.grid_resolution)),
        ("archive.epsilon", _fmt(config.grid_epsilon)),
        ("sampling.mode", _fmt(config.sampling.mode)),
        ("sampling.archive_fraction", _fmt(config.sampling.archive_fraction)),
        ("sampling.tau", _fmt(config.sampling.tau)),
    ]


def evaluation_count(config: ExperimentConfig) -> int:
    """Individuals evaluated over one run: the initial population plus all offspring."""
    evo = config.evolution
    return evo.pop_size + evo.offspring_size * evo.g_max


# ---------------------------------------------------------------------------
# Execution


class GenerationRow(NamedTuple):
    generation: int
    coverage_fraction: float
    median_delta: float
    archive_size: int
    grid_occupied: int
    max_novelty: float


@dataclass
class RunTelemetry:
    run_index: int
    seed: int
    init_t0: float
    gen_rows: list
    lineage: list
    final_population: list
    final_archive: list
    evaluated_ts: np.ndarray  # curve parameter of every evaluated individual

    @property
    def final_coverage(self) -> float:
        return self.gen_rows[-1].coverage_fraction if self.gen_rows else 0.0

    def median_delta_history(self) -> list:
        return [row.median_delta for row in self.gen_rows]


@dataclass
class BatchResult:
    config: ExperimentConfig
    telemetries: list
    cumulative: CoverageReport


def _build_archive(config: ExperimentConfig):
    kind = config.archive_kind
    if kind is ArchiveKind.NONE:
        return None
    if kind is ArchiveKind.UNSTRUCTURED_UNBOUNDED:
        return UnstructuredArchive(
            max_size=None, additions_per_generation=config.additions_per_generation
        )
    if kind is ArchiveKind.UNSTRUCTURED_BOUNDED:
        return UnstructuredArchive(
            max_size=config.archive_max_size,
            additions_per_generation=config.additions_per_generation,
        )
    return GridArchive(
        params=config.spiral,
        resolution=config.grid_resolution,
        epsilon=config.grid_epsilon,
    )


def run_single(config: ExperimentConfig, run_index: int = 0) -> RunTelemetry:
    """One full seeded run; the seed is base_seed + run_index."""
    seed = config.base_seed + run_index
    evo = replace(config.evolution, seed=seed)
    state = init_population(evo, config.spiral, archive=_build_archive(config))

    acc = CoverageAccumulator(config.spiral, COVERAGE_BINS)
    init_ts = np.full(evo.pop_size, evo.init_t0)
    acc.add_parameters(init_ts)
    ts_chunks = [init_ts]

    rows = []
    grid = isinstance(state.archive, GridArchive)
    for g in range(1, evo.g_max + 1):
        seen = len(state.lineage_log)
        step_generation(state, evo, config.sampling)
        child_ts = np.array([e.child_t for e in state.lineage_log[seen:]])
        acc.add_parameters(child_ts)
        ts_chunks.append(child_ts)

        deltas = state.columns[BIRTH_DELTA]
        archive_size = len(state.archive) if state.archive is not None else 0
        rows.append(
            GenerationRow(
                generation=g,
                coverage_fraction=acc.fraction,
                median_delta=median(deltas[~np.isnan(deltas)].tolist()),
                archive_size=archive_size,
                grid_occupied=archive_size if grid else 0,
                max_novelty=float(state.columns[NOVELTY].max()),
            )
        )

    final_archive = state.archive.individuals() if state.archive is not None else []
    return RunTelemetry(
        run_index=run_index,
        seed=seed,
        init_t0=evo.init_t0,
        gen_rows=rows,
        lineage=list(state.lineage_log),
        final_population=state.population,
        final_archive=final_archive,
        evaluated_ts=np.concatenate(ts_chunks),
    )


def execute_batch(config: ExperimentConfig) -> BatchResult:
    """All runs of a batch, in memory (no files written)."""
    config.validate()
    telemetries = [run_single(config, i) for i in range(config.runs)]
    acc = CoverageAccumulator(config.spiral, COVERAGE_BINS)
    for tel in telemetries:
        acc.add_parameters(tel.evaluated_ts)
    return BatchResult(config, telemetries, acc.report())


# ---------------------------------------------------------------------------
# Artifacts

TELEMETRY_COLUMNS = [
    "generation",
    "coverage_fraction",
    "median_delta",
    "archive_size",
    "grid_occupied",
    "max_novelty",
]

LINEAGE_COLUMNS = ["generation", "child_id", "parent_id", "child_t", "parent_t"]

SUMMARY_COLUMNS = [
    "run",
    "seed",
    "final_coverage",
    "success",
    "coverage_mean",
    "coverage_min",
    "coverage_max",
    "success_rate",
    "fit_amplitude",
    "fit_decay",
    "fit_frequency",
    "fit_phase",
    "fit_offset",
    "fit_residual",
    "phase_count",
]


def _header_lines(config: ExperimentConfig, extra=()) -> list:
    lines = [f"# spiralns {__version__}"]
    lines.extend(f"# {key} = {value}" for key, value in effective_config_items(config))
    lines.extend(f"# {key} = {value}" for key, value in extra)
    return lines


def _write_csv(path, header_lines, columns, rows):
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_run_telemetry(config: ExperimentConfig, tel: RunTelemetry, path: str):
    extra = [("run_index", str(tel.run_index)), ("seed", str(tel.seed))]
    rows = [
        [
            row.generation,
            repr(row.coverage_fraction),
            repr(row.median_delta),
            row.archive_size,
            row.grid_occupied,
            repr(row.max_novelty),
        ]
        for row in tel.gen_rows
    ]
    _write_csv(path, _header_lines(config, extra), TELEMETRY_COLUMNS, rows)


def write_run_lineage(config: ExperimentConfig, tel: RunTelemetry, path: str):
    extra = [("run_index", str(tel.run_index)), ("seed", str(tel.seed))]
    rows = [
        [e.generation, e.child_id, e.parent_id, repr(e.child_t), repr(e.parent_t)]
        for e in tel.lineage
    ]
    _write_csv(path, _header_lines(config, extra), LINEAGE_COLUMNS, rows)


def summary_rows(batch: BatchResult) -> list:
    """Per-run rows plus one aggregate row, as string cells."""
    g_max = batch.config.evolution.g_max
    rows = []
    coverages = []
    successes = 0
    for tel in batch.telemetries:
        final = tel.final_coverage
        coverages.append(final)
        success = final >= FULL_COVERAGE_THRESHOLD
        successes += int(success)
        fit_cells = [None] * 6
        phase_count = None
        if g_max >= MIN_FIT_SAMPLES:
            H = tel.median_delta_history()
            fit = fit_damped_oscillator(H)
            fit_cells = [
                fit.amplitude,
                fit.decay,
                fit.frequency,
                fit.phase,
                fit.offset,
                fit.residual,
            ]
            phase_count = len(segment_phases(H, PHASE_WINDOW))
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
                *[_cell(c) for c in fit_cells],
                _cell(phase_count),
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
            "",
            "",
            "",
            "",
            "",
            "",
            "",
        ]
    )
    return rows


def emit_summary(batch: BatchResult, path: str) -> list:
    rows = summary_rows(batch)
    _write_csv(path, _header_lines(batch.config), SUMMARY_COLUMNS, rows)
    return rows


def run_batch(config: ExperimentConfig) -> BatchResult:
    """Execute the batch and write all artifacts into output_dir."""
    from .svgplot import emit_svg

    config.validate()
    os.makedirs(config.output_dir, exist_ok=True)
    if not os.access(config.output_dir, os.W_OK):
        raise OSError(f"output directory {config.output_dir!r} is not writable")

    telemetries = []
    acc = CoverageAccumulator(config.spiral, COVERAGE_BINS)
    all_ts = []
    for i in range(config.runs):
        tel = run_single(config, i)
        telemetries.append(tel)
        acc.add_parameters(tel.evaluated_ts)
        all_ts.append(tel.evaluated_ts)
        stem = os.path.join(config.output_dir, f"run_{i:03d}")
        write_run_telemetry(config, tel, stem + "_telemetry.csv")
        write_run_lineage(config, tel, stem + "_lineage.csv")

    batch = BatchResult(config, telemetries, acc.report())
    emit_summary(batch, os.path.join(config.output_dir, "summary.csv"))
    emit_svg(
        np.concatenate(all_ts),
        config.spiral,
        config.evolution.init_t0,
        os.path.join(config.output_dir, "cumulative.svg"),
        effective_config_items(config),
    )
    return batch


# ---------------------------------------------------------------------------
# Readers for the analyze/plot subcommands.


def _read_csv(path):
    header = {}
    with open(path, newline="") as fh:
        lines = fh.readlines()
    data_lines = []
    for line in lines:
        if line.startswith("#"):
            body = line[1:].strip()
            key, sep, value = body.partition(" = ")
            if sep:
                header[key.strip()] = value.strip()
        else:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    if not parsed:
        raise ValueError(f"{path}: no CSV rows found")
    return header, parsed[0], parsed[1:]


def read_telemetry(path):
    """Header dict plus GenerationRow list from a telemetry CSV."""
    header, columns, raw = _read_csv(path)
    if columns != TELEMETRY_COLUMNS:
        raise ValueError(f"{path}: not a telemetry file (columns {columns})")
    rows = [
        GenerationRow(
            int(r[0]), float(r[1]), float(r[2]), int(r[3]), int(r[4]), float(r[5])
        )
        for r in raw
    ]
    return header, rows


def read_lineage(path):
    """Header dict plus LineageEntry list from a lineage CSV."""
    header, columns, raw = _read_csv(path)
    if columns != LINEAGE_COLUMNS:
        raise ValueError(f"{path}: not a lineage file (columns {columns})")
    entries = [
        LineageEntry(int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]))
        for r in raw
    ]
    return header, entries
