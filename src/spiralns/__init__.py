"""Novelty-search exploration lab on an Archimedean spiral benchmark.

The behavior space is a planar spiral whose arc length has a closed form,
which makes it possible to compare Euclidean and geodesic novelty metrics,
linear and non-linear genotype parametrizations, and a range of archive
policies against exact geometric ground truth.
"""

__version__ = "0.1.0"

from .spiral import (
    GenotypeSpace,
    SpiralParams,
    genotype_bounds,
    map_genotypes,
)
from .archives import (
    GridArchive,
    SamplingMode,
    SamplingStrategy,
    UnstructuredArchive,
    sample_parents,
    update_discovery_scores,
)
from .evolution import (
    EvolutionConfig,
    EvolutionState,
    Metric,
    init_population,
    mutate,
    step_generation,
)
from .analysis import (
    CoverageAccumulator,
    OscillatorFit,
    Phase,
    PhaseKind,
    fit_damped_oscillator,
    segment_phases,
)
from .experiments import (
    ArchiveKind,
    BatchResult,
    ConfigError,
    ExperimentConfig,
    RunTelemetry,
    Scenario,
    effective_config_items,
    emit_summary,
    execute_batch,
    final_coverage,
    parse_config,
    run_batch,
    run_single,
)
from .svgplot import emit_svg, render_svg

__all__ = [
    "__version__",
    "GenotypeSpace",
    "SpiralParams",
    "genotype_bounds",
    "map_genotypes",
    "GridArchive",
    "SamplingMode",
    "SamplingStrategy",
    "UnstructuredArchive",
    "sample_parents",
    "update_discovery_scores",
    "EvolutionConfig",
    "EvolutionState",
    "Metric",
    "init_population",
    "mutate",
    "step_generation",
    "CoverageAccumulator",
    "OscillatorFit",
    "Phase",
    "PhaseKind",
    "fit_damped_oscillator",
    "segment_phases",
    "ArchiveKind",
    "BatchResult",
    "ConfigError",
    "ExperimentConfig",
    "RunTelemetry",
    "Scenario",
    "effective_config_items",
    "emit_summary",
    "execute_batch",
    "final_coverage",
    "parse_config",
    "run_batch",
    "run_single",
    "emit_svg",
    "render_svg",
]
