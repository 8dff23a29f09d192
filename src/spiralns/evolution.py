"""The novelty search evolution loop.

Each generation samples N parents, applies one isotropic Gaussian mutation
per parent, scores the parents and offspring by mean distance to their k
nearest neighbors among population, offspring and archive, and keeps the M
most novel.  Lineage is tracked so that downstream analysis can express each
selected mutation as a signed change in arc length along the spiral.

The population and the offspring are arrays with one column per individual
(rows as in `archives`); a generation is a fixed number of array operations
whatever its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .archives import ARC, BIRTH_DELTA, BIRTH_GEN, ETA, ID, N_ROWS, NOVELTY, PARENT_ID
from .archives import SPACE, T, VALUE, X, Y
from .archives import (
    GridArchive,
    Individual,
    SamplingMode,
    SamplingStrategy,
    UnstructuredArchive,
    sample_parents,
    to_records,
    update_discovery_scores,
)
from .spiral import INVERSION_TOL, GenotypeSpace, SpiralParams
from .spiral import genotype_at_curve_parameter, genotype_bounds

# The vectorised map, under the name the generation loop looks up on each
# call, so a tracer can wrap it here (see bench/layers.py).
from .spiral import map_genotypes as map_genotype

__all__ = [
    "Metric",
    "Individual",
    "EvolutionConfig",
    "EvolutionState",
    "LineageEntry",
    "init_population",
    "mutate",
    "step_generation",
]

# Default start near the outer rim (t = 28*pi is 87% of the total arc).
# The exploration biases this benchmark quantifies are only separable when
# most of the curve lies inward of the start; calibrated by pilot batches
# and kept configurable.
DEFAULT_INIT_T0 = 28.0 * math.pi


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    GEODESIC = "geodesic"


class LineageEntry(NamedTuple):
    generation: int
    child_id: int
    parent_id: int
    child_t: float
    parent_t: float


@dataclass
class EvolutionConfig:
    pop_size: int = 30
    offspring_size: int = 30
    k: int = 10
    sigma: float = 0.3
    g_max: int = 1000
    metric: Metric = Metric.EUCLIDEAN
    genotype_space: GenotypeSpace = GenotypeSpace.ANGLE
    init_t0: float = DEFAULT_INIT_T0
    seed: int = 0

    def validate(self, params: SpiralParams):
        if self.pop_size < 1:
            raise ValueError(f"pop_size must be >= 1, got {self.pop_size}")
        if self.offspring_size < 1:
            raise ValueError(f"offspring_size must be >= 1, got {self.offspring_size}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.g_max < 1:
            raise ValueError(f"g_max must be >= 1, got {self.g_max}")
        if not 0.0 <= self.init_t0 <= params.t_max:
            raise ValueError(
                f"init_t0 must lie in [0, {params.t_max}], got {self.init_t0}"
            )
        if self.genotype_space is GenotypeSpace.ARC_LENGTH:
            # Near t_max, adjacent floats t lie a*sqrt(t^2+1)*ulp(t) apart in
            # arc length and S(0, t) is rounded to ulps of s_max.  Past the
            # inversion tolerance, some arc lengths have no t to invert to.
            t = params.t_max
            gap = params.a * math.hypot(t, 1.0) * math.ulp(t) + 2 * math.ulp(params.s_max)
            if not gap <= INVERSION_TOL:
                raise ValueError(
                    f"spiral.a/spiral.alpha: arc lengths up to {params.s_max!r} are too "
                    "coarse to invert in the arc_length genotype space; use a smaller "
                    "spiral or genotype_space = angle"
                )


@dataclass
class EvolutionState:
    params: SpiralParams
    generation: int
    columns: np.ndarray  # the population, one individual per column
    archive: object  # None, UnstructuredArchive or GridArchive
    rng: np.random.Generator
    lineage_log: list = field(default_factory=list)
    next_id: int = 0

    @property
    def population(self) -> list:
        """Fresh records of the population, in selection order."""
        return to_records(self.columns)


def _evaluate(values, space, params, first_id, generation, parents=None) -> np.ndarray:
    """Columns of new individuals with the given genotype values.

    Without parents the individuals are roots: eta 0, no parent, no delta.
    """
    cols = np.empty((N_ROWS, len(values)))
    cols[T], cols[X], cols[Y], cols[ARC] = map_genotype(values, space, params)
    cols[VALUE] = values
    cols[SPACE] = list(GenotypeSpace).index(space)
    cols[NOVELTY] = 0.0
    cols[ID] = np.arange(first_id, first_id + len(values))
    cols[BIRTH_GEN] = generation
    if parents is None:
        cols[ETA], cols[PARENT_ID], cols[BIRTH_DELTA] = 0.0, -1, math.nan
    else:
        cols[ETA], cols[PARENT_ID] = parents[ETA], parents[ID]
        cols[BIRTH_DELTA] = cols[ARC] - parents[ARC]
    return cols


def init_population(
    config: EvolutionConfig, params: SpiralParams, archive=None
) -> EvolutionState:
    """Generation 0: M clones at the starting point, archive as given."""
    config.validate(params)
    space = config.genotype_space
    start = genotype_at_curve_parameter(config.init_t0, space, params)
    roots = _evaluate(np.full(config.pop_size, start.value), space, params, 0, 0)
    rng = np.random.default_rng(config.seed)
    return EvolutionState(params, 0, roots, archive, rng, next_id=config.pop_size)


def mutate(values: np.ndarray, space: GenotypeSpace, sigma: float, rng, params) -> np.ndarray:
    """Add Gaussian noise with standard deviation sigma, clamped into bounds.

    One draw of len(values) normals, equal to that many scalar draws.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    lo, hi = genotype_bounds(space, params)
    return np.clip(values + rng.normal(0.0, sigma, size=len(values)), lo, hi)


# Candidate count above which scoring queries a k-d tree instead of filling a
# dense pool x candidates matrix.  Measured with a 60-point pool, k = 10 and
# candidates spread along the spiral, on a 2-CPU x86-64 host: the two tie
# near 360 candidates; at 460 the tree takes 0.21 ms against 0.51 ms dense
# (Euclidean), and geodesic scoring, which skips the square root, gains
# from the tree from about 560 candidates on.
TREE_CROSSOVER = 400

# Relative gap the tree's (k+2)-th neighbor distance must keep above its
# (k+1)-th before the tree's choice of neighbors is trusted.  Tree distances
# differ from the dense formula by a few ulp at most, far inside this gap.
_TIE_MARGIN = 1e-9

_NO_POINTS = np.empty((3, 0))


def _distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> np.ndarray:
    """Elementwise distance between broadcastable points a and b.

    Points are columns of the metric's coordinate rows: arc_pos alone for
    geodesic, x and y for Euclidean.
    """
    if metric is Metric.GEODESIC:
        return np.abs(a[0] - b[0])
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return np.sqrt(dx * dx + dy * dy)


def _mean_ascending(nearest: np.ndarray) -> np.ndarray:
    # A running sum along each row adds the columns one at a time, in
    # ascending order, so the result is bit-identical to summing a sorted
    # Python list of the same distances.
    return nearest.cumsum(axis=1)[:, -1] / nearest.shape[1]


def _dense_novelty(
    points: np.ndarray, rows: np.ndarray, k_eff: int, metric: Metric
) -> np.ndarray:
    """Score the given columns of points against every column but their own."""
    dist = _distance(points[:, rows, None], points[:, None, :], metric)
    dist[np.arange(len(rows)), rows] = np.inf
    nearest = np.partition(dist, k_eff - 1, axis=1)[:, :k_eff]
    nearest.sort(axis=1)
    return _mean_ascending(nearest)


def _tree_novelty(
    points: np.ndarray, n_pool: int, k_eff: int, metric: Metric
) -> np.ndarray:
    """Score the first n_pool columns of points through a k-d tree.

    A row is trusted when its subject is among the tree's k_eff+1 nearest
    and the next neighbor lies clearly farther out: then the k_eff nearest
    others are the same candidates under the dense formula, whose distances
    are recomputed here.  Coincident clones and near-ties at the k-th
    neighbor fall back to the dense routine, so every score is bit-identical
    to the dense path's.
    """
    # scipy.spatial takes a large share of a second to import; only large
    # pools need it.
    from scipy.spatial import cKDTree

    tree = cKDTree(points.T, balanced_tree=False, compact_nodes=False)
    dist, idx = tree.query(points[:, :n_pool].T, k=k_eff + 2)
    head = idx[:, : k_eff + 1]
    is_self = head == np.arange(n_pool)[:, None]
    safe = is_self.any(axis=1) & (
        dist[:, k_eff + 1] > dist[:, k_eff] * (1.0 + _TIE_MARGIN)
    )
    scores = np.empty(n_pool)
    safe_rows = np.flatnonzero(safe)
    others = head[safe][~is_self[safe]].reshape(-1, k_eff)
    nearest = _distance(points[:, safe_rows, None], points[:, others], metric)
    nearest.sort(axis=1)
    scores[safe_rows] = _mean_ascending(nearest)
    unsafe = np.flatnonzero(~safe)
    if unsafe.size:
        scores[unsafe] = _dense_novelty(points, unsafe, k_eff, metric)
    return scores


def _pool_novelty(
    pool: np.ndarray, archive: np.ndarray, k: int, metric: Metric
) -> np.ndarray:
    """Score every pool member against pool + archive, excluding itself.

    Both arguments hold x, y and arc_pos rows.  Up to TREE_CROSSOVER
    candidates the distances fill a dense matrix; above it a k-d tree picks
    the neighbors.  Both paths give bit-identical scores.
    """
    points = np.concatenate((pool, archive), axis=1)
    points = points[2:] if metric is Metric.GEODESIC else points[:2]
    n_pool = pool.shape[1]
    n = points.shape[1]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.zeros(n_pool)
    # The tree path reads k_eff + 2 neighbors, so it needs that many points.
    if n <= TREE_CROSSOVER or k_eff + 2 > n:
        return _dense_novelty(points, np.arange(n_pool), k_eff, metric)
    return _tree_novelty(points, n_pool, k_eff, metric)


def step_generation(
    state: EvolutionState, config: EvolutionConfig, sampling: SamplingStrategy
) -> EvolutionState:
    """Advance the state by one generation (mutates and returns the state).

    Order of operations: sample parents, mutate, score novelty against the
    archive as of the start of the generation, select survivors, update the
    archive, extend the lineage log, and (guided mode only) refresh the
    discovery scores of this generation's parent pool.
    """
    archive = state.archive
    guided = sampling.mode is SamplingMode.MIXED_GUIDED
    if guided and not isinstance(archive, GridArchive):
        raise ValueError("guided sampling requires a grid archive")

    params, rng, space = state.params, state.rng, config.genotype_space
    g_next = state.generation + 1
    population = state.columns
    m = population.shape[1]

    parents, picks = sample_parents(
        sampling, population, archive, config.offspring_size, rng
    )
    values = mutate(parents[VALUE], space, config.sigma, rng, params)
    kids = _evaluate(values, space, params, state.next_id, g_next, parents)
    state.next_id += kids.shape[1]

    pool = np.concatenate((population, kids), axis=1)
    archive_points = archive.coords() if archive is not None else _NO_POINTS
    pool[NOVELTY] = _pool_novelty(pool[: ARC + 1], archive_points, config.k, config.metric)

    # Elitist truncation; ties go to the newer individual, then the lower id.
    survivors = np.lexsort((pool[ID], -pool[BIRTH_GEN], -pool[NOVELTY]))[: config.pop_size]

    if isinstance(archive, UnstructuredArchive):
        archive.update(pool[:, survivors], rng)
    elif isinstance(archive, GridArchive):
        kappas = [archive.insert(pool[:, j], rng) for j in range(m, pool.shape[1])]

    child_ids = kids[ID].astype(np.int64).tolist()
    parent_ids = parents[ID].astype(np.int64).tolist()
    child_t, parent_t = kids[T].tolist(), parents[T].tolist()
    rows = zip([g_next] * len(child_t), child_ids, parent_ids, child_t, parent_t)
    state.lineage_log.extend(map(LineageEntry._make, rows))

    if guided:
        # The parent pool of this generation: the pre-selection population
        # plus each sampled archive entry whose id it does not already hold.
        held = set(population[ID].tolist())
        extra = []  # parent columns of those entries, one per id
        for j, ident in enumerate(parents[ID, : len(picks)].tolist()):
            if ident not in held:
                held.add(ident)
                extra.append(j)
        etas = update_discovery_scores(
            np.concatenate((population[ID], parents[ID, extra])),
            np.concatenate((population[ETA], parents[ETA, extra])),
            kids[PARENT_ID],
            kappas,
            sampling.tau,
        )
        pool[ETA, :m] = etas[:m]
        archive.set_etas(picks[extra], parents[ID, extra], etas[m:])

    state.columns = pool[:, survivors]
    state.generation = g_next
    return state
