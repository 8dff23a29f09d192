"""The novelty search evolution loop.

Each generation samples N parents, applies one isotropic Gaussian mutation
per parent, scores the parents and offspring by mean distance to their k
nearest neighbors among population, offspring and archive, and keeps the M
most novel.  Lineage is tracked so that downstream analysis can express each
selected mutation as a signed change in arc length along the spiral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .archives import (
    GridArchive,
    SamplingMode,
    SamplingStrategy,
    UnstructuredArchive,
    sample_parents,
    update_discovery_scores,
)
from .spiral import (
    BehaviorPoint,
    Genotype,
    GenotypeSpace,
    SpiralParams,
    arc_length_from_origin,
    clamp_genotype,
    genotype_at_curve_parameter,
    map_genotype,
)

__all__ = [
    "Metric",
    "Individual",
    "EvolutionConfig",
    "EvolutionState",
    "LineageEntry",
    "init_population",
    "mutate",
    "novelty_score",
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


@dataclass
class Individual:
    id: int
    genotype: Genotype
    behavior: BehaviorPoint
    arc_pos: float  # S(0, behavior.t), cached for geodesic scoring and deltas
    novelty: float = 0.0
    eta: float = 0.0
    parent_id: Optional[int] = None
    birth_generation: int = 0
    birth_delta: Optional[float] = None  # arc_pos - parent's arc_pos, None for roots


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


@dataclass
class EvolutionState:
    params: SpiralParams
    generation: int
    population: list
    archive: object  # None, UnstructuredArchive or GridArchive
    rng: np.random.Generator
    lineage_log: list = field(default_factory=list)
    next_id: int = 0

    def new_id(self) -> int:
        i = self.next_id
        self.next_id += 1
        return i


def _make_individual(
    state: EvolutionState,
    genotype: Genotype,
    generation: int,
    parent: Optional[Individual] = None,
) -> Individual:
    behavior = map_genotype(genotype, state.params)
    arc = arc_length_from_origin(behavior.t, state.params)
    return Individual(
        id=state.new_id(),
        genotype=genotype,
        behavior=behavior,
        arc_pos=arc,
        eta=parent.eta if parent is not None else 0.0,
        parent_id=parent.id if parent is not None else None,
        birth_generation=generation,
        birth_delta=arc - parent.arc_pos if parent is not None else None,
    )


def init_population(
    config: EvolutionConfig, params: SpiralParams, archive=None
) -> EvolutionState:
    """Generation 0: M clones at the starting point, empty archive."""
    config.validate(params)
    state = EvolutionState(
        params=params,
        generation=0,
        population=[],
        archive=archive,
        rng=np.random.default_rng(config.seed),
    )
    genotype = genotype_at_curve_parameter(config.init_t0, config.genotype_space, params)
    state.population = [
        _make_individual(state, genotype, generation=0) for _ in range(config.pop_size)
    ]
    return state


def mutate(
    g: Genotype, sigma: float, rng: np.random.Generator, params: SpiralParams
) -> Genotype:
    """Add Gaussian noise with standard deviation sigma, clamped into bounds."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return clamp_genotype(Genotype(g.value + rng.normal(0.0, sigma), g.space), params)


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


def _coordinate_rows(individuals: list) -> np.ndarray:
    """x, y and arc_pos of the individuals as the rows of a (3, n) array."""
    return np.array(
        [
            [ind.behavior.x for ind in individuals],
            [ind.behavior.y for ind in individuals],
            [ind.arc_pos for ind in individuals],
        ]
    )


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
    # Accumulate in ascending order, one column at a time, so the result is
    # bit-identical to summing a sorted Python list of the same distances.
    total = np.zeros(len(nearest))
    for j in range(nearest.shape[1]):
        total = total + nearest[:, j]
    return total / nearest.shape[1]


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

    Both arguments hold x, y and arc_pos rows (see _coordinate_rows).  Up to
    TREE_CROSSOVER candidates the distances fill a dense matrix; above it a
    k-d tree picks the neighbors.  Both paths give bit-identical scores.
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


def novelty_score(
    subject: Individual,
    population: list,
    archive_members: list,
    k: int,
    metric: Metric,
) -> float:
    """Mean distance from the subject to its k nearest neighbors.

    Neighbors come from population and archive; the subject instance itself
    is excluded, coincident other individuals are not.  With fewer than k
    candidates the mean runs over whatever is available; with none the score
    is zero.
    """
    if metric is Metric.GEODESIC:
        dists = [
            abs(subject.arc_pos - other.arc_pos)
            for other in population + archive_members
            if other is not subject
        ]
    else:
        sx, sy = subject.behavior.x, subject.behavior.y
        dists = []
        for other in population + archive_members:
            if other is subject:
                continue
            dx = sx - other.behavior.x
            dy = sy - other.behavior.y
            dists.append(math.sqrt(dx * dx + dy * dy))
    if not dists:
        return 0.0
    dists.sort()
    k_eff = min(k, len(dists))
    return sum(dists[:k_eff]) / k_eff


def step_generation(
    state: EvolutionState, config: EvolutionConfig, sampling: SamplingStrategy
) -> EvolutionState:
    """Advance the state by one generation (mutates and returns the state).

    Order of operations: sample parents, mutate, score novelty against the
    archive as of the start of the generation, select survivors, update the
    archive, extend the lineage log, and (guided mode only) refresh the
    discovery scores of this generation's parent pool.
    """
    if sampling.mode is SamplingMode.MIXED_GUIDED and not isinstance(
        state.archive, GridArchive
    ):
        raise ValueError("guided sampling requires a grid archive")

    params = state.params
    rng = state.rng
    g_next = state.generation + 1
    population = state.population

    parents = sample_parents(
        sampling, population, state.archive, config.offspring_size, rng
    )
    offspring = []
    for parent in parents:
        genotype = mutate(parent.genotype, config.sigma, rng, params)
        offspring.append(_make_individual(state, genotype, g_next, parent))

    pool = population + offspring
    archive_points = state.archive.coords() if state.archive is not None else _NO_POINTS
    scores = _pool_novelty(
        _coordinate_rows(pool), archive_points, config.k, config.metric
    )
    for ind, score in zip(pool, scores):
        ind.novelty = float(score)

    # Elitist truncation; ties go to the newer individual, then the lower id.
    survivors = sorted(
        pool, key=lambda ind: (-ind.novelty, -ind.birth_generation, ind.id)
    )[: config.pop_size]

    kappas = None
    if isinstance(state.archive, UnstructuredArchive):
        state.archive.update(survivors, rng)
    elif isinstance(state.archive, GridArchive):
        kappas = [state.archive.insert(child, rng) for child in offspring]

    state.lineage_log.extend(
        LineageEntry(g_next, child.id, parent.id, child.behavior.t, parent.behavior.t)
        for child, parent in zip(offspring, parents)
    )

    if sampling.mode is SamplingMode.MIXED_GUIDED:
        # The parent pool of this generation: the pre-selection population
        # plus any sampled archive occupants it does not already contain.
        pool_ids = {ind.id for ind in population}
        parent_pool = list(population)
        for parent in parents:
            if parent.id not in pool_ids:
                parent_pool.append(parent)
                pool_ids.add(parent.id)
        update_discovery_scores(
            parent_pool, list(zip(offspring, kappas)), sampling.tau
        )

    state.population = survivors
    state.generation = g_next
    return state
