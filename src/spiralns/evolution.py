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
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import starmap

import numpy as np

from .archives import ARC, BIRTH_DELTA, BIRTH_GEN, ETA, ID, N_ROWS, NOVELTY, PARENT_ID
from .archives import SPACE, T, VALUE, X, Y, _Store
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
from .spiral import _exact_arc_lengths, genotype_bounds

# The vectorised map, under the name the generation loop looks up on each
# call, so a tracer can wrap it here (see bench/layers.py).
from .spiral import map_genotypes as map_genotype

__all__ = [
    "Metric",
    "Individual",
    "EvolutionConfig",
    "EvolutionState",
    "LINEAGE_DTYPE",
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


# One row per offspring, in birth order: the table a run's lineage CSV holds.
LINEAGE_DTYPE = np.dtype(
    [("generation", np.int64), ("child_id", np.int64), ("parent_id", np.int64),
     ("child_t", np.float64), ("parent_t", np.float64)]
)

# One lineage row as a record, with int ids and float values.
LineageEntry = namedtuple("LineageEntry", LINEAGE_DTYPE.names)


class LineageLog(_Store, Sequence):
    """The run's lineage: LINEAGE_DTYPE rows, read as LineageEntry records.

    step_generation writes one block of new rows per generation.  Records are
    built only for the rows a reader indexes, slices or iterates over.
    """

    def __init__(self):
        super().__init__((), LINEAGE_DTYPE)

    new_rows = _Store._new  # the slots of k more rows, for step_generation to fill

    def __iter__(self):
        return iter(self[:])  # one pass over the table, not one per record

    def __getitem__(self, i):
        rows = self._data[: self._n][i].tolist()
        if isinstance(i, slice):
            return list(starmap(LineageEntry, rows))
        return LineageEntry(*rows)

    def table(self) -> np.ndarray:
        """Every row so far, as one fresh LINEAGE_DTYPE array."""
        return self._data[: self._n].copy()


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
    lineage_log: LineageLog = field(default_factory=LineageLog)
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
    start = np.full(config.pop_size, config.init_t0)
    if space is GenotypeSpace.ARC_LENGTH:
        start = _exact_arc_lengths(start, params.a)
    roots = _evaluate(start, space, params, 0, 0)
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
# dense pool x candidates matrix.  Measured on the pools and archives of
# 60-member runs on a 2-CPU x86-64 host.  With the archive's tree kept across
# generations, the tree wins from about 300 candidates (euclidean) and from
# about 800 (geodesic, whose dense distances skip the square root).  A tree
# rebuilt every generation, as on a bounded archive, ties near 360
# (euclidean) and 560 (geodesic).
TREE_CROSSOVER = 400

# Archive entries appended or overwritten since the archive's k-d tree was
# built, past which the tree is built again.  Until then they are scored
# densely, with the pool.
_REBUILD_AT = 48

# Relative gap a row's k-th distance must keep below the tree's last returned
# distance before the tree's choice of candidates is trusted.  Tree distances
# differ from the dense formula by a few ulp at most, far inside this gap.
_TIE_MARGIN = 1e-9

_NO_POINTS = np.empty((3, 0))


def _coordinates(cols: np.ndarray, metric: Metric) -> np.ndarray:
    """The rows of cols the metric reads (rows as in `archives`)."""
    return cols[ARC : ARC + 1] if metric is Metric.GEODESIC else cols[X : Y + 1]


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


def _kd_tree(points: np.ndarray):
    # scipy.spatial takes a large share of a second to import; only large
    # pools and archives need it.  The tree keeps its own copy of the points,
    # so later writes to an archive's storage cannot reach it.
    from scipy.spatial import cKDTree

    return cKDTree(points.T, balanced_tree=False, compact_nodes=False, copy_data=True)


def _tree_query(
    tree, points: np.ndarray, subjects: np.ndarray, k_eff: int, metric: Metric,
    bound: float = np.inf,
):
    """The tree's k_eff + 2 nearest columns of points to each subject column,
    among those closer than bound.

    Returns their dense-formula distances (inf for missing ones) and column
    indices, and the tree's last returned distance per subject.  That is inf
    where the tree returned fewer than k_eff + 2: it left out no point
    closer than the bound, which a caller sets past each subject's k-th
    distance.
    """
    n, size = subjects.shape[1], points.shape[1]
    k_query = min(k_eff + 2, size)
    dist, idx = tree.query(subjects.T, k=k_query, distance_upper_bound=bound)
    dist, idx = dist.reshape(n, k_query), idx.reshape(n, k_query)
    # Missing neighbors carry index `size`; clip them in, then drop them.
    near = _distance(subjects[:, :, None], points.take(idx, axis=1, mode="clip"), metric)
    near[dist == np.inf] = np.inf
    last = dist[:, -1] if k_query < size else np.full(n, np.inf)
    return near, idx, last


def _merged_novelty(
    near: np.ndarray, last: np.ndarray, k_eff: int, metric: Metric, *points: np.ndarray
) -> np.ndarray:
    """Scores of the first len(near) columns of the points (the concatenated
    parts) from their candidates.

    Each row of near holds dense-formula distances to a subject's tree
    candidates and to the points scored outside the tree, with excluded
    candidates at inf.  A row is trusted when its k-th distance lies clearly
    inside the tree's last returned distance: every point the tree left out
    is then farther than the k-th and cannot change the sum.  Other rows
    take the dense routine, so every score is bit-identical to the dense
    path's.
    """
    nearest = np.partition(near, k_eff - 1, axis=1)[:, :k_eff]
    nearest.sort(axis=1)
    scores = _mean_ascending(nearest)
    untrusted = np.flatnonzero(~(nearest[:, -1] < last * (1.0 - _TIE_MARGIN)))
    if untrusted.size:
        points = np.concatenate(points, axis=1)
        scores[untrusted] = _dense_novelty(points, untrusted, k_eff, metric)
    return scores


def _pool_novelty(
    pool: np.ndarray, archive: np.ndarray, k: int, metric: Metric
) -> np.ndarray:
    """Score every pool member against pool + archive, excluding itself.

    Both arguments hold x, y and arc_pos rows.  Up to TREE_CROSSOVER
    candidates the distances fill a dense matrix; above it a k-d tree over
    all of them picks the neighbors.  Both paths give bit-identical scores.
    """
    points = _coordinates(np.concatenate((pool, archive), axis=1), metric)
    n_pool = pool.shape[1]
    n = points.shape[1]
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.zeros(n_pool)
    if n <= TREE_CROSSOVER:
        return _dense_novelty(points, np.arange(n_pool), k_eff, metric)
    near, idx, last = _tree_query(_kd_tree(points), points, points[:, :n_pool], k_eff, metric)
    near[idx == np.arange(n_pool)[:, None]] = np.inf  # no subject is its own neighbor
    return _merged_novelty(near, last, k_eff, metric, points)


def _settled_tree(archive, metric: Metric):
    """The archive's k-d tree over its settled entries.

    It is built again when a delete dropped it, or when the entries
    appended or overwritten since the last build pass _REBUILD_AT.
    """
    unsettled = len(archive) - archive.settled + len(archive.stale)
    if archive.index is None or archive.index[0] is not metric or unsettled > _REBUILD_AT:
        archive.index = (metric, _kd_tree(_coordinates(archive.columns(), metric)))
        archive.settled, archive.stale = len(archive), set()
    return archive.index[1]


def _archive_novelty(pool: np.ndarray, archive, k: int, metric: Metric) -> np.ndarray:
    """Score every pool column against pool + archive, excluding itself.

    The pool is scored against the archive's settled entries through a k-d
    tree kept across generations, and densely against itself, the entries
    appended since the tree was built and the current occupants of
    overwritten (stale) slots; the tree's candidates in stale slots are
    dropped.  The scores are bit-identical to _pool_novelty over the same
    points.
    """
    n_pool = pool.shape[1]
    entries = archive.columns()
    if not n_pool <= TREE_CROSSOVER < n_pool + len(archive):
        return _pool_novelty(pool[: ARC + 1], entries[: ARC + 1], k, metric)
    k_eff = min(k, n_pool + len(archive) - 1)
    subjects = _coordinates(pool, metric)
    coords = _coordinates(entries, metric)
    tree = _settled_tree(archive, metric)
    settled = archive.settled
    stale = np.fromiter(archive.stale, np.intp, len(archive.stale))

    others = np.concatenate((subjects, coords[:, settled:], coords[:, stale]), axis=1)
    dense = _distance(subjects[:, :, None], others[:, None, :], metric)
    dense[np.arange(n_pool), np.arange(n_pool)] = np.inf
    bound = np.inf
    if dense.shape[1] >= k_eff:
        # Only tree points inside every row's k-th dense distance can count;
        # the slack keeps ulp-level differences of the tree's arithmetic out.
        dense = np.partition(dense, k_eff - 1, axis=1)[:, :k_eff]
        bound = dense.max() * (1.0 + 2.0 * _TIE_MARGIN)
    near, idx, last = _tree_query(tree, coords[:, :settled], subjects, k_eff, metric, bound)
    if stale.size:
        dropped = np.zeros(settled, dtype=bool)
        dropped[stale] = True
        near[dropped[idx.clip(max=settled - 1)]] = np.inf
    near = np.concatenate((dense, near), axis=1)
    return _merged_novelty(near, last, k_eff, metric, subjects, coords)


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
    if archive is None:
        pool[NOVELTY] = _pool_novelty(pool[: ARC + 1], _NO_POINTS, config.k, config.metric)
    else:
        pool[NOVELTY] = _archive_novelty(pool, archive, config.k, config.metric)

    # Elitist truncation; ties go to the newer individual, then the lower id.
    survivors = np.lexsort((pool[ID], -pool[BIRTH_GEN], -pool[NOVELTY]))[: config.pop_size]

    if isinstance(archive, UnstructuredArchive):
        archive.update(pool[:, survivors], rng)
    elif isinstance(archive, GridArchive):
        cells = archive.cell_indices(kids[X : Y + 1])
        kappas = [archive.insert(cell, pool[:, j], rng) for j, cell in enumerate(cells, m)]

    born = state.lineage_log.new_rows(kids.shape[1])
    born["generation"] = g_next
    born["child_id"], born["parent_id"] = kids[ID], parents[ID]
    born["child_t"], born["parent_t"] = kids[T], parents[T]

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
