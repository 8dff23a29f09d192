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
from .archives import SPACE, T, VALUE, X, Y, _NO_ENTRIES, _Store
from .archives import (
    GridArchive,
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
# rebuilt every generation ties near 360 (euclidean) and 560 (geodesic).
TREE_CROSSOVER = 400

# Archive columns not held by a live point of the archive's k-d tree
# (appended or overwritten since the build), past which the tree is built
# again.  Until then they are scored densely, with the pool.
_REBUILD_AT = 48

# Relative gap a row's k-th distance must keep below the tree's last returned
# distance before the tree's choice of candidates is trusted.  Tree distances
# differ from the dense formula by a few ulp at most, far inside this gap.
_TIE_MARGIN = 1e-9


def _coordinates(cols: np.ndarray, metric: Metric) -> np.ndarray:
    """The rows of cols the metric reads (rows as in `archives`)."""
    return cols[ARC : ARC + 1] if metric is Metric.GEODESIC else cols[X : Y + 1]


def _distance(a: np.ndarray, b: np.ndarray, metric: Metric) -> np.ndarray:
    """Elementwise distance between broadcastable points a and b.

    Points are columns of the metric's coordinate rows: arc_pos alone for
    geodesic, x and y for Euclidean.
    """
    d = a - b
    if metric is Metric.GEODESIC:
        return np.abs(d[0])
    d *= d  # squared in place: the bits of dx * dx + dy * dy, with fewer temporaries
    return np.sqrt(d[0] + d[1])


def _mean_ascending(nearest: np.ndarray) -> np.ndarray:
    # A running sum along each row adds the columns one at a time, in
    # ascending order, so the result is bit-identical to summing a sorted
    # Python list of the same distances.
    return nearest.cumsum(axis=1)[:, -1] / nearest.shape[1]


def _dense_novelty(
    points: np.ndarray, rows: np.ndarray, k_eff: int, metric: Metric, subjects=None
) -> np.ndarray:
    """Score the given columns of points (held in subjects, if given) against
    every column but their own."""
    subjects = points[:, rows] if subjects is None else subjects
    dist = _distance(subjects[:, :, None], points[:, None, :], metric)
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


def _kept_tree(archive, metric: Metric):
    """The archive's k-d tree, kept across generations, with the candidate
    column of each tree point (archive.tree_columns) and the archive columns
    no live tree point holds.

    The tree is built again, over every column, when more than _REBUILD_AT
    columns are loose.
    """
    held = np.zeros(len(archive) + 1, dtype=bool)
    held[archive.tree_columns] = True  # a dead point's -1 lands on the spare last entry
    loose = np.flatnonzero(~held[:-1])
    if archive.index is None or archive.index[0] is not metric or len(loose) > _REBUILD_AT:
        archive.index = (metric, _kd_tree(_coordinates(archive.columns(), metric)))
        archive.tree_columns, loose = np.arange(len(archive)), loose[:0]
    return archive.index[1], archive.tree_columns, loose


def _novelty(pool: np.ndarray, archive, k: int, metric: Metric, carried=None) -> np.ndarray:
    """Score each pool column against the rest of pool + archive (None for none).

    The candidates are the archive's columns, then the pool's, so pool
    column r is candidate len(archive) + r.  Up to TREE_CROSSOVER candidates
    the distances fill a dense matrix.  Past it, each subject is scored
    against a dense block of candidates plus its k + 2 nearest points of a
    k-d tree, whose point j stands for candidate columns[j] (-1 for none).
    A pool of at most TREE_CROSSOVER queries the archive's kept tree, with
    the archive columns no live tree point holds, then the pool, as the
    dense block; a larger pool queries one tree over all the candidates.  A
    row is trusted when its k-th distance lies clearly inside the tree's
    last returned distance, so that no point the tree left out can change
    its sum, or is 0, so that its score is 0 whatever was left out.  Other
    rows take the dense routine, so every path gives bit-identical scores.

    The kept tree's source records its query rows (tree, dist, found), one
    per pool column, as archive.rows.  Such rows `carried` for pool columns
    0..len - 1 stand in for their query when they came from this tree with
    this k: an unchanged point on an unchanged tree gets the same rows.
    """
    subjects = _coordinates(pool, metric)
    coords = _coordinates(_NO_ENTRIES if archive is None else archive.columns(), metric)
    n_pool, n = subjects.shape[1], subjects.shape[1] + coords.shape[1]
    rows = np.arange(n - n_pool, n)  # each subject's own candidate column
    k_eff = min(k, n - 1)
    if k_eff < 1:
        return np.zeros(n_pool)
    points = np.concatenate((coords, subjects), axis=1) if coords.shape[1] else subjects
    if n <= TREE_CROSSOVER:
        return _dense_novelty(points, rows, k_eff, metric, subjects)
    if n_pool > TREE_CROSSOVER:
        tree, columns, loose = _kd_tree(points), np.arange(n), None
    else:
        tree, columns, loose = _kept_tree(archive, metric)
    k_query = min(k_eff + 2, tree.n)
    reuse = carried is not None and carried[0] is tree and carried[1].shape[1] == k_query
    done = len(carried[1]) if reuse else 0
    dist, found = tree.query(subjects[:, done:].T, k=k_query)
    dist, found = dist.reshape(-1, k_query), found.reshape(-1, k_query)
    if reuse:
        dist, found = np.concatenate((carried[1], dist)), np.concatenate((carried[2], found))
    idx = columns[found]
    near = _distance(subjects[:, :, None], points.take(idx, axis=1), metric)
    near[(idx < 0) | (idx == rows[:, None])] = np.inf
    if loose is not None:  # the kept tree's source: record its rows; dense block first
        archive.rows = tree, dist, found
        others = np.concatenate((coords.take(loose, axis=1), subjects), axis=1)
        block = _distance(subjects[:, :, None], others[:, None, :], metric)
        block.reshape(-1)[len(loose) :: block.shape[1] + 1] = np.inf  # each subject's own column
        near = np.concatenate((block, near), axis=1)
    nearest = np.partition(near, k_eff - 1, axis=1)[:, :k_eff]
    nearest.sort(axis=1)
    scores = _mean_ascending(nearest)
    last = dist[:, -1] if k_query < tree.n else np.inf
    kth = nearest[:, -1]
    untrusted = np.flatnonzero(~((kth < last * (1.0 - _TIE_MARGIN)) | (kth == 0.0)))
    if untrusted.size:
        scores[untrusted] = _dense_novelty(points, rows[untrusted], k_eff, metric)
    return scores


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
    carried = None if archive is None else archive.rows  # the population's, if any were kept
    pool[NOVELTY] = _novelty(pool, archive, config.k, config.metric, carried)

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
    if archive is not None:  # this generation's kept-tree rows, if any, for the survivors
        new = archive.rows
        archive.rows = None if new is carried else (new[0], new[1][survivors], new[2][survivors])
    state.generation = g_next
    return state
