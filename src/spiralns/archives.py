"""Archives and parent-sampling strategies for the novelty search loop.

Two archive families are provided.  The unstructured archive is a flat
multiset grown by copying random population members each generation, with
random eviction once a size bound is hit.  The structured archive is a
uniform grid over the behavior plane holding at most one occupant per cell;
candidates landing in an empty cell are inserted immediately, occupied cells
are retaken with a small probability.

Parent sampling either draws from the population alone, mixes in uniform
draws from the archive, or mixes in draws weighted by each entry's discovery
score eta (the exponentially mixed share of a parent's offspring that landed
in empty grid cells).

Individuals travel through the search loop as columns of one float array
whose rows are named below; `Individual` records are built from columns
only where the state is read from outside the loop.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .spiral import BehaviorPoint, Genotype, GenotypeSpace, SpiralParams

__all__ = [
    "Individual",
    "UnstructuredArchive",
    "GridArchive",
    "SamplingMode",
    "SamplingStrategy",
    "to_records",
    "sample_parents",
    "update_discovery_scores",
]

# Rows of an individuals array, one individual per column.  x, y and arc_pos
# come first: they are the coordinate rows novelty scoring reads.  A root has
# parent_id -1 and birth_delta NaN; space is the index into GenotypeSpace.
(X, Y, ARC, T, VALUE, SPACE, NOVELTY, ETA, ID, PARENT_ID, BIRTH_GEN,
 BIRTH_DELTA) = range(12)
N_ROWS = 12
_SPACES = tuple(GenotypeSpace)


@dataclass
class Individual:
    """One evaluated genotype, as read from the state of a run."""

    id: int
    genotype: Genotype
    behavior: BehaviorPoint
    arc_pos: float  # S(0, behavior.t), cached for geodesic scoring and deltas
    novelty: float = 0.0
    eta: float = 0.0
    parent_id: Optional[int] = None
    birth_generation: int = 0
    birth_delta: Optional[float] = None  # arc_pos - parent's arc_pos, None for roots


def to_records(cols: np.ndarray) -> list:
    """Fresh Individual records for the columns of an (N_ROWS, n) array."""
    return [
        Individual(
            int(ident), Genotype(value, _SPACES[int(space)]), BehaviorPoint(x, y, t),
            arc, novelty, eta, None if parent < 0 else int(parent), int(gen),
            None if math.isnan(delta) else delta,
        )
        for x, y, arc, t, value, space, novelty, eta, ident, parent, gen, delta
        in zip(*cols.tolist())
    ]


_NO_ENTRIES = np.empty((N_ROWS, 0))


class SamplingMode(Enum):
    POPULATION_ONLY = "population"
    MIXED_RANDOM = "mixed_random"
    MIXED_GUIDED = "mixed_guided"


@dataclass
class SamplingStrategy:
    """How the N parent slots of a generation are filled.

    archive_fraction is the share of slots drawn from the archive (0 forces
    population-only behaviour), tau the update rate of the discovery score.
    """

    mode: SamplingMode = SamplingMode.POPULATION_ONLY
    archive_fraction: float = 0.5
    tau: float = 0.5

    def __post_init__(self):
        if self.mode is SamplingMode.POPULATION_ONLY:
            self.archive_fraction = 0.0
        if not 0.0 <= self.archive_fraction <= 1.0:
            raise ValueError(f"archive_fraction must be in [0,1], got {self.archive_fraction}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0,1], got {self.tau}")


class _Store:
    """Items along the last axis of a buffer that doubles when full."""

    def __init__(self, shape: tuple, dtype=float):
        self._data = np.empty((*shape, 64), dtype)
        self._n = 0  # items filled, from the start of the last axis

    def __len__(self):
        return self._n

    def _new(self, k: int) -> np.ndarray:
        """Count k more items as filled; returns their slots, for the caller to write."""
        n = self._n
        *rows, capacity = self._data.shape
        if n + k > capacity:
            # Not np.concatenate, which copies structured arrays field by field: ~6x slower.
            grown = np.empty_like(self._data, shape=(*rows, max(2 * capacity, n + k)))
            grown[..., :n] = self._data[..., :n]
            self._data = grown
        self._n += k
        return self._data[..., n : n + k]


class _Archive(_Store):
    """The entries of either archive kind, as the columns of a growable
    (N_ROWS, n) array, read through columns().

    Entries are copies: later changes to the columns they came from do not
    reach the archive.  Each kind defines its own individuals(), so that a
    tracer can wrap the method per class.
    """

    def __init__(self):
        super().__init__((N_ROWS,))
        # Novelty scoring's k-d tree (see evolution) and, per tree point, the
        # column it stands for: -1 once that column was overwritten or deleted.
        self.index = None
        self.tree_columns = np.empty(0, np.intp)
        self.rows = None  # last kept-tree query (tree, dist, found), a row per population column

    def columns(self) -> np.ndarray:
        """Read-only (N_ROWS, len) view of the entries, one per column."""
        cols = self._data[:, : self._n]
        cols.flags.writeable = False
        return cols

    def _put(self, i: int, col: np.ndarray):
        """Overwrite column i with col (shape (N_ROWS,))."""
        self._data[:, i] = col
        self.tree_columns[self.tree_columns == i] = -1

    def _delete(self, i: int):
        self._data[:, i : self._n - 1] = self._data[:, i + 1 : self._n]
        self._n -= 1
        self.tree_columns[self.tree_columns == i] = -1
        self.tree_columns[self.tree_columns > i] -= 1


class UnstructuredArchive(_Archive):
    """Flat multiset of individuals with optional size bound and random eviction."""

    def __init__(self, max_size: Optional[int] = None, additions_per_generation=6):
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if additions_per_generation < 1:
            raise ValueError(
                f"additions_per_generation must be >= 1, got {additions_per_generation}"
            )
        self.max_size = max_size
        self.additions_per_generation = additions_per_generation
        super().__init__()

    def individuals(self) -> list:
        """Fresh records of the members, in storage order."""
        return to_records(self.columns())

    def update(self, population: np.ndarray, rng: np.random.Generator):
        """Copy random population columns in, then evict randomly down to the bound."""
        size = population.shape[1]
        if not size:
            raise ValueError("cannot update archive from an empty population")
        take = min(self.additions_per_generation, size)
        self._new(take)[:] = population[:, rng.choice(size, size=take, replace=False)]
        if self.max_size is not None:
            while self._n > self.max_size:
                self._delete(int(rng.integers(self._n)))


class GridArchive(_Archive):
    """Uniform grid over the behavior bounding box, one occupant per cell.

    Cells are half-open; points on the upper edges fall into the last cell,
    and out-of-range points are clamped to the border cells.
    """

    def __init__(self, params: SpiralParams, resolution: int = 50, epsilon: float = 0.05):
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0,1), got {epsilon}")
        self.resolution = resolution
        self.epsilon = epsilon
        self.lower = -params.extent
        fits = 1 <= resolution <= sys.float_info.max  # past it, dividing by the int overflows
        self.cell_width = (params.extent - self.lower) / resolution if fits else 0.0
        if not self.cell_width > 0.0:
            raise ValueError(f"resolution must be >= 1 and leave cells a width, got {resolution}")
        # Cells are never emptied: each keeps its first occupant's column.
        self._slots = {}
        super().__init__()

    def individuals(self) -> list:
        """Fresh records of the occupants, in order of their cells' first fill."""
        return to_records(self.columns())

    def cell_indices(self, points: np.ndarray) -> list:
        """(row, col) cells of the points in x and y rows (2, n); row indexes y, col x."""
        # Clamp before flooring: far-off points divide to an infinite quotient.
        # On Python numbers, so the last index stays exact past 2**53.
        with np.errstate(over="ignore"):
            q = (points[::-1] - self.lower) / self.cell_width
        rows, cols = np.floor(np.clip(q.astype(object), 0.0, self.resolution - 1)).tolist()
        return list(zip(rows, cols))

    def insert(self, cell: tuple, candidate: np.ndarray, rng: np.random.Generator) -> bool:
        """Copy the candidate column into its cell; returns whether the cell was empty."""
        slot = self._slots.get(cell)
        if slot is None:
            self._slots[cell] = self._n
            self._new(1)[:, 0] = candidate
            return True
        if rng.random() < self.epsilon:
            self._put(slot, candidate)
        return False

    def set_etas(self, slots: np.ndarray, ids: np.ndarray, etas: np.ndarray):
        """Write discovery scores to the given columns that still hold the given ids.

        A column whose occupant was retaken since its id was read keeps the
        new occupant's score.
        """
        held = self._data[ID, slots] == ids
        self._data[ETA, slots[held]] = etas[held]


def sample_parents(
    strategy: SamplingStrategy,
    population: np.ndarray,
    archive,
    n: int,
    rng: np.random.Generator,
) -> tuple:
    """Pick the N parents of a generation.

    Mixed modes reserve floor(archive_fraction * n) slots for archive draws
    (uniform, or eta-proportional when guided) and fill the rest from the
    population; an empty or missing archive sends every draw back to the
    population.  All draws are with replacement.  Returns the parents'
    columns, archive draws first, and the archive columns drawn.
    """
    if not population.shape[1]:
        raise ValueError("cannot sample parents from an empty population")
    entries = archive.columns() if archive is not None else _NO_ENTRIES
    n_entries = entries.shape[1]
    n_archive = 0
    if strategy.mode is not SamplingMode.POPULATION_ONLY and n_entries:
        n_archive = int(strategy.archive_fraction * n)

    picks = np.empty(0, dtype=np.int64)
    if n_archive:
        etas = entries[ETA]
        total = etas.sum() if strategy.mode is SamplingMode.MIXED_GUIDED else 0.0
        if total > 0.0:
            # Generator.choice's own steps, without its checks of p on every call.
            cdf = (etas / total).cumsum()
            cdf /= cdf[-1]
            picks = cdf.searchsorted(rng.random(n_archive), side="right")
        else:
            picks = rng.integers(n_entries, size=n_archive)
    parents = population[:, rng.integers(population.shape[1], size=n - n_archive)]
    if n_archive:
        parents = np.concatenate((entries[:, picks], parents), axis=1)
    return parents, picks


def update_discovery_scores(
    ids: np.ndarray,
    etas: np.ndarray,
    parent_ids: np.ndarray,
    kappas: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Mix each parent's share of this generation's cell discoveries into eta.

    eta <- tau * eta + (1 - tau) * (own discoveries / total discoveries),
    for every id in `ids` (which must be unique), given each offspring's
    parent id and whether it found an empty cell (kappa).  With zero
    discoveries in the generation the fresh term is zero and every eta
    simply decays.  Returns the new etas.  An offspring whose parent is not
    among `ids` indicates a bookkeeping bug and raises.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    position = {ident: j for j, ident in enumerate(np.asarray(ids).tolist())}
    counts = [0] * len(position)
    for parent, kappa in zip(np.asarray(parent_ids).tolist(), kappas):
        if parent not in position:
            raise ValueError(f"an offspring's parent {parent} is not in the given population")
        counts[position[parent]] += int(kappa)
    total = sum(counts)
    share = np.array(counts) / total if total > 0 else np.zeros(len(counts))
    return tau * np.asarray(etas, dtype=float) + (1.0 - tau) * share
