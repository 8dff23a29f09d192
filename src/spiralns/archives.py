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
    "to_columns",
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


def to_columns(individuals) -> np.ndarray:
    """The records as the columns of an (N_ROWS, n) array."""
    cols = np.empty((N_ROWS, len(individuals)))
    for j, ind in enumerate(individuals):
        b = ind.behavior
        cols[:, j] = (
            b.x, b.y, ind.arc_pos, b.t, ind.genotype.value,
            _SPACES.index(ind.genotype.space), ind.novelty, ind.eta, ind.id,
            -1 if ind.parent_id is None else ind.parent_id, ind.birth_generation,
            math.nan if ind.birth_delta is None else ind.birth_delta,
        )
    return cols


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


class _Rows:
    """An archive's entries as the columns of a growable (N_ROWS, n) array.

    Entries are copies: later changes to the columns they came from do not
    reach the archive.
    """

    def __init__(self, cols: np.ndarray):
        n = cols.shape[1]
        self._data = np.empty((N_ROWS, max(64, 2 * n)))
        self._data[:, :n] = cols
        self._n = n

    def __len__(self):
        return self._n

    def append(self, cols: np.ndarray):
        """Append one column (shape (N_ROWS,)) or several (N_ROWS, k)."""
        k = 1 if cols.ndim == 1 else cols.shape[1]
        if self._n + k > self._data.shape[1]:
            grown = np.empty((N_ROWS, max(2 * self._data.shape[1], self._n + k)))
            grown[:, : self._n] = self._data[:, : self._n]
            self._data = grown
        self._data[:, self._n : self._n + k] = cols.reshape(N_ROWS, k)
        self._n += k

    def put(self, i, col, row=slice(None)):
        self._data[row, i] = col

    def delete(self, i: int):
        self._data[:, i : self._n - 1] = self._data[:, i + 1 : self._n]
        self._n -= 1

    def view(self) -> np.ndarray:
        rows = self._data[:, : self._n]
        rows.flags.writeable = False
        return rows


class _Archive:
    """Read access shared by both archive kinds (each defines its own
    individuals(), so that a tracer can wrap the method per class)."""

    def __len__(self):
        return len(self._rows)

    def coords(self) -> np.ndarray:
        """Read-only (3, len) view of the entries' x, y and arc_pos rows.

        Columns follow individuals(); the view is valid until the next change.
        """
        return self._rows.view()[: ARC + 1]


class UnstructuredArchive(_Archive):
    """Flat multiset of individuals with optional size bound and random eviction."""

    def __init__(self, max_size: Optional[int] = None, additions_per_generation=6, members=()):
        if max_size is not None and max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        if additions_per_generation < 1:
            raise ValueError(
                f"additions_per_generation must be >= 1, got {additions_per_generation}"
            )
        self.max_size = max_size
        self.additions_per_generation = additions_per_generation
        self._rows = _Rows(to_columns(list(members)))

    def individuals(self) -> list:
        """Fresh records of the members, in storage order."""
        return to_records(self._rows.view())

    def update(self, population: np.ndarray, rng: np.random.Generator):
        """Copy random population columns in, then evict randomly down to the bound."""
        size = population.shape[1]
        if not size:
            raise ValueError("cannot update archive from an empty population")
        take = min(self.additions_per_generation, size)
        self._rows.append(population[:, rng.choice(size, size=take, replace=False)])
        if self.max_size is not None:
            while len(self._rows) > self.max_size:
                self._rows.delete(int(rng.integers(len(self._rows))))


class GridArchive(_Archive):
    """Uniform grid over the behavior bounding box, one occupant per cell.

    Cells are half-open; points on the upper edges fall into the last cell,
    and out-of-range points are clamped to the border cells.
    """

    def __init__(self, params: SpiralParams, resolution: int = 50, epsilon: float = 0.05):
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0,1), got {epsilon}")
        self.params = params
        self.resolution = resolution
        self.epsilon = epsilon
        self.lower = -params.extent
        self.upper = params.extent
        self.cell_width = (self.upper - self.lower) / resolution
        # Cells are never emptied: each keeps its first occupant's column.
        self._slots = {}
        self._rows = _Rows(_NO_ENTRIES)

    def individuals(self) -> list:
        """Fresh records of the occupants, in order of their cells' first fill."""
        return to_records(self._rows.view())

    def _axis_index(self, v: float) -> int:
        i = int(math.floor((v - self.lower) / self.cell_width))
        return min(max(i, 0), self.resolution - 1)

    def cell_index(self, x: float, y: float) -> tuple[int, int]:
        """(row, col) of the cell containing the point; row indexes y, col x."""
        return self._axis_index(y), self._axis_index(x)

    def insert(self, candidate: np.ndarray, rng: np.random.Generator) -> bool:
        """Insert a copy of the candidate column; returns whether its cell was empty."""
        idx = self.cell_index(*candidate[X : Y + 1].tolist())
        slot = self._slots.get(idx)
        if slot is None:
            self._slots[idx] = len(self._rows)
            self._rows.append(candidate)
            return True
        if rng.random() < self.epsilon:
            self._rows.put(slot, candidate)
        return False

    def set_etas(self, slots: np.ndarray, ids: np.ndarray, etas: np.ndarray):
        """Write discovery scores to the given columns that still hold the given ids.

        A column whose occupant was retaken since its id was read keeps the
        new occupant's score.
        """
        held = self._rows.view()[ID, slots] == ids
        self._rows.put(slots[held], etas[held], ETA)


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
    entries = archive._rows.view() if archive is not None else _NO_ENTRIES
    n_entries = entries.shape[1]
    n_archive = 0
    if strategy.mode is not SamplingMode.POPULATION_ONLY and n_entries:
        n_archive = int(strategy.archive_fraction * n)

    picks = np.empty(0, dtype=np.int64)
    if n_archive:
        etas = entries[ETA]
        total = etas.sum() if strategy.mode is SamplingMode.MIXED_GUIDED else 0.0
        if total > 0.0:
            picks = rng.choice(n_entries, size=n_archive, p=etas / total)
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
