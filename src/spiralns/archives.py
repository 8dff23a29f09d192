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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .spiral import BehaviorPoint, SpiralParams

if TYPE_CHECKING:
    from .evolution import Individual

__all__ = [
    "UnstructuredArchive",
    "GridArchive",
    "SamplingMode",
    "SamplingStrategy",
    "unstructured_update",
    "grid_insert",
    "cell_index",
    "sample_parents",
    "update_discovery_scores",
]


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


def _snapshot(ind: "Individual") -> "Individual":
    # Archive entries are copies: later changes to the live individual must
    # not leak into the archive.
    return replace(ind)


class _Coords:
    """x, y and arc_pos of archive entries as the rows of a growable array.

    Novelty scoring reads these rows every generation; keeping them beside
    the entries spares it a pass over the entry objects.
    """

    def __init__(self, entries=()):
        self._data = np.empty((3, max(64, 2 * len(entries))))
        self._n = 0
        for ind in entries:
            self.append(ind)

    def append(self, ind: "Individual"):
        if self._n == self._data.shape[1]:
            grown = np.empty((3, 2 * self._n))
            grown[:, : self._n] = self._data[:, : self._n]
            self._data = grown
        self.put(self._n, ind)
        self._n += 1

    def put(self, i: int, ind: "Individual"):
        self._data[:, i] = (ind.behavior.x, ind.behavior.y, ind.arc_pos)

    def delete(self, i: int):
        self._data[:, i : self._n - 1] = self._data[:, i + 1 : self._n]
        self._n -= 1

    def view(self) -> np.ndarray:
        rows = self._data[:, : self._n]
        rows.flags.writeable = False
        return rows


@dataclass
class UnstructuredArchive:
    """Flat multiset of individuals with optional size bound and random eviction."""

    max_size: Optional[int] = None
    additions_per_generation: int = 6
    members: list = field(default_factory=list)  # change only through update

    def __post_init__(self):
        if self.max_size is not None and self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if self.additions_per_generation < 1:
            raise ValueError(
                f"additions_per_generation must be >= 1, got {self.additions_per_generation}"
            )
        self._coords = _Coords(self.members)

    def __len__(self):
        return len(self.members)

    def individuals(self) -> list:
        return self.members

    def coords(self) -> np.ndarray:
        """Read-only (3, len) view of the members' x, y and arc_pos rows.

        Columns follow individuals(); the view is valid until the next update.
        """
        return self._coords.view()

    def update(self, population: list, rng: np.random.Generator):
        """Copy random population members in, then evict randomly down to the bound."""
        if not population:
            raise ValueError("cannot update archive from an empty population")
        take = min(self.additions_per_generation, len(population))
        picks = rng.choice(len(population), size=take, replace=False)
        for i in picks:
            entry = _snapshot(population[int(i)])
            self.members.append(entry)
            self._coords.append(entry)
        if self.max_size is not None:
            while len(self.members) > self.max_size:
                victim = int(rng.integers(len(self.members)))
                self.members.pop(victim)
                self._coords.delete(victim)


@dataclass
class GridArchive:
    """Uniform grid over the behavior bounding box, one occupant per cell.

    Cells are half-open; points on the upper edges fall into the last cell,
    and out-of-range points are clamped to the border cells.
    """

    params: SpiralParams
    resolution: int = 50
    epsilon: float = 0.05
    cells: dict = field(default_factory=dict)  # change only through insert

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0,1), got {self.epsilon}")
        self.lower = -self.params.extent
        self.upper = self.params.extent
        self.cell_width = (self.upper - self.lower) / self.resolution
        # Cells are never emptied, so a cell keeps the slot of its first
        # occupant, which is also its position in the insertion-ordered dict.
        self._slots = {idx: slot for slot, idx in enumerate(self.cells)}
        self._coords = _Coords(self.cells.values())

    def __len__(self):
        return len(self.cells)

    def individuals(self) -> list:
        return list(self.cells.values())

    def coords(self) -> np.ndarray:
        """Read-only (3, len) view of the occupants' x, y and arc_pos rows.

        Columns follow individuals(); the view is valid until the next insert.
        """
        return self._coords.view()

    def _axis_index(self, v: float) -> int:
        i = int(math.floor((v - self.lower) / self.cell_width))
        return min(max(i, 0), self.resolution - 1)

    def cell_index(self, behavior: BehaviorPoint) -> tuple[int, int]:
        """(row, col) of the cell containing the point; row indexes y, col x."""
        return self._axis_index(behavior.y), self._axis_index(behavior.x)

    def insert(self, candidate: "Individual", rng: np.random.Generator) -> bool:
        """Insert a copy of the candidate; returns whether its cell was empty."""
        idx = self.cell_index(candidate.behavior)
        if idx not in self.cells:
            self._slots[idx] = len(self.cells)
            self.cells[idx] = _snapshot(candidate)
            self._coords.append(candidate)
            return True
        if rng.random() < self.epsilon:
            self.cells[idx] = _snapshot(candidate)
            self._coords.put(self._slots[idx], candidate)
        return False


def unstructured_update(
    archive: UnstructuredArchive, population: list, rng: np.random.Generator
) -> UnstructuredArchive:
    archive.update(population, rng)
    return archive


def grid_insert(
    archive: GridArchive, candidate: "Individual", rng: np.random.Generator
) -> tuple[GridArchive, bool]:
    was_new_cell = archive.insert(candidate, rng)
    return archive, was_new_cell


def cell_index(behavior: BehaviorPoint, archive: GridArchive) -> tuple[int, int]:
    return archive.cell_index(behavior)


def sample_parents(
    strategy: SamplingStrategy,
    population: list,
    archive,
    n: int,
    rng: np.random.Generator,
) -> list:
    """Pick the N parents of a generation.

    Mixed modes reserve floor(archive_fraction * n) slots for archive draws
    (uniform, or eta-proportional when guided) and fill the rest from the
    population; an empty or missing archive sends every draw back to the
    population.  All draws are with replacement.
    """
    if not population:
        raise ValueError("cannot sample parents from an empty population")
    entries = archive.individuals() if archive is not None else []
    n_archive = 0
    if strategy.mode is not SamplingMode.POPULATION_ONLY and entries:
        n_archive = int(strategy.archive_fraction * n)

    parents = []
    if n_archive:
        if strategy.mode is SamplingMode.MIXED_GUIDED:
            etas = np.array([e.eta for e in entries], dtype=float)
            total = etas.sum()
            if total > 0.0:
                picks = rng.choice(len(entries), size=n_archive, p=etas / total)
            else:
                picks = rng.integers(len(entries), size=n_archive)
        else:
            picks = rng.integers(len(entries), size=n_archive)
        parents.extend(entries[int(i)] for i in picks)

    picks = rng.integers(len(population), size=n - n_archive)
    parents.extend(population[int(i)] for i in picks)
    return parents


def update_discovery_scores(
    population: list, offspring_with_kappa: list, tau: float
) -> list:
    """Mix each parent's share of this generation's cell discoveries into eta.

    eta <- tau * eta + (1 - tau) * (own discoveries / total discoveries),
    applied to every individual in `population` (ids must be unique).  With
    zero discoveries in the generation the fresh term is zero and every eta
    simply decays.  Offspring whose parent is not in `population` indicate a
    bookkeeping bug and raise.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0,1], got {tau}")
    ids = {ind.id for ind in population}
    counts: dict = {}
    total = 0
    for child, kappa in offspring_with_kappa:
        if child.parent_id is None or child.parent_id not in ids:
            raise ValueError(f"offspring {child.id} has no parent in the given population")
        k = int(kappa)
        total += k
        counts[child.parent_id] = counts.get(child.parent_id, 0) + k
    for ind in population:
        share = counts.get(ind.id, 0) / total if total > 0 else 0.0
        ind.eta = tau * ind.eta + (1.0 - tau) * share
    return population
