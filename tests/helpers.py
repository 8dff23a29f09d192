"""Test helpers that build the program's column arrays from Individual records."""

import math

import numpy as np

from spiralns import GenotypeSpace, UnstructuredArchive
from spiralns.archives import ARC, N_ROWS


def to_columns(individuals) -> np.ndarray:
    """The records as the columns of an (N_ROWS, n) array, rows as in `archives`."""
    cols = np.empty((N_ROWS, len(individuals)))
    for j, ind in enumerate(individuals):
        b = ind.behavior
        cols[:, j] = (
            b.x, b.y, ind.arc_pos, b.t, ind.genotype.value,
            list(GenotypeSpace).index(ind.genotype.space), ind.novelty, ind.eta, ind.id,
            -1 if ind.parent_id is None else ind.parent_id, ind.birth_generation,
            math.nan if ind.birth_delta is None else ind.birth_delta,
        )
    return cols


def unstructured_archive(members, **kwargs) -> UnstructuredArchive:
    """An unstructured archive holding copies of the given records, in order."""
    archive = UnstructuredArchive(**kwargs)
    archive._rows.append(to_columns(members))
    return archive


def coords(archive) -> np.ndarray:
    """Read-only (3, len) view of the entries' x, y and arc_pos rows, the
    rows novelty scoring reads; columns follow individuals()."""
    return archive._rows.view()[: ARC + 1]


def scalar_median(values) -> float:
    """Sort-based median of a list, mean of the middle two for even counts,
    0.0 if empty: the per-generation rule `analysis.medians` must match."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
