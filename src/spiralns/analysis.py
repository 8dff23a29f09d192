"""Run analysis: medians, oscillation fits, phases, coverage.

The central series is H, each generation's median arc-length mutation delta
(birth_delta) over the surviving population, roots excluded; runs record it
in their telemetry.  Expansion and retraction phases are sign runs of a
smoothed H, and the damped-cosine fit quantifies how that oscillation decays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .spiral import SpiralParams, arc_lengths_from_origin

__all__ = [
    "OscillatorFit",
    "PhaseKind",
    "Phase",
    "CoverageAccumulator",
    "coverage_bins",
    "medians",
    "fit_damped_oscillator",
    "segment_phases",
]

MIN_FIT_SAMPLES = 20


@dataclass(frozen=True)
class OscillatorFit:
    """Parameters of A * exp(-decay * g) * cos(frequency * g + phase) + offset."""

    amplitude: float
    decay: float
    frequency: float
    phase: float
    offset: float
    residual: float  # root mean square error over the fitted range


class PhaseKind(Enum):
    EXPANSION = "expansion"
    RETRACTION = "retraction"


class Phase(NamedTuple):
    start: int
    end: int  # inclusive
    kind: PhaseKind


def medians(rows: np.ndarray) -> np.ndarray:
    """The median of each row's non-NaN entries: the middle one, or the mean
    of the middle two for even counts, and 0.0 where there are none.

    The stable sort keeps equal values (0.0 and -0.0) in row order, so each
    result is the one a sort of the row's values as Python floats gives.
    """
    ordered = np.sort(rows, axis=1, kind="stable")  # NaN sorts last
    n = np.count_nonzero(~np.isnan(rows), axis=1)
    at, mid = np.arange(len(rows)), n // 2
    hi, lo = ordered[at, mid], ordered[at, (mid - 1).clip(min=0)]
    return np.where(n % 2, hi, np.where(n, (lo + hi) / 2.0, 0.0))


# Bounds of the refinement, in the order amplitude, decay, frequency, phase, offset.
LOWER = np.array([-np.inf, 0.0, 1e-9, -2.0 * math.pi, -np.inf])
UPPER = np.array([np.inf, np.inf, math.pi, 2.0 * math.pi, np.inf])
LOWER.flags.writeable = UPPER.flags.writeable = False

# The relative forward-difference step least_squares takes for jac="2-point".
_REL_STEP = np.finfo(float).eps ** 0.5


@functools.lru_cache(maxsize=2)
def _grid_tables(n: int):
    """The seed grid's parts that depend on the history length n alone: the
    decay and frequency grids, the exp, cos and sin tables over generations,
    and the (L, W, 3, 3) normal matrices of every grid point, ridge included.

    Two lengths are kept: a batch, or analyze over one batch directory, fits
    histories of one length, and two batches of different lengths may
    alternate.  Each costs about 4 KB per generation plus 0.43 MB.  The
    arrays are read-only, since every fit of that length shares them.
    """
    g = np.arange(n, dtype=float)
    lams = np.concatenate([[0.0], np.geomspace(0.1 / n, 20.0 / n, 24)])
    omegas = np.geomspace(math.pi / n, math.pi, 240)

    E = np.exp(-np.outer(lams, g))  # (L, n)
    C = np.cos(np.outer(omegas, g))  # (W, n)
    S = np.sin(np.outer(omegas, g))

    E2 = E * E
    mats = np.empty((len(lams), len(omegas), 3, 3))
    mats[..., 0, 0] = E2 @ (C * C).T
    mats[..., 0, 1] = mats[..., 1, 0] = E2 @ (C * S).T
    mats[..., 0, 2] = mats[..., 2, 0] = E @ C.T
    mats[..., 1, 1] = E2 @ (S * S).T
    mats[..., 1, 2] = mats[..., 2, 1] = E @ S.T
    mats[..., 2, 2] = float(n)
    mats += 1e-12 * np.eye(3)
    tables = lams, omegas, E, C, S, mats
    for table in tables:
        table.flags.writeable = False
    return tables


def _grid_seed_candidates(y: np.ndarray, n_best: int = 5):
    """Coarse (decay, frequency) grid with a linear solve at each point.

    The model is linear in (P, Q, c) once decay and frequency are fixed:
    exp(-decay*g) * (P*cos + Q*sin) + c.  Normal equations for every grid
    point are batched as matrix products, and the lowest-error points seed
    the non-linear refinement.  Only their right-hand sides depend on y.
    """
    lams, omegas, E, C, S, mats = _grid_tables(len(y))
    uy = (E * y) @ C.T
    vy = (E * y) @ S.T
    wy = float(y.sum())
    yy = float(y @ y)

    rhs = np.stack(
        [uy, vy, np.full_like(uy, wy)], axis=-1
    )  # (L, W, 3)
    beta = np.linalg.solve(mats, rhs[..., None])[..., 0]
    sse = yy - 2.0 * (beta * rhs).sum(-1) + np.einsum(
        "...i,...ij,...j->...", beta, mats, beta
    )

    order = np.argsort(sse, axis=None)[:n_best]
    seeds = []
    for flat in order:
        i, j = divmod(int(flat), len(omegas))
        p, q, c = beta[i, j]
        amplitude = math.hypot(p, q)
        phase = math.atan2(-q, p)
        seeds.append((amplitude, lams[i], omegas[j], phase, c))
    return seeds


def _forward_jacobian(resid, x: np.ndarray) -> np.ndarray:
    """The Jacobian least_squares computes for jac="2-point", number for
    number, with x and the five stepped points evaluated in one call.

    The step is sqrt(eps) * sign(x) * max(1, |x|), sign(0) = +1.  A step
    that leaves the bounds is reversed if it fits on the other side, and
    otherwise becomes the distance to the farther bound.
    """
    h = _REL_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    below, above = x - LOWER, UPPER - x
    stepped = x + h
    fits = np.abs(h) <= np.maximum(below, above)
    h = np.where(((stepped < LOWER) | (stepped > UPPER)) & fits, -h, h)
    h = np.where(fits, h, np.where(above >= below, above, -below))
    points = np.repeat(x[:, None], len(x) + 1, axis=1)  # column 0 is x itself
    points[np.arange(len(x)), np.arange(1, len(x) + 1)] = x + h
    f = resid(points)
    return ((f[1:] - f[0]) / ((x + h) - x)[:, None]).T


def fit_damped_oscillator(H: Sequence[float]) -> OscillatorFit:
    """Least-squares fit of a decaying cosine to a median-delta history.

    A coarse grid over decay and frequency (with the remaining parameters
    solved linearly) seeds a bounded non-linear refinement; the candidate
    with the smallest residual wins.  H must be finite, with a finite sum of
    squares.
    """
    # Imported here: scipy.optimize takes most of a second to load, and
    # nothing else in the package needs it.
    from scipy.optimize import least_squares

    y = np.asarray(H, dtype=float)
    if len(y) < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples to fit, got {len(y)}"
        )
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"H[{i}] is {y[i].item()!r}; the fit needs finite values")
    with np.errstate(over="ignore"):
        if not math.isfinite(float(y @ y)):
            raise ValueError("the sum of squares overflows; the fit needs it finite")
    g = np.arange(len(y), dtype=float)

    def resid(x):
        # One point x of shape (5,), or k points as the columns of (5, k),
        # each giving one row of residuals.
        a, lam, omega, phi, c = np.reshape(x, (5, -1, 1))
        r = a * np.exp(-lam * g) * np.cos(omega * g + phi) + c - y
        return r if x.ndim == 2 else r[0]

    def jac(x):
        return _forward_jacobian(resid, x)

    best = None
    for seed in _grid_seed_candidates(y):
        x0 = np.clip(np.array(seed), LOWER, UPPER)
        sol = least_squares(resid, x0, jac=jac, bounds=(LOWER, UPPER))
        if best is None or sol.cost < best.cost:
            best = sol
    a, lam, omega, phi, c = best.x
    rmse = math.sqrt(float(np.mean(resid(best.x) ** 2)))
    return OscillatorFit(float(a), float(lam), float(omega), float(phi), float(c), rmse)


def _moving_median(H: Sequence[float], window: int) -> list:
    # Windows shrink at the ends of H: the NaN padding counts for nothing.
    # The extra pad on the right keeps one window even for an empty H.
    half = window // 2
    padded = np.pad(np.asarray(H, float), (half, half + 1), constant_values=np.nan)
    return medians(np.lib.stride_tricks.sliding_window_view(padded, window))[: len(H)].tolist()


def segment_phases(H: Sequence[float], window: int = 11) -> list:
    """Sign runs of the smoothed series: positive spans are expansion phases,
    negative spans retraction phases.  Zeros extend whichever phase is open
    (leading zeros join the first phase).  Indices are inclusive.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be a positive odd integer, got {window}")
    smoothed = _moving_median(H, window)
    phases = []
    current: PhaseKind = None
    start = 0
    for i, v in enumerate(smoothed):
        kind = (
            PhaseKind.EXPANSION
            if v > 0
            else PhaseKind.RETRACTION
            if v < 0
            else None
        )
        if kind is None or kind is current:
            continue
        if current is not None:
            phases.append(Phase(start, i - 1, current))
            start = i
        current = kind
    if current is not None:
        phases.append(Phase(start, len(smoothed) - 1, current))
    return phases


def coverage_bins(ts, params: SpiralParams, bins: int) -> np.ndarray:
    """Index of the equal arc-length bin of each curve parameter, elementwise."""
    arcs = arc_lengths_from_origin(ts, params)
    idx = np.floor(bins * arcs / params.s_max).astype(int)
    return np.clip(idx, 0, bins - 1, out=idx)


class CoverageAccumulator:
    """Incremental coverage over equal arc-length bins of the whole curve."""

    def __init__(self, params: SpiralParams, bins: int = 100):
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.params = params
        self.bins = bins
        self.covered = np.zeros(bins, dtype=bool)

    def add_parameters(self, ts) -> None:
        """Mark the bins hit by behaviors at these curve parameters."""
        self.covered[coverage_bins(np.atleast_1d(ts), self.params, self.bins)] = True

    @property
    def fraction(self) -> float:
        return float(self.covered.sum()) / self.bins
