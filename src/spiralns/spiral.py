"""Geometry of the Archimedean spiral benchmark.

The behavior space is the planar curve gamma(t) = (a*t*cos(t), a*t*sin(t))
for t in [0, alpha*pi].  Along the curve the natural (geodesic) distance is
arc length, which has the closed form

    S(t1, t2) = (a/2) * [t*sqrt(t^2+1) + asinh(t)]  evaluated from t1 to t2.

Two scalar genotype encodings of the same curve are supported: the raw curve
angle, and the arc length measured from the origin.  Gaussian mutations of
the angle map to outward-skewed steps on the curve; mutations of the arc
length map to unbiased steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "GenotypeSpace",
    "SpiralParams",
    "Genotype",
    "BehaviorPoint",
    "invert_arc_lengths",
    "map_genotypes",
    "genotype_bounds",
]

# Arc-length residual below which the Newton inversion is accepted.  Far below
# the mutation scale (0.3), so inversion error cannot influence the dynamics.
INVERSION_TOL = 1e-9
MAX_INVERSION_STEPS = 200


class GenotypeSpace(Enum):
    """Which scalar encoding a genotype value lives in."""

    ANGLE = "angle"
    ARC_LENGTH = "arc_length"


@dataclass(frozen=True)
class SpiralParams:
    """Spiral pitch `a` and angular extent `alpha` (curve spans [0, alpha*pi])."""

    a: float = 0.01
    alpha: float = 30.0

    def __post_init__(self):
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive and finite, got {self.a}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        # Novelty scoring squares coordinate differences: up to 2 * extent on
        # each axis, and down to ulp(extent), the float spacing at the rim.
        extent = self.extent
        if not (8.0 * extent * extent < math.inf and math.ulp(extent) ** 2 >= 2.0**-1022):
            raise ValueError(
                f"a: squared distances on a spiral of extent spiral.a * spiral.alpha * pi = "
                f"{extent!r} overflow or underflow; keep the extent between 1e-138 and 1e153"
            )

    @property
    def t_max(self) -> float:
        return self.alpha * math.pi

    @cached_property
    def s_max(self) -> float:
        """Total arc length S(0, t_max), computed on first use."""
        return float(_exact_arc_lengths(np.array([self.t_max]), self.a)[0])

    @property
    def extent(self) -> float:
        """Half-width of the bounding box [-a*alpha*pi, a*alpha*pi]^2."""
        return self.a * self.alpha * math.pi


@dataclass(frozen=True)
class Genotype:
    value: float
    space: GenotypeSpace


@dataclass(frozen=True)
class BehaviorPoint:
    """A point on the spiral together with the curve parameter that produced it."""

    x: float
    y: float
    t: float


# S(0, t) has two array forms.  arc_lengths_from_origin (np.arcsinh) bins
# coverage: on 7,530 uniform draws over the default curve it takes about
# 0.07 ms against 0.7 to 0.8 ms for _exact_arc_lengths (2-CPU x86-64 host,
# numpy 2.4.6), and 14 to 20 of those values differ from the exact form in
# the last bit.  _exact_arc_lengths (math.asinh) maps genotypes, which keeps
# every genotype's behavior and arc position bit-stable.


def arc_lengths_from_origin(ts: np.ndarray, params: SpiralParams) -> np.ndarray:
    """Vectorized S(0, t) for telemetry and coverage binning."""
    ts = np.asarray(ts, dtype=float)
    return params.a * 0.5 * (ts * np.sqrt(ts * ts + 1.0) + np.arcsinh(ts))


def _exact_arc_lengths(ts: np.ndarray, a: float, roots=None) -> np.ndarray:
    # S(0, t) elementwise in the operations of the scalar reference in
    # tests/oracles.py: math.asinh per element, since np.arcsinh differs from
    # it in the last bit on some inputs.  roots, if given, holds
    # sqrt(t*t + 1) already.
    if roots is None:
        roots = np.sqrt(ts * ts + 1.0)
    asinh = np.fromiter(map(math.asinh, ts.tolist()), float, len(ts))
    return a * (0.5 * (ts * roots + asinh))


def _check_range(values: np.ndarray, hi: float, what: str):
    if values.size and not (0.0 <= values.min() and values.max() <= hi):
        raise ValueError(f"{what} outside [0, {hi}]")


def invert_arc_lengths(s: np.ndarray, params: SpiralParams) -> tuple:
    """Solve S(0, t) = s elementwise; returns (t, arc) with arc = S(0, t).

    Safeguarded Newton iteration on f(t) = S(0, t) - s with the analytic
    derivative ds/dt = a*sqrt(t^2+1), falling back to bisection whenever a
    Newton step leaves the current bracket.  An element is accepted when its
    arc-length residual drops below INVERSION_TOL and then keeps its iterate
    until every element is accepted.  Every element takes the iterates of
    the scalar reference invert_arc_length in tests/oracles.py, in the same
    floating point operations, so both arrays equal it bit for bit.
    """
    s = np.asarray(s, dtype=float)
    _check_range(s, params.s_max, "arc length")
    a, n = params.a, len(s)
    # Iterates and Newton brackets.  Adding 0.0 turns the start -0.0 into
    # 0.0, where s = 0 converges at once.
    ta = np.minimum(np.sqrt(2.0 * s / a), params.t_max) + 0.0
    lo, hi = np.zeros(n), np.full(n, params.t_max)
    for _ in range(MAX_INVERSION_STEPS):
        roots = np.sqrt(ta * ta + 1.0)
        sa = _exact_arc_lengths(ta, a, roots)
        f = sa - s
        going = np.abs(f) > INVERSION_TOL
        n_going = np.count_nonzero(going)
        if not n_going:
            return ta, sa
        above = f > 0.0
        hi = np.where(above, ta, hi)
        lo = np.where(above, lo, ta)
        t_new = ta - f / (a * roots)
        inside = (lo < t_new) & (t_new < hi)
        if np.count_nonzero(inside) < n:
            t_new = np.where(inside, t_new, 0.5 * (lo + hi))
        ta = t_new if n_going == n else np.where(going, t_new, ta)
    raise RuntimeError(
        f"arc-length inversion did not converge for s={s[going.argmax()]} "
        f"within {MAX_INVERSION_STEPS} steps"
    )


def genotype_bounds(space: GenotypeSpace, params: SpiralParams) -> tuple[float, float]:
    if space is GenotypeSpace.ANGLE:
        return 0.0, params.t_max
    return 0.0, params.s_max


def map_genotypes(values: np.ndarray, space: GenotypeSpace, params: SpiralParams) -> tuple:
    """Decode genotype values to (t, x, y, arc_pos) arrays on the curve.

    Angle genotypes index the curve directly; arc-length genotypes go
    through the inversion of S.  Equal bit for bit to the scalar reference
    map_genotype in tests/oracles.py; raises on out-of-bounds values.
    """
    values = np.asarray(values, dtype=float)
    if space is GenotypeSpace.ARC_LENGTH:
        t, arc = invert_arc_lengths(values, params)
    else:
        _check_range(values, params.t_max, "angle genotype")
        t, arc = values, _exact_arc_lengths(values, params.a)
    r = params.a * t
    return t, r * np.cos(t), r * np.sin(t), arc
