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
    "spiral_point",
    "arc_length",
    "arc_length_from_origin",
    "invert_arc_length",
    "invert_arc_lengths",
    "euclidean_distance",
    "geodesic_distance",
    "map_genotype",
    "map_genotypes",
    "genotype_bounds",
    "genotype_at_curve_parameter",
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
            raise ValueError(f"spiral pitch a must be positive and finite, got {self.a}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")

    @property
    def t_max(self) -> float:
        return self.alpha * math.pi

    @cached_property
    def s_max(self) -> float:
        """Total arc length S(0, t_max), computed on first use."""
        return arc_length_from_origin(self.t_max, self)

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


def _check_t(t: float, params: SpiralParams, what: str = "t"):
    if not 0.0 <= t <= params.t_max:
        raise ValueError(f"{what}={t} outside the curve domain [0, {params.t_max}]")


def spiral_point(t: float, params: SpiralParams) -> BehaviorPoint:
    """Evaluate gamma(t) = (a*t*cos t, a*t*sin t)."""
    _check_t(t, params)
    r = params.a * t
    return BehaviorPoint(r * math.cos(t), r * math.sin(t), t)


def _arc_antiderivative(t: float) -> float:
    # Antiderivative of sqrt(t^2 + 1); asinh(t) = log(t + sqrt(t^2 + 1)).
    return 0.5 * (t * math.sqrt(t * t + 1.0) + math.asinh(t))


def arc_length(t1: float, t2: float, params: SpiralParams) -> float:
    """Signed arc length S(t1, t2); antisymmetric in its arguments."""
    _check_t(t1, params, "t1")
    _check_t(t2, params, "t2")
    return params.a * (_arc_antiderivative(t2) - _arc_antiderivative(t1))


def arc_length_from_origin(t: float, params: SpiralParams) -> float:
    """S(0, t), the genotype value of the arc-length encoding."""
    _check_t(t, params)
    return params.a * _arc_antiderivative(t)


def arc_lengths_from_origin(ts: np.ndarray, params: SpiralParams) -> np.ndarray:
    """Vectorized S(0, t) for telemetry and coverage binning."""
    ts = np.asarray(ts, dtype=float)
    return params.a * 0.5 * (ts * np.sqrt(ts * ts + 1.0) + np.arcsinh(ts))


def invert_arc_length(s: float, params: SpiralParams) -> float:
    """Solve S(0, t) = s for t.

    Safeguarded Newton iteration on f(t) = S(0,t) - s with the analytic
    derivative ds/dt = a*sqrt(t^2+1), falling back to bisection whenever a
    Newton step leaves the current bracket.  Accepted when the arc-length
    residual drops below INVERSION_TOL.
    """
    if not 0.0 <= s <= params.s_max:
        raise ValueError(f"arc length s={s} outside [0, {params.s_max}]")
    if s == 0.0:
        return 0.0

    lo, hi = 0.0, params.t_max
    # Decent starting guess: for large t, S(0,t) ~ (a/2) t^2.
    t = min(math.sqrt(2.0 * s / params.a), params.t_max)
    for _ in range(MAX_INVERSION_STEPS):
        f = params.a * _arc_antiderivative(t) - s
        if abs(f) <= INVERSION_TOL:
            return t
        if f > 0.0:
            hi = t
        else:
            lo = t
        step = f / (params.a * math.sqrt(t * t + 1.0))
        t_new = t - step
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        t = t_new
    raise RuntimeError(
        f"arc-length inversion did not converge for s={s} "
        f"within {MAX_INVERSION_STEPS} steps"
    )


def _exact_arc_lengths(ts: np.ndarray, a: float, roots=None) -> np.ndarray:
    # S(0, t) elementwise with the scalar path's operations: math.asinh per
    # element, since np.arcsinh differs from it in the last bit on some
    # inputs.  roots, if given, holds sqrt(t*t + 1) already.
    if roots is None:
        roots = np.sqrt(ts * ts + 1.0)
    asinh = np.fromiter(map(math.asinh, ts.tolist()), float, len(ts))
    return a * (0.5 * (ts * roots + asinh))


def _check_range(values: np.ndarray, hi: float, what: str):
    if values.size and not (0.0 <= values.min() and values.max() <= hi):
        raise ValueError(f"{what} outside [0, {hi}]")


def invert_arc_lengths(s: np.ndarray, params: SpiralParams) -> tuple:
    """invert_arc_length elementwise, plus S(0, t) at each solution.

    Every element takes the scalar routine's iterates, in the same floating
    point operations, until its own residual is accepted; converged elements
    leave the active set.  Returns (t, arc) arrays equal to
    invert_arc_length(s) and arc_length_from_origin(t) bit for bit.
    """
    s = np.asarray(s, dtype=float)
    _check_range(s, params.s_max, "arc length")
    a, n = params.a, len(s)
    t, arc = np.empty(n), np.empty(n)
    # Indices, targets, iterates and Newton brackets of the active elements.
    # Adding 0.0 turns the start -0.0 into 0.0, where s = 0 converges at once.
    active, target = np.arange(n), s
    ta = np.minimum(np.sqrt(2.0 * s / a), params.t_max) + 0.0
    lo, hi = np.zeros(n), np.full(n, params.t_max)
    for _ in range(MAX_INVERSION_STEPS):
        roots = np.sqrt(ta * ta + 1.0)
        sa = _exact_arc_lengths(ta, a, roots)
        f = sa - target
        done = np.abs(f) <= INVERSION_TOL
        n_done = np.count_nonzero(done)
        if n_done == len(active):
            t[active], arc[active] = ta, sa
            return t, arc
        if n_done:
            t[active[done]], arc[active[done]] = ta[done], sa[done]
            going = ~done
            active, target, ta, lo, hi, f, roots = (
                v[going] for v in (active, target, ta, lo, hi, f, roots)
            )
        above = f > 0.0
        hi = np.where(above, ta, hi)
        lo = np.where(above, lo, ta)
        t_new = ta - f / (a * roots)
        inside = (lo < t_new) & (t_new < hi)
        if np.count_nonzero(inside) < len(ta):
            t_new = np.where(inside, t_new, 0.5 * (lo + hi))
        ta = t_new
    raise RuntimeError(
        f"arc-length inversion did not converge for s={target[0]} "
        f"within {MAX_INVERSION_STEPS} steps"
    )


def euclidean_distance(p: BehaviorPoint, q: BehaviorPoint) -> float:
    # sqrt of the explicit sum of squares, matching the vectorized scoring
    # path bit for bit.
    dx = p.x - q.x
    dy = p.y - q.y
    return math.sqrt(dx * dx + dy * dy)


def geodesic_distance(p: BehaviorPoint, q: BehaviorPoint, params: SpiralParams) -> float:
    """|S(0, p.t) - S(0, q.t)|, the along-curve distance.

    Uses the stored curve parameters: recovering t from coordinates is
    ill-posed on a self-approaching curve, and every generator of behavior
    points knows t.
    """
    return abs(arc_length(q.t, p.t, params))


def genotype_bounds(space: GenotypeSpace, params: SpiralParams) -> tuple[float, float]:
    if space is GenotypeSpace.ANGLE:
        return 0.0, params.t_max
    return 0.0, params.s_max


def map_genotype(g: Genotype, params: SpiralParams) -> BehaviorPoint:
    """Decode a genotype to its behavior point on the curve.

    Angle genotypes index the curve directly; arc-length genotypes go
    through the numerical inversion of S.  Raises on out-of-bounds values:
    callers are expected to clamp first.
    """
    lo, hi = genotype_bounds(g.space, params)
    if not lo <= g.value <= hi:
        raise ValueError(
            f"genotype value {g.value} outside {g.space.value} bounds [{lo}, {hi}]"
        )
    if g.space is GenotypeSpace.ANGLE:
        return spiral_point(g.value, params)
    return spiral_point(invert_arc_length(g.value, params), params)


def map_genotypes(values: np.ndarray, space: GenotypeSpace, params: SpiralParams) -> tuple:
    """map_genotype elementwise: (t, x, y, arc_pos) arrays for genotype values.

    Equal to map_genotype and arc_length_from_origin of the same values bit
    for bit; raises on out-of-bounds values.
    """
    values = np.asarray(values, dtype=float)
    if space is GenotypeSpace.ARC_LENGTH:
        t, arc = invert_arc_lengths(values, params)
    else:
        _check_range(values, params.t_max, "angle genotype")
        t, arc = values, _exact_arc_lengths(values, params.a)
    r = params.a * t
    return t, r * np.cos(t), r * np.sin(t), arc


def genotype_at_curve_parameter(
    t: float, space: GenotypeSpace, params: SpiralParams
) -> Genotype:
    """The genotype (in the requested encoding) whose behavior is gamma(t)."""
    _check_t(t, params)
    if space is GenotypeSpace.ANGLE:
        return Genotype(t, space)
    return Genotype(arc_length_from_origin(t, params), space)
