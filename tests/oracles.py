"""Scalar reference geometry of the spiral, one value at a time.

The package computes the spiral's geometry with the array routines of
`spiralns.spiral` only.  These scalar routines are the tests' reference for
them: `map_genotypes` and `invert_arc_lengths` must equal `map_genotype`,
`invert_arc_length` and `arc_length_from_origin` here bit for bit, and the
record-based test fixtures build their behavior points with them.

`cell_index` is the same kind of reference for the grid archive: the cells
`GridArchive.cell_indices` finds must equal it, one point at a time.

`write_table_csv` and `render_svg` are the references for the artifact text:
the run tables through the csv module, row by row, and the SVG panel with one
f-string per point.  The package's block writer and template renderer must
write the same bytes.

`fit_damped_oscillator` is the reference for the oscillator fit: the seed
grid's normal equations built afresh on every call and `least_squares` with
its own `jac="2-point"` differences.  The package's fit, with its tables
built once per history length and its one-pass Jacobian, must return the
same six numbers bit for bit.
"""

import csv
import math

import numpy as np

from spiralns.analysis import MIN_FIT_SAMPLES, OscillatorFit
from spiralns.spiral import (
    INVERSION_TOL,
    MAX_INVERSION_STEPS,
    BehaviorPoint,
    Genotype,
    GenotypeSpace,
    SpiralParams,
    genotype_bounds,
)
from spiralns.svgplot import CURVE_STEP, MARGIN, MAX_DOTS, SIZE


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


def genotype_at_curve_parameter(
    t: float, space: GenotypeSpace, params: SpiralParams
) -> Genotype:
    """The genotype (in the requested encoding) whose behavior is gamma(t)."""
    _check_t(t, params)
    if space is GenotypeSpace.ANGLE:
        return Genotype(t, space)
    return Genotype(arc_length_from_origin(t, params), space)


def _axis_index(archive, v: float) -> int:
    # Clamp before flooring: far-off points divide to an infinite quotient.
    q = (v - archive.lower) / archive.cell_width
    return int(math.floor(min(max(q, 0.0), archive.resolution - 1)))


def cell_index(archive, x: float, y: float) -> tuple[int, int]:
    """(row, col) of the grid archive's cell containing the point; row indexes y, col x."""
    return _axis_index(archive, y), _axis_index(archive, x)


def write_table_csv(path, header_lines, table: np.ndarray):
    """A run table as the csv module writes its tolist() rows, after the
    header lines and a row of the dtype's field names."""
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.dtype.names)
        writer.writerows(table.tolist())


def _projected(ts: np.ndarray, params: SpiralParams) -> tuple:
    extent = params.extent
    scale = (SIZE - 2 * MARGIN) / (2 * extent)
    r = params.a * ts
    px = MARGIN + (r * np.cos(ts) + extent) * scale
    py = MARGIN + (extent - r * np.sin(ts)) * scale
    return px.tolist(), py.tolist()


def render_svg(ts, params: SpiralParams, init_t0: float, header_items=()) -> str:
    """The SVG panel built point by point, one f-string each."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
    ]
    for key, value in header_items:
        text = f"{key} = {value}".replace("--", "- -")
        parts.append(f"<!-- {text} -->")
    parts.append(f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')

    n_curve = int(math.floor(params.t_max / CURVE_STEP)) + 1
    px, py = _projected(np.linspace(0.0, params.t_max, n_curve), params)
    points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#bbbbbb" stroke-width="1"/>'
    )

    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if ts.size > MAX_DOTS:
        stride = int(math.ceil(ts.size / MAX_DOTS))
        ts = ts[::stride]
    px, py = _projected(ts, params)
    parts.extend(
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="#1f77b4" fill-opacity="0.55"/>'
        for x, y in zip(px, py)
    )

    (sx,), (sy,) = _projected(np.array([init_t0]), params)
    parts.append(
        f'<circle cx="{sx:.2f}" cy="{sy:.2f}" r="5" fill="#d62728" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _grid_seed_candidates(y: np.ndarray, n_best: int = 5):
    n = len(y)
    g = np.arange(n, dtype=float)
    lams = np.concatenate([[0.0], np.geomspace(0.1 / n, 20.0 / n, 24)])
    omegas = np.geomspace(math.pi / n, math.pi, 240)

    E = np.exp(-np.outer(lams, g))  # (L, n)
    C = np.cos(np.outer(omegas, g))  # (W, n)
    S = np.sin(np.outer(omegas, g))

    E2 = E * E
    uu = E2 @ (C * C).T  # (L, W) entries of the normal matrix
    uv = E2 @ (C * S).T
    vv = E2 @ (S * S).T
    uw = E @ C.T
    vw = E @ S.T
    uy = (E * y) @ C.T
    vy = (E * y) @ S.T
    wy = float(y.sum())
    yy = float(y @ y)

    L, W = uu.shape
    mats = np.empty((L, W, 3, 3))
    mats[..., 0, 0] = uu
    mats[..., 0, 1] = mats[..., 1, 0] = uv
    mats[..., 0, 2] = mats[..., 2, 0] = uw
    mats[..., 1, 1] = vv
    mats[..., 1, 2] = mats[..., 2, 1] = vw
    mats[..., 2, 2] = float(n)
    mats += 1e-12 * np.eye(3)
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
        i, j = divmod(int(flat), W)
        p, q, c = beta[i, j]
        amplitude = math.hypot(p, q)
        phase = math.atan2(-q, p)
        seeds.append((amplitude, lams[i], omegas[j], phase, c))
    return seeds


def fit_damped_oscillator(H) -> OscillatorFit:
    """The damped-cosine fit with every grid product computed per call and
    scipy's own forward-difference Jacobian."""
    from scipy.optimize import least_squares

    y = np.asarray(H, dtype=float)
    if len(y) < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples to fit, got {len(y)}"
        )
    g = np.arange(len(y), dtype=float)

    def resid(x):
        a, lam, omega, phi, c = x
        return a * np.exp(-lam * g) * np.cos(omega * g + phi) + c - y

    lower = [-np.inf, 0.0, 1e-9, -2.0 * math.pi, -np.inf]
    upper = [np.inf, np.inf, math.pi, 2.0 * math.pi, np.inf]
    best = None
    for seed in _grid_seed_candidates(y):
        x0 = np.clip(np.array(seed), lower, upper)
        sol = least_squares(resid, x0, bounds=(lower, upper))
        if best is None or sol.cost < best.cost:
            best = sol
    a, lam, omega, phi, c = best.x
    rmse = math.sqrt(float(np.mean(resid(best.x) ** 2)))
    return OscillatorFit(float(a), float(lam), float(omega), float(phi), float(c), rmse)
