"""Geometry: closed-form arc length, inversion, metrics, genotype mapping.

The scalar routines live in tests/oracles.py as the reference for the
package's array routines; the classes up to TestGenotypeMapping pin that
reference to quadrature and to the curve, and TestVectorisedMapping holds
the array routines to it bit for bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spiralns import (
    BehaviorPoint,
    EvolutionConfig,
    Genotype,
    GenotypeSpace,
    SpiralParams,
    genotype_bounds,
    map_genotypes,
)
from spiralns.evolution import Metric, _distance
from spiralns.spiral import invert_arc_lengths

from oracles import (
    arc_length,
    arc_length_from_origin,
    euclidean_distance,
    genotype_at_curve_parameter,
    geodesic_distance,
    invert_arc_length,
    map_genotype,
    spiral_point,
)

PARAMS = SpiralParams()


def quad_arc(t1: float, t2: float, a: float = 0.01) -> float:
    value, _ = quad(lambda t: a * math.sqrt(t * t + 1.0), t1, t2, limit=200)
    return value


class TestSpiralPoint:
    def test_origin(self):
        p = spiral_point(0.0, PARAMS)
        assert p.x == 0.0 and p.y == 0.0 and p.t == 0.0

    def test_quarter_turn(self):
        p = spiral_point(math.pi / 2, PARAMS)
        assert p.x == pytest.approx(0.0, abs=1e-15)
        assert p.y == pytest.approx(0.01 * math.pi / 2, rel=1e-12)

    def test_outer_end(self):
        p = spiral_point(PARAMS.t_max, PARAMS)
        assert math.hypot(p.x, p.y) == pytest.approx(PARAMS.extent, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            spiral_point(-0.1, PARAMS)
        with pytest.raises(ValueError):
            spiral_point(PARAMS.t_max + 0.1, PARAMS)


class TestArcLength:
    def test_against_quadrature_grid(self):
        # 50-point grid over the whole parameter range, 1e-8 absolute
        for t in np.linspace(0.0, PARAMS.t_max, 50):
            assert arc_length_from_origin(float(t), PARAMS) == pytest.approx(
                quad_arc(0.0, float(t)), abs=1e-8
            )

    def test_between_bounds_against_quadrature(self):
        assert arc_length(5.0, 40.0, PARAMS) == pytest.approx(
            quad_arc(5.0, 40.0), abs=1e-8
        )

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t1, t2 = rng.uniform(0.0, PARAMS.t_max, 2)
            f, b = arc_length(t1, t2, PARAMS), arc_length(t2, t1, PARAMS)
            assert f == pytest.approx(-b, rel=1e-12, abs=1e-300)

    def test_additivity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            t1, t2, t3 = np.sort(rng.uniform(0.0, PARAMS.t_max, 3))
            lhs = arc_length(t1, t3, PARAMS)
            rhs = arc_length(t1, t2, PARAMS) + arc_length(t2, t3, PARAMS)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_monotone_in_t(self):
        ts = np.linspace(0.0, PARAMS.t_max, 500)
        arcs = [arc_length_from_origin(float(t), PARAMS) for t in ts]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))

    def test_total_length(self):
        assert PARAMS.s_max == pytest.approx(quad_arc(0.0, PARAMS.t_max), abs=1e-8)


class TestInvertArcLength:
    @pytest.mark.parametrize("t", [1.0, 10.0, 30.0, 94.0])
    def test_round_trip_named_points(self, t):
        s = arc_length_from_origin(t, PARAMS)
        assert invert_arc_length(s, PARAMS) == pytest.approx(t, abs=1e-6)

    def test_round_trip_random(self):
        rng = np.random.default_rng(9)
        for t in rng.uniform(0.0, PARAMS.t_max, 1000):
            s = arc_length_from_origin(float(t), PARAMS)
            assert invert_arc_length(s, PARAMS) == pytest.approx(float(t), abs=1e-6)

    def test_bounds(self):
        assert invert_arc_length(0.0, PARAMS) == 0.0
        assert invert_arc_length(PARAMS.s_max, PARAMS) == pytest.approx(
            PARAMS.t_max, abs=1e-6
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            invert_arc_length(-1e-6, PARAMS)
        with pytest.raises(ValueError):
            invert_arc_length(PARAMS.s_max + 1e-3, PARAMS)


class TestMetrics:
    def test_adjacent_coil_contradiction(self):
        # Same angle, one turn apart: tiny in the plane, huge along the curve.
        p = spiral_point(20 * math.pi, PARAMS)
        q = spiral_point(22 * math.pi, PARAMS)
        euc = euclidean_distance(p, q)
        geo = geodesic_distance(p, q, PARAMS)
        assert euc == pytest.approx(2 * math.pi * 0.01, rel=1e-12)
        assert geo == pytest.approx(quad_arc(20 * math.pi, 22 * math.pi), abs=1e-8)
        assert geo == pytest.approx(4.1457103718836855, rel=1e-12)
        assert geo / euc > 50.0

    def test_geodesic_dominates_euclidean(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            t1, t2 = rng.uniform(0.0, PARAMS.t_max, 2)
            p, q = spiral_point(t1, PARAMS), spiral_point(t2, PARAMS)
            assert geodesic_distance(p, q, PARAMS) >= euclidean_distance(p, q)

    def test_euclidean_symmetric_zero(self):
        p = spiral_point(5.0, PARAMS)
        assert euclidean_distance(p, p) == 0.0
        q = spiral_point(6.0, PARAMS)
        assert euclidean_distance(p, q) == euclidean_distance(q, p)


class TestGenotypeMapping:
    def test_angle_space_is_direct(self):
        g = Genotype(20 * math.pi, GenotypeSpace.ANGLE)
        b = map_genotype(g, PARAMS)
        ref = spiral_point(20 * math.pi, PARAMS)
        assert (b.x, b.y, b.t) == (ref.x, ref.y, ref.t)

    def test_arc_space_round_trips(self):
        s = arc_length_from_origin(20 * math.pi, PARAMS)
        b = map_genotype(Genotype(s, GenotypeSpace.ARC_LENGTH), PARAMS)
        ref = spiral_point(20 * math.pi, PARAMS)
        assert b.x == pytest.approx(ref.x, abs=1e-6)
        assert b.y == pytest.approx(ref.y, abs=1e-6)

    def test_bounds(self):
        lo, hi = genotype_bounds(GenotypeSpace.ANGLE, PARAMS)
        assert (lo, hi) == (0.0, PARAMS.t_max)
        lo, hi = genotype_bounds(GenotypeSpace.ARC_LENGTH, PARAMS)
        assert (lo, hi) == (0.0, PARAMS.s_max)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            map_genotype(Genotype(-0.5, GenotypeSpace.ANGLE), PARAMS)

    def test_genotype_at_curve_parameter(self):
        for space in GenotypeSpace:
            g = genotype_at_curve_parameter(28 * math.pi, space, PARAMS)
            b = map_genotype(g, PARAMS)
            assert b.t == pytest.approx(28 * math.pi, abs=1e-6)


class TestParams:
    def test_defaults(self):
        assert PARAMS.a == 0.01 and PARAMS.alpha == 30.0
        assert PARAMS.t_max == pytest.approx(30 * math.pi)
        assert PARAMS.extent == pytest.approx(0.01 * 30 * math.pi)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpiralParams(a=0.0)
        with pytest.raises(ValueError):
            SpiralParams(alpha=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpiralParams(a=bad)
        with pytest.raises(ValueError, match="finite"):
            SpiralParams(alpha=bad)

    @pytest.mark.parametrize("a", [1e-300, 1e160, 1e-138 / (30 * math.pi) / 2, 1e154])
    def test_squared_distances_out_of_float_range_rejected(self, a):
        with pytest.raises(ValueError, match=r"^a: squared distances .* overflow or underflow"):
            SpiralParams(a=a)

    @pytest.mark.parametrize("extent", [1e-138, 1e153])
    def test_extents_at_the_stated_bounds_keep_distances_in_range(self, extent):
        e = SpiralParams(a=extent / (30 * math.pi)).extent
        # Opposite corners of the bounding box, and adjacent floats at the rim.
        a = np.array([[-e, e], [-e, 0.0]])
        b = np.array([[e, math.nextafter(e, 0.0)], [e, 0.0]])
        with np.errstate(all="raise"):
            far, near = _distance(a, b, Metric.EUCLIDEAN)
        assert far == pytest.approx(2 * math.sqrt(2) * e)
        assert near == e - math.nextafter(e, 0.0)

    def test_behavior_point_is_frozen(self):
        p = BehaviorPoint(0.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            p.x = 1.0


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


S_MAX = PARAMS.s_max
# Arc lengths anywhere on the curve, with the bounds (and -0.0) and values
# within 1e-9 of either bound drawn often.
ARC_LENGTHS = st.lists(
    st.floats(0.0, S_MAX)
    | st.sampled_from([0.0, -0.0, S_MAX])
    | st.floats(0.0, 1e-9)
    | st.floats(S_MAX - 1e-9, S_MAX),
    min_size=1,
    max_size=40,
)


class TestVectorisedMapping:
    """The array routines of the generation loop equal the scalar reference
    in tests/oracles.py bit for bit."""

    @settings(deadline=None)
    @given(ARC_LENGTHS)
    def test_inversion_equals_scalar(self, values):
        t, arc = invert_arc_lengths(np.array(values), PARAMS)
        want = [invert_arc_length(s, PARAMS) for s in values]
        assert bits(t) == bits(want)
        assert bits(arc) == bits([arc_length_from_origin(x, PARAMS) for x in want])

    @settings(deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("space", list(GenotypeSpace))
    def test_map_equals_scalar(self, space, data):
        hi = genotype_bounds(space, PARAMS)[1]
        values = data.draw(
            st.lists(st.floats(0.0, hi) | st.sampled_from([0.0, hi]), min_size=1, max_size=40)
        )
        t, x, y, arc = map_genotypes(np.array(values), space, PARAMS)
        points = [map_genotype(Genotype(v, space), PARAMS) for v in values]
        assert bits(t) == bits([p.t for p in points])
        assert bits(x) == bits([p.x for p in points])
        assert bits(y) == bits([p.y for p in points])
        assert bits(arc) == bits([arc_length_from_origin(p.t, PARAMS) for p in points])

    @pytest.mark.parametrize("space", list(GenotypeSpace))
    def test_out_of_bounds_rejected(self, space):
        hi = genotype_bounds(space, PARAMS)[1]
        for bad in (-1e-12, hi * (1 + 1e-12), math.nan):
            with pytest.raises(ValueError):
                map_genotypes(np.array([1.0, bad]), space, PARAMS)

    def test_empty_input(self):
        for space in GenotypeSpace:
            assert all(a.size == 0 for a in map_genotypes(np.array([]), space, PARAMS))


# init_t0 = 0 lies on every spiral, so only the scale decides.
ARC_CONFIG = EvolutionConfig(genotype_space=GenotypeSpace.ARC_LENGTH, init_t0=0.0)


@functools.cache
def largest_arc_length_scale(alpha: float) -> float:
    """The largest spiral.a that the arc-length genotype space accepts."""

    def accepted(a):
        try:
            ARC_CONFIG.validate(SpiralParams(a, alpha))
        except ValueError:
            return False
        return True

    lo, hi = 1e-6, 1e12
    assert accepted(lo) and not accepted(hi)
    while True:
        mid = math.sqrt(lo * hi) if hi > 2 * lo else lo + (hi - lo) / 2
        if not lo < mid < hi:
            return lo
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)


SCALE_ALPHAS = (1.0, 30.0, 1000.0)


class TestLargestAcceptedScale:
    """Arc-length inversion converges on every spiral the config accepts."""

    @pytest.mark.parametrize("alpha", SCALE_ALPHAS)
    def test_next_scale_up_is_rejected(self, alpha):
        a = largest_arc_length_scale(alpha)
        with pytest.raises(ValueError, match="spiral.a/spiral.alpha"):
            ARC_CONFIG.validate(SpiralParams(math.nextafter(a, math.inf), alpha))
        angle = EvolutionConfig(genotype_space=GenotypeSpace.ANGLE, init_t0=0.0)
        angle.validate(SpiralParams(2 * a, alpha))

    @pytest.mark.parametrize("alpha", SCALE_ALPHAS)
    def test_uniform_arc_lengths_invert(self, alpha):
        params = SpiralParams(largest_arc_length_scale(alpha), alpha)
        s = np.random.default_rng(5).uniform(0.0, params.s_max, 100_000)
        t, _ = invert_arc_lengths(s, params)
        assert np.all((0.0 <= t) & (t <= params.t_max))

    @settings(deadline=None)
    @given(st.sampled_from(SCALE_ALPHAS), st.data())
    def test_inversion_converges_and_equals_scalar(self, alpha, data):
        params = SpiralParams(largest_arc_length_scale(alpha), alpha)
        values = data.draw(
            st.lists(
                st.floats(0.0, params.s_max) | st.just(params.s_max),
                min_size=1,
                max_size=40,
            )
        )
        t, _ = invert_arc_lengths(np.array(values), params)
        assert bits(t) == bits([invert_arc_length(s, params) for s in values])
