"""Analysis functions: medians, oscillator fits, phases, coverage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralns import (
    CoverageAccumulator,
    Phase,
    PhaseKind,
    SpiralParams,
    fit_damped_oscillator,
    segment_phases,
)
from spiralns.analysis import _moving_median, coverage_bins, medians
from spiralns.spiral import arc_lengths_from_origin

from helpers import scalar_median
from oracles import arc_length_from_origin, invert_arc_length

PARAMS = SpiralParams()


def coverage(ts, bins=100) -> CoverageAccumulator:
    """An accumulator over the given curve parameters."""
    acc = CoverageAccumulator(PARAMS, bins)
    acc.add_parameters(ts)
    return acc


class TestMedian:
    def test_odd_count(self):
        assert medians(np.array([[-1.0, 0.0, 2.0]])).tolist() == [0.0]

    def test_even_count_averages_middle_pair(self):
        assert medians(np.array([[1.0, 3.0]])).tolist() == [2.0]

    def test_matches_numpy_oracle_exactly(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            vals = rng.normal(size=int(rng.integers(1, 40)))
            assert medians(vals.reshape(1, -1))[0] == np.median(vals)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.sampled_from([0.0, -0.0, 1.5, -1.5, math.nan]) | st.floats(-1e3, 1e3),
                    min_size=width,
                    max_size=width,
                ),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_row_medians_follow_the_scalar_rule(self, rows):
        # Bit for bit, signed zeros and rows of NaN only (median 0.0) included.
        got = medians(np.array(rows))
        want = [scalar_median([v for v in row if not math.isnan(v)]) for row in rows]
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 2.0, -2.0]) | st.floats(-5, 5), max_size=40),
        st.sampled_from([1, 3, 5, 11]),
    )
    def test_moving_median_matches_windowed_scalar_medians(self, H, window):
        half, n = window // 2, len(H)
        want = [scalar_median(H[max(0, i - half) : min(n, i + half + 1)]) for i in range(n)]
        got = _moving_median(H, window)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def model(g, A, lam, om, phi, c):
    g = np.asarray(g, dtype=float)
    return A * np.exp(-lam * g) * np.cos(om * g + phi) + c


class TestFitDampedOscillator:
    def test_noise_free_recovery(self):
        g = np.arange(400)
        H = model(g, A=2.5, lam=0.004, om=0.05, phi=0.7, c=0.3)
        fit = fit_damped_oscillator(H)
        assert fit.decay == pytest.approx(0.004, rel=0.01)
        assert fit.frequency == pytest.approx(0.05, rel=0.01)
        assert abs(fit.amplitude) == pytest.approx(2.5, rel=0.02)

    def test_residual_on_own_output_is_tiny(self):
        g = np.arange(300)
        H = model(g, A=1.8, lam=0.002, om=0.09, phi=-0.4, c=-0.1)
        fit = fit_damped_oscillator(H)
        assert fit.residual <= 1e-6 * 1.8

    def test_predict_reproduces_residual(self):
        g = np.arange(250)
        H = model(g, A=1.0, lam=0.01, om=0.12, phi=0.0, c=0.0)
        H = H + 0.01 * np.sin(g)  # make the fit imperfect on purpose
        fit = fit_damped_oscillator(H)
        predicted = model(g, fit.amplitude, fit.decay, fit.frequency, fit.phase, fit.offset)
        rmse = float(np.sqrt(np.mean((predicted - H) ** 2)))
        assert rmse == pytest.approx(fit.residual, rel=1e-9)

    def test_constant_series(self):
        fit = fit_damped_oscillator([0.42] * 50)
        assert abs(fit.amplitude) <= 1e-6
        assert fit.offset == pytest.approx(0.42, abs=1e-6)
        assert fit.residual <= 1e-9

    def test_noisy_recovery(self):
        rng = np.random.default_rng(21)
        g = np.arange(500)
        A = 2.0
        clean = model(g, A=A, lam=0.003, om=0.07, phi=0.2, c=0.0)
        noise = rng.normal(scale=0.05 * A, size=len(g))
        fit = fit_damped_oscillator(clean + noise)
        assert fit.frequency == pytest.approx(0.07, rel=0.05)
        assert fit.residual == pytest.approx(0.05 * A, rel=0.35)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            fit_damped_oscillator([1.0] * 19)

    def test_decay_is_non_negative(self):
        g = np.arange(100)
        H = model(g, A=1.0, lam=0.0, om=0.2, phi=0.0, c=0.0)
        assert fit_damped_oscillator(H).decay >= 0.0


class TestSegmentPhases:
    def test_clean_sign_change(self):
        got = segment_phases([1, 1, 1, -1, -1], window=1)
        assert got == [
            Phase(0, 2, PhaseKind.EXPANSION),
            Phase(3, 4, PhaseKind.RETRACTION),
        ]

    def test_all_positive_is_one_phase(self):
        got = segment_phases([0.5] * 30, window=1)
        assert got == [Phase(0, 29, PhaseKind.EXPANSION)]

    def test_zeros_attach_to_preceding_phase(self):
        got = segment_phases([1, 0, 0, -1], window=1)
        assert got == [
            Phase(0, 2, PhaseKind.EXPANSION),
            Phase(3, 3, PhaseKind.RETRACTION),
        ]

    def test_negated_series_swaps_labels(self):
        rng = np.random.default_rng(22)
        H = list(rng.normal(size=200))
        flip = {PhaseKind.EXPANSION: PhaseKind.RETRACTION,
                PhaseKind.RETRACTION: PhaseKind.EXPANSION}
        forward = segment_phases(H, window=11)
        backward = segment_phases([-h for h in H], window=11)
        assert backward == [Phase(p.start, p.end, flip[p.kind]) for p in forward]

    def test_damped_cosine_phase_count_matches_half_periods(self):
        g = np.arange(600)
        om = 0.05
        H = model(g, A=1.0, lam=0.001, om=om, phi=0.0, c=0.0)
        half_periods = int(len(g) * om / math.pi)
        got = segment_phases(H, window=11)
        assert abs(len(got) - (half_periods + 1)) <= 1

    def test_smoothing_removes_single_sample_blips(self):
        H = [1.0] * 20
        H[9] = -5.0
        assert segment_phases(H, window=5) == [Phase(0, 19, PhaseKind.EXPANSION)]

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            segment_phases([1.0] * 10, window=4)

    def test_all_zero_series_has_no_phases(self):
        assert segment_phases([0.0] * 15, window=1) == []


class TestCoverage:
    def test_single_behavior_covers_one_bin(self):
        rep = coverage([10.0])
        assert rep.fraction == pytest.approx(1 / 100)
        assert rep.covered.sum() == 1

    def test_bin_centers_cover_everything(self):
        s_max = PARAMS.s_max
        rep = coverage([invert_arc_length((i + 0.5) * s_max / 100, PARAMS) for i in range(100)])
        assert rep.fraction == 1.0

    def test_band_share_matches_arc_length_share(self):
        rng = np.random.default_rng(23)
        ts = rng.uniform(20 * math.pi, 30 * math.pi, 5000)
        rep = coverage(ts)
        share = (
            PARAMS.s_max - arc_length_from_origin(20 * math.pi, PARAMS)
        ) / PARAMS.s_max
        assert rep.fraction == pytest.approx(share, abs=1 / 100)

    def test_accumulator_is_monotone(self):
        rng = np.random.default_rng(24)
        acc = CoverageAccumulator(PARAMS, 100)
        prev = 0.0
        for _ in range(30):
            acc.add_parameters(rng.uniform(0, PARAMS.t_max, 10))
            assert acc.fraction >= prev
            prev = acc.fraction

    def test_endpoint_clamps_into_last_bin(self):
        rep = coverage([PARAMS.t_max])
        assert rep.covered[99]

    def test_invalid_bin_count(self):
        with pytest.raises(ValueError):
            coverage([], bins=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([0.0, PARAMS.t_max]) | st.floats(0.0, PARAMS.t_max),
                min_size=1,
                max_size=17,
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_bins_of_a_concatenation_equal_the_chunks(self, chunks):
        # A run bins all its curve parameters in one call; fed generation by
        # generation, the same values went through one call per chunk.  The
        # chunk lengths cross SIMD widths, so every lane position is tried.
        whole = np.concatenate([np.array(c) for c in chunks])
        arcs = np.concatenate([arc_lengths_from_origin(np.array(c), PARAMS) for c in chunks])
        bins = np.concatenate([coverage_bins(np.array(c), PARAMS, 100) for c in chunks])
        assert arc_lengths_from_origin(whole, PARAMS).view(np.int64).tolist() == (
            arcs.view(np.int64).tolist()
        )
        assert coverage_bins(whole, PARAMS, 100).tolist() == bins.tolist()
