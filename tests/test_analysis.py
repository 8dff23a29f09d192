"""Analysis functions: medians, oscillator fits, phases, coverage."""

import math
import os
import subprocess
import sys

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
from spiralns import analysis
from spiralns.analysis import _forward_jacobian, _grid_tables, _moving_median, coverage_bins, medians
from spiralns.experiments import config_from_items, run_single
from spiralns.spiral import arc_lengths_from_origin

import oracles
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_or_overflowing_history_raises_before_any_warning(self, bad):
        # Warnings are errors here: a numpy warning would fail the test first.
        H = model(np.arange(40), A=1.0, lam=0.01, om=0.2, phi=0.0, c=0.0)
        H[17] = bad
        message = "sum of squares overflows" if math.isfinite(bad) else rf"H\[17\] is {bad!r}"
        with pytest.raises(ValueError, match=message):
            fit_damped_oscillator(H)

    @pytest.mark.parametrize("k", [-600, -100, 100, 400])
    def test_power_of_two_scale_gives_the_same_fit(self, k):
        # Warnings are errors here, so the scaled fit may not overflow either.
        rng = np.random.default_rng(23)
        g = np.arange(200)
        H = model(g, A=0.6, lam=0.01, om=0.2, phi=0.3, c=0.1) + rng.normal(0.0, 0.02, len(g))
        assert 0.5 <= np.abs(H).max() < 1.0
        base, fit = fit_damped_oscillator(H), fit_damped_oscillator(np.ldexp(H, k))
        for name in ("amplitude", "offset", "residual"):
            assert getattr(fit, name) == math.ldexp(getattr(base, name), k), name
        for name in ("decay", "frequency", "phase"):
            assert getattr(fit, name) == getattr(base, name), name


def fit_fields(fit) -> str:
    return repr((fit.amplitude, fit.decay, fit.frequency, fit.phase, fit.offset, fit.residual))


def assert_fits_match_the_oracle(histories):
    for name, H in histories:
        assert fit_fields(fit_damped_oscillator(H)) == fit_fields(oracles.fit_damped_oscillator(H)), name


@pytest.fixture(scope="module")
def run_histories():
    """H of the benchmark's six batch settings at 12 seeds each, and of
    full-length Fig2a and Fig3a runs at seeds 0 to 2.  Taken in turn, the
    settings interleave four lengths: 250, 300, 500 and 1000."""
    settings = [
        {"evolution.g_max": "250", "evolution.metric": metric,
         "evolution.genotype_space": space, "archive.kind": "none"}
        for metric in ("euclidean", "geodesic") for space in ("angle", "arc_length")
    ] + [
        {"evolution.g_max": "300", "archive.kind": "unstructured_unbounded"},
        {"evolution.g_max": "500", "archive.kind": "grid", "sampling.mode": "mixed_guided"},
    ]
    runs = [{"scenario": "Custom", **items, "base_seed": str(seed)}
            for seed in range(12) for items in settings]
    runs += [{"scenario": scenario, "base_seed": str(seed)}
             for seed in range(3) for scenario in ("Fig2a", "Fig3a")]
    histories = [
        (str(items), run_single(config_from_items({**items, "runs": "1"}))
         .telemetry["median_delta"])
        for items in runs
    ]
    assert len(histories) == 78
    return histories


class TestFitMatchesTheOracle:
    """The fit with cached seed-grid tables and a one-pass Jacobian returns the
    reference fit's six numbers bit for bit (compared through repr)."""

    def test_synthetic_and_random_histories(self):
        rng = np.random.default_rng(22)
        g = np.arange(500)
        cosines = [
            ("recovery", model(g[:400], A=2.5, lam=0.004, om=0.05, phi=0.7, c=0.3)),
            ("own output", model(g[:300], A=1.8, lam=0.002, om=0.09, phi=-0.4, c=-0.1)),
            ("imperfect", model(g[:250], A=1.0, lam=0.01, om=0.12, phi=0.0, c=0.0)
             + 0.01 * np.sin(g[:250])),
            ("noisy", model(g, A=2.0, lam=0.003, om=0.07, phi=0.2, c=0.0)
             + rng.normal(scale=0.1, size=500)),
            ("undamped", model(g[:100], A=1.0, lam=0.0, om=0.2, phi=0.0, c=0.0)),
            ("constant", np.full(50, 0.42)),
            ("zeros", np.zeros(60)),
        ]
        randoms = [
            (f"normal {i}", rng.normal(size=int(rng.integers(20, 401)))) for i in range(30)
        ]
        misses = _grid_tables.cache_info().misses
        # Lengths change from one history to the next, so the two-length
        # cache evicts and rebuilds its tables throughout.
        assert_fits_match_the_oracle(cosines + randoms)
        assert _grid_tables.cache_info().misses - misses >= 30

    @pytest.mark.slow
    def test_run_histories(self, run_histories):
        assert_fits_match_the_oracle(run_histories)

    def test_cached_tables_are_read_only(self):
        for table in [*_grid_tables(64), analysis.LOWER, analysis.UPPER]:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0.0


class TestFitAgainstTheFiveSeedRecord:
    """Seeding from the grid's two lowest local minima, in place of its five
    lowest points, loses no accuracy that matters on run histories."""

    @pytest.mark.slow
    def test_no_rmse_is_worse_than_the_record_by_1e_6_relative(self, run_histories):
        for name, H in run_histories:
            record = oracles.five_seed_fit(H).residual
            assert fit_damped_oscillator(H).residual <= record * (1.0 + 1e-6), name


def seeded_grid_points(monkeypatch, errors) -> list:
    """The (row, col) grid points _grid_seed_candidates seeds from when its
    error grid orders like `errors`, a hand-made grid of small integers.

    Fake tables make every normal matrix the identity, the sine table zero
    and uy**2 = 100 - errors, so the error of each point is its entry of
    errors plus one constant.  The decay and frequency values are the row
    and column numbers, which the seeds carry back.
    """
    errors = np.asarray(errors, dtype=float)
    L, W = errors.shape
    g = np.arange(L * W)
    E = (g // W == np.arange(L)[:, None]).astype(float)
    C = np.where(g % W == np.arange(W)[:, None], np.sqrt(100.0 - errors).ravel(), 0.0)
    mats = np.broadcast_to(np.eye(3), (L, W, 3, 3))
    tables = np.arange(L, dtype=float), np.arange(W, dtype=float), E, C, np.zeros_like(C), mats
    monkeypatch.setattr(analysis, "_grid_tables", lambda n: tables)
    return [(int(seed[1]), int(seed[2])) for seed in analysis._grid_seed_candidates(np.ones(L * W))]


class TestSeedBasins:
    """The seeds are the two lowest local minima of the grid's error, a point
    being a local minimum when none of its eight neighbours is strictly
    lower; ties go to the lower flat index.  The package's whole-array search
    and the oracle's loop are checked on the same hand-made grids."""

    @pytest.mark.parametrize(
        "errors, want",
        [
            # A plateau of equal lowest values: every point of it is a
            # minimum, and the first two by flat index win over (1, 3).
            ([[5, 1, 1, 5],
              [5, 5, 5, 1],
              [9, 9, 9, 9]], [(0, 1), (0, 2)]),
            # Minima on a corner and on an edge: off the grid counts as inf.
            ([[0, 3, 4, 4],
              [3, 4, 4, 4],
              [4, 4, 1, 3]], [(0, 0), (2, 2)]),
            # One bowl: one seed.
            ([[8, 5, 4, 5, 8],
              [5, 2, 1, 2, 5],
              [8, 5, 4, 5, 8]], [(1, 2)]),
        ],
        ids=["plateau tie", "corner and edge", "single minimum"],
    )
    def test_hand_made_error_grids(self, monkeypatch, errors, want):
        assert oracles.local_minima(errors)[:2] == want
        assert seeded_grid_points(monkeypatch, errors) == want


class TestThreadStability:
    """The fit cells of a full-length history are the same under any BLAS or
    OpenMP thread count: summary.csv must not depend on the host."""

    def test_fit_cells_of_a_1000_generation_run_under_1_2_and_4_threads(self, tmp_path):
        telemetry = run_single(
            config_from_items({"scenario": "Fig2a", "base_seed": "2", "runs": "1"})
        ).telemetry
        assert len(telemetry) == 1000
        path = tmp_path / "telemetry.npy"
        np.save(path, telemetry)
        src = os.path.dirname(os.path.dirname(os.path.abspath(analysis.__file__)))
        script = (
            "import sys, numpy as np\n"
            f"sys.path.insert(0, {src!r})\n"
            "from spiralns.experiments import fit_cells\n"
            f"print(','.join(fit_cells(np.load({str(path)!r}))))\n"
        )
        cells = {}
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            cells[threads] = done.stdout
        assert cells["1"] == cells["2"] == cells["4"], cells


def model_residuals(g, y):
    """Residuals of the damped cosine at one point (5,) or at the columns of (5, k)."""
    def resid(x):
        a, lam, omega, phi, c = np.reshape(x, (5, -1, 1))
        r = a * np.exp(-lam * g) * np.cos(omega * g + phi) + c - y
        return r if x.ndim == 2 else r[0]
    return resid


class TestForwardJacobian:
    """_forward_jacobian equals scipy's jac="2-point" difference bit for bit,
    including the step rule at and near the bounds."""

    @pytest.mark.parametrize(
        "x",
        [
            [1.3, 0.002, 0.05, 0.7, 0.3],
            [-1.3, 0.0, 1e-9, -0.7, -0.3],  # negative steps; decay and frequency on their lower bounds
            [0.0, 5.0, math.pi, 2.0 * math.pi, 0.0],  # upper bounds: the step is reversed
            [250.0, 1e-12, math.pi - 1e-10, -2.0 * math.pi, -4e3],
            [1e-300, 2.0, 1.0, 2.0 * math.pi - 1e-9, 1e6],
        ],
    )
    def test_matches_scipys_forward_difference(self, x):
        from scipy.optimize._numdiff import approx_derivative

        g = np.arange(60, dtype=float)
        resid = model_residuals(g, np.cos(0.3 * g))
        x = np.array(x)
        want = approx_derivative(resid, x, method="2-point", bounds=(analysis.LOWER, analysis.UPPER))
        got = _forward_jacobian(resid, x)
        assert got.shape == want.shape == (60, 5)
        assert got.tobytes(order="F") == want.tobytes(order="F")

    @pytest.mark.parametrize("offset", [4e-10, 6e-10])
    def test_step_past_both_bounds_goes_to_the_farther_one(self, monkeypatch, offset):
        # Only bounds narrower than the step reach this rule: a frequency
        # window of 1e-9, with the point nearer one end or the other.
        lower = np.array([-np.inf, 0.0, 0.5, -2.0 * math.pi, -np.inf])
        upper = np.array([np.inf, np.inf, 0.5 + 1e-9, 2.0 * math.pi, np.inf])
        monkeypatch.setattr(analysis, "LOWER", lower)
        monkeypatch.setattr(analysis, "UPPER", upper)
        from scipy.optimize._numdiff import approx_derivative

        g = np.arange(40, dtype=float)
        resid = model_residuals(g, np.sin(0.2 * g))
        x = np.array([1.0, 0.01, 0.5 + offset, 0.1, 0.0])
        want = approx_derivative(resid, x, method="2-point", bounds=(lower, upper))
        assert _forward_jacobian(resid, x).tobytes(order="F") == want.tobytes(order="F")


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(lambda seed, n: np.random.default_rng(seed).normal(size=n).tolist(),
                      st.integers(0, 2**32 - 1), st.integers(1, 12))
            | st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=12)
            | st.builds(lambda v, n: [v] * n, st.sampled_from([1.0, -1.0, math.nan]),
                        st.integers(1, 12)),
            max_size=10,
        ).map(lambda chunks: [v for chunk in chunks for v in chunk][:60]),
        st.sampled_from([1, 3, 5, 11]),
    )
    def test_sign_runs_equal_the_state_machine(self, H, window):
        # Normals, signed-zero runs, +-1 plateaus and NaN runs, 0 to 60 values.
        assert segment_phases(H, window) == oracles.segment_phases(H, window)


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
