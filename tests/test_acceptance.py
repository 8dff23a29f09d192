"""Acceptance gate: one test per headline capability, at full experiment scale.

Each test measures what the corresponding capability claims, prints a single
pass/fail line into the terminal summary, and asserts it.  Statistical
thresholds were calibrated once from pilot batches at the default start point
(t0 = 28*pi) and are frozen here; exact checks carry no tolerance at all.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from spiralns import (
    GenotypeSpace,
    Metric,
    SpiralParams,
    UnstructuredArchive,
    fit_damped_oscillator,
    map_genotypes,
    parse_config,
    run_single,
    segment_phases,
    update_discovery_scores,
)
from spiralns.analysis import medians
from spiralns.archives import Individual
from spiralns.evolution import _novelty
from spiralns.experiments import execute_batch, final_coverage
from spiralns.spiral import Genotype, invert_arc_lengths

from helpers import scalar_median, to_columns
from oracles import arc_length_from_origin, spiral_point

PARAMS = SpiralParams()
FULL = 0.95  # coverage fraction counted as full exploration
GAP = 0.25  # calibrated minimum disadvantage of the biased archive-free settings


def batch(scenario: str, extra: str = ""):
    return execute_batch(parse_config(f"scenario = {scenario}\n" + extra))


@pytest.fixture(scope="module")
def fig2_batches():
    return {name: batch(name) for name in ("Fig2a", "Fig2b", "Fig2c", "Fig2d")}


@pytest.fixture(scope="module")
def fig3a_batch():
    return batch("Fig3a")


@pytest.fixture(scope="module")
def sweep_batches():
    return {name: batch(name) for name in ("Fig3e", "Fig3c", "Fig3f", "Fig3g")}


@pytest.fixture(scope="module")
def grid_batches():
    return {name: batch(name) for name in ("Fig3h", "Fig3k", "Fig3l")}


def success_rate(result) -> float:
    per_run = [final_coverage(tel.telemetry) for tel in result.telemetries]
    return sum(c >= FULL for c in per_run) / len(per_run)


def median_coverage(result) -> float:
    return scalar_median([final_coverage(tel.telemetry) for tel in result.telemetries])


def test_criterion_1_arc_length_oracle(criterion):
    grid = np.linspace(0.0, PARAMS.t_max, 50)
    arcs = map_genotypes(grid, GenotypeSpace.ANGLE, PARAMS)[3]
    worst_arc = 0.0
    for t, arc in zip(grid, arcs):
        oracle, _ = quad(
            lambda u: PARAMS.a * math.sqrt(u * u + 1.0), 0.0, float(t), limit=200
        )
        worst_arc = max(worst_arc, abs(float(arc) - oracle))
    worst_inv = float(np.max(np.abs(invert_arc_lengths(arcs, PARAMS)[0] - grid)))
    ok = worst_arc <= 1e-8 and worst_inv <= 1e-6
    criterion(
        1,
        ok,
        f"closed-form arc length vs quadrature max |err| {worst_arc:.2e} "
        f"(<= 1e-08), inversion round-trip max |err| {worst_inv:.2e} (<= 1e-06)",
    )


def test_criterion_2_metric_contradiction(criterion):
    _, x, y, arc = map_genotypes(
        np.array([20 * math.pi, 22 * math.pi]), GenotypeSpace.ANGLE, PARAMS
    )
    dx, dy = float(x[0] - x[1]), float(y[0] - y[1])
    d_euc = math.sqrt(dx * dx + dy * dy)
    d_geo = abs(float(arc[0] - arc[1]))
    ratio = d_geo / d_euc
    ok = (
        abs(d_euc - 0.0628) <= 1e-4
        and abs(d_geo - 4.146) <= 1e-3
        and ratio > 50
    )
    criterion(
        2,
        ok,
        f"adjacent-turn points: euclidean {d_euc:.4f} (~0.0628), "
        f"geodesic {d_geo:.3f} (~4.146), ratio {ratio:.1f} (> 50)",
    )


@pytest.mark.slow
def test_criterion_3_archive_free_settings(criterion, fig2_batches):
    cum = {name: b.cumulative.fraction for name, b in fig2_batches.items()}
    inward = {
        name: float(b.cumulative.covered[:50].mean())
        for name, b in fig2_batches.items()
    }
    gaps_ok = all(cum["Fig2d"] - cum[n] >= GAP for n in ("Fig2a", "Fig2b", "Fig2c"))
    ok = (
        cum["Fig2d"] >= FULL
        and gaps_ok
        and inward["Fig2a"] < 0.5
        and inward["Fig2c"] < 0.5
    )
    criterion(
        3,
        ok,
        "archive-free cumulative coverage "
        + " ".join(f"{n[-1]}={cum[n]:.2f}" for n in sorted(cum))
        + f" (d >= {FULL}, others >= {GAP} lower); inward-half cover "
        f"a={inward['Fig2a']:.2f} c={inward['Fig2c']:.2f} (< 0.50)",
    )


@pytest.mark.slow
def test_criterion_4_unbounded_archive_oscillation(criterion, fig3a_batch):
    cum = fig3a_batch.cumulative.fraction
    n_signs_ok = 0
    n_decay_ok = 0
    for tel in fig3a_batch.telemetries[:10]:
        H = tel.telemetry["median_delta"].tolist()
        sign_changes = len(segment_phases(H, window=11)) - 1
        n_signs_ok += sign_changes >= 3
        fit = fit_damped_oscillator(H)
        q = len(H) // 4
        early = float(np.mean(np.abs(H[:q])))
        late = float(np.mean(np.abs(H[-q:])))
        n_decay_ok += fit.decay > 0 and late < early
    ok = cum >= FULL and n_signs_ok >= 8 and n_decay_ok >= 8
    criterion(
        4,
        ok,
        f"unbounded archive: cumulative coverage {cum:.2f} (>= {FULL}); "
        f">= 3 smoothed sign changes in {n_signs_ok}/10 seeds (>= 8); "
        f"decaying amplitude in {n_decay_ok}/10 seeds (>= 8)",
    )


@pytest.mark.slow
def test_criterion_5_archive_size_sweep(criterion, sweep_batches):
    rates = {name: success_rate(b) for name, b in sweep_batches.items()}
    small = {"Fig3e": 50, "Fig3c": 100, "Fig3f": 200}
    ok = all(rates[n] <= 0.20 for n in small) and rates["Fig3g"] >= 0.90
    criterion(
        5,
        ok,
        "bounded-archive success rates "
        + " ".join(f"A={small[n]}:{rates[n]:.2f}" for n in ("Fig3e", "Fig3c", "Fig3f"))
        + f" (<= 0.20 each), A=3000:{rates['Fig3g']:.2f} (>= 0.90)",
    )


@pytest.mark.slow
def test_criterion_6_structured_archive_ordering(criterion, grid_batches):
    med = {name: median_coverage(b) for name, b in grid_batches.items()}
    guided_rate = success_rate(grid_batches["Fig3l"])
    ok = (
        med["Fig3l"] > med["Fig3k"]
        and med["Fig3l"] > med["Fig3h"]
        and guided_rate >= 0.90
    )
    criterion(
        6,
        ok,
        f"grid-archive median coverage guided={med['Fig3l']:.2f} > "
        f"random={med['Fig3k']:.2f} and > none={med['Fig3h']:.2f}; "
        f"guided success rate {guided_rate:.2f} (>= 0.90)",
    )


@pytest.mark.slow
def test_criterion_7_resampling_vs_large_population(criterion):
    med_i = median_coverage(batch("Fig3i", "runs = 5\n"))
    med_j = median_coverage(batch("Fig3j"))
    ok = med_i >= med_j
    criterion(
        7,
        ok,
        f"matched budget: archive resampling median coverage {med_i:.2f} >= "
        f"large-population {med_j:.2f}",
    )


def _brute_force_novelty(subject, others, k, metric):
    dists = []
    for other in others:
        if other is subject:
            continue
        if metric is Metric.GEODESIC:
            dists.append(abs(subject.arc_pos - other.arc_pos))
        else:
            dx = subject.behavior.x - other.behavior.x
            dy = subject.behavior.y - other.behavior.y
            dists.append(math.sqrt(dx * dx + dy * dy))
    dists.sort()
    if not dists:
        return 0.0
    k = min(k, len(dists))
    return sum(dists[:k]) / k


def _random_individual(rng, ident) -> Individual:
    t = float(rng.uniform(0.0, PARAMS.t_max))
    return Individual(
        id=ident,
        genotype=Genotype(t, GenotypeSpace.ANGLE),
        behavior=spiral_point(t, PARAMS),
        arc_pos=arc_length_from_origin(t, PARAMS),
    )


def test_criterion_8_exact_property_suite(criterion):
    checks = {}

    # novelty agrees with a full-sort oracle, bit for bit
    rng = np.random.default_rng(0)
    exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        pop = [_random_individual(rng, i) for i in range(n)]
        k = int(rng.integers(1, 15))
        metric = Metric.EUCLIDEAN if rng.random() < 0.5 else Metric.GEODESIC
        i = int(rng.integers(n))
        scores = _novelty(to_columns(pop), None, k, metric)
        exact += float(scores[i]) == _brute_force_novelty(pop[i], pop, k, metric)
    checks["novelty oracle 100/100"] = exact == 100

    # bounded archives never exceed capacity and saturate exactly
    arch = UnstructuredArchive(max_size=100, additions_per_generation=6)
    pop = [_random_individual(rng, i) for i in range(30)]
    sizes_ok = True
    for _ in range(40):
        arch.update(to_columns(pop), rng)
        sizes_ok = sizes_ok and len(arch) <= 100
    checks["archive capacity"] = sizes_ok and len(arch) == 100

    # fresh discovery shares are normalized across parents
    parents = [_random_individual(rng, i) for i in range(8)]
    kids = []
    for j in range(16):
        parent = parents[int(rng.integers(8))]
        child = Individual(
            id=100 + j,
            genotype=parent.genotype,
            behavior=parent.behavior,
            arc_pos=parent.arc_pos,
            parent_id=parent.id,
        )
        kids.append((child, int(rng.random() < 0.5)))
    if not any(kappa for _, kappa in kids):
        kids[0] = (kids[0][0], 1)
    updated = update_discovery_scores(
        [p.id for p in parents],
        [p.eta for p in parents],
        [child.parent_id for child, _ in kids],
        [kappa for _, kappa in kids],
        tau=0.0,
    )
    checks["eta shares sum to 1"] = math.isclose(sum(updated), 1.0, rel_tol=1e-12)

    # one-row medians agree with the numpy oracle exactly
    med_ok = all(
        medians(vals.reshape(1, -1))[0] == np.median(vals)
        for vals in (rng.normal(size=int(rng.integers(1, 60))) for _ in range(200))
    )
    checks["median oracle"] = med_ok

    # bit-identical reruns of a full seeded run
    cfg = parse_config("scenario = Custom\nevolution.g_max = 50\nruns = 1\n")
    a, b = run_single(cfg, 0), run_single(cfg, 0)
    checks["deterministic reruns"] = (
        a.telemetry.tobytes() == b.telemetry.tobytes()
        and a.lineage.tobytes() == b.lineage.tobytes()
        and a.evaluated_ts.tobytes() == b.evaluated_ts.tobytes()
    )

    # oscillator fit recovers known parameters from clean data
    g = np.arange(400)
    lam, om = 0.004, 0.05
    H = 2.0 * np.exp(-lam * g) * np.cos(om * g + 0.7) + 0.1
    fit = fit_damped_oscillator(H)
    checks["oscillator recovery"] = (
        abs(fit.decay - lam) <= 0.01 * lam and abs(fit.frequency - om) <= 0.01 * om
    )

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        detail = "failing: " + ", ".join(failed)
    else:
        detail = "exact suites all green (" + ", ".join(checks) + ")"
    criterion(8, not failed, detail)
