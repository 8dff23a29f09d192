"""Evolution loop: initialization, mutation, novelty scoring, selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralns import (
    EvolutionConfig,
    Genotype,
    GenotypeSpace,
    Metric,
    SamplingMode,
    SamplingStrategy,
    SpiralParams,
    init_population,
    map_genotypes,
    mutate,
    step_generation,
)
from spiralns import evolution
from spiralns.archives import ETA, N_ROWS
from spiralns.evolution import TREE_CROSSOVER, Individual, _pool_novelty
from spiralns.spiral import BehaviorPoint

from helpers import append_columns, column_archive, to_columns, unstructured_archive
from oracles import (
    arc_length_from_origin,
    genotype_at_curve_parameter,
    map_genotype,
    spiral_point,
)

PARAMS = SpiralParams()
POP_ONLY = SamplingStrategy(SamplingMode.POPULATION_ONLY)


def make_individual(t: float, ident: int = 0) -> Individual:
    b = spiral_point(t, PARAMS)
    return Individual(
        id=ident,
        genotype=Genotype(t, GenotypeSpace.ANGLE),
        behavior=b,
        arc_pos=arc_length_from_origin(t, PARAMS),
    )


class TestInitPopulation:
    @pytest.mark.parametrize("space", list(GenotypeSpace))
    def test_all_identical_at_start(self, space):
        t0 = 15 * math.pi
        cfg = EvolutionConfig(pop_size=30, init_t0=t0, genotype_space=space)
        state = init_population(cfg, PARAMS)
        assert len(state.population) == 30
        # The start genotype is t0 itself, or its exact arc length S(0, t0).
        s0 = map_genotypes(np.array([t0]), GenotypeSpace.ANGLE, PARAMS)[3][0]
        value = t0 if space is GenotypeSpace.ANGLE else s0
        assert value == genotype_at_curve_parameter(t0, space, PARAMS).value
        (t,), (x,), (y,), (arc,) = map_genotypes(np.array([value]), space, PARAMS)
        for ind in state.population:
            assert ind.genotype == Genotype(value, space)
            assert (ind.behavior.x, ind.behavior.y, ind.behavior.t) == (x, y, t)
            assert ind.arc_pos == arc
            assert ind.novelty == 0.0 and ind.eta == 0.0
            assert ind.parent_id is None and ind.birth_generation == 0
        assert state.archive is None and state.generation == 0

    def test_single_individual(self):
        cfg = EvolutionConfig(pop_size=1)
        state = init_population(cfg, PARAMS)
        assert len(state.population) == 1

    def test_origin_start(self):
        cfg = EvolutionConfig(init_t0=0.0)
        state = init_population(cfg, PARAMS)
        assert state.population[0].behavior.x == 0.0

    def test_arc_space_start_matches_angle_space_start(self):
        t0 = 28 * math.pi
        a = init_population(
            EvolutionConfig(init_t0=t0, genotype_space=GenotypeSpace.ANGLE), PARAMS
        )
        u = init_population(
            EvolutionConfig(init_t0=t0, genotype_space=GenotypeSpace.ARC_LENGTH), PARAMS
        )
        assert a.population[0].behavior.x == pytest.approx(
            u.population[0].behavior.x, abs=1e-6
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            init_population(EvolutionConfig(pop_size=0), PARAMS)
        with pytest.raises(ValueError):
            init_population(EvolutionConfig(sigma=-0.1), PARAMS)
        with pytest.raises(ValueError):
            init_population(EvolutionConfig(init_t0=1e6), PARAMS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="sigma"):
            EvolutionConfig(sigma=bad).validate(PARAMS)


ANGLE = GenotypeSpace.ANGLE


class TestMutate:
    def test_tiny_sigma_is_identity_in_the_limit(self):
        rng = np.random.default_rng(0)
        out = mutate(np.array([10.0]), ANGLE, 1e-12, rng, PARAMS)
        assert out[0] == pytest.approx(10.0, abs=1e-9)

    def test_interior_sample_statistics(self):
        rng = np.random.default_rng(1)
        sigma = 0.3
        start = 15 * math.pi  # far from both bounds
        deltas = mutate(np.full(100_000, start), ANGLE, sigma, rng, PARAMS) - start
        assert abs(deltas.mean()) <= 3 * sigma / math.sqrt(len(deltas))
        assert deltas.std() == pytest.approx(sigma, rel=0.02)

    def test_clamps_at_bounds(self):
        rng = np.random.default_rng(2)
        values = mutate(np.zeros(200), ANGLE, 0.3, rng, PARAMS)
        assert values.min() == 0.0  # roughly half the draws clamp to the bound
        assert np.all(values >= 0.0)
        top = mutate(np.full(200, PARAMS.s_max), GenotypeSpace.ARC_LENGTH, 0.3, rng, PARAMS)
        assert top.max() == PARAMS.s_max

    def test_one_draw_equals_scalar_draws(self):
        values = np.linspace(1.0, 90.0, 30)
        out = mutate(values, ANGLE, 0.3, np.random.default_rng(4), PARAMS)
        rng = np.random.default_rng(4)
        assert out.tolist() == [v + rng.normal(0.0, 0.3) for v in values.tolist()]

    def test_rejects_bad_sigma(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            mutate(np.array([1.0]), ANGLE, 0.0, rng, PARAMS)


def novelty_score(subject, population, archive_members, k, metric):
    """Scalar oracle: mean distance from the subject to its k nearest neighbors.

    Neighbors come from population and archive; the subject instance itself
    is excluded, coincident other individuals are not.  With fewer than k
    candidates the mean runs over whatever is available; with none the score
    is zero.
    """
    if metric is Metric.GEODESIC:
        dists = [
            abs(subject.arc_pos - other.arc_pos)
            for other in population + archive_members
            if other is not subject
        ]
    else:
        sx, sy = subject.behavior.x, subject.behavior.y
        dists = []
        for other in population + archive_members:
            if other is subject:
                continue
            dx = sx - other.behavior.x
            dy = sy - other.behavior.y
            dists.append(math.sqrt(dx * dx + dy * dy))
    if not dists:
        return 0.0
    dists.sort()
    k_eff = min(k, len(dists))
    return sum(dists[:k_eff]) / k_eff


def coords(individuals):
    return to_columns(individuals)[:3]


def pool_score(subject, pool, archive_members, k, metric):
    """The subject's score from the program's pool scorer."""
    scores = _pool_novelty(coords(pool), coords(archive_members), k, metric)
    return float(scores[next(i for i, ind in enumerate(pool) if ind is subject)])


def brute_force_novelty(subject, others, k, metric):
    """Full-sort oracle: all distances, ascending, mean of the first k."""
    dists = []
    for other in others:
        if other is subject:
            continue
        if metric is Metric.GEODESIC:
            d = abs(subject.arc_pos - other.arc_pos)
        else:
            dx = subject.behavior.x - other.behavior.x
            dy = subject.behavior.y - other.behavior.y
            d = math.sqrt(dx * dx + dy * dy)
        dists.append(d)
    dists.sort()
    if not dists:
        return 0.0
    k = min(k, len(dists))
    return sum(dists[:k]) / k


class TestNoveltyScore:
    def test_coincident_pair_scores_zero(self):
        a, b = make_individual(5.0, 0), make_individual(5.0, 1)
        assert pool_score(a, [a, b], [], 1, Metric.EUCLIDEAN) == 0.0

    def test_three_point_hand_configuration(self):
        subject = make_individual(0.0, 0)
        near = make_individual(math.pi / 2, 1)
        far = make_individual(math.pi, 2)
        # distances from the origin are just the radii a*t
        expected = (0.01 * math.pi / 2 + 0.01 * math.pi) / 2
        got = pool_score(subject, [subject, near, far], [], 2, Metric.EUCLIDEAN)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            k = int(rng.integers(1, 15))
            metric = Metric.EUCLIDEAN if rng.random() < 0.5 else Metric.GEODESIC
            pop = [
                make_individual(float(t), i)
                for i, t in enumerate(rng.uniform(0, PARAMS.t_max, n))
            ]
            n_arch = int(rng.integers(0, 10))
            arch = [
                make_individual(float(t), 1000 + i)
                for i, t in enumerate(rng.uniform(0, PARAMS.t_max, n_arch))
            ]
            subject = pop[int(rng.integers(n))]
            got = pool_score(subject, pop, arch, k, metric)
            want = brute_force_novelty(subject, pop + arch, k, metric)
            assert novelty_score(subject, pop, arch, k, metric) == want
            assert got == want  # exact, not approximate

    def test_vectorized_pool_matches_single_subject_scoring(self):
        rng = np.random.default_rng(12)
        for metric in Metric:
            pool = [
                make_individual(float(t), i)
                for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 40))
            ]
            arch = [
                make_individual(float(t), 100 + i)
                for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 15))
            ]
            scores = _pool_novelty(coords(pool), coords(arch), 10, metric)
            for ind, score in zip(pool, scores):
                assert float(score) == novelty_score(ind, pool, arch, 10, metric)

    def test_no_candidates_scores_zero(self):
        a = make_individual(3.0, 0)
        assert pool_score(a, [a], [], 5, Metric.GEODESIC) == 0.0

    def test_fewer_than_k_candidates_averages_all(self):
        a, b = make_individual(1.0, 0), make_individual(2.0, 1)
        want = abs(a.arc_pos - b.arc_pos)
        assert pool_score(a, [a, b], [], 10, Metric.GEODESIC) == want


def at(ident: int, x: float = 0.0, y: float = 0.0, arc: float = 0.0) -> Individual:
    return Individual(
        id=ident,
        genotype=Genotype(0.0, GenotypeSpace.ANGLE),
        behavior=BehaviorPoint(x, y, 0.0),
        arc_pos=arc,
    )


def random_points(rng, n, first_id):
    return [
        make_individual(float(t), first_id + i)
        for i, t in enumerate(rng.uniform(0, PARAMS.t_max, n))
    ]


class TestPoolNovelty:
    """The pool scorer must equal the scalar novelty_score bit for bit."""

    def check(self, pool, arch, k, metric):
        scores = _pool_novelty(coords(pool), coords(arch), k, metric)
        want = [novelty_score(ind, pool, arch, k, metric) for ind in pool]
        assert [float(s) for s in scores] == want

    @pytest.mark.parametrize("metric", list(Metric))
    def test_random_pools_on_both_sides_of_the_crossover(self, metric):
        rng = np.random.default_rng(31)
        for n_arch in (0, 100, TREE_CROSSOVER - 60, TREE_CROSSOVER - 59, 1000):
            for _ in range(3):
                k = int(rng.integers(1, 16))
                self.check(
                    random_points(rng, 60, 0), random_points(rng, n_arch, 1000), k, metric
                )

    @pytest.mark.parametrize("metric", list(Metric))
    def test_thirty_coincident_clones(self, metric):
        rng = np.random.default_rng(32)
        clones = [make_individual(28 * math.pi, i) for i in range(30)]
        pool = clones + random_points(rng, 30, 30)
        for n_arch in (0, TREE_CROSSOVER):
            self.check(pool, random_points(rng, n_arch, 1000), 10, metric)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_pools_smaller_than_k_plus_two(self, metric):
        rng = np.random.default_rng(33)
        for n_pool in (1, 2, 3, 11):
            for n_arch in (0, 5, TREE_CROSSOVER):
                pool = random_points(rng, n_pool, 0)
                self.check(pool, random_points(rng, n_arch, 1000), 10, metric)

    @pytest.mark.parametrize("k", [9, 10, 11])
    def test_exact_ties_at_the_kth_neighbor(self, k):
        # Dyadic offsets placed symmetrically about the subject give exactly
        # equal distances, so ties straddle the k-th neighbor.
        rng = np.random.default_rng(34)
        cx, cy, ca = 0.5, 0.25, 100.0
        ties = [at(0, cx, cy, ca)]
        for j in range(1, 5):
            d = j / 16
            for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
                ties.append(at(len(ties), cx + sx * d, cy + sy * d, ca + (sx or sy) * d))
        pool = ties + random_points(rng, 60 - len(ties), 100)
        arch = [at(1000 + i, 5.0 + i, 5.0, 5000.0 + i) for i in range(TREE_CROSSOVER)]
        for metric in Metric:
            self.check(pool, arch, k, metric)

    def test_near_ties_one_ulp_apart(self):
        # Seen from the subject at 0, the last two lie 10 and 10 + 1 ulp away.
        pool = [at(j, arc=float(j)) for j in range(10)]
        pool += [at(10, arc=-10.0), at(11, arc=float(np.nextafter(10.0, 11.0)))]
        arch = [at(1000 + i, arc=5000.0 + i) for i in range(TREE_CROSSOVER)]
        for k in (9, 10, 11):
            self.check(pool, arch, k, Metric.GEODESIC)


def spiral_columns(ts) -> np.ndarray:
    """Columns of points at the given angles (clipped onto the spiral), rows
    as in `archives`."""
    ts = np.clip(np.asarray(ts, dtype=float), 0.0, PARAMS.t_max)
    cols = np.zeros((N_ROWS, len(ts)))
    cols[:4] = map_genotypes(ts, GenotypeSpace.ANGLE, PARAMS)
    return cols


def dense_scores(pool, archive, k, metric):
    """The dense routine over pool + archive: the oracle the index must equal."""
    points = evolution._coordinates(np.concatenate((pool, archive.columns()), axis=1), metric)
    k_eff = min(k, points.shape[1] - 1)
    return evolution._dense_novelty(points, np.arange(pool.shape[1]), k_eff, metric)


def assert_bit_equal(pool, archive, k, metric):
    got = evolution._archive_novelty(pool, archive, k, metric)
    want = dense_scores(pool, archive, k, metric)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# One archive change: what it does, and a seed for where and with what.
ARCHIVE_OPS = st.tuples(
    st.sampled_from(["append", "append_copies", "retake", "retake_tail", "etas", "evict"]),
    st.integers(0, 2**32 - 1),
)


class TestArchiveIndex:
    """Scores through the archive's persistent k-d tree equal the dense
    routine's bit for bit, whatever changed in the archive since the build."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(ARCHIVE_OPS, min_size=1, max_size=40),
        metric=st.sampled_from(list(Metric)),
        k=st.sampled_from([1, 10, 15, 2000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_routine_after_every_change(self, ops, metric, k, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(5.0, PARAMS.t_max - 5.0)
        archive = column_archive(spiral_columns(rng.uniform(0.0, PARAMS.t_max, TREE_CROSSOVER)))
        pool = spiral_columns(center + rng.normal(0.0, 1.0, 60))
        assert_bit_equal(pool, archive, k, metric)
        for op, op_seed in ops:
            r = np.random.default_rng(op_seed)
            if op == "append":
                ts = center + r.normal(0.0, 2.0, r.integers(1, 9))
                append_columns(archive, spiral_columns(ts))
            elif op == "append_copies":  # coincident with archive entries or the pool
                source = archive.columns() if r.random() < 0.5 else pool
                picks = r.integers(source.shape[1], size=r.integers(1, 9))
                append_columns(archive, source[:, picks])
            elif op == "retake":
                slot = int(r.integers(len(archive)))
                archive._put(slot, spiral_columns([center + r.normal()])[:, 0])
            elif op == "retake_tail" and archive.settled < len(archive):
                slot = int(r.integers(archive.settled, len(archive)))
                archive._put(slot, spiral_columns([center + r.normal()])[:, 0])
                assert slot not in archive.stale
            elif op == "etas":
                stale = set(archive.stale)
                archive._data[ETA, r.integers(len(archive), size=5)] = r.random(5)
                assert archive.stale == stale
            elif op == "evict":
                archive._delete(int(r.integers(len(archive))))
            pool = spiral_columns(center + r.normal(0.0, 1.0, 60))
            assert_bit_equal(pool, archive, k, metric)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_thirty_coincident_generation_zero_clones(self, metric):
        rng = np.random.default_rng(41)
        t0 = 28 * math.pi
        archive = column_archive(spiral_columns(t0 + rng.normal(0.0, 3.0, TREE_CROSSOVER)))
        clones = spiral_columns(np.full(30, t0))
        for spread in (0.0, 0.3):
            pool = np.concatenate((clones, spiral_columns(t0 + rng.normal(0.0, spread, 30))), axis=1)
            assert_bit_equal(pool, archive, 10, metric)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_more_neighbors_than_candidates(self, metric):
        rng = np.random.default_rng(42)
        archive = column_archive(spiral_columns(rng.uniform(0.0, PARAMS.t_max, TREE_CROSSOVER)))
        for n_pool in (2, 11, 60):
            pool = spiral_columns(rng.uniform(0.0, PARAMS.t_max, n_pool))
            for k in (TREE_CROSSOVER - 20, TREE_CROSSOVER + n_pool - 1, 5000):
                assert_bit_equal(pool, archive, k, metric)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_coincident_archive_copies_take_the_dense_fallback(self, metric, monkeypatch):
        # Forty archive copies of a pool member: the tree returns k + 2 of
        # them, all at distance 0, so its last distance ties the k-th.
        rng = np.random.default_rng(43)
        ts = np.linspace(60.0, 80.0, 60)
        far = spiral_columns(rng.uniform(0.0, 10.0, TREE_CROSSOVER))
        copies = spiral_columns(np.full(40, ts[30]))
        archive = column_archive(np.concatenate((far, copies), axis=1))
        pool = spiral_columns(ts)
        calls = []
        dense = evolution._dense_novelty
        monkeypatch.setattr(
            evolution, "_dense_novelty", lambda p, r, *a: calls.append(len(r)) or dense(p, r, *a)
        )
        assert_bit_equal(pool, archive, 10, metric)
        assert len(calls) == 2  # the index's fallback, then the oracle

    def test_one_build_per_bound_of_changes(self, monkeypatch):
        rng = np.random.default_rng(44)
        archive = column_archive(spiral_columns(rng.uniform(0.0, PARAMS.t_max, TREE_CROSSOVER)))
        pool = spiral_columns(rng.uniform(0.0, PARAMS.t_max, 60))
        builds = []
        build = evolution._kd_tree
        monkeypatch.setattr(evolution, "_kd_tree", lambda p: builds.append(p) or build(p))
        appends = 3 * evolution._REBUILD_AT
        for _ in range(appends):
            append_columns(archive, spiral_columns(rng.uniform(0.0, PARAMS.t_max, 1)))
            # Rewriting a slot still in the tail, or any slot's eta, adds no
            # work for the next build.
            archive._put(len(archive) - 1, spiral_columns(rng.uniform(0.0, PARAMS.t_max, 1))[:, 0])
            archive._data[ETA, :5] = 1.0
            assert not archive.stale
            evolution._archive_novelty(pool, archive, 10, Metric.EUCLIDEAN)
        assert len(builds) == 1 + appends // (evolution._REBUILD_AT + 1)

    def test_an_eviction_drops_the_index(self):
        rng = np.random.default_rng(45)
        archive = column_archive(spiral_columns(rng.uniform(0.0, PARAMS.t_max, TREE_CROSSOVER)))
        pool = spiral_columns(rng.uniform(0.0, PARAMS.t_max, 60))
        evolution._archive_novelty(pool, archive, 10, Metric.EUCLIDEAN)
        archive._put(3, archive.columns()[:, 4].copy())
        assert archive.index is not None and archive.stale == {3}
        archive._delete(0)
        assert archive.index is None and archive.settled == 0 and not archive.stale
        assert_bit_equal(pool, archive, 10, Metric.EUCLIDEAN)


class TestStepGeneration:
    def test_structural_postconditions(self):
        cfg = EvolutionConfig(pop_size=30, offspring_size=30, g_max=5, seed=4)
        state = init_population(cfg, PARAMS)
        for g in range(1, 4):
            step_generation(state, cfg, POP_ONLY)
            assert state.generation == g
            assert len(state.population) == 30
            assert len(state.lineage_log) == 30 * g

    def test_selection_soundness(self):
        cfg = EvolutionConfig(seed=5)
        state = init_population(cfg, PARAMS)
        for _ in range(3):
            # Records are copies, so the pool's fresh scores come from the oracle.
            pre = state.population
            before = len(state.lineage_log)
            step_generation(state, cfg, POP_ONLY)
            kids = [make_individual(e.child_t, e.child_id) for e in state.lineage_log[before:]]
            pool = pre + kids
            novelty = {i.id: novelty_score(i, pool, [], cfg.k, cfg.metric) for i in pool}
            assert all(i.novelty == novelty[i.id] for i in state.population)
            survivors = {i.id for i in state.population}
            discarded_scores = [v for i, v in novelty.items() if i not in survivors]
            if discarded_scores:
                worst_survivor = min(i.novelty for i in state.population)
                assert worst_survivor >= max(discarded_scores) or math.isclose(
                    worst_survivor, max(discarded_scores)
                )

    def test_behavior_consistency(self):
        cfg = EvolutionConfig(seed=6, genotype_space=GenotypeSpace.ARC_LENGTH)
        state = init_population(cfg, PARAMS)
        for _ in range(5):
            step_generation(state, cfg, POP_ONLY)
        for ind in state.population:
            ref = map_genotype(ind.genotype, PARAMS)
            assert ind.behavior.x == pytest.approx(ref.x, abs=1e-9)
            assert ind.behavior.y == pytest.approx(ref.y, abs=1e-9)

    def test_coincident_tie_goes_to_the_child(self):
        cfg = EvolutionConfig(pop_size=1, offspring_size=1, sigma=1e-300, seed=7)
        state = init_population(cfg, PARAMS)
        parent_id = state.population[0].id
        step_generation(state, cfg, POP_ONLY)
        survivor = state.population[0]
        assert survivor.birth_generation == 1
        assert survivor.id != parent_id

    def test_determinism(self):
        def run():
            cfg = EvolutionConfig(seed=8)
            state = init_population(cfg, PARAMS)
            for _ in range(10):
                step_generation(state, cfg, POP_ONLY)
            return (
                [tuple(e) for e in state.lineage_log],
                [(i.id, i.genotype.value, i.novelty) for i in state.population],
            )

        assert run() == run()

    def test_novelty_non_negative(self):
        cfg = EvolutionConfig(seed=9)
        state = init_population(cfg, PARAMS)
        for _ in range(5):
            step_generation(state, cfg, POP_ONLY)
            assert all(i.novelty >= 0.0 for i in state.population)

    def test_birth_delta_tracks_arc_change(self):
        cfg = EvolutionConfig(seed=10)
        state = init_population(cfg, PARAMS)
        step_generation(state, cfg, POP_ONLY)
        by_id = {i.id: i for i in state.population}
        for e in state.lineage_log:
            child = by_id.get(e.child_id)
            if child is None:
                continue
            want = arc_length_from_origin(e.child_t, PARAMS) - arc_length_from_origin(
                e.parent_t, PARAMS
            )
            assert child.birth_delta == pytest.approx(want, abs=1e-12)

    def test_archive_members_join_novelty_candidates(self):
        # a far-away archived point lifts the novelty of everything
        cfg = EvolutionConfig(pop_size=3, offspring_size=3, k=10, seed=11)
        state = init_population(cfg, PARAMS)
        state.archive = unstructured_archive(
            [make_individual(0.0, 999)], max_size=None, additions_per_generation=1
        )
        step_generation(state, cfg, POP_ONLY)
        with_archive = max(i.novelty for i in state.population)

        state2 = init_population(EvolutionConfig(pop_size=3, offspring_size=3, k=10, seed=11), PARAMS)
        step_generation(state2, EvolutionConfig(pop_size=3, offspring_size=3, k=10, seed=11), POP_ONLY)
        without = max(i.novelty for i in state2.population)
        assert with_archive > without

    def test_guided_requires_grid_archive(self):
        cfg = EvolutionConfig(seed=12)
        state = init_population(cfg, PARAMS)
        guided = SamplingStrategy(SamplingMode.MIXED_GUIDED)
        with pytest.raises(ValueError):
            step_generation(state, cfg, guided)
