"""Archive variants, parent sampling, and discovery-score updates."""

import math

import numpy as np
import pytest
from scipy import stats

from spiralns import (
    EvolutionConfig,
    Genotype,
    GenotypeSpace,
    GridArchive,
    SamplingMode,
    SamplingStrategy,
    SpiralParams,
    UnstructuredArchive,
    cell_index,
    grid_insert,
    init_population,
    sample_parents,
    spiral_point,
    step_generation,
    unstructured_update,
    update_discovery_scores,
)
from spiralns.evolution import Individual, _coordinate_rows
from spiralns.spiral import BehaviorPoint, arc_length_from_origin

PARAMS = SpiralParams()


def ind(t: float, ident: int, eta: float = 0.0, parent_id=None) -> Individual:
    return Individual(
        id=ident,
        genotype=Genotype(t, GenotypeSpace.ANGLE),
        behavior=spiral_point(t, PARAMS),
        arc_pos=arc_length_from_origin(t, PARAMS),
        eta=eta,
        parent_id=parent_id,
    )


def at_xy(x: float, y: float, ident: int) -> Individual:
    return Individual(
        id=ident,
        genotype=Genotype(0.0, GenotypeSpace.ANGLE),
        behavior=BehaviorPoint(x, y, 0.0),
        arc_pos=0.0,
    )


class TestUnstructuredArchive:
    def test_first_addition(self):
        rng = np.random.default_rng(0)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 6))]
        arch = unstructured_update(arch, pop, rng)
        assert len(arch.members) == 1
        assert arch.members[0].id in {p.id for p in pop}

    def test_unbounded_growth_is_r_per_generation(self):
        rng = np.random.default_rng(1)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 31))]
        for g in range(1, 41):
            arch = unstructured_update(arch, pop, rng)
            assert len(arch.members) == 6 * g

    def test_capacity_saturates_exactly(self):
        rng = np.random.default_rng(2)
        arch = UnstructuredArchive(max_size=100, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 31))]
        for _ in range(50):
            arch = unstructured_update(arch, pop, rng)
            assert len(arch.members) <= 100
        assert len(arch.members) == 100

    def test_additions_sampled_without_replacement(self):
        rng = np.random.default_rng(3)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 7))]  # exactly r
        arch = unstructured_update(arch, pop, rng)
        assert sorted(m.id for m in arch.members) == [p.id for p in pop]

    def test_members_are_snapshots(self):
        rng = np.random.default_rng(4)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        original = ind(5.0, 0)
        arch = unstructured_update(arch, [original], rng)
        original.novelty = 123.0
        original.eta = 0.77
        assert arch.members[0].novelty != 123.0
        assert arch.members[0].eta != 0.77


class TestGridArchive:
    def test_cell_width(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        width = 2 * PARAMS.extent / 50
        assert width == pytest.approx(0.0377, abs=5e-5)

    def test_center_maps_to_cell_with_lower_corner_at_origin(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        assert cell_index(BehaviorPoint(0.0, 0.0, 0.0), arch) == (25, 25)

    def test_upper_corner_maps_to_last_cell(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        e = PARAMS.extent
        assert cell_index(BehaviorPoint(e, e, 0.0), arch) == (49, 49)
        assert cell_index(BehaviorPoint(-e, -e, 0.0), arch) == (0, 0)

    def test_row_is_y_and_col_is_x(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        w = 2 * PARAMS.extent / 50
        row, col = cell_index(BehaviorPoint(-PARAMS.extent + 3.5 * w, -PARAMS.extent, 0.0), arch)
        assert (row, col) == (0, 3)

    def test_first_insertion(self):
        rng = np.random.default_rng(5)
        arch = GridArchive(params=PARAMS, resolution=50)
        arch, was_new = grid_insert(arch, ind(10.0, 0), rng)
        assert was_new is True
        assert len(arch.cells) == 1

    def test_epsilon_zero_never_replaces(self):
        rng = np.random.default_rng(6)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.0)
        first = at_xy(0.001, 0.001, 0)
        arch, _ = grid_insert(arch, first, rng)
        for i in range(1, 50):
            arch, was_new = grid_insert(arch, at_xy(0.002, 0.002, i), rng)
            assert was_new is False
        (occupant,) = arch.cells.values()
        assert occupant.id == 0

    def test_epsilon_replacement_rate_is_binomial(self):
        rng = np.random.default_rng(7)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.05)
        arch, _ = grid_insert(arch, at_xy(0.001, 0.001, 0), rng)
        n = 10_000
        replacements = 0
        for i in range(1, n + 1):
            before = next(iter(arch.cells.values())).id
            arch, was_new = grid_insert(arch, at_xy(0.001, 0.001, i), rng)
            assert was_new is False
            if next(iter(arch.cells.values())).id != before:
                replacements += 1
        assert abs(replacements - n * 0.05) <= 3 * math.sqrt(n * 0.05 * 0.95)

    def test_occupant_count_is_nondecreasing(self):
        rng = np.random.default_rng(8)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.5)
        count = 0
        for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 500)):
            arch, _ = grid_insert(arch, ind(float(t), i), rng)
            assert len(arch.cells) >= count
            count = len(arch.cells)

    def test_occupant_lies_in_its_cell(self):
        rng = np.random.default_rng(9)
        arch = GridArchive(params=PARAMS, resolution=50)
        for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 300)):
            arch, _ = grid_insert(arch, ind(float(t), i), rng)
        for key, occupant in arch.cells.items():
            assert cell_index(occupant.behavior, arch) == key

    def test_out_of_bounds_clamps_to_edge(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        assert cell_index(BehaviorPoint(99.0, -99.0, 0.0), arch) == (0, 49)


def assert_coords_in_sync(archive):
    rows = archive.coords()
    assert rows.shape == (3, len(archive))
    assert np.array_equal(rows, _coordinate_rows(archive.individuals()))


class CheckedUnstructured(UnstructuredArchive):
    def update(self, population, rng):
        super().update(population, rng)
        assert_coords_in_sync(self)
        self.updates = getattr(self, "updates", 0) + 1


class CheckedGrid(GridArchive):
    def insert(self, candidate, rng):
        before = [e.id for e in self.individuals()]
        was_new = super().insert(candidate, rng)
        assert_coords_in_sync(self)
        after = [e.id for e in self.individuals()]
        if not was_new and after != before:
            self.replacements = getattr(self, "replacements", 0) + 1
        return was_new


class TestCoordsStayInSync:
    """coords() equals the rows rebuilt from individuals() after every change."""

    def evolve(self, archive, sampling, generations=300):
        cfg = EvolutionConfig(seed=21)
        state = init_population(cfg, PARAMS, archive=archive)
        for _ in range(generations):
            step_generation(state, cfg, sampling)
        return archive

    def test_unbounded(self):
        arch = self.evolve(
            CheckedUnstructured(max_size=None), SamplingStrategy(SamplingMode.POPULATION_ONLY)
        )
        assert arch.updates == 300 and len(arch) == 1800

    def test_bounded_with_evictions(self):
        arch = self.evolve(
            CheckedUnstructured(max_size=50), SamplingStrategy(SamplingMode.MIXED_RANDOM)
        )
        assert arch.updates == 300 and len(arch) == 50

    def test_grid_with_replacements(self):
        arch = self.evolve(
            CheckedGrid(params=PARAMS, resolution=50, epsilon=0.5),
            SamplingStrategy(SamplingMode.MIXED_GUIDED),
        )
        assert arch.replacements > 100
        assert list(arch.cells.values()) == arch.individuals()

    def test_initial_entries_are_mirrored(self):
        arch = UnstructuredArchive(members=[ind(0.5 * t, t) for t in range(100)])
        assert_coords_in_sync(arch)

    def test_coords_are_read_only(self):
        arch = UnstructuredArchive(members=[ind(1.0, 0)])
        with pytest.raises(ValueError):
            arch.coords()[0, 0] = 5.0


def make_pop_and_archive(etas):
    pop = [ind(1.0 + i, i) for i in range(10)]
    arch = UnstructuredArchive(
        max_size=None,
        additions_per_generation=1,
        members=[ind(20.0 + i, 100 + i, eta=e) for i, e in enumerate(etas)],
    )
    return pop, arch


class TestSampleParents:
    def test_population_only_never_touches_archive(self):
        rng = np.random.default_rng(10)
        pop, arch = make_pop_and_archive([0.5, 0.5])
        strat = SamplingStrategy(SamplingMode.POPULATION_ONLY)
        parents = sample_parents(strat, pop, arch, 1000, rng)
        assert len(parents) == 1000
        assert all(p.id < 100 for p in parents)

    def test_population_only_forces_zero_archive_fraction(self):
        strat = SamplingStrategy(SamplingMode.POPULATION_ONLY, archive_fraction=0.9)
        assert strat.archive_fraction == 0.0

    def test_mixed_random_draws_floor_rho_n_from_archive(self):
        rng = np.random.default_rng(11)
        pop, arch = make_pop_and_archive([0.0] * 5)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents = sample_parents(strat, pop, arch, 7, rng)  # floor(0.5*7) = 3
        assert len(parents) == 7
        assert sum(1 for p in parents if p.id >= 100) == 3

    def test_empty_archive_falls_back_to_population(self):
        rng = np.random.default_rng(12)
        pop = [ind(1.0 + i, i) for i in range(10)]
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents = sample_parents(strat, pop, arch, 30, rng)
        assert len(parents) == 30
        assert all(p.id < 100 for p in parents)

    def test_none_archive_falls_back_to_population(self):
        rng = np.random.default_rng(13)
        pop = [ind(1.0 + i, i) for i in range(10)]
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents = sample_parents(strat, pop, None, 30, rng)
        assert all(p.id < 100 for p in parents)

    def test_guided_draw_frequency_tracks_eta(self):
        rng = np.random.default_rng(14)
        pop, arch = make_pop_and_archive([0.9, 0.1])
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws = sample_parents(strat, pop, arch, 10_000, rng)
        freq = sum(1 for p in draws if p.id == 100) / len(draws)
        assert abs(freq - 0.9) <= 0.03

    def test_guided_all_zero_eta_is_uniform(self):
        rng = np.random.default_rng(15)
        pop, arch = make_pop_and_archive([0.0, 0.0, 0.0, 0.0])
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws = sample_parents(strat, pop, arch, 10_000, rng)
        counts = [sum(1 for p in draws if p.id == 100 + i) for i in range(4)]
        assert sum(counts) == 10_000
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_guided_all_equal_eta_matches_random_distribution(self):
        rng = np.random.default_rng(16)
        pop, arch = make_pop_and_archive([0.3] * 8)
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws = sample_parents(strat, pop, arch, 10_000, rng)
        counts = [sum(1 for p in draws if p.id == 100 + i) for i in range(8)]
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_grid_archive_occupants_are_sampled(self):
        rng = np.random.default_rng(17)
        pop = [ind(1.0, i) for i in range(5)]
        grid = GridArchive(params=PARAMS, resolution=50)
        grid, _ = grid_insert(grid, ind(40.0, 100), rng)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=1.0)
        parents = sample_parents(strat, pop, grid, 10, rng)
        assert all(p.id == 100 for p in parents)


class TestUpdateDiscoveryScores:
    def offspring(self, parent, kappa, ident):
        child = ind(parent.genotype.value + 0.1, ident, parent_id=parent.id)
        return (child, kappa)

    def test_two_of_four_discoveries(self):
        pop = [ind(1.0 + i, i) for i in range(4)]
        kids = (
            [self.offspring(pop[0], 1, 10), self.offspring(pop[0], 1, 11)]
            + [self.offspring(pop[1], 1, 12), self.offspring(pop[2], 1, 13)]
            + [self.offspring(pop[3], 0, 14)]
        )
        out = update_discovery_scores(pop, kids, tau=0.5)
        assert out[0].eta == pytest.approx(0.5 * 0.0 + 0.5 * (2 / 4))
        assert out[1].eta == pytest.approx(0.125)
        assert out[3].eta == pytest.approx(0.0)

    def test_tau_one_freezes_scores(self):
        pop = [ind(1.0, 0, eta=0.6), ind(2.0, 1, eta=0.2)]
        kids = [self.offspring(pop[0], 1, 10)]
        out = update_discovery_scores(pop, kids, tau=1.0)
        assert [p.eta for p in out] == [0.6, 0.2]

    def test_pure_decay_when_no_discoveries(self):
        pop = [ind(1.0, 0, eta=0.4)]
        kids = [self.offspring(pop[0], 0, 10)]
        out = update_discovery_scores(pop, kids, tau=0.5)
        assert out[0].eta == pytest.approx(0.2)

    def test_no_offspring_is_pure_decay(self):
        pop = [ind(1.0, 0, eta=0.8)]
        out = update_discovery_scores(pop, [], tau=0.25)
        assert out[0].eta == pytest.approx(0.2)

    def test_fresh_shares_sum_to_one(self):
        rng = np.random.default_rng(18)
        pop = [ind(1.0 + i, i) for i in range(6)]
        kids = []
        for j in range(12):
            parent = pop[int(rng.integers(6))]
            kids.append(self.offspring(parent, int(rng.random() < 0.5), 100 + j))
        if not any(k for _, k in kids):
            kids[0] = (kids[0][0], 1)
        out = update_discovery_scores(pop, kids, tau=0.0)  # tau=0 leaves only the fresh term
        assert sum(p.eta for p in out) == pytest.approx(1.0)

    def test_eta_stays_in_unit_interval(self):
        rng = np.random.default_rng(19)
        pop = [ind(1.0 + i, i, eta=float(rng.random())) for i in range(6)]
        for step in range(50):
            kids = [
                self.offspring(pop[int(rng.integers(6))], int(rng.random() < 0.3), 1000 + step * 20 + j)
                for j in range(10)
            ]
            pop = update_discovery_scores(pop, kids, tau=0.5)
            assert all(0.0 <= p.eta <= 1.0 for p in pop)

    def test_parentless_offspring_raises(self):
        pop = [ind(1.0, 0)]
        orphan = ind(2.0, 10, parent_id=999)
        with pytest.raises(ValueError):
            update_discovery_scores(pop, [(orphan, 1)], tau=0.5)
