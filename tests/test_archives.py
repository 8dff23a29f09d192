"""Archive variants, parent sampling, and discovery-score updates."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from spiralns import (
    EvolutionConfig,
    GenotypeSpace,
    GridArchive,
    SamplingMode,
    SamplingStrategy,
    SpiralParams,
    UnstructuredArchive,
    init_population,
    sample_parents,
    step_generation,
    update_discovery_scores,
)
from spiralns.archives import ETA, ID, N_ROWS, NOVELTY, X, Y, Individual
from spiralns.spiral import BehaviorPoint, Genotype

from helpers import column_archive, coords, to_columns, unstructured_archive
from oracles import arc_length_from_origin, cell_index, spiral_point

PARAMS = SpiralParams()

_E = PARAMS.extent
_COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2 * _E, 2 * _E),
    st.sampled_from([-_E, _E, math.nextafter(-_E, -math.inf), math.nextafter(_E, math.inf), -0.0]),
    st.sampled_from([-sys.float_info.max, sys.float_info.max]),
)


def _on_curve(t: float) -> tuple:
    p = spiral_point(t, PARAMS)
    return p.x, p.y


_POINTS = st.one_of(st.tuples(_COORDS, _COORDS), st.floats(0.0, PARAMS.t_max).map(_on_curve))


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


def column(individual: Individual) -> np.ndarray:
    return to_columns([individual])[:, 0]


def cell_of(archive, x: float, y: float) -> tuple:
    (cell,) = archive.cell_indices(np.array([[x], [y]]))
    return cell


def insert(archive, candidate: np.ndarray, rng) -> bool:
    """Insert one column into the cell cell_indices finds for it, as step_generation does."""
    (cell,) = archive.cell_indices(candidate[X : Y + 1, None])
    return archive.insert(cell, candidate, rng)


class TestUnstructuredArchive:
    def test_first_addition(self):
        rng = np.random.default_rng(0)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 6))]
        arch.update(to_columns(pop), rng)
        assert len(arch) == 1
        assert arch.individuals()[0].id in {p.id for p in pop}

    def test_unbounded_growth_is_r_per_generation(self):
        rng = np.random.default_rng(1)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 31))]
        for g in range(1, 41):
            arch.update(to_columns(pop), rng)
            assert len(arch) == 6 * g

    def test_capacity_saturates_exactly(self):
        rng = np.random.default_rng(2)
        arch = UnstructuredArchive(max_size=100, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 31))]
        for _ in range(50):
            arch.update(to_columns(pop), rng)
            assert len(arch) <= 100
        assert len(arch) == 100

    def test_additions_sampled_without_replacement(self):
        rng = np.random.default_rng(3)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=6)
        pop = [ind(float(t), i) for i, t in enumerate(range(1, 7))]  # exactly r
        arch.update(to_columns(pop), rng)
        assert sorted(m.id for m in arch.individuals()) == [p.id for p in pop]

    def test_members_are_snapshots(self):
        rng = np.random.default_rng(4)
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        original = to_columns([ind(5.0, 0)])
        arch.update(original, rng)
        original[:] = 123.0
        assert arch.individuals()[0].novelty != 123.0
        assert arch.individuals()[0].eta != 123.0

    def test_mutating_returned_records_leaves_entries_unchanged(self):
        rng = np.random.default_rng(4)
        arch = unstructured_archive([ind(2.0, 7, eta=0.25)])
        arch.update(to_columns([ind(5.0, 0)]), rng)
        before, rows = arch.individuals(), coords(arch).copy()
        for record in arch.individuals():
            record.novelty = 123.0
            record.eta = 0.77
            record.arc_pos = -1.0
        assert arch.individuals() == before
        assert np.array_equal(coords(arch), rows)
        assert [m.eta for m in arch.individuals()] == [0.25, 0.0]

    def test_storage_is_private(self):
        arch = unstructured_archive([ind(2.0, 7)])
        assert not hasattr(arch, "members")
        assert not hasattr(GridArchive(PARAMS), "cells")


class TestGridArchive:
    def test_cell_width(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        width = 2 * PARAMS.extent / 50
        assert width == pytest.approx(0.0377, abs=5e-5)

    def test_center_maps_to_cell_with_lower_corner_at_origin(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        assert cell_of(arch, 0.0, 0.0) == (25, 25)

    def test_upper_corner_maps_to_last_cell(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        e = PARAMS.extent
        assert cell_of(arch, e, e) == (49, 49)
        assert cell_of(arch, -e, -e) == (0, 0)

    @given(st.integers(1, 200), _POINTS)
    def test_cell_index_in_bounds_for_any_finite_point(self, resolution, point):
        arch = GridArchive(params=PARAMS, resolution=resolution)
        x, y = point
        index = cell_of(arch, x, y)
        assert all(0 <= i < resolution for i in index)
        # Where the quotient is finite, the index is the clamped floor of it.
        for i, v in zip(index, (y, x)):
            q = (v - arch.lower) / arch.cell_width
            if math.isfinite(q):
                assert i == min(max(math.floor(q), 0), resolution - 1)

    @given(
        st.one_of(st.integers(1, 200), st.sampled_from([2**63 + 1, 2**64, 3**41])),
        st.lists(_POINTS, min_size=1, max_size=8),
    )
    def test_cell_indices_equal_scalar_reference(self, resolution, points):
        # Past 2**53 the last index resolution - 1 need not be a float.
        arch = GridArchive(params=PARAMS, resolution=resolution)
        cells = arch.cell_indices(np.array(points).T)
        assert cells == [cell_index(arch, x, y) for x, y in points]
        assert all(type(i) is int for cell in cells for i in cell)

    @pytest.mark.parametrize(
        "params, resolution",
        [
            (PARAMS, 0),
            (PARAMS, -3),
            # Dividing by an int past the largest float overflows.
            (PARAMS, 10**400),
            # The width 2e-138 / 2**1000 underflows to 0.0.
            (SpiralParams(a=1e-138 / (30 * math.pi)), 2**1000),
        ],
    )
    def test_resolution_must_leave_cells_a_width(self, params, resolution):
        with pytest.raises(ValueError, match=f"^resolution must be >= 1 and leave cells a "
                                             f"width, got {resolution}$"):
            GridArchive(params=params, resolution=resolution)

    def test_row_is_y_and_col_is_x(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        w = 2 * PARAMS.extent / 50
        row, col = cell_of(arch, -PARAMS.extent + 3.5 * w, -PARAMS.extent)
        assert (row, col) == (0, 3)

    def test_first_insertion(self):
        rng = np.random.default_rng(5)
        arch = GridArchive(params=PARAMS, resolution=50)
        was_new = insert(arch, column(ind(10.0, 0)), rng)
        assert was_new is True
        assert len(arch) == 1

    def test_epsilon_zero_never_replaces(self):
        rng = np.random.default_rng(6)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.0)
        first = at_xy(0.001, 0.001, 0)
        insert(arch, column(first), rng)
        for i in range(1, 50):
            was_new = insert(arch, column(at_xy(0.002, 0.002, i)), rng)
            assert was_new is False
        (occupant,) = arch.individuals()
        assert occupant.id == 0

    def test_epsilon_replacement_rate_is_binomial(self):
        rng = np.random.default_rng(7)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.05)
        insert(arch, column(at_xy(0.001, 0.001, 0)), rng)
        n = 10_000
        replacements = 0
        for i in range(1, n + 1):
            before = arch.individuals()[0].id
            was_new = insert(arch, column(at_xy(0.001, 0.001, i)), rng)
            assert was_new is False
            if arch.individuals()[0].id != before:
                replacements += 1
        assert abs(replacements - n * 0.05) <= 3 * math.sqrt(n * 0.05 * 0.95)

    def test_occupant_count_is_nondecreasing(self):
        rng = np.random.default_rng(8)
        arch = GridArchive(params=PARAMS, resolution=50, epsilon=0.5)
        count = 0
        for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 500)):
            insert(arch, column(ind(float(t), i)), rng)
            assert len(arch) >= count
            count = len(arch)

    def test_occupant_lies_in_its_cell(self):
        rng = np.random.default_rng(9)
        arch = GridArchive(params=PARAMS, resolution=50)
        for i, t in enumerate(rng.uniform(0, PARAMS.t_max, 300)):
            insert(arch, column(ind(float(t), i)), rng)
        assert_occupants_in_their_cells(arch)

    def test_set_etas_skips_retaken_cells(self):
        rng = np.random.default_rng(10)
        arch = GridArchive(params=PARAMS, resolution=50)
        insert(arch, column(ind(10.0, 1)), rng)
        insert(arch, column(ind(40.0, 2)), rng)
        # Column 1 no longer holds id 99, so its occupant keeps its score.
        arch.set_etas(np.array([0, 1]), np.array([1.0, 99.0]), np.array([0.5, 0.7]))
        assert [o.eta for o in arch.individuals()] == [0.5, 0.0]

    def test_out_of_bounds_clamps_to_edge(self):
        arch = GridArchive(params=PARAMS, resolution=50)
        assert cell_of(arch, 99.0, -99.0) == (0, 49)

    def test_occupants_keep_the_novelty_they_were_scored_with(self):
        # An offspring that found a cell and survived carries one score in both places.
        cfg = EvolutionConfig(seed=3)
        arch = GridArchive(params=PARAMS, resolution=50)
        state = init_population(cfg, PARAMS, archive=arch)
        compared = 0
        for g in range(1, 21):
            step_generation(state, cfg, SamplingStrategy(SamplingMode.MIXED_GUIDED))
            survivors = dict(zip(state.columns[ID].tolist(), state.columns[NOVELTY].tolist()))
            for o in arch.individuals():
                if o.birth_generation == g and o.id in survivors:
                    assert o.novelty == survivors[o.id]
                    compared += 1
        assert compared > 0


def assert_occupants_in_their_cells(archive):
    # Each occupied cell maps to the storage column of an occupant lying in it.
    cells = {
        cell_index(archive, o.behavior.x, o.behavior.y): slot
        for slot, o in enumerate(archive.individuals())
    }
    assert cells == archive._slots


def assert_coords_in_sync(archive):
    rows = coords(archive)
    assert rows.shape == (3, len(archive))
    assert np.array_equal(rows, to_columns(archive.individuals())[:3])


class CheckedUnstructured(UnstructuredArchive):
    def update(self, population, rng):
        super().update(population, rng)
        self.updates = getattr(self, "updates", 0) + 1


class CheckedGrid(GridArchive):
    def insert(self, cell, candidate, rng):
        before = coords(self).copy()
        was_new = super().insert(cell, candidate, rng)
        if not was_new and not np.array_equal(coords(self), before):
            self.replacements = getattr(self, "replacements", 0) + 1
        return was_new


class TestCoordsStayInSync:
    """The coordinate rows equal the rows rebuilt from individuals() after every generation."""

    def evolve(self, archive, sampling, generations=300):
        cfg = EvolutionConfig(seed=21)
        state = init_population(cfg, PARAMS, archive=archive)
        for _ in range(generations):
            step_generation(state, cfg, sampling)
            assert_coords_in_sync(archive)
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
        assert_occupants_in_their_cells(arch)

    def test_initial_entries_are_mirrored(self):
        arch = unstructured_archive([ind(0.5 * t, t) for t in range(100)])
        assert_coords_in_sync(arch)

    def test_coords_are_read_only(self):
        arch = unstructured_archive([ind(1.0, 0)])
        with pytest.raises(ValueError):
            coords(arch)[0, 0] = 5.0


def make_pop_and_archive(etas):
    pop = to_columns([ind(1.0 + i, i) for i in range(10)])
    arch = unstructured_archive(
        [ind(20.0 + i, 100 + i, eta=e) for i, e in enumerate(etas)],
        max_size=None,
        additions_per_generation=1,
    )
    return pop, arch


class TestSampleParents:
    def test_population_only_never_touches_archive(self):
        rng = np.random.default_rng(10)
        pop, arch = make_pop_and_archive([0.5, 0.5])
        strat = SamplingStrategy(SamplingMode.POPULATION_ONLY)
        parents, picks = sample_parents(strat, pop, arch, 1000, rng)
        assert parents.shape[1] == 1000 and picks.size == 0
        assert np.all(parents[ID] < 100)

    def test_population_only_forces_zero_archive_fraction(self):
        strat = SamplingStrategy(SamplingMode.POPULATION_ONLY, archive_fraction=0.9)
        assert strat.archive_fraction == 0.0

    def test_mixed_random_draws_floor_rho_n_from_archive(self):
        rng = np.random.default_rng(11)
        pop, arch = make_pop_and_archive([0.0] * 5)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents, picks = sample_parents(strat, pop, arch, 7, rng)  # floor(0.5*7) = 3
        assert parents.shape[1] == 7
        assert np.sum(parents[ID] >= 100) == 3
        assert np.array_equal(parents[ID, :3], 100 + picks)  # archive draws come first

    def test_empty_archive_falls_back_to_population(self):
        rng = np.random.default_rng(12)
        pop = to_columns([ind(1.0 + i, i) for i in range(10)])
        arch = UnstructuredArchive(max_size=None, additions_per_generation=1)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents, _ = sample_parents(strat, pop, arch, 30, rng)
        assert parents.shape[1] == 30
        assert np.all(parents[ID] < 100)

    def test_none_archive_falls_back_to_population(self):
        rng = np.random.default_rng(13)
        pop = to_columns([ind(1.0 + i, i) for i in range(10)])
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=0.5)
        parents, _ = sample_parents(strat, pop, None, 30, rng)
        assert np.all(parents[ID] < 100)

    def test_guided_draw_frequency_tracks_eta(self):
        rng = np.random.default_rng(14)
        pop, arch = make_pop_and_archive([0.9, 0.1])
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws, _ = sample_parents(strat, pop, arch, 10_000, rng)
        freq = np.sum(draws[ID] == 100) / draws.shape[1]
        assert abs(freq - 0.9) <= 0.03

    def test_guided_all_zero_eta_is_uniform(self):
        rng = np.random.default_rng(15)
        pop, arch = make_pop_and_archive([0.0, 0.0, 0.0, 0.0])
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws, _ = sample_parents(strat, pop, arch, 10_000, rng)
        counts = [int(np.sum(draws[ID] == 100 + i)) for i in range(4)]
        assert sum(counts) == 10_000
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_guided_all_equal_eta_matches_random_distribution(self):
        rng = np.random.default_rng(16)
        pop, arch = make_pop_and_archive([0.3] * 8)
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        draws, _ = sample_parents(strat, pop, arch, 10_000, rng)
        counts = [int(np.sum(draws[ID] == 100 + i)) for i in range(8)]
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_guided_draws_equal_generator_choice(self):
        # Eta-weighted draws take Generator.choice's steps: the same picks,
        # and the generator left where choice leaves it.
        pop = to_columns([ind(1.0 + i, i) for i in range(3)])
        strat = SamplingStrategy(SamplingMode.MIXED_GUIDED, archive_fraction=1.0)
        for seed in range(2000):
            draw = np.random.default_rng([seed, 1])
            n_entries, n = int(draw.integers(1, 3001)), int(draw.integers(1, 41))
            etas = draw.random(n_entries) * (draw.random(n_entries) < draw.random())  # some 0
            etas[draw.integers(n_entries)] = draw.random() + 1e-3  # a positive total
            entries = np.zeros((N_ROWS, n_entries))
            entries[ETA], entries[ID] = etas, 100 + np.arange(n_entries)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _, picks = sample_parents(strat, pop, column_archive(entries), n, rng)
            want = ref.choice(n_entries, size=n, p=etas / etas.sum())
            ref.integers(pop.shape[1], size=0)  # sample_parents' population draw
            assert np.array_equal(picks, want), seed
            assert rng.random() == ref.random(), seed

    def test_grid_archive_occupants_are_sampled(self):
        rng = np.random.default_rng(17)
        pop = to_columns([ind(1.0, i) for i in range(5)])
        grid = GridArchive(params=PARAMS, resolution=50)
        insert(grid, column(ind(40.0, 100)), rng)
        strat = SamplingStrategy(SamplingMode.MIXED_RANDOM, archive_fraction=1.0)
        parents, _ = sample_parents(strat, pop, grid, 10, rng)
        assert np.all(parents[ID] == 100)


def new_etas(pop, kids, tau):
    """update_discovery_scores for records: pop's new etas given (child, kappa) pairs."""
    return update_discovery_scores(
        [p.id for p in pop],
        [p.eta for p in pop],
        [child.parent_id for child, _ in kids],
        [kappa for _, kappa in kids],
        tau,
    ).tolist()


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
        out = new_etas(pop, kids, tau=0.5)
        assert out[0] == pytest.approx(0.5 * 0.0 + 0.5 * (2 / 4))
        assert out[1] == pytest.approx(0.125)
        assert out[3] == pytest.approx(0.0)

    def test_tau_one_freezes_scores(self):
        pop = [ind(1.0, 0, eta=0.6), ind(2.0, 1, eta=0.2)]
        kids = [self.offspring(pop[0], 1, 10)]
        assert new_etas(pop, kids, tau=1.0) == [0.6, 0.2]

    def test_pure_decay_when_no_discoveries(self):
        pop = [ind(1.0, 0, eta=0.4)]
        kids = [self.offspring(pop[0], 0, 10)]
        assert new_etas(pop, kids, tau=0.5)[0] == pytest.approx(0.2)

    def test_no_offspring_is_pure_decay(self):
        pop = [ind(1.0, 0, eta=0.8)]
        assert new_etas(pop, [], tau=0.25)[0] == pytest.approx(0.2)

    def test_fresh_shares_sum_to_one(self):
        rng = np.random.default_rng(18)
        pop = [ind(1.0 + i, i) for i in range(6)]
        kids = []
        for j in range(12):
            parent = pop[int(rng.integers(6))]
            kids.append(self.offspring(parent, int(rng.random() < 0.5), 100 + j))
        if not any(k for _, k in kids):
            kids[0] = (kids[0][0], 1)
        out = new_etas(pop, kids, tau=0.0)  # tau=0 leaves only the fresh term
        assert sum(out) == pytest.approx(1.0)

    def test_eta_stays_in_unit_interval(self):
        rng = np.random.default_rng(19)
        pop = [ind(1.0 + i, i, eta=float(rng.random())) for i in range(6)]
        for step in range(50):
            kids = [
                self.offspring(pop[int(rng.integers(6))], int(rng.random() < 0.3), 1000 + step * 20 + j)
                for j in range(10)
            ]
            for p, eta in zip(pop, new_etas(pop, kids, tau=0.5)):
                p.eta = eta
            assert all(0.0 <= p.eta <= 1.0 for p in pop)

    def test_parentless_offspring_raises(self):
        pop = [ind(1.0, 0)]
        orphan = ind(2.0, 10, parent_id=999)
        with pytest.raises(ValueError):
            new_etas(pop, [(orphan, 1)], tau=0.5)
