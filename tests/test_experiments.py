"""Configuration parsing, run execution, and artifact files."""

import math
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralns import (
    ArchiveKind,
    ConfigError,
    GenotypeSpace,
    Metric,
    SamplingMode,
    Scenario,
    SpiralParams,
    effective_config_items,
    emit_summary,
    execute_batch,
    init_population,
    parse_config,
    render_svg,
    run_batch,
    run_single,
    step_generation,
)
from spiralns.analysis import CoverageAccumulator
from spiralns.archives import BIRTH_DELTA, NOVELTY, GridArchive
from spiralns.cli import _collect_items, build_parser
from spiralns.evolution import LineageEntry
from spiralns.experiments import (
    CONFIG_KEYS,
    COVERAGE_BINS,
    LINEAGE_DTYPE,
    SCENARIO_PINS,
    SUMMARY_COLUMNS,
    TELEMETRY_DTYPE,
    _build_archive,
    config_from_items,
    read_lineage,
    read_telemetry,
    summary_rows,
    write_run_lineage,
    write_run_telemetry,
)
from spiralns.svgplot import emit_svg

from helpers import scalar_median
from oracles import invert_arc_length, spiral_point

PARAMS = SpiralParams()

SMALL = "scenario = Custom\nevolution.g_max = 10\nruns = 2\n"


def evaluation_count(config) -> int:
    """Individuals evaluated over one run: the initial population plus all offspring."""
    evo = config.evolution
    return evo.pop_size + evo.offspring_size * evo.g_max


def assert_same_bits(column, values):
    """A column read back holds the written values bit for bit (NaN as NaN)."""
    expected = np.array(values, dtype=column.dtype)
    if column.dtype.kind == "f":
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(column), nan)
        column, expected = column[~nan], expected[~nan]
    assert column.tobytes() == expected.tobytes()


class TestParseConfig:
    def test_fig2d_defaults(self):
        cfg = parse_config("scenario = Fig2d\n")
        evo = cfg.evolution
        assert cfg.scenario is Scenario.FIG2D
        assert evo.metric is Metric.GEODESIC
        assert evo.genotype_space is GenotypeSpace.ARC_LENGTH
        assert (evo.pop_size, evo.offspring_size, evo.k) == (30, 30, 10)
        assert evo.sigma == 0.3 and evo.g_max == 1000
        assert cfg.runs == 20
        assert cfg.archive_kind is ArchiveKind.NONE

    def test_fig3g_pins_bounded_archive(self):
        cfg = parse_config("scenario = Fig3g\n")
        assert cfg.archive_kind is ArchiveKind.UNSTRUCTURED_BOUNDED
        assert cfg.archive_max_size == 3000
        assert cfg.evolution.metric is Metric.EUCLIDEAN
        assert cfg.evolution.genotype_space is GenotypeSpace.ANGLE

    def test_fig3j_budget_matches_fig3i(self):
        ci = parse_config("scenario = Fig3i\n")
        cj = parse_config("scenario = Fig3j\n")
        assert evaluation_count(cj) == evaluation_count(ci)
        assert cj.archive_kind is ArchiveKind.NONE
        assert cj.runs == 5
        assert cj.evolution.pop_size > ci.evolution.pop_size

    def test_fig3i_uses_archive_resampling(self):
        cfg = parse_config("scenario = Fig3i\n")
        assert cfg.archive_kind is ArchiveKind.UNSTRUCTURED_BOUNDED
        assert cfg.archive_max_size == 200
        assert cfg.sampling.mode is SamplingMode.MIXED_RANDOM

    def test_grid_scenarios(self):
        for name, mode in (
            ("Fig3h", SamplingMode.POPULATION_ONLY),
            ("Fig3k", SamplingMode.MIXED_RANDOM),
            ("Fig3l", SamplingMode.MIXED_GUIDED),
        ):
            cfg = parse_config(f"scenario = {name}\n")
            assert cfg.archive_kind is ArchiveKind.GRID
            assert cfg.sampling.mode is mode

    def test_negative_sigma_names_the_key(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config("scenario = Custom\nevolution.sigma = -1\n")

    @pytest.mark.parametrize("key", ["spiral.a", "spiral.alpha", "evolution.sigma"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_float_names_the_key(self, key, text):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {text}\n")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="evolution.sugma"):
            parse_config("evolution.sugma = 3\n")

    def test_pin_override_rejected_and_named(self):
        with pytest.raises(ConfigError, match="evolution.metric"):
            parse_config("scenario = Fig2d\nevolution.metric = euclidean\n")

    def test_pin_restated_at_same_value_is_fine(self):
        cfg = parse_config("scenario = Fig2d\nevolution.metric = geodesic\n")
        assert cfg.evolution.metric is Metric.GEODESIC

    def test_unpinned_keys_stay_adjustable_in_scenarios(self):
        cfg = parse_config(
            "scenario = Fig2d\nevolution.init_t0 = 47.1\nruns = 3\nbase_seed = 9\n"
        )
        assert cfg.evolution.init_t0 == 47.1
        assert (cfg.runs, cfg.base_seed) == (3, 9)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("runs = 2\nruns = 3\n")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nscenario = Fig2a\n")
        assert cfg.scenario is Scenario.FIG2A

    def test_guided_sampling_requires_grid(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(
                "scenario = Custom\nsampling.mode = mixed_guided\n"
                "archive.kind = unstructured_unbounded\n"
            )

    def test_bounded_archive_requires_max_size(self):
        with pytest.raises(ConfigError, match="max_size"):
            parse_config("scenario = Custom\narchive.kind = unstructured_bounded\n")

    def test_bad_enum_value_lists_choices(self):
        with pytest.raises(ConfigError, match="euclidean"):
            parse_config("evolution.metric = manhattan\n")

    def test_echo_covers_every_config_key(self):
        cfg = parse_config("scenario = Fig2d\n")
        keys = {k for k, _ in effective_config_items(cfg)}
        assert keys == {row.key for row in CONFIG_KEYS}


@st.composite
def valid_items(draw) -> dict:
    """{key: text} of a valid config: a scenario plus any keys it leaves open."""
    scenario = draw(st.sampled_from(list(Scenario)))
    pins = SCENARIO_PINS.get(scenario, {})
    a = pins.get("spiral.a", draw(st.floats(1e-3, 10.0)))
    alpha = pins.get("spiral.alpha", draw(st.floats(1.0, 100.0)))
    kind = pins.get("archive.kind", draw(st.sampled_from(list(ArchiveKind))))
    modes = [SamplingMode.POPULATION_ONLY]
    if kind is not ArchiveKind.NONE:
        modes.append(SamplingMode.MIXED_RANDOM)
    if kind is ArchiveKind.GRID:
        modes.append(SamplingMode.MIXED_GUIDED)
    max_size = draw(st.integers(1, 500)) if kind is ArchiveKind.UNSTRUCTURED_BOUNDED else None
    items = {
        "scenario": scenario.value,
        "runs": str(draw(st.integers(1, 50))),
        "base_seed": str(draw(st.integers(0, 10**9))),
        "output_dir": draw(st.from_regex(r"[A-Za-z0-9_.][A-Za-z0-9_./-]{0,15}", fullmatch=True)),
        "spiral.a": repr(a),
        "spiral.alpha": repr(alpha),
        "evolution.pop_size": str(draw(st.integers(1, 50))),
        "evolution.offspring_size": str(draw(st.integers(1, 50))),
        "evolution.k": str(draw(st.integers(1, 20))),
        "evolution.sigma": repr(draw(st.floats(1e-3, 5.0))),
        "evolution.g_max": str(draw(st.integers(1, 2000))),
        "evolution.metric": draw(st.sampled_from(list(Metric))).value,
        "evolution.genotype_space": draw(st.sampled_from(list(GenotypeSpace))).value,
        "evolution.init_t0": repr(draw(st.floats(0.0, 1.0)) * SpiralParams(a, alpha).t_max),
        "archive.kind": kind.value,
        "archive.max_size": "none" if max_size is None else str(max_size),
        "archive.additions_per_generation": str(draw(st.integers(1, 10))),
        "archive.resolution": str(draw(st.integers(1, 200))),
        "archive.epsilon": repr(draw(st.floats(0.0, 0.99))),
        "sampling.mode": draw(st.sampled_from(modes)).value,
        "sampling.archive_fraction": repr(draw(st.floats(0.0, 1.0))),
        "sampling.tau": repr(draw(st.floats(0.0, 1.0))),
    }
    return {key: text for key, text in items.items() if key not in pins}


def test_enum_key_help_names_exactly_the_enum_values():
    checked = []
    for row in CONFIG_KEYS:
        try:
            row.parse(row.key, "?")
        except ConfigError as e:
            match = re.search(r"expected one of \{(.*)\}", str(e))
        else:
            match = None
        if match:
            checked.append(row.key)
            assert set(re.split(r", | or ", row.help)) == set(match.group(1).split(", "))
    assert checked == [
        "scenario", "evolution.metric", "evolution.genotype_space", "archive.kind",
        "sampling.mode",
    ]


@pytest.mark.parametrize(
    "items, key",
    [
        ({"archive.kind": "grid", "archive.resolution": "0"}, "archive.resolution"),
        ({"archive.resolution": "-3"}, "archive.resolution"),
        ({"archive.kind": "grid", "archive.epsilon": "1.0"}, "archive.epsilon"),
        ({"archive.epsilon": "-0.1"}, "archive.epsilon"),
        ({"evolution.pop_size": "0"}, "evolution.pop_size"),
        ({"evolution.offspring_size": "0"}, "evolution.offspring_size"),
        ({"evolution.k": "0"}, "evolution.k"),
        ({"evolution.g_max": "0"}, "evolution.g_max"),
        ({"evolution.sigma": "-1"}, "evolution.sigma"),
        ({"evolution.init_t0": "-1"}, "evolution.init_t0"),
        ({"sampling.tau": "2"}, "sampling.tau"),
        (
            {"archive.kind": "grid", "sampling.mode": "mixed_random",
             "sampling.archive_fraction": "1.5"},
            "sampling.archive_fraction",
        ),
        ({"spiral.a": "-1"}, "spiral.a"),
        ({"spiral.alpha": "0"}, "spiral.alpha"),
    ],
)
def test_grid_settings_checked_for_every_archive_kind(items, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} "):
        config_from_items(items)


class TestConfigRoundTrip:
    """effective_config_items names every setting, as text and as CLI flags."""

    @given(valid_items())
    def test_items_rebuild_the_config(self, items):
        cfg = config_from_items(items)
        assert config_from_items(dict(effective_config_items(cfg))) == cfg

    @given(valid_items())
    def test_flags_rebuild_the_config(self, items):
        cfg = config_from_items(items)
        flags = {row.key: row.flag for row in CONFIG_KEYS}
        argv = ["batch", *(f"{flags[k]}={v}" for k, v in effective_config_items(cfg))]
        assert config_from_items(_collect_items(build_parser().parse_args(argv))) == cfg


class TestRunSingle:
    def test_row_count_and_monotone_coverage(self):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        assert tel.telemetry["generation"].tolist() == list(range(1, 11))
        fracs = tel.telemetry["coverage_fraction"].tolist()
        assert fracs == sorted(fracs)
        assert tel.seed == cfg.base_seed

    def test_median_delta_is_median_birth_delta_of_survivors(self):
        # H: each generation's median birth_delta over the surviving
        # population, roots excluded (0.0 while only roots survive).
        cfg = parse_config("scenario = Custom\nevolution.g_max = 30\nruns = 1\nbase_seed = 4\n")
        tel = run_single(cfg, 0)
        evo = replace(cfg.evolution, seed=4)
        state = init_population(evo, cfg.spiral)
        for row in tel.telemetry:
            step_generation(state, evo, cfg.sampling)
            deltas = [i.birth_delta for i in state.population if i.parent_id is not None]
            assert row["median_delta"] == (float(np.median(deltas)) if deltas else 0.0)

    def test_seed_offsets_by_run_index(self):
        cfg = parse_config(SMALL + "base_seed = 5\n")
        assert run_single(cfg, 3).seed == 8

    def test_determinism(self):
        cfg = parse_config(SMALL)
        a, b = run_single(cfg, 1), run_single(cfg, 1)
        assert a.telemetry.tobytes() == b.telemetry.tobytes()
        assert a.lineage.tobytes() == b.lineage.tobytes()
        assert a.evaluated_ts.tobytes() == b.evaluated_ts.tobytes()

    def test_evaluated_count_matches_budget(self):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        assert len(tel.evaluated_ts) == evaluation_count(cfg)

    def test_archive_size_tracked(self):
        cfg = parse_config(
            "scenario = Custom\nevolution.g_max = 20\nruns = 1\n"
            "archive.kind = unstructured_bounded\narchive.max_size = 50\n"
        )
        tel = run_single(cfg, 0)
        sizes = tel.telemetry["archive_size"].tolist()
        assert sizes[0] == 6
        assert max(sizes) == 50

    def test_grid_occupancy_tracked(self):
        cfg = parse_config(
            "scenario = Custom\nevolution.g_max = 20\nruns = 1\narchive.kind = grid\n"
        )
        tel = run_single(cfg, 0)
        occ = tel.telemetry["grid_occupied"].tolist()
        assert occ == sorted(occ)
        assert occ[-1] > 0
        assert tel.final_archive


def run_state(cfg, run_index=0):
    """The evolution settings and initial state of one run, as run_single sets them up."""
    evo = replace(cfg.evolution, seed=cfg.base_seed + run_index)
    return evo, init_population(evo, cfg.spiral, archive=_build_archive(cfg))


def per_generation_telemetry(cfg) -> np.ndarray:
    """Run 0's telemetry computed generation by generation: coverage from a
    CoverageAccumulator fed each generation's children, H from the scalar
    median of the survivors' non-NaN birth deltas."""
    evo, state = run_state(cfg)
    acc = CoverageAccumulator(cfg.spiral, COVERAGE_BINS)
    acc.add_parameters(np.full(evo.pop_size, evo.init_t0))
    rows = []
    for g in range(1, evo.g_max + 1):
        seen = len(state.lineage_log)
        step_generation(state, evo, cfg.sampling)
        acc.add_parameters([e.child_t for e in state.lineage_log[seen:]])
        deltas = state.columns[BIRTH_DELTA]
        size = len(state.archive) if state.archive is not None else 0
        grid = size if isinstance(state.archive, GridArchive) else 0
        H = scalar_median(deltas[~np.isnan(deltas)].tolist())
        rows.append((g, acc.fraction, H, size, grid, state.columns[NOVELTY].max()))
    return np.array(rows, TELEMETRY_DTYPE)


ARCHIVE_SETTINGS = {
    "none": "",
    "unbounded": "archive.kind = unstructured_unbounded\n",
    "bounded": "archive.kind = unstructured_bounded\narchive.max_size = 9\n",
    "grid_guided": "archive.kind = grid\nsampling.mode = mixed_guided\n",
}


def small_run(archive, pop_size=30, offspring_size=30, g_max=12, seed=3):
    return parse_config(
        f"scenario = Custom\nruns = 1\nbase_seed = {seed}\nevolution.g_max = {g_max}\n"
        f"evolution.pop_size = {pop_size}\nevolution.offspring_size = {offspring_size}\n"
        + ARCHIVE_SETTINGS[archive]
    )


class TestRunTables:
    @pytest.mark.parametrize("g_max", [1, 12])
    @pytest.mark.parametrize("pop_size", [1, 2, 31])
    @pytest.mark.parametrize("archive", sorted(ARCHIVE_SETTINGS))
    def test_telemetry_matches_the_per_generation_oracle(self, archive, pop_size, g_max):
        # 7 offspring: populations of 31 keep roots (NaN deltas) and see
        # both odd and even counts of finite deltas.
        cfg = small_run(archive, pop_size, offspring_size=7, g_max=g_max)
        got = run_single(cfg, 0).telemetry
        want = per_generation_telemetry(cfg)
        assert got.dtype == want.dtype and len(got) == g_max
        for name in TELEMETRY_DTYPE.names:
            assert np.array_equal(got[name].view(np.int64), want[name].view(np.int64)), name

    def test_oracle_cases_cover_odd_even_and_root_survivors(self):
        # The parametrised cases above see both parities of the count of
        # finite deltas, and rows mixing roots and children.  (A child always
        # survives generation 1, so no row is all roots; test_analysis checks
        # that case of the median.)
        parities, mixed = set(), False
        for archive in ARCHIVE_SETTINGS:
            for pop_size in (1, 2, 31):
                cfg = small_run(archive, pop_size, offspring_size=7)
                evo, state = run_state(cfg)
                for _ in range(evo.g_max):
                    step_generation(state, evo, cfg.sampling)
                    finite = np.count_nonzero(~np.isnan(state.columns[BIRTH_DELTA]))
                    parities.add(int(finite % 2))
                    mixed |= 0 < finite < pop_size
        assert parities == {0, 1} and mixed

    def test_bounded_archive_case_evicts(self):
        # Six additions a generation against a bound of 9.
        sizes = run_single(small_run("bounded"), 0).telemetry["archive_size"]
        assert sizes.tolist() == [6] + [9] * 11

    @pytest.mark.parametrize("archive", sorted(ARCHIVE_SETTINGS))
    def test_lineage_log_matches_the_written_lineage(self, archive, tmp_path):
        cfg = small_run(archive, g_max=8)
        path = tmp_path / "lineage.csv"
        write_run_lineage(cfg, run_single(cfg, 0), path)
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        cells = [line.split(",") for line in lines[1:]]

        evo, state = run_state(cfg)
        for g in range(1, evo.g_max + 1):
            seen = len(state.lineage_log)
            step_generation(state, evo, cfg.sampling)
            assert len(state.lineage_log) == seen + evo.offspring_size
            born = state.lineage_log[seen:]
            assert all(type(e) is LineageEntry for e in born)
            assert all(type(i) is int for e in born for i in e[:3])
            assert all(type(t) is float for e in born for t in e[3:])
            written = [(str(e.generation), str(e.child_id), str(e.parent_id),
                        repr(e.child_t), repr(e.parent_t)) for e in born]
            assert written == [tuple(row) for row in cells if row[0] == str(g)]

    @pytest.mark.parametrize("archive", sorted(ARCHIVE_SETTINGS))
    def test_run_builds_its_tables_once(self, archive, monkeypatch):
        # No lineage record is built, and coverage and H are computed by one
        # call each per run, not one per generation.
        from spiralns import analysis, evolution, experiments

        calls = []

        class CountedEntry(LineageEntry):
            def __new__(cls, *fields):
                calls.append("record")
                return super().__new__(cls, *fields)

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        monkeypatch.setattr(evolution, "LineageEntry", CountedEntry)
        counted(analysis.CoverageAccumulator, "add_parameters")
        counted(experiments, "medians")
        counted(experiments, "coverage_bins")
        cfg = small_run(archive)
        run_single(cfg, 0)
        assert sorted(calls) == ["coverage_bins", "medians"]

        evo, state = run_state(cfg)  # the record counter is live
        step_generation(state, evo, cfg.sampling)
        assert len(state.lineage_log[:]) == calls.count("record") == evo.offspring_size

    @pytest.mark.parametrize("archive", sorted(ARCHIVE_SETTINGS))
    def test_log_table_is_the_run_lineage(self, archive):
        cfg = small_run(archive, g_max=8)
        evo, state = run_state(cfg)
        for _ in range(evo.g_max):
            step_generation(state, evo, cfg.sampling)
        table, lineage = state.lineage_log.table(), run_single(cfg, 0).lineage
        assert table.dtype == lineage.dtype == LINEAGE_DTYPE
        assert len(table) == evo.g_max * evo.offspring_size
        assert table.tobytes() == lineage.tobytes()
        table["child_id"] = -1  # a fresh array each call
        assert state.lineage_log.table().tobytes() == lineage.tobytes()

    def test_reads_cost_only_their_rows_and_growth_doubles(self):
        # A 1,000-generation run read the way the benchmark's replay reads it:
        # each generation's new rows sliced off after each step.
        cfg = small_run("none", pop_size=4, offspring_size=3, g_max=1000)
        evo, state = run_state(cfg)
        log = state.lineage_log
        store, initial, reallocations, born = log._data, len(log._data), 0, []
        for _ in range(evo.g_max):
            seen = len(log)
            step_generation(state, evo, cfg.sampling)
            reallocations += log._data is not store
            store = log._data
            rows = log[seen:]
            assert len(rows) == evo.offspring_size
            assert rows == [log[i] for i in range(seen, len(log))]
            born.append(rows)
        assert log._data is store  # reads never copy the store
        assert reallocations <= math.ceil(math.log2(len(log) / initial)) + 1

        # Read again after the run: the same rows, in the same order.
        n = evo.offspring_size
        assert [log[g * n : (g + 1) * n] for g in range(evo.g_max)] == born
        table = log.table()  # a fresh copy of the rows
        table["child_t"] = -1.0
        assert log[:] == [entry for rows in born for entry in rows]
        assert log._data is store

    def test_fresh_log_is_empty(self):
        _, state = run_state(small_run("none"))
        log = state.lineage_log
        assert len(log) == 0 and log[:] == [] and list(log) == []
        table = log.table()
        assert table.dtype == LINEAGE_DTYPE and table.shape == (0,)

    def test_lineage_log_indexes_like_a_list(self):
        cfg = small_run("none", pop_size=5, offspring_size=3, g_max=4)
        evo, state = run_state(cfg)
        for _ in range(evo.g_max):
            step_generation(state, evo, cfg.sampling)
        log = state.lineage_log
        records = [log[i] for i in range(len(log))]
        assert list(log) == records and log[-1] == records[-1]
        bounds = [None, -13, -12, -5, -1, 0, 1, 2, 3, 4, 7, 11, 12, 13]
        for start in bounds:
            for stop in bounds:
                for step in (None, 1, 2, 5, -1, -3):
                    assert log[start:stop:step] == records[start:stop:step]
        with pytest.raises(IndexError):
            log[len(log)]


class TestBatchArtifacts:
    def test_run_batch_writes_expected_files(self, tmp_path):
        out = tmp_path / "batch"
        cfg = parse_config(SMALL + f"output_dir = {out}\n")
        batch = run_batch(cfg)
        assert len(batch.telemetries) == 2
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "cumulative.svg",
            "run_000_lineage.csv",
            "run_000_telemetry.csv",
            "run_001_lineage.csv",
            "run_001_telemetry.csv",
            "summary.csv",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        texts = []
        for name in ("one", "two"):
            out = tmp_path / name
            run_batch(parse_config(SMALL + f"output_dir = {out}\n"))
            blob = {}
            for p in sorted(out.iterdir()):
                # the output_dir header line differs by construction; drop it
                raw = b"\n".join(
                    ln
                    for ln in p.read_bytes().split(b"\n")
                    if not ln.startswith(b"# output_dir")
                    and not ln.startswith(b"<!-- output_dir")
                )
                blob[p.name] = raw
            texts.append(blob)
        assert texts[0] == texts[1]

    def test_unwritable_output_dir_fails_before_running(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = parse_config(SMALL + f"output_dir = {blocker / 'sub'}\n")
        with pytest.raises(OSError):
            run_batch(cfg)

    def test_headers_echo_full_config(self, tmp_path):
        out = tmp_path / "echo"
        cfg = parse_config(SMALL + f"output_dir = {out}\n")
        run_batch(cfg)
        header, rows = read_telemetry(out / "run_000_telemetry.csv")
        for key, value in effective_config_items(cfg):
            assert header[key] == value
        assert header["run_index"] == "0"
        assert len(rows) == 10

    def test_telemetry_round_trip(self, tmp_path):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        path = tmp_path / "t.csv"
        write_run_telemetry(cfg, tel, path)
        _, columns = read_telemetry(path)
        assert columns.dtype == tel.telemetry.dtype
        assert columns.tobytes() == tel.telemetry.tobytes()

    def test_lineage_round_trip(self, tmp_path):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        path = tmp_path / "l.csv"
        write_run_lineage(cfg, tel, path)
        _, columns = read_lineage(path)
        assert columns.dtype == tel.lineage.dtype
        assert columns.tobytes() == tel.lineage.tobytes()

    def test_lineage_table_follows_the_log_records(self):
        # LineageEntry is built from LINEAGE_DTYPE's field names, so a log
        # record and a row of the lineage table hold the same fields in order.
        assert LineageEntry._fields == LINEAGE_DTYPE.names

    def test_reader_rejects_wrong_file_kind(self, tmp_path):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        path = tmp_path / "t.csv"
        write_run_telemetry(cfg, tel, path)
        with pytest.raises(ValueError):
            read_lineage(path)

    @pytest.mark.parametrize(
        "reader, names",
        [(read_lineage, list(LINEAGE_DTYPE.names)), (read_telemetry, list(TELEMETRY_DTYPE.names))],
    )
    def test_header_only_file_reads_zero_rows_without_warning(self, tmp_path, reader, names):
        path = tmp_path / "h.csv"
        path.write_text("# spiralns 0.1.0\n# seed = 3\n" + ",".join(names) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            header, columns = reader(path)
        assert header == {"seed": "3"}
        assert len(columns) == 0
        assert list(columns.dtype.names) == names


def _reread(tmp_dir, reader, names, row):
    path = tmp_dir / "row.csv"
    path.write_text("# spiralns 0.1.0\n" + ",".join(names) + "\n" + row + "\n")
    return reader(path)[1]


class TestReaderFloatRoundTrip:
    """repr(x) written into a CSV body reads back as the same double."""

    @settings(deadline=None)
    @given(st.floats(allow_nan=False))
    def test_lineage(self, tmp_path_factory, x):
        row = f"1,2,3,{x!r},{x!r}"
        columns = _reread(tmp_path_factory.mktemp("l"), read_lineage, LINEAGE_DTYPE.names, row)
        assert_same_bits(columns["child_t"], [x])
        assert_same_bits(columns["parent_t"], [x])

    @settings(deadline=None)
    @given(st.floats())
    def test_telemetry(self, tmp_path_factory, x):
        row = f"1,{x!r},{x!r},0,0,{x!r}"
        columns = _reread(tmp_path_factory.mktemp("t"), read_telemetry, TELEMETRY_DTYPE.names, row)
        for name in ("coverage_fraction", "median_delta", "max_novelty"):
            assert_same_bits(columns[name], [x])


class TestSummary:
    def test_single_run_has_data_plus_aggregate(self, tmp_path):
        cfg = parse_config("scenario = Custom\nevolution.g_max = 25\nruns = 1\n")
        batch = execute_batch(cfg)
        rows = emit_summary(batch, tmp_path / "s.csv")
        assert len(rows) == 2
        assert rows[-1][0] == "aggregate"
        assert len(rows[0]) == len(SUMMARY_COLUMNS)

    def test_aggregate_of_identical_runs_has_zero_spread(self):
        cfg = parse_config("scenario = Custom\nevolution.g_max = 10\nruns = 1\n")
        batch = execute_batch(cfg)
        batch.telemetries = batch.telemetries * 3  # same run three times
        agg = summary_rows(batch)[-1]
        mean, mn, mx = float(agg[4]), float(agg[5]), float(agg[6])
        assert mean == mn == mx

    def test_short_runs_skip_fit_columns(self):
        cfg = parse_config("scenario = Custom\nevolution.g_max = 10\nruns = 1\n")
        rows = summary_rows(execute_batch(cfg))
        assert rows[0][8:14] == [""] * 6

    def test_fit_columns_present_for_long_runs(self):
        cfg = parse_config("scenario = Custom\nevolution.g_max = 30\nruns = 1\n")
        rows = summary_rows(execute_batch(cfg))
        assert all(cell != "" for cell in rows[0][8:14])


class TestSvg:
    def test_empty_overlay_has_spiral_and_start_only(self):
        doc = render_svg([], PARAMS, init_t0=0.0)
        assert doc.count("<circle") == 1  # just the start marker
        assert doc.count("<polyline") == 1

    def test_origin_behavior_lands_at_canvas_center(self):
        doc = render_svg([0.0], PARAMS, init_t0=10.0)
        assert '<circle cx="360.00" cy="360.00" r="1.6"' in doc

    def test_full_coverage_dots_span_every_decile(self):
        ts = [
            invert_arc_length((i + 0.5) * PARAMS.s_max / 10, PARAMS) for i in range(10)
        ]
        doc = render_svg(ts, PARAMS, init_t0=0.0)
        from spiralns.svgplot import MARGIN, SIZE

        extent = PARAMS.extent
        scale = (SIZE - 2 * MARGIN) / (2 * extent)
        for t in ts:
            p = spiral_point(t, PARAMS)
            px = MARGIN + (p.x + extent) * scale
            py = MARGIN + (extent - p.y) * scale
            assert f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.6"' in doc

    def test_byte_determinism(self, tmp_path):
        ts = np.linspace(0, PARAMS.t_max, 500)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(ts, PARAMS, 15.0, a, [("runs", "20")])
        emit_svg(ts, PARAMS, 15.0, b, [("runs", "20")])
        assert a.read_bytes() == b.read_bytes()

    def test_dot_count_is_capped(self):
        ts = np.linspace(0, PARAMS.t_max, 50_001)
        doc = render_svg(ts, PARAMS, 0.0)
        assert doc.count('r="1.6"') <= 20_000

    def test_header_comments_cannot_break_the_document(self):
        doc = render_svg([], PARAMS, 0.0, [("output_dir", "runs--today")])
        assert "--" not in doc.split("<!--", 1)[1].split("-->", 1)[0]


@pytest.mark.parametrize(
    "items",
    [
        {"archive.kind": "none", "evolution.genotype_space": "arc_length"},
        {"archive.kind": "unstructured_unbounded"},
        {
            "archive.kind": "unstructured_bounded",
            "archive.max_size": "50",
            "sampling.mode": "mixed_random",
        },
        {"archive.kind": "grid", "sampling.mode": "mixed_guided"},
    ],
)
def test_generation_loop_builds_no_records(items, monkeypatch):
    # Records are built only where the state is read from outside the loop,
    # never per generation.
    from spiralns import BehaviorPoint, Genotype, Individual, experiments
    from spiralns.archives import N_ROWS, to_records

    built = []
    for cls in (Individual, Genotype, BehaviorPoint):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    marks = []
    step = experiments.step_generation

    def marked(*args, **kwargs):
        marks.append(len(built))
        step(*args, **kwargs)
        marks.append(len(built))

    monkeypatch.setattr(experiments, "step_generation", marked)
    config = experiments.config_from_items({**items, "evolution.g_max": "20", "runs": "1"})
    run_single(config)
    assert len(marks) == 40 and len(set(marks)) == 1
    before = len(built)
    to_records(np.zeros((N_ROWS, 1)))
    assert len(built) == before + 3  # the counter is live


@pytest.mark.parametrize("kind", ["unstructured_bounded", "grid"])
def test_a_run_builds_no_records(kind, monkeypatch):
    # The final archive's records are built on each read of final_archive,
    # not by the run.
    from spiralns import archives

    calls = []

    def counted(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(name) or original(*a))

    counted(archives, "to_records")
    counted(archives.UnstructuredArchive, "individuals")
    counted(archives.GridArchive, "individuals")
    items = {"archive.kind": kind, "evolution.g_max": "20", "runs": "1"}
    if kind == "unstructured_bounded":
        items["archive.max_size"] = "50"
    tel = run_single(config_from_items(items))
    assert calls == []
    first, second = tel.final_archive, tel.final_archive
    assert first is not second and first == second
    assert len(first) == len(tel.archive) > 0
    assert calls == ["individuals", "to_records"] * 2


def test_a_run_without_archive_has_an_empty_final_archive():
    tel = run_single(config_from_items({"evolution.g_max": "3", "runs": "1"}))
    assert tel.archive is None and tel.final_archive == []
