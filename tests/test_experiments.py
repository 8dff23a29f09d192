"""Configuration parsing, run execution, and artifact files."""

import math
import os

import numpy as np
import pytest

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
    evaluation_count,
    execute_batch,
    parse_config,
    render_svg,
    run_batch,
    run_single,
)
from spiralns.experiments import (
    SUMMARY_COLUMNS,
    read_lineage,
    read_telemetry,
    summary_rows,
    write_run_lineage,
    write_run_telemetry,
)
from spiralns.svgplot import emit_svg

PARAMS = SpiralParams()

SMALL = "scenario = Custom\nevolution.g_max = 10\nruns = 2\n"


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
        from spiralns.experiments import _KEY_PARSERS

        assert keys == set(_KEY_PARSERS) | {"scenario"}


class TestRunSingle:
    def test_row_count_and_monotone_coverage(self):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        assert len(tel.gen_rows) == 10
        fracs = [r.coverage_fraction for r in tel.gen_rows]
        assert fracs == sorted(fracs)
        assert tel.seed == cfg.base_seed

    def test_seed_offsets_by_run_index(self):
        cfg = parse_config(SMALL + "base_seed = 5\n")
        assert run_single(cfg, 3).seed == 8

    def test_determinism(self):
        cfg = parse_config(SMALL)
        a, b = run_single(cfg, 1), run_single(cfg, 1)
        assert a.gen_rows == b.gen_rows
        assert a.lineage == b.lineage
        assert np.array_equal(a.evaluated_ts, b.evaluated_ts)

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
        sizes = [r.archive_size for r in tel.gen_rows]
        assert sizes[0] == 6
        assert max(sizes) == 50

    def test_grid_occupancy_tracked(self):
        cfg = parse_config(
            "scenario = Custom\nevolution.g_max = 20\nruns = 1\narchive.kind = grid\n"
        )
        tel = run_single(cfg, 0)
        occ = [r.grid_occupied for r in tel.gen_rows]
        assert occ == sorted(occ)
        assert occ[-1] > 0
        assert tel.final_archive


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
        _, rows = read_telemetry(path)
        assert rows == tel.gen_rows

    def test_lineage_round_trip(self, tmp_path):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        path = tmp_path / "l.csv"
        write_run_lineage(cfg, tel, path)
        _, entries = read_lineage(path)
        assert entries == tel.lineage

    def test_reader_rejects_wrong_file_kind(self, tmp_path):
        cfg = parse_config(SMALL)
        tel = run_single(cfg, 0)
        path = tmp_path / "t.csv"
        write_run_telemetry(cfg, tel, path)
        with pytest.raises(ValueError):
            read_lineage(path)


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
        from spiralns import invert_arc_length, spiral_point

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
    # Records are built only where the state is read from outside the loop
    # (the final population and archive), never per generation.
    from spiralns import BehaviorPoint, Genotype, Individual, experiments

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
    tel = run_single(config)
    assert len(marks) == 40 and len(set(marks)) == 1
    assert tel.final_population and len(built) > marks[-1]  # the counter is live
