"""Command line entry points, exercised through main()."""

import io
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiralns import cli
from spiralns.archives import SamplingMode
from spiralns.cli import main
from spiralns.evolution import Metric
from spiralns.experiments import CONFIG_KEYS, MAX_BATCH_BYTES, ArchiveKind, Scenario
from spiralns.spiral import GenotypeSpace

FAST = ["--scenario", "Custom", "--g-max", "10"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args, env=(), **kwargs):
    """Run a fresh interpreter that imports this checkout's package, with
    the given variables added to the environment."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, **dict(env)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    # Every command pays the package import; scipy's optimizer and k-d tree
    # are loaded only by the calls that need them.
    probe = (
        "import sys, spiralns.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules))"
    )
    out = run_python(["-c", probe], check=True)
    assert out.stdout.strip() == "[]"


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "one"
        code, stdout, _ = run_cli(
            ["run", *FAST, "--seed", "3", "--out", str(out)], capsys
        )
        assert code == 0
        assert "# base_seed = 3" in stdout
        assert "# evolution.g_max = 10" in stdout
        assert "final coverage" in stdout
        assert (out / "run_000_telemetry.csv").exists()
        assert (out / "summary.csv").exists()

    def test_echo_lists_every_default(self, tmp_path, capsys):
        _, stdout, _ = run_cli(["run", *FAST, "--out", str(tmp_path / "d")], capsys)
        for key in (
            "# scenario",
            "# runs",
            "# base_seed",
            "# output_dir",
            "# evolution.init_t0",
            "# archive.kind",
            "# sampling.tau",
        ):
            assert key in stdout

    def test_run_refuses_multiple_runs(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["run", *FAST, "--runs", "4", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "runs" in stderr

    def test_runs_given_as_01_is_one_run(self, tmp_path, capsys):
        out = tmp_path / "r"
        code, stdout, _ = run_cli(["run", *FAST, "--runs", "01", "--out", str(out)], capsys)
        assert code == 0
        assert "# runs = 1" in stdout
        assert (out / "run_000_telemetry.csv").exists()
        assert not (out / "run_001_telemetry.csv").exists()

    def test_arc_length_spiral_too_large_to_invert_exits_2(self, tmp_path, capsys):
        out = tmp_path / "big"
        code, _, stderr = run_cli(
            ["run", *FAST, "--spiral-a", "1e6", "--genotype-space", "arc_length",
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stderr.startswith("error: spiral.a/spiral.alpha")
        assert not out.exists()

    def test_negative_seed_exits_2_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, stderr = run_cli(["run", *FAST, "--seed", "-1", "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith("error: base_seed must be >= 0, got -1")
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "scenario = Custom\nevolution.g_max = 10\nevolution.sigma = 0.5\n"
        )
        code, stdout, _ = run_cli(
            [
                "run",
                "--config",
                str(cfg),
                "--sigma",
                "0.7",
                "--out",
                str(tmp_path / "o"),
            ],
            capsys,
        )
        assert code == 0
        assert "# evolution.sigma = 0.7" in stdout


class TestBatch:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "b"
        code, stdout, _ = run_cli(
            ["batch", *FAST, "--runs", "3", "--out", str(out)], capsys
        )
        assert code == 0
        assert stdout.count("final coverage") == 3
        assert "cumulative coverage" in stdout
        assert (out / "run_002_lineage.csv").exists()

    def test_smaller_batch_removes_the_earlier_batchs_extra_runs(self, tmp_path, capsys):
        out = tmp_path / "d"
        argv = ["batch", *FAST, "--g-max", "25", "--out", str(out)]
        assert run_cli([*argv, "--runs", "3"], capsys)[0] == 0
        # Files the batch does not write stay, run-like names included.
        kept = ["notes.txt", "run_001_notes.csv", "run_5_lineage.csv", "run_0002_lineage.csv"]
        for name in kept:
            (out / name).write_text("x\n")
        (out / "run_004_telemetry.csv").mkdir()
        assert run_cli([*argv, "--runs", "1"], capsys)[0] == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([
            *kept, "cumulative.svg", "run_000_lineage.csv", "run_000_telemetry.csv",
            "run_004_telemetry.csv", "summary.csv",
        ])
        os.rmdir(out / "run_004_telemetry.csv")
        code, stdout, _ = run_cli(["analyze", str(out), "--out", str(tmp_path / "a.csv")],
                                  capsys)
        assert code == 0 and stdout.count(": coverage ") == 1

    @pytest.mark.parametrize(
        "sub, reason", [("", "File exists"), ("sub", "Not a directory")]
    )
    def test_output_dir_that_cannot_be_made_exits_2_naming_it(self, tmp_path, capsys, sub, reason):
        afile = tmp_path / "afile"
        afile.write_text("x\n")
        out = str(afile / sub) if sub else str(afile)
        code, _, stderr = run_cli(["batch", "--runs", "1", "--g-max", "5", "--out", out], capsys)
        assert code == 2
        assert stderr == f"error: output_dir: cannot make {out!r}: {reason}\n"
        assert afile.read_text() == "x\n"

    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_output_dir_with_a_line_break_exits_2(self, brk, tmp_path, capsys):
        # Each artifact's header holds output_dir on one line, which the readers split on.
        out = str(tmp_path / f"nl{brk}out")
        code, _, stderr = run_cli(["batch", "--runs", "1", "--g-max", "5", "--out", out], capsys)
        assert code == 2
        assert stderr == f"error: output_dir must not hold a line break, got {out!r}\n"
        assert os.listdir(tmp_path) == []

    def test_files_are_utf8_under_any_locale(self, tmp_path):
        # An ASCII locale decodes the non-ASCII --out with surrogate escapes;
        # the files are still UTF-8 and name the directory in the bytes given.
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        files = {}
        for name, env in (("c", ascii_locale), ("utf8", {"PYTHONUTF8": "1"})):
            cwd = tmp_path / name
            cwd.mkdir()
            for args in (["batch", "--g-max", "25", "--runs", "2", "--out", "résumé_x"],
                         ["analyze", "résumé_x", "--out", "résumé_x/analysis.csv"],
                         ["plot", "résumé_x", "--out", "résumé_x/panel.svg"]):
                done = run_python(["-m", "spiralns.cli", *args], env=env, cwd=cwd)
                assert (done.returncode, done.stderr) == (0, "")
            files[name] = {p.name: p.read_bytes() for p in (cwd / "résumé_x").iterdir()}
        assert len(files["c"]) == 8 and files["c"] == files["utf8"]
        assert b"# output_dir = r\xc3\xa9sum\xc3\xa9_x\n" in files["c"]["summary.csv"]

    def test_config_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"runs = 1\n# \xff\n")
        out = tmp_path / "o"
        code, _, stderr = run_cli(["batch", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {cfg}: 'utf-8' codec can't decode byte 0xff ")
        assert not out.exists()

    def test_config_file_with_a_byte_order_mark(self, tmp_path, capsys):
        text = b"evolution.g_max = 25\nruns = 2\n"
        out = tmp_path / "o"
        seen = []
        for data in (text, b"\xef\xbb\xbf" + text):
            cfg = tmp_path / "exp.cfg"
            cfg.write_bytes(data)
            code, stdout, stderr = run_cli(["batch", "--config", str(cfg), "--out", str(out)],
                                           capsys)
            assert (code, stderr) == (0, "")
            seen.append((stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(seen[1][1]) == 6 and seen[1] == seen[0]

    def test_bad_key_value_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["batch", "--scenario", "Custom", "--sigma", "-1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "sigma" in stderr

    def test_non_finite_spiral_a_exits_2(self, tmp_path, capsys):
        out = tmp_path / "nan"
        code, _, stderr = run_cli(
            ["batch", *FAST, "--spiral-a", "nan", "--out", str(out)], capsys
        )
        assert code == 2
        assert stderr.startswith("error: spiral.a")
        assert not out.exists()

    @pytest.mark.parametrize("a", ["1e-300", "1e160"])
    def test_spiral_whose_squared_distances_leave_the_floats_exits_2(self, a, tmp_path, capsys):
        # Unchecked, these ran with every novelty 0.0 (1e-300) or inf (1e160).
        out = tmp_path / "out"
        code, _, stderr = run_cli(["batch", *FAST, "--spiral-a", a, "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith("error: spiral.a: squared distances")
        assert not out.exists()

    def test_duplicate_key_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("scenario = Custom\nevolution.k = 5\nevolution.k = 7\n")
        code, _, stderr = run_cli(
            ["batch", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 2
        assert "duplicate key evolution.k" in stderr
        assert f"{cfg}:3" in stderr

    def test_pinned_override_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["batch", "--scenario", "Fig2d", "--metric", "euclidean",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "evolution.metric" in stderr


    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--archive-kind", "grid", "--grid-resolution", "0"], "archive.resolution"),
            (["--grid-resolution", "0"], "archive.resolution"),
            (["--archive-kind", "grid", "--grid-epsilon", "1"], "archive.epsilon"),
            (["--grid-epsilon", "-0.5"], "archive.epsilon"),
        ],
    )
    def test_bad_grid_setting_exits_2_before_writing(self, flags, key, tmp_path, capsys):
        out = tmp_path / "D"
        code, stdout, stderr = run_cli(["batch", *FAST, *flags, "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {key} ")
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--archive-kind", "unstructured_bounded", "--archive-max-size", "0"],
             "archive.max_size"),
            (["--archive-additions", "0"], "archive.additions_per_generation"),
        ],
    )
    def test_archive_rules_are_the_constructors(self, flags, key, tmp_path, capsys):
        # The archives state these rules; the config gate builds both to apply them.
        out = tmp_path / "D"
        code, _, stderr = run_cli(["batch", *FAST, *flags, "--out", str(out)], capsys)
        assert code == 2
        assert stderr == f"error: {key} must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["none", "grid"])
    def test_grid_resolution_past_the_floats_exits_2(self, kind, tmp_path, capsys):
        # Unchecked, the cell width's division raised OverflowError: a traceback.
        out = tmp_path / "D"
        code, _, stderr = run_cli(
            ["batch", *FAST, "--archive-kind", kind, "--grid-resolution", str(10**400),
             "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert stderr.startswith("error: archive.resolution must be >= 1 and leave cells a width")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, keys",
        [
            # Unchecked, each of these ended in a traceback (an _ArrayMemoryError of
            # up to 218 TiB) or in "error: Maximum allowed dimension exceeded", and
            # left an empty output directory behind.
            (["--g-max", "1000000000000"], "evolution.pop_size/evolution.g_max"),
            (["--pop-size", "10000000000000000000"], "evolution.pop_size/evolution.g_max"),
            (["--pop-size", "100000000000000"], "evolution.pop_size/evolution.g_max"),
            (["--offspring-size", "100000000000000"],
             "evolution.pop_size/evolution.offspring_size"),
            (["--runs", "100000"], "runs"),
        ],
    )
    def test_batch_over_the_memory_budget_exits_2_naming_the_keys(
        self, flags, keys, tmp_path, capsys
    ):
        out = tmp_path / "D"
        code, stdout, stderr = run_cli(
            ["batch", "--runs", "1", *flags, "--out", str(out)], capsys
        )
        assert code == 2
        assert stderr.startswith(f"error: {keys}: the batch needs about ")
        assert stderr.endswith(f"over the {MAX_BATCH_BYTES}-byte budget\n")
        assert stdout == ""
        assert not out.exists()

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # The budget is an estimate: a host may still refuse a smaller allocation.
        def refuse(config):
            raise MemoryError

        monkeypatch.setattr(cli, "run_batch", refuse)
        code, _, stderr = run_cli(["batch", *FAST, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert stderr == "error: out of memory\n"

    def test_huge_spiral_fits_without_a_warning(self, tmp_path):
        # Median deltas near 1e60 overflow inside an unscaled fit.
        out = tmp_path / "big"
        done = run_python(["-W", "error", "-m", "spiralns.cli", "batch", "--g-max", "40",
                           "--runs", "1", "--spiral-a", "1e60", "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        lines = (out / "summary.csv").read_text().splitlines()
        header, run = [line.split(",") for line in lines if not line.startswith("#")][:2]
        fits = [float(cell) for key, cell in zip(header, run) if key.startswith("fit_")]
        assert len(fits) == 6 and all(map(math.isfinite, fits))


@pytest.fixture
def batch_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "batch"
    assert main(["batch", *FAST, "--g-max", "25", "--runs", "2",
                 "--out", str(out)]) == 0
    return out


def corrupt_last_cell(src, dst):
    """Copy a CSV with 'x' in place of the last cell of its last row."""
    lines = src.read_text().splitlines(keepends=True)
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",x\n"
    dst.write_text("".join(lines))


class TestAnalyze:
    def test_directory_input(self, batch_dir, tmp_path, capsys):
        out = tmp_path / "analysis.csv"
        code, stdout, _ = run_cli(
            ["analyze", str(batch_dir), "--out", str(out)], capsys
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("file,generations,final_coverage")
        assert len(lines) == 4  # version comment + columns + two runs
        assert "wrote" in stdout

    def test_single_file_input(self, batch_dir, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run_cli(
            ["analyze", str(batch_dir / "run_000_telemetry.csv"), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_empty_directory_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, stderr = run_cli(["analyze", str(empty)], capsys)
        assert code == 2
        assert "telemetry" in stderr

    def test_malformed_cell_names_the_file(self, batch_dir, tmp_path, capsys):
        bad = tmp_path / "bad_telemetry.csv"
        corrupt_last_cell(batch_dir / "run_000_telemetry.csv", bad)
        out = tmp_path / "a.csv"
        code, _, stderr = run_cli(["analyze", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: ")
        assert "'x'" in stderr and "column 6" in stderr
        assert not out.exists()

    def test_bad_value_error_gives_the_file_line(self, batch_dir, tmp_path, capsys):
        lines = (batch_dir / "run_000_telemetry.csv").read_text().splitlines(keepends=True)
        assert lines[25].startswith("generation,") and lines[26].startswith("1,")
        cells = lines[29].split(",")  # file line 30, generation 4
        cells[1] = "x"
        lines[29] = ",".join(cells)
        lines.insert(28, "\n")  # a blank line: np.loadtxt skips it, a file line still
        bad = tmp_path / "bad_telemetry.csv"
        bad.write_text("".join(lines))
        code, _, stderr = run_cli(["analyze", str(bad), "--out", str(tmp_path / "a.csv")], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: line 31, column 2: ")
        assert "'x'" in stderr


    def test_file_that_is_not_utf8_names_the_file(self, batch_dir, tmp_path, capsys):
        bad = tmp_path / "bad_telemetry.csv"
        bad.write_bytes(b"\xff" + (batch_dir / "run_000_telemetry.csv").read_bytes())
        out = tmp_path / "a.csv"
        code, _, stderr = run_cli(["analyze", str(tmp_path), "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff ")
        assert not out.exists()

    def test_file_with_a_byte_order_mark(self, batch_dir, tmp_path, capsys):
        plain = batch_dir / "run_000_telemetry.csv"
        bom = tmp_path / plain.name
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        tables = []
        for path, out in ((plain, tmp_path / "a.csv"), (bom, tmp_path / "b.csv")):
            code, _, stderr = run_cli(["analyze", str(path), "--out", str(out)], capsys)
            assert (code, stderr) == (0, "")
            # Every cell after the first, which names the file.
            tables.append([line.split(",", 1)[-1] for line in out.read_text().splitlines()])
        assert len(tables[1]) == 3 and tables[1] == tables[0]

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_or_overflowing_history_names_file_and_column(
        self, batch_dir, tmp_path, capsys, value
    ):
        lines = (batch_dir / "run_000_telemetry.csv").read_text().splitlines(keepends=True)
        assert lines[25].split(",")[2] == "median_delta"
        cells = lines[30].split(",")  # generation 5
        cells[2] = value
        lines[30] = ",".join(cells)
        bad = tmp_path / "bad_telemetry.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "a.csv"
        code, _, stderr = run_cli(["analyze", str(bad), "--out", str(out)], capsys)
        assert code == 2
        reason = "the sum of squares overflows" if value == "1e308" else f"H[4] is {value}"
        assert stderr.startswith(f"error: {bad}: median_delta: {reason}")
        assert not out.exists()


class TestPlot:
    def test_directory_input(self, batch_dir, tmp_path, capsys):
        out = tmp_path / "panel.svg"
        code, _, _ = run_cli(["plot", str(batch_dir), "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["plot", str(tmp_path / "nope_lineage.csv")], capsys
        )
        assert code == 2
        assert stderr.strip()

    def test_lineage_without_header_exits_2(self, batch_dir, tmp_path, capsys):
        bare = tmp_path / "bare_lineage.csv"
        lines = (batch_dir / "run_000_lineage.csv").read_text().splitlines(keepends=True)
        bare.write_text("".join(line for line in lines if not line.startswith("#")))
        code, _, stderr = run_cli(
            ["plot", str(bare), "--out", str(tmp_path / "p.svg")], capsys
        )
        assert code == 2
        assert stderr == f"error: {bare}: missing header key evolution.pop_size\n"
        assert not (tmp_path / "p.svg").exists()

    def test_malformed_cell_names_the_file(self, batch_dir, tmp_path, capsys):
        bad = tmp_path / "bad_lineage.csv"
        corrupt_last_cell(batch_dir / "run_000_lineage.csv", bad)
        code, _, stderr = run_cli(["plot", str(bad), "--out", str(tmp_path / "p.svg")], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: ")
        assert "'x'" in stderr
        assert not (tmp_path / "p.svg").exists()

    def test_wrong_cell_count_error_gives_the_file_line(self, batch_dir, tmp_path, capsys):
        lines = (batch_dir / "run_000_lineage.csv").read_text().splitlines(keepends=True)
        assert lines[25].startswith("generation,") and lines[26].startswith("1,")
        lines[39] = lines[39].rstrip("\n") + ",7\n"  # file line 40
        bad = tmp_path / "bad_lineage.csv"
        bad.write_text("".join(lines))
        code, _, stderr = run_cli(["plot", str(bad), "--out", str(tmp_path / "p.svg")], capsys)
        assert code == 2
        assert stderr == f"error: {bad}: line 40: expected 5 cells, found 6\n"
        assert not (tmp_path / "p.svg").exists()

    def test_header_note_with_dashes_gives_well_formed_svg(self, batch_dir, tmp_path, capsys):
        # plot copies every header line of the file into the panel.
        noted = tmp_path / "run_000_lineage.csv"
        noted.write_text("# note = x---y\n" + (batch_dir / noted.name).read_text())
        out = tmp_path / "p.svg"
        assert run_cli(["plot", str(noted), "--out", str(out)], capsys)[0] == 0
        ElementTree.parse(out)
        assert "<!-- note = x- - -y -->" in out.read_text()

    def test_file_that_is_not_utf8_names_the_file(self, batch_dir, tmp_path, capsys):
        bad = tmp_path / "bad_lineage.csv"
        bad.write_bytes((batch_dir / "run_000_lineage.csv").read_bytes() + b"1,2,3,4.0,5\xe9\n")
        code, _, stderr = run_cli(["plot", str(bad), "--out", str(tmp_path / "p.svg")], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xe9 ")
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1.0", "94.5"])
    def test_child_t_outside_the_files_curve_names_file_and_column(
        self, batch_dir, tmp_path, capsys, value
    ):
        # The batch's curve ends at t_max = 30 * pi = 94.2477...
        lines = (batch_dir / "run_001_lineage.csv").read_text().splitlines(keepends=True)
        assert lines[25].split(",")[3] == "child_t"
        cells = lines[70].split(",")  # file line 71, generation 2
        cells[3] = value
        lines[70] = ",".join(cells)
        bad = tmp_path / "bad_lineage.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "p.svg"
        code, _, stderr = run_cli(
            ["plot", str(batch_dir / "run_000_lineage.csv"), str(bad), "--out", str(out)], capsys
        )
        assert code == 2
        assert stderr == (
            f"error: {bad}: child_t {float(value)!r} (generation 2) outside the curve "
            f"domain [0, {30 * math.pi!r}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("order", [1, -1])
    def test_inputs_on_different_curves_exit_2(self, batch_dir, tmp_path, capsys, order):
        other = tmp_path / "other"
        assert main(["run", *FAST, "--spiral-a", "0.02", "--init-t0", "50",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        first, later = [batch_dir / "run_000_lineage.csv", other / "run_000_lineage.csv"][::order]
        a_first, a_later = ["0.01", "0.02"][::order]
        out = tmp_path / "p.svg"
        code, _, stderr = run_cli(["plot", str(first), str(later), "--out", str(out)], capsys)
        assert code == 2
        assert stderr == f"error: {later}: spiral.a = {a_later} differs from {a_first} in {first}\n"
        assert not out.exists()

    def test_inputs_may_differ_in_population_size(self, batch_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["run", *FAST, "--pop-size", "12", "--out", str(other)]) == 0
        out = tmp_path / "p.svg"
        code, _, _ = run_cli(
            ["plot", str(batch_dir), str(other / "run_000_lineage.csv"), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.exists()

    def test_bad_header_value_names_file_and_key(self, batch_dir, tmp_path, capsys):
        bad = tmp_path / "bad_lineage.csv"
        text = (batch_dir / "run_000_lineage.csv").read_text()
        assert "# evolution.pop_size = 30\n" in text
        bad.write_text(text.replace("pop_size = 30\n", "pop_size = thirty\n"))
        code, _, stderr = run_cli(
            ["plot", str(bad), "--out", str(tmp_path / "p.svg")], capsys
        )
        assert code == 2
        assert stderr == (
            f"error: {bad}: evolution.pop_size: expected an integer, got 'thirty'\n"
        )
        assert not (tmp_path / "p.svg").exists()

    @pytest.mark.parametrize(
        "line, key",
        [
            # Before plot read its headers through the config gate, these gave
            # "error: alpha must be positive and finite, got 0.0" (no file, no key),
            # "error: negative dimensions are not allowed" and, for the last, a
            # 728 TiB _ArrayMemoryError traceback with exit 1.
            ("spiral.alpha = 0.0", "spiral.alpha"),
            ("spiral.a = -1.0", "spiral.a"),
            ("evolution.pop_size = -5", "evolution.pop_size"),
            ("evolution.pop_size = 100000000000000", "evolution.pop_size"),
        ],
    )
    def test_header_passes_the_config_gate(self, batch_dir, tmp_path, capsys, line, key):
        lines = (batch_dir / "run_000_lineage.csv").read_text().splitlines(keepends=True)
        i = next(i for i, text in enumerate(lines) if text.startswith(f"# {key} = "))
        lines[i] = f"# {line}\n"
        bad = tmp_path / "bad_lineage.csv"
        bad.write_text("".join(lines))
        out = tmp_path / "p.svg"
        code, _, stderr = run_cli(["plot", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {bad}: {key}")
        assert stderr.count("\n") == 1
        assert not out.exists()


# The adversarial value pool: every key is given each of these in turn, and an
# enum key also each of its values and a near miss of each.
POOL = ["0", "-1", str(2**63), str(10**19), "1e-300", "1e300", "nan", "inf", ""]
ENUMS = {
    "scenario": Scenario,
    "evolution.metric": Metric,
    "evolution.genotype_space": GenotypeSpace,
    "archive.kind": ArchiveKind,
    "sampling.mode": SamplingMode,
}
CASES = [
    (row, value)
    for row in CONFIG_KEYS
    for value in POOL + [
        text for m in ENUMS.get(row.key, ()) for text in (m.value, m.value.upper() + "x")
    ]
]


def _exits_cleanly(argv, key):
    """main(argv) exits 0, or exits 2 with one error line that names the key
    and leaves the working directory as it was."""
    before = sorted(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        return
    lines = err.getvalue().splitlines()
    assert code == 2, (argv, code, err.getvalue())
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    assert key in lines[0], (argv, lines)
    assert sorted(os.listdir(".")) == before, argv


@pytest.fixture(scope="module")
def small_lineage(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert main(["run", "--g-max", "3", "--out", str(out)]) == 0
    return (out / "run_000_lineage.csv").read_text()


@settings(max_examples=len(CASES), derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(CASES))
def test_no_value_of_any_key_gives_a_traceback(small_lineage, case):
    # The command line's contract: exit 0, or exit 2 with one "error:" line that
    # names the key, no traceback, no warning (pytest turns them into errors),
    # and no new directory or panel.
    row, value = case
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in ("run", "batch"):
                flags = {"--g-max": "3", "--runs": "1", "--out": "out", row.flag: value}
                _exits_cleanly([command, *[x for kv in flags.items() for x in kv]], row.key)
            lines = small_lineage.splitlines(keepends=True)
            i = next(i for i, text in enumerate(lines) if text.startswith(f"# {row.key} = "))
            lines[i] = f"# {row.key} = {value}\n"
            with open("fuzz_lineage.csv", "w") as fh:
                fh.write("".join(lines))
            _exits_cleanly(["plot", "fuzz_lineage.csv", "--out", "panel.svg"], row.key)
        finally:
            os.chdir(home)
