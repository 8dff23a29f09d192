"""Command line entry points, exercised through main()."""

import os
import subprocess
import sys

import pytest

from spiralns.cli import main

FAST = ["--scenario", "Custom", "--g-max", "10"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_scipy_optimize_and_spatial_unloaded():
    # Every command pays the package import; scipy's optimizer and k-d tree
    # are loaded only by the calls that need them.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys, spiralns.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
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
