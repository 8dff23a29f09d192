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


@pytest.fixture
def batch_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "batch"
    assert main(["batch", *FAST, "--g-max", "25", "--runs", "2",
                 "--out", str(out)]) == 0
    return out


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
