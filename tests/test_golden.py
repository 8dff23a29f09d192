"""Golden artifact digests: short batches must write byte-identical files.

Every named scenario's settings run as a short batch (2 runs, 150
generations), plus a few Custom settings that the named scenarios leave out:
a geodesic unbounded archive, a geodesic grid with guided resampling in the
arc-length genotype space, and a grid run with a population smaller than
k + 2.  The archives of most of these grow past the size at which novelty
scoring switches from dense distances to the k-d tree, so both scoring paths
are pinned.

Three scenarios are also pinned at full length, one run of 1000
generations each: Fig3a (an unbounded archive of 6,000 entries), Fig3g (a
bounded archive that evicts from generation 500 on) and Fig3l (a grid
archive whose occupants are retaken).  Their runs rebuild the archive's
scoring index many times over, which the short batches barely reach.

A mismatch means a change altered the program's output, which an
optimisation must not do.  Re-pin only for a deliberate format change, and
record it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from dataclasses import replace

import pytest

from spiralns.cli import main
from spiralns.experiments import Scenario, config_from_items, run_batch

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
RUNS = 2
G_MAX = 150

CONFIGS = {
    scenario.value: {"scenario": scenario.value}
    for scenario in Scenario
    if scenario is not Scenario.CUSTOM
}
CONFIGS.update(
    {
        "geodesic_archive": {
            "evolution.metric": "geodesic",
            "archive.kind": "unstructured_unbounded",
        },
        "geodesic_guided_grid": {
            "evolution.metric": "geodesic",
            "evolution.genotype_space": "arc_length",
            "archive.kind": "grid",
            "sampling.mode": "mixed_guided",
        },
        "small_pop_grid": {
            "evolution.pop_size": "3",
            "evolution.offspring_size": "3",
            "archive.kind": "grid",
            "sampling.mode": "mixed_random",
        },
    }
)


def artifact_digests(name: str) -> dict:
    """sha256 of every file a short batch of the named settings writes to ./out."""
    config = config_from_items(
        {**CONFIGS[name], "runs": str(RUNS), "base_seed": "3", "output_dir": "out"}
    )
    config.evolution = replace(config.evolution, g_max=G_MAX)
    run_batch(config)
    digests = {}
    for filename in sorted(os.listdir("out")):
        with open(os.path.join("out", filename), "rb") as fh:
            digests[filename] = hashlib.sha256(fh.read()).hexdigest()
    return digests


# Files the reading subcommands write over a golden batch: the panel
# `spiralns plot` renders from three copies of the Fig2b batch's lineage
# (27,180 behaviors, more than the renderer's dot cap, so the dots are
# strided), the panel it renders from the Fig3l batch's lineage (grid
# archive, guided resampling), and the fit table `spiralns analyze` writes
# from the Fig3a batch's telemetry.
PANEL = "plot_panel"
GRID_PANEL = "plot_panel_grid_guided"
ANALYSIS = "analysis_table"
DERIVED = {
    PANEL: ("Fig2b", ["plot", "out", "out", "out", "--out", "panel.svg"], "panel.svg"),
    GRID_PANEL: ("Fig3l", ["plot", "out", "--out", "panel.svg"], "panel.svg"),
    ANALYSIS: ("Fig3a", ["analyze", "out", "--out", "analysis.csv"], "analysis.csv"),
}


def derived_digest(name: str) -> dict:
    scenario, argv, filename = DERIVED[name]
    artifact_digests(scenario)
    assert main(argv) == 0
    with open(filename, "rb") as fh:
        return {filename: hashlib.sha256(fh.read()).hexdigest()}


# Full-length runs, pinned under "<scenario>_g1000".  Their summary.csv is
# not pinned: at this length its fit cells depend on the BLAS thread count
# (ROADMAP, direction 1).
FULL_LENGTH = ("Fig3a", "Fig3g", "Fig3l")
UNPINNED_AT_FULL_LENGTH = ("summary.csv",)


def full_length_digests(scenario: str) -> dict:
    """sha256 of the files one full-length run of the scenario writes to ./out."""
    run_batch(
        config_from_items(
            {"scenario": scenario, "runs": "1", "base_seed": "3", "output_dir": "out"}
        )
    )
    digests = {}
    for filename in sorted(set(os.listdir("out")) - set(UNPINNED_AT_FULL_LENGTH)):
        with open(os.path.join("out", filename), "rb") as fh:
            digests[filename] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _pinned() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests(name) == _pinned()[name]


def test_plot_panel_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert derived_digest(PANEL) == _pinned()[PANEL]


def test_grid_guided_plot_panel_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert derived_digest(GRID_PANEL) == _pinned()[GRID_PANEL]


def test_analysis_table_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert derived_digest(ANALYSIS) == _pinned()[ANALYSIS]


@pytest.mark.parametrize("scenario", FULL_LENGTH)
def test_full_length_run_matches_pinned_digests(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert full_length_digests(scenario) == _pinned()[f"{scenario}_g1000"]


def test_every_config_is_pinned():
    full = [f"{scenario}_g1000" for scenario in FULL_LENGTH]
    assert sorted(_pinned()) == sorted([*CONFIGS, *DERIVED, *full])


if __name__ == "__main__":
    import tempfile

    pinned = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            pinned[name] = artifact_digests(name)
        print(name, file=sys.stderr)
    for name in DERIVED:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            pinned[name] = derived_digest(name)
    for scenario in FULL_LENGTH:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            pinned[f"{scenario}_g1000"] = full_length_digests(scenario)
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
