"""Golden artifact digests: short batches must write byte-identical files.

Every named scenario's settings run as a short batch (2 runs, 150
generations), plus a few Custom settings that the named scenarios leave out:
a geodesic unbounded archive, a geodesic grid with guided resampling in the
arc-length genotype space, and a grid run with a population smaller than
k + 2.  The archives of most of these grow past the size at which novelty
scoring switches from dense distances to the k-d tree, so both scoring paths
are pinned.

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


# The panel `spiralns plot` renders from three copies of the Fig2b batch's
# lineage: 27,180 behaviors, more than the renderer's dot cap, so the dots
# are strided.
PANEL = "plot_panel"


def panel_digest() -> dict:
    artifact_digests("Fig2b")
    assert main(["plot", "out", "out", "out", "--out", "panel.svg"]) == 0
    with open("panel.svg", "rb") as fh:
        return {"panel.svg": hashlib.sha256(fh.read()).hexdigest()}


def _pinned() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests(name) == _pinned()[name]


def test_plot_panel_matches_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert panel_digest() == _pinned()[PANEL]


def test_every_config_is_pinned():
    assert sorted(_pinned()) == sorted([*CONFIGS, PANEL])


if __name__ == "__main__":
    import tempfile

    pinned = {}
    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            pinned[name] = artifact_digests(name)
        print(name, file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        pinned[PANEL] = panel_digest()
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
