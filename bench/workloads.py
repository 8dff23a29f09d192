"""The two benchmark workloads, as `spiralns batch` settings.

Each workload is a list of batches.  One round of a workload runs, for each
batch in order, `spiralns batch`, then `spiralns analyze` and `spiralns plot`
on that batch's directory.  Every setting a check relies on is spelled out
here, so the checks do not take their expectations from the program.

A round lasts one to two seconds on a 2-CPU machine, so a run holds fifteen
or more rounds (see README.md for why).  Named scenarios pin g_max = 1000, so
each workload runs its scenario's settings under the Custom scenario with
fewer generations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPIRAL_A = 0.01
SPIRAL_ALPHA = 30.0
INIT_T0 = 28.0 * math.pi
K = 10
ARCHIVE_ADDITIONS = 6
GRID_RESOLUTION = 50
GRID_EPSILON = 0.05
# Round seeds of benchmark seed n are n * SEEDS_PER_RUN + j, disjoint across n.
SEEDS_PER_RUN = 100


@dataclass(frozen=True)
class Batch:
    label: str
    scenario: str
    g_max: int
    metric: str  # euclidean or geodesic
    genotype_space: str  # angle or arc_length
    archive: str  # none, unstructured_unbounded or grid
    sampling: str = "population"
    pop_size: int = 30
    offspring_size: int = 30
    runs: int = 1
    replay_generations: tuple = (1, 30, 60)  # where selection is re-derived

    def settings(self, seed: int) -> dict:
        """Config keys and values; named scenarios accept their pinned values."""
        return {
            "scenario": self.scenario,
            "runs": str(self.runs),
            "base_seed": str(seed),
            "evolution.pop_size": str(self.pop_size),
            "evolution.offspring_size": str(self.offspring_size),
            "evolution.g_max": str(self.g_max),
            "evolution.metric": self.metric,
            "evolution.genotype_space": self.genotype_space,
            "archive.kind": self.archive,
            "sampling.mode": self.sampling,
        }

    def out_dir(self) -> str:
        return f"out/{self.label}"

    def batch_argv(self, seed: int) -> list:
        argv = ["batch"]
        for key, value in self.settings(seed).items():
            argv += [FLAGS[key], value]
        return argv + ["--out", self.out_dir()]

    def analyze_argv(self) -> list:
        return ["analyze", self.out_dir(), "--out", f"{self.out_dir()}/analysis.csv"]

    def plot_argv(self) -> list:
        return ["plot", self.out_dir(), "--out", f"{self.out_dir()}/panel.svg"]


FLAGS = {
    "scenario": "--scenario",
    "runs": "--runs",
    "base_seed": "--seed",
    "evolution.pop_size": "--pop-size",
    "evolution.offspring_size": "--offspring-size",
    "evolution.g_max": "--g-max",
    "evolution.metric": "--metric",
    "evolution.genotype_space": "--genotype-space",
    "archive.kind": "--archive-kind",
    "sampling.mode": "--sampling-mode",
}


def _fig2(label: str, metric: str, space: str) -> Batch:
    # Fig2a-d's settings, 250 generations instead of the pinned 1000.
    return Batch(label, "Custom", 250, metric, space, "none")


WORKLOADS = {
    "archive_free": [
        _fig2("Fig2a_g250", "euclidean", "angle"),
        _fig2("Fig2b_g250", "euclidean", "arc_length"),
        _fig2("Fig2c_g250", "geodesic", "angle"),
        _fig2("Fig2d_g250", "geodesic", "arc_length"),
    ],
    # Fig3a's settings, 300 generations, then Fig3l's, 500 generations.
    # Fig3a scores a pool of 60 against an unstructured archive that grows to
    # 1,800 members; Fig3l makes 15,000 grid inserts per run and samples
    # parents eta-weighted from about a thousand occupants.
    "archives": [
        Batch(
            "Fig3a_g300", "Custom", 300, "euclidean", "angle", "unstructured_unbounded",
            replay_generations=(1, 150, 300),
        ),
        Batch(
            "Fig3l_g500", "Custom", 500, "euclidean", "angle", "grid", "mixed_guided",
            replay_generations=(1, 150, 300),
        ),
    ],
}


def evaluations(batch: Batch) -> int:
    """Individuals evaluated by one batch: initial population plus offspring."""
    return batch.runs * (batch.pop_size + batch.offspring_size * batch.g_max)


def operations(batch: Batch) -> list:
    """Names of the operations one round attempts for this batch."""
    return [f"{batch.label}/run_{i:03d}" for i in range(batch.runs)] + [
        f"{batch.label}/analyze",
        f"{batch.label}/plot",
    ]


def round_seed(seed: int, r: int, trace: bool) -> int:
    """base_seed of round r.

    Rounds 0 and 1 share the first seed, so every run repeats one seed
    in-process; later rounds move to fresh seeds, so a run's median round is
    taken over different inputs.  Traced runs give each seed an untraced and
    then a traced round, so the overhead compares like with like.
    """
    first = seed * SEEDS_PER_RUN
    return first + (r // 2 if trace else max(r - 1, 0))
