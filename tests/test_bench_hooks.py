"""The benchmark's hooks into the program stay in place.

bench/layers.py times the program by wrapping public names where their
callers look them up, and bench/checks.py replays a batch's first run
through the public evolution API.  A rename on either side would otherwise
surface only when the benchmark runs.  This test reads bench/ and changes
nothing in it.
"""

import os
import sys

import pytest

from spiralns import cli
from spiralns.analysis import MIN_FIT_SAMPLES

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 7

# Spans the traced batches below must record, by their names in layers.py.
LAYERS = (
    "cli.config",
    "experiments.run_single",
    "evolution.step_generation",
    "spiral.map_genotype",
    "evolution.mutate",
    "archives.sample_parents",
    "archives.unstructured_update",
    "archives.grid_insert",
    "archives.update_discovery_scores",
    "archives.individuals",
    "experiments.write_telemetry",
    "experiments.write_lineage",
    "svgplot.render_svg",
    "analysis.coverage",
    "analysis.fit_damped_oscillator",
    "analysis.segment_phases",
    "experiments.emit_summary",
    "experiments.read_telemetry",
    "experiments.read_lineage",
)


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(tmp_path)
    import checks
    import layers
    import workloads

    return checks, layers, workloads


def test_traced_batches_then_replay(bench):
    checks, layers, workloads = bench
    batches = [
        workloads.Batch(
            "free", "Custom", 5, "geodesic", "arc_length", "none",
            replay_generations=(1, 3, 5),
        ),
        workloads.Batch(
            "unstructured", "Custom", 5, "euclidean", "angle", "unstructured_unbounded",
            replay_generations=(1, 3, 5),
        ),
        workloads.Batch(
            "guided", "Custom", 5, "euclidean", "angle", "grid", "mixed_guided",
            replay_generations=(1, 3, 5),
        ),
        # Long enough for summary.csv and analyze to fit its history.
        workloads.Batch(
            "fitted", "Custom", MIN_FIT_SAMPLES, "euclidean", "angle", "none",
            replay_generations=(1, MIN_FIT_SAMPLES),
        ),
    ]
    fitted = batches[-1]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        for batch in batches:
            assert cli.main(batch.batch_argv(SEED)) == 0
        assert cli.main(fitted.analyze_argv()) == 0
        assert cli.main(fitted.plot_argv()) == 0
    finally:
        tracer.restore()

    for name in LAYERS:
        assert tracer.calls[name] > 0, name
    # One fit for the run's summary row, one for its analyze row.
    assert tracer.calls["analysis.fit_damped_oscillator"] == 2
    metrics = layers.layer_metrics(tracer, rounds=1)
    assert metrics["archives.final_size"] > 0

    for batch in batches:
        assert checks.replay(batch.out_dir(), batch, SEED) == [], batch.label
