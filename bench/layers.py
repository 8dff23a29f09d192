"""Per-layer spans, recorded by wrapping spiralns's public functions.

Each wrapped callable is replaced under the name its caller looks it up by
(`spiralns.experiments.step_generation`, `spiralns.evolution.mutate`, ...),
so the program itself is unchanged.  A span's self time is its duration
minus the durations of the wrapped calls made directly inside it.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace owner.attr by a timing wrapper recorded under `name`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stack = self._stack
        seconds, child_seconds, calls = self.seconds, self.child_seconds, self.calls

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                seconds[name] += elapsed
                child_seconds[name] += frame[0]
                calls[name] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def self_seconds(self, name: str) -> float:
        return self.seconds[name] - self.child_seconds[name]

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    from spiralns import analysis, archives, cli, evolution, experiments, svgplot

    counts = tracer.counts

    def count_new_cell(args, was_new):
        counts["grid_new_cells"] += int(was_new)

    def count_run(args, telemetry):
        counts["runs"] += 1
        counts["final_archive_size"] += len(telemetry.final_archive)

    def count_svg(args, document):
        counts["svg_bytes"] += len(document.encode())

    tracer.wrap(cli, "config_from_items", "cli.config")
    tracer.wrap(experiments, "run_single", "experiments.run_single", count_run)
    tracer.wrap(experiments, "step_generation", "evolution.step_generation")
    tracer.wrap(evolution, "map_genotype", "spiral.map_genotype")
    tracer.wrap(evolution, "mutate", "evolution.mutate")
    tracer.wrap(evolution, "sample_parents", "archives.sample_parents")
    tracer.wrap(evolution, "update_discovery_scores", "archives.update_discovery_scores")
    tracer.wrap(archives.UnstructuredArchive, "update", "archives.unstructured_update")
    tracer.wrap(archives.GridArchive, "insert", "archives.grid_insert", count_new_cell)
    tracer.wrap(archives.UnstructuredArchive, "individuals", "archives.individuals")
    tracer.wrap(archives.GridArchive, "individuals", "archives.individuals")
    tracer.wrap(analysis.CoverageAccumulator, "add_parameters", "analysis.coverage")
    for module in (experiments, cli):
        tracer.wrap(module, "fit_damped_oscillator", "analysis.fit_damped_oscillator")
        tracer.wrap(module, "segment_phases", "analysis.segment_phases")
    tracer.wrap(experiments, "write_run_telemetry", "experiments.write_telemetry")
    tracer.wrap(experiments, "write_run_lineage", "experiments.write_lineage")
    tracer.wrap(experiments, "emit_summary", "experiments.emit_summary")
    tracer.wrap(cli, "read_telemetry", "experiments.read_telemetry")
    tracer.wrap(cli, "read_lineage", "experiments.read_lineage")
    tracer.wrap(svgplot, "render_svg", "svgplot.render_svg", count_svg)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer totals of the traced rounds, as per-round means."""
    s, c = tracer.seconds, tracer.calls
    runs = max(tracer.counts["runs"], 1)
    values = {
        "cli.config_s": s["cli.config"],
        "spiral.map_genotype_s": s["spiral.map_genotype"],
        "spiral.map_genotype_calls": c["spiral.map_genotype"],
        "evolution.step_generation_s": s["evolution.step_generation"],
        "evolution.generations": c["evolution.step_generation"],
        "evolution.mutate_s": s["evolution.mutate"],
        "evolution.mutate_calls": c["evolution.mutate"],
        "evolution.score_select_s": tracer.self_seconds("evolution.step_generation"),
        "archives.sample_parents_s": s["archives.sample_parents"],
        "archives.unstructured_update_s": s["archives.unstructured_update"],
        "archives.grid_insert_s": s["archives.grid_insert"],
        "archives.grid_inserts": c["archives.grid_insert"],
        "archives.grid_new_cells": tracer.counts["grid_new_cells"],
        "archives.individuals_s": s["archives.individuals"],
        "archives.update_discovery_scores_s": s["archives.update_discovery_scores"],
        "analysis.coverage_s": s["analysis.coverage"],
        "analysis.fit_damped_oscillator_s": s["analysis.fit_damped_oscillator"],
        "analysis.fit_calls": c["analysis.fit_damped_oscillator"],
        "analysis.segment_phases_s": s["analysis.segment_phases"],
        "experiments.run_single_s": s["experiments.run_single"],
        "experiments.telemetry_s": tracer.self_seconds("experiments.run_single"),
        "experiments.write_telemetry_s": s["experiments.write_telemetry"],
        "experiments.write_lineage_s": s["experiments.write_lineage"],
        "experiments.emit_summary_s": s["experiments.emit_summary"],
        "experiments.read_telemetry_s": s["experiments.read_telemetry"],
        "experiments.read_lineage_s": s["experiments.read_lineage"],
        "svgplot.render_svg_s": s["svgplot.render_svg"],
        "svgplot.svg_bytes": tracer.counts["svg_bytes"],
    }
    per_round = {name: value / rounds for name, value in values.items()}
    # A final size is a property of one run, not a per-round total.
    per_round["archives.final_size"] = tracer.counts["final_archive_size"] / runs
    return per_round


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.config_s": "s",
    "spiral.map_genotype_s": "s",
    "spiral.map_genotype_calls": "count",
    "evolution.step_generation_s": "s",
    "evolution.generations": "count",
    "evolution.mutate_s": "s",
    "evolution.mutate_calls": "count",
    "evolution.evaluations": "count",
    "evolution.score_select_s": "s",
    "archives.sample_parents_s": "s",
    "archives.unstructured_update_s": "s",
    "archives.grid_insert_s": "s",
    "archives.grid_inserts": "count",
    "archives.grid_new_cells": "count",
    "archives.individuals_s": "s",
    "archives.update_discovery_scores_s": "s",
    "archives.final_size": "count",
    "analysis.coverage_s": "s",
    "analysis.fit_damped_oscillator_s": "s",
    "analysis.fit_calls": "count",
    "analysis.segment_phases_s": "s",
    "experiments.run_single_s": "s",
    "experiments.telemetry_s": "s",
    "experiments.write_telemetry_s": "s",
    "experiments.write_lineage_s": "s",
    "experiments.emit_summary_s": "s",
    "experiments.read_telemetry_s": "s",
    "experiments.read_lineage_s": "s",
    "experiments.artifact_bytes": "bytes",
    "svgplot.render_svg_s": "s",
    "svgplot.svg_bytes": "bytes",
    "trace.overhead_pct": "%",
}
