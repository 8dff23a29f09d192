"""Correctness checks on a batch's artifacts, computed apart from spiralns.

Coverage comes from the benchmark's own closed-form arc length, selection
from a brute-force k-nearest-neighbour mean, and everything else from
properties the method must have.  Each check function returns a mapping
from operation name (see workloads.operations) to the problems it found;
an operation with no problems passed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

from workloads import (
    ARCHIVE_ADDITIONS,
    GRID_EPSILON,
    GRID_RESOLUTION,
    INIT_T0,
    K,
    SPIRAL_A,
    SPIRAL_ALPHA,
    Batch,
)

T_MAX = SPIRAL_ALPHA * math.pi
COVERAGE_BINS = 100
SUCCESS_THRESHOLD = 0.95
FIT_COLUMNS = [
    "fit_amplitude",
    "fit_decay",
    "fit_frequency",
    "fit_phase",
    "fit_offset",
    "fit_residual",
    "phase_count",
]


def arc_length(t):
    """S(t) = (a/2) (t sqrt(t^2 + 1) + asinh t), the arc length from the origin."""
    t = np.asarray(t, dtype=float)
    return SPIRAL_A * 0.5 * (t * np.sqrt(t * t + 1.0) + np.arcsinh(t))


S_MAX = float(arc_length(T_MAX))


def coverage_bins(t) -> np.ndarray:
    idx = np.floor(COVERAGE_BINS * arc_length(t) / S_MAX).astype(int)
    return np.clip(idx, 0, COVERAGE_BINS - 1)


def read_csv(path: str):
    """(header dict, column names, rows) of a `# key = value`-headed CSV."""
    header, body = {}, []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition(" = ")
                if sep:
                    header[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(body))
    return header, rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def digests(directory: str) -> dict:
    """sha256 of every file in the directory, by file name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _expect(problems: list, ok, message: str):
    if not ok:
        problems.append(message)


def _check_header(problems, header, batch: Batch, seed: int, run=None):
    expected = dict(batch.settings(seed))
    if run is not None:
        expected.update(run_index=str(run), seed=str(seed + run))
    for key, value in expected.items():
        _expect(problems, header.get(key) == value, f"header {key}")
    for key, value in (
        ("spiral.a", SPIRAL_A),
        ("spiral.alpha", SPIRAL_ALPHA),
        ("evolution.init_t0", INIT_T0),
        ("evolution.k", K),
    ):
        _expect(problems, float(header.get(key, "nan")) == value, f"header {key}")


def _check_lineage(problems, rows, batch: Batch) -> tuple:
    gen = np.array([int(r["generation"]) for r in rows])
    child = np.array([int(r["child_id"]) for r in rows])
    parent = np.array([int(r["parent_id"]) for r in rows])
    child_t = np.array([float(r["child_t"]) for r in rows])
    parent_t = np.array([float(r["parent_t"]) for r in rows])

    expected_gen = np.repeat(np.arange(1, batch.g_max + 1), batch.offspring_size)
    _expect(
        problems,
        gen.shape == expected_gen.shape and np.array_equal(gen, expected_gen),
        "lineage: not offspring_size rows per generation",
    )
    _expect(problems, np.all(np.diff(child) > 0), "lineage: child ids not increasing")
    _expect(problems, child.size and child[0] == batch.pop_size, "lineage: first child id")
    for name, t in (("child_t", child_t), ("parent_t", parent_t)):
        _expect(problems, np.all((t >= 0.0) & (t <= T_MAX)), f"lineage: {name} off the curve")

    # Roots are the pop_size initial individuals, ids below the first child.
    root = parent < batch.pop_size
    _expect(
        problems,
        np.all(np.abs(parent_t[root] - INIT_T0) <= 1e-6),
        "lineage: root parent_t is not init_t0",
    )
    pos = np.searchsorted(child, parent[~root])
    pos = np.minimum(pos, child.size - 1)
    known = child[pos] == parent[~root]
    _expect(problems, np.all(known), "lineage: parent_id never born")
    _expect(
        problems,
        np.all(gen[pos] < gen[~root]),
        "lineage: parent born in the same or a later generation",
    )
    _expect(
        problems,
        np.array_equal(parent_t[~root], child_t[pos]),
        "lineage: parent_t differs from the parent's child_t",
    )
    return gen, child_t


def _check_telemetry(problems, rows, batch: Batch, gen, child_t) -> float:
    g = np.array([int(r["generation"]) for r in rows])
    cov = np.array([float(r["coverage_fraction"]) for r in rows])
    size = np.array([int(r["archive_size"]) for r in rows])
    occupied = np.array([int(r["grid_occupied"]) for r in rows])
    max_nov = np.array([float(r["max_novelty"]) for r in rows])
    _expect(
        problems,
        np.array_equal(g, np.arange(1, batch.g_max + 1)),
        "telemetry: not one row per generation",
    )

    # Coverage recomputed from init_t0 plus every child, generation by generation.
    first_hit = np.full(COVERAGE_BINS, np.inf)
    first_hit[coverage_bins(INIT_T0)] = 0
    np.minimum.at(first_hit, coverage_bins(child_t), gen)
    hits = np.sort(first_hit[np.isfinite(first_hit)])
    expected = np.searchsorted(hits, g, side="right") / COVERAGE_BINS
    _expect(problems, np.array_equal(cov, expected), "telemetry: coverage differs from lineage")
    _expect(problems, np.all(np.diff(cov) >= 0), "telemetry: coverage decreases")
    _expect(problems, np.all(np.isfinite(max_nov) & (max_nov >= 0)), "telemetry: max_novelty")

    if batch.archive == "unstructured_unbounded":
        law = np.array_equal(size, min(ARCHIVE_ADDITIONS, batch.pop_size) * g)
        law = law and not occupied.any()
    elif batch.archive == "grid":
        law = np.array_equal(size, occupied)
        law = law and np.all(np.diff(size) >= 0) and size.max() <= GRID_RESOLUTION**2
    else:
        law = not size.any() and not occupied.any()
    _expect(problems, law, f"telemetry: archive size breaks the {batch.archive} law")
    return float(cov[-1]) if cov.size else math.nan


def check_batch(directory: str, batch: Batch, seed: int) -> dict:
    """Problems per operation for one batch directory of one round."""
    problems = {}
    finals = []
    for i in range(batch.runs):
        op = problems.setdefault(f"{batch.label}/run_{i:03d}", [])
        finals.append(math.nan)
        try:
            stem = os.path.join(directory, f"run_{i:03d}")
            tel_header, _, tel_rows = read_csv(stem + "_telemetry.csv")
            lin_header, _, lin_rows = read_csv(stem + "_lineage.csv")
            _check_header(op, tel_header, batch, seed, i)
            _check_header(op, lin_header, batch, seed, i)
            gen, child_t = _check_lineage(op, lin_rows, batch)
            finals[i] = _check_telemetry(op, tel_rows, batch, gen, child_t)
        except (OSError, ValueError, IndexError, KeyError) as e:
            op.append(f"unreadable artifacts: {e!r}")

    op = problems.setdefault(f"{batch.label}/analyze", [])
    try:
        header, _, rows = read_csv(os.path.join(directory, "summary.csv"))
        _check_header(op, header, batch, seed)
        per_run, aggregate = rows[:-1], rows[-1]
        _expect(op, len(per_run) == batch.runs, "summary: row count")
        for i, row in enumerate(per_run):
            final = float(row["final_coverage"])
            _expect(op, row["run"] == str(i) and row["seed"] == str(seed + i), "summary: run/seed")
            _expect(op, final == finals[i], "summary: final coverage differs from telemetry")
            _expect(op, row["success"] == str(int(final >= SUCCESS_THRESHOLD)), "summary: success")
        covs = [float(r["final_coverage"]) for r in per_run]
        successes = [float(r["success"]) for r in per_run]
        _expect(op, aggregate["run"] == "aggregate", "summary: no aggregate row")
        for column, value in (
            ("coverage_mean", sum(covs) / len(covs)),
            ("coverage_min", min(covs)),
            ("coverage_max", max(covs)),
            ("success_rate", sum(successes) / len(successes)),
        ):
            _expect(op, math.isclose(float(aggregate[column]), value, rel_tol=1e-12),
                    f"summary: aggregate {column}")

        analysis_path = os.path.join(directory, "analysis.csv")
        _, _, analyzed = read_csv(analysis_path)
        _expect(op, len(analyzed) == batch.runs, "analysis: row count")
        for i, (row, summary) in enumerate(zip(analyzed, per_run)):
            _expect(op, row["file"] == f"{batch.out_dir()}/run_{i:03d}_telemetry.csv",
                    "analysis: file order")
            _expect(op, row["generations"] == str(batch.g_max), "analysis: generations")
            _expect(op, float(row["final_coverage"]) == finals[i], "analysis: final coverage")
            _expect(op, all(row[c] == summary[c] for c in FIT_COLUMNS),
                    "analysis: fit columns differ from summary.csv")
    except (OSError, ValueError, IndexError, KeyError) as e:
        op.append(f"unreadable summary or analysis: {e!r}")

    op = problems.setdefault(f"{batch.label}/plot", [])
    try:
        bodies = []
        for name in ("cumulative.svg", "panel.svg"):
            with open(os.path.join(directory, name)) as fh:
                bodies.append([line for line in fh if not line.startswith("<!--")])
        _expect(op, bodies[0] == bodies[1], "plot: SVG body differs from cumulative.svg")
        circles = sum(line.startswith("<circle") for line in bodies[1])
        _expect(op, circles > 1, "plot: no behaviours drawn")
    except OSError as e:
        op.append(f"unreadable SVG: {e!r}")
    return problems


def brute_force_novelty(pool_t, archive_t, metric: str) -> np.ndarray:
    """Mean distance of each pool member to its k nearest others in pool + archive."""
    pool_t = np.asarray(pool_t, dtype=float)
    cand_t = np.concatenate([pool_t, np.asarray(archive_t, dtype=float)])
    if metric == "geodesic":
        dist = np.abs(arc_length(pool_t)[:, None] - arc_length(cand_t)[None, :])
    else:
        dx = (SPIRAL_A * pool_t * np.cos(pool_t))[:, None] - SPIRAL_A * cand_t * np.cos(cand_t)
        dy = (SPIRAL_A * pool_t * np.sin(pool_t))[:, None] - SPIRAL_A * cand_t * np.sin(cand_t)
        dist = np.sqrt(dx * dx + dy * dy)
    n = pool_t.size
    dist[np.arange(n), np.arange(n)] = np.inf
    k = min(K, cand_t.size - 1)
    nearest = np.sort(dist, axis=1)[:, :k]
    total = np.zeros(n)
    for j in range(k):
        total = total + nearest[:, j]
    return total / k


def replay(directory: str, batch: Batch, seed: int) -> list:
    """Re-run run 0 through its replay generations and re-derive selection there.

    The replay steps the public evolution API with the batch's settings; its
    lineage must match the batch's lineage CSV, survivors' novelty must equal
    the brute-force value, and survivors must be the pop_size most novel.
    """
    from dataclasses import replace

    from spiralns import archives, evolution, experiments

    problems = []
    config = experiments.config_from_items(batch.settings(seed))
    evo = replace(config.evolution, seed=seed)
    archive = {
        "none": None,
        "unstructured_unbounded": archives.UnstructuredArchive(None, ARCHIVE_ADDITIONS),
        "grid": archives.GridArchive(config.spiral, GRID_RESOLUTION, GRID_EPSILON),
    }[batch.archive]
    state = evolution.init_population(evo, config.spiral, archive=archive)
    _, _, lineage = read_csv(os.path.join(directory, "run_000_lineage.csv"))

    for g in range(1, max(batch.replay_generations) + 1):
        checked = g in batch.replay_generations
        if checked:
            before = list(state.population)
            archive_t = [ind.behavior.t for ind in archive.individuals()] if archive else []
            seen = len(state.lineage_log)
        evolution.step_generation(state, evo, config.sampling)
        if not checked:
            continue
        born = state.lineage_log[seen:]
        recorded = [r for r in lineage if r["generation"] == str(g)]
        _expect(
            problems,
            [(str(e.child_id), str(e.parent_id), repr(e.child_t)) for e in born]
            == [(r["child_id"], r["parent_id"], r["child_t"]) for r in recorded],
            f"replay g{g}: lineage differs from the batch's",
        )
        ids = [ind.id for ind in before] + [e.child_id for e in born]
        pool_t = [ind.behavior.t for ind in before] + [e.child_t for e in born]
        novelty = dict(zip(ids, brute_force_novelty(pool_t, archive_t, batch.metric)))
        survivors = {ind.id: ind.novelty for ind in state.population}
        _expect(problems, len(survivors) == batch.pop_size, f"replay g{g}: survivor count")
        _expect(
            problems,
            all(i in novelty and math.isclose(v, novelty[i], rel_tol=1e-9, abs_tol=1e-12)
                for i, v in survivors.items()),
            f"replay g{g}: survivor novelty differs from brute force",
        )
        worst_kept = min(novelty[i] for i in survivors if i in novelty)
        best_dropped = max((v for i, v in novelty.items() if i not in survivors), default=-1.0)
        _expect(
            problems,
            worst_kept >= best_dropped - 1e-12,
            f"replay g{g}: survivors are not the {batch.pop_size} most novel",
        )
    return problems
