"""spiralns benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a spiralns checkout; the program is imported from
`src/`.  Workloads are defined in bench/workloads.py and described in
bench/README.md.  The run goes:

1. SETUP_SAMPLES set-up samples, each a fresh process stopped at its first
   generation (`setup_s` is their median);
2. the workload's `spiralns batch` commands for the first round seed, run
   plainly in one process: the reference bytes for the determinism check;
3. the workload process (bench/worker.py): timed rounds for S seconds, with
   the host's speed read around each (bench/calibrate.py);
4. the checks of bench/checks.py on every round's artifacts.

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Working files live under
`.bench_build/spiralns/` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# One workload process at a time and no extra threads: BLAS stays serial.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before checks imports numpy

import checks  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, operations, round_seed  # noqa: E402

SETUP_SAMPLES = 3
# Written by analyze and plot, which the plain reference does not run.
CLI_ONLY_FILES = ("analysis.csv", "panel.svg")
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "batch_s": "s",
    "analyze_s": "s",
    "plot_s": "s",
    "peak_rss_mb": "MB",
}


def _worker(args: list, cwd: str, env: dict):
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )


def _setup_sample(work: str, k: int, workload: str, seed: int, env: dict) -> dict:
    cwd = os.path.join(work, f"setup_{k}")
    os.mkdir(cwd)
    result = os.path.join(cwd, "result.json")
    start = time.perf_counter()
    _worker(["setup", workload, str(seed), result], cwd, env)
    with open(result) as fh:
        sample = json.load(fh)
    return {"setup_s": sample["ready"] - start, "import_s": sample["import_s"]}


PLAIN = """
import json, sys
from spiralns.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv)
"""


def _plain_batches(work: str, batches, seed: int, env: dict):
    """`spiralns batch` with the workload's arguments, untouched by the benchmark."""
    argvs = json.dumps([b.batch_argv(seed) for b in batches])
    subprocess.run(
        [sys.executable, "-c", PLAIN, argvs],
        cwd=work,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=WORKER_TIMEOUT_S,
    )
    plain = os.path.join(work, "plain")
    if os.path.isdir(os.path.join(work, "out")):
        os.rename(os.path.join(work, "out"), plain)
    else:
        os.mkdir(plain)


def _op_files(batch) -> dict:
    files = {
        op: [f"run_{i:03d}_telemetry.csv", f"run_{i:03d}_lineage.csv"]
        for i, op in enumerate(operations(batch)[: batch.runs])
    }
    files[f"{batch.label}/analyze"] = ["summary.csv", "analysis.csv"]
    files[f"{batch.label}/plot"] = ["cumulative.svg", "panel.svg"]
    return files


def _digests(directory: str) -> dict:
    return checks.digests(directory) if os.path.isdir(directory) else {}


def _score(work: str, batches, rounds: list):
    """(attempted, failed, messages) over every operation of every round.

    The first round of each seed gets the content checks; a later round with
    the same seed passes an operation only if its files hash the same, since
    identical bytes pass identical checks.  Rounds with the plain batch's
    seed must also match its bytes, and the first seed is replayed.
    """
    attempted, failed, messages = 0, 0, []
    first_of_seed = {}
    for r, info in enumerate(rounds):
        first_of_seed.setdefault(info["seed"], r)
    plain_seed = rounds[0]["seed"]
    for batch in batches:
        problems, digests = {}, {}
        for seed, r in first_of_seed.items():
            directory = os.path.join(work, f"round_{r}", batch.label)
            problems[seed] = checks.check_batch(directory, batch, seed)
            digests[seed] = _digests(directory)
        run0 = operations(batch)[0]
        try:
            problems[plain_seed][run0] += checks.replay(
                os.path.join(work, "round_0", batch.label), batch, plain_seed
            )
        except (OSError, ValueError, IndexError, KeyError) as e:
            problems[plain_seed][run0].append(f"replay failed: {e!r}")
        plain = _digests(os.path.join(work, "plain", batch.label))
        for r, info in enumerate(rounds):
            seed = info["seed"]
            reference = digests[seed]
            got = _digests(os.path.join(work, f"round_{r}", batch.label))
            for op, files in _op_files(batch).items():
                attempted += 1
                found = list(problems[seed][op])
                for name in files:
                    if got.get(name) is None or got[name] != reference.get(name):
                        found.append(f"round {r}: {name} differs from an earlier round")
                    elif (
                        seed == plain_seed
                        and name not in CLI_ONLY_FILES
                        and got[name] != plain.get(name)
                    ):
                        found.append(f"round {r}: {name} differs from a plain batch")
                if found:
                    failed += 1
                    messages.extend(f"{op}: {m}" for m in found)
    return attempted, failed, messages


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(sample: dict, key: str) -> float:
    """A sample's timing in seconds at reference speed (see calibrate.py)."""
    return sample[key] * sample["speed"][key]


def _rate(sample: dict) -> float:
    """A round's evals_per_s at reference speed."""
    return sample["evals_per_s"] / sample["speed"]["evals_per_s"]


def _end_to_end(setups, result) -> dict:
    # Round timings are medians over the timed rounds, each scaled to
    # reference speed; set-up is plain wall time.  See README.md, "Estimators".
    timed = [r for r in result["rounds"] if not (r["traced"] or r["warmup"])]

    def median(key):
        return statistics.median(_scaled(r, key) for r in timed)

    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "evals_per_s": statistics.median(_rate(r) for r in timed),
        "batch_s": median("batch_s"),
        "analyze_s": median("analyze_s"),
        "plot_s": median("plot_s"),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: _metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}


def _wall(result) -> dict:
    """The round medians unscaled: plain wall-clock seconds on this host."""
    timed = [r for r in result["rounds"] if not (r["traced"] or r["warmup"])]
    values = {}
    for key in ("evals_per_s", "batch_s", "analyze_s", "plot_s"):
        values[key] = statistics.median(r[key] for r in timed)
    values["speed"] = statistics.median(r["speed"]["batch_s"] for r in timed)
    return values


def _per_layer(setups, result) -> dict:
    timed = [r for r in result["rounds"] if not r["warmup"]]
    plain = statistics.median(_rate(r) for r in timed if not r["traced"])
    traced_rounds = [r for r in timed if r["traced"]]
    traced = statistics.median(_rate(r) for r in traced_rounds)
    values = dict(result["layers"])
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["evolution.evaluations"] = result["evaluations"]
    values["experiments.artifact_bytes"] = statistics.mean(
        r["artifact_bytes"] for r in traced_rounds
    )
    values["trace.overhead_pct"] = 100.0 * (plain / traced - 1.0)
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, required=True, help="workload seed; round seeds are N * 100 + j"
    )
    parser.add_argument("--seconds", type=float, required=True, help="timed rounds last this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "spiralns", "cli.py")):
        print(f"error: no spiralns sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
    sys.path.insert(0, SRC)
    batches = WORKLOADS[args.workload]

    base = os.path.join(ROOT, ".bench_build", "spiralns")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        setups = [
            _setup_sample(work, k, args.workload, args.seed, env) for k in range(SETUP_SAMPLES)
        ]
        _plain_batches(work, batches, round_seed(args.seed, 0, False), env)
        result_path = os.path.join(work, "result.json")
        _worker(
            ["measure", args.workload, str(args.seed), str(args.seconds),
             str(args.trace), result_path],
            work,
            env,
        )
        with open(result_path) as fh:
            result = json.load(fh)
        n_rounds = len(result["rounds"])
        attempted, failed, messages = _score(work, batches, result["rounds"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = _per_layer(setups, result) if args.trace else _end_to_end(setups, result)
    for message in messages[:20]:
        print(f"FAILED {message}")
    print(
        f"{args.workload} seed {args.seed}: {n_rounds} rounds, "
        f"{attempted} operations attempted, {failed} failed"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        wall = _wall(result)
        print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items()))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
