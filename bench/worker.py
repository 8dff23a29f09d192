"""One workload process: imports spiralns and drives its command line in-process.

    python3 bench/worker.py setup   WORKLOAD SEED RESULT_JSON
    python3 bench/worker.py measure WORKLOAD SEED SECONDS TRACE RESULT_JSON

`setup` stops at the first generation of the workload's first batch and
reports the monotonic clock reading at that moment; the parent subtracts
the reading it took before starting this process.  `measure` runs whole
rounds (batch, analyze and plot for every batch of the workload) in the
current directory, renaming `out/` to `round_<r>/` after each.  Round 0
warms the process up and is not timed; the rounds after it run until they
add up to SECONDS (at least MIN_ROUNDS of them).  A round runs its batches
first, then the analyze and plot commands.  The host's speed
(bench/calibrate.py) is read before the first round, between the two parts
of every round and after it; each part records the mean of the readings on
either side of it.  With TRACE = 1 every other round is traced.
Results go to RESULT_JSON; standard output belongs to the CLI.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, evaluations, round_seed

MIN_ROUNDS = 5


class _FirstGeneration(Exception):
    """Raised at the first step_generation call of a setup-only process."""


def _setup(workload: str, seed: int, result_path: str):
    import_start = time.perf_counter()
    from spiralns import cli, experiments

    import_s = time.perf_counter() - import_start

    def first_generation(*args, **kwargs):
        raise _FirstGeneration

    experiments.step_generation = first_generation
    try:
        cli.main(WORKLOADS[workload][0].batch_argv(round_seed(seed, 0, False)))
    except _FirstGeneration:
        ready = time.perf_counter()
    else:
        raise SystemExit("setup: the batch ended before its first generation")
    _write(result_path, {"ready": ready, "import_s": import_s})


def _cli(main, argv) -> float:
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"worker: spiralns {argv[0]} exited {code}", file=sys.stderr)
    return elapsed


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _measure(workload: str, seed: int, seconds: float, trace: bool, result_path: str):
    from spiralns import cli, experiments

    import calibrate
    import layers

    # The end-to-end probe: wall time of every run_single call.
    run_single = experiments.run_single
    run_seconds = []

    def timed_run_single(*args, **kwargs):
        start = time.perf_counter()
        result = run_single(*args, **kwargs)
        run_seconds.append(time.perf_counter() - start)
        return result

    experiments.run_single = timed_run_single

    batches = WORKLOADS[workload]
    evals = sum(evaluations(b) for b in batches)
    tracer = layers.Tracer()
    rounds = []
    timed = 0.0
    r = 0
    speed_start = calibrate.speed()
    while r <= MIN_ROUNDS or timed < seconds:
        warmup = r == 0
        traced = trace and r % 2 == 1
        this_seed = round_seed(seed, r, trace)
        if traced:
            layers.install(tracer)
        run_seconds.clear()
        batch_s = analyze_s = plot_s = 0.0
        for b in batches:
            batch_s += _cli(cli.main, b.batch_argv(this_seed))
        speed_middle = calibrate.speed()
        for b in batches:
            analyze_s += _cli(cli.main, b.analyze_argv())
            plot_s += _cli(cli.main, b.plot_argv())
        if traced:
            tracer.restore()
        speed_end = calibrate.speed()
        batch_speed = (speed_start + speed_middle) / 2.0
        post_speed = (speed_middle + speed_end) / 2.0
        os.rename("out", f"round_{r}")
        rounds.append(
            {
                "seed": this_seed,
                "warmup": warmup,
                "traced": traced,
                "batch_s": batch_s,
                "analyze_s": analyze_s,
                "plot_s": plot_s,
                "evals_per_s": evals / sum(run_seconds),
                "speed": {
                    "batch_s": batch_speed,
                    "evals_per_s": batch_speed,
                    "analyze_s": post_speed,
                    "plot_s": post_speed,
                },
                "artifact_bytes": _tree_bytes(f"round_{r}"),
            }
        )
        if not warmup:
            timed += batch_s + analyze_s + plot_s
        speed_start = speed_end
        r += 1

    result = {
        "evaluations": evals,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    traced_rounds = sum(1 for x in rounds if x["traced"])
    if traced_rounds:
        result["layers"] = layers.layer_metrics(tracer, traced_rounds)
    _write(result_path, result)


def _write(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        _setup(workload, seed, argv[3])
    else:
        _measure(workload, seed, float(argv[3]), argv[4] == "1", argv[5])


if __name__ == "__main__":
    main(sys.argv[1:])
