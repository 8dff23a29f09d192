"""Host speed, measured with a fixed piece of work next to the timed work.

The benchmark runs on shared virtual CPUs whose speed drifts by a fifth or
more over minutes, which moves every timing of a run together.  The
reference work below mixes what spiralns spends its time on: interpreted
per-point Python (trigonometry, tuples, lists) and small numpy distance,
partition and sort calls.  It does not touch spiralns, so a change to the
program cannot change it.  Timings are scaled by `speed()` taken around
them: REFERENCE_S over the reference work's own time, so a value reads as
seconds on a machine that runs the reference work in REFERENCE_S.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

# The reference work's usual time on the 2-CPU machine the benchmark was
# tuned on; it only sets the scale of the reported timings.
REFERENCE_S = 0.1
POINTS = 3000
POOL = 60
BLOCKS = 20


def reference_work() -> float:
    """Wall time of one fixed piece of work."""
    rng = random.Random(0)
    start = time.perf_counter()
    points = []
    for _ in range(POINTS):
        t = rng.uniform(0.0, 94.0)
        points.append((0.01 * t * math.cos(t), 0.01 * t * math.sin(t)))
    xy = np.array(points)
    half = xy[: POINTS // 2]
    for j in range(BLOCKS):
        pool = xy[j * POOL : (j + 1) * POOL]
        d = np.sqrt(((pool[:, None, :] - half[None, :, :]) ** 2).sum(-1))
        np.partition(d, 10, axis=1)[:, :10].mean(axis=1).argsort()
    return time.perf_counter() - start


def speed() -> float:
    """REFERENCE_S over the time the reference work takes now."""
    return REFERENCE_S / reference_work()
