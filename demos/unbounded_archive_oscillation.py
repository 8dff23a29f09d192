# The expansion/retraction oscillation of an unbounded archive.
#
# With an unbounded unstructured archive, the population is pushed away from
# everything already archived.  It sweeps outward until the rim, then the
# most novel region is the unvisited interior, so the sweep reverses.  The
# per-generation median of arc-length mutation deltas (H) oscillates around
# zero and the swings shrink as the archive fills in, like a damped cosine.

from spiralns import (
    final_coverage,
    fit_damped_oscillator,
    parse_config,
    run_single,
    segment_phases,
)

config = parse_config("scenario = Fig3a\nruns = 1\n")
table = run_single(config, run_index=0).telemetry

H = table["median_delta"].tolist()
print(f"final coverage after {len(H)} generations: {final_coverage(table):.2f}")
print(f"archive size: {table['archive_size'][-1]}")

phases = segment_phases(H, window=11)
print(f"\n{len(phases)} alternating phases; the first few:")
for phase in phases[:8]:
    direction = "outward" if phase.kind.value == "expansion" else "inward "
    span = phase.end - phase.start + 1
    print(f"  generations {phase.start:4d}-{phase.end:4d}  {direction}  ({span} gens)")

fit = fit_damped_oscillator(H)
print("\ndamped-cosine fit of H:")
print(f"  amplitude {fit.amplitude:+.3f}")
print(f"  decay     {fit.decay:.2e} per generation")
print(f"  period    {6.283 / fit.frequency:.0f} generations")
print(f"  rmse      {fit.residual:.3f}")

# a crude sparkline of H, decimated
import numpy as np

chunks = np.array_split(np.array(H), 60)
marks = ""
for chunk in chunks:
    m = float(np.median(chunk))
    marks += "+" if m > 0.02 else "-" if m < -0.02 else "."
print(f"\nsign of H over the run: {marks}")
