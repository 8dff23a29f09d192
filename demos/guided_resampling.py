# Grid archives and resampling: none, random, and discovery-guided.
#
# A 50x50 grid over the behavior plane keeps at most one snapshot per cell.
# Drawing some parents straight from the archive helps by itself; weighting
# those draws by each snapshot's discovery score (the decayed share of its
# offspring that landed in previously empty cells) helps more, because the
# draw concentrates on parents currently producing novelty.

from spiralns import execute_batch, final_coverage, parse_config

VARIANTS = {
    "Fig3h": "no resampling     ",
    "Fig3k": "random resampling ",
    "Fig3l": "guided resampling ",
}

print("structured (grid) archive, 5 seeded runs each:")
print()
for scenario, label in VARIANTS.items():
    batch = execute_batch(parse_config(f"scenario = {scenario}\nruns = 5\n"))
    per_run = [f"{final_coverage(t.telemetry):.2f}" for t in batch.telemetries]
    occupied = batch.telemetries[0].telemetry["grid_occupied"][-1]
    print(f"  {label} per-run coverage: {' '.join(per_run)}   cells used: {occupied}")

print()
print("Half the parent slots come from the archive in the resampling variants")
print("(sampling.archive_fraction = 0.5); the guided variant draws those slots")
print("proportionally to the occupants' current discovery scores.")
