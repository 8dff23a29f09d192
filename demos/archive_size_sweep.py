# How large does a bounded archive have to be?
#
# Bounded unstructured archives evict at random once full.  A small archive
# forgets where search has been, so the population oscillates without making
# progress; the full-scale sweep needs roughly half of the evaluation
# history retained before full coverage becomes reliable.

from spiralns import execute_batch, final_coverage, parse_config

SCENARIOS = [
    ("Fig3e", 50),
    ("Fig3c", 100),
    ("Fig3f", 200),
    ("Fig3g", 3000),
]

print("bounded archives, 5 seeded runs each (success = coverage >= 0.95):")
print()
print(f"  {'A_max':>6}  {'median coverage':>16}  {'successes':>9}")
for scenario, a_max in SCENARIOS:
    batch = execute_batch(parse_config(f"scenario = {scenario}\nruns = 5\n"))
    coverages = sorted(final_coverage(t.telemetry) for t in batch.telemetries)
    median = coverages[len(coverages) // 2]
    wins = sum(c >= 0.95 for c in coverages)
    print(f"  {a_max:>6}  {median:>16.2f}  {wins:>6}/5")

print()
print("With 1000 generations and 6 additions per generation, 6000 snapshots")
print("compete for the archive's slots; at A_max = 3000 enough of the visited")
print("region stays remembered for the search to keep pushing into new bins.")
