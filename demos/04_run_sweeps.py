"""Run the two headline sweeps at reduced load.

Sweep 1: average response hops vs cache size (1%..10% of the catalog).
Sweep 2: average response hops vs Zipf skew at a 5% cache.

Full-load versions (10 seeds, 3000 requests/epoch) take a few minutes;
this demo trims the seeds and request volume so it finishes quickly.
Summary CSVs land in ./cache_size_results and ./alpha_results.
"""

import csv

from cachenet.experiment import alpha_sweep_spec, cache_size_sweep_spec, run_experiment

light = dict(seeds=[0, 1, 2], requests_per_epoch=1000, epochs=4, warmup_epochs=1)


def show(summary_path, xlabel):
    with open(summary_path) as fh:
        rows = list(csv.reader(fh))[1:]
    schemes = sorted({r[1] for r in rows})
    values = sorted({float(r[0]) for r in rows})
    means = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    print(f"\n{xlabel:>8}  " + "  ".join(f"{s:>13}" for s in schemes))
    for v in values:
        print(f"{v:8.2f}  " + "  ".join(f"{means[(v, s)]:13.3f}" for s in schemes))


_, summary_cs = run_experiment(cache_size_sweep_spec(**light, output="cache_size_results"))
show(summary_cs, "cache")

_, summary_a = run_experiment(alpha_sweep_spec(**light, output="alpha_results"))
show(summary_a, "alpha")

print("\nfull CSVs: cache_size_results/, alpha_results/ (per_run.csv + summary.csv)")
