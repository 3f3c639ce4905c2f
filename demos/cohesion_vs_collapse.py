"""Side-by-side run of the two engines from one seed.

The learning swarm is rewarded for keeping every sensed peer near the rim of
its sensing disc, so it spreads into a loose connected lattice. The baseline
swarm chases a single global best and piles onto one spot. This script runs
both for 500 ticks, prints the trajectory of the two headline metrics, and
(when matplotlib is installed) saves scatter plots of the snapshots.

Run from the repository root:  python3 demos/cohesion_vs_collapse.py
"""

from dataclasses import replace

import numpy as np

from qswarm import (connected_fraction, dispersion, pairwise_distances,
                    positions_array, preset, run_experiment)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    HAVE_MPL = True
except ImportError:
    HAVE_MPL = False

SEED = 11

mql_cfg, pso_cfg = preset("fig3-compare")
mql_cfg = replace(mql_cfg, seed=SEED, snapshot_ticks=(0, 10, 50, 500))
pso_cfg = replace(pso_cfg, seed=SEED, snapshot_ticks=(0, 10, 50, 500))


def overlap_fraction(positions, floor):
    """Fraction of particle pairs closer than the overlap floor."""
    d = pairwise_distances(positions_array(positions))
    upper = np.triu_indices(len(positions), k=1)
    return float((d[upper] < floor).mean())


print(f"swarm size {mql_cfg.swarm_size}, {mql_cfg.iterations} ticks, "
      f"sensing radius {mql_cfg.mql.epsilon}, seed {SEED}")
print()
print("spread = mean distance to the centroid; connected = fraction with a")
print("peer in sensing range; overlap = fraction of pairs closer than d_min")
print("(a collapsed swarm is 'connected' too, but only by sitting on one spot)")
print()
header = f"{'spread':>7} {'conn':>5} {'overlap':>8}"
print(f"{'tick':>6} | learning: {header} | baseline: {header}")

results = {}
for cfg in (mql_cfg, pso_cfg):
    trace, snapshots, summary = run_experiment(cfg)
    results[cfg.algorithm] = (snapshots, summary)

epsilon = mql_cfg.mql.epsilon
floor = mql_cfg.mql.d_min
for tick in (0, 10, 50, 500):
    mq = results["mql"][0][tick]
    ps = results["pso"][0][tick]
    print(f"{tick:>6} |           {dispersion(mq):>7.2f} "
          f"{connected_fraction(mq, epsilon):>5.2f} {overlap_fraction(mq, floor):>8.2f} "
          f"|           {dispersion(ps):>7.2f} "
          f"{connected_fraction(ps, epsilon):>5.2f} {overlap_fraction(ps, floor):>8.2f}")

print()
for algo in ("mql", "pso"):
    summary = results[algo][1]
    print(f"{algo}: dispersion {summary.initial_dispersion:.2f} -> "
          f"{summary.final_dispersion:.2f}, final connected fraction "
          f"{summary.final_connected_fraction:.2f}, components at t=500: "
          f"{summary.snapshot_components[500]}")

if HAVE_MPL:
    fig, axes = plt.subplots(2, 4, figsize=(16, 8))
    for row, algo in enumerate(("mql", "pso")):
        snapshots = results[algo][0]
        for col, tick in enumerate((0, 10, 50, 500)):
            ax = axes[row][col]
            xs, ys = snapshots[tick].T
            ax.scatter(xs, ys, s=25, c="tab:blue" if algo == "mql" else "tab:red")
            ax.set_xlim(0, 100)
            ax.set_ylim(0, 100)
            ax.set_title(f"{algo} after {tick} ticks")
    fig.tight_layout()
    fig.savefig("cohesion_vs_collapse.png", dpi=110)
    print("\nsaved cohesion_vs_collapse.png")
else:
    print("\nmatplotlib not installed; skipping the scatter plots")
