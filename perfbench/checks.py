"""Output checks for one run_to_dir call: artifact digests and invariants.

The invariants are recomputed from the written files with code that shares
nothing with the engines, so an engine change cannot hide a defect by
breaking both sides at once.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

DIGESTED = ("trace", "summary")


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(paths: dict) -> list[str]:
    """[sha256(trace.csv), sha256(summary.json)] of one run."""
    return [sha256(paths[key]) for key in DIGESTED]


def _print_tolerance(cfg) -> float:
    # trace.csv prints 9 significant digits, so a coordinate is off by at most
    # half a unit in its 9th digit and a distance by about twice that.
    w = cfg.world
    magnitude = max(abs(w.x_min), abs(w.x_max), abs(w.y_min), abs(w.y_max), 1.0)
    return 4.0 * 10.0 ** (math.floor(math.log10(magnitude)) - 8)


def invariant_problems(cfg, paths: dict) -> list[str]:
    """Problems found in one run's artifacts; empty when every invariant holds.

    * every trace position lies inside the world;
    * final-tick neighbor_count equals a brute-force recount (up to the
      printed precision, pairs within its tolerance of epsilon may go
      either way);
    * mql rewards lie in [-reward_max, reward_max];
    * pso rows carry no state, action or reward;
    * effective_config.yaml reloads to the run's config.
    """
    from qswarm import load_config

    problems = []
    lines = Path(paths["trace"]).read_text().splitlines()
    header = "tick,particle,x,y,state,action,reward,neighbor_count"
    if not lines or lines[0] != header:
        return ["trace.csv header differs from " + header]
    m, t = cfg.swarm_size, cfg.iterations
    if len(lines) - 1 != m * t:
        return [f"trace.csv has {len(lines) - 1} rows, expected M*T = {m * t}"]
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    tick = np.array(cols[0], dtype=np.int64)
    particle = np.array(cols[1], dtype=np.int64)
    x = np.array(cols[2], dtype=float)
    y = np.array(cols[3], dtype=float)
    count = np.array(cols[7], dtype=np.int64)

    w = cfg.world
    outside = ~((x >= w.x_min) & (x <= w.x_max) & (y >= w.y_min) & (y <= w.y_max))
    if outside.any():
        problems.append(f"{int(outside.sum())} trace positions lie outside the world")

    last = np.flatnonzero(tick == t - 1)
    if not np.array_equal(particle[last], np.arange(m)):
        problems.append("final tick does not list particles 0..M-1 in order")
    else:
        fx, fy, fcount = x[last], y[last], count[last]
        eps, tol = cfg.mql.epsilon, _print_tolerance(cfg)
        wrong = 0
        for i in range(m):
            d = np.hypot(fx - fx[i], fy - fy[i])
            d[i] = np.inf
            if not (d < eps - tol).sum() <= fcount[i] <= (d < eps + tol).sum():
                wrong += 1
        if wrong:
            problems.append(f"{wrong} final-tick neighbor counts differ from a brute-force recount")

    state, action, reward = cols[4], cols[5], cols[6]
    if cfg.algorithm == "pso":
        if any(state) or any(action) or any(reward):
            problems.append("pso trace carries state, action or reward cells")
    else:
        r = np.array([v for v in reward if v], dtype=float)
        rmax = cfg.mql.reward_max
        if r.size == 0:
            problems.append("mql trace carries no rewards")
        elif not ((r >= -rmax) & (r <= rmax)).all():
            problems.append(f"mql rewards leave [-{rmax}, {rmax}]")

    if load_config(paths["config"]) != cfg:
        problems.append("effective_config.yaml does not reload to the run's config")
    return problems
