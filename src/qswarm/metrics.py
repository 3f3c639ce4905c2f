"""Trace records and swarm-level measurements.

Everything here is a pure function over immutable inputs: proximity-graph
components, cohesion fractions, centroid spread, reward bookkeeping, decision
quality, and permanent-disconnection onset.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import Vec2, adjacency_matrix, positions_array

if TYPE_CHECKING:
    from .mql import StateId


@dataclass(frozen=True)
class TickRecord:
    """One particle's log row for one iteration.

    ``position`` and ``neighbor_count`` reflect the end of the tick. ``state``
    is the state the action was chosen in; ``state``/``action``/``reward`` are
    None for rows without a decision (PSO runs, and non-movers in round-robin
    scheduling).
    """

    tick: int
    particle: int
    position: Vec2
    state: "StateId | None"
    action: int | None
    reward: float | None
    neighbor_count: int


def connectivity_components(positions, epsilon: float) -> list[int]:
    """Sizes of the connected components of the proximity graph with an edge
    between i and k iff distance < epsilon. Sorted descending; sums to M."""
    arr = positions_array(positions)
    m = arr.shape[0]
    if m < 1:
        raise ValueError("positions must contain at least one particle")
    adjacent = adjacency_matrix(arr, epsilon)

    seen = np.zeros(m, dtype=bool)
    sizes = []
    for start in range(m):
        if seen[start]:
            continue
        size = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            size += 1
            for peer in np.flatnonzero(adjacent[node]):
                if not seen[peer]:
                    seen[peer] = True
                    queue.append(int(peer))
        sizes.append(size)
    return sorted(sizes, reverse=True)


def connected_fraction(positions, epsilon: float) -> float:
    """Fraction of particles with at least one peer strictly within epsilon."""
    arr = positions_array(positions)
    if arr.shape[0] < 1:
        raise ValueError("positions must contain at least one particle")
    return float(adjacency_matrix(arr, epsilon).any(axis=1).mean())


def dispersion(positions) -> float:
    """Mean distance from each particle to the swarm centroid."""
    arr = positions_array(positions)
    if arr.shape[0] < 1:
        raise ValueError("positions must contain at least one particle")
    centroid = arr.mean(axis=0)
    return float(np.sqrt(((arr - centroid) ** 2).sum(axis=1)).mean())


def _particle_rows(trace: Iterable[TickRecord], particle: int) -> list[TickRecord]:
    rows = sorted((r for r in trace if r.particle == particle), key=lambda r: r.tick)
    if not rows:
        raise ValueError(f"trace contains no rows for particle {particle}")
    return rows


def cumulative_reward(trace: Sequence[TickRecord], particle: int) -> float:
    """Sum of all rewards the particle received over the trace (0.0 if none)."""
    rows = _particle_rows(trace, particle)
    return float(sum(r.reward for r in rows if r.reward is not None))


def classify_decisions(trace: Sequence[TickRecord], particle: int) -> list[str]:
    """Per acting tick: "good" iff the reward was strictly positive, else "bad".

    Rows without a reward (non-moving round-robin ticks) carry no decision and
    are skipped; in simultaneous scheduling every tick has one.
    """
    rows = _particle_rows(trace, particle)
    return ["good" if r.reward > 0 else "bad" for r in rows if r.reward is not None]


def drift_onset(trace: Sequence[TickRecord], particle: int) -> int | None:
    """First tick from which the particle stays neighbourless to the end of the
    trace; None if it ends the run connected."""
    counts = [r.neighbor_count for r in _particle_rows(trace, particle)]
    if counts[-1] > 0:
        return None
    onset = len(counts) - 1
    while onset > 0 and counts[onset - 1] == 0:
        onset -= 1
    return onset
