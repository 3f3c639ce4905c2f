"""Trace records and swarm-level measurements.

A run's trace is a ``Trace``: (T, M) columns with one row per tick and one
column per particle. The per-particle outcomes (drift onset, reward total,
decision series) are each computed for the whole swarm in one pass over those
columns; the per-particle functions are one-column calls of the same
functions, and every one of them accepts a ``Trace`` or a sequence of
``TickRecord``s (see ``as_trace``). The rest are pure functions of positions:
proximity-graph components, cohesion fractions and centroid spread.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .core import Vec2, neighbor_counts, neighbor_pairs, positions_array


class StateId(IntEnum):
    DISCONNECTED = 0   # no peer within the sensing radius
    TOO_CLOSE = 1      # some peer within the overlap floor d_min
    NEAR = 2           # neighbourhood noticeably tighter than the rim
    IDEAL = 3          # total neighbour distance within tau_s of n * epsilon
    FAR = 4            # total neighbour distance above the rim band


_STATES = tuple(StateId)  # indexed by id: a tuple lookup, where StateId(s) is a call


@dataclass(frozen=True)
class TickRecord:
    """One particle's log row for one iteration.

    ``position`` and ``neighbor_count`` reflect the end of the tick. ``state``
    is the state the action was chosen in; ``action``/``reward`` are None for
    rows without a decision (PSO runs, and non-movers in round-robin
    scheduling). ``state`` is None in PSO runs; a round-robin non-mover
    carries its current state.
    """

    tick: int
    particle: int
    position: Vec2
    state: StateId | None
    action: int | None
    reward: float | None
    neighbor_count: int


_COLUMNS = ("ticks", "positions", "state", "action", "reward", "neighbor_count")


class Trace(Sequence):
    """Log rows held as columns: ``ticks`` (T,) labels the rows, and
    ``positions`` (T, M, 2), ``state``, ``action``, ``reward`` and
    ``neighbor_count`` (T, M) hold one entry per tick and particle. A row
    without a decision has state and action -1 and reward NaN.

    As a ``Sequence[TickRecord]`` it lists the rows in (tick, particle) order
    and builds each record only when it is read.
    """

    __slots__ = _COLUMNS

    def __init__(self, ticks, positions, state, action, reward, neighbor_count):
        self.ticks = np.asarray(ticks, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=float)
        self.state = np.asarray(state, dtype=np.int64)
        self.action = np.asarray(action, dtype=np.int64)
        self.reward = np.asarray(reward, dtype=float)
        self.neighbor_count = np.asarray(neighbor_count, dtype=np.int64)
        shape = self.state.shape
        if len(shape) != 2 or self.ticks.shape != shape[:1] \
                or self.positions.shape != (*shape, 2) \
                or not self.action.shape == self.reward.shape == self.neighbor_count.shape == shape:
            raise ValueError("trace columns must be ticks (T,), positions (T, M, 2) "
                             "and (T, M) for the rest")

    @classmethod
    def from_rows(cls, tick, particle, positions, state, action, reward,
                  neighbor_count) -> Trace:
        """A Trace from flat per-row columns in any order; the rows must hold
        particles 0..M-1 at every tick, once each."""
        tick = np.asarray(tick, dtype=np.int64)
        particle = np.asarray(particle, dtype=np.int64)
        order = np.lexsort((particle, tick))
        ticks = np.unique(tick)
        m = len(tick) // max(len(ticks), 1)
        if not (np.array_equal(tick[order], np.repeat(ticks, m))
                and np.array_equal(particle[order], np.tile(np.arange(m), len(ticks)))):
            raise ValueError("trace rows must hold particles 0..M-1 at every tick, once each")
        shape = (len(ticks), m)
        return cls(ticks, np.asarray(positions, dtype=float)[order].reshape(*shape, 2),
                   *(np.asarray(col)[order].reshape(shape)
                     for col in (state, action, reward, neighbor_count)))

    @classmethod
    def from_records(cls, records) -> Trace:
        """A Trace from TickRecords in any order (see ``from_rows``)."""
        records = list(records)
        return cls.from_rows(
            [r.tick for r in records], [r.particle for r in records],
            np.array([(r.position.x, r.position.y) for r in records], dtype=float),
            [-1 if r.state is None else int(r.state) for r in records],
            [-1 if r.action is None else r.action for r in records],
            [np.nan if r.reward is None else r.reward for r in records],
            [r.neighbor_count for r in records])

    @classmethod
    def empty(cls, t: int, m: int) -> Trace:
        """A trace of T ticks and M particles whose entries are all still to
        be written (an engine's ``tick`` writes one tick's row)."""
        return cls(np.empty(t, np.int64), np.empty((t, m, 2)), np.empty((t, m), np.int64),
                   np.empty((t, m), np.int64), np.empty((t, m)), np.empty((t, m), np.int64))

    def window(self, start: int, stop: int) -> Trace:
        """Tick rows ``start`` to ``stop`` - 1 as a Trace sharing this trace's memory."""
        r = slice(start, stop)
        return Trace(self.ticks[r], self.positions[r], self.state[r], self.action[r],
                     self.reward[r], self.neighbor_count[r])

    def at(self, k: int) -> Trace:
        """Tick row ``k`` as a one-tick Trace sharing this trace's memory."""
        return self.window(k, k + 1)

    @property
    def shape(self) -> tuple[int, int]:
        """(T, M): ticks by particles."""
        return self.state.shape

    def column(self, particle: int) -> Trace:
        """The (T, 1) trace of one particle."""
        if not 0 <= particle < self.shape[1]:
            raise ValueError(f"trace contains no rows for particle {particle}")
        one = slice(particle, particle + 1)
        return Trace(self.ticks, *(getattr(self, c)[:, one] for c in _COLUMNS[1:]))

    def __len__(self) -> int:
        t, m = self.shape
        return t * m

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self[k] for k in rows]
        return next(self._records(rows, rows + 1))

    def __iter__(self):
        return self._records(0, len(self))

    def _records(self, start: int, stop: int):
        ticks = self.ticks.tolist()
        m = self.shape[1]
        xy = self.positions.ravel()[2 * start:2 * stop].tolist()
        # Vec2's finiteness check, once for the whole read: the first
        # non-finite position raises Vec2's own ValueError
        if not all(map(math.isfinite, xy)):
            k = next(k for k, v in enumerate(xy) if not math.isfinite(v)) & ~1
            Vec2(xy[k], xy[k + 1])
        # so each record and position is made without its dataclass __init__,
        # whose one object.__setattr__ per field costs more than the row
        new, flat = object.__new__, slice(start, stop)
        rows = zip(range(start, stop), xy[0::2], xy[1::2], self.state.ravel()[flat].tolist(),
                   self.action.ravel()[flat].tolist(), self.reward.ravel()[flat].tolist(),
                   self.neighbor_count.ravel()[flat].tolist())
        for k, x, y, s, a, r, c in rows:
            position = new(Vec2)
            position.__dict__.update(x=x, y=y)
            record = new(TickRecord)
            record.__dict__.update(
                tick=ticks[k // m], particle=k % m, position=position,
                state=None if s < 0 else _STATES[s], action=None if a < 0 else a,
                reward=None if math.isnan(r) else r, neighbor_count=c)
            yield record

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c),
                                  equal_nan=c == "reward") for c in _COLUMNS)


def as_trace(trace) -> Trace:
    """A Trace from a Trace (returned as is) or a sequence of TickRecords."""
    return trace if isinstance(trace, Trace) else Trace.from_records(trace)


def connectivity_components(positions, epsilon: float) -> list[int]:
    """Sizes of the connected components of the proximity graph, whose edges
    join epsilon-neighbours (``core.neighbor_pairs``). Sorted descending;
    sums to M."""
    arr = positions_array(positions)
    m = arr.shape[0]
    if m < 1:
        raise ValueError("positions must contain at least one particle")
    root, edges, pending = np.arange(m), [], 0
    for rows, cols, mask in neighbor_pairs(arr, epsilon):
        r, c = np.nonzero(mask)
        edges.append((rows[r], cols[c]))
        pending += len(r)
        # a round of _union costs O(M) whatever its edges: join at least M
        # edges a call, and hold no more than about M + BLOCK_ENTRIES
        if pending >= m:
            _union(root, *map(np.concatenate, zip(*edges)))
            edges, pending = [], 0
    if edges:
        _union(root, *map(np.concatenate, zip(*edges)))
    sizes = np.bincount(root)
    return sorted(sizes[sizes > 0].tolist(), reverse=True)


def _union(root: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Join the ends of the edges (u, v) in the union-find forest ``root``,
    in place. On entry and exit every particle points at its component's
    root, the lowest id in it: each round hooks the higher root of every
    edge that still spans two components under the lower one (so at least
    one root is hooked a round), then points every particle at its root."""
    while True:
        ru, rv = root[u], root[v]
        split = ru != rv
        if not split.any():
            return
        u, v, ru, rv = u[split], v[split], ru[split], rv[split]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root[:] = up


def connected_fraction(positions, epsilon: float) -> float:
    """Fraction of particles with at least one peer strictly within epsilon."""
    arr = positions_array(positions)
    if arr.shape[0] < 1:
        raise ValueError("positions must contain at least one particle")
    return float((neighbor_counts(arr, epsilon) > 0).mean())


def dispersion(positions) -> float:
    """Mean distance from each particle to the swarm centroid."""
    arr = positions_array(positions)
    if arr.shape[0] < 1:
        raise ValueError("positions must contain at least one particle")
    centroid = arr.mean(axis=0)
    return float(np.sqrt(((arr - centroid) ** 2).sum(axis=1)).mean())


class RunningTotals:
    """Per-particle reward totals, drift onsets and the last tick's neighbour
    counts of a trace fed to ``add`` a block of whole consecutive ticks at a
    time, in tick order, holding (M,) arrays only; ``cumulative_rewards`` and
    ``drift_onsets`` feed it a whole trace as one block.

    A reward total is a running sum from 0.0 in tick order, a row without a
    reward adding 0.0, so it has the bits of adding the particle's rewards one
    at a time (a pairwise ``.sum()`` would not), however the ticks are cut
    into blocks. ``add`` adds the carried sums into the block's first
    row (x + y and y + x are the same float), then sums the block down each
    column. numpy reduces a non-fast axis a row at a time, one IEEE addition
    an entry, summing pairwise only along the fast axis (see ``numpy.sum``
    and ``mql.summarize``), so a block of M >= 2 columns is one reduction over
    axis 0; a one-column block keeps the running sum, since there axis 0 is
    the fast axis.
    """

    def __init__(self, m: int):
        self.rewards = np.zeros(m)
        self.last_connected = np.full(m, -1)
        self.last_counts = None
        self.ticks = 0

    def add(self, block: Trace) -> None:
        if block.shape[0] == 0:
            return
        steps = np.where(np.isnan(block.reward), 0.0, block.reward)
        steps[0] += self.rewards
        if steps.shape[1] > 1:
            self.rewards = np.add.reduce(steps, axis=0)
        else:
            self.rewards = np.add.accumulate(steps, axis=0)[-1]
        rows = np.arange(self.ticks, self.ticks + len(steps))[:, None]
        connected = np.where(block.neighbor_count > 0, rows, -1).max(axis=0)
        np.maximum(self.last_connected, connected, out=self.last_connected)
        self.last_counts = block.neighbor_count[-1].copy()
        self.ticks += len(steps)

    def cumulative_rewards(self) -> list[float]:
        """``cumulative_rewards`` of the ticks added so far."""
        return self.rewards.tolist()

    def drift_onsets(self) -> list[int | None]:
        """``drift_onsets`` of the ticks added so far."""
        return [None if k == self.ticks - 1 else k + 1 for k in self.last_connected.tolist()]


def _totals(trace) -> RunningTotals:
    tr = as_trace(trace)
    totals = RunningTotals(tr.shape[1])
    totals.add(tr)
    return totals


def drift_onsets(trace) -> list[int | None]:
    """Per particle, the first tick from which it stays neighbourless to the
    end of the trace (counted in rows from the trace's first tick); None if
    it ends the trace connected."""
    return _totals(trace).drift_onsets()


def cumulative_rewards(trace) -> list[float]:
    """Per particle, the sum of its rewards in tick order (0.0 if none),
    added one at a time from 0.0 (see ``RunningTotals``)."""
    return _totals(trace).cumulative_rewards()


def decision_series(trace) -> list[list[str]]:
    """Per particle, per acting tick: "good" iff the reward was strictly
    positive, else "bad".

    Rows without a reward (PSO rows, non-moving round-robin ticks) carry no
    decision and are skipped; in simultaneous scheduling every tick has one.
    """
    tr = as_trace(trace)
    acted = ~np.isnan(tr.reward)
    good = np.where(tr.reward > 0, "good", "bad")
    return [g[a].tolist() for g, a in zip(good.T, acted.T)]


def drift_onset(trace, particle: int) -> int | None:
    """``drift_onsets`` of one particle."""
    return drift_onsets(as_trace(trace).column(particle))[0]


def cumulative_reward(trace, particle: int) -> float:
    """``cumulative_rewards`` of one particle."""
    return cumulative_rewards(as_trace(trace).column(particle))[0]


def classify_decisions(trace, particle: int) -> list[str]:
    """``decision_series`` of one particle."""
    return decision_series(as_trace(trace).column(particle))[0]
