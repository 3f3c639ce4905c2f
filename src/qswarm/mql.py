"""Q-learning-driven swarm engine.

Each particle senses the peers strictly within the radius ``epsilon``,
summarises that neighbourhood into one of five coarse states, and greedily
picks one of twelve axis-aligned steps (two axes x two directions x three
magnitudes) from its own utility table. The step is scaled by

    pi = min(1, |D| / (n * epsilon)),   pi = 1 when neighbourless,

where D = (sum of neighbour distances) - n * epsilon, so motion dies out as
the neighbourhood approaches the rim of the sensing disc. After everyone
moved, each particle is scored on its new surroundings:

    -reward_max   no neighbours (contact lost) or any peer closer than d_min
    +reward_max   |D| within the tolerance band tau_r * n * epsilon
    -min(|D|, reward_max)   otherwise

and its table is updated with the post-move state as the lookahead. The whole
tick is deterministic given the seed: random draws happen only in the
selection phase, in particle-index order.

Note that a neighbourless particle keeps stepping at full scale but has no
homing signal, so losing contact is effectively permanent (``recover_lost``
adds a crude nearest-peer pursuit for experimentation; it defaults off).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .core import (DENSE_PAIRS, NeighborList, Vec2, WorldBounds, clamp, is_finite,
                   mover_blocks, neighbor_blocks, pairwise_distances, positions_array)
from .metrics import StateId, Trace
from .qlearning import LearningParams, epsilon_greedy_actions, td_update

NUM_STATES = len(StateId)
# two axes x two directions x three magnitudes (``build_actions``)
NUM_ACTIONS = 12

# the states and judge's constants as 0-d arrays for array code: numpy converts
# a Python scalar operand on every call, and enum members more slowly still
_DISCONNECTED, _TOO_CLOSE, _NEAR, _IDEAL, _FAR = (np.array(s.value) for s in StateId)
_ZERO, _ONE, _ONE_INT = np.array(0), np.array(1.0), np.array(1)

SCHEDULES = ("simultaneous", "round_robin")


@dataclass(frozen=True)
class ActionSpec:
    """One movement option: a step of ``magnitude`` along one axis."""

    axis: int         # 0 moves x, 1 moves y
    direction: int    # +1 forward, -1 backward
    magnitude: float

    @property
    def step(self) -> tuple[float, float]:
        """The (dx, dy) displacement at full scale. The other axis gets -0.0:
        x + -0.0 is x for every x, where +0.0 would turn a -0.0 into 0.0."""
        along = self.magnitude * self.direction
        return (along, -0.0) if self.axis == 0 else (-0.0, along)


def build_actions(step_set) -> tuple[ActionSpec, ...]:
    """The fixed 12-action enumeration: axes outer, directions middle,
    magnitudes inner, so action ids are stable for a given step set."""
    return _action_table(tuple(float(m) for m in step_set))[0]


@lru_cache(maxsize=32)
def _action_table(step_set: tuple[float, ...]):
    # the actions of one step set and their (12, 2) full-scale steps, built
    # once and shared by every engine (the array is read-only)
    actions = tuple(
        ActionSpec(axis=axis, direction=direction, magnitude=m)
        for axis in (0, 1)
        for direction in (1, -1)
        for m in step_set
    )
    steps = np.array([a.step for a in actions])
    steps.flags.writeable = False
    return actions, steps


@dataclass(frozen=True)
class MqlParams:
    """Tunables of the learning swarm.

    ``d_min`` defaults to 0.2 * epsilon. ``init_span`` is the side of the
    centred square the swarm is seeded in (None picks epsilon * sqrt(M) / 2, a
    staging cluster dense enough to start fully connected).
    """

    epsilon: float = 10.0
    d_min: float | None = None
    tau_r: float = 0.02
    tau_s: float = 0.05
    reward_max: float = 100.0
    step_set: tuple[float, float, float] = (0.5, 1.0, 2.0)
    learning: LearningParams = field(default_factory=LearningParams)
    schedule: str = "simultaneous"
    init_span: float | None = None
    recover_lost: bool = False

    def __post_init__(self):
        if not (is_finite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"mql.epsilon must be > 0, got {self.epsilon!r}")
        if self.d_min is None:
            object.__setattr__(self, "d_min", 0.2 * self.epsilon)
        if not (is_finite(self.d_min) and 0.0 < self.d_min < self.epsilon):
            raise ValueError(
                f"mql.d_min must satisfy 0 < d_min < epsilon, got d_min={self.d_min!r} "
                f"with epsilon={self.epsilon!r}"
            )
        for name in ("tau_r", "tau_s"):
            v = getattr(self, name)
            if not (is_finite(v) and 0.0 < v < 1.0):
                raise ValueError(f"mql.{name} must be in (0, 1), got {v!r}")
        if not (is_finite(self.reward_max) and self.reward_max > 0):
            raise ValueError(f"mql.reward_max must be > 0, got {self.reward_max!r}")
        try:
            steps = tuple(float(s) for s in self.step_set)
        except OverflowError:  # an integer past the largest float
            steps = ()
        if len(steps) != 3 or not (0 < steps[0] < steps[1] < steps[2] < math.inf):
            raise ValueError(
                f"mql.step_set must be three ascending finite magnitudes > 0, got {self.step_set!r}"
            )
        object.__setattr__(self, "step_set", steps)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"mql.schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.init_span is not None and not (is_finite(self.init_span) and self.init_span > 0):
            raise ValueError(f"mql.init_span must be > 0 or null, got {self.init_span!r}")


# --- neighbourhood rules ------------------------------------------------------
#
# Every judgement below reduces a particle's neighbourhood to three numbers:
# the neighbour count n, the total neighbour distance, and the smallest
# neighbour distance. ``summarize`` computes them from any block of an
# epsilon-query, and ``judge`` turns them into every rule's outcome (state,
# step scale, reward) in one pass. The engine summarizes each block of its
# query and judges the sensed rows at once (``MqlEngine._sense``), for a
# whole swarm (``core.NeighborList`` or ``core.neighbor_blocks``) and for the
# rows a round-robin mover can change (``core.mover_blocks``). The public
# per-particle operations run them on the one-row block of their particle's
# query.

# the bits of +inf, the lowest distance of a neighbourless row
_INF_BITS = np.array(np.inf).view(np.uint64)


def summarize(dist: np.ndarray, mask: np.ndarray):
    """(n, total, lowest) arrays over the columns of ``dist`` (C, K), one a
    query row as ``core.neighbor_blocks`` lays them out, counting the peers
    ``mask`` picks; a neighbourless row gets (0, 0.0, inf).

    Each total is a sum down its column in row order (non-neighbours add
    0.0), so it is bit-reproducible against any independent accumulation in
    the same order. numpy reduces axis 0 of a C-contiguous (C, K) block one
    (K,) line at a time, summing pairwise only along a fast axis (see
    ``numpy.sum``); a one-row block (K = 1), whose axis 0 is the fast one,
    keeps a running sum instead.

    The neighbours are picked branch-free, by bitwise operations on the
    distances' bits with one word a cell: all zeros for a neighbour, all
    ones otherwise. OR-ed with it, a distance stays as it is or becomes all
    ones, the largest word, and the lowest is the minimum of those words read
    as unsigned integers (distances below epsilon are never negative or NaN,
    so they order as their bits do). XOR-ed with the same word again, a
    neighbour's distance comes back and any other cell, NaN and inf
    included, becomes +0.0 for the total. ``np.where`` gives the same bits
    but branches on every cell, which an irregular mask mispredicts: on a
    (41, 400) block it took 59 us against about 5 us for such an operation,
    on a 2-CPU x86 VM.
    """
    # the ufuncs called directly: their method and function wrappers cost
    # more than the work on a few-particle swarm
    picked = mask.astype(np.int64)
    n = np.add.reduce(picked, axis=0)
    other = np.subtract(picked, _ONE_INT, out=picked)
    low = np.bitwise_or(dist.view(np.int64), other)
    chosen = np.bitwise_xor(low, other).view(np.float64)
    if chosen.shape[1] > 1:
        total = np.add.reduce(chosen, axis=0)
    else:
        total = np.add.accumulate(chosen, axis=0)[-1]
    lowest = np.minimum.reduce(low.view(np.uint64), axis=0, initial=_INF_BITS)
    return n, total, lowest.view(np.float64)


def judge(n, total, lowest, params):
    """(states, pi, rewards) of each neighbourhood (n, total, lowest), from
    one D = total - n * epsilon and one rho = D / (n * epsilon): the state
    (disconnection and overlap first, then rho against tau_s), the step scale
    pi = min(1, |rho|), 1 when neighbourless (|D| / x and |D / x| round alike
    for x > 0), and the reward (-reward_max for lost contact or any overlap,
    +reward_max inside the band |D| <= tau_r * n * epsilon, else -|D| capped
    at reward_max). ``params`` holds float scalars or 0-d float64 arrays (``_judged``)."""
    eps = params.epsilon
    x = n * eps
    dev = total - x
    # max(n * eps, eps) is max(n, 1) * eps bit for bit: n * eps >= eps for n >= 1
    rho = dev / np.maximum(x, eps)
    pi = np.abs(rho)
    lost = n == _ZERO
    # lowest priority first, so each later test overrides the earlier ones
    states = np.where(rho < _ZERO, _NEAR, _FAR)
    states[pi <= params.tau_s] = _IDEAL
    states[lowest < params.d_min] = _TOO_CLOSE
    states[lost] = _DISCONNECTED
    np.minimum(pi, _ONE, out=pi)
    pi[lost] = _ONE
    dev = np.abs(dev)
    r = np.negative(np.minimum(dev, params.reward_max))
    r[dev <= params.tau_r * n * eps] = params.reward_max
    r[states <= _TOO_CLOSE] = -params.reward_max
    return states, pi, r


def move(pos_rows: np.ndarray, steps: np.ndarray, pi, world: WorldBounds) -> np.ndarray:
    """Displace each row by pi times its full-scale step (see
    ``ActionSpec.step``), then clamp both coordinates into the world."""
    return clamp(pos_rows + pi[:, None] * steps, world.lo, world.hi)


def _judged(params: MqlParams) -> SimpleNamespace:
    # judge's scalars as 0-d float64 arrays: numpy need not convert them on each
    # call, and an integer epsilon as written would wrap n * epsilon in int64
    return SimpleNamespace(**{name: np.array(float(getattr(params, name))) for name in
                              ("epsilon", "tau_s", "d_min", "reward_max", "tau_r")})


def _judge_one(i: int, positions, params: MqlParams):
    (_, _, dist, mask), = neighbor_blocks(positions_array(positions), [i], params.epsilon)
    return judge(*summarize(dist, mask), _judged(params))


def neighborhood(i: int, positions, epsilon: float) -> set[int]:
    """Ids of the peers strictly within ``epsilon`` of particle ``i``
    (a peer at exactly epsilon is out of contact). Never contains ``i``."""
    (_, cols, _, mask), = neighbor_blocks(positions_array(positions), [i], epsilon)
    return set(cols[mask].tolist())


def encode_state(i: int, positions, params: MqlParams) -> StateId:
    """Coarse observation for particle ``i`` (see ``judge``)."""
    return StateId(int(_judge_one(i, positions, params)[0][0]))


def step_scale_pi(i: int, positions, params: MqlParams) -> float:
    """Mobility multiplier in [0, 1]: full when neighbourless, shrinking to 0
    as the neighbourhood reaches the ideal total distance."""
    return float(_judge_one(i, positions, params)[1][0])


def apply_action(pos: Vec2, action: ActionSpec, pi: float, world: WorldBounds) -> Vec2:
    """Displace ``pos`` by pi * magnitude along the action's axis and clamp."""
    x, y = move(np.array([pos.as_tuple()]), np.array([action.step]), np.array([pi]),
                world)[0].tolist()
    return Vec2(x, y)


def reward(i: int, positions, params: MqlParams) -> float:
    """Score particle ``i`` on (post-move) positions: -reward_max for lost
    contact or any overlap, +reward_max inside the rim tolerance band, else
    -|D| capped at reward_max. Always within [-reward_max, +reward_max]."""
    return float(_judge_one(i, positions, params)[2][0])


class MqlEngine:
    """Stateful learning swarm with a fixed particle count, held as arrays:
    positions ``pos`` (M, 2) and every utility table in ``q`` (M, states,
    actions). ``sensed`` carries the swarm's judged neighbourhoods (n, states,
    pi, rewards), each (M,): the neighbour count and the ``judge`` of every
    particle, from one tick to the next (zeros before the first sensing).

    Random draws are consumed in a documented order: first 2*M uniform draws
    for the initial positions (particle order, x then y), then per tick the
    selection draws in particle-index order. Identical (config, seed) pairs
    therefore reproduce bit-identical traces.
    """

    def __init__(self, m: int, params: MqlParams, world: WorldBounds,
                 rng: np.random.Generator,
                 initial_positions: list[Vec2] | None = None):
        if m < 1:
            raise ValueError(f"swarm size must be >= 1, got {m}")
        # judge computes n * epsilon in floats for up to m - 1 neighbours; an
        # infinite product turns into NaN positions
        if not math.isfinite((m - 1) * float(params.epsilon)):
            raise ValueError(f"(swarm size - 1) * mql.epsilon must be finite, got swarm size "
                             f"{m} with epsilon={params.epsilon!r}")
        self.params = params
        self._rules = _judged(params)
        self.world = world
        self.rng = rng
        self.actions, self._steps = _action_table(params.step_set)
        self.tick_index = 0

        if initial_positions is not None:
            if len(initial_positions) != m:
                raise ValueError(
                    f"initial_positions has {len(initial_positions)} entries for swarm size {m}"
                )
            start = positions_array(initial_positions)
            if not np.isfinite(start).all():
                raise ValueError("initial_positions must be finite")
            self.pos = clamp(start, world.lo, world.hi)
        else:
            span = params.init_span
            if span is None:
                span = params.epsilon * math.sqrt(m) / 2.0
            span = min(span, world.width, world.height)
            center = world.center()
            low = np.array([center.x - span / 2.0, center.y - span / 2.0])
            self.pos = low + span * rng.random((m, 2))
        self.q = np.zeros((m, NUM_STATES, len(self.actions)))
        self._ids = np.arange(m)
        # (n, states, pi, rewards) of every particle, sensed on the bytes _sensed_on
        self.sensed = (np.zeros(m, dtype=int), np.zeros(m, dtype=int), np.zeros(m), np.zeros(m))
        self._sensed_on = None
        # the Verlet list of a simultaneous swarm past the dense crossover
        self._list = (NeighborList(params.epsilon)
                      if params.schedule == "simultaneous" and m * m >= DENSE_PAIRS else None)

    @property
    def m(self) -> int:
        return len(self.pos)

    def positions(self) -> list[Vec2]:
        return [Vec2(x, y) for x, y in self.pos.tolist()]

    def _sense(self, blocks) -> None:
        """Summarize each block ``(block, cols, dist, mask)`` of an
        epsilon-query, then judge all their rows at once and book the results
        to those rows in ``sensed``."""
        found = [(block, *summarize(dist, mask)) for block, _, dist, mask in blocks]
        if len(found) > 1:
            found = [tuple(np.concatenate(parts) for parts in zip(*found))]
        (rows, n, total, lowest), = found
        for carried, values in zip(self.sensed, (n, *judge(n, total, lowest, self._rules))):
            carried[rows] = values
        self._sensed_on = self.pos.tobytes()

    def _sense_swarm(self) -> None:
        """Sense every particle afresh, through the neighbour list if there is
        one, unless ``pos`` holds the bytes ``sensed`` was sensed on (the list
        checks its own: an outside write is a displacement like any other)."""
        if self.pos.tobytes() != self._sensed_on:
            self._sense(self._list.blocks(self.pos) if self._list is not None
                        else neighbor_blocks(self.pos, self._ids, self.params.epsilon))

    def _select(self, states, ids) -> np.ndarray:
        explore_rate = self.params.learning.explore_rate
        if not self.params.recover_lost:
            return epsilon_greedy_actions(self.q[ids, states], explore_rate, self.rng)
        actions = np.empty(len(ids), dtype=np.int64)
        pursuing = (states == _DISCONNECTED) & (self.m > 1)
        if pursuing.any():
            pursuers = ids[pursuing]
            actions[pursuing] = self._pursuit_actions(pairwise_distances(self.pos, pursuers),
                                                      pursuers)
        learning = ~pursuing
        actions[learning] = epsilon_greedy_actions(
            self.q[ids[learning], states[learning]], explore_rate, self.rng)
        return actions

    def _pursuit_actions(self, dist_rows, rows) -> np.ndarray:
        # crude homing: longest step along the dominant axis towards the
        # nearest peer (recover_lost only; no learning signal, no draws)
        d = dist_rows.copy()
        d[np.arange(len(rows)), rows] = np.inf
        delta = self.pos[d.argmin(axis=1)] - self.pos[rows]
        axis = (np.abs(delta[:, 0]) < np.abs(delta[:, 1])).astype(np.int64)
        backward = delta[np.arange(len(rows)), axis] < 0
        # build_actions order: axis outer, direction (+1, -1) middle, magnitude inner
        return 6 * axis + 3 * backward + 2

    def tick(self, rows: Trace | None = None) -> Trace:
        """One step of the movers: every particle (simultaneous) or particle
        tick % M (round_robin). Movers choose on the summary sensed at the
        start of the tick, move together, and are scored and updated on the
        summary sensed after the move. The tick's row goes into ``rows`` (a
        one-tick Trace such as ``Trace.at`` of the run's trace; None: a fresh
        one), which is returned: movers carry their state, action and reward,
        the rest their current state and no decision.

        The summary is carried from tick to tick and re-sensed only in the
        rows a move can change (``core.mover_blocks``). Each sensed row is
        judged once (``judge``), and every row afresh after a simultaneous
        move or an outside write to ``pos``."""
        prm = self.params
        self._sense_swarm()
        # the movers as a slice of the particles, and their ids
        if prm.schedule == "round_robin":
            i = self.tick_index % self.m
            movers = slice(i, i + 1)
        else:
            movers = slice(None)
        ids = self._ids[movers]
        some_stay = len(ids) < self.m

        # a copy: the re-sensing below may write the summary in place
        states = self.sensed[1][movers].copy()
        actions = self._select(states, ids)
        before = pairwise_distances(self.pos, ids) if some_stay else None
        self.pos[movers] = move(self.pos[movers], self._steps[actions],
                                self.sensed[2][movers], self.world)
        if some_stay:
            self._sense(mover_blocks(self.pos, before, pairwise_distances(self.pos, ids),
                                     prm.epsilon))
        self._sense_swarm()

        n1, states1, _, r1 = self.sensed
        r = r1[movers]
        td_update(self.q, ids, states, actions, r, states1[movers], prm.learning)

        rows = Trace.empty(1, self.m) if rows is None else rows
        rows.ticks[0] = self.tick_index
        rows.positions[0] = self.pos
        rows.state[0] = states1
        rows.state[0, movers] = states
        rows.action[0] = -1
        rows.action[0, movers] = actions
        rows.reward[0] = np.nan
        rows.reward[0, movers] = r
        rows.neighbor_count[0] = n1
        self.tick_index += 1
        return rows
