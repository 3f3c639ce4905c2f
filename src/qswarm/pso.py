"""Continuous particle swarm baseline.

The velocity rule is, deliberately, the memoryless variant

    v(t+1) = constriction * w_t * (c1*r1*(pbest - x) + c2*r2*(gbest - x))

with per-component clamping to [v_min, v_max] and inertia decaying
geometrically, w_{t+1} = w_t * inertia_decrement. Setting
``canonical_velocity`` restores the conventional rule that keeps the previous
velocity, v(t+1) = constriction * (w_t * v(t) + c1*r1*(pbest-x) + c2*r2*(gbest-x)).

Fitness is minimised; the default objective is the distance to a fixed target
point, which drives the whole swarm onto (nearly) one spot — the collapse this
baseline exists to demonstrate.

The swarm is held as arrays (see ``PsoEngine``) and each rule is one array
function over its rows: ``Objective.fitness``, ``velocity_update`` and the
clamp (``core.clamp``, shared with the learning swarm), which ``pso_step``
applies to the whole swarm once per tick. They give the same bits as
evaluating the rules one particle at a time in Python floats: squares are
taken with ``np.float_power(d, 2.0)``, which is libm ``pow`` like Python's
``d ** 2`` (``d * d`` differs from it in the last bit on some floats), and the
clamp keeps the tie rule of ``min(max(v, lo), hi)``, so a bound of -0.0
leaves the same signed zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Vec2, WorldBounds, clamp, is_finite, neighbor_counts
from .metrics import Trace


@dataclass(frozen=True)
class Objective:
    """Cost function over positions: the Euclidean distance to ``target``."""

    target: Vec2 = Vec2(50.0, 50.0)

    def fitness(self, pos: np.ndarray) -> np.ndarray:
        """(K,) distances from the rows of ``pos`` (K, 2) to the target,
        bit-identical to ``core.euclidean_distance`` row by row."""
        d = pos - self.target.as_tuple()
        return np.sqrt(np.float_power(d, 2.0).sum(axis=1))


@dataclass(frozen=True)
class PsoParams:
    c1: float = 2.0
    c2: float = 2.0
    inertia_w0: float = 0.9
    inertia_decrement: float = 0.99
    constriction: float = 1.0
    v_min: float = -2.0
    v_max: float = 2.0
    canonical_velocity: bool = False
    bounds: WorldBounds = field(default_factory=WorldBounds)

    def __post_init__(self):
        for name in ("c1", "c2", "inertia_w0", "inertia_decrement", "constriction",
                     "v_min", "v_max"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"pso.{name} must be finite")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError(f"pso.c1/pso.c2 must be >= 0, got ({self.c1}, {self.c2})")
        if not 0.0 < self.inertia_w0 <= 1.0:
            raise ValueError(f"pso.inertia_w0 must be in (0, 1], got {self.inertia_w0}")
        if not 0.0 < self.inertia_decrement <= 1.0:
            raise ValueError(f"pso.inertia_decrement must be in (0, 1], got {self.inertia_decrement}")
        if not 0.0 <= self.constriction <= 1.0:
            raise ValueError(f"pso.constriction must be in [0, 1], got {self.constriction}")
        if not self.v_min < self.v_max:
            raise ValueError(f"pso.v_min must be < pso.v_max (got {self.v_min} >= {self.v_max})")
        # An infinite velocity turns into NaN positions (through inf - inf or
        # 0 * inf). The initial velocities are v_min + (v_max - v_min) * u. A
        # pull c * r * (best - x) has r in [0, 1) and |best - x| at most W =
        # max(width, height), since rounding is monotone, so the pulls sum to
        # at most (c1 + c2) * W, plus w_t * |v| <= max(|v_min|, |v_max|) under
        # canonical_velocity; inertia and constriction, at most 1, only shrink
        # that. Each of the few roundings on the way and in this check errs by
        # at most 2**-53 of its result, which the margin of 2**-40 covers.
        # in floats, as the engine computes: a large integer gives inf, not OverflowError
        if not math.isfinite(float(self.v_max) - float(self.v_min)):
            raise ValueError(f"pso.v_max - pso.v_min must be finite, got {self.v_min} .. {self.v_max}")
        pull = (float(self.c1) + float(self.c2)) * max(self.bounds.width, self.bounds.height)
        if self.canonical_velocity:
            pull += max(abs(self.v_min), abs(self.v_max))
        if not math.isfinite(pull * (1.0 + 2.0 ** -40)):
            raise ValueError(
                f"pso velocity may overflow: (c1 + c2) * max(world width, height)"
                f"{' + max(|v_min|, |v_max|)' if self.canonical_velocity else ''} "
                f"must stay below the largest float, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class PsoParticle:
    """One row of ``PsoEngine.swarm``, a read-only view of the engine's arrays."""

    position: Vec2
    velocity: Vec2
    best_position: Vec2
    best_fitness: float


def velocity_update(pos: np.ndarray, vel: np.ndarray, best_pos: np.ndarray, gbest,
                    r: np.ndarray, w_t: float, params: PsoParams) -> np.ndarray:
    """(K, 2) new velocities for rows at ``pos`` with velocities ``vel`` and
    personal bests ``best_pos``, pulled towards ``gbest`` with each row's draws
    (r1, r2) in ``r`` (K, 2): the pbest/gbest pulls, scaled by inertia and the
    constriction factor, then clamped per component to [v_min, v_max]."""
    dv = params.c1 * r[:, :1] * (best_pos - pos) + params.c2 * r[:, 1:] * (gbest - pos)
    if params.canonical_velocity:
        v = params.constriction * (w_t * vel + dv)
    else:
        v = params.constriction * w_t * dv
    return clamp(v, params.v_min, params.v_max)


def pso_step(engine: PsoEngine) -> float:
    """Advance ``engine``'s swarm one tick and return the decayed inertia.

    Every velocity pulls towards the global best standing at the start of the
    tick (the lowest index among equal best fitnesses); a personal best is
    replaced only by a strictly better position, after the move, so the next
    tick sees the updated global best.
    """
    gbest = engine.best_pos[np.argmin(engine.best_fit)]
    r = engine.rng.random((engine.m, 2))
    engine.vel = velocity_update(engine.pos, engine.vel, engine.best_pos, gbest, r,
                                 engine.inertia, engine.params)
    b = engine.params.bounds
    engine.pos = clamp(engine.pos + engine.vel, b.lo, b.hi)
    fit = engine.objective.fitness(engine.pos)
    better = fit < engine.best_fit
    engine.best_pos[better] = engine.pos[better]
    engine.best_fit[better] = fit[better]
    return engine.inertia * engine.params.inertia_decrement


class PsoEngine:
    """Stateful baseline swarm held as arrays: positions ``pos`` and
    velocities ``vel`` (M, 2), personal bests ``best_pos`` (M, 2) and their
    fitness ``best_fit`` (M,).

    Every initial position and velocity component is min + (max - min) * u
    with u uniform in [0, 1): one (M, 2) draw for the positions (particle
    order, x then y), then one for the velocities, so engines sharing a seed
    start from the same scatter. Personal bests start at the initial
    positions. Each tick then draws every particle's (r1, r2) in index order.

    ``sensing_radius`` only feeds the neighbor_count column so baseline traces
    are comparable with the learning swarm under one connectivity definition.
    """

    def __init__(self, m: int, params: PsoParams, objective: Objective,
                 sensing_radius: float, rng: np.random.Generator):
        if m < 1:
            raise ValueError(f"swarm size must be >= 1, got {m}")
        self.params = params
        self.objective = objective
        self.sensing_radius = float(sensing_radius)
        self.rng = rng
        b = params.bounds
        self.pos = b.lo + (b.hi - b.lo) * rng.random((m, 2))
        self.vel = params.v_min + (params.v_max - params.v_min) * rng.random((m, 2))
        self.best_pos = self.pos.copy()
        self.best_fit = objective.fitness(self.pos)
        self.inertia = params.inertia_w0
        self.tick_index = 0

    @property
    def m(self) -> int:
        return len(self.pos)

    @property
    def swarm(self) -> list[PsoParticle]:
        """The particles as ``PsoParticle`` rows, built from the arrays on each read."""
        return [PsoParticle(Vec2(*p), Vec2(*v), Vec2(*b), f)
                for p, v, b, f in zip(self.pos.tolist(), self.vel.tolist(),
                                      self.best_pos.tolist(), self.best_fit.tolist())]

    def positions(self) -> list[Vec2]:
        return [Vec2(x, y) for x, y in self.pos.tolist()]

    def tick(self, rows: Trace | None = None) -> Trace:
        """Advance the swarm one step. Its row is written into ``rows``, a
        one-tick Trace (such as ``Trace.at`` of a run's trace), or into a
        fresh one when None, and returned; no particle carries a decision."""
        self.inertia = pso_step(self)
        rows = Trace.empty(1, self.m) if rows is None else rows
        rows.ticks[0] = self.tick_index
        rows.positions[0] = self.pos
        rows.state[0] = rows.action[0] = -1
        rows.reward[0] = np.nan
        rows.neighbor_count[0] = neighbor_counts(self.pos, self.sensing_radius)
        self.tick_index += 1
        return rows
