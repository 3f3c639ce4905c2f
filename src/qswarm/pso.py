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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Vec2, WorldBounds, adjacency_matrix, clamp_to_world, euclidean_distance, positions_array
from .metrics import Trace


@dataclass(frozen=True)
class Objective:
    """Cost function over positions: the Euclidean distance to ``target``."""

    target: Vec2 = Vec2(50.0, 50.0)

    def evaluate(self, p: Vec2) -> float:
        return euclidean_distance(p, self.target)


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
            if not math.isfinite(getattr(self, name)):
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


@dataclass
class PsoParticle:
    position: Vec2
    velocity: Vec2
    best_position: Vec2
    best_fitness: float


def pso_init(m: int, params: PsoParams, objective: Objective,
             rng: np.random.Generator) -> list[PsoParticle]:
    """Seed a swarm: every position/velocity component is min + (max-min)*u
    with u uniform in [0, 1]; personal bests start at the initial positions.

    All position components are drawn before any velocity component (particle
    order, x then y), so engines sharing a seed start from the same scatter.
    """
    if m < 1:
        raise ValueError(f"swarm size must be >= 1, got {m}")
    b = params.bounds
    positions = [
        Vec2(b.x_min + (b.x_max - b.x_min) * rng.random(),
             b.y_min + (b.y_max - b.y_min) * rng.random())
        for _ in range(m)
    ]
    velocities = [
        Vec2(params.v_min + (params.v_max - params.v_min) * rng.random(),
             params.v_min + (params.v_max - params.v_min) * rng.random())
        for _ in range(m)
    ]
    return [
        PsoParticle(position=x, velocity=v, best_position=x,
                    best_fitness=objective.evaluate(x))
        for x, v in zip(positions, velocities)
    ]


def update_personal_best(p: PsoParticle, objective: Objective) -> None:
    """Replace the personal best iff the current position strictly improves it."""
    fitness = objective.evaluate(p.position)
    if fitness < p.best_fitness:
        p.best_position = p.position
        p.best_fitness = fitness


def select_global_best(swarm: list[PsoParticle]) -> tuple[int, Vec2]:
    """Index and position of the particle with the minimal personal-best
    fitness; ties go to the lowest index."""
    if not swarm:
        raise ValueError("cannot select a global best from an empty swarm")
    best = 0
    for i in range(1, len(swarm)):
        if swarm[i].best_fitness < swarm[best].best_fitness:
            best = i
    return best, swarm[best].best_position


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def velocity_update(p: PsoParticle, gbest: Vec2, w_t: float, params: PsoParams,
                    rng: np.random.Generator) -> Vec2:
    """New velocity from the pbest/gbest pulls, scaled by inertia and the
    constriction factor, then clamped per component to [v_min, v_max]."""
    r1 = rng.random()
    r2 = rng.random()
    dvx = params.c1 * r1 * (p.best_position.x - p.position.x) \
        + params.c2 * r2 * (gbest.x - p.position.x)
    dvy = params.c1 * r1 * (p.best_position.y - p.position.y) \
        + params.c2 * r2 * (gbest.y - p.position.y)
    if params.canonical_velocity:
        vx = params.constriction * (w_t * p.velocity.x + dvx)
        vy = params.constriction * (w_t * p.velocity.y + dvy)
    else:
        vx = params.constriction * w_t * dvx
        vy = params.constriction * w_t * dvy
    return Vec2(_clamp(vx, params.v_min, params.v_max),
                _clamp(vy, params.v_min, params.v_max))


def pso_step(swarm: list[PsoParticle], objective: Objective, w_t: float,
             params: PsoParams, rng: np.random.Generator) -> float:
    """Advance the swarm one tick in place and return the decayed inertia.

    The global best used by every velocity update is the one standing at the
    start of the tick; personal bests refresh as particles move, so the next
    tick sees the updated global best.
    """
    _, gbest = select_global_best(swarm)
    for p in swarm:
        v = velocity_update(p, gbest, w_t, params, rng)
        p.velocity = v
        p.position = clamp_to_world(Vec2(p.position.x + v.x, p.position.y + v.y),
                                    params.bounds)
        update_personal_best(p, objective)
    return w_t * params.inertia_decrement


class PsoEngine:
    """Stateful wrapper running the baseline swarm and emitting trace rows.

    ``sensing_radius`` only feeds the neighbor_count column so baseline traces
    are comparable with the learning swarm under one connectivity definition.
    """

    def __init__(self, m: int, params: PsoParams, objective: Objective,
                 sensing_radius: float, rng: np.random.Generator):
        self.params = params
        self.objective = objective
        self.sensing_radius = float(sensing_radius)
        self.rng = rng
        self.swarm = pso_init(m, params, objective, rng)
        self.inertia = params.inertia_w0
        self.tick_index = 0

    def positions(self) -> list[Vec2]:
        return [p.position for p in self.swarm]

    def tick(self) -> Trace:
        """Advance the swarm one step; returns its rows as a one-tick Trace,
        none of which carries a decision."""
        self.inertia = pso_step(self.swarm, self.objective, self.inertia,
                                self.params, self.rng)
        arr = positions_array(self.positions())
        neighbor_counts = adjacency_matrix(arr, self.sensing_radius).sum(axis=1)
        m = len(arr)
        rows = Trace([self.tick_index], arr[None], np.full((1, m), -1), np.full((1, m), -1),
                     np.full((1, m), np.nan), neighbor_counts[None])
        self.tick_index += 1
        return rows
