"""Geometry primitives shared by every engine and the metrics: points, world
bounds, the clamp into them, distances and the neighbour relation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Vec2:
    """A 2-D position or displacement in world units. Components are always finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x!r}, {self.y!r})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class WorldBounds:
    """Closed axis-aligned rectangle the particles live in."""

    x_min: float = 0.0
    x_max: float = 100.0
    y_min: float = 0.0
    y_max: float = 100.0

    def __post_init__(self):
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"world.{name} must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"world.x_min must be < world.x_max (got {self.x_min} >= {self.x_max})")
        if not self.y_min < self.y_max:
            raise ValueError(f"world.y_min must be < world.y_max (got {self.y_min} >= {self.y_max})")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def center(self) -> Vec2:
        return Vec2((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains(self, p: Vec2) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


def euclidean_distance(a: Vec2, b: Vec2) -> float:
    """Straight-line distance sqrt((ax-bx)^2 + (ay-by)^2)."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)


def clamp(v, lo, hi) -> np.ndarray:
    """``min(max(v, lo), hi)`` elementwise, with broadcasting.

    Keeps Python's tie rule, where ``v`` wins a tie, so a bound of -0.0 leaves
    a 0.0 as 0.0: ``np.maximum`` and ``np.minimum`` return their second
    argument on a tie (``np.maximum(0.0, -0.0)`` is -0.0), hence ``v`` last.
    """
    return np.minimum(hi, np.maximum(lo, v))


def clamp_to_world(p: Vec2, world: WorldBounds) -> Vec2:
    """Pull each component of ``p`` into the closed world rectangle. Idempotent."""
    x, y = clamp(np.array(p.as_tuple()), (world.x_min, world.y_min),
                 (world.x_max, world.y_max)).tolist()
    return Vec2(x, y)


def positions_array(positions) -> np.ndarray:
    """(M, 2) float array from a Vec2 sequence, pair sequence, or existing array."""
    if isinstance(positions, np.ndarray):
        arr = np.asarray(positions, dtype=float)
    else:
        arr = np.array([(p.x, p.y) if isinstance(p, Vec2) else (p[0], p[1]) for p in positions],
                       dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"positions must have shape (M, 2), got {arr.shape}")
    return arr


def pairwise_distances(arr: np.ndarray, rows=None) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) from each particle in ``rows`` (default: all, giving
    the (M, M) matrix with zero diagonal) to every particle. Built one axis at
    a time in place, so it holds two (len(rows), M) arrays and nothing larger."""
    src = arr if rows is None else arr[rows]
    dx = np.subtract.outer(src[:, 0], arr[:, 0])
    dy = np.subtract.outer(src[:, 1], arr[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def neighbor_mask(dist_rows: np.ndarray, rows, epsilon: float) -> np.ndarray:
    """(K, M) mask of the neighbours of particles ``rows``, given their (K, M)
    distance rows: the peers strictly within ``epsilon``. A peer at exactly
    epsilon is out of contact, and a particle never neighbours itself."""
    mask = dist_rows < epsilon
    mask[np.arange(len(mask)), rows] = False
    return mask


def adjacency_matrix(arr: np.ndarray, epsilon: float) -> np.ndarray:
    """(M, M) proximity graph: ``neighbor_mask`` of the whole swarm."""
    return neighbor_mask(pairwise_distances(arr), np.arange(len(arr)), epsilon)
