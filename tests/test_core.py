import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswarm.core import Vec2, WorldBounds, clamp_to_world, euclidean_distance, pairwise_distances
from qswarm.metrics import connected_fraction, connectivity_components
from qswarm.mql import MqlEngine, MqlParams, neighborhood
from qswarm.pso import Objective, PsoEngine, PsoParams


def test_distance_identity():
    assert euclidean_distance(Vec2(0, 0), Vec2(0, 0)) == 0.0


def test_distance_hand_values():
    # 3-4-5 triangles, evaluated by hand
    assert euclidean_distance(Vec2(0, 0), Vec2(3, 4)) == 5.0
    assert euclidean_distance(Vec2(1, 1), Vec2(-2, 5)) == 5.0


def test_distance_symmetry_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = Vec2(*rng.uniform(-50, 50, 2))
        b = Vec2(*rng.uniform(-50, 50, 2))
        assert euclidean_distance(a, b) == euclidean_distance(b, a)
        assert euclidean_distance(a, b) >= 0.0


def test_distance_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a, b, c = (Vec2(*rng.uniform(-100, 100, 2)) for _ in range(3))
        assert euclidean_distance(a, c) <= (
            euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9)


def test_vec2_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Vec2(bad, 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, bad)


def test_world_bounds_validation():
    with pytest.raises(ValueError):
        WorldBounds(x_min=5, x_max=5, y_min=0, y_max=10)
    with pytest.raises(ValueError):
        WorldBounds(x_min=0, x_max=10, y_min=3, y_max=-3)
    w = WorldBounds(0, 10, 0, 10)
    assert w.center() == Vec2(5, 5)
    assert w.width == 10 and w.height == 10


def test_clamp_examples():
    w = WorldBounds(0, 10, 0, 10)
    assert clamp_to_world(Vec2(5, 5), w) == Vec2(5, 5)
    assert clamp_to_world(Vec2(-1, 12), w) == Vec2(0, 10)
    assert clamp_to_world(Vec2(10, 0), w) == Vec2(10, 0)


def test_clamp_idempotent_random():
    w = WorldBounds(-3, 7, 2, 9)
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = Vec2(*rng.uniform(-50, 50, 2))
        once = clamp_to_world(p, w)
        assert clamp_to_world(once, w) == once
        assert w.contains(once)


def test_pairwise_distances_matches_scalar():
    rng = np.random.default_rng(4)
    pts = [Vec2(*rng.uniform(0, 100, 2)) for _ in range(8)]
    mat = pairwise_distances(np.array([p.as_tuple() for p in pts]))
    for i in range(8):
        for k in range(8):
            assert mat[i, k] == euclidean_distance(pts[i], pts[k])


def components_by_bfs(neighbors):
    """Component sizes of the graph given as adjacency lists, by breadth-first
    search one node at a time (the oracle), sorted descending."""
    seen = [False] * len(neighbors)
    sizes = []
    for start in range(len(neighbors)):
        if seen[start]:
            continue
        seen[start] = True
        queue, size = deque([start]), 0
        while queue:
            node = queue.popleft()
            size += 1
            for peer in neighbors[node]:
                if not seen[peer]:
                    seen[peer] = True
                    queue.append(peer)
        sizes.append(size)
    return sorted(sizes, reverse=True)


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=30),
       epsilon=st.integers(1, 5))
def test_every_neighbour_query_follows_one_rule(points, epsilon):
    # integer lattices with an integer epsilon put peers at exactly epsilon,
    # and a small lattice makes coincident particles common
    eps = float(epsilon)
    pos = [Vec2(float(x), float(y)) for x, y in points]
    m = len(pos)
    neighbors = [[k for k in range(m) if k != i and math.sqrt(
        (pos[i].x - pos[k].x) * (pos[i].x - pos[k].x)
        + (pos[i].y - pos[k].y) * (pos[i].y - pos[k].y)) < eps] for i in range(m)]
    counts = [len(near) for near in neighbors]

    # constriction 0 holds the baseline swarm in place, so its tick counts
    # the neighbours of these positions
    pso = PsoEngine(m, PsoParams(constriction=0.0), Objective(), sensing_radius=eps,
                    rng=np.random.default_rng(0))
    pso.pos = np.array(points, dtype=float)
    assert pso.tick().neighbor_count[0].tolist() == counts

    mql = MqlEngine(m, MqlParams(epsilon=eps), WorldBounds(), np.random.default_rng(0),
                    initial_positions=pos)
    mql._sense()
    assert mql.sensed[0].tolist() == counts

    assert [sorted(neighborhood(i, pos, eps)) for i in range(m)] == neighbors
    assert connected_fraction(pos, eps) == sum(c > 0 for c in counts) / m
    assert connectivity_components(pos, eps) == components_by_bfs(neighbors)
