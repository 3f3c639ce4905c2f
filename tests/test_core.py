import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qswarm.core as core
from qswarm.core import Vec2, WorldBounds, clamp, euclidean_distance, pairwise_distances
from qswarm.metrics import connected_fraction, connectivity_components
from qswarm.mql import MqlEngine, MqlParams, neighborhood, summarize
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
    assert clamp(np.array([5.0, 5.0]), w.lo, w.hi).tolist() == [5, 5]
    assert clamp(np.array([-1.0, 12.0]), w.lo, w.hi).tolist() == [0, 10]
    assert clamp(np.array([10.0, 0.0]), w.lo, w.hi).tolist() == [10, 0]


def test_clamp_idempotent_random():
    w = WorldBounds(-3, 7, 2, 9)
    rng = np.random.default_rng(3)
    for _ in range(300):
        once = clamp(rng.uniform(-50, 50, 2), w.lo, w.hi)
        assert np.array_equal(clamp(once, w.lo, w.hi), once)
        assert w.contains(Vec2(*once.tolist()))


def test_pairwise_distances_matches_scalar():
    rng = np.random.default_rng(4)
    pts = [Vec2(*rng.uniform(0, 100, 2)) for _ in range(8)]
    mat = pairwise_distances(np.array([p.as_tuple() for p in pts]))
    for i in range(8):
        for k in range(8):
            assert mat[i, k] == euclidean_distance(pts[i], pts[k])


def test_world_corners_are_read_only_arrays():
    w = WorldBounds(-1.0, 2.0, -3.0, 4.0)
    assert w.lo.tolist() == [-1.0, -3.0] and w.hi.tolist() == [2.0, 4.0]
    with pytest.raises(ValueError):
        w.lo[0] = 0.0
    assert w == WorldBounds(-1.0, 2.0, -3.0, 4.0)


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
    mql._sense_swarm()
    assert mql.sensed[0].tolist() == counts

    assert [sorted(neighborhood(i, pos, eps)) for i in range(m)] == neighbors
    assert connected_fraction(pos, eps) == sum(c > 0 for c in counts) / m
    assert connectivity_components(pos, eps) == components_by_bfs(neighbors)


# --- the epsilon-neighbour query against the dense oracle -------------------------

def dense_neighbors(arr, rows, epsilon):
    """The oracle's neighbour rule, spelled out apart from ``neighbor_mask``:
    the full (K, M) distance rows and the peers strictly within epsilon, never
    the particle itself."""
    dist = pairwise_distances(arr, rows)
    return dist, (dist < epsilon) & (np.arange(len(arr))[None] != np.asarray(rows)[:, None])


def booked(blocks, m):
    """(n, total, lowest) arrays (M,) of all M particles from the blocks of
    their query in any row order: each block's summary is booked to the rows
    it names."""
    n, total, lowest = np.empty(m, dtype=int), np.empty(m), np.empty(m)
    for block, _, dist, mask in blocks:
        n[block], total[block], lowest[block] = summarize(dist, mask)
    return n, total, lowest


def sense(arr, rows, epsilon):
    """(n, total, lowest) of particles ``rows`` (distinct ids) in the given
    order, booked from the blocks of their query."""
    n, total, lowest = booked(core.neighbor_blocks(arr, rows, epsilon), len(arr))
    return n[rows], total[rows], lowest[rows]


def dense_sense(arr, rows, epsilon):
    """The oracle: (n, total, lowest) of particles ``rows`` over their full
    (K, M) distance rows, each total a running sum in ascending peer order in
    which non-neighbours add 0.0."""
    dist, mask = dense_neighbors(arr, rows, epsilon)
    n = mask.sum(axis=1)
    masked = np.where(mask, dist, np.inf)
    lowest = masked.min(axis=1)
    masked[~mask] = 0.0
    total = np.cumsum(masked, axis=1, out=masked)[:, -1].copy()
    return n, total, lowest


# A bounding box whose diagonal in the sqrt form that ``pairwise_distances``
# uses is one rounding above ``math.hypot``'s (found by search over tenths):
# with epsilon at the sqrt form, hypot would put the far corners inside it.
HYPOT_BELOW = (1.0, 2.8)


def rim_swarm(rng, m, low, extent, side):
    """``m`` >= 2 particles in the box from ``low`` to ``low + extent``, two of
    them at its far corners, with epsilon one step below the box's diagonal
    (side -1), at it (0) or one step above it (+1). The diagonal is computed
    from the swarm as ``pairwise_distances`` computes a distance."""
    high = low + extent
    arr = np.vstack([low, high, core.clamp(low + rng.random((m - 2, 2)) * (high - low), low, high)])
    wx, wy = (arr.max(axis=0) - arr.min(axis=0)).tolist()
    diagonal = math.sqrt(wx * wx + wy * wy)
    epsilon = diagonal if side == 0 else float(np.nextafter(diagonal, side * np.inf))
    return arr[rng.permutation(m)], epsilon


@st.composite
def swarms(draw):
    """(positions, epsilon) on both sides of the dense crossover: uniform
    scatters at several densities, integer lattices with an integer epsilon
    (peers at exactly epsilon, coincident particles), clusters of very
    different density, a whole swarm collapsed into one cell or onto one
    point, and swarms on the rim of the bounding-box bound of
    ``neighbor_counts`` (epsilon within one step of the box's diagonal)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.just(1) | st.integers(1, 600))
    kind = draw(st.sampled_from(["uniform", "lattice", "clusters", "collapsed", "coincident",
                                 "rim"]))
    if kind == "lattice":
        epsilon = float(draw(st.integers(1, 6)))
        side = draw(st.integers(1, 60))
        return rng.integers(0, side + 1, (m, 2)).astype(float), epsilon
    if kind == "rim":
        if draw(st.booleans()):
            low, extent = np.zeros(2), HYPOT_BELOW
        else:
            low = rng.random(2) * 100.0
            extent = rng.random(2) * draw(st.sampled_from([1.0, 20.0, 300.0]))
        return rim_swarm(rng, max(m, 2), low, extent, draw(st.sampled_from([-1, 0, 1])))
    epsilon = draw(st.floats(0.5, 20.0))
    if kind == "uniform":
        return rng.random((m, 2)) * draw(st.floats(1.0, 500.0)), epsilon
    if kind == "collapsed":
        return 50.0 + rng.random((m, 2)) * epsilon * 0.5, epsilon
    if kind == "coincident":
        return np.repeat(rng.random((1, 2)) * 100.0, m, axis=0), epsilon
    centres = rng.random((draw(st.integers(1, 5)), 2)) * 200.0
    spread = rng.choice([0.1, 1.0, 10.0, 40.0], len(centres)) * epsilon
    pick = rng.integers(0, len(centres), m)
    return centres[pick] + rng.normal(size=(m, 2)) * spread[pick, None], epsilon


@st.composite
def queries(draw, m):
    """Row ids to query: every row, one row, or a random subset in any order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["all", "one", "subset"]))
    if kind == "all":
        return np.arange(m)
    if kind == "one":
        return np.array([rng.integers(m)])
    rows = rng.choice(m, rng.integers(1, m + 1), replace=False)
    return np.sort(rows) if draw(st.booleans()) else rows


# each path the query can take: as configured, and forced onto the cells, onto
# the dense rows, or past cells too many to number (which prune nothing), with
# blocks as configured or of a few rows each
PATHS = {"default": {}, "cells": {"DENSE_PAIRS": 0, "DENSE_SHARE": 2.0},
         "dense": {"DENSE_PAIRS": 10**18}, "unnumbered": {"DENSE_PAIRS": 0, "MAX_CELLS": 3}}


@settings(max_examples=300, deadline=None)
@given(swarm=swarms(), path=st.sampled_from(sorted(PATHS)), small_blocks=st.booleans(),
       data=st.data())
def test_neighbour_query_senses_the_bits_of_the_dense_rows(swarm, path, small_blocks, data):
    arr, epsilon = swarm
    rows = data.draw(queries(len(arr)))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(core, name, value)
        if small_blocks:
            mp.setattr(core, "BLOCK_ENTRIES", 97)
        got = sense(arr, rows, epsilon)
        counts = core.neighbor_counts(arr, epsilon)
    for g, want in zip(got, dense_sense(arr, rows, epsilon), strict=True):
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
    assert counts.tobytes() == dense_sense(arr, np.arange(len(arr)), epsilon)[0].tobytes()


def stepped(x, ulps):
    """``x`` moved ``|ulps|`` floating-point steps, up for ulps > 0, else down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def mover_rims(draw):
    """(before, after, epsilon): a swarm before and after its particle 0 moves
    from the origin, with peers a few ulps either side of epsilon, 2 * epsilon
    and 2 * epsilon * CELL_WIDTH from the origin or from the mover's new
    position, in rays from it (so peers near epsilon neighbour peers near 2
    epsilon), among a scatter within 3 epsilon of the origin. On the axes a
    peer's computed distance from the ray's centre is its radius exactly."""
    epsilon = draw(st.floats(1.0, 10.0))
    axis, size = draw(st.integers(0, 1)), draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, epsilon]))
    to = [0.0, 0.0]
    to[axis] = size * draw(st.sampled_from([-1.0, 1.0]))
    pos = [(0.0, 0.0)]
    for centre in ((0.0, 0.0), tuple(to)):
        for _ in range(draw(st.integers(0, 3))):
            angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0))
            unit = {0.0: (1.0, 0.0), 0.5: (0.0, 1.0), 1.0: (-1.0, 0.0), 1.5: (0.0, -1.0)}.get(
                angle, (math.cos(angle * math.pi), math.sin(angle * math.pi)))
            for radius in (epsilon, 2.0 * epsilon, 2.0 * epsilon * core.CELL_WIDTH):
                for _ in range(draw(st.integers(0, 3))):
                    r = stepped(radius, draw(st.integers(-4, 4)))
                    pos.append((centre[0] + r * unit[0], centre[1] + r * unit[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos += ((rng.random((draw(st.integers(0, 20)), 2)) - 0.5) * 6.0 * epsilon).tolist()
    before = np.array(pos)
    after = before.copy()
    after[0] = to
    return before, after, epsilon


@settings(max_examples=300, deadline=None)
@given(swarm=mover_rims(), small_blocks=st.booleans())
def test_mover_blocks_sense_the_bits_of_the_dense_rows(swarm, small_blocks):
    before, after, epsilon = swarm
    rows_before, rows_after = (pairwise_distances(arr, [0]) for arr in (before, after))
    with pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(core, "BLOCK_ENTRIES", 97)
        blocks = list(core.mover_blocks(after, rows_before, rows_after, epsilon))
    rows = np.concatenate([block for block, *_ in blocks])
    # the mover and every peer within epsilon of it before or after the move,
    # each once and in ascending id order
    expected = np.flatnonzero((rows_before[0] < epsilon) | (rows_after[0] < epsilon))
    assert rows.tolist() == expected.tolist() and rows[0] == 0
    got = booked(blocks, len(after))
    for g, want in zip(got, dense_sense(after, rows, epsilon), strict=True):
        assert g[rows].dtype == want.dtype and g[rows].tobytes() == want.tobytes()


def one_row_blocks(producer, arr, epsilon):
    """Every block a producer yields for particle 0's row of ``arr``, with
    the blocks cut to one row each where the producer would take more."""
    with pytest.MonkeyPatch.context() as mp:
        if producer == "dense":
            return list(core.neighbor_blocks(arr, [0], epsilon))
        if producer == "cells":
            mp.setattr(core, "DENSE_PAIRS", 0)
            return list(core.neighbor_blocks(arr, [0], epsilon))
        mp.setattr(core, "BLOCK_ENTRIES", 1)
        if producer == "mover":
            row = pairwise_distances(arr, [0])
            return list(core.mover_blocks(arr, row, row, epsilon))
        return list(core.NeighborList(epsilon).blocks(arr))


@pytest.mark.parametrize("producer", ["dense", "cells", "mover", "list"])
def test_a_one_row_block_sums_its_row_left_to_right(producer):
    # numpy sums a contiguous run of 8 or more entries pairwise, and a (C, 1)
    # block's axis 0 is such a run: its total must still be the running sum
    rng = np.random.default_rng(23)  # a seed whose pairwise sums differ
    epsilon = 10.0
    # particle 0 with 12 peers within epsilon, in a scatter the cells prune
    near = 50.0 + (rng.random((12, 2)) - 0.5) * 12.0
    arr = np.vstack([[50.0, 50.0], near, rng.random((60, 2)) * 400.0])
    row = pairwise_distances(arr, [0])[0].tolist()
    peers = [d for j, d in enumerate(row) if j != 0 and d < epsilon]
    running = 0.0
    for d in peers:
        running += d
    assert len(peers) >= 9
    blocks = one_row_blocks(producer, arr, epsilon)
    (block, cols, dist, mask), = [b for b in blocks if 0 in b[0].tolist()]
    assert block.tolist() == [0] and dist.shape == mask.shape == (len(cols), 1)
    # the block's column, non-neighbours at 0.0, sums pairwise to other bits
    assert np.add.reduce(np.where(mask, dist, 0.0)[:, 0]) != running
    n, total, lowest = summarize(dist, mask)
    assert n.tolist() == [len(peers)] and lowest.tolist() == [min(peers)]
    assert total.tobytes() == np.array([running]).tobytes()


@pytest.mark.parametrize("side", [-1, 0, 1])
def test_counts_on_the_rim_of_the_bounding_box_bound(side):
    # the far corners are exactly at the diagonal: out of contact unless
    # epsilon is a step above it, and hypot's diagonal is a step below it
    arr, epsilon = rim_swarm(np.random.default_rng(side + 1), 50, np.zeros(2), HYPOT_BELOW, side)
    wx, wy = HYPOT_BELOW
    diagonal = math.sqrt(wx * wx + wy * wy)
    assert math.hypot(wx, wy) < diagonal
    assert epsilon == (diagonal if side == 0 else np.nextafter(diagonal, side * np.inf))
    counts = core.neighbor_counts(arr, epsilon)
    assert counts.tobytes() == dense_sense(arr, np.arange(len(arr)), epsilon)[0].tobytes()
    assert (counts == len(arr) - 1).all() == (side == 1)


@settings(max_examples=150, deadline=None)
@given(swarm=swarms(), path=st.sampled_from(sorted(PATHS)), small_blocks=st.booleans())
def test_components_are_those_of_a_breadth_first_search(swarm, path, small_blocks):
    arr, epsilon = swarm
    m = len(arr)
    _, adjacent = dense_neighbors(arr, np.arange(m), epsilon)
    neighbors = [np.flatnonzero(row).tolist() for row in adjacent]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(core, name, value)
        if small_blocks:
            mp.setattr(core, "BLOCK_ENTRIES", 97)
        sizes = connectivity_components(arr, epsilon)
        fraction = connected_fraction(arr, epsilon)
    assert sizes == components_by_bfs(neighbors)
    assert fraction == float(adjacent.any(axis=1).mean())


# --- the count-only sweep against the dense oracle --------------------------------

def sweep_edges(arr, epsilon):
    """Every (i, j) that ``neighbor_pairs`` yields, in its order."""
    edges = []
    for rows, cols, mask in core.neighbor_pairs(arr, epsilon):
        r, c = np.nonzero(mask)
        edges += zip(rows[r].tolist(), cols[c].tolist())
    return edges


def assert_the_sweep_yields_each_edge_once(arr, epsilon):
    _, adjacent = dense_neighbors(arr, np.arange(len(arr)), epsilon)
    edges = sweep_edges(arr, epsilon)
    assert all(i != j for i, j in edges)
    pairs = {(min(e), max(e)) for e in edges}
    assert len(pairs) == len(edges)
    assert pairs == set(zip(*(ids.tolist() for ids in np.nonzero(np.triu(adjacent)))))


@settings(max_examples=150, deadline=None)
@given(swarm=swarms(), path=st.sampled_from(sorted(PATHS)), small_blocks=st.booleans())
def test_the_sweep_yields_each_edge_once(swarm, path, small_blocks):
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(core, name, value)
        if small_blocks:
            mp.setattr(core, "BLOCK_ENTRIES", 97)
        assert_the_sweep_yields_each_edge_once(*swarm)


def sweep_case(kind, m, rng):
    """(positions, epsilon) of the sweep's corner cases, spread in y beyond
    epsilon so the bounding-box bound of ``neighbor_counts`` does not hold."""
    eps = 10.0
    width = eps * core.CELL_WIDTH
    y = rng.random(m) * 40.0 * eps
    if kind == "one column":
        x = rng.random(m) * width * 0.999
    elif kind == "own columns":
        # particle k in column k, so each peer within epsilon is one column away
        x = (np.arange(m) + 0.01 + 0.98 * rng.random(m)) * width
        y = rng.random(m) * eps
    elif kind == "coincident":
        # every particle shares its point with at least one other
        x = np.repeat(rng.random((m + 1) // 2) * 20.0 * eps, 2)[:m]
        y = np.repeat(y[:(m + 1) // 2], 2)[:m]
    elif kind == "lattice":
        # an integer epsilon on an integer lattice puts many peers at exactly it
        x, y, eps = rng.integers(0, 61, m), rng.integers(0, 61, m), 4.0
    else:
        x = rng.random(m) * 20.0 * eps
    return np.column_stack([x, y]).astype(float), eps


SWEEP_PATCHES = {"as configured": {}, "small blocks": {"BLOCK_ENTRIES": 97},
                 "unnumbered": {"MAX_CELLS": 3}, "always sorted": {"DENSE_PAIRS": 0}}


# 149 * 149 pairs are below DENSE_PAIRS, 150 * 150 are not
@pytest.mark.parametrize("m", [149, 150, 400])
@pytest.mark.parametrize("kind", ["uniform", "one column", "own columns", "coincident",
                                  "lattice"])
@pytest.mark.parametrize("patch", sorted(SWEEP_PATCHES))
def test_the_sweep_counts_and_joins_the_dense_rows_in_its_corner_cases(m, kind, patch):
    arr, epsilon = sweep_case(kind, m, np.random.default_rng(m))
    _, adjacent = dense_neighbors(arr, np.arange(m), epsilon)
    neighbors = [np.flatnonzero(row).tolist() for row in adjacent]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in SWEEP_PATCHES[patch].items():
            mp.setattr(core, name, value)
        assert_the_sweep_yields_each_edge_once(arr, epsilon)
        counts = core.neighbor_counts(arr, epsilon)
        sizes = connectivity_components(arr, epsilon)
    assert adjacent.any()
    assert counts.tobytes() == adjacent.sum(axis=1).tobytes()
    assert sizes == components_by_bfs(neighbors)


def test_the_sweep_keeps_its_own_order_only_where_the_cells_cannot_prune():
    # a swarm below DENSE_PAIRS, within 2 x 2 cells, in cells too many to
    # number, or with a coordinate that is not finite keeps its own order:
    # every row measures every later particle
    spread = sweep_case("uniform", 400, np.random.default_rng(3))[0]
    with_nan = spread.copy()
    with_nan[7, 0] = np.nan
    for arr, patch, unsorted in [(spread, {}, False), (spread[:149], {}, True),
                                 (spread * 0.049, {}, True), (with_nan, {}, True),
                                 (spread, {"MAX_CELLS": 3}, True)]:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(core, name, value)
            blocks = list(core.neighbor_pairs(arr, 10.0))
            assert_the_sweep_yields_each_edge_once(arr, 10.0)
        assert unsorted == all(np.array_equal(cols, np.arange(rows[0], len(arr)))
                               for rows, cols, _ in blocks)


@pytest.mark.parametrize("block_entries", [None, 97])
@pytest.mark.parametrize("kind", ["tall", "default density", "far clusters"])
def test_a_spread_swarm_is_swept_beside_its_rows(kind, block_entries):
    # a block measures the cells beside its rows, not the strips to the end
    # of the next column (a small share of them where the columns are tall),
    # and never more than BLOCK_ENTRIES entries where a strip is narrower
    rng = np.random.default_rng(5)
    if kind == "tall":
        arr = rng.random((2000, 2)) * [30.0, 2000.0]
    elif kind == "default density":
        arr = rng.random((3000, 2)) * 5.0 * math.sqrt(3000)
    else:
        # two clusters some 10**9 cells apart: the cells number them, and no
        # array is sized by the cells between them
        arr = np.vstack([rng.random((400, 2)) * 30.0, 1e10 + rng.random((400, 2)) * 30.0])
    with pytest.MonkeyPatch.context() as mp:
        if block_entries is not None:
            mp.setattr(core, "BLOCK_ENTRIES", block_entries)
        order, key, stride = core._cells(arr, 10.0)
        key = key[order]
        strips = np.searchsorted(key, key - key % stride + 2 * stride) - np.arange(len(arr))
        sizes = [mask.size for *_, mask in core.neighbor_pairs(arr, 10.0)]
        assert_the_sweep_yields_each_edge_once(arr, 10.0)
        counts = core.neighbor_counts(arr, 10.0)
        assert max(sizes) <= max(core.BLOCK_ENTRIES, strips.max())
    assert kind != "tall" or sum(sizes) < strips.sum() / 10
    assert counts.tobytes() == dense_neighbors(arr, np.arange(len(arr)), 10.0)[1].sum(axis=1).tobytes()


# --- the carried neighbour list against the dense oracle --------------------------

def top_two_displacements(before, after):
    """The sum of the two largest displacements from ``before`` to ``after``,
    each sqrt(dx*dx + dy*dy) as ``pairwise_distances`` computes a distance."""
    d = after - before
    moved = np.sort(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]))
    return float(moved[-2] + moved[-1]) if len(moved) > 1 else float(moved.sum())


# where the two largest displacements leave the skin: one step below it (the
# list is kept), at it, one step above it, and well past it, where the largest
# displacement alone is still below the skin (each rebuilds)
SKIN_SIDES = {"below": lambda s: float(np.nextafter(s, np.inf)), "at": lambda s: s,
              "above": lambda s: float(np.nextafter(s, 0.0)), "past": lambda s: 0.75 * s}


@settings(max_examples=300, deadline=None)
@given(swarm=swarms(), path=st.sampled_from(sorted(PATHS)), small_blocks=st.booleans(),
       side=st.sampled_from(sorted(SKIN_SIDES)), data=st.data())
def test_sensing_through_a_carried_list_gives_the_bits_of_the_dense_rows(
        swarm, path, small_blocks, side, data):
    arr, epsilon = swarm
    m = len(arr)
    # every particle moves the same length (so the two largest are equal) or
    # a random share of it, in a random direction
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    reach = epsilon * data.draw(st.sampled_from([0.0, 0.01, 0.3, 1.0, 3.0]))
    length = reach if data.draw(st.booleans()) else reach * rng.random(m)
    angle = rng.random(m) * 2.0 * np.pi
    moved = arr + np.column_stack([np.cos(angle), np.sin(angle)]) * np.reshape(length, (-1, 1))
    sum_of_two = top_two_displacements(arr, moved)
    skin = SKIN_SIDES[side](sum_of_two)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(core, name, value)
        if small_blocks:
            mp.setattr(core, "BLOCK_ENTRIES", 97)
        listed = core.NeighborList(epsilon)
        listed.skin = skin
        # the build's own blocks, then the list's or a rebuild's
        built = booked(listed.blocks(arr), m)
        first = listed.built_on
        stale = listed.stale(moved)
        got = booked(listed.blocks(moved), m)
    assert stale == (side != "below" or sum_of_two == skin)
    assert (listed.built_on is not first) == stale
    assert np.array_equal(listed.built_on, moved if stale else arr)
    for at, sensed in ((arr, built), (moved, got)):
        for g, want in zip(sensed, dense_sense(at, np.arange(m), epsilon), strict=True):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()


def built_list(arr, epsilon, skin):
    """A NeighborList of the given skin, built on ``arr``."""
    listed = core.NeighborList(epsilon)
    listed.skin = skin
    for _ in listed.blocks(arr):
        pass
    return listed


def test_the_list_holds_a_pair_that_closes_in_by_just_under_the_skin():
    # a particle 14.9 from its peer moves one step under the skin of 5.0
    # towards it and ends within epsilon = 10: the list built at 14.9 holds it
    under = float(np.nextafter(5.0, 0.0))
    before = np.array([[0.0, 0.0], [14.9, 0.0]] + [[100.0 + 40.0 * k, 0.0] for k in range(200)])
    after = before.copy()
    after[0, 0] = under
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "DENSE_SHARE", 2.0)
        listed = built_list(before, 10.0, 5.0)
        assert not listed.stale(after)
        n, total, lowest = booked(listed.blocks(after), len(after))
        assert np.array_equal(listed.built_on, before)
        # at a skin of that step, the move reaches the skin: a rebuild
        listed.skin = under
        assert listed.stale(after)
    assert n[:2].tolist() == [1, 1] and total[0] == lowest[0] == 14.9 - under < 10.0


def test_the_hair_keeps_a_pair_that_rounding_brings_within_epsilon():
    # found by search: the pair's computed distance at the build is exactly
    # epsilon + skin (so a list without CELL_WIDTH's hair would lack it), and
    # a move computed one step under the skin ends computed within epsilon
    epsilon, skin = 13.0, 6.5
    before = np.array([[63.56549721085979, 35.61528577486987],
                       [57.499274612123315, 54.14771528053854]]
                      + [[100.0 + 40.0 * k, 0.0] for k in range(200)])
    after = before.copy()
    after[0] = [61.543423011280964, 41.792762276759426]
    assert pairwise_distances(before[:2])[0, 1] == epsilon + skin
    assert top_two_displacements(before, after) < skin
    assert pairwise_distances(after[:2])[0, 1] < epsilon
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "DENSE_SHARE", 2.0)
        listed = built_list(before, epsilon, skin)
        assert not listed.stale(after)
        n, total, lowest = booked(listed.blocks(after), len(after))
        assert np.array_equal(listed.built_on, before)
    want = dense_sense(after, np.arange(len(after)), epsilon)
    assert n[:2].tolist() == [1, 1]
    for g, w in zip((n, total, lowest), want, strict=True):
        assert g.tobytes() == w.tobytes()
