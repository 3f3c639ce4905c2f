"""Geometry primitives shared by every engine and the metrics: points, world
bounds, the clamp into them, distances, the neighbour relation, the
cell-list query that finds each particle's epsilon-neighbours, and the
neighbour list a moving swarm carries between queries.

The carried list is a Verlet list (Verlet, Phys. Rev. 159, 98 (1967); Allen &
Tildesley, Computer Simulation of Liquids, 5.3): each particle's peers whose
computed distance is below (epsilon + skin) * CELL_WIDTH at the positions it
was built on, kept while the two largest displacements since then sum to
below the skin. It misses no pair, by this rounding argument. Let d be a
pair's exact distance at the build, d' its exact distance now, and a, b the
exact displacements of its two particles, so d <= d' + a + b. Every computed
distance or displacement (a subtraction, two squares, an addition and a
sqrt, each rounded to nearest) is within a factor (1 +- 2**-53)**3 of the
exact one, ignoring underflow (an error below 2**-1074 in a square). So a
pair whose computed distance now is below epsilon, while the computed sum of
the two largest computed displacements is below the skin, has a computed
distance at the build below (epsilon + skin) * (1 + 8 * 2**-53), which is
below (epsilon + skin) * CELL_WIDTH however that product rounds: the list
holds it. A NaN or infinite sum is never below the skin, so it rebuilds.

The epsilon-query (``neighbor_blocks``) lays a block of K query rows out
column-major, as (C, K) arrays: column k holds row k's C candidates in
ascending id order. So a running sum down a column in which non-neighbours
add 0.0 has the bits of the same sum over the full (M,) distance row, and
numpy takes it for all K rows at once, one (K,) line of the block at a time;
reductions along each row's short candidate list ran four to five times
slower. The rows of one cell share one candidate list, sorted once. A
one-particle move changes only the rows whose computed distance to the mover
p was or is below epsilon (a row depends on p only through that distance),
and such a row r's neighbours q lie below 2 * epsilon * CELL_WIDTH from p in
the same distance row, the candidates of ``mover_blocks``: the exact d(q, p)
<= d(q, r) + d(r, p) is below 2 * epsilon * (1 + 2**-53)**3, so the computed
one is below 2 * epsilon * (1 + 8 * 2**-53), as in the argument above.

The count-only query (``neighbor_pairs``) measures each pair once: rounded to
nearest, fl(a - b) = -fl(b - a) and squaring drops the sign, so a distance
has the same bits both ways. Taken in cell order, column by column, a
particle's later peers within epsilon lie in the rest of its own cell, the
cell after it and the three cells beside it in the next column, since no such
pair is two cells apart on either axis (the cell list's argument below)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


def is_finite(value) -> bool:
    """``math.isfinite``, and False for an integer past the largest float,
    which ``math.isfinite`` refuses with an OverflowError."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
            if not is_finite(getattr(self, name)):
                raise ValueError(f"world.{name} must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"world.x_min must be < world.x_max (got {self.x_min} >= {self.x_max})")
        if not self.y_min < self.y_max:
            raise ValueError(f"world.y_min must be < world.y_max (got {self.y_min} >= {self.y_max})")
        w, h = self.width, self.height
        if not math.isfinite(w * w + h * h):
            raise ValueError(f"world's squared diagonal must be finite (width {w}, height {h})")

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

    @cached_property
    def lo(self) -> np.ndarray:
        """The lower-left corner (x_min, y_min) as a read-only (2,) array."""
        return _read_only(self.x_min, self.y_min)

    @cached_property
    def hi(self) -> np.ndarray:
        """The upper-right corner (x_max, y_max) as a read-only (2,) array."""
        return _read_only(self.x_max, self.y_max)


def _read_only(*values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


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


def pairwise_distances(arr: np.ndarray, rows=None, cols=None) -> np.ndarray:
    """sqrt(dx*dx + dy*dy) from each particle in ``rows`` (default: all) to
    every particle, giving the (M, M) matrix with zero diagonal by default;
    or, given ``cols`` (C, K) of peer ids, or (C, 1) shared by all K rows,
    the (C, K) distances from each of the K rows to the C peers of its column.
    Built one axis at a time in place, so it holds two arrays of the result's
    shape and nothing larger."""
    if cols is None:
        src = arr if rows is None else arr[rows]
        dx = np.subtract.outer(src[:, 0], arr[:, 0])
        dy = np.subtract.outer(src[:, 1], arr[:, 1])
    else:
        # peer minus row: the negated difference, whose square has the same
        # bits. Each axis's rows are one contiguous (K,) line, subtracted in
        # place from a (C, K) take (a tenth off the distances of a
        # 400-particle list sensing) and broadcast from a shared (C, 1) one
        x, y = arr[:, 0], arr[:, 1]
        dx, dy = x.take(cols), y.take(cols)
        sx, sy = (x, y) if rows is None else (x.take(rows), y.take(rows))
        if dx.shape[1] == len(sx):
            dx -= sx
            dy -= sy
        else:  # a (C, 1) column shared by the rows
            dx, dy = dx - sx, dy - sy
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def neighbor_mask(dist: np.ndarray, cols: np.ndarray, rows, epsilon: float) -> np.ndarray:
    """(C, K) mask of the neighbours of particles ``rows`` (K,) among the
    peers ``cols`` (C, K) or (C, 1) of their columns at distances ``dist``
    (C, K): the peers strictly within ``epsilon``. A peer at exactly epsilon
    is out of contact, and a particle never neighbours itself."""
    return (dist < epsilon) & (cols != np.asarray(rows))


# --- the epsilon-neighbour query ------------------------------------------------
#
# A uniform cell list (Allen & Tildesley, Computer Simulation of Liquids, ch. 5):
# the particles are binned into square cells a hair wider than epsilon, so every
# peer strictly within epsilon of a particle lies in the 3 x 3 cells around its
# own, and a query computes distances to those candidates only. The hair (a
# relative 2**-20) covers the rounding of the cell index, so a pair whose
# computed distance is below epsilon is never two cells apart (exact while a
# swarm spans fewer than MAX_CELLS cells along an axis).

# Below this many (query row, particle) pairs, a query takes every particle as
# a candidate: binning costs more than it prunes. A full sensing at the default
# seeding density (epsilon = 10) crossed over near M = 150 on a 2-CPU x86 VM.
DENSE_PAIRS = 150 * 150
# Query rows are taken in blocks of about this many (row, candidate) entries,
# so no query holds more than O(BLOCK_ENTRIES) of them, whatever M is. At
# about 40 bytes of working arrays an entry, a block stays in a 2 MB L2
# cache: a dense 400 x 400 sensing ran 1.3x faster in such blocks than whole.
BLOCK_ENTRIES = 1 << 15
# A query whose cells would leave at least this share of its K * M pairs as
# candidates takes every particle instead: a candidate (gathered, sorted,
# padded) costs two to three dense pairs, and at M = 400 the cells lost to the
# dense rows from a share of about 0.3 up.
DENSE_SHARE = 0.25
CELL_WIDTH = 1.0 + 2.0 ** -20
MAX_CELLS = 1 << 30


def neighbor_blocks(arr: np.ndarray, rows, epsilon: float):
    """Yield ``(block, cols, dist, mask)`` for successive blocks of the query
    ``rows`` (ids into ``arr``), laid out column-major: ``block`` names its K
    rows, and column k of ``cols`` (C, K), or of one (C, 1) shared by them
    all, holds row k's candidate peers in ascending id order. ``dist`` (C, K)
    holds their ``pairwise_distances`` and ``mask`` (C, K) their
    ``neighbor_mask``, which picks exactly the row's epsilon-neighbours.
    Padding repeats the row's own id, which the mask never picks. Every array
    is C-contiguous, so a row's summary is a reduction over axis 0, which
    numpy takes one (K,) line at a time (see ``mql.summarize``).

    The candidates are the particles in the 3 x 3 cells around the row's own,
    and the blocks then name the rows grouped by cell; or every particle (C =
    M), with the rows in the given order (one block names the int64 ``rows``
    itself), when the query is small (K * M below DENSE_PAIRS) or the cells
    would not prune (at least DENSE_SHARE of the K * M pairs would be
    candidates, as in a collapsed swarm). Either way a row's neighbours come
    in ascending id order (see the module docstring)."""
    rows = np.asarray(rows, dtype=np.int64)
    plan = _cell_plan(arr, rows, epsilon) if len(rows) * len(arr) >= DENSE_PAIRS else None
    if plan is None:
        return _dense_blocks(arr, rows, epsilon, _id_col(len(arr)))
    return _query_blocks(arr, epsilon, plan, BLOCK_ENTRIES)


def mover_blocks(arr: np.ndarray, before: np.ndarray, after: np.ndarray, epsilon: float):
    """The ``neighbor_blocks`` of the rows a one-particle move can change, the
    mover and its epsilon-peers in its (1, M) distance rows ``before`` and
    ``after`` the move, against the one (C, 1) list of the peers within reach
    of it in either row (see the module docstring)."""
    rows = np.flatnonzero((before < epsilon) | (after < epsilon))
    reach = 2.0 * epsilon * CELL_WIDTH
    cols = np.flatnonzero((before < reach) | (after < reach))[:, None]
    return _dense_blocks(arr, rows, epsilon, cols)


def _dense_blocks(arr: np.ndarray, rows: np.ndarray, epsilon: float, cols: np.ndarray):
    # the blocks of the int64 rows against one (C, 1) column of ascending
    # peer ids ``cols``
    step = max(1, BLOCK_ENTRIES // len(cols))
    for block in [rows] if len(rows) <= step else np.split(rows, range(step, len(rows), step)):
        dist = pairwise_distances(arr, block, cols)
        own = block.astype(cols.dtype, copy=False)  # compared in the ids' narrow type
        yield block, cols, dist, neighbor_mask(dist, cols, own, epsilon)


def _query_blocks(arr: np.ndarray, epsilon: float, plan, entries: int):
    # the blocks of neighbor_blocks on the cells, given its _cell_plan, of
    # about ``entries`` candidates each
    m = len(arr)
    order, rows, cell, first, size = plan
    lengths = size.sum(axis=1).tolist()
    s = 0
    while s < len(rows):
        # a block of rows whose first cell's list is the longest, so its lists
        # are of about one length: each cell's candidates once, sorted, padded
        # with M (which sorts last), and repeated for each of the cell's rows
        # (grouped, in ascending cell order); past the shortest list, the
        # padding becomes each row's own id
        e = s + max(1, entries // lengths[cell[s]])
        block, own = rows[s:e], cell[s:e]
        c0, c1 = int(own[0]), int(own[-1]) + 1
        lists = _gather(np.full(c1 - c0, m), first[c0:c1], size[c0:c1], order)
        lists.sort(axis=0)
        cols = np.repeat(lists, np.bincount(own - c0), axis=1)
        pad = cols[lengths[c1 - 1]:]
        np.copyto(pad, block, where=pad == m)
        dist = pairwise_distances(arr, block, cols)
        yield block, cols, dist, neighbor_mask(dist, cols, block, epsilon)
        s = e


def _gather(block: np.ndarray, first: np.ndarray, size: np.ndarray, source: np.ndarray):
    """(C, k) ids: for each entry of ``block``, a column of the entries of
    ``source`` in its runs first .. first + size (``first`` and ``size`` (k,
    r), r runs an entry, taken in order), padded with the entry itself up to
    the longest."""
    lens = size.ravel()
    flat = np.arange(lens.sum()) + np.repeat(first.ravel() - (np.cumsum(lens) - lens), lens)
    return _padded(block, size.sum(axis=1), source[flat])


def _padded(block: np.ndarray, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(C, k) ids: column j holds the next ``counts[j]`` of ``values``, taken
    in order, then ``block[j]`` down to the longest column (C >= 1)."""
    cols = np.repeat(block[None], max(int(counts.max()), 1), axis=0)
    cols.T[np.arange(len(cols)) < counts[:, None]] = values
    return cols


@lru_cache(maxsize=8)
def _id_col(m: int) -> np.ndarray:
    """Read-only (M, 1) column of the ids 0..M-1, in the narrowest unsigned
    type that holds them: the mask compares ids over all M * K pairs, six
    times faster in 16 bits than in 64. Shared by every dense query on M
    particles."""
    ids = np.arange(m, dtype=np.min_scalar_type(m))[:, None]
    ids.flags.writeable = False
    return ids


def _cells(arr: np.ndarray, epsilon: float):
    """Bin ``arr`` into the cell list. Returns (order, key, stride): the
    particle ids sorted by cell, each particle's cell key, and the keys a
    column of cells takes; or None when the cells would not prune."""
    low, width = arr.min(axis=0), epsilon * CELL_WIDTH
    span = np.floor((arr.max(axis=0) - low) / width) + 1
    if not 2 < span.max() < MAX_CELLS:
        # every particle's 3 x 3 cells hold the whole swarm, or the cells are
        # too many to number
        return None
    # a margin of empty cells all round; cells are numbered column by column,
    # so the three cells of a strip have consecutive keys
    cell = np.floor((arr - low) / width).astype(np.int64) + 1
    stride = int(span[1]) + 2
    key = cell[:, 0] * stride + cell[:, 1]
    return np.argsort(key, kind="stable"), key, stride


def _cell_plan(arr: np.ndarray, rows: np.ndarray, epsilon: float):
    """Bin ``arr`` into the cell list (``_cells``). Returns (order, rows, cell,
    first, size): the particle ids sorted by cell; the query rows grouped by
    cell, longest candidate list first, and each one's cell; and for each cell
    (c, 3) the start and length in ``order`` of the three strips of 3 cells
    (one per column of cells) around it; or None when the cells would not prune."""
    cells = _cells(arr, epsilon)
    if cells is None:
        return None
    order, key, stride = cells
    sorted_key, key = key[order], key[rows]
    middle = key[:, None] + np.array([-stride, 0, stride])
    first = np.searchsorted(sorted_key, middle - 1, side="left")
    size = np.searchsorted(sorted_key, middle + 1, side="right") - first
    lengths = size.sum(axis=1)
    if int(lengths.sum()) >= DENSE_SHARE * len(rows) * len(arr):
        return None
    by_cell = np.lexsort((key, -lengths))
    opens = np.ones(len(rows), dtype=bool)
    opens[1:] = np.diff(key[by_cell]) != 0
    return order, rows[by_cell], np.cumsum(opens) - 1, first[by_cell[opens]], size[by_cell[opens]]


# --- the carried neighbour list -------------------------------------------------
#
# A Verlet list (see the module docstring): the epsilon-query of a swarm that
# moved less than the skin since the list was built runs on the list's
# columns, without binning, gathering or sorting candidates.

# The list's skin, as a share of epsilon. More skin lists more peers (a disc
# of radius epsilon * (1 + SKIN)) and rebuilds less often. With the default
# steps (at most 2.0 a tick against epsilon = 10) and seeding density, 0.5
# rebuilt the list 13 times in 100 ticks at M = 400 and 17 at M = 2000, on
# a 2-CPU x86 VM. 0.3 rebuilt it 36-44 times and gained much less; 0.6-0.7
# rebuilt it 4-10 times, but their radius puts the cells of a 400-particle
# swarm near DENSE_SHARE, past which no list is built.
SKIN = 0.5


class NeighborList:
    """The Verlet list the epsilon-query of every particle of a moving swarm
    runs on: each row's peers whose computed distance is below
    (epsilon + skin) * CELL_WIDTH at the positions ``built_on``, in ascending
    id order and padded with the row's own id, one column a row as in
    ``neighbor_blocks``. The skin is SKIN * epsilon.

    ``blocks`` rebuilds the list first when it was never built or is
    ``stale``, and then yields the listed blocks, without binning, gathering
    or sorting. The list is one (C, M) block, C being the longest list of
    peers, whenever it holds at most BLOCK_ENTRIES ids; otherwise it is the
    build's blocks, whose rows have candidate lists of about one length, each
    padded to its own longest list. A swarm whose cells would not prune at the
    list's radius (a collapsed swarm) lists nothing, and its queries run
    ``neighbor_blocks`` on every particle instead."""

    def __init__(self, epsilon: float):
        self.epsilon, self.skin = epsilon, SKIN * epsilon
        self.built_on = None
        self._blocks = []

    def stale(self, arr: np.ndarray) -> bool:
        """Whether ``arr`` may hold a pair within epsilon that the list lacks:
        unless the two largest displacements since the build, each computed
        as ``pairwise_distances`` computes a distance, sum to below the skin."""
        d = arr - self.built_on
        d *= d
        moved = np.sqrt(d[:, 0] + d[:, 1])
        if len(moved) > 1:
            moved = np.partition(moved, len(moved) - 2)[-2:]
        return not moved.sum() < self.skin

    def blocks(self, arr: np.ndarray):
        """``neighbor_blocks`` of every particle of ``arr``, through the list
        when it lists any: each block names its rows."""
        if self.built_on is None or self.stale(arr):
            self._rebuild(arr)
        if not self._blocks:  # nothing listed: the cells would not prune
            yield from neighbor_blocks(arr, np.arange(len(arr)), self.epsilon)
        for block, cols in self._blocks:
            dist = pairwise_distances(arr, block, cols)
            yield block, cols, dist, neighbor_mask(dist, cols, block, self.epsilon)

    def _rebuild(self, arr: np.ndarray) -> None:
        # list each row's peers within the radius among its cell candidates
        # at that radius, all in one block until the longest list says they
        # do not fit; nothing when the cells would not prune
        self.built_on, self._blocks = arr.copy(), []
        radius = (self.epsilon + self.skin) * CELL_WIDTH
        plan = _cell_plan(arr, np.arange(len(arr)), radius)
        if plan is None:
            return
        # measured in blocks of half BLOCK_ENTRIES candidates: such a block
        # holds about twice the arrays of a sensing block (the candidates'
        # ids, distances and mask, and the peers kept), and at full size they
        # pass the 128 KB above which glibc's malloc may map fresh pages,
        # whose first writes fault. The 13 builds of a 400-particle run took
        # 12.1 ms in half-size blocks against 13.7 ms in full-size ones (1310
        # page faults against 1935), the minimum of 40 on a 2-CPU x86 VM.
        found, longest = [], 1
        for block, cols, _, within in _query_blocks(arr, radius, plan, BLOCK_ENTRIES // 2):
            counts = np.add.reduce(within, axis=0)
            # each row's peers within the radius, row after row: flatnonzero
            # picks them without the branches of a boolean index
            found.append((block, counts, cols.T.ravel().take(np.flatnonzero(within.T))))
            longest = max(longest, int(counts.max()))
            if longest * len(arr) > BLOCK_ENTRIES:
                self._blocks += [(rows, _padded(rows, n, peers)) for rows, n, peers in found]
                found = []
        if found:
            rows, n, peers = (np.concatenate(parts) for parts in zip(*found))
            self._blocks.append((rows, _padded(rows, n, peers)))


def neighbor_pairs(arr: np.ndarray, epsilon: float):
    """Yield ``(rows, cols, mask)`` blocks whose masks (k, C) pick each pair
    (rows[r], cols[c]) strictly within ``epsilon`` once, never a particle with
    itself (see the module docstring). A block of rows in cell order measures
    the later particles up to the cell after its last row's, then the next
    column's cells beside its rows. A small swarm (M * M below DENSE_PAIRS) is
    one block, and one that the cells would not prune is one cell."""
    m = len(arr)
    if m * m < DENSE_PAIRS:
        ids = np.arange(m)
        yield ids, ids, (pairwise_distances(arr) < epsilon) & _later(m)
        return
    order, key, stride = _cells(arr, epsilon) or (np.arange(m), np.zeros(m, dtype=np.int64), 3)
    key, arr = key[order], arr[order]
    # k rows whose strips to the end of the next column are at most w wide
    # measure at most k (k + w) <= BLOCK_ENTRIES entries; more than 64 rows
    # measured more pairs beside them than numpy's per-call cost saved
    w = int((np.searchsorted(key, key - key % stride + 2 * stride) - np.arange(m)).max())
    step = max(1, min(int((math.sqrt(w * w + 4 * BLOCK_ENTRIES) - w) / 2), 64))
    s = np.arange(0, m, step)
    last = key[np.minimum(s + step, m) - 1]
    # a block measures its column up to the cell after its last row's (keys
    # are whole: below last + 2), then the next column's cells beside its rows
    ends = np.searchsorted(key, np.stack((last + 2, key[s] + stride - 1, last + stride + 2)))
    later = _later(min(step, m))
    for s, mid, n0, n1 in zip(s.tolist(), *ends.tolist()):
        e = min(s + step, m)
        # one slice (a view) where the next column's cells follow on
        cand = (slice(s, n1) if n0 <= mid
                else np.concatenate((np.arange(s, mid), np.arange(n0, n1))))
        mask = pairwise_distances(arr[cand], slice(0, e - s)) < epsilon
        mask[:, :e - s] &= later[:e - s, :e - s]
        yield order[s:e], order[cand], mask


@lru_cache(maxsize=16)
def _later(k: int) -> np.ndarray:
    """Read-only (k, k) mask of the strict upper triangle: a block's own pairs, each once."""
    later = np.arange(k)[None] > np.arange(k)[:, None]
    later.flags.writeable = False
    return later


def neighbor_counts(arr: np.ndarray, epsilon: float) -> np.ndarray:
    """(M,) number of epsilon-neighbours of every particle.

    A swarm whose bounding-box diagonal sqrt(wx*wx + wy*wy) is below epsilon
    (a collapsed PSO swarm) counts M - 1 for every particle and measures no
    distance. That is exactly what the query would count: every pair's
    |xi - xj| and |yi - yj| are at most the box's extents wx and wy, and
    subtraction, squaring, addition and sqrt, each rounded to nearest, are
    monotone, so every distance ``pairwise_distances`` computes is at most the
    diagonal computed in the same order, and so strictly within epsilon.
    (``math.hypot`` rounds differently and would break the argument.)
    Otherwise ``neighbor_pairs`` measures each pair once, booked to both ends:
    a distance has the same bits either way (see the module docstring)."""
    wx, wy = (arr.max(axis=0) - arr.min(axis=0)).tolist()
    if math.sqrt(wx * wx + wy * wy) < epsilon:
        return np.full(len(arr), len(arr) - 1)
    counts = np.zeros(len(arr), dtype=int)
    for rows, cols, mask in neighbor_pairs(arr, epsilon):
        # summed in 32 bits, about twice as fast as in 64: a sum is at most M
        counts[rows] += np.add.reduce(mask, axis=1, dtype=np.int32)
        counts[cols] += np.add.reduce(mask, axis=0, dtype=np.int32)
    return counts
