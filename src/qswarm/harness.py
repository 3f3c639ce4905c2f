"""Seeded experiment execution and stable on-disk artifacts.

A run is fully determined by its SwarmConfig: one ``numpy`` generator is
seeded from ``cfg.seed`` and consumed in a documented order, so re-running any
config reproduces the trace CSV and summary JSON byte-for-byte. Floats in CSV
output are rendered with 9 significant digits. A summary is checked by
rerunning its echoed config, not from the trace: the trace does not hold the
learning swarm's final q-tables, and its 9-digit rewards need not sum to the
summary's cumulative rewards in the last bits.

A run streams. The engine ticks into one reused block of whole ticks
(``BLOCK_ROWS`` rows), and each filled block goes to the trace writer, to
running totals for the summary and to the decision particles' columns. So
``run_to_dir`` holds a block, the snapshots and those columns, never the
whole (T, M) trace; ``run_experiment`` runs the same loop and keeps every block.

The two bundled experiment presets:

* ``fig3-compare``   matched learning-swarm and baseline configs (same seed,
  M=20, T=500, snapshots at 10/50/500) for the cohesion-vs-collapse contrast.
* ``fig4-individuals``   one learning-swarm config, T=100, with per-tick
  decision series emitted for three designated particles.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import ConfigError, SwarmConfig, config_to_dict, dump_config
from .metrics import (RunningTotals, StateId, Trace, as_trace, classify_decisions,
                      connectivity_components, dispersion)
from .mql import NUM_ACTIONS, MqlEngine
from .pso import PsoEngine

TRACE_COLUMNS = ("tick", "particle", "x", "y", "state", "action", "reward",
                 "neighbor_count")

PRESETS = ("fig3-compare", "fig4-individuals")

# Memory a run needs at least: the per-particle state and its summary (the
# learning swarm's final utility tables are the engine's array, which the
# writer renders a row at a time: a 20,000-particle, 1-tick run_to_dir peaked
# at 20.3 MB under tracemalloc, about 1 KB a particle) plus the snapshots (16
# bytes a particle per snapshot tick) plus the trace columns it holds, 48 bytes
# a row: all T x M rows for run_experiment, T rows per decision particle for
# run_to_dir. run_to_dir holds no other term in T: its summary keeps (M,)
# running totals, and its ticks stream through one block of BLOCK_ROWS rows, or
# of one tick where M is larger (48 bytes a particle). Sensing and the trace
# writer add only blocks of a fixed size (``core.BLOCK_ENTRIES``,
# ``BLOCK_ROWS``), whatever M is: the cell query's sorted candidate lists, one
# per cell of a block, are no larger than the block, and a round-robin tick
# adds its mover's two (1, M) distance rows. The exception is the neighbour
# list a simultaneous swarm carries: about M x C ids of 8 bytes, C being the
# longest list of peers within epsilon * (1 + core.SKIN) in its block (36 to
# 43 at M = 400 and the default seeding density, where the whole list is one
# block of at most core.BLOCK_ENTRIES ids; well inside PARTICLE_BYTES). The
# list is built only where the cells prune, where candidates average below
# core.DENSE_SHARE x M a particle.
PARTICLE_BYTES = 4 * 1024
TRACE_BYTES_PER_ROW = 48


@dataclass
class RunSummary:
    config: dict
    cumulative_rewards: list[float]
    drift_onsets: list[int | None]
    initial_dispersion: float
    final_dispersion: float
    final_connected_fraction: float
    snapshot_components: dict[int, list[int]]
    q_table_shape: list[int] | None
    final_q_tables: np.ndarray | None  # (M, 60), one row per particle

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict, which would deep-copy the q-tables
        d = dict(vars(self))
        d["snapshot_components"] = {str(t): s for t, s in self.snapshot_components.items()}
        if self.final_q_tables is not None:
            d["final_q_tables"] = self.final_q_tables.tolist()
        return d


def _build_engine(cfg: SwarmConfig, rng: np.random.Generator):
    if cfg.algorithm == "pso":
        params = replace(cfg.pso, bounds=cfg.world)
        return PsoEngine(cfg.swarm_size, params, cfg.objective(),
                         sensing_radius=cfg.mql.epsilon, rng=rng)
    return MqlEngine(cfg.swarm_size, cfg.mql, cfg.world, rng)


def check_memory(cfg: SwarmConfig, whole_trace: bool = True) -> None:
    """Raise ConfigError if the run's estimated memory exceeds the machine's
    physical memory, before anything is allocated. ``whole_trace``: the run
    holds its whole trace (``run_experiment``), else only its blocks and the
    decision particles' columns (``run_to_dir``)."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return
    m, t = cfg.swarm_size, cfg.iterations
    columns = m if whole_trace else len(cfg.decision_particles)
    need = (m * (PARTICLE_BYTES + 16 * len(set(cfg.snapshot_ticks)))
            + TRACE_BYTES_PER_ROW * t * columns)
    held = "the trace" if whole_trace else "the decision columns"
    if need > physical:
        raise ConfigError(
            f"swarm_size={m} with iterations={t} needs about {need / 2**30:.3g} GiB "
            f"(the swarm state, {held} and the snapshots), more than the "
            f"{physical / 2**30:.3g} GiB of physical memory")


def _keeper(kept: Trace, columns=slice(None)):
    """A sink copying the ``columns`` of each block into ``kept`` at the
    block's ticks."""
    def keep(block: Trace, start: int) -> None:
        rows = kept.window(start, start + len(block.ticks))
        rows.ticks[:] = block.ticks
        for name in ("positions", "state", "action", "reward", "neighbor_count"):
            getattr(rows, name)[:] = getattr(block, name)[:, columns]
    return keep


class _Run:
    """One seeded run: its engine, its tick loop (``blocks``) and what its
    summary needs, gathered as the ticks go."""

    def __init__(self, cfg: SwarmConfig):
        self.cfg = cfg
        self.engine = _build_engine(cfg, np.random.default_rng(cfg.seed))
        self.snapshots: dict[int, np.ndarray] = {}
        if 0 in cfg.snapshot_ticks:
            self.snapshots[0] = self.engine.pos.copy()
        self.initial_dispersion = dispersion(self.engine.pos)
        self.totals = RunningTotals(cfg.swarm_size)

    def blocks(self, *sinks) -> Iterator[Trace]:
        """Tick the run into one reused block Trace of max(1, BLOCK_ROWS // M)
        whole ticks; hand each filled block (the last may be shorter) to the
        running totals and to each ``sink(block, start)``, ``start`` being its
        first tick's row, then yield it. The next block overwrites it, so a
        consumer copies what it keeps."""
        cfg, engine = self.cfg, self.engine
        t, m = cfg.iterations, cfg.swarm_size
        per_block = max(1, BLOCK_ROWS // m)
        buffer = Trace.empty(min(per_block, t), m)
        for start in range(0, t, per_block):
            block = buffer.window(0, min(per_block, t - start))
            for k in range(len(block.ticks)):
                engine.tick(block.at(k))
                if start + k + 1 in cfg.snapshot_ticks:
                    self.snapshots[start + k + 1] = engine.pos.copy()
            self.totals.add(block)
            for sink in sinks:
                sink(block, start)
            yield block

    def summary(self) -> RunSummary:
        """The summary of the finished run."""
        cfg, engine, totals = self.cfg, self.engine, self.totals
        if totals.ticks != cfg.iterations:
            raise RuntimeError(f"the run stopped after {totals.ticks} of {cfg.iterations} ticks")
        learning = cfg.algorithm == "mql"
        return RunSummary(
            config=config_to_dict(cfg),
            cumulative_rewards=totals.cumulative_rewards(),
            drift_onsets=totals.drift_onsets(),
            initial_dispersion=self.initial_dispersion,
            final_dispersion=dispersion(engine.pos),
            # the last tick's neighbour counts are the final positions' proximity
            # graph, so this is connected_fraction(engine.pos, epsilon)
            final_connected_fraction=float((totals.last_counts > 0).mean()),
            snapshot_components={t: connectivity_components(pos, cfg.mql.epsilon)
                                 for t, pos in sorted(self.snapshots.items())},
            q_table_shape=list(engine.q.shape[1:]) if learning else None,
            final_q_tables=engine.q.reshape(cfg.swarm_size, -1) if learning else None,
        )


def run_experiment(cfg: SwarmConfig):
    """Run cfg.iterations ticks from the seeded initial swarm.

    Returns (trace, snapshots, summary): the Trace of every (tick, particle)
    row, a {tick: (M, 2) positions} dict for each requested snapshot (tick 0
    meaning the initial scatter), and the RunSummary. Raises ConfigError without
    starting if the run cannot fit in memory (see ``check_memory``). The ticks
    run through the same loop as ``run_to_dir``'s, whose blocks are kept here.
    """
    check_memory(cfg)
    run = _Run(cfg)
    trace = Trace.empty(cfg.iterations, cfg.swarm_size)
    for _ in run.blocks(_keeper(trace)):
        pass
    return trace, run.snapshots, run.summary()


# --- on-disk formats ----------------------------------------------------------
#
# Every CSV row is one %-template, and floats take "%.9g" (the same text as
# format(x, ".9g")). A writer interleaves its columns into one flat cell list
# and fills the template for a whole block of rows in one formatting call.

_SNAPSHOT_ROW = "%d,%.9g,%.9g\n"
_DECISION_ROW = "%d,%d,%.9g,%s\n"

# trace rows a run ticks into before it hands the block on, and the writer
# renders per formatting call, in whole ticks (at least one); a block pays
# some 0.1 ms of fixed array calls, so it holds some thousands
BLOCK_ROWS = 4096

# the state cells indexed by state id + 1: "" for -1, a row without a decision
_STATE_NAMES = np.array(["", *(s.name for s in sorted(StateId))], dtype=object)
_STATE_IDS = {name: k - 1 for k, name in enumerate(_STATE_NAMES)}


def _interleave(*columns) -> tuple:
    """The equal-length ``columns`` as one flat tuple, row by row."""
    width = len(columns)
    cells = [None] * (width * len(columns[0]))
    for k, column in enumerate(columns):
        cells[k::width] = column
    return tuple(cells)


def _render(row: str, *columns) -> str:
    """``row`` once per entry of the equal-length ``columns``, filled from
    them in one formatting call."""
    return row * len(columns[0]) % _interleave(*columns)


def _blank_where(values: np.ndarray, missing: np.ndarray) -> list:
    """``values`` as Python objects, with "" where ``missing``."""
    cells = values.astype(object)
    cells[missing] = ""
    return cells.tolist()


def _reward_cells(rewards: np.ndarray, missing: np.ndarray) -> list[str]:
    """Each reward at 9 significant digits, "" where ``missing`` (NaN)."""
    cells = np.full(rewards.shape, "", dtype=object)
    cells[~missing] = _texts(rewards[~missing])
    return cells.tolist()


def _texts(values: np.ndarray) -> list[str]:
    """Each float of ``values`` at 9 significant digits, in one formatting call."""
    return ("%.9g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _decision_column(values: np.ndarray, missing: np.ndarray, spec: str, blanked):
    """One decision column of some trace rows as (template cell, cells): the
    empty cell baked into the template when no row has a value, ``spec`` over
    the values when every row has one, else "%s" over ``blanked(values,
    missing)``, which writes "" for the missing ones."""
    if missing.all():
        return "", None
    if not missing.any():
        return spec, values.tolist()
    return "%s", blanked(values, missing)


@lru_cache(maxsize=64)
def _tick_rows(m: int, state: str, action: str, reward: str) -> tuple[str, ...]:
    """The template of one tick's M trace rows as the parts that the tick's
    text joins: the particle ids and the decision columns' template cells
    are baked in."""
    return ("", *(f",{i},%s,%s,{state},{action},{reward},%d\n" for i in range(m)))


def _row_cells(pick, xy, state, action, reward, count):
    """The ``_tick_rows`` parts and the cells, in row-major order, of the rows
    of an (n, M) block that ``pick`` selects: an (n, M) mask, or None for
    every row, taken through views. ``xy`` holds the (n, M, 2) coordinate
    texts."""
    take = (lambda a: a.reshape(-1, *a.shape[2:])) if pick is None else (lambda a: a[pick])
    xy, state, action, reward = take(xy), take(state), take(action), take(reward)
    # state names carry their own "" for a row without a state
    decisions = (
        ("", None) if (state < 0).all() else ("%s", _STATE_NAMES[state + 1].tolist()),
        _decision_column(action, action < 0, "%d", _blank_where),
        _decision_column(reward, np.isnan(reward), "%.9g", _reward_cells))
    parts = _tick_rows(len(count[0]), *(spec for spec, _ in decisions))
    return parts, _interleave(xy[:, 0].tolist(), xy[:, 1].tolist(),
                              *(values for _, values in decisions if values is not None),
                              take(count).tolist())


def _changed(bits: np.ndarray, carried) -> np.ndarray:
    """Which entries of the (n, w) block ``bits`` differ from the entry a row
    up, the first row from ``carried`` (w,), or all of it when that is None."""
    changed = np.ones(bits.shape, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=changed[1:])
    if carried is not None:
        np.not_equal(bits[0], carried, out=changed[0])
    return changed


def _filled(changed: np.ndarray, fresh, carried) -> np.ndarray:
    """The (n, w) object array of the ``fresh`` texts (row-major) where ``changed``
    is set, else of the text a row up; ``carried`` holds the w texts above."""
    n, w = changed.shape
    # the pool holds, column by column, the text above the block and then the
    # column's fresh texts in row order. An entry's index in it is its column
    # plus the fresh texts up to it in column-major order, which for an
    # unchanged entry is the index of the text above it
    source = (np.cumsum(changed.T).reshape(w, n) + np.arange(w)[:, None]).T
    pool = np.empty(w + len(fresh), dtype=object)
    pool[source[changed]] = fresh
    pool[source[0] - changed[0]] = carried
    return pool[source]


def write_trace_csv(trace, path) -> None:
    """Header + one row per (tick, particle) of a Trace, of a TickRecord
    sequence, or of an iterator of tick blocks: Traces of whole consecutive
    ticks, as ``run_to_dir`` streams them, each read only while it is current
    (what the writer carries from one block to the next, it copies). A row
    without a decision has empty action and reward cells; its state cell is
    empty too unless the row carries one (round-robin non-movers carry their
    current state).

    A Trace is written a block of whole ticks (``BLOCK_ROWS``) at a time. A
    row with the bits of the same particle's row a tick earlier in every cell
    (0.0 and -0.0 differ) reuses that row's text, and so does a coordinate
    whose bits repeat. A block renders only its changed rows, in one call, and
    each tick joins its row texts; a block whose rows all changed fills its
    ticks' templates in one call instead, and splits its last tick into the
    row texts the next block may reuse.
    """
    if isinstance(trace, Iterator):
        blocks = trace
    else:
        tr = as_trace(trace)
        ticks_per_block = max(1, BLOCK_ROWS // max(tr.shape[1], 1))
        blocks = (tr.window(k, k + ticks_per_block)
                  for k in range(0, tr.shape[0], ticks_per_block))
    carried = None, None
    with open(path, "w") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        for block in blocks:
            carried = _write_block(f, block, *carried)


def _write_block(f, block: Trace, last, row_texts):
    """Write the rows of one block of whole ticks to ``f`` (see
    ``write_trace_csv``) and return what the next block reuses: ``last``,
    the last tick's cells and coordinate texts (copies: a streamed block is
    overwritten), and ``row_texts``, the list of its row texts, each without
    its tick. Its other temporaries die with the call, before the next
    block's ticks run."""
    n, m = block.shape
    state, action, reward, count = (block.state, block.action, block.reward,
                                    block.neighbor_count)
    if state.size and not -1 <= state.min() <= state.max() < len(StateId):
        raise ValueError("trace states must be -1 (no decision) or a StateId")
    if action.size and not -1 <= action.min() <= action.max() < NUM_ACTIONS:
        raise ValueError(f"trace actions must be -1 (no decision) or 0..{NUM_ACTIONS - 1}")
    if count.size and count.min() < 0:
        raise ValueError("trace neighbour counts must not be negative")
    ticks = [str(tick) for tick in block.ticks.tolist()]
    coords = block.positions.reshape(n, 2 * m)
    bits = coords.view(np.int64)
    cells = reward.view(np.int64), state, action, count
    # a row changed where a coordinate did, else where another cell did
    moved = _changed(bits, last and last[0])
    changed = moved[:, 0::2] | moved[:, 1::2]
    if not changed.all():
        changed |= _changed(np.hstack(cells), last and np.hstack(last[1])).reshape(
            n, 4, m).any(axis=1)
    texts = _filled(moved, _texts(coords[moved]), last and last[2])
    last = bits[-1].copy(), [column[-1].copy() for column in cells], texts[-1].copy()
    xy = texts.reshape(n, m, 2)
    if changed.all():
        parts, row_cells = _row_cells(None, xy, state, action, reward, count)
        text = "".join([tick.join(parts) for tick in ticks]) % row_cells
        f.write(text)
        # the lines of its last tick, each without its tick
        cut, tail = len(ticks[-1]), text[text.rfind(f"\n{ticks[-1]},0,") + 1:]
        return last, [line[cut:] for line in tail.splitlines(True)]
    # the changed rows' texts, one string each without its tick (a row holds no
    # other line break), forward-filled down each particle's column
    parts, row_cells = _row_cells(changed, xy, state, action, reward, count)
    template = "".join([parts[i + 1] for i in np.nonzero(changed)[1].tolist()])
    rows = _filled(changed, (template % row_cells).splitlines(True), row_texts)
    f.write("".join([tick + tick.join(row) for tick, row in zip(ticks, rows.tolist())]))
    return last, rows[-1].tolist()


def read_trace_csv(path) -> Trace:
    """Inverse of write_trace_csv at the printed precision. A row without one
    cell per column, with an unknown state, with a cell that is not a number
    where the column holds one, with an action outside 0..11 or with a
    negative neighbour count is a ValueError naming its line."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"{path} does not carry the expected trace header")
    rows = [line.split(",") for line in lines[1:]]
    for k, row in enumerate(rows, start=2):
        if len(row) != len(TRACE_COLUMNS) or row[4] not in _STATE_IDS:
            raise ValueError(f"{path} line {k}: expected {len(TRACE_COLUMNS)} cells and a "
                             f"known state, got {lines[k - 1]!r}")
    cols = list(zip(*rows)) or [()] * len(TRACE_COLUMNS)

    def parse(column: int, convert):
        """``convert`` of one column's cells; a cell it rejects is a
        ValueError naming its line."""
        try:
            return convert(cols[column])
        except (ValueError, OverflowError):
            for k, cell in enumerate(cols[column], start=2):
                try:
                    convert([cell])
                except (ValueError, OverflowError):
                    raise ValueError(f"{path} line {k}: the {TRACE_COLUMNS[column]} cell "
                                     f"{cell!r} is not a number, got {lines[k - 1]!r}") from None
            raise

    def refuse(column: int, bad: np.ndarray, expected: str):
        """A ValueError naming the first line whose cell ``bad`` marks."""
        if bad.any():
            k = int(bad.argmax()) + 2
            raise ValueError(f"{path} line {k}: the {TRACE_COLUMNS[column]} cell "
                             f"{cols[column][k - 2]!r} is not {expected}, got {lines[k - 1]!r}")

    ints = lambda cells: np.array(cells, dtype=np.int64)
    floats = lambda cells: np.array(cells, dtype=float)
    # an empty action cell is -1 (no decision)
    action = parse(5, lambda cells: ints([-1 if a == "" else int(a) for a in cells]))
    written = np.array([a != "" for a in cols[5]], dtype=bool)
    refuse(5, written & ((action < 0) | (action >= NUM_ACTIONS)), f"an action in 0..{NUM_ACTIONS - 1}")
    counts = parse(7, ints)
    refuse(7, counts < 0, "a neighbour count")
    return Trace.from_rows(
        parse(0, ints), parse(1, ints), np.column_stack([parse(2, floats), parse(3, floats)]),
        [_STATE_IDS[s] for s in cols[4]], action,
        parse(6, lambda cells: [np.nan if r == "" else float(r) for r in cells]), counts)


def write_snapshot_csv(positions: np.ndarray, path) -> None:
    """Header + one row per particle of an (M, 2) positions array."""
    Path(path).write_text("particle,x,y\n" + _render(
        _SNAPSHOT_ROW, range(len(positions)), positions[:, 0].tolist(),
        positions[:, 1].tolist()))


# The q-tables' key as json.dumps(indent=2) writes it at the top level: a
# string value holds no raw newline and nested keys sit deeper, so it occurs once.
_Q_KEY = '\n  "final_q_tables": '


def write_summary_json(summary: RunSummary, path) -> None:
    """``json.dumps(summary.to_dict(), indent=2, sort_keys=True)`` and a newline.

    The per-particle lists and the q-tables are spliced in where json.dumps
    of the rest holds their keys, at the indent json gives them: the same
    bytes without the pure-Python encoder that ``indent`` selects. A list is
    written by json's C encoder, which parts items with ", "; the q-tables a
    row at a time, one repr per float, a row with the bits of the row before
    it reusing that row's text. repr writes inf and nan where json writes
    Infinity and NaN, words no finite float's repr holds. Empty lists and a
    None or empty table take json.dumps.
    """
    q = summary.final_q_tables
    tables = q is not None and q.size > 0
    lists = [name for name in ("cumulative_rewards", "drift_onsets") if getattr(summary, name)]
    rest = json.dumps(replace(summary, **dict.fromkeys(lists),
                              final_q_tables=None if tables else q).to_dict(),
                      indent=2, sort_keys=True)
    for name in lists:
        key = f'\n  "{name}": '  # occurs once, as _Q_KEY does
        # no ", " occurs inside a number, null, Infinity or NaN
        items = json.dumps(getattr(summary, name))[1:-1].replace(", ", ",\n    ")
        rest = rest.replace(key + "null", key + "[\n    " + items + "\n  ]")
    if not tables:
        Path(path).write_text(rest + "\n")
        return
    head, tail = rest.split(_Q_KEY + "null")
    row = ",\n    [\n      " + ",\n      ".join(["%r"] * q.shape[1]) + "\n    ]"
    finite = np.isfinite(q).all()
    bits = np.ascontiguousarray(q).view(np.int64)
    repeats = [False, *(bits[1:] == bits[:-1]).all(axis=1).tolist()]

    def rows():
        for values, repeat in zip(q, repeats):
            if not repeat:
                text = row % tuple(values.tolist())
                if not finite:
                    text = text.replace("inf", "Infinity").replace("nan", "NaN")
            yield text

    texts = rows()
    with open(path, "w") as f:
        f.write(head + _Q_KEY + "[" + next(texts)[1:])  # the first row takes no comma
        f.writelines(texts)
        f.write("\n  ]" + tail + "\n")


def write_decisions_csv(trace, particles, path, columns=None) -> None:
    """Per-tick decision series (reward sign) for the designated particles.
    ``columns`` names the trace column of each particle when the trace holds
    only some particles' columns; by default particle i's is column i."""
    tr = as_trace(trace)
    parts = ["particle,tick,reward,decision\n"]
    for i, column in zip(particles, particles if columns is None else columns):
        rewards = tr.column(column).reward[:, 0]
        acted = ~np.isnan(rewards)
        decisions = classify_decisions(tr, column)
        parts.append(_render(_DECISION_ROW, [i] * len(decisions), tr.ticks[acted].tolist(),
                             rewards[acted].tolist(), decisions))
    Path(path).write_text("".join(parts))


def _write_atomically(path: Path, write) -> Path:
    """Call ``write`` on a temp file beside ``path``, then rename it into place,
    so a crash mid-write never leaves a truncated file under the final name."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def run_to_dir(cfg: SwarmConfig, out_dir) -> dict[str, Path]:
    """Execute a run and write every artifact under ``out_dir``.

    Writes trace.csv, snapshot_t{k}.csv per requested snapshot, summary.json,
    effective_config.yaml, and decisions.csv when decision particles are
    designated, each one atomically. Returns the written paths keyed by
    artifact name. The ticks stream into trace.csv a block at a time (see
    ``_Run.blocks``), so the run holds its blocks, its snapshots and the
    decision particles' columns, never the whole trace. If the run raises
    before an artifact is in place, the directories it made for ``out_dir``
    are removed again.
    """
    check_memory(cfg, whole_trace=False)
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        run = _Run(cfg)
        particles = list(cfg.decision_particles)
        decided = Trace.empty(cfg.iterations, len(particles))
        sinks = [_keeper(decided, particles)] if particles else []
        paths: dict[str, Path] = {}
        paths["trace"] = _write_atomically(
            out / "trace.csv", lambda p: write_trace_csv(run.blocks(*sinks), p))
        summary = run.summary()
        for t, positions in sorted(run.snapshots.items()):
            key = f"snapshot_t{t}"
            paths[key] = _write_atomically(out / f"{key}.csv",
                                           lambda p: write_snapshot_csv(positions, p))
        paths["summary"] = _write_atomically(out / "summary.json",
                                             lambda p: write_summary_json(summary, p))
        paths["config"] = _write_atomically(out / "effective_config.yaml",
                                            lambda p: p.write_text(dump_config(cfg)))
        if particles:
            paths["decisions"] = _write_atomically(
                out / "decisions.csv",
                lambda p: write_decisions_csv(decided, particles, p, range(len(particles))))
    except BaseException:
        for d in made:  # deepest first; one holding an artifact stays
            try:
                d.rmdir()
            except OSError:
                break
        raise
    return paths


def preset(name: str) -> list[SwarmConfig]:
    """Named experiment configurations (see module docstring)."""
    if name == "fig3-compare":
        base = dict(swarm_size=20, iterations=500, seed=7,
                    snapshot_ticks=(10, 50, 500))
        return [SwarmConfig(algorithm="mql", **base),
                SwarmConfig(algorithm="pso", **base)]
    if name == "fig4-individuals":
        return [SwarmConfig(algorithm="mql", swarm_size=20, iterations=100, seed=7,
                            snapshot_ticks=(100,), decision_particles=(0, 1, 2))]
    raise ValueError(f"unknown preset {name!r}; valid presets: {', '.join(PRESETS)}")
