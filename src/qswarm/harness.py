"""Seeded experiment execution and stable on-disk artifacts.

A run is fully determined by its SwarmConfig: one ``numpy`` generator is
seeded from ``cfg.seed`` and consumed in a documented order, so re-running any
config reproduces the trace CSV and summary JSON byte-for-byte. Floats in CSV
output are rendered with 9 significant digits; the summary is recomputable
from the trace plus the echoed config.

The two bundled experiment presets:

* ``fig3-compare``   matched learning-swarm and baseline configs (same seed,
  M=20, T=500, snapshots at 10/50/500) for the cohesion-vs-collapse contrast.
* ``fig4-individuals``   one learning-swarm config, T=100, with per-tick
  decision series emitted for three designated particles.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, SwarmConfig, config_to_dict, dump_config
from .core import Vec2
from .metrics import (Trace, as_trace, classify_decisions, connectivity_components,
                      cumulative_rewards, dispersion, drift_onsets)
from .mql import MqlEngine, StateId
from .pso import PsoEngine

TRACE_COLUMNS = ("tick", "particle", "x", "y", "state", "action", "reward",
                 "neighbor_count")

PRESETS = ("fig3-compare", "fig4-individuals")

# Memory a run needs at least: the per-particle state and its summary (the
# learning swarm's final utility tables, as Python floats and as JSON text,
# set it: a 20,000-particle run peaked at about 7 KB a particle under
# tracemalloc) plus the trace columns (48 bytes a row), held twice while the
# per-tick rows are stacked. Sensing adds only blocks of a fixed size
# (``core.BLOCK_ENTRIES``), whatever M is.
PARTICLE_BYTES = 8 * 1024
TRACE_BYTES_PER_ROW = 2 * 48


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
    final_q_tables: list[list[float]] | None

    def to_dict(self) -> dict:
        # vars, not dataclasses.asdict, which would deep-copy the q-tables
        d = dict(vars(self))
        d["snapshot_components"] = {str(t): s for t, s in self.snapshot_components.items()}
        return d


def _build_engine(cfg: SwarmConfig, rng: np.random.Generator):
    if cfg.algorithm == "pso":
        params = replace(cfg.pso, bounds=cfg.world)
        return PsoEngine(cfg.swarm_size, params, cfg.objective(),
                         sensing_radius=cfg.mql.epsilon, rng=rng)
    return MqlEngine(cfg.swarm_size, cfg.mql, cfg.world, rng)


def check_memory(cfg: SwarmConfig) -> None:
    """Raise ConfigError if the run's estimated memory exceeds the machine's
    physical memory, before anything is allocated."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to compare with
        return
    m, t = cfg.swarm_size, cfg.iterations
    need = PARTICLE_BYTES * m + TRACE_BYTES_PER_ROW * m * t
    if need > physical:
        raise ConfigError(
            f"swarm_size={m} with iterations={t} needs about {need / 2**30:.3g} GiB "
            f"(the swarm state plus the trace), more than the "
            f"{physical / 2**30:.3g} GiB of physical memory")


def run_experiment(cfg: SwarmConfig):
    """Run cfg.iterations ticks from the seeded initial swarm.

    Returns (trace, snapshots, summary): the Trace of every (tick, particle)
    row, a {tick: positions} dict for each requested snapshot (tick 0 meaning
    the initial scatter), and the RunSummary. Raises ConfigError without
    starting if the run cannot fit in memory (see ``check_memory``).
    """
    check_memory(cfg)
    rng = np.random.default_rng(cfg.seed)
    engine = _build_engine(cfg, rng)
    epsilon = cfg.mql.epsilon

    snapshots: dict[int, list[Vec2]] = {}
    if 0 in cfg.snapshot_ticks:
        snapshots[0] = engine.positions()
    initial_dispersion = dispersion(engine.positions())

    ticks = []
    for t in range(cfg.iterations):
        ticks.append(engine.tick())
        if (t + 1) in cfg.snapshot_ticks:
            snapshots[t + 1] = engine.positions()
    trace = Trace.concat(ticks)
    del ticks  # the stacked columns replace the per-tick ones

    final_positions = engine.positions()
    if cfg.algorithm == "mql":
        q_shape = list(engine.q.shape[1:])
        q_tables = engine.q.reshape(cfg.swarm_size, -1).tolist()
    else:
        q_shape = None
        q_tables = None

    summary = RunSummary(
        config=config_to_dict(cfg),
        cumulative_rewards=cumulative_rewards(trace),
        drift_onsets=drift_onsets(trace),
        initial_dispersion=initial_dispersion,
        final_dispersion=dispersion(final_positions),
        # the last tick's neighbour counts are the final positions' proximity
        # graph, so this is connected_fraction(final_positions, epsilon)
        final_connected_fraction=float((trace.neighbor_count[-1] > 0).mean()),
        snapshot_components={t: connectivity_components(pos, epsilon)
                             for t, pos in sorted(snapshots.items())},
        q_table_shape=q_shape,
        final_q_tables=q_tables,
    )
    return trace, snapshots, summary


# --- on-disk formats ----------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".9g")


_STATE_CELLS = {-1: "", **{int(s): s.name for s in StateId}}
_STATE_IDS = {name: s for s, name in _STATE_CELLS.items()}


def write_trace_csv(trace, path) -> None:
    """Header + one row per (tick, particle) of a Trace or a TickRecord
    sequence; state/action/reward cells are empty when the row carries no
    decision. Written one tick at a time."""
    tr = as_trace(trace)
    particles = range(tr.shape[1])
    with open(path, "w") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        for tick, *columns in zip(tr.ticks.tolist(), tr.positions, tr.state, tr.action,
                                  tr.reward, tr.neighbor_count):
            f.writelines(
                f"{tick},{i},{_fmt(x)},{_fmt(y)},{_STATE_CELLS[s]},{'' if a < 0 else a},"
                f"{'' if math.isnan(r) else _fmt(r)},{c}\n"
                for i, (x, y), s, a, r, c in zip(particles, *(col.tolist() for col in columns)))


def read_trace_csv(path) -> Trace:
    """Inverse of write_trace_csv at the printed precision."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"{path} does not carry the expected trace header")
    cols = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(TRACE_COLUMNS)
    tick, particle, x, y, state, action, reward, ncount = cols
    return Trace.from_rows(
        np.array(tick, dtype=np.int64), np.array(particle, dtype=np.int64),
        np.column_stack([np.array(x, dtype=float), np.array(y, dtype=float)]),
        [_STATE_IDS[s] for s in state],
        [-1 if a == "" else int(a) for a in action],
        [np.nan if r == "" else float(r) for r in reward],
        np.array(ncount, dtype=np.int64))


def write_snapshot_csv(positions: list[Vec2], path) -> None:
    lines = ["particle,x,y"]
    for i, p in enumerate(positions):
        lines.append(f"{i},{_fmt(p.x)},{_fmt(p.y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def write_decisions_csv(trace, particles, path) -> None:
    """Per-tick decision series (reward sign) for the designated particles."""
    tr = as_trace(trace)
    lines = ["particle,tick,reward,decision"]
    for i in particles:
        rewards = tr.column(i).reward[:, 0]
        acted = ~np.isnan(rewards)
        for tick, r, d in zip(tr.ticks[acted].tolist(), rewards[acted].tolist(),
                              classify_decisions(tr, i)):
            lines.append(f"{i},{tick},{_fmt(r)},{d}")
    Path(path).write_text("\n".join(lines) + "\n")


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
    artifact name.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace, snapshots, summary = run_experiment(cfg)

    paths: dict[str, Path] = {}
    paths["trace"] = _write_atomically(out / "trace.csv",
                                       lambda p: write_trace_csv(trace, p))
    for t, positions in sorted(snapshots.items()):
        key = f"snapshot_t{t}"
        paths[key] = _write_atomically(out / f"{key}.csv",
                                       lambda p: write_snapshot_csv(positions, p))
    paths["summary"] = _write_atomically(out / "summary.json",
                                         lambda p: write_summary_json(summary, p))
    paths["config"] = _write_atomically(out / "effective_config.yaml",
                                        lambda p: p.write_text(dump_config(cfg)))
    if cfg.decision_particles:
        paths["decisions"] = _write_atomically(
            out / "decisions.csv",
            lambda p: write_decisions_csv(trace, cfg.decision_particles, p))
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
