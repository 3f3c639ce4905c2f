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
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import SwarmConfig, config_to_dict, dump_config
from .core import Vec2
from .metrics import (TickRecord, classify_decisions, connected_fraction,
                      connectivity_components, cumulative_reward, dispersion,
                      drift_onset)
from .mql import MqlEngine, StateId
from .pso import PsoEngine

TRACE_COLUMNS = ("tick", "particle", "x", "y", "state", "action", "reward",
                 "neighbor_count")

PRESETS = ("fig3-compare", "fig4-individuals")


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
        return {
            "config": self.config,
            "cumulative_rewards": self.cumulative_rewards,
            "drift_onsets": self.drift_onsets,
            "initial_dispersion": self.initial_dispersion,
            "final_dispersion": self.final_dispersion,
            "final_connected_fraction": self.final_connected_fraction,
            "snapshot_components": {str(t): s for t, s in self.snapshot_components.items()},
            "q_table_shape": self.q_table_shape,
            "final_q_tables": self.final_q_tables,
        }


def _build_engine(cfg: SwarmConfig, rng: np.random.Generator):
    if cfg.algorithm == "pso":
        params = replace(cfg.pso, bounds=cfg.world)
        return PsoEngine(cfg.swarm_size, params, cfg.objective(),
                         sensing_radius=cfg.mql.epsilon, rng=rng)
    return MqlEngine(cfg.swarm_size, cfg.mql, cfg.world, rng)


def run_experiment(cfg: SwarmConfig):
    """Run cfg.iterations ticks from the seeded initial swarm.

    Returns (trace, snapshots, summary): the flat list of TickRecords ordered
    by (tick, particle), a {tick: positions} dict for each requested snapshot
    (tick 0 meaning the initial scatter), and the RunSummary.
    """
    rng = np.random.default_rng(cfg.seed)
    engine = _build_engine(cfg, rng)
    epsilon = cfg.mql.epsilon

    snapshots: dict[int, list[Vec2]] = {}
    if 0 in cfg.snapshot_ticks:
        snapshots[0] = engine.positions()
    initial_dispersion = dispersion(engine.positions())

    trace: list[TickRecord] = []
    for t in range(cfg.iterations):
        trace.extend(engine.tick())
        if (t + 1) in cfg.snapshot_ticks:
            snapshots[t + 1] = engine.positions()

    final_positions = engine.positions()
    if cfg.algorithm == "mql":
        q_shape = list(engine.q.shape[1:])
        q_tables = engine.q.reshape(cfg.swarm_size, -1).tolist()
        rewards = engine.cumulative_rewards.tolist()
    else:
        q_shape = None
        q_tables = None
        rewards = [cumulative_reward(trace, i) for i in range(cfg.swarm_size)]

    summary = RunSummary(
        config=config_to_dict(cfg),
        cumulative_rewards=rewards,
        drift_onsets=[drift_onset(trace, i) for i in range(cfg.swarm_size)],
        initial_dispersion=initial_dispersion,
        final_dispersion=dispersion(final_positions),
        final_connected_fraction=connected_fraction(final_positions, epsilon),
        snapshot_components={t: connectivity_components(pos, epsilon)
                             for t, pos in sorted(snapshots.items())},
        q_table_shape=q_shape,
        final_q_tables=q_tables,
    )
    return trace, snapshots, summary


# --- on-disk formats ----------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def write_trace_csv(trace: list[TickRecord], path) -> None:
    """Header + one row per (tick, particle); state/action/reward cells are
    empty when the record carries no decision."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in sorted(trace, key=lambda r: (r.tick, r.particle)):
        lines.append(",".join((
            str(r.tick),
            str(r.particle),
            _fmt(r.position.x),
            _fmt(r.position.y),
            "" if r.state is None else r.state.name,
            "" if r.action is None else str(r.action),
            "" if r.reward is None else _fmt(r.reward),
            str(r.neighbor_count),
        )))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[TickRecord]:
    """Inverse of write_trace_csv at the printed precision."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"{path} does not carry the expected trace header")
    trace = []
    for line in lines[1:]:
        tick, particle, x, y, state, action, reward, ncount = line.split(",")
        trace.append(TickRecord(
            tick=int(tick), particle=int(particle),
            position=Vec2(float(x), float(y)),
            state=None if state == "" else StateId[state],
            action=None if action == "" else int(action),
            reward=None if reward == "" else float(reward),
            neighbor_count=int(ncount),
        ))
    return trace


def write_snapshot_csv(positions: list[Vec2], path) -> None:
    lines = ["particle,x,y"]
    for i, p in enumerate(positions):
        lines.append(f"{i},{_fmt(p.x)},{_fmt(p.y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_json(summary: RunSummary, path) -> None:
    Path(path).write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def write_decisions_csv(trace: list[TickRecord], particles, path) -> None:
    """Per-tick decision series (reward sign) for the designated particles."""
    lines = ["particle,tick,reward,decision"]
    for i in particles:
        rows = sorted((r for r in trace if r.particle == i and r.reward is not None),
                      key=lambda r: r.tick)
        decisions = classify_decisions(trace, i)
        for r, d in zip(rows, decisions):
            lines.append(f"{i},{r.tick},{_fmt(r.reward)},{d}")
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
