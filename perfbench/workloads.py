"""Workload definitions: turn spec.json and a benchmark seed into SwarmConfigs.

Importing this module imports nothing from qswarm, so the stdlib-only run.py
can read the spec too.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = BENCH_DIR / "spec.json"
DIGESTS_PATH = BENCH_DIR / "digests.json"
WORK_DIR = ROOT / ".perfbench"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def run_seeds(workload: dict, seed: int) -> list[int]:
    n = workload["runs_per_config"]
    return [seed * n + k for k in range(n)]


def build_configs(spec: dict, name: str, seed: int):
    """[(label, SwarmConfig)] in run order: seeds outer, configs inner."""
    from qswarm import config_from_dict

    workload = spec["workloads"][name]
    runs = []
    for s in run_seeds(workload, seed):
        for i, cfg in enumerate(workload["configs"]):
            runs.append((f"s{s}-c{i}", config_from_dict({**cfg, "seed": s})))
    return runs


def particle_ticks(configs) -> int:
    return sum(cfg.swarm_size * cfg.iterations for _, cfg in configs)
