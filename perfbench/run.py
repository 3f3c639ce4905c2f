"""qswarm benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload mql-400 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; qswarm is imported from its src/.
With ``--trace 0`` the workload runs untraced in a fresh worker process and
the end-to-end metrics of BENCHMARK.json are reported: setup_s (median of
several fresh processes timed from spawn through ``import qswarm`` to the
built config list), wall_s and particle_ticks_per_s (medians over repeated
batches of run_to_dir calls), and peak_rss_mb (the worker's ru_maxrss).
With ``--trace 1`` a worker alternates untraced and traced batches and the
per-layer metrics are reported. Every run's outputs are checked (digests
and invariants, see worker.Judge); runs_attempted and runs_failed are the
``attempted`` and ``failed`` fields of the last output line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This file uses the stdlib only; the work happens in worker.py processes,
each started with one BLAS/OpenMP thread and starting no threads itself. The
worker pins its batches to the CPUs it may use in turn, so one run samples
every CPU of a shared host rather than whichever one it landed on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, ROOT, load_spec

WORKER = BENCH_DIR / "worker.py"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(Exception):
    pass


def call_worker(mode: str, args, env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh process and return the JSON object it printed last."""
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker {mode} exceeded the time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {mode} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker {mode} printed nothing")
    return json.loads(lines[-1])


def end_to_end(args, env: dict, deadline: float):
    setups = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        setups.append(call_worker("setup", args, env, deadline)["ready"] - t0)
    report = call_worker("run", args, env, deadline)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "particle_ticks_per_s": report["particle_ticks"] / report["wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = [f"setup samples: {len(setups)}, batches: {len(report['batch_walls'])} "
             f"of {report['runs_per_batch']} run_to_dir calls, "
             f"{report['particle_ticks']} particle-ticks per batch",
             "batch walls (s): " + " ".join(f"{w:.4f}" for w in report["batch_walls"]),
             "setup samples (s): " + " ".join(f"{s:.4f}" for s in setups)]
    return report, metrics, True, notes


def per_layer(args, env: dict, deadline: float):
    report = call_worker("trace", args, env, deadline)
    notes = [f"traced batches: {len(report['traced_walls'])}, "
             f"untraced batches: {len(report['batch_walls'])}"]
    ok = True
    if report["count_mismatch"]:
        ok = False
        notes.append("counts differ between traced batches: " + ", ".join(report["count_mismatch"]))
    if report["unbalanced_batches"]:
        ok = False
        notes.append("self times do not sum to the traced wall time in batches "
                     + ", ".join(map(str, report["unbalanced_batches"])))
    return report, report["layers"], ok, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})

    try:
        if args.trace:
            report, values, ok, notes = per_layer(args, env, deadline)
            wanted = bench["per_layer"]
        else:
            report, values, ok, notes = end_to_end(args, env, deadline)
            wanted = bench["end_to_end"]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("benchmark failed: no value for " + ", ".join(missing), file=sys.stderr)
        return 1

    env_info = report["env"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: nproc {env_info['nproc']} "
          f"(cpu_count {env_info['cpu_count']}), python {env_info['python']}, "
          f"numpy {env_info['numpy']}, {', '.join(f'{v}=1' for v in THREAD_VARS)}")
    for note in notes:
        print(f"# {note}")
    for problem in report["problems"]:
        print(f"# FAILED {problem}")
    for m in wanted:
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    print(f"runs_attempted {report['attempted']} count")
    print(f"runs_failed {report['failed']} count")
    result = {
        "correct": ok and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
