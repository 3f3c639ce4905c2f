"""One benchmark process: set up, or run one workload timed or traced.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py run   --workload W --seed N --seconds S
    python3 perfbench/worker.py trace --workload W --seed N --seconds S

run.py starts this with single-threaded BLAS settings and reads the JSON
object it prints as its last line. ``setup`` reports the CLOCK_MONOTONIC
time at which ``import qswarm`` and the workload's config list are done.
``run`` repeats the workload's batch of run_to_dir calls until the time is
up and reports each batch's wall time. ``trace`` alternates untraced and
traced batches and reports per-layer numbers. Both check every run's
outputs (see ``Judge``).

Modules the setup mode does not need are imported where they are used, so
setup_s counts what a user's run pays and little else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from workloads import DIGESTS_PATH, ROOT, WORK_DIR, build_configs, load_spec, particle_ticks

MIN_BATCHES = 3
MIN_TRACED = 2
EXACT_COUNTS = ("qlearning.select.tie_draws", "core.pairwise_distances.bytes_computed",
                "core.pair_useful_ratio", "harness.write_trace_csv.bytes")


def import_qswarm():
    """Import qswarm from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qswarm

    origin = Path(qswarm.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"qswarm was imported from {origin}, not from {src}")
    return qswarm


def run_batch(harness, configs, out_root: Path, tracer=None):
    """Call run_to_dir for every config; return (per-call wall times, per-run results)."""
    import traceback

    from checks import digests

    times, results = [], []
    for label, cfg in configs:
        if tracer is not None:
            tracer.epsilon = cfg.mql.epsilon
        t0 = time.perf_counter()
        try:
            paths = harness.run_to_dir(cfg, out_root / label)
        except Exception:  # a raising run is counted as failed, the batch goes on
            times.append(time.perf_counter() - t0)
            results.append({"error": traceback.format_exc(limit=3)})
            continue
        times.append(time.perf_counter() - t0)
        results.append({"paths": paths, "digests": digests(paths)})
    return times, results


def median_wall(batches: list[list[float]]) -> float:
    """Wall time of one batch, as the sum over its runs of each run's median
    time across batches; robust to a burst of machine noise inside one batch."""
    return sum(_median(column) for column in zip(*batches))


class Judge:
    """Counts attempted and failed runs of one workload and seed.

    A run fails if it raised, if its digests differ from the committed golden
    digests for this seed (when recorded) or from the same run in the first
    batch, or if its artifacts break an invariant. Invariants are checked on
    the first batch; a later run that matches it byte for byte shares its
    verdict.
    """

    def __init__(self, workload: str, seed: int):
        golden = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
        self.golden = golden.get(workload, {}).get(str(seed))
        self.first = None
        self.batches = 0
        self.failed_runs: set[tuple[int, int]] = set()
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return self.batches * len(self.first or ())

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def _fail(self, runs, label: str, problem: str) -> None:
        self.failed_runs.update(runs)
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")

    def batch(self, configs, results) -> None:
        b = self.batches
        self.batches += 1
        if self.first is None:
            self.first = [r.get("digests") for r in results]
        for k, ((label, _), r) in enumerate(zip(configs, results)):
            if "error" in r:
                self._fail([(b, k)], label, r["error"])
            elif self.golden is not None and r["digests"] != self.golden[k]:
                self._fail([(b, k)], label, "digest differs from the committed golden digest")
            elif r["digests"] != self.first[k]:
                self._fail([(b, k)], label, "digest differs from the first batch of this process")

    def invariants(self, configs, first_results) -> None:
        from checks import invariant_problems

        for k, ((label, cfg), r) in enumerate(zip(configs, first_results)):
            if "paths" in r:
                for problem in invariant_problems(cfg, r["paths"]):
                    self._fail([(b, k) for b in range(self.batches)], label, problem)


def environment() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    import statistics

    return statistics.median(values)


def is_traced_batch(i: int) -> bool:
    """Batch order of a traced process: untraced, traced, traced, then alternating."""
    return i in (1, 2) or (i > 2 and i % 2 == 0)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import gc
    import shutil

    qswarm = import_qswarm()
    configs = build_configs(load_spec(), workload, seed)
    ready = time.monotonic()
    harness = qswarm.harness
    judge = Judge(workload, seed)
    WORK_DIR.mkdir(exist_ok=True)
    tmp = WORK_DIR / f"tmp-{workload}-{seed}"
    shutil.rmtree(tmp, ignore_errors=True)

    if traced:
        from tracer import Tracer
        tracer = Tracer()

    untraced, traced_times, layers, first_results = [], [], [], None
    durations = []
    # On a shared host each CPU's speed drifts on its own; pinning batch i to
    # CPU i mod n makes every run sample all CPUs it may use.
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        i = 0
        while True:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            gc.collect()
            t = time.perf_counter()
            out = tmp / f"b{i}"
            if traced and is_traced_batch(i):
                tracer.reset()
                tracer.install()
                try:
                    times, results = run_batch(harness, configs, out, tracer)
                finally:
                    tracer.uninstall()
                traced_times.append(times)
                layers.append(tracer.summarise())
                if len(traced_times) == 1:
                    tracer.write_spans(WORK_DIR / f"spans-{workload}-seed{seed}.csv")
            else:
                times, results = run_batch(harness, configs, out)
                untraced.append(times)
            judge.batch(configs, results)
            if first_results is None:
                first_results = results
            else:
                shutil.rmtree(out, ignore_errors=True)
            durations.append(time.perf_counter() - t)
            i += 1
            enough = (len(traced_times) >= MIN_TRACED and len(untraced) >= 1 if traced
                      else len(untraced) >= MIN_BATCHES)
            if enough and time.perf_counter() - start + max(durations) > seconds:
                break
        rss = peak_rss_mb()
        judge.invariants(configs, first_results)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(tmp, ignore_errors=True)

    report = {"ready": ready, "attempted": judge.attempted, "failed": judge.failed,
              "problems": judge.problems, "env": environment(),
              "particle_ticks": particle_ticks(configs), "runs_per_batch": len(configs),
              "wall_s": median_wall(untraced), "batch_walls": [sum(b) for b in untraced],
              "peak_rss_mb": rss}
    if traced:
        report.update(layer_report(layers, traced_times, untraced))
    return report


def layer_report(layers: list[dict], traced_times, untraced) -> dict:
    """Per-layer numbers over the traced batches: exact counts from the
    first (and every count that differs between batches listed), times as
    medians."""
    keys = sorted(set().union(*layers))
    for lay in layers:
        pairs = lay.get("core.pairs_computed", 0)
        lay["core.pair_useful_ratio"] = lay.get("core.pairs_within_epsilon", 0) / pairs if pairs else 0.0
    keys.append("core.pair_useful_ratio")
    values, mismatched = {}, []
    for key in keys:
        series = [lay.get(key, 0) for lay in layers]
        if key.endswith(".calls") or key in EXACT_COUNTS or key.startswith("core.pairs_"):
            values[key] = series[0]
            if any(v != series[0] for v in series):
                mismatched.append(key)
        else:
            values[key] = _median(series)
    wall = median_wall(traced_times)
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - median_wall(untraced)
    unbalanced = [i for i, (lay, times) in enumerate(zip(layers, traced_times))
                  if abs(lay["trace.self_sum_s"] - lay["trace.root_s"]) > 1e-9 * max(sum(times), 1.0)
                  or lay["trace.root_s"] > sum(times)]
    return {"layers": values, "count_mismatch": mismatched, "unbalanced_batches": unbalanced,
            "traced_walls": [sum(b) for b in traced_times]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.mode == "setup":
        import_qswarm()
        build_configs(load_spec(), args.workload, args.seed)
        report = {"ready": time.monotonic()}
    else:
        report = measure(args.workload, args.seed, args.seconds, args.mode == "trace")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
