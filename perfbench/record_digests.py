"""Record the golden sha256 digests of trace.csv and summary.json.

    python3 perfbench/record_digests.py --seeds 0-9

Runs one batch of every workload at each seed, refuses to record a run that
raises or breaks an invariant, and rewrites perfbench/digests.json. The
committed digests are the byte-identity gate: an engine change must leave
them as they are, so re-record only for a deliberate change of output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from worker import Judge, import_qswarm, run_batch
from workloads import DIGESTS_PATH, WORK_DIR, build_configs, load_spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    qswarm = import_qswarm()
    spec = load_spec()
    golden: dict = {}
    tmp = WORK_DIR / "record"
    try:
        for name in spec["workloads"]:
            golden[name] = {}
            for seed in seeds:
                configs = build_configs(spec, name, seed)
                _, results = run_batch(qswarm.harness, configs, tmp / f"{name}-{seed}")
                judge = Judge(name, seed)
                judge.golden = None
                judge.batch(configs, results)
                judge.invariants(configs, results)
                if judge.failed:
                    print("\n".join(judge.problems), file=sys.stderr)
                    return 1
                golden[name][str(seed)] = [r["digests"] for r in results]
                shutil.rmtree(tmp / f"{name}-{seed}")
                print(f"{name} seed {seed}: {len(results)} runs", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
