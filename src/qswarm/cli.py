"""Command-line entry point.

    qswarm run --config cfg.yaml [--seed N] [--algo mql|pso] [--iterations N] [--out DIR]
    qswarm preset fig3-compare --out DIR [--seed N]
    qswarm validate --config cfg.yaml

Flags override file values; the effective configuration is always echoed
(written next to the outputs, printed by ``validate``). Exit code 0 on
success, 1 with a one-line diagnostic on stderr otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ALGORITHMS, ConfigError, dump_config, load_config
from .harness import PRESETS, preset, run_to_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qswarm",
        description="Deterministic swarm simulator: Q-learning cohesion vs PSO baseline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one configured experiment")
    run.add_argument("--config", required=True, help="YAML configuration file")
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument("--algo", choices=ALGORITHMS, default=None, help="override the algorithm")
    run.add_argument("--iterations", type=int, default=None, help="override the tick count")
    run.add_argument("--out", default=None, help="override the output directory")

    pre = sub.add_parser("preset", help="run a named experiment preset")
    pre.add_argument("name", help=f"one of: {', '.join(PRESETS)}")
    pre.add_argument("--out", required=True, help="output directory")
    pre.add_argument("--seed", type=int, default=None, help="override the seed of every arm")

    val = sub.add_parser("validate", help="check a configuration file and echo it")
    val.add_argument("--config", required=True, help="YAML configuration file")

    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.algo is not None:
        overrides["algorithm"] = args.algo
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        cfg = replace(cfg, **overrides)
    paths = run_to_dir(cfg, cfg.output_dir)
    print(f"run complete: {len(paths)} artifacts in {Path(cfg.output_dir).resolve()}")
    return 0


def _cmd_preset(args) -> int:
    configs = preset(args.name)
    out = Path(args.out)
    for cfg in configs:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        arm_dir = out / cfg.algorithm if len(configs) > 1 else out
        cfg = replace(cfg, output_dir=str(arm_dir))
        run_to_dir(cfg, arm_dir)
        print(f"{args.name} [{cfg.algorithm}]: outputs in {arm_dir.resolve()}")
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(dump_config(cfg))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_validate(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception as exc:  # a run that failed in the engine or a writer
        detail = " ".join(str(exc).split())  # on one line
        print(f"error: the run failed: {type(exc).__name__}: {detail}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
