"""Run configuration: one dataclass holding every tunable, strict YAML loading
(unknown keys are rejected by name), and an exact round-trip echo so a dumped
effective config reproduces its run byte-for-byte. Only loading needs PyYAML;
the echo writes PyYAML's bytes itself.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

from .core import Vec2, WorldBounds
from .mql import MqlParams
from .pso import Objective, PsoParams
from .qlearning import LearningParams

ALGORITHMS = ("mql", "pso")

MAX_SEED = 2 ** 64 - 1


class ConfigError(ValueError):
    """Raised for unreadable, unparsable, or invalid configuration input."""


@dataclass
class SwarmConfig:
    """Everything a run needs. Both engine sections are always present; the
    ``algorithm`` field selects which one actually drives the particles (the
    mql.epsilon sensing radius feeds connectivity metrics for both)."""

    algorithm: str = "mql"
    swarm_size: int = 20
    iterations: int = 500
    seed: int = 0
    world: WorldBounds = field(default_factory=WorldBounds)
    mql: MqlParams = field(default_factory=MqlParams)
    pso: PsoParams = field(default_factory=PsoParams)
    pso_target: Vec2 | None = None
    snapshot_ticks: tuple[int, ...] = ()
    decision_particles: tuple[int, ...] = ()
    output_dir: str = "out"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.swarm_size < 1:
            raise ConfigError(f"swarm_size must be >= 1, got {self.swarm_size}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        bad = [t for t in self.snapshot_ticks if not 0 <= t <= self.iterations]
        if bad:
            raise ConfigError(
                f"snapshot_ticks must lie in [0, iterations={self.iterations}], got {bad}")
        bad = [p for p in self.decision_particles if not 0 <= p < self.swarm_size]
        if bad:
            raise ConfigError(
                f"decision_particles must lie in [0, swarm_size={self.swarm_size}), got {bad}")
        repeated = sorted(p for p, n in Counter(self.decision_particles).items() if n > 1)
        if repeated:
            raise ConfigError(f"decision_particles must not repeat a particle, got {repeated}")
        # judge computes n * epsilon in floats for up to M - 1 neighbours, the
        # same product as this one, and an infinite one turns into NaN positions
        if self.algorithm == "mql" and not math.isfinite((self.swarm_size - 1)
                                                         * float(self.mql.epsilon)):
            raise ConfigError(f"(swarm_size - 1) * mql.epsilon must be finite, got swarm_size="
                              f"{self.swarm_size} with epsilon={self.mql.epsilon!r}")
        if self.pso_target is not None and not self.world.contains(self.pso_target):
            raise ConfigError(f"pso.target {self.pso_target.as_tuple()} is outside the world")

    def objective(self) -> Objective:
        target = self.pso_target if self.pso_target is not None else self.world.center()
        return Objective(target=target)


def _check_keys(mapping: dict, allowed, section: str) -> None:
    unknown = [k for k in mapping if k not in allowed]
    if unknown:
        where = f"section '{section}'" if section else "top level"
        raise ConfigError(f"unknown key '{unknown[0]}' in {where} "
                          f"(known keys: {', '.join(allowed)})")


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {type(value).__name__}")
    return value


def _integer(value, key: str) -> int:
    # bools are ints to Python and int() truncates, so both would be echoed
    # back as a different value than the one written
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not float(_real(value, key)).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str, nullable: bool = False):
    # float() would take True as 1.0 and "10" as 10.0; the value is returned
    # unchanged so an integer stays an integer in the echo
    if value is None and nullable:
        return value
    if isinstance(value, bool) or not isinstance(value, Real):
        hint = ""
        try:  # PyYAML reads 1.7e308, whose exponent has no sign, as a string;
            # every key refuses inf and nan, so only a finite value gets the hint
            if isinstance(value, str) and math.isfinite(float(value)):
                hint = f" (YAML read it as text: write {_float_text(float(value))})"
        except ValueError:
            pass
        raise ConfigError(f"{key} must be a number, got {value!r}{hint}")
    try:  # every number is checked as a float, which an int past the largest cannot become
        float(value)
    except OverflowError:
        raise ConfigError(f"{key} is an integer too large for a float (over 1.8e+308)") from None
    return value


def _string(value, key: str) -> str:
    # str() would write None as "None" and [a] as "['a']"
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return list(value)


def _check_flag(mapping: dict, key: str, section: str) -> None:
    # a quoted "no" or "false" is a truthy string, not an off switch
    if key in mapping and not isinstance(mapping[key], bool):
        raise ConfigError(f"{section}.{key} must be true or false, got {mapping[key]!r}")


def config_from_dict(data: dict) -> SwarmConfig:
    """Build a validated SwarmConfig from plain nested dicts; every key absent
    from ``data`` takes its documented default."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys(data, _KNOWN_KEYS, "")

    world_data = _section(data, "world")
    _check_keys(world_data, _KNOWN_KEYS["world"], "world")
    world_kwargs = {k: float(_real(v, f"world.{k}")) for k, v in world_data.items()}
    try:
        world = WorldBounds(**world_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    mql_data = dict(_section(data, "mql"))
    _check_keys(mql_data, _KNOWN_KEYS["mql"], "mql")
    _check_flag(mql_data, "recover_lost", "mql")
    for key in ("epsilon", "d_min", "tau_r", "tau_s", "reward_max", "learning_rate",
                "discount", "explore_rate", "init_span"):
        if key in mql_data:
            # a null d_min or init_span means "derive it"
            _real(mql_data[key], f"mql.{key}", nullable=key in ("d_min", "init_span"))
    if "step_set" in mql_data:
        mql_data["step_set"] = tuple(float(_real(s, "mql.step_set entry"))
                                     for s in _list(mql_data["step_set"], "mql.step_set"))
    try:
        learning_kwargs = {}
        for key in ("learning_rate", "discount", "explore_rate"):
            if key in mql_data:
                learning_kwargs[key] = float(mql_data.pop(key))
        try:
            learning = LearningParams(**learning_kwargs)
        except ValueError as exc:
            raise ConfigError(f"mql.{exc}") from exc
        mql = MqlParams(learning=learning, **mql_data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    pso_data = dict(_section(data, "pso"))
    _check_keys(pso_data, _KNOWN_KEYS["pso"], "pso")
    _check_flag(pso_data, "canonical_velocity", "pso")
    for key in ("c1", "c2", "inertia_w0", "inertia_decrement", "constriction",
                "v_min", "v_max"):
        if key in pso_data:
            _real(pso_data[key], f"pso.{key}")
    target_raw = pso_data.pop("target", None)
    pso_target = None
    if target_raw is not None:
        if not (isinstance(target_raw, (list, tuple)) and len(target_raw) == 2):
            raise ConfigError(f"pso.target must be a [x, y] pair, got {target_raw!r}")
        x, y = (float(_real(v, "pso.target entry")) for v in target_raw)
        try:
            pso_target = Vec2(x, y)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"pso.target: {exc}") from exc
    try:
        pso = PsoParams(bounds=world, **pso_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    try:
        kwargs = {}
        for key in ("algorithm", "output_dir"):
            if key in data:
                kwargs[key] = _string(data[key], key)
        for key in ("swarm_size", "iterations", "seed"):
            if key in data:
                kwargs[key] = _integer(data[key], key)
        for key in ("snapshot_ticks", "decision_particles"):
            if key in data:
                kwargs[key] = tuple(_integer(t, key) for t in _list(data[key], key))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return SwarmConfig(world=world, mql=mql, pso=pso, pso_target=pso_target, **kwargs)


def load_config(path) -> SwarmConfig:
    """Parse and validate a YAML config file; errors name the offending key."""
    import yaml  # only reading a file needs PyYAML

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if data is None:
        data = {}
    return config_from_dict(data)


def config_to_dict(cfg: SwarmConfig) -> dict:
    """Plain nested dict of the effective configuration, including every
    resolved default (so the dump is self-contained)."""
    return {
        "algorithm": cfg.algorithm,
        "swarm_size": cfg.swarm_size,
        "iterations": cfg.iterations,
        "seed": cfg.seed,
        "world": {
            "x_min": cfg.world.x_min, "x_max": cfg.world.x_max,
            "y_min": cfg.world.y_min, "y_max": cfg.world.y_max,
        },
        "mql": {
            "epsilon": cfg.mql.epsilon,
            "d_min": cfg.mql.d_min,
            "tau_r": cfg.mql.tau_r,
            "tau_s": cfg.mql.tau_s,
            "reward_max": cfg.mql.reward_max,
            "step_set": list(cfg.mql.step_set),
            "learning_rate": cfg.mql.learning.learning_rate,
            "discount": cfg.mql.learning.discount,
            "explore_rate": cfg.mql.learning.explore_rate,
            "schedule": cfg.mql.schedule,
            "init_span": cfg.mql.init_span,
            "recover_lost": cfg.mql.recover_lost,
        },
        "pso": {
            "c1": cfg.pso.c1,
            "c2": cfg.pso.c2,
            "inertia_w0": cfg.pso.inertia_w0,
            "inertia_decrement": cfg.pso.inertia_decrement,
            "constriction": cfg.pso.constriction,
            "v_min": cfg.pso.v_min,
            "v_max": cfg.pso.v_max,
            "canonical_velocity": cfg.pso.canonical_velocity,
            "target": None if cfg.pso_target is None
                      else [cfg.pso_target.x, cfg.pso_target.y],
        },
        "snapshot_ticks": list(cfg.snapshot_ticks),
        "decision_particles": list(cfg.decision_particles),
        "output_dir": cfg.output_dir,
    }


# the loader accepts exactly the keys the echo writes, and lists them in its order
_KNOWN_KEYS = config_to_dict(SwarmConfig())


# A string PyYAML writes plain, as it stands: one that starts with a letter, "_"
# or "/" and holds only [A-Za-z0-9_./-] has no indicator, comment, space to fold
# at, or digit to read as a number or date, so only its resolver's boolean and
# null words (in any case, to be safe) would need quotes
_PLAIN = re.compile(r"[A-Za-z_/][A-Za-z0-9_./-]*")
_RESOLVED_WORDS = frozenset(("yes", "no", "true", "false", "on", "off", "null"))


class _NotPlain(Exception):
    """A value whose YAML spelling the emitter does not vouch for."""


def _float_text(x: float) -> str:
    """PyYAML's spelling of a float (its SafeRepresenter.represent_float)."""
    if x != x:
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    text = repr(x).lower()
    # YAML 1.1 reads 1e+17 as text, so PyYAML writes 1.0e+17
    if "." not in text and "e" in text:
        text = text.replace("e", ".0e", 1)
    return text


def _scalar(value) -> str:
    kind = type(value)  # exact types: bool is an int, and PyYAML refuses subclasses
    if kind is float:
        return _float_text(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if kind is str and _PLAIN.fullmatch(value) and value.lower() not in _RESOLVED_WORDS:
        return value
    raise _NotPlain


def _emit(mapping: dict, indent: str, lines: list) -> None:
    for key, value in mapping.items():
        if type(value) is dict:
            lines.append(f"{indent}{key}:\n")
            _emit(value, indent + "  ", lines)
        elif type(value) is list:
            if not value:
                lines.append(f"{indent}{key}: []\n")
                continue
            lines.append(f"{indent}{key}:\n")
            lines.extend(f"{indent}- {_scalar(v)}\n" for v in value)
        else:
            lines.append(f"{indent}{key}: {_scalar(value)}\n")


def dump_config(cfg: SwarmConfig) -> str:
    """YAML text of the effective config; load_config on it reproduces ``cfg``
    exactly (floats round-trip via repr)."""
    # The bytes of yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    # for the closed schema of config_to_dict: block mappings at a two-space
    # indent, block sequences at their key's indent ("[]" when empty), and
    # scalars as its representer spells them. A value outside that (a string
    # that is not plainly safe, a number of another type) leaves the whole
    # document to PyYAML, which is then imported.
    data = config_to_dict(cfg)
    lines = []
    try:
        _emit(data, "", lines)
    except _NotPlain:
        import yaml
        return yaml.safe_dump(data, sort_keys=False, default_flow_style=False)
    return "".join(lines)
