import math
import re
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qswarm.cli import main
from qswarm.config import (ALGORITHMS, MAX_SEED, ConfigError, SwarmConfig,
                           config_from_dict, config_to_dict, dump_config, load_config)
from qswarm.core import Vec2
from qswarm.harness import run_experiment
from qswarm.mql import SCHEDULES, MqlParams
from qswarm.pso import PsoParams
from qswarm.qlearning import LearningParams

BIGGEST = sys.float_info.max


def write_cfg(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return path


def test_minimal_file_fills_documented_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "algorithm: mql\nseed: 42\n"))
    assert cfg.algorithm == "mql"
    assert cfg.seed == 42
    assert cfg.swarm_size == 20
    assert cfg.iterations == 500
    assert cfg.world.x_max == 100.0
    assert cfg.mql.epsilon == 10.0
    assert cfg.mql.d_min == pytest.approx(2.0)
    assert cfg.mql.step_set == (0.5, 1.0, 2.0)
    assert cfg.mql.learning.learning_rate == 0.1
    assert cfg.mql.learning.discount == 0.9
    assert cfg.pso.c1 == 2.0
    assert cfg.pso.inertia_w0 == 0.9
    assert cfg.snapshot_ticks == ()


def test_empty_file_is_all_defaults(tmp_path):
    assert load_config(write_cfg(tmp_path, "")) == SwarmConfig()


def test_missing_file_errors():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path/cfg.yaml")


def test_parse_failure_errors(tmp_path):
    with pytest.raises(ConfigError, match="parse"):
        load_config(write_cfg(tmp_path, "algorithm: [unclosed\n"))


def test_dmin_violation_names_the_key(tmp_path):
    text = "mql:\n  epsilon: 10\n  d_min: 12\n"
    with pytest.raises(ConfigError, match="d_min"):
        load_config(write_cfg(tmp_path, text))


def test_unknown_keys_rejected_by_name(tmp_path):
    with pytest.raises(ConfigError, match="wat"):
        load_config(write_cfg(tmp_path, "wat: 3\n"))
    with pytest.raises(ConfigError, match="turbo"):
        load_config(write_cfg(tmp_path, "mql:\n  turbo: true\n"))
    with pytest.raises(ConfigError, match="omega"):
        load_config(write_cfg(tmp_path, "pso:\n  omega: 0.7\n"))


def test_invalid_values_name_their_key(tmp_path):
    for text, key in [
        ("algorithm: genetic\n", "algorithm"),
        ("swarm_size: 0\n", "swarm_size"),
        ("iterations: 0\n", "iterations"),
        ("seed: -1\n", "seed"),
        ("snapshot_ticks: [9999]\n", "snapshot_ticks"),
        ("world: {x_min: 5, x_max: 5}\n", "x_min"),
        ("mql: {tau_r: 1.5}\n", "tau_r"),
        ("mql: {learning_rate: 7}\n", "learning_rate"),
        ("mql: {schedule: sometimes}\n", "schedule"),
        ("pso: {v_min: 3, v_max: -3}\n", "v_min"),
    ]:
        with pytest.raises(ConfigError, match=key):
            load_config(write_cfg(tmp_path, text))


def test_repeated_decision_particle_is_rejected_by_name():
    # decisions.csv would hold the particle's whole series once per repeat
    with pytest.raises(ConfigError, match=r"decision_particles .*\[1\]"):
        config_from_dict({"swarm_size": 3, "iterations": 5, "decision_particles": [1, 0, 1]})


@pytest.mark.parametrize("text, key", [
    ("swarm_size: 2.5\n", "swarm_size"),
    ("seed: 3.9\n", "seed"),
    ("iterations: true\n", "iterations"),
    ("swarm_size: '20'\n", "swarm_size"),
    ("snapshot_ticks: [1.7]\n", "snapshot_ticks"),
    ("decision_particles: [false]\n", "decision_particles"),
    ("mql: {recover_lost: 'no'}\n", "recover_lost"),
    ("mql: {recover_lost: 1}\n", "recover_lost"),
    ("pso: {canonical_velocity: 'false'}\n", "canonical_velocity"),
    ("mql: {epsilon: true}\n", "mql.epsilon"),
    ("mql: {epsilon: '10'}\n", "mql.epsilon"),
    ("mql: {init_span: '5'}\n", "mql.init_span"),
    ("mql: {learning_rate: '0.1'}\n", "mql.learning_rate"),
    ("mql: {explore_rate: true}\n", "mql.explore_rate"),
    ("mql: {step_set: [0.5, '1', 2]}\n", "mql.step_set"),
    ("mql: {step_set: [0.5, true, 2]}\n", "mql.step_set"),
    ("mql: {step_set: 2}\n", "mql.step_set"),
    ("mql: {step_set: [0.5, 1.0, .inf]}\n", "mql.step_set"),
    ("pso: {c1: true}\n", "pso.c1"),
    ("pso: {v_max: '2'}\n", "pso.v_max"),
    ("pso: {target: [true, 5]}\n", "pso.target"),
    ("pso: {target: ['10', 5]}\n", "pso.target"),
    ("world: {x_max: true}\n", "world.x_max"),
    ("world: {y_min: '0'}\n", "world.y_min"),
    ("snapshot_ticks: 5\n", "snapshot_ticks"),
    ("output_dir: null\n", "output_dir"),
    ("output_dir:\n", "output_dir"),
    ("output_dir: [a]\n", "output_dir"),
    ("output_dir: 5\n", "output_dir"),
])
def test_coercible_values_rejected_by_name(tmp_path, text, key):
    # each of these used to be silently truncated, coerced by float() or str(), or
    # kept as given and echoed back
    with pytest.raises(ConfigError, match=key):
        load_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("world", [
    "{x_min: -1.0e+308, x_max: 1.0e+308}",  # the width overflows to inf
    "{x_max: 1.0e+300, y_max: 1.0e+300}",  # a squared distance overflows
    "{x_max: 1.0e+155, y_max: 1.0e+155}",  # only the squared diagonal overflows
])
def test_a_world_whose_distances_overflow_is_refused(tmp_path, world):
    with pytest.raises(ConfigError, match="world's squared diagonal must be finite") as err:
        load_config(write_cfg(tmp_path, f"world: {world}\n"))
    assert "\n" not in str(err.value)


def test_a_world_whose_squared_diagonal_is_finite_is_accepted(tmp_path):
    # 1e308 + 1e306, below the largest float (about 1.8e308)
    cfg = load_config(write_cfg(tmp_path, "world: {x_max: 1.0e+154, y_max: 1.0e+153}\n"))
    assert (cfg.world.width, cfg.world.height) == (1e154, 1e153)


def test_a_number_yaml_reads_as_text_names_its_spelling(tmp_path):
    # YAML 1.1 reads a float only with a signed exponent: 1.7e308 is a string
    with pytest.raises(ConfigError, match=r"^mql\.reward_max must be a number, got '1\.7e308' "
                                          r"\(YAML read it as text: write 1\.7e\+308\)$"):
        load_config(write_cfg(tmp_path, "mql: {reward_max: 1.7e308}\n"))
    with pytest.raises(ConfigError, match=r"write 1\.0e\+20\)$"):
        load_config(write_cfg(tmp_path, "mql: {reward_max: 1e20}\n"))
    with pytest.raises(ConfigError, match=r"got 'ten'$"):
        load_config(write_cfg(tmp_path, "mql: {epsilon: ten}\n"))
    # only text that float() reads gets the hint; a quoted number is text too
    with pytest.raises(ConfigError, match=r"^mql\.epsilon must be a number, got 'abc'$"):
        load_config(write_cfg(tmp_path, "mql: {epsilon: abc}\n"))
    with pytest.raises(ConfigError, match=r"got '2\.5E3' \(YAML read it as text: write 2500\.0\)$"):
        load_config(write_cfg(tmp_path, "mql: {epsilon: '2.5E3'}\n"))
    # no hint leads to a spelling the key then refuses: every number key is finite
    with pytest.raises(ConfigError, match=r"^mql\.epsilon must be a number, got 'inf'$"):
        load_config(write_cfg(tmp_path, "mql: {epsilon: inf}\n"))
    # a YAML boolean is no number written as text, though float(True) is 1.0
    with pytest.raises(ConfigError, match=r"^mql\.epsilon must be a number, got True$"):
        load_config(write_cfg(tmp_path, "mql: {epsilon: true}\n"))
    cfg = load_config(write_cfg(tmp_path, "mql: {reward_max: 1.7e+308}\n"))
    assert cfg.mql.reward_max == 1.7e308


def test_integer_for_a_float_key_is_echoed_as_written(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "mql: {epsilon: 12}\npso: {c1: 1}\n"))
    assert cfg.mql.epsilon == 12.0 and cfg.pso.c1 == 1.0
    assert load_config(write_cfg(tmp_path, dump_config(cfg))) == cfg


def test_integral_float_is_the_same_integer(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "swarm_size: 12.0\nsnapshot_ticks: [3.0]\n"))
    assert cfg.swarm_size == 12 and cfg.snapshot_ticks == (3,)


def test_round_trip_is_exact(tmp_path):
    text = """
algorithm: pso
swarm_size: 7
iterations: 123
seed: 987654321
world: {x_min: -12.5, x_max: 37.25, y_min: 0.1, y_max: 64.0}
snapshot_ticks: [0, 10, 123]
mql:
  epsilon: 7.3
  tau_r: 0.031
  step_set: [0.25, 1.5, 3.75]
  learning_rate: 0.17
  schedule: round_robin
pso:
  c1: 1.7
  inertia_decrement: 0.995
  canonical_velocity: true
  target: [20.0, 30.5]
"""
    cfg = load_config(write_cfg(tmp_path, text))
    echoed = write_cfg(tmp_path, dump_config(cfg))
    assert load_config(echoed) == cfg


def test_round_trip_of_defaults():
    cfg = SwarmConfig()
    assert config_from_dict(__import__("yaml").safe_load(dump_config(cfg))) == cfg


def _numbers(lo, hi, exclude_min=False, exclude_max=False):
    """The floats in a range and the integers in it: a float key also takes
    an integer, which is echoed as written."""
    floats = st.floats(lo, hi, exclude_min=exclude_min, exclude_max=exclude_max)
    low = math.floor(lo) + 1 if exclude_min else math.ceil(lo)
    high = math.ceil(hi) - 1 if exclude_max else math.floor(hi)
    return floats if low > high else st.one_of(floats, st.integers(low, high))


@st.composite
def _sections(draw, keys):
    """A random subset of ``keys`` (name -> strategy) as a dict, drawn in order
    so later strategies may depend on earlier values."""
    out = {}
    for name, strategy in keys:
        if draw(st.booleans()):
            out[name] = draw(strategy(out) if callable(strategy) else strategy)
    return out


@st.composite
def valid_configs(draw):
    iterations = draw(st.integers(1, 10**6))
    swarm_size = draw(st.integers(1, 10**6))
    x_min, y_min = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    world = {"x_min": x_min, "y_min": y_min,
             "x_max": draw(st.floats(x_min, 2e6, exclude_min=True)),
             "y_max": draw(st.floats(y_min, 2e6, exclude_min=True))}
    steps = sorted(draw(st.sets(st.floats(1e-3, 1e3), min_size=3, max_size=3)))
    mql = draw(_sections([
        ("epsilon", _numbers(1e-3, 1e3)),
        ("d_min", lambda mql: st.one_of(st.none(), st.floats(
            0.0, mql.get("epsilon", 10.0), exclude_min=True, exclude_max=True))),
        ("tau_r", _numbers(0.0, 1.0, exclude_min=True, exclude_max=True)),
        ("tau_s", _numbers(0.0, 1.0, exclude_min=True, exclude_max=True)),
        ("reward_max", _numbers(0.0, 1e6, exclude_min=True)),
        ("step_set", st.just(steps)),
        ("learning_rate", _numbers(0.0, 1.0)),
        ("discount", _numbers(0.0, 1.0)),
        ("explore_rate", _numbers(0.0, 1.0)),
        ("schedule", st.sampled_from(SCHEDULES)),
        ("init_span", st.one_of(st.none(), _numbers(0.0, 1e6, exclude_min=True))),
        ("recover_lost", st.booleans()),
    ]))
    pso = draw(_sections([
        ("c1", _numbers(0.0, 10.0)),
        ("c2", _numbers(0.0, 10.0)),
        ("inertia_w0", _numbers(0.0, 1.0, exclude_min=True)),
        ("inertia_decrement", _numbers(0.0, 1.0, exclude_min=True)),
        ("constriction", _numbers(0.0, 1.0)),
        ("v_min", _numbers(-10.0, 0.0, exclude_max=True)),
        ("v_max", _numbers(0.0, 10.0, exclude_min=True)),
        ("canonical_velocity", st.booleans()),
        ("target", st.one_of(st.none(), st.tuples(
            st.floats(x_min, world["x_max"]), st.floats(y_min, world["y_max"])).map(list))),
    ]))
    data = draw(_sections([
        ("algorithm", st.sampled_from(ALGORITHMS)),
        ("seed", st.integers(0, MAX_SEED)),
        # any text, and paths the echo writes itself rather than through PyYAML
        ("output_dir", st.one_of(st.text(min_size=1, max_size=20),
                                 st.from_regex(r"[A-Za-z_/][A-Za-z0-9_./-]{0,19}",
                                               fullmatch=True))),
        ("snapshot_ticks", st.lists(st.integers(0, iterations), max_size=5)),
        ("decision_particles", st.lists(st.integers(0, swarm_size - 1), max_size=5,
                                       unique=True)),
    ]))
    return config_from_dict({**data, "swarm_size": swarm_size, "iterations": iterations,
                             "world": world, "mql": mql, "pso": pso})


@settings(max_examples=100, deadline=None)
@given(cfg=valid_configs())
def test_every_valid_config_round_trips_through_its_dump(cfg):
    text = dump_config(cfg)
    assert text == pyyaml_dump(cfg)
    echoed = config_from_dict(yaml.safe_load(text))
    assert echoed == cfg
    assert dump_config(echoed) == text


def pyyaml_dump(cfg):
    """The reference the echo matches byte for byte."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=False)


@pytest.mark.parametrize("output_dir", [
    "", "yes", "No", "null", "~", "1.0", "0x1F", "2001-12-14", " lead", "trail ", "a: b",
    "a #b", "- x", "é", "a\nb", "w" * 100, "a b " * 30,
    "out", "runs/fig3-compare/mql", "/tmp/out_2.d", "_x", "n", "Y", "yEs",
])
def test_the_echo_writes_pyyamls_bytes_for_any_output_dir(tmp_path, output_dir):
    cfg = SwarmConfig(output_dir=output_dir)
    assert dump_config(cfg) == pyyaml_dump(cfg)
    assert load_config(write_cfg(tmp_path, dump_config(cfg))) == cfg


@pytest.mark.parametrize("text, spelling", [
    ("mql: {reward_max: 1.0e+17}", "reward_max: 1.0e+17\n"),
    ("world: {x_min: -0.0}", "x_min: -0.0\n"),
    ("mql: {tau_r: 5.0e-324}", "tau_r: 5.0e-324\n"),
    ("mql: {epsilon: 12}", "epsilon: 12\n"),
])
def test_the_echo_spells_floats_as_pyyaml_does(tmp_path, text, spelling):
    cfg = load_config(write_cfg(tmp_path, text + "\n"))
    assert spelling in dump_config(cfg)
    assert dump_config(cfg) == pyyaml_dump(cfg)
    echoed = load_config(write_cfg(tmp_path, dump_config(cfg)))
    assert echoed == cfg
    assert math.copysign(1.0, echoed.world.x_min) == math.copysign(1.0, cfg.world.x_min)


def test_objective_defaults_to_world_center():
    cfg = SwarmConfig()
    assert cfg.objective().target == Vec2(50.0, 50.0)
    cfg2 = config_from_dict({"pso": {"target": [10, 20]}})
    assert cfg2.objective().target == Vec2(10.0, 20.0)


def test_target_outside_world_rejected():
    with pytest.raises(ConfigError, match="target"):
        config_from_dict({"pso": {"target": [500, 500]}})


def test_config_dict_exposes_resolved_defaults():
    d = config_to_dict(SwarmConfig())
    assert d["mql"]["d_min"] == pytest.approx(2.0)
    assert d["pso"]["target"] is None
    assert d["mql"]["step_set"] == [0.5, 1.0, 2.0]


# --- configs at the loader's limits -------------------------------------------

def run_finite(cfg):
    """Run ``cfg`` with numpy's overflow and invalid-value warnings as errors,
    and check its positions, its rewards where there are decisions and its
    q-entries are finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace, _, summary = run_experiment(cfg)
    assert np.isfinite(trace.positions).all()
    assert np.isfinite(trace.reward[trace.action >= 0]).all()
    if summary.final_q_tables is not None:
        assert np.isfinite(summary.final_q_tables).all()


def _wide(lo, hi):
    """Floats anywhere in [lo, hi], or of ordinary size."""
    return st.floats(lo, hi) | st.floats(max(lo, -10.0), min(hi, 10.0))


# the widest world side whose squared diagonal is finite (WorldBounds' check)
WIDEST = math.sqrt(BIGGEST / 2.0)


@st.composite
def limit_configs(draw):
    """Config dicts whose values reach the loader's limits: world sides up to
    WorldBounds' diagonal check, at offsets of their own size, mql.epsilon up
    to 1.7e308, any step_set, v_min and v_max, c1 and c2, constriction in
    [0, 1], both algorithms and both schedules."""
    width, height = (draw(st.floats(1e-3, WIDEST) | st.floats(1.0, 200.0)) for _ in "xy")
    x_min, y_min = (draw(st.floats(-2.0, 1.0)) * side for side in (width, height))
    steps = sorted(draw(st.sets(_wide(1e-300, BIGGEST), min_size=3, max_size=3)))
    v_min, v_max = sorted(draw(_wide(-BIGGEST, BIGGEST)) for _ in "vv")
    return {
        "algorithm": draw(st.sampled_from(ALGORITHMS)),
        "swarm_size": draw(st.integers(1, 24) | st.just(160)),
        "iterations": draw(st.integers(1, 6)),
        "seed": draw(st.integers(0, 2**32)),
        "world": {"x_min": x_min, "x_max": x_min + width, "y_min": y_min, "y_max": y_min + height},
        "mql": {"epsilon": draw(_wide(1e-3, 1.7e308)), "step_set": steps,
                "reward_max": draw(st.floats(1e-3, 1e6)),
                "schedule": draw(st.sampled_from(SCHEDULES)),
                "explore_rate": draw(st.sampled_from([0.0, 0.3]))},
        "pso": {"c1": draw(_wide(0.0, BIGGEST)), "c2": draw(_wide(0.0, BIGGEST)),
                "constriction": draw(st.floats(0.0, 1.0)),
                "v_min": v_min, "v_max": v_max,
                "canonical_velocity": draw(st.booleans())},
        "snapshot_ticks": [0],
    }


@settings(max_examples=150, deadline=None)
@given(data=limit_configs())
# the overflows the loader refuses: (M - 1) * epsilon, the velocity pulls and the
# initial velocities' span
@example(data={"swarm_size": 3, "iterations": 5, "mql": {"epsilon": 1.7e308}})
@example(data={"swarm_size": 20, "iterations": 5, "mql": {"epsilon": 9e307}})
@example(data={"algorithm": "pso", "iterations": 5, "pso": {"c1": 1e308, "c2": 1e308}})
@example(data={"algorithm": "pso", "iterations": 5,
               "pso": {"c1": 1e307, "c2": 1e307, "constriction": 0.0}})
@example(data={"algorithm": "pso", "iterations": 5,
               "pso": {"v_min": -1e308, "v_max": 1e308, "canonical_velocity": True,
                       "constriction": 0.0}})
# integers kept as written for the echo: the checks and the engines compute in floats
@example(data={"swarm_size": 3, "iterations": 5, "mql": {"epsilon": 10 ** 308}})
@example(data={"swarm_size": 3, "iterations": 5, "mql": {"epsilon": 10 ** 20, "d_min": 1}})
@example(data={"swarm_size": 3, "iterations": 5, "mql": {"epsilon": 2 ** 62, "d_min": 1}})
@example(data={"algorithm": "pso", "iterations": 5, "pso": {"c1": 10 ** 308, "c2": 10 ** 308}})
@example(data={"algorithm": "pso", "iterations": 5,
               "pso": {"c1": 10 ** 305, "c2": 10 ** 305, "v_min": -10 ** 307, "v_max": 10 ** 307,
                       "canonical_velocity": True, "constriction": 0}})
@example(data={"algorithm": "pso", "iterations": 5,
               "pso": {"v_min": -10 ** 308, "v_max": 10 ** 308}})
def test_every_config_the_loader_accepts_runs_finite(data):
    """Every config the loader accepts runs without an overflow or an
    invalid value. mql.reward_max stays at most 1e6: a table updated k times
    holds up to k * reward_max, and refusing the reward_max that would
    overflow changes the golden digests of the ``mql-overflow`` case, which
    waits for the owner's decision (ROADMAP item 3(b))."""
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    run_finite(cfg)


def boundary(predicate):
    """The largest positive float x with predicate(x), for a predicate that
    holds at 1.0, fails at the largest float and changes once between: a
    bisection of the bit patterns, which positive floats share the order of."""
    low, high = (int(np.float64(x).view(np.int64)) for x in (1.0, BIGGEST))
    while high - low > 1:
        mid = (low + high) // 2
        if predicate(float(np.int64(mid).view(np.float64))):
            low = mid
        else:
            high = mid
    return float(np.int64(low).view(np.float64))


@pytest.mark.parametrize("m", [3, 20])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_a_learning_swarm_whose_summed_epsilon_overflows_is_refused(m, schedule):
    epsilon = boundary(lambda e: math.isfinite((m - 1) * e))
    data = {"swarm_size": m, "iterations": 2 * m, "mql": {"schedule": schedule}}
    run_finite(config_from_dict({**data, "mql": {**data["mql"], "epsilon": epsilon}}))
    over = {**data, "mql": {**data["mql"], "epsilon": math.nextafter(epsilon, math.inf)}}
    with pytest.raises(ConfigError, match=r"^\(swarm_size - 1\) \* mql\.epsilon must be finite"
                                          r", got swarm_size=\d+ with epsilon=[-+.e\d]+$"):
        config_from_dict(over)
    # the baseline only counts neighbours within epsilon: no product to overflow
    run_finite(config_from_dict({**over, "algorithm": "pso"}))


def test_validate_reports_an_overflowing_config_in_one_line(tmp_path, capsys):
    for text in ("swarm_size: 3\nmql: {epsilon: 1.7e+308}\n",
                 "algorithm: pso\npso: {c1: 1.0e+308, c2: 1.0e+308}\n"):
        path = write_cfg(tmp_path, text)
        assert main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("data, message", [
    ({"swarm_size": 3, "mql": {"epsilon": 10 ** 308}},
     r"\(swarm_size - 1\) \* mql\.epsilon must be finite, got swarm_size=3 with epsilon=10{308}$"),
    ({"algorithm": "pso", "pso": {"v_min": -10 ** 308, "v_max": 10 ** 308}},
     r"pso\.v_max - pso\.v_min must be finite, got -10{308} \.\. 10{308}$"),
    ({"algorithm": "pso", "pso": {"c1": 10 ** 308, "c2": 10 ** 308}},
     r"pso velocity may overflow: \(c1 \+ c2\) \* max\(world width, height\) must stay "
     r"below the largest float, got c1=10{308}, c2=10{308}$"),
], ids=["epsilon", "velocity-span", "velocity-pull"])
def test_an_integer_whose_float_product_overflows_is_refused(data, message):
    # an integer is kept as written for the echo, but checked in floats
    with pytest.raises(ConfigError, match="^" + message):
        config_from_dict(data)


# an int past the largest float, as YAML reads a 401-digit number
HUGE = 10 ** 400


@pytest.mark.parametrize("data, key", [
    ({"swarm_size": HUGE}, "swarm_size"),
    ({"seed": HUGE}, "seed"),
    ({"snapshot_ticks": [1, HUGE]}, "snapshot_ticks"),
    ({"world": {"x_max": HUGE}}, "world.x_max"),
    ({"mql": {"epsilon": HUGE}}, "mql.epsilon"),
    ({"mql": {"step_set": [0.5, 1.0, HUGE]}}, "mql.step_set entry"),
    ({"pso": {"c1": HUGE}}, "pso.c1"),
    ({"pso": {"target": [50.0, -HUGE]}}, "pso.target entry"),
])
def test_an_integer_too_large_for_a_float_is_refused_by_name(data, key):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} is an integer too large "
                                          rf"for a float") as err:
        config_from_dict(data)
    assert "\n" not in str(err.value) and "0000" not in str(err.value)


@pytest.mark.parametrize("make, field", [
    (lambda: MqlParams(epsilon=HUGE), "mql.epsilon"),
    (lambda: MqlParams(init_span=HUGE), "mql.init_span"),
    (lambda: PsoParams(c1=HUGE), "pso.c1"),
    (lambda: LearningParams(learning_rate=HUGE), "learning_rate"),
], ids=["epsilon", "init_span", "c1", "learning_rate"])
def test_parameters_built_without_the_loader_refuse_a_huge_integer_by_name(make, field):
    # math.isfinite raises OverflowError on such an integer; the parameter
    # classes say which field is out of range instead
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be"):
        make()


@pytest.mark.parametrize("pso", [
    {}, {"constriction": 0.0}, {"canonical_velocity": True},
    {"canonical_velocity": True, "constriction": 0.0, "v_min": -1e307, "v_max": 1e307},
])
def test_a_baseline_whose_velocity_pull_overflows_is_refused(pso):
    def config(c):
        return config_from_dict({"algorithm": "pso", "iterations": 30, "swarm_size": 10,
                                 "pso": {**pso, "c1": c, "c2": c}})

    def accepted(c):
        try:
            config(c)
        except ConfigError:
            return False
        return True

    c = boundary(accepted)
    # the bound is (c1 + c2) * 100 (+ max(|v_min|, |v_max|)) with a small margin
    assert 0.999 < c * 200.0 / (BIGGEST - max(abs(pso.get("v_min", 0.0)),
                                             abs(pso.get("v_max", 0.0)))) < 1.0
    run_finite(config(c))
    with pytest.raises(ConfigError, match=r"^pso velocity may overflow: "):
        config(math.nextafter(c, math.inf))


def test_a_baseline_whose_initial_velocity_span_overflows_is_refused():
    with pytest.raises(ConfigError, match=r"^pso\.v_max - pso\.v_min must be finite"):
        config_from_dict({"pso": {"v_min": -1e308, "v_max": 1e308}})
    config_from_dict({"pso": {"v_min": -8e307, "v_max": 8e307}})
