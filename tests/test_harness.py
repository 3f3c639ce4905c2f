import json

import numpy as np
import pytest

from qswarm.config import config_from_dict
from qswarm.harness import (preset, read_trace_csv, run_experiment, run_to_dir,
                            write_snapshot_csv, write_trace_csv)
from qswarm.metrics import connected_fraction


def small_cfg(**over):
    base = dict(algorithm="mql", swarm_size=3, iterations=10, seed=5,
                snapshot_ticks=[2, 5, 10])
    base.update(over)
    return config_from_dict(base)


def test_trace_has_m_times_t_rows():
    trace, _, _ = run_experiment(small_cfg())
    assert len(trace) == 3 * 10
    assert [(r.tick, r.particle) for r in trace] == [
        (t, i) for t in range(10) for i in range(3)]


def test_round_robin_also_logs_every_particle():
    cfg = small_cfg(mql={"schedule": "round_robin"})
    trace, _, _ = run_experiment(cfg)
    assert len(trace) == 30
    acting = [r for r in trace if r.reward is not None]
    assert len(acting) == 10


def test_snapshot_ticks_captured():
    _, snapshots, summary = run_experiment(small_cfg())
    assert sorted(snapshots) == [2, 5, 10]
    assert all(len(p) == 3 for p in snapshots.values())
    assert sorted(summary.snapshot_components) == [2, 5, 10]


def test_snapshot_zero_is_initial_scatter():
    cfg = small_cfg(snapshot_ticks=[0, 10])
    trace, snapshots, _ = run_experiment(cfg)
    tick0_positions = [r.position for r in trace if r.tick == 0]
    # snapshot 0 precedes the first move, snapshot 10 matches the last rows
    assert snapshots[0] != tick0_positions
    assert snapshots[10] == [r.position for r in trace if r.tick == 9]


def test_same_seed_reproduces_run_exactly():
    a = run_experiment(small_cfg())
    b = run_experiment(small_cfg())
    assert a[0] == b[0]
    assert a[2].to_dict() == b[2].to_dict()


def test_summary_recomputable_from_trace():
    cfg = small_cfg()
    trace, _, summary = run_experiment(cfg)
    final = [r.position for r in trace if r.tick == cfg.iterations - 1]
    assert summary.final_connected_fraction == connected_fraction(final, cfg.mql.epsilon)
    for i in range(3):
        assert summary.cumulative_rewards[i] == pytest.approx(
            sum(r.reward for r in trace if r.particle == i), abs=1e-9)


@pytest.mark.parametrize("algorithm, schedule", [
    ("mql", "simultaneous"), ("mql", "round_robin"), ("pso", "simultaneous")])
def test_final_connected_fraction_is_that_of_the_final_positions(algorithm, schedule):
    # the summary reads it off the last tick's neighbour counts
    cfg = small_cfg(algorithm=algorithm, swarm_size=12, iterations=15, seed=1,
                    mql={"schedule": schedule, "init_span": 60.0})
    trace, _, summary = run_experiment(cfg)
    expected = connected_fraction(trace.positions[-1], cfg.mql.epsilon)
    assert 0.0 < expected < 1.0
    assert summary.final_connected_fraction == expected


def test_summary_q_tables_present_for_mql_only():
    _, _, mql_summary = run_experiment(small_cfg())
    assert mql_summary.q_table_shape == [5, 12]
    assert len(mql_summary.final_q_tables) == 3
    assert all(len(t) == 60 for t in mql_summary.final_q_tables)

    _, _, pso_summary = run_experiment(small_cfg(algorithm="pso"))
    assert pso_summary.final_q_tables is None
    assert pso_summary.cumulative_rewards == [0.0, 0.0, 0.0]


def test_trace_csv_schema_and_round_trip(tmp_path):
    cfg = small_cfg(swarm_size=2, iterations=2, snapshot_ticks=[])
    trace, _, _ = run_experiment(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,particle,x,y,state,action,reward,neighbor_count"
    assert len(lines) == 1 + 4

    reparsed = read_trace_csv(path)
    assert [(r.tick, r.particle, r.state, r.action, r.neighbor_count) for r in reparsed] == \
           [(r.tick, r.particle, r.state, r.action, r.neighbor_count) for r in trace]
    # floats survive at the printed 9-significant-digit precision
    for got, want in zip(reparsed, trace):
        assert got.position.x == float(format(want.position.x, ".9g"))
        assert got.reward == float(format(want.reward, ".9g"))


def test_pso_trace_rows_keep_empty_decision_columns(tmp_path):
    cfg = small_cfg(algorithm="pso", swarm_size=2, iterations=2, snapshot_ticks=[])
    trace, _, _ = run_experiment(cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert fields[4] == "" and fields[5] == "" and fields[6] == ""
    reparsed = read_trace_csv(path)
    assert all(r.state is None and r.action is None and r.reward is None for r in reparsed)


def test_snapshot_csv_schema(tmp_path):
    _, snapshots, _ = run_experiment(small_cfg())
    path = tmp_path / "snap.csv"
    write_snapshot_csv(snapshots[5], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "particle,x,y"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"


def test_run_to_dir_writes_byte_identical_outputs(tmp_path):
    cfg = small_cfg(output_dir=str(tmp_path / "a"))
    paths_a = run_to_dir(cfg, tmp_path / "a")
    paths_b = run_to_dir(cfg, tmp_path / "b")
    assert paths_a["trace"].read_bytes() == paths_b["trace"].read_bytes()
    assert paths_a["summary"].read_bytes() == paths_b["summary"].read_bytes()
    assert paths_a["snapshot_t5"].read_bytes() == paths_b["snapshot_t5"].read_bytes()


def test_run_to_dir_effective_config_reproduces_run(tmp_path):
    from qswarm.config import load_config

    cfg = small_cfg(output_dir=str(tmp_path / "first"))
    paths = run_to_dir(cfg, tmp_path / "first")
    echoed = load_config(paths["config"])
    paths2 = run_to_dir(echoed, tmp_path / "second")
    assert paths["trace"].read_bytes() == paths2["trace"].read_bytes()
    assert paths["summary"].read_bytes() == paths2["summary"].read_bytes()


def test_summary_config_echo_determines_the_run(tmp_path):
    cfg = small_cfg(output_dir=str(tmp_path / "first"))
    paths = run_to_dir(cfg, tmp_path / "first")
    echo = json.loads(paths["summary"].read_text())["config"]
    rebuilt = config_from_dict(echo)
    paths2 = run_to_dir(rebuilt, tmp_path / "second")
    assert paths["trace"].read_bytes() == paths2["trace"].read_bytes()
    assert paths["summary"].read_bytes() == paths2["summary"].read_bytes()


def test_summary_json_is_valid_and_complete(tmp_path):
    cfg = small_cfg(output_dir=str(tmp_path))
    paths = run_to_dir(cfg, tmp_path)
    data = json.loads(paths["summary"].read_text())
    assert set(data) == {"config", "cumulative_rewards", "drift_onsets",
                         "initial_dispersion", "final_dispersion",
                         "final_connected_fraction", "snapshot_components",
                         "q_table_shape", "final_q_tables"}
    assert data["config"]["seed"] == 5
    assert len(data["cumulative_rewards"]) == 3


def test_decisions_csv_written_when_designated(tmp_path):
    cfg = small_cfg(decision_particles=[0, 2])
    paths = run_to_dir(cfg, tmp_path)
    lines = paths["decisions"].read_text().splitlines()
    assert lines[0] == "particle,tick,reward,decision"
    assert len(lines) == 1 + 2 * 10
    assert {l.split(",")[0] for l in lines[1:]} == {"0", "2"}
    assert {l.split(",")[3] for l in lines[1:]} <= {"good", "bad"}


def test_preset_fig3_arms_differ_only_in_algorithm():
    mql_cfg, pso_cfg = preset("fig3-compare")
    assert mql_cfg.algorithm == "mql" and pso_cfg.algorithm == "pso"
    assert mql_cfg.seed == pso_cfg.seed
    assert (mql_cfg.swarm_size, mql_cfg.iterations) == (20, 500)
    assert mql_cfg.snapshot_ticks == (10, 50, 500)
    d_mql, d_pso = mql_cfg.__dict__.copy(), pso_cfg.__dict__.copy()
    d_mql.pop("algorithm"), d_pso.pop("algorithm")
    assert d_mql == d_pso


def test_preset_fig4_shape():
    (cfg,) = preset("fig4-individuals")
    assert cfg.algorithm == "mql"
    assert cfg.iterations == 100
    assert cfg.decision_particles == (0, 1, 2)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValueError, match="fig3-compare"):
        preset("fig9")


def test_crash_mid_write_leaves_no_partial_artifact(tmp_path, monkeypatch):
    import qswarm.harness as harness

    def crashing_writer(trace, path):
        path.write_text("tick,particle,x")
        raise RuntimeError("disk full")

    monkeypatch.setattr(harness, "write_trace_csv", crashing_writer)
    with pytest.raises(RuntimeError, match="disk full"):
        run_to_dir(small_cfg(), tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("over", [
    {},
    {"mql": {"schedule": "round_robin"}},
    {"algorithm": "pso"},
])
def test_trace_csv_bytes_are_the_same_from_columns_and_from_records(tmp_path, over):
    cfg = small_cfg(swarm_size=4, iterations=6, snapshot_ticks=[], **over)
    trace, _, _ = run_experiment(cfg)
    write_trace_csv(trace, tmp_path / "columns.csv")
    write_trace_csv(list(trace), tmp_path / "records.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()
    # what is read back writes the same bytes again
    write_trace_csv(read_trace_csv(tmp_path / "columns.csv"), tmp_path / "reread.csv")
    assert (tmp_path / "reread.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()


def test_decisions_csv_bytes_are_the_same_from_columns_and_from_records(tmp_path):
    from qswarm.harness import write_decisions_csv

    trace, _, _ = run_experiment(small_cfg(mql={"schedule": "round_robin"}))
    write_decisions_csv(trace, [0, 2], tmp_path / "columns.csv")
    write_decisions_csv(list(trace), [0, 2], tmp_path / "records.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "records.csv").read_bytes()
    assert len((tmp_path / "columns.csv").read_text().splitlines()) == 1 + 4 + 3


def test_run_too_large_for_memory_fails_before_allocating(monkeypatch):
    import tracemalloc

    import qswarm.harness as harness
    from qswarm.config import ConfigError

    def no_engine(*args):
        raise AssertionError("the engine must not be built")

    monkeypatch.setattr(harness, "_build_engine", no_engine)
    # the trace alone (M x T rows) exceeds any machine's memory
    cfg = small_cfg(swarm_size=10**7, iterations=10**9, snapshot_ticks=[])
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="swarm_size=10000000") as err:
            run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "\n" not in str(err.value)
    assert peak < 1 << 20


def test_a_large_swarm_senses_in_bounded_memory():
    import math
    import tracemalloc

    from qswarm.core import WorldBounds
    from qswarm.mql import MqlEngine, MqlParams

    # default seeding density, in a world that holds the default seeding square
    m = 5000
    side = MqlParams().epsilon * math.sqrt(m) / 2.0
    engine = MqlEngine(m, MqlParams(), WorldBounds(0.0, side, 0.0, side),
                       np.random.default_rng(7))
    tracemalloc.start()
    try:
        engine.tick()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # dense sensing holds a 5000 x 5000 float matrix and its masked copy: 400 MB
    assert peak < 64 * 2**20
