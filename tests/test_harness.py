import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qswarm.harness as harness
from qswarm.config import config_from_dict
from qswarm.harness import (RunSummary, preset, read_trace_csv, run_experiment, run_to_dir,
                            write_decisions_csv, write_snapshot_csv, write_summary_json,
                            write_trace_csv)
from qswarm.metrics import Trace, as_trace, classify_decisions, connected_fraction
from qswarm.mql import StateId


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


@pytest.mark.parametrize("over", [
    {"algorithm": "pso"},
    # seeded sparse, so some particles start out of contact and pursue
    *({"mql": {"schedule": schedule, "recover_lost": recover, "explore_rate": rate,
               "init_span": 60.0}}
      for schedule in ("simultaneous", "round_robin")
      for recover in (False, True) for rate in (0.0, 0.3)),
])
def test_the_run_trace_is_the_ticks_it_returns(over):
    # run_experiment has each tick write its row into the run's trace; ticks
    # that write fresh rows must give the same row, tick by tick
    cfg = small_cfg(swarm_size=7, iterations=40, seed=11, **over)
    trace, _, _ = run_experiment(cfg)
    engine = harness._build_engine(cfg, np.random.default_rng(cfg.seed))
    for t in range(cfg.iterations):
        ticked, row = engine.tick(), trace.at(t)
        assert ticked == row
        assert ticked.positions.tobytes() == row.positions.tobytes()
        assert ticked.reward.tobytes() == row.reward.tobytes()


def test_snapshot_ticks_captured():
    _, snapshots, summary = run_experiment(small_cfg())
    assert sorted(snapshots) == [2, 5, 10]
    assert all(len(p) == 3 for p in snapshots.values())
    assert sorted(summary.snapshot_components) == [2, 5, 10]


def test_snapshot_zero_is_initial_scatter():
    cfg = small_cfg(snapshot_ticks=[0, 10])
    trace, snapshots, _ = run_experiment(cfg)
    # snapshot 0 precedes the first move, snapshot 10 matches the last rows
    assert snapshots[0].shape == (3, 2)
    assert not np.array_equal(snapshots[0], trace.positions[0])
    assert np.array_equal(snapshots[10], trace.positions[9])


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
    assert mql_summary.final_q_tables.shape == (3, 60)

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


@pytest.mark.parametrize("bad_row", [
    "0,1,2.5,3.5,NEAR,4,-1.5,2,extra",
    "0,1,2.5,3.5,BOGUS,4,-1.5,2",
    "0,1,2.5,3.5,NEAR,4,-1.5",
    "0,0,1.5,2.5,IDEAL,x,100,1",
    "0,1,abc,3.5,NEAR,4,-1.5,2",
    "0,1,1.5,2.5,IDEAL,-5,100,1",
    "0,1,1.5,2.5,IDEAL,-1,100,1",
    "0,1,1.5,2.5,IDEAL,12,100,1",
    "0,1,1.5,2.5,IDEAL,3,100,-3",
], ids=["ninth-cell", "unknown-state", "short-row", "non-numeric-action", "non-numeric-x",
        "negative-action", "written-no-action", "action-past-the-table", "negative-count"])
def test_read_trace_csv_names_the_line_of_a_malformed_row(tmp_path, bad_row):
    path = tmp_path / "trace.csv"
    path.write_text("tick,particle,x,y,state,action,reward,neighbor_count\n"
                    "0,0,1.5,2.5,IDEAL,3,100,1\n" + bad_row + "\n")
    with pytest.raises(ValueError, match="line 3") as err:
        read_trace_csv(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("column, value", [("action", -5), ("action", -2), ("action", 12),
                                           ("neighbor_count", -3)])
def test_write_trace_csv_refuses_a_cell_the_reader_would_refuse(tmp_path, column, value):
    trace, _, _ = run_experiment(small_cfg(swarm_size=2, iterations=2, snapshot_ticks=[]))
    getattr(trace, column)[1, 0] = value
    with pytest.raises(ValueError, match="action" if column == "action" else "count"):
        write_trace_csv(trace, tmp_path / "trace.csv")


def test_trace_csv_keeps_every_action_and_count_the_reader_takes(tmp_path):
    path = tmp_path / "trace.csv"
    rows = "".join(f"0,{k},1.5,2.5,IDEAL,{k},100,{3 * k}\n" for k in range(12))
    path.write_text(",".join(("tick", "particle", "x", "y", "state", "action", "reward",
                              "neighbor_count")) + "\n" + rows)
    trace = read_trace_csv(path)
    assert trace.action[0].tolist() == list(range(12))
    write_trace_csv(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == path.read_text()


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


def test_an_integer_epsilon_writes_the_trace_of_its_float_spelling(tmp_path):
    # n * epsilon at 2 * 2**62 wraps in int64; the engine judges in floats
    traces = [run_to_dir(small_cfg(mql={"epsilon": e, "d_min": 1}), tmp_path / str(k))["trace"]
              .read_bytes() for k, e in enumerate((2 ** 62, 4.611686018427388e18))]
    assert traces[0] == traces[1] and b",NEAR," in traces[0]


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


def test_the_memory_check_counts_the_snapshots(monkeypatch):
    from qswarm.config import ConfigError

    m, t = 1000, 1000
    trace_fits = m * (harness.PARTICLE_BYTES + harness.TRACE_BYTES_PER_ROW * t)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": trace_fits + m * 16 * (t + 1) - 1}
    monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
    harness.check_memory(small_cfg(swarm_size=m, iterations=t, snapshot_ticks=[]))
    # one (M, 2) float copy a distinct snapshot tick, here every tick 0..T
    every_tick = list(range(t + 1))
    harness.check_memory(small_cfg(swarm_size=m, iterations=t, snapshot_ticks=every_tick[1:]))
    with pytest.raises(ConfigError, match="snapshots"):
        harness.check_memory(small_cfg(swarm_size=m, iterations=t,
                                       snapshot_ticks=every_tick + [t]))


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


def test_a_large_run_writes_its_artifacts_in_bounded_memory(tmp_path):
    import tracemalloc

    from qswarm.mql import MqlParams

    # default seeding density, in a world that holds the default seeding square
    m = 20000
    side = MqlParams().epsilon * math.sqrt(m) / 2.0
    cfg = small_cfg(swarm_size=m, iterations=1, seed=0, snapshot_ticks=[],
                    world={"x_max": side, "y_max": side})
    tracemalloc.start()
    try:
        run_to_dir(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the final q-tables as 20,000 x 60 Python floats took the peak to 58.5 MB;
    # written from the engine's array it is about 20 MB
    assert peak < 32 * 2**20


# --- the writers against the per-cell writers they replaced -------------------
#
# The oracle below is the earlier implementation of each writer: one f-string
# and one format(x, ".9g") call per cell, and json.dumps of the whole summary.
# The writers must give its bytes for every input, not only for engine output.


def _oracle_fmt(value):
    return format(float(value), ".9g")


_ORACLE_STATES = {-1: "", **{int(s): s.name for s in StateId}}


def oracle_write_trace_csv(trace, path):
    tr = as_trace(trace)
    particles = range(tr.shape[1])
    with open(path, "w") as f:
        f.write("tick,particle,x,y,state,action,reward,neighbor_count\n")
        for tick, *columns in zip(tr.ticks.tolist(), tr.positions, tr.state, tr.action,
                                  tr.reward, tr.neighbor_count):
            f.writelines(
                f"{tick},{i},{_oracle_fmt(x)},{_oracle_fmt(y)},{_ORACLE_STATES[s]},"
                f"{'' if a < 0 else a},{'' if math.isnan(r) else _oracle_fmt(r)},{c}\n"
                for i, (x, y), s, a, r, c in zip(particles, *(col.tolist() for col in columns)))


def oracle_write_snapshot_csv(positions, path):
    lines = ["particle,x,y"]
    for i, (x, y) in enumerate(positions.tolist()):
        lines.append(f"{i},{_oracle_fmt(x)},{_oracle_fmt(y)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def oracle_write_summary_json(summary, path):
    with open(path, "w") as f:
        f.write(json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def oracle_write_decisions_csv(trace, particles, path):
    tr = as_trace(trace)
    lines = ["particle,tick,reward,decision"]
    for i in particles:
        rewards = tr.column(i).reward[:, 0]
        acted = ~np.isnan(rewards)
        for tick, r, d in zip(tr.ticks[acted].tolist(), rewards[acted].tolist(),
                              classify_decisions(tr, i)):
            lines.append(f"{i},{tick},{_oracle_fmt(r)},{d}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def written(write, *args) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/out"
        write(*args, path)
        with open(path, "rb") as f:
            return f.read()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1e16, 123456789.5, 1e-5]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False,
                                                                   allow_infinity=False))
any_floats = st.one_of(finite_floats, st.floats())
non_finite_floats = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def traces(draw):
    """Random (T, M) traces. Coordinates are fresh floats, or each one after
    the first tick is fresh, a copy of the same particle's coordinate one tick
    earlier, or that copy with its sign bit or its lowest bit flipped (0.0
    becomes -0.0, a NaN another NaN, and a float its neighbour). Action and
    reward cells are present in every row, in one mover's row per tick (round
    robin), in random rows, or in none; the gaps are action -1 and reward
    NaN. The state cells sit in the same rows or in rows drawn apart from them
    (round-robin non-movers carry a state), and present rewards may be NaN or
    infinite too, and are NaN in random rows that have an action.

    Then, if drawn, each row after the first tick is kept, repeats every cell
    of the same particle's row one tick earlier, or repeats it with one cell
    nudged: a coordinate's or the reward's sign bit or lowest bit flipped,
    the reward turned to NaN or from NaN to a number, or the state, action or
    count moved to a neighbouring valid value. About a quarter of the ticks
    repeat no row, so a block whose rows all changed can precede one that
    keeps rows. Rewards are drawn from all floats, or from 0.0, -0.0 and 1.5
    only, so a repeated reward's sign bit is often flipped on a zero."""
    t, m = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    start = draw(st.integers(-3, 10**6))
    floats = lambda n, elems: np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    ints = lambda n, lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n,
                                                    max_size=n)), dtype=np.int64)
    flags = lambda: ints(t * m, 0, 1).reshape(t, m) == 1

    def rows_with_cells():
        gaps = draw(st.sampled_from(["none", "round_robin", "random", "all"]))
        if gaps == "round_robin":
            return np.arange(m)[None, :] == (np.arange(t) % m)[:, None]
        if gaps == "random":
            return flags()
        return np.full((t, m), gaps == "none")

    positions = floats(t * m * 2, st.one_of(any_floats, st.sampled_from(
        [0.0, -0.0, math.nan]))).reshape(t, m, 2)
    if draw(st.booleans()):
        bits = positions.view(np.uint64)
        ops = ints(t * m * 2, 0, 3).reshape(t, m, 2)
        for k in range(1, t):
            bits[k] = np.where(ops[k] == 0, bits[k], bits[k - 1])
            bits[k] ^= np.where(ops[k] == 2, np.uint64(1 << 63), np.uint64(0))
            bits[k] ^= (ops[k] == 3).astype(np.uint64)
    acted = rows_with_cells()
    stated = acted if draw(st.booleans()) else rows_with_cells()
    entries = draw(st.sampled_from([any_floats, st.sampled_from([0.0, -0.0, 1.5])]))
    rewards = np.where(acted, floats(t * m, entries).reshape(t, m), np.nan)
    if draw(st.booleans()):
        rewards[flags()] = np.nan
    state = np.where(stated, ints(t * m, 0, len(StateId) - 1).reshape(t, m), -1)
    action = np.where(acted, ints(t * m, 0, 11).reshape(t, m), -1)
    count = ints(t * m, 0, 10**9).reshape(t, m)
    if draw(st.integers(0, 3)):
        # 0 keeps the row, 1 repeats it, 2 or 3 repeats it and nudges one cell
        kinds = ints(t * m, 0, 3).reshape(t, m)
        kinds[ints(t, 0, 3) == 0] = 0
        for k, i in np.argwhere(kinds[1:] > 0).tolist():
            k += 1
            for column in (positions, rewards, state, action, count):
                column[k, i] = column[k - 1, i]
            nudge = draw(st.integers(0, 9)) if kinds[k, i] >= 2 else None
            if nudge is None:
                continue
            if nudge < 6:  # x, y or the reward: its sign bit (even) or its lowest bit
                cell = (positions[k, i, :1], positions[k, i, 1:], rewards[k, i:i + 1])[nudge // 2]
                cell.view(np.uint64)[0] ^= np.uint64(1 if nudge % 2 else 1 << 63)
            elif nudge == 6:
                rewards[k, i] = draw(finite_floats) if math.isnan(rewards[k, i]) else np.nan
            else:  # the state, action or count, moved up unless it is the largest one
                column, top = ((state, len(StateId) - 1), (action, 11), (count, 10**9))[nudge - 7]
                column[k, i] += 1 if column[k, i] < top else -1
    return Trace(np.arange(start, start + t), positions, state, action, rewards, count)


@settings(max_examples=300, deadline=None)
@given(trace=traces(), data=st.data())
def test_csv_writers_give_the_per_cell_bytes(trace, data):
    # small blocks put several blocks, and a short last one, in one trace;
    # blocks of two or three ticks carry a tick's texts past their last row,
    # blocks of any whole number of ticks split runs of repeated rows, and a
    # block that ends before the first tick keeping a row has all rows changed
    t, m = trace.shape
    cells = np.dstack((trace.positions.view(np.int64), trace.reward.view(np.int64),
                       trace.state, trace.action, trace.neighbor_count))
    keeps = np.flatnonzero((cells[1:] == cells[:-1]).all(axis=2).any(axis=1))
    block_rows = data.draw(st.sampled_from([1, 2, 5, 2 * m, 3 * m, harness.BLOCK_ROWS])
                           | st.integers(1, t).map(lambda ticks: ticks * m)
                           | st.just((keeps[0] + 1 if len(keeps) else t) * m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_ROWS", block_rows)
        assert written(write_trace_csv, trace) == written(oracle_write_trace_csv, trace)
    particles = data.draw(st.lists(st.integers(0, m - 1), max_size=4))
    assert written(write_decisions_csv, trace, particles) == \
        written(oracle_write_decisions_csv, trace, particles)
    snapshot = data.draw(arrays(np.float64, st.tuples(st.integers(0, 9), st.just(2)),
                                elements=finite_floats))
    assert written(write_snapshot_csv, snapshot) == \
        written(oracle_write_snapshot_csv, snapshot)


# config strings that read as the key the q-tables are spliced in at (the
# summaries also nest the key itself in the config, null or not)
TRICKY_TEXT = st.sampled_from(['\n  "final_q_tables": null', '"final_q_tables": null',
                               "", "out", "é \x00"])


@st.composite
def summaries(draw):
    """RunSummaries with an (M, n) q-table array, M and n in 0-7, of finite
    floats, of zeros of both signs, or of finite floats mixed with inf, -inf
    and nan (which json writes as Infinity, -Infinity and NaN), or with no
    table. A row may repeat the row before it, or repeat it with the sign of
    each zero flipped (equal values, other bits)."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = draw(st.sampled_from([finite_floats, st.sampled_from([0.0, -0.0, 1.5]),
                                    st.one_of(finite_floats, non_finite_floats)]))
    tables = draw(st.none() | arrays(np.float64, (m, n), elements=entries))
    if tables is not None:
        for i in range(1, m):
            repeat = draw(st.sampled_from(["fresh", "copy", "flip zeros"]))
            if repeat == "copy":
                tables[i] = tables[i - 1]
            elif repeat == "flip zeros":
                tables[i] = np.where(tables[i - 1] == 0, -tables[i - 1], tables[i - 1])
    return RunSummary(
        config={"output_dir": draw(TRICKY_TEXT), "seed": draw(st.integers(0, 2**64 - 1)),
                "mql": {"final_q_tables": draw(st.none() | TRICKY_TEXT),
                        "epsilon": draw(any_floats)}},
        cumulative_rewards=draw(st.lists(any_floats, min_size=m, max_size=m)),
        drift_onsets=draw(st.lists(st.none() | st.integers(0, 500), min_size=m, max_size=m)),
        initial_dispersion=draw(any_floats),
        final_dispersion=draw(finite_floats),
        final_connected_fraction=draw(finite_floats),
        snapshot_components=draw(st.dictionaries(st.integers(0, 500),
                                                 st.lists(st.integers(1, 5)), max_size=3)),
        q_table_shape=None if tables is None else [5, 12],
        final_q_tables=tables)


@settings(max_examples=300, deadline=None)
@given(summary=summaries())
def test_summary_json_gives_the_bytes_of_json_dumps(summary):
    assert written(write_summary_json, summary) == \
        written(oracle_write_summary_json, summary)


@pytest.mark.parametrize("over", [
    {}, {"mql": {"schedule": "round_robin"}}, {"algorithm": "pso"},
    {"decision_particles": [2, 0], "snapshot_ticks": [0, 3]}])
def test_run_artifacts_are_those_of_the_per_cell_writers(over):
    cfg = small_cfg(swarm_size=7, iterations=10, seed=2, **over)
    trace, snapshots, summary = run_experiment(cfg)
    assert written(write_trace_csv, trace) == written(oracle_write_trace_csv, trace)
    assert written(write_summary_json, summary) == \
        written(oracle_write_summary_json, summary)
    for positions in snapshots.values():
        assert written(write_snapshot_csv, positions) == \
            written(oracle_write_snapshot_csv, positions)
    assert written(write_decisions_csv, trace, [0, 2]) == \
        written(oracle_write_decisions_csv, trace, [0, 2])


# --- the streamed run against the whole-trace writers --------------------------

@st.composite
def streamed_runs(draw):
    """Small configs of both engines and both schedules, with snapshot ticks
    and decision particles, and a block size (``BLOCK_ROWS``) around M."""
    m, t = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    cfg = small_cfg(
        algorithm=draw(st.sampled_from(["mql", "pso"])), swarm_size=m, iterations=t,
        seed=draw(st.integers(0, 2**32 - 1)),
        snapshot_ticks=draw(st.lists(st.integers(0, t), unique=True, max_size=4)),
        decision_particles=draw(st.lists(st.integers(0, m - 1), unique=True, max_size=4)),
        mql={"schedule": draw(st.sampled_from(["simultaneous", "round_robin"])),
             "init_span": draw(st.sampled_from([None, 40.0]))})
    return cfg, draw(st.sampled_from([1, 2, m - 1, m, m + 1, 3 * m]))


@settings(max_examples=100, deadline=None)
@given(run=streamed_runs())
def test_streamed_artifacts_are_those_of_the_whole_trace_writers(run):
    cfg, block_rows = run
    trace, snapshots, summary = run_experiment(cfg)
    expected = {"trace.csv": written(write_trace_csv, trace),
                "summary.json": written(write_summary_json, summary),
                **{f"snapshot_t{t}.csv": written(write_snapshot_csv, positions)
                   for t, positions in snapshots.items()}}
    if cfg.decision_particles:
        expected["decisions.csv"] = written(write_decisions_csv, trace, cfg.decision_particles)
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BLOCK_ROWS", block_rows)
        paths = run_to_dir(cfg, d)
        got = {p.name: p.read_bytes() for p in paths.values() if p.suffix != ".yaml"}
    assert got == expected


def test_run_to_dir_holds_blocks_where_run_experiment_holds_the_trace(monkeypatch, tmp_path):
    from qswarm.config import ConfigError

    m, t = 3, 1000
    cfg = small_cfg(swarm_size=m, iterations=t, snapshot_ticks=[], decision_particles=[1])
    # room for the swarm, its blocks and one decision column, not for the trace
    fits = m * harness.PARTICLE_BYTES + harness.TRACE_BYTES_PER_ROW * t
    assert fits < m * (harness.PARTICLE_BYTES + harness.TRACE_BYTES_PER_ROW * t)
    pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": fits}
    monkeypatch.setattr(harness.os, "sysconf", pages.__getitem__)
    with pytest.raises(ConfigError, match="the trace"):
        run_experiment(cfg)
    paths = run_to_dir(cfg, tmp_path)
    assert len(paths["trace"].read_text().splitlines()) == 1 + m * t
    # one more decision column no longer fits
    with pytest.raises(ConfigError, match="the decision columns"):
        run_to_dir(small_cfg(swarm_size=m, iterations=t, snapshot_ticks=[],
                             decision_particles=[0, 1]), tmp_path / "more")
    assert not (tmp_path / "more").exists()


def test_a_failed_run_removes_only_the_directories_it_made(monkeypatch, tmp_path):
    from qswarm.mql import MqlEngine

    ticked = MqlEngine.tick

    def tick(self, rows=None):
        if self.tick_index == 5:  # a middle tick of the 10
            raise IndexError("index 6 is out of bounds")
        return ticked(self, rows)

    monkeypatch.setattr(MqlEngine, "tick", tick)
    cfg = small_cfg(iterations=10, decision_particles=[0])
    with pytest.raises(IndexError):
        run_to_dir(cfg, tmp_path / "made" / "out")
    assert list(tmp_path.iterdir()) == []
    # a directory that was there stays, and holds no partial artifact
    (tmp_path / "there").mkdir()
    with pytest.raises(IndexError):
        run_to_dir(cfg, tmp_path / "there")
    assert list(tmp_path.iterdir()) == [tmp_path / "there"]
    assert list((tmp_path / "there").iterdir()) == []


def test_a_streamed_run_holds_no_more_memory_for_more_ticks(tmp_path):
    import tracemalloc

    def peak(t):
        # round robin in a sparse world: most rows repeat, as in the paper's schedule
        cfg = small_cfg(swarm_size=2000, iterations=t, seed=0, snapshot_ticks=[],
                        world={"x_max": 1000.0, "y_max": 1000.0},
                        mql={"schedule": "round_robin"})
        tracemalloc.start()
        try:
            run_to_dir(cfg, tmp_path / str(t))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(10), peak(100)
    # the whole (T, M) trace of the long run alone is 9.6 MB
    assert long < 1.1 * short


def test_running_and_echoing_never_import_pyyaml(tmp_path):
    # only reading a config file needs PyYAML: a fresh interpreter that runs,
    # echoes and runs a preset through the CLI has not imported it
    script = """
import sys

from qswarm import config_from_dict, load_config, run_to_dir
from qswarm.cli import main

cfg = config_from_dict({"swarm_size": 6, "iterations": 5, "seed": 3, "output_dir": "run"})
run_to_dir(cfg, "run")
assert main(["preset", "fig4-individuals", "--out", "preset"]) == 0
assert "yaml" not in sys.modules, "PyYAML was imported"
assert load_config("run/effective_config.yaml") == cfg
assert load_config("preset/effective_config.yaml").output_dir == "preset"
assert "yaml" in sys.modules
"""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
