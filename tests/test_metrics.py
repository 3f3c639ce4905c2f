import ast
import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qswarm
import qswarm.metrics
import qswarm.mql
from qswarm.core import Vec2
from qswarm.metrics import (RunningTotals, StateId, TickRecord, Trace, as_trace,
                            classify_decisions, connected_fraction, connectivity_components,
                            cumulative_reward, cumulative_rewards, decision_series,
                            dispersion, drift_onset, drift_onsets)


def record(tick, particle, reward=None, neighbors=0, x=0.0, y=0.0):
    return TickRecord(tick=tick, particle=particle, position=Vec2(x, y),
                      state=StateId.NEAR if reward is not None else None,
                      action=0 if reward is not None else None,
                      reward=reward, neighbor_count=neighbors)


def trace_from_rewards(rewards, neighbors=None):
    neighbors = neighbors or [1] * len(rewards)
    return [record(t, 0, reward=r, neighbors=n)
            for t, (r, n) in enumerate(zip(rewards, neighbors))]


def test_components_all_isolated():
    positions = [Vec2(0, 0), Vec2(50, 0), Vec2(0, 50)]
    assert connectivity_components(positions, 5.0) == [1, 1, 1]


def test_components_chain_closes_transitively():
    # a-b and b-c within radius, a-c outside: still one component of 3
    positions = [Vec2(0, 0), Vec2(3, 0), Vec2(6, 0)]
    assert connectivity_components(positions, 5.0) == [3]


def test_components_singleton():
    assert connectivity_components([Vec2(1, 1)], 5.0) == [1]


def test_components_partition_m_random():
    rng = np.random.default_rng(40)
    for _ in range(100):
        m = int(rng.integers(1, 12))
        positions = [Vec2(*rng.uniform(0, 40, 2)) for _ in range(m)]
        sizes = connectivity_components(positions, 8.0)
        assert sum(sizes) == m
        assert sizes == sorted(sizes, reverse=True)
        # fraction of connected particles equals 1 - singletons / m
        singletons = sizes.count(1)
        assert connected_fraction(positions, 8.0) == pytest.approx(1 - singletons / m)


def test_connected_fraction_examples():
    cluster = [Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)]
    assert connected_fraction(cluster, 5.0) == 1.0
    isolated = [Vec2(0, 0), Vec2(50, 0), Vec2(0, 50)]
    assert connected_fraction(isolated, 5.0) == 0.0
    mixed = [Vec2(0, 0), Vec2(1, 0), Vec2(50, 50)]
    assert connected_fraction(mixed, 5.0) == pytest.approx(2 / 3)


def test_dispersion_examples():
    assert dispersion([Vec2(4, 4), Vec2(4, 4), Vec2(4, 4)]) == 0.0
    assert dispersion([Vec2(0, 0), Vec2(2, 0)]) == 1.0


def test_dispersion_translation_invariance():
    rng = np.random.default_rng(41)
    positions = [Vec2(*rng.uniform(0, 50, 2)) for _ in range(9)]
    shift = Vec2(13.7, -4.2)
    shifted = [Vec2(p.x + shift.x, p.y + shift.y) for p in positions]
    assert dispersion(shifted) == pytest.approx(dispersion(positions), rel=1e-12)


def test_dispersion_scales_linearly_about_centroid():
    rng = np.random.default_rng(42)
    positions = [Vec2(*rng.uniform(0, 50, 2)) for _ in range(7)]
    arr = np.array([p.as_tuple() for p in positions])
    centroid = arr.mean(axis=0)
    scaled = [Vec2(*((p - centroid) * 3.0 + centroid)) for p in arr]
    assert dispersion(scaled) == pytest.approx(3.0 * dispersion(positions), rel=1e-12)


def test_cumulative_reward_examples():
    assert cumulative_reward(trace_from_rewards([100.0, -3.0, -100.0]), 0) == -3.0
    # rows exist but carry no rewards: empty sum
    rows = [record(0, 0), record(1, 0)]
    assert cumulative_reward(rows, 0) == 0.0
    assert cumulative_reward(trace_from_rewards([100.0] * 7), 0) == 700.0


def test_cumulative_reward_unknown_particle():
    with pytest.raises(ValueError):
        cumulative_reward(trace_from_rewards([1.0]), 3)


def test_classify_decisions_examples():
    assert classify_decisions(trace_from_rewards([100.0, -3.0]), 0) == ["good", "bad"]
    assert classify_decisions(trace_from_rewards([0.0]), 0) == ["bad"]
    assert classify_decisions(trace_from_rewards([-100.0] * 4), 0) == ["bad"] * 4


def test_classify_decisions_length_matches_acting_ticks():
    trace = trace_from_rewards([1.0, -1.0, 2.0])
    assert len(classify_decisions(trace, 0)) == 3


def test_drift_onset_examples():
    trace = trace_from_rewards([0.0] * 5, neighbors=[2, 1, 0, 0, 0])
    assert drift_onset(trace, 0) == 2
    trace = trace_from_rewards([0.0] * 4, neighbors=[2, 1, 2, 1])
    assert drift_onset(trace, 0) is None
    # disconnects at tick 3, reconnects at 5, stays connected: no onset
    trace = trace_from_rewards([0.0] * 7, neighbors=[2, 1, 1, 0, 0, 1, 1])
    assert drift_onset(trace, 0) is None


def test_drift_onset_disconnected_from_start():
    trace = trace_from_rewards([0.0] * 3, neighbors=[0, 0, 0])
    assert drift_onset(trace, 0) == 0


def test_drift_onset_last_tick_only():
    trace = trace_from_rewards([0.0] * 3, neighbors=[1, 1, 0])
    assert drift_onset(trace, 0) == 2


# --- the column trace and the one-pass summary -----------------------------------
#
# The reference functions below are the per-particle list scans the summary
# used before it became one pass over the columns; they are the oracle.

def _particle_rows(records, particle):
    rows = sorted((r for r in records if r.particle == particle), key=lambda r: r.tick)
    if not rows:
        raise ValueError(f"trace contains no rows for particle {particle}")
    return rows


def reference_cumulative_reward(records, particle):
    rows = _particle_rows(records, particle)
    # one addition at a time: from Python 3.12 the builtin sum of floats is compensated
    return functools.reduce(operator.add, (r.reward for r in rows if r.reward is not None), 0.0)


def reference_decisions(records, particle):
    rows = _particle_rows(records, particle)
    return ["good" if r.reward > 0 else "bad" for r in rows if r.reward is not None]


def reference_drift_onset(records, particle):
    counts = [r.neighbor_count for r in _particle_rows(records, particle)]
    if counts[-1] > 0:
        return None
    onset = len(counts) - 1
    while onset > 0 and counts[onset - 1] == 0:
        onset -= 1
    return onset


@st.composite
def traces(draw):
    """(T, M) count and reward columns; a row has no reward either at random
    or, as under round-robin, everywhere but on particle tick % M."""
    t = draw(st.integers(1, 40))
    m = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, 3), min_size=t * m, max_size=t * m))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=t * m, max_size=t * m))
    if draw(st.booleans()):
        acted = np.arange(m)[None, :] == (np.arange(t) % m)[:, None]
    else:
        acted = np.array(draw(st.lists(st.booleans(), min_size=t * m,
                                       max_size=t * m))).reshape(t, m)
    reward = np.where(acted, np.array(values).reshape(t, m), np.nan)
    return Trace(np.arange(t), np.zeros((t, m, 2)), np.where(acted, 2, -1),
                 np.where(acted, 0, -1), reward, np.array(counts).reshape(t, m))


def bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=100, deadline=None)
@given(traces())
def test_one_pass_summary_matches_the_per_particle_scans(trace):
    records = list(trace)
    m = trace.shape[1]
    assert drift_onsets(trace) == [reference_drift_onset(records, i) for i in range(m)]
    # bit-equal, not approximately equal: the totals are left-to-right sums
    assert bits(cumulative_rewards(trace)) == \
        bits([reference_cumulative_reward(records, i) for i in range(m)])
    assert decision_series(trace) == [reference_decisions(records, i) for i in range(m)]
    for i in range(m):
        assert drift_onset(records, i) == reference_drift_onset(records, i)
        assert bits([cumulative_reward(records, i)]) == \
            bits([reference_cumulative_reward(records, i)])
        assert classify_decisions(records, i) == reference_decisions(records, i)


def test_totals_are_not_pairwise_sums():
    # values chosen so that numpy's pairwise .sum() differs from a running sum
    values = np.array([1e16, 1.0, -1e16, 1.0] * 5 + [3.0] * 12)
    trace = Trace(np.arange(len(values)), np.zeros((len(values), 1, 2)),
                  np.zeros((len(values), 1)), np.zeros((len(values), 1)),
                  values[:, None], np.ones((len(values), 1)))
    # the running sum, one addition at a time (from Python 3.12 the builtin sum
    # of floats is compensated, and gives the exact 46.0 here)
    running = functools.reduce(operator.add, values.tolist(), 0.0)
    assert running == 37.0 != math.fsum(values.tolist())
    assert cumulative_rewards(trace) == [running]
    # so are the running totals, in one block and in two
    for cuts in ([], [7]):
        totals = RunningTotals(1)
        for start, stop in zip([0, *cuts], [*cuts, len(values)]):
            totals.add(trace.window(start, stop))
        assert totals.cumulative_rewards() == [running]


def two_tick_trace():
    return Trace([4, 5], [[[0.0, 1.0], [2.0, 3.0]], [[4.0, 5.0], [6.0, 7.0]]],
                 [[3, -1], [0, 1]], [[7, -1], [2, 11]],
                 [[100.0, np.nan], [-100.0, 0.5]], [[1, 0], [0, 2]])


def test_a_trace_of_no_ticks_has_no_reward_and_no_drift():
    empty = Trace.empty(0, 2)
    assert cumulative_rewards(empty) == [0.0, 0.0]
    assert drift_onsets(empty) == [None, None]
    # an empty block changes no total, fresh or carried
    totals = RunningTotals(2)
    for block, expected in ((empty, ([0.0, 0.0], [None, None], 0)),
                            (two_tick_trace(), ([0.0, 0.5], [1, None], 2))):
        totals.add(block)
        last_counts = totals.last_counts
        totals.add(empty)
        assert (totals.cumulative_rewards(), totals.drift_onsets(), totals.ticks) == expected
        assert totals.last_counts is last_counts


def test_trace_is_a_sequence_of_records_in_tick_particle_order():
    trace = two_tick_trace()
    assert len(trace) == 4 and trace.shape == (2, 2)
    assert [(r.tick, r.particle) for r in trace] == [(4, 0), (4, 1), (5, 0), (5, 1)]
    assert trace[0] == TickRecord(tick=4, particle=0, position=Vec2(0.0, 1.0),
                                  state=StateId.IDEAL, action=7, reward=100.0,
                                  neighbor_count=1)
    assert trace[1] == TickRecord(tick=4, particle=1, position=Vec2(2.0, 3.0), state=None,
                                  action=None, reward=None, neighbor_count=0)
    assert trace[-1] == list(trace)[3]
    assert trace[1:3] == list(trace)[1:3]
    with pytest.raises(IndexError):
        trace[4]
    rows = []
    rows.extend(trace)
    assert rows == list(trace)


def test_trace_equality_is_column_wise_and_round_trips_through_records():
    trace = two_tick_trace()
    assert trace == two_tick_trace()
    assert Trace.from_records(list(trace)) == trace
    assert Trace.from_records(reversed(list(trace))) == trace
    assert as_trace(trace) is trace
    other = two_tick_trace()
    other.reward[1, 1] = 0.25
    assert trace != other
    with pytest.raises(TypeError):
        hash(trace)  # mutable columns: defining __eq__ leaves Trace unhashable


def test_the_state_vocabulary_is_one_object_everywhere():
    assert qswarm.StateId is qswarm.mql.StateId is qswarm.metrics.StateId is StateId


def test_metrics_imports_nothing_from_mql():
    # at any depth: deferred imports in functions and TYPE_CHECKING blocks too
    imported = []
    for node in ast.walk(ast.parse(Path(qswarm.metrics.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module, *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "core" in imported
    assert not any("mql" in name.split(".") for name in imported)


def test_records_must_cover_every_particle_at_every_tick():
    trace = list(two_tick_trace())
    with pytest.raises(ValueError, match="every tick"):
        Trace.from_records(trace[:3])
    with pytest.raises(ValueError, match="every tick"):
        Trace.from_records(trace + trace[:2])


@st.composite
def reward_traces(draw):
    """``traces`` whose rewards also hold whole NaN rows (a tick without a
    decision anywhere), signed zeros, values whose sums round (so that any
    other summation order shows), and magnitudes near the float limit, whose
    sums overflow to infinity and meet infinities of both signs."""
    trace = draw(traces())
    t, m = trace.shape
    values = st.sampled_from([0.0, -0.0, 0.1, 0.7, 1 / 3, 1e16, -1e16, 1e308, -1e308,
                              1.7976931348623157e308, 5e-324, math.inf, -math.inf])
    reward = trace.reward.copy()
    for k, i in np.argwhere(~np.isnan(reward)).tolist():
        if draw(st.integers(0, 3)):
            reward[k, i] = draw(values | st.floats(allow_nan=False))
    reward[np.array(draw(st.lists(st.integers(0, 3), min_size=t, max_size=t))) == 0] = np.nan
    return Trace(trace.ticks, trace.positions, trace.state, trace.action, reward,
                 trace.neighbor_count)


@settings(max_examples=200, deadline=None)
@given(trace=reward_traces(), data=st.data())
def test_running_totals_give_the_bits_of_the_whole_trace_summary(trace, data):
    t, m = trace.shape
    cuts = sorted(set(data.draw(st.lists(st.integers(1, t - 1), max_size=t)) if t > 1 else []))
    totals = RunningTotals(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip([0, *cuts], [*cuts, t]):
            totals.add(trace.window(start, stop))
        # drift_onsets sums the rewards too, on the way to its onsets
        expected, onsets = cumulative_rewards(trace), drift_onsets(trace)
    assert bits(totals.cumulative_rewards()) == bits(expected)
    # the running sum spelled out: from 0.0 in tick order, a row without a reward adding 0.0
    steps = np.where(np.isnan(trace.reward), 0.0, trace.reward).T.tolist()
    assert bits(expected) == bits([functools.reduce(operator.add, col, 0.0) for col in steps])
    assert totals.drift_onsets() == onsets
    assert totals.last_counts.tolist() == trace.neighbor_count[-1].tolist()
