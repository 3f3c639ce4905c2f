import copy
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qswarm.core as core
from qswarm.core import (NeighborList, Vec2, WorldBounds, neighbor_blocks, neighbor_mask,
                         positions_array)
from qswarm.mql import (SCHEDULES, ActionSpec, MqlEngine, MqlParams, StateId,
                        apply_action, build_actions, encode_state, judge,
                        move, neighborhood, reward, step_scale_pi, summarize)
from qswarm.qlearning import LearningParams


def make_params(**over):
    defaults = dict(epsilon=5.0, d_min=1.0, tau_r=0.02, tau_s=0.05)
    defaults.update(over)
    return MqlParams(**defaults)


def deviation_of_first(positions, epsilon):
    """(D, n) of particle 0 from the sensing kernel, D = total - n * epsilon."""
    (_, _, dist, mask), = neighbor_blocks(positions_array(positions), [0], epsilon)
    n, total, _ = summarize(dist, mask)
    return float(total[0] - n[0] * epsilon), int(n[0])


def rim_summary(dists):
    """(n, total, lowest) from the sensing kernel for particle 0 with peers
    at ``dists``. Sensed with a radius one ulp wider than the farthest peer,
    so peers at exactly the rules' radius count; raw positions under the
    strict neighbourhood cannot reach these formula-level cases."""
    column = np.array([[0.0, *dists]]).T
    peers = np.arange(len(column))[:, None]
    return summarize(column, neighbor_mask(column, peers, [0], np.nextafter(max(dists), np.inf)))


# --- action catalogue ----------------------------------------------------------

def test_twelve_distinct_actions():
    actions = build_actions((0.5, 1.0, 2.0))
    assert len(actions) == 12
    assert len(set(actions)) == 12
    assert {a.axis for a in actions} == {0, 1}
    assert {a.direction for a in actions} == {1, -1}
    assert {a.magnitude for a in actions} == {0.5, 1.0, 2.0}


def test_action_order_is_stable():
    actions = build_actions((0.5, 1.0, 2.0))
    assert actions[0] == ActionSpec(axis=0, direction=1, magnitude=0.5)
    assert actions[5] == ActionSpec(axis=0, direction=-1, magnitude=2.0)
    assert actions[11] == ActionSpec(axis=1, direction=-1, magnitude=2.0)


# --- neighbourhood -------------------------------------------------------------

def test_neighborhood_hand_distances():
    # d(0,1)=5 and d(0,2)=sqrt(200)~14.14 against radius 6
    positions = [Vec2(0, 0), Vec2(3, 4), Vec2(10, 10)]
    assert neighborhood(0, positions, 6.0) == {1}


def test_neighborhood_singleton_swarm():
    assert neighborhood(0, [Vec2(2, 2)], 6.0) == set()


def test_neighborhood_excludes_exact_radius():
    positions = [Vec2(0, 0), Vec2(6, 0)]
    assert neighborhood(0, positions, 6.0) == set()
    assert neighborhood(0, positions, 6.0000001) == {1}


def test_neighborhood_never_contains_self_and_is_symmetric():
    rng = np.random.default_rng(20)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        positions = [Vec2(*rng.uniform(0, 30, 2)) for _ in range(m)]
        sets = [neighborhood(i, positions, 8.0) for i in range(m)]
        for i in range(m):
            assert i not in sets[i]
            for k in sets[i]:
                assert i in sets[k]



@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 17, 64, 131])
def test_summarize_sums_each_row_left_to_right(k):
    # numpy sums pairwise along a fast axis of 8 or more entries, so a total
    # taken along one (a one-row (c, 1) block reduced over axis 0) differs in
    # its bits
    rng = np.random.default_rng(k)
    for c in (1, 8, 9, 17, 129, 300):
        # column-major: query row j's peers are column j of the (c, k) block
        dist = rng.random((c, k)) * 10.0 ** rng.integers(-6, 7, (c, k))
        mask = rng.random((c, k)) < 0.7
        # masked-out cells change no total, whatever they hold
        dist[~mask] = rng.choice([np.nan, np.inf, -np.inf, 1e308], (c, k))[~mask]
        n, total, lowest = summarize(dist, mask)
        rows = [[d for d, picked in zip(row, picks) if picked]
                for row, picks in zip(dist.T.tolist(), mask.T.tolist())]
        expected = []
        for row in rows:
            running = 0.0
            for d in row:
                running += d
            expected.append(running)
        assert total.tobytes() == np.array(expected).tobytes(), (k, c)
        assert n.tolist() == [len(row) for row in rows]
        assert lowest.tolist() == [min(row, default=math.inf) for row in rows]

# --- deviation, state, step scale ----------------------------------------------

def test_deviation_hand_value():
    # neighbours at distances 3 and 4, radius 5: D = 7 - 10 = -3
    positions = [Vec2(0, 0), Vec2(3, 0), Vec2(0, 4)]
    assert deviation_of_first(positions, 5.0) == (-3.0, 2)


def test_deviation_none_when_disconnected():
    # a neighbourless particle has no neighbour distances: n = 0 and D = 0.0
    assert deviation_of_first([Vec2(0, 0), Vec2(50, 50)], 5.0) == (0.0, 0)


def test_deviation_zero_at_the_rim_formula_level():
    # two neighbours exactly at the radius give D = 0 (unreachable from raw
    # positions under the strict < radius): no step and the top reward
    params = make_params()
    states, pi, rewards = judge(*rim_summary([5.0, 5.0]), params)
    assert (states[0], pi[0], rewards[0]) == (StateId.IDEAL, 0.0, params.reward_max)


def test_encode_state_cases():
    params = make_params()
    # no neighbours
    assert encode_state(0, [Vec2(0, 0), Vec2(50, 50)], params) == StateId.DISCONNECTED
    # distances {3, 4}: rho = -3/10 = -0.3 < -tau_s
    near = [Vec2(0, 0), Vec2(3, 0), Vec2(0, 4)]
    assert encode_state(0, near, params) == StateId.NEAR
    # overlap beats everything else
    crowd = [Vec2(0, 0), Vec2(0.5, 0), Vec2(0, 4)]
    assert encode_state(0, crowd, params) == StateId.TOO_CLOSE
    # inside the tau_s band: distance 4.9 of radius 5 -> rho = -0.02
    band = [Vec2(0, 0), Vec2(4.9, 0)]
    assert encode_state(0, band, params) == StateId.IDEAL


def test_encode_state_rim_and_far_formula_level():
    params = make_params()
    assert judge(*rim_summary([5.0, 5.0]), params)[0][0] == StateId.IDEAL
    assert judge(*rim_summary([6.0, 6.0]), params)[0][0] == StateId.FAR


def test_step_scale_hand_value():
    positions = [Vec2(0, 0), Vec2(3, 0), Vec2(0, 4)]
    assert step_scale_pi(0, positions, make_params()) == pytest.approx(0.3, abs=1e-15)


def test_step_scale_boundary_cases():
    params = make_params()
    # disconnected -> full mobility
    assert step_scale_pi(0, [Vec2(0, 0), Vec2(50, 50)], params) == 1.0
    # zero deviation -> holds position (formula level, rim distances)
    assert judge(*rim_summary([5.0, 5.0]), params)[1][0] == 0.0
    # the cap binds exactly when every neighbour distance is zero
    assert judge(*rim_summary([0.0, 0.0]), params)[1][0] == 1.0


def test_step_scale_in_unit_interval_random():
    rng = np.random.default_rng(21)
    params = make_params(epsilon=8.0, d_min=1.0)
    for _ in range(300):
        m = int(rng.integers(1, 7))
        positions = [Vec2(*rng.uniform(0, 25, 2)) for _ in range(m)]
        pi = step_scale_pi(0, positions, params)
        assert 0.0 <= pi <= 1.0
        dev, n = deviation_of_first(positions, params.epsilon)
        # zero step scale exactly when connected at zero deviation
        if n > 0:
            assert (pi == 0.0) == (dev == 0.0)
        else:
            assert pi == 1.0


# --- the fused rule against a scalar oracle ---------------------------------------

def judge_oracle(n, total, lowest, params):
    """(state, pi, reward) of one neighbourhood, each rule written out on
    its own in Python floats, as the module docstring states it."""
    eps, rmax = params.epsilon, params.reward_max
    if n == 0:
        return StateId.DISCONNECTED, 1.0, -rmax
    dev = total - n * eps
    rho = dev / (n * eps)
    if lowest < params.d_min:
        state = StateId.TOO_CLOSE
    elif abs(rho) <= params.tau_s:
        state = StateId.IDEAL
    else:
        state = StateId.NEAR if rho < 0 else StateId.FAR
    pi = min(1.0, abs(dev) / (n * eps))
    if lowest < params.d_min:
        r = -rmax
    elif abs(dev) <= params.tau_r * n * eps:
        r = rmax
    else:
        r = -min(abs(dev), rmax)
    return state, pi, r


def nudged(x, steps):
    """``x`` moved ``steps`` representable floats up (or down, if negative)."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def judged_params(draw):
    epsilon = draw(st.floats(0.5, 50.0))
    return make_params(epsilon=epsilon, d_min=draw(st.floats(0.01, 0.99)) * epsilon,
                       tau_r=draw(st.floats(0.001, 0.999)), tau_s=draw(st.floats(0.001, 0.999)),
                       reward_max=draw(st.sampled_from([0.01, 1.0, 100.0, 1e300])))


@st.composite
def neighbourhoods(draw, params):
    """(n, total, lowest) as ``summarize`` gives them, drawn anywhere or at a
    boundary of a rule: D = 0, rho at +-tau_s, |D| at tau_r * n * epsilon, and
    lowest at d_min, each with the floats next to it on either side."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, 0.0, math.inf
    eps = params.epsilon
    x = n * eps
    band = params.tau_r * n * eps
    base = draw(st.sampled_from([None, x, x + params.tau_s * x, x - params.tau_s * x,
                                 x + band, x - band]))
    if base is None:
        total = draw(st.floats(0.0, 2.0 * x))
    else:
        total = max(0.0, nudged(base, draw(st.integers(-2, 2))))
    if draw(st.booleans()):
        lowest = draw(st.floats(0.0, eps, exclude_max=True))
    else:
        lowest = nudged(params.d_min, draw(st.integers(-1, 1)))
    return n, total, lowest


@settings(max_examples=300, deadline=None)
@given(data=st.data(), params=judged_params())
def test_the_fused_rule_gives_the_bits_of_a_scalar_oracle(data, params):
    rows = data.draw(st.lists(neighbourhoods(params), min_size=1, max_size=12))
    n, total, lowest = (np.array(col) for col in zip(*rows))
    n, total, lowest = n.astype(np.int64), total.astype(float), lowest.astype(float)
    states, pi, r = judge(n, total, lowest, params)
    # the scalars as 0-d arrays, as an engine holds them, give the same bits
    scalars = SimpleNamespace(**{name: np.array(getattr(params, name)) for name in
                                 ("epsilon", "tau_s", "d_min", "reward_max", "tau_r")})
    for ours, theirs in zip(judge(n, total, lowest, scalars), (states, pi, r)):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
    expected = [judge_oracle(*row, params) for row in rows]
    assert states.dtype == np.int64 and states.tolist() == [e[0] for e in expected]
    assert pi.tobytes() == np.array([e[1] for e in expected]).tobytes()
    assert r.tobytes() == np.array([e[2] for e in expected]).tobytes()


# --- action application --------------------------------------------------------

def test_apply_action_hand_value():
    world = WorldBounds(0, 100, 0, 100)
    moved = apply_action(Vec2(0, 0), ActionSpec(0, 1, 2.0), 0.5, world)
    assert moved == Vec2(1.0, 0.0)


def test_apply_action_zero_scale_is_identity():
    world = WorldBounds(0, 100, 0, 100)
    assert apply_action(Vec2(7, 9), ActionSpec(1, -1, 2.0), 0.0, world) == Vec2(7, 9)


def test_apply_action_clamped_at_boundary():
    world = WorldBounds(0, 100, 0, 100)
    assert apply_action(Vec2(99.5, 0), ActionSpec(0, 1, 2.0), 1.0, world) == Vec2(100.0, 0.0)


def test_apply_action_moves_single_axis():
    world = WorldBounds(0, 100, 0, 100)
    moved = apply_action(Vec2(50, 50), ActionSpec(1, -1, 1.0), 1.0, world)
    assert moved == Vec2(50, 49)


SIGNED_COORDS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 10.0, -10.0, 12.0, -12.0])
SIGNED_BOUNDS = st.sampled_from([(-0.0, 10.0), (0.0, 10.0), (-10.0, 0.0), (-10.0, -0.0),
                                 (-0.0, 0.5)])


@settings(max_examples=200, deadline=None)
@example(rows=[(0.0, 5.0, 6)], xb=(-0.0, 10.0), yb=(-0.0, 10.0), pi=1.0)
@given(rows=st.lists(st.tuples(SIGNED_COORDS, SIGNED_COORDS, st.integers(0, 11)),
                     min_size=1, max_size=40),
       xb=SIGNED_BOUNDS, yb=SIGNED_BOUNDS, pi=st.sampled_from([0.0, 0.5, 1.0]))
def test_every_clamp_keeps_the_min_max_tie_rule_on_signed_zeros(rows, xb, yb, pi):
    # each coordinate as min(max(v, lo), hi) in Python floats, where v wins a
    # tie: a bound of -0.0 leaves a 0.0 as 0.0, and a bound of 0.0 a -0.0 as -0.0
    world = WorldBounds(xb[0], xb[1], yb[0], yb[1])
    lo, hi = (world.x_min, world.y_min), (world.x_max, world.y_max)

    def clamped(p):
        return [min(max(v, low), high) for v, low, high in zip(p, lo, hi)]

    actions = build_actions((0.5, 1.0, 2.0))
    start = [[x, y] for x, y, _ in rows]
    chosen = [actions[a] for *_, a in rows]
    stepped = [list(p) for p in start]
    for p, a in zip(stepped, chosen):
        p[a.axis] += pi * a.magnitude * a.direction
    expected = np.array([clamped(p) for p in stepped])

    moved = move(np.array(start), np.array([a.step for a in chosen]),
                 np.full(len(rows), pi), world)
    assert moved.tobytes() == expected.tobytes()
    for p, a, e in zip(start, chosen, expected):
        one = apply_action(Vec2(*p), a, pi, world)
        assert np.array(one.as_tuple()).tobytes() == e.tobytes()
    engine = MqlEngine(len(rows), MqlParams(), world, np.random.default_rng(0),
                       initial_positions=[Vec2(*p) for p in start])
    assert engine.pos.tobytes() == np.array([clamped(p) for p in start]).tobytes()


# --- reward ---------------------------------------------------------------------

def test_reward_disconnected_is_full_penalty():
    assert reward(0, [Vec2(0, 0), Vec2(50, 50)], make_params()) == -100.0


def test_reward_full_at_the_rim_formula_level():
    # whole reward for total distance at n * radius; unreachable from raw
    # positions under the strict neighbourhood, so asserted on the formula
    assert judge(*rim_summary([5.0, 5.0]), make_params())[2][0] == 100.0


def test_reward_inside_tolerance_band():
    # single neighbour at 4.95 of radius 5: |D| = 0.05 <= 0.02 * 5
    assert reward(0, [Vec2(0, 0), Vec2(4.95, 0)], make_params()) == 100.0


def test_reward_deviation_penalty_hand_value():
    # distances {3, 4}: |D| = 3 > 0.02 * 10 -> -3
    positions = [Vec2(0, 0), Vec2(3, 0), Vec2(0, 4)]
    assert reward(0, positions, make_params()) == -3.0


def test_reward_overlap_penalty():
    positions = [Vec2(0, 0), Vec2(0.5, 0), Vec2(0, 4)]
    assert reward(0, positions, make_params()) == -100.0


def test_reward_penalty_capped():
    # 40 neighbours each ~1.5 away: |D| = 40 * 3.5 = 140 -> capped at 100
    params = make_params(epsilon=5.0, d_min=1.0)
    assert judge(*rim_summary([1.5] * 40), params)[2][0] == -100.0


def test_reward_always_within_scale_random():
    rng = np.random.default_rng(22)
    params = make_params(epsilon=6.0, d_min=1.2)
    for _ in range(500):
        m = int(rng.integers(1, 7))
        positions = [Vec2(*rng.uniform(0, 20, 2)) for _ in range(m)]
        r = reward(0, positions, params)
        assert -params.reward_max <= r <= params.reward_max


def brute_force_reward(i, positions, params):
    """Independent evaluation of the reward branches from first principles."""
    dists = []
    for k, p in enumerate(positions):
        if k == i:
            continue
        d = math.sqrt((positions[i].x - p.x) ** 2 + (positions[i].y - p.y) ** 2)
        if d < params.epsilon:
            dists.append(d)
    if len(dists) == 0:
        return -params.reward_max
    if any(d < params.d_min for d in dists):
        return -params.reward_max
    deviation = abs(sum(dists) - len(dists) * params.epsilon)
    if deviation <= params.tau_r * len(dists) * params.epsilon:
        return params.reward_max
    return -min(deviation, params.reward_max)


def test_reward_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    world = WorldBounds(0, 100, 0, 100)
    for _ in range(2000):
        m = int(rng.integers(1, 7))
        epsilon = float(rng.uniform(2.0, 30.0))
        params = make_params(epsilon=epsilon, d_min=float(rng.uniform(0.05, 0.9)) * epsilon,
                             tau_r=float(rng.uniform(0.005, 0.2)))
        positions = [Vec2(float(rng.uniform(world.x_min, world.x_max)),
                          float(rng.uniform(world.y_min, world.y_max)))
                     for _ in range(m)]
        i = int(rng.integers(m))
        assert reward(i, positions, params) == brute_force_reward(i, positions, params)


# --- engine ---------------------------------------------------------------------

def test_singleton_swarm_flatlines():
    params = MqlParams()
    engine = MqlEngine(1, params, WorldBounds(), np.random.default_rng(30))
    for t in range(10):
        (rec,) = engine.tick()
        assert rec.state == StateId.DISCONNECTED
        assert rec.reward == -100.0
        assert rec.neighbor_count == 0


def test_simultaneous_tick_emits_m_records():
    engine = MqlEngine(3, MqlParams(), WorldBounds(), np.random.default_rng(31))
    records = engine.tick()
    assert [r.particle for r in records] == [0, 1, 2]
    assert all(r.tick == 0 for r in records)
    assert all(r.reward is not None and r.action is not None for r in records)


def test_round_robin_each_particle_moves_once():
    params = MqlParams(schedule="round_robin")
    engine = MqlEngine(3, params, WorldBounds(), np.random.default_rng(32))
    movers = []
    for _ in range(3):
        before = engine.positions()
        records = engine.tick()
        assert len(records) == 3
        after = engine.positions()
        moved = [i for i in range(3) if before[i] != after[i]]
        acting = [r.particle for r in records if r.reward is not None]
        assert len(acting) == 1
        movers.append(acting[0])
        # nobody else moved (the mover itself may hold position if pi is 0)
        assert set(moved) <= set(acting)
    assert sorted(movers) == [0, 1, 2]


def test_flat_line_property():
    # loner further out than it could ever travel back: penalty every tick
    params = MqlParams(epsilon=10.0)
    positions = [Vec2(5, 5), Vec2(8, 5), Vec2(95, 95)]
    engine = MqlEngine(3, params, WorldBounds(), np.random.default_rng(33),
                       initial_positions=positions)
    for _ in range(20):
        records = engine.tick()
        assert records[2].reward == -100.0
        assert records[2].neighbor_count == 0


def test_recover_lost_homing_pulls_the_loner_back():
    params = MqlParams(epsilon=10.0, recover_lost=True)
    positions = [Vec2(48, 50), Vec2(52, 50), Vec2(90, 50)]
    engine = MqlEngine(3, params, WorldBounds(), np.random.default_rng(38),
                       initial_positions=positions)
    start_gap = engine.positions()[2].x - 52.0
    for _ in range(40):
        engine.tick()
    # the pursuit override walks the loner towards the nearest peer at the
    # longest step, so the gap must close monotonically until contact
    assert len(neighborhood(2, engine.positions(), params.epsilon)) > 0
    assert engine.positions()[2].x - 52.0 < start_gap


def test_recover_lost_off_keeps_the_default_flat_line():
    params = MqlParams(epsilon=10.0, recover_lost=False)
    positions = [Vec2(5, 5), Vec2(8, 5), Vec2(95, 95)]
    engine = MqlEngine(3, params, WorldBounds(), np.random.default_rng(39),
                       initial_positions=positions)
    for _ in range(20):
        records = engine.tick()
    assert records[2].neighbor_count == 0


def test_neighborhood_symmetry_holds_every_tick():
    engine = MqlEngine(8, MqlParams(), WorldBounds(), np.random.default_rng(34))
    for _ in range(30):
        engine.tick()
        positions = engine.positions()
        sets = [neighborhood(i, positions, engine.params.epsilon) for i in range(8)]
        for i in range(8):
            for k in sets[i]:
                assert i in sets[k]


def test_positions_stay_in_bounds():
    world = WorldBounds(0, 30, 0, 30)
    engine = MqlEngine(6, MqlParams(), world, np.random.default_rng(35))
    for _ in range(50):
        for r in engine.tick():
            assert world.contains(r.position)


def test_engine_is_deterministic():
    def run(seed):
        engine = MqlEngine(5, MqlParams(), WorldBounds(), np.random.default_rng(seed))
        return [engine.tick() for _ in range(20)]

    a, b = run(99), run(99)
    assert a == b
    c = run(100)
    assert a != c


def test_initial_cluster_starts_connected():
    for seed in range(5):
        engine = MqlEngine(20, MqlParams(), WorldBounds(), np.random.default_rng(seed))
        positions = engine.positions()
        assert all(len(neighborhood(i, positions, 10.0)) > 0 for i in range(20))


def test_initial_positions_override_is_clamped():
    world = WorldBounds(0, 10, 0, 10)
    engine = MqlEngine(2, MqlParams(epsilon=3.0), world, np.random.default_rng(37),
                       initial_positions=[Vec2(-5, 5), Vec2(20, 5)])
    assert engine.positions() == [Vec2(0, 5), Vec2(10, 5)]


def test_initial_positions_must_be_finite():
    # the clamp would pull an infinite coordinate onto the wall and keep a NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            MqlEngine(2, MqlParams(), WorldBounds(), np.random.default_rng(0),
                      initial_positions=np.array([[bad, 1.0], [2.0, 3.0]]))


@pytest.mark.parametrize("epsilon", [2 ** 62, 10 ** 20])
def test_an_integer_epsilon_is_judged_as_its_float(epsilon):
    # 2 * 2**62 wraps in int64 and 10**20 does not fit one: judged in floats,
    # an integer radius gives the rules of its float spelling
    positions = [Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(2.0, 0.0)]
    as_int, as_float = (MqlParams(epsilon=e, d_min=0.5) for e in (epsilon, float(epsilon)))
    for i in range(3):
        for rule in (encode_state, step_scale_pi, reward):
            assert rule(i, positions, as_int) == rule(i, positions, as_float)
    assert encode_state(1, positions, as_int) is StateId.NEAR


@pytest.mark.parametrize("epsilon", [1.7e308, 10 ** 308], ids=["float", "int"])
@pytest.mark.parametrize("schedule", SCHEDULES)
def test_an_overflowing_neighbour_radius_is_refused_by_the_engine(schedule, epsilon):
    # judge computes n * epsilon in floats for up to m - 1 neighbours, as the
    # loader checks; an integer as written is checked as its float
    params = MqlParams(epsilon=epsilon, schedule=schedule)
    message = (r"^\(swarm size - 1\) \* mql\.epsilon must be finite, "
               rf"got swarm size 3 with epsilon={re.escape(repr(epsilon))}$")
    with pytest.raises(ValueError, match=message):
        MqlEngine(3, params, WorldBounds(), np.random.default_rng(0))
    with np.errstate(all="raise"):
        engine = MqlEngine(2, params, WorldBounds(), np.random.default_rng(0))
        for _ in range(3):
            engine.tick()
    assert np.isfinite(engine.pos).all()


def test_params_validation():
    with pytest.raises(ValueError):
        MqlParams(epsilon=10.0, d_min=12.0)
    with pytest.raises(ValueError):
        MqlParams(tau_r=0.0)
    with pytest.raises(ValueError):
        MqlParams(step_set=(1.0, 0.5, 2.0))
    with pytest.raises(ValueError):
        MqlParams(step_set=(0.5, 1.0))
    with pytest.raises(ValueError):
        MqlParams(schedule="alternating")
    with pytest.raises(ValueError):
        MqlParams(reward_max=-5.0)
    # d_min defaults to a fifth of the sensing radius
    assert MqlParams(epsilon=10.0).d_min == pytest.approx(2.0)


@pytest.mark.parametrize("schedule", ["simultaneous", "round_robin"])
def test_tick_returns_columns_without_building_records(monkeypatch, schedule):
    import qswarm.core
    import qswarm.metrics
    from qswarm.metrics import Trace

    def not_in_tick(self, *args, **kwargs):
        raise AssertionError("tick() must not build per-row objects")

    engine = MqlEngine(5, MqlParams(schedule=schedule), WorldBounds(),
                       np.random.default_rng(36))
    with monkeypatch.context() as patch:
        patch.setattr(qswarm.metrics.TickRecord, "__init__", not_in_tick)
        patch.setattr(qswarm.core.Vec2, "__init__", not_in_tick)
        rows = engine.tick()
    assert isinstance(rows, Trace) and rows.shape == (1, 5)
    assert rows.ticks.tolist() == [0]
    assert np.array_equal(rows.positions[0], engine.pos)
    acted = ~np.isnan(rows.reward[0])
    assert acted.sum() == (5 if schedule == "simultaneous" else 1)
    assert (rows.action[0][acted] >= 0).all() and (rows.action[0][~acted] == -1).all()
    assert (rows.state[0] >= 0).all()


def test_build_actions_accepts_any_sequence_and_is_shared():
    assert build_actions([0.5, 1, 2.0]) == build_actions((0.5, 1.0, 2.0))
    assert build_actions(np.array([0.5, 1.0, 2.0])) is build_actions((0.5, 1.0, 2.0))
    a = MqlEngine(2, MqlParams(), WorldBounds(), np.random.default_rng(37))
    b = MqlEngine(3, MqlParams(), WorldBounds(), np.random.default_rng(37))
    assert a.actions is b.actions


# --- the carried neighbourhood summary -------------------------------------------

@st.composite
def engines(draw):
    """An engine on either schedule, with or without exploration and pursuit,
    in a world small enough that moves hit the walls. Lattice swarms have an
    integer epsilon, integer world and integer steps, so some peers sit at
    exactly epsilon."""
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        epsilon = float(draw(st.integers(2, 8)))
        side = float(draw(st.integers(3, 30)))
        coords = st.integers(0, int(side)).map(float)
        step_set = (1.0, 2.0, 3.0)
    else:
        epsilon = draw(st.floats(2.0, 20.0))
        side = draw(st.floats(5.0, 100.0))
        coords = st.floats(0.0, side)
        step_set = (0.5, 1.0, 2.0)
    params = MqlParams(
        epsilon=epsilon, step_set=step_set,
        schedule=draw(st.sampled_from(SCHEDULES)),
        learning=LearningParams(explore_rate=draw(st.sampled_from([0.0, 0.3]))),
        recover_lost=draw(st.booleans()))
    start = draw(st.lists(st.builds(Vec2, coords, coords), min_size=m, max_size=m))
    return MqlEngine(m, params, WorldBounds(0.0, side, 0.0, side),
                     np.random.default_rng(draw(st.integers(0, 2**32))),
                     initial_positions=start)


def assert_carries_a_fresh_sensing(engine):
    for carried, expected in zip(engine.sensed, dense_judged(engine), strict=True):
        assert carried.dtype == expected.dtype and carried.shape == (engine.m,)
        assert carried.tobytes() == expected.tobytes()  # bit for bit


@settings(max_examples=150, deadline=None)
@given(engine=engines(), ticks=st.integers(1, 40))
def test_carried_summary_equals_a_fresh_sensing_after_every_tick(engine, ticks):
    allocated = engine.sensed  # once, with the engine: each sensing books into it
    for _ in range(ticks):
        rows = engine.tick()
        assert_carries_a_fresh_sensing(engine)
        assert np.array_equal(rows.neighbor_count[0], engine.sensed[0])
        assert all(now is then for now, then in zip(engine.sensed, allocated, strict=True))


@settings(max_examples=80, deadline=None)
@given(engine=engines(), ticks=st.integers(0, 5), in_place=st.booleans(), data=st.data())
def test_writing_pos_between_ticks_is_sensed_afresh(engine, ticks, in_place, data):
    for _ in range(ticks):
        engine.tick()
    w, m = engine.world, engine.m
    moved = data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    new_xy = data.draw(st.lists(st.tuples(st.floats(w.x_min, w.x_max),
                                          st.floats(w.y_min, w.y_max)),
                                min_size=len(moved), max_size=len(moved)))
    if in_place:
        engine.pos[moved] = new_xy
    else:
        pos = engine.pos.copy()
        pos[moved] = new_xy
        engine.pos = pos

    fresh = MqlEngine(m, engine.params, w, copy.deepcopy(engine.rng),
                      initial_positions=[Vec2(x, y) for x, y in engine.pos.tolist()])
    fresh.q = engine.q.copy()
    fresh.tick_index = engine.tick_index
    assert engine.tick() == fresh.tick()
    assert np.array_equal(engine.pos, fresh.pos)
    assert np.array_equal(engine.q, fresh.q)
    assert_carries_a_fresh_sensing(engine)


def test_tick_rows_are_not_written_by_later_ticks():
    engine = MqlEngine(12, MqlParams(schedule="round_robin", init_span=15.0),
                       WorldBounds(), np.random.default_rng(38))
    first = engine.tick()
    kept = copy.deepcopy(first)
    for _ in range(24):
        engine.tick()
    assert first == kept


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_only_the_rows_a_move_can_change_are_sensed_again(monkeypatch, schedule):
    import qswarm.mql

    queried, measured, binned = [], [], []

    def counting(arr, rows, epsilon):
        queried.append(len(rows))
        return neighbor_blocks(arr, rows, epsilon)

    monkeypatch.setattr(qswarm.mql, "neighbor_blocks", counting)
    # a simultaneous swarm above the dense crossover senses every row through
    # its carried neighbour list instead
    listed_blocks = NeighborList.blocks
    monkeypatch.setattr(NeighborList, "blocks",
                        lambda self, arr: queried.append(len(arr)) or listed_blocks(self, arr))
    distances, cells = core.pairwise_distances, core._cells
    # the engine measures the mover's rows itself, and core the rows it re-senses
    for module in (qswarm.mql, core):
        monkeypatch.setattr(module, "pairwise_distances", lambda arr, rows=None, cols=None: (
            measured.append(np.array(rows)) or distances(arr, rows, cols)))
    monkeypatch.setattr(core, "_cells", lambda arr, epsilon: (
        binned.append(len(arr)) or cells(arr, epsilon)))
    # at M=300 a whole-swarm sensing is above the dense crossover, on the cells
    for m, init_span in ((40, 60.0), (300, None)):
        engine = MqlEngine(m, MqlParams(schedule=schedule, init_span=init_span), WorldBounds(),
                           np.random.default_rng(39))
        eps = engine.params.epsilon
        queried.clear()
        engine.tick()  # no carried summary yet: the whole swarm is sensed first
        assert queried[0] == m
        for _ in range(10):
            queried.clear()
            measured.clear()
            binned.clear()
            i, before = engine.tick_index % m, engine.pos.copy()
            engine.tick()
            if schedule == "simultaneous":
                assert queried == [m]
                continue
            # the mover's distance row before and after the move, then the
            # mover and its epsilon-peers in either, with no query or binning
            assert queried == [] and binned == []
            assert [r.tolist() for r in measured[:2]] == [[i], [i]]
            resensed = np.concatenate(measured[2:])
            peers = {int(j) for pos in (before, engine.pos)
                     for j in np.flatnonzero(core.pairwise_distances(pos, [i])[0] < eps)}
            assert sorted(resensed.tolist()) == sorted(peers) and i in peers
            assert len(resensed) < m // 2


def dense_judged(engine):
    """(n, states, pi, rewards) of every particle from the full (M, M)
    distance matrix, each total a running sum in ascending peer order."""
    dist = core.pairwise_distances(engine.pos)
    mask = (dist < engine.params.epsilon) & ~np.eye(engine.m, dtype=bool)
    n = mask.sum(axis=1)
    lowest = np.where(mask, dist, np.inf).min(axis=1)
    total = np.cumsum(np.where(mask, dist, 0.0), axis=1)[:, -1].copy()
    return (n, *judge(n, total, lowest, engine.params))


def stepped(x, ulps):
    """``x`` moved ``|ulps|`` floating-point steps, up for ulps > 0, else down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def round_robin_rims(draw):
    """A round-robin engine whose first mover, particle 0 at the origin, has
    peers a few ulps either side of epsilon, 2 * epsilon and 2 * epsilon *
    CELL_WIDTH away, in rays from it (so peers near epsilon neighbour peers
    near 2 epsilon), among a scatter within 3 epsilon of it. On the axes a
    peer's computed distance is its radius exactly."""
    epsilon = draw(st.floats(1.0, 10.0))
    pos = [(0.0, 0.0)]
    for _ in range(draw(st.integers(1, 4))):
        angle = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0))
        unit = {0.0: (1.0, 0.0), 0.5: (0.0, 1.0), 1.0: (-1.0, 0.0), 1.5: (0.0, -1.0)}.get(
            angle, (math.cos(angle * math.pi), math.sin(angle * math.pi)))
        for radius in (epsilon, 2.0 * epsilon, 2.0 * epsilon * core.CELL_WIDTH):
            for _ in range(draw(st.integers(0, 3))):
                r = stepped(radius, draw(st.integers(-4, 4)))
                pos.append((r * unit[0], r * unit[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos += ((rng.random((draw(st.integers(0, 20)), 2)) - 0.5) * 6.0 * epsilon).tolist()
    params = MqlParams(epsilon=epsilon, schedule="round_robin",
                       learning=LearningParams(explore_rate=draw(st.sampled_from([0.0, 0.3]))),
                       recover_lost=draw(st.booleans()))
    return MqlEngine(len(pos), params, WorldBounds(-100.0, 100.0, -100.0, 100.0), rng,
                     initial_positions=[Vec2(x, y) for x, y in pos])


@settings(max_examples=150, deadline=None)
@given(engine=round_robin_rims(), ticks=st.integers(1, 40))
def test_a_round_robin_tick_senses_the_bits_of_a_dense_sensing(engine, ticks):
    for _ in range(ticks):
        rows = engine.tick()
        for carried, expected in zip(engine.sensed, dense_judged(engine), strict=True):
            assert carried.dtype == expected.dtype and carried.tobytes() == expected.tobytes()
        assert np.array_equal(rows.neighbor_count[0], engine.sensed[0])


# (epsilon, r, q) with computed distances |r| < epsilon and |q - r| < epsilon
# but |q| >= 2 epsilon (found by search over rays with a few ulps of jitter):
# the mover at the origin re-senses r, whose neighbour q lies past 2 epsilon
PAST_TWO_EPSILON = [
    (6.28107102968663, (-4.422642854515538, -4.460054199375979),
     (-8.84528570903108, -8.920108398751955)),
    (1.901592030904495, (1.6921836744049177, 0.8675060023290633),
     (3.384367348809835, 1.7350120046581274)),
    (4.103776826033747, (3.4255035353747734, -2.2598472884304686),
     (6.8510070707495485, -4.5196945768609345)),
]


@pytest.mark.parametrize("epsilon, r, q", PAST_TWO_EPSILON)
def test_the_mover_reach_holds_a_neighbour_rounded_past_two_epsilon(epsilon, r, q):
    start = [Vec2(0.0, 0.0), Vec2(*r), Vec2(*q)]
    dist = core.pairwise_distances(positions_array(start))
    assert dist[0, 1] < epsilon and dist[1, 2] < epsilon and dist[0, 2] >= 2 * epsilon
    engine = MqlEngine(3, MqlParams(epsilon=epsilon, schedule="round_robin"),
                       WorldBounds(-100.0, 100.0, -100.0, 100.0), np.random.default_rng(0),
                       initial_positions=start)
    engine.tick()
    for carried, expected in zip(engine.sensed, dense_judged(engine), strict=True):
        assert carried.tobytes() == expected.tobytes()
    assert engine.sensed[0][1] == 2  # r neighbours the mover and q


# --- the carried neighbour list (simultaneous swarms above the dense crossover) ---

def counted_builds(monkeypatch):
    """A list that grows by the swarm a NeighborList is built on, per build."""
    builds = []
    listed_blocks = NeighborList.blocks

    def counting(self, arr):
        built_on = self.built_on
        yield from listed_blocks(self, arr)
        if self.built_on is not built_on:
            builds.append(self.built_on)

    monkeypatch.setattr(NeighborList, "blocks", counting)
    return builds


def test_a_list_rebuilt_every_tick_gives_the_same_run(monkeypatch):
    # M=300 at the default seeding density: the cells prune, so the list holds
    # columns; a skin of 0 rebuilds it before every sensing
    def run():
        engine = MqlEngine(300, MqlParams(learning=LearningParams(explore_rate=0.1)),
                           WorldBounds(), np.random.default_rng(41))
        return [engine.tick() for _ in range(40)], engine

    builds = counted_builds(monkeypatch)
    kept, kept_engine = run()
    assert 1 < len(builds) < 41
    builds.clear()
    monkeypatch.setattr(core, "SKIN", 0.0)
    rebuilt, rebuilt_engine = run()
    assert len(builds) == 41  # before the first tick, then after every move
    assert kept == rebuilt
    assert np.array_equal(kept_engine.q, rebuilt_engine.q)
    assert_carries_a_fresh_sensing(kept_engine)


def test_a_rebuild_tick_measures_each_row_at_the_build_then_on_its_list(monkeypatch):
    # a skin of 0 rebuilds the list before every sensing; the build measures
    # every particle's row once against its cell candidates at the list's
    # radius, and the sensing then measures it once against its listed peers
    # (column-major blocks: a (C, K) block's K rows each list C peers)
    monkeypatch.setattr(core, "SKIN", 0.0)
    engine = MqlEngine(300, MqlParams(), WorldBounds(), np.random.default_rng(44))
    engine.tick()
    measured = []
    distances = core.pairwise_distances

    def counting(arr, rows=None, cols=None):
        measured.append((rows, cols))
        return distances(arr, rows, cols)

    monkeypatch.setattr(core, "pairwise_distances", counting)
    builds = counted_builds(monkeypatch)
    for _ in range(3):
        measured.clear()
        builds.clear()
        engine.tick()
        assert len(builds) == 1
        # the build's blocks, then the list: at M = 300 its ids fit in
        # BLOCK_ENTRIES, so it is one block of the build's rows in turn
        listed = [(r, c) for r, c in measured if any(c is ids for _, ids, _ in engine._list._blocks)]
        built = measured[:len(measured) - len(listed)]
        assert len(listed) == 1 and measured[-1][1] is listed[0][1]
        rows = np.concatenate([r for r, _ in built])
        assert listed[0][0].tolist() == rows.tolist()
        assert np.array_equal(np.sort(rows), np.arange(engine.m))
        # each build block as long as its rows' longest candidate list: the
        # particles in the 3 x 3 cells around the row's own at the list's radius
        radius = (engine.params.epsilon + engine._list.skin) * core.CELL_WIDTH
        _, key, stride = core._cells(builds[0], radius)
        column, row = np.divmod(key, stride)
        around = ((np.abs(column[:, None] - column) <= 1) & (np.abs(row[:, None] - row) <= 1))
        candidates = around.sum(axis=1)
        assert [c.shape for _, c in built] == [(int(candidates[r].max()), len(r)) for r, _ in built]
        # the list as long as the longest list of peers within the radius at
        # the build (at least one row, of each column's own id)
        peers = (distances(builds[0]) < radius).sum(axis=1) - 1
        assert listed[0][1].shape == (max(int(peers.max()), 1), engine.m)
        assert listed[0][1].size <= core.BLOCK_ENTRIES
    assert_carries_a_fresh_sensing(engine)


def test_an_outside_write_to_pos_rebuilds_the_list(monkeypatch):
    builds = counted_builds(monkeypatch)
    engine = MqlEngine(300, MqlParams(), WorldBounds(), np.random.default_rng(42))
    for _ in range(3):
        engine.tick()
    carried = engine._list.built_on
    # teleport the particle farthest from the centre 3 epsilon towards it
    centre = np.array(engine.world.center().as_tuple())
    k = int(np.argmax(((engine.pos - centre) ** 2).sum(axis=1)))
    away = engine.pos[k] - centre
    engine.pos[k] -= 3 * engine.params.epsilon * away / np.sqrt((away ** 2).sum())
    written = engine.pos.copy()
    builds.clear()
    engine.tick()
    # the tick senses the written swarm first, on a list built on it
    assert len(builds) >= 1 and np.array_equal(builds[0], written)
    assert not np.array_equal(written, carried)
    assert_carries_a_fresh_sensing(engine)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_no_list_below_the_crossover_or_under_round_robin(monkeypatch, schedule):
    def refuse(*args):
        raise AssertionError("no neighbour list may be built")

    monkeypatch.setattr(NeighborList, "__init__", refuse)
    monkeypatch.setattr(NeighborList, "stale", refuse)
    sizes = (20, 100, 300) if schedule == "round_robin" else (20, 100)
    for m in sizes:
        engine = MqlEngine(m, MqlParams(schedule=schedule), WorldBounds(),
                           np.random.default_rng(43))
        for _ in range(5):
            engine.tick()
        assert engine._list is None
        assert_carries_a_fresh_sensing(engine)


# --- a whole run against the scalar rules ------------------------------------------
#
# The oracle below plays a learning swarm from its seed with Python floats, one
# particle at a time, from the rules as the docstrings state them: the seeding
# of ``MqlEngine``, the peers strictly within epsilon summed in ascending id
# order, ``judge_oracle``, the documented action order (axes outer, directions
# +1 then -1, magnitudes inner), selection draws in mover order (the
# exploration coin first, then one ``rng.integers(ties)`` per tied row),
# pursuit, the clamp ``min(max(v, lo), hi)`` and the TD update. It shares no
# engine code, and it senses the whole swarm afresh after every move.

def scalar_senses(pos, epsilon):
    """(n, total, lowest) of every particle: its peers strictly within
    epsilon, their distances summed in ascending peer order from 0.0."""
    sensed = []
    for i, (xi, yi) in enumerate(pos):
        n, total, lowest = 0, 0.0, math.inf
        for j, (xj, yj) in enumerate(pos):
            dx, dy = xi - xj, yi - yj
            d = math.sqrt(dx * dx + dy * dy)
            if j != i and d < epsilon:
                n, total, lowest = n + 1, total + d, min(lowest, d)
        sensed.append((n, total, lowest))
    return sensed


def scalar_pursuit(pos, i):
    """The longest step along the dominant axis (y only where |dy| > |dx|)
    towards the nearest peer, the lowest id among equally near ones."""
    xi, yi = pos[i]
    near = min((math.sqrt((xi - x) ** 2 + (yi - y) ** 2), j)
               for j, (x, y) in enumerate(pos) if j != i)[1]
    dx, dy = pos[near][0] - xi, pos[near][1] - yi
    axis = 1 if abs(dx) < abs(dy) else 0
    backward = (dx, dy)[axis] < 0
    return 6 * axis + 3 * backward + 2


NUM_ACTIONS_ORACLE = 12


def scalar_select(q_row, prm, rng):
    """Exploration coin first (only when explore_rate > 0), then the greedy
    column, one draw among tied columns."""
    rate = prm.learning.explore_rate
    if rate > 0 and rng.random() < rate:
        return int(rng.integers(NUM_ACTIONS_ORACLE))
    best = max(q_row)
    tied = [a for a, v in enumerate(q_row) if v == best]
    return tied[int(rng.integers(len(tied)))] if len(tied) > 1 else tied[0]


def scalar_run(m, prm, world, seed, start, ticks):
    """Yield (positions, states, actions, rewards, counts, q, rng) after every
    tick of the scalar learning swarm."""
    rng = np.random.default_rng(seed)
    clamp = lambda v, lo, hi: min(max(v, lo), hi)
    if start is None:
        span = prm.init_span if prm.init_span is not None else prm.epsilon * math.sqrt(m) / 2.0
        span = min(span, world.width, world.height)
        cx, cy = (world.x_min + world.x_max) / 2.0, (world.y_min + world.y_max) / 2.0
        pos = []
        for _ in range(m):
            x = cx - span / 2.0 + span * rng.random()
            pos.append((x, cy - span / 2.0 + span * rng.random()))
    else:
        pos = [(clamp(x, world.x_min, world.x_max), clamp(y, world.y_min, world.y_max))
               for x, y in start]
    q = [[[0.0] * NUM_ACTIONS_ORACLE for _ in StateId] for _ in range(m)]
    judged = [judge_oracle(*s, prm) for s in scalar_senses(pos, prm.epsilon)]
    for tick in range(ticks):
        movers = [tick % m] if prm.schedule == "round_robin" else range(m)
        chosen = {}
        for i in movers:
            s = judged[i][0]
            if prm.recover_lost and s == StateId.DISCONNECTED and m > 1:
                chosen[i] = scalar_pursuit(pos, i)
            else:
                chosen[i] = scalar_select(q[i][s], prm, rng)
        moved = list(pos)
        for i, a in chosen.items():
            axis, sign, k = a // 6, (1.0, -1.0)[a // 3 % 2], a % 3
            x, y = pos[i]
            if axis == 0:
                x = x + judged[i][1] * (sign * prm.step_set[k])
            else:
                y = y + judged[i][1] * (sign * prm.step_set[k])
            moved[i] = (clamp(x, world.x_min, world.x_max), clamp(y, world.y_min, world.y_max))
        pos = moved
        sensed = scalar_senses(pos, prm.epsilon)
        after = [judge_oracle(*s, prm) for s in sensed]
        states, actions, rewards = [int(a[0]) for a in after], [-1] * m, [math.nan] * m
        lr, gamma = prm.learning.learning_rate, prm.learning.discount
        for i, a in chosen.items():
            s, (s1, _, r) = judged[i][0], after[i]
            old = q[i][s][a]
            q[i][s][a] = old + lr * (r + gamma * max(q[i][s1]) - old)
            states[i], actions[i], rewards[i] = int(s), a, r
        judged = after
        yield pos, states, actions, rewards, [n for n, _, _ in sensed], q, rng


@st.composite
def world_sides(draw):
    """(lo, hi) with a signed-zero lower end, a signed-zero upper end, or neither."""
    kind = draw(st.sampled_from(["zero_lo", "zero_hi", "free"]))
    width = draw(st.floats(1.0, 60.0))
    if kind == "zero_lo":
        return draw(st.sampled_from([0.0, -0.0])), width
    if kind == "zero_hi":
        return -width, draw(st.sampled_from([0.0, -0.0]))
    lo = draw(st.floats(-50.0, 50.0))
    return lo, lo + width


@st.composite
def learning_runs(draw):
    """(M, params, world, seed, start, ticks) for ``scalar_run``: worlds with
    signed-zero walls; epsilon drawn freely, a few ulps around the world's
    side, or around the seeding span; and either a seeded scatter or a start
    whose particle 0 has peers a few ulps either side of epsilon and d_min on
    the axes through it (where a computed distance is the radius exactly),
    among a scatter that may lie past the walls. Rewards stay small enough
    that no q-value can overflow ((2T + 1) x reward_max is finite)."""
    world = WorldBounds(*draw(world_sides()), *draw(world_sides()))
    side = min(world.width, world.height)
    init_span = draw(st.none() | st.floats(0.5, 80.0))
    near = draw(st.sampled_from(["free", "side", "span"]))
    if near == "side":
        epsilon = stepped(side, draw(st.integers(-3, 3)))
    elif near == "span" and init_span is not None:
        epsilon = stepped(init_span, draw(st.integers(-3, 3)))
    else:
        epsilon = draw(st.floats(0.5, 30.0))
    d_min = epsilon * draw(st.floats(0.01, 0.9))
    unit = st.floats(0.001, 0.999)
    a = draw(st.floats(0.05, 3.0))
    b = a * draw(st.floats(1.01, 3.0))
    step_set = draw(st.sampled_from([(0.5, 1.0, 2.0), (a, b, b * draw(st.floats(1.01, 3.0)))]))
    prm = MqlParams(
        epsilon=epsilon, d_min=d_min, tau_r=draw(unit), tau_s=draw(unit),
        reward_max=draw(st.sampled_from([100.0, 1.0]) | st.floats(1e-3, 1e6)),
        step_set=step_set, schedule=draw(st.sampled_from(SCHEDULES)), init_span=init_span,
        recover_lost=draw(st.booleans()),
        learning=LearningParams(learning_rate=draw(st.sampled_from([0.1, 1.0]) | unit),
                                discount=draw(st.sampled_from([0.9, 1.0]) | unit),
                                explore_rate=draw(st.sampled_from([0.0, 0.2]))))
    start = None
    if draw(st.booleans()):
        x0, y0 = (0.0 if lo <= 0.0 <= hi else lo for lo, hi in
                  ((world.x_min, world.x_max), (world.y_min, world.y_max)))
        start = [(x0, y0)]
        for radius in (epsilon, d_min):
            for _ in range(draw(st.integers(0, 3))):
                r = stepped(radius, draw(st.integers(-3, 3)))
                start.append(draw(st.sampled_from([(x0 + r, y0), (x0 - r, y0),
                                                   (x0, y0 + r), (x0, y0 - r)])))
        coords = lambda lo, hi: st.floats(lo - 2.0, hi + 2.0)
        start += draw(st.lists(st.tuples(coords(world.x_min, world.x_max),
                                         coords(world.y_min, world.y_max)), max_size=25))
        m = len(start)
    else:
        m = draw(st.integers(1, 40))
    return m, prm, world, draw(st.integers(0, 2**32 - 1)), start, draw(st.integers(1, 30))


@settings(max_examples=100, deadline=None)
@given(run=learning_runs())
# past DENSE_PAIRS a whole-swarm sensing takes the cell query, and a
# simultaneous swarm carries its neighbour list
@example(run=(160, MqlParams(), WorldBounds(), 3, None, 6))
@example(run=(170, MqlParams(schedule="round_robin"), WorldBounds(), 4, None, 8))
@example(run=(155, MqlParams(init_span=40.0, recover_lost=True,
                             learning=LearningParams(explore_rate=0.2)),
                  WorldBounds(-0.0, 60.0, -60.0, -0.0), 5, None, 5))
def test_a_whole_run_gives_the_bits_of_the_scalar_rules(run):
    m, prm, world, seed, start, ticks = run
    engine = MqlEngine(m, prm, world, np.random.default_rng(seed),
                       initial_positions=None if start is None else [Vec2(*p) for p in start])
    for pos, states, actions, rewards, counts, q, rng in scalar_run(m, prm, world, seed,
                                                                    start, ticks):
        rows = engine.tick()
        assert engine.pos.tobytes() == np.array(pos).tobytes()  # signed zeros count
        assert rows.positions[0].tobytes() == engine.pos.tobytes()
        assert rows.state[0].tolist() == states and rows.action[0].tolist() == actions
        assert rows.reward[0].tobytes() == np.array(rewards).tobytes()
        assert rows.neighbor_count[0].tolist() == counts
        assert engine.q.tobytes() == np.array(q).tobytes()
        assert engine.rng.bit_generator.state == rng.bit_generator.state
