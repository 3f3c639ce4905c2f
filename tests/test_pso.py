import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qswarm.core import Vec2, WorldBounds, euclidean_distance
from qswarm.pso import Objective, PsoEngine, PsoParams, pso_step, velocity_update


class FakeRng:
    """Deterministic stand-in feeding prescribed uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        n = math.prod(size)
        taken, self.draws = self.draws[:n], self.draws[n:]
        return np.array(taken, dtype=float).reshape(size)


def make_params(**over):
    defaults = dict(bounds=WorldBounds(0, 10, 0, 10))
    defaults.update(over)
    return PsoParams(**defaults)


def make_engine(pos, best_pos, best_fit, target=Vec2(0, 0), rng=None, **over):
    """An engine at rest whose arrays are replaced by the given rows."""
    engine = PsoEngine(len(pos), make_params(**over), Objective(target=target),
                       sensing_radius=10.0, rng=np.random.default_rng(0))
    engine.pos = np.array(pos, dtype=float)
    engine.vel = np.zeros_like(engine.pos)
    engine.best_pos = np.array(best_pos, dtype=float)
    engine.best_fit = np.array(best_fit, dtype=float)
    if rng is not None:
        engine.rng = rng
    return engine


def test_init_components_follow_range_formula():
    # u=0.5 maps to the middle of [x_min, x_max]
    params = make_params(v_min=-1.0, v_max=1.0)
    rng = FakeRng([0.5, 0.5, 0.0, 1.0])
    engine = PsoEngine(1, params, Objective(target=Vec2(0, 0)), sensing_radius=10.0, rng=rng)
    p = engine.swarm[0]
    assert p.position == Vec2(5.0, 5.0)
    assert p.velocity == Vec2(-1.0, 1.0)


def test_init_velocity_at_lower_limit():
    params = make_params(v_min=-1.0, v_max=1.0)
    rng = FakeRng([0.2, 0.8, 0.0, 0.0])
    engine = PsoEngine(1, params, Objective(target=Vec2(0, 0)), sensing_radius=10.0, rng=rng)
    assert engine.swarm[0].velocity == Vec2(-1.0, -1.0)


def test_init_personal_best_is_initial_position():
    params = make_params()
    obj = Objective(target=Vec2(5, 5))
    engine = PsoEngine(4, params, obj, sensing_radius=10.0, rng=np.random.default_rng(0))
    for p in engine.swarm:
        assert p.best_position == p.position
        assert p.best_fitness == obj.fitness(np.array([p.position.as_tuple()]))[0]


def test_init_rejects_empty_swarm():
    with pytest.raises(ValueError):
        PsoEngine(0, make_params(), Objective(), sensing_radius=10.0,
                  rng=np.random.default_rng(0))


def test_fitness_examples():
    obj = Objective(target=Vec2(0, 0))
    assert obj.fitness(np.array([[0.0, 0.0], [3.0, 4.0]])).tolist() == [0.0, 5.0]
    rng = np.random.default_rng(1)
    assert (obj.fitness(rng.uniform(-50, 50, (100, 2))) >= 0.0).all()


def test_personal_best_update_rules():
    # constriction 0 keeps every particle in place; target (0, 0), all bests
    # (0, 3) at fitness 3: a strict improvement replaces, a tie and a worse
    # position do not
    engine = make_engine([[0, 2], [3, 0], [0, 4]], [[0, 3]] * 3, [3.0] * 3,
                         constriction=0.0)
    pso_step(engine)
    assert engine.best_pos.tolist() == [[0.0, 2.0], [0.0, 3.0], [0.0, 3.0]]
    assert engine.best_fit.tolist() == [2.0, 3.0, 3.0]


def test_select_global_best():
    # every particle sits at the origin with its best at (i + 1, 0); with
    # c1 = 0, c2 = r2 = w = 1 its velocity is the global best position
    for fitnesses, best in (([3.2, 1.1, 5.0], 1), ([2.0, 2.0], 0), ([4.2], 0)):
        m = len(fitnesses)
        engine = make_engine([[0, 0]] * m, [[i + 1, 0] for i in range(m)], fitnesses,
                             rng=FakeRng([1.0] * 2 * m), c1=0.0, c2=1.0,
                             inertia_w0=1.0, v_min=-50.0, v_max=50.0)
        pso_step(engine)
        assert engine.vel.tolist() == [[best + 1.0, 0.0]] * m


def one_velocity(x, v, pbest, gbest, r1, r2, w, params):
    return velocity_update(np.array([x], dtype=float), np.array([v], dtype=float),
                           np.array([pbest], dtype=float), np.array(gbest, dtype=float),
                           np.array([[r1, r2]]), w, params)[0].tolist()


def test_velocity_update_hand_value():
    # x=(0,0), pbest=(1,0), gbest=(2,0), c1=c2=2, r1=r2=0.5, w=0.9:
    # dv = 2*0.5*1 + 2*0.5*2 = 3, v = 0.9*3 = 2.7
    params = make_params(c1=2.0, c2=2.0, v_min=-10.0, v_max=10.0)
    vx, vy = one_velocity((0, 0), (0, 0), (1, 0), (2, 0), 0.5, 0.5, 0.9, params)
    assert vx == pytest.approx(2.7, rel=1e-12)
    assert vy == 0.0


def test_velocity_zero_at_consensus():
    params = make_params()
    assert one_velocity((3, 3), (1, 1), (3, 3), (3, 3), 0.7, 0.2, 0.9, params) == [0.0, 0.0]


def test_velocity_zero_constriction_annihilates_motion():
    params = make_params(constriction=0.0)
    assert one_velocity((0, 0), (1, 1), (5, 5), (9, 9), 1.0, 1.0, 0.9, params) == [0.0, 0.0]


def test_velocity_clamped_to_limits():
    params = make_params(v_min=-2.0, v_max=2.0)
    assert one_velocity((0, 0), (0, 0), (10, -10), (10, -10), 1.0, 1.0, 0.9,
                        params) == [2.0, -2.0]


def test_canonical_velocity_keeps_memory_term():
    params = make_params(canonical_velocity=True, v_min=-50.0, v_max=50.0)
    # pbest == gbest == x so only w * v(t) survives
    assert one_velocity((0, 0), (4, -4), (0, 0), (0, 0), 0.3, 0.3, 0.5,
                        params) == [2.0, -2.0]


def test_canonical_velocity_full_form():
    # w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), evaluated by hand:
    # x=(1,0), v=(2,0), pbest=(3,0), gbest=(5,0), c1=c2=2, r1=0.5, r2=0.25,
    # w=0.5 -> 0.5*2 + 2*0.5*2 + 2*0.25*4 = 1 + 2 + 2 = 5
    params = make_params(canonical_velocity=True, c1=2.0, c2=2.0,
                         v_min=-50.0, v_max=50.0)
    vx, vy = one_velocity((1, 0), (2, 0), (3, 0), (5, 0), 0.5, 0.25, 0.5, params)
    assert vx == pytest.approx(5.0, rel=1e-12)
    assert vy == 0.0


def test_step_fixed_point_at_optimum():
    engine = make_engine([[5, 5]], [[5, 5]], [0.0], target=Vec2(5, 5),
                         rng=np.random.default_rng(2))
    pso_step(engine)
    assert engine.positions() == [Vec2(5, 5)]
    assert engine.best_fit.tolist() == [0.0]


def test_step_returns_decayed_inertia():
    engine = make_engine([[5, 5]], [[5, 5]], [0.0], target=Vec2(5, 5),
                         rng=np.random.default_rng(3), inertia_w0=0.9,
                         inertia_decrement=0.99)
    assert pso_step(engine) == pytest.approx(0.891, rel=1e-12)


def test_step_monotone_bests_and_bounds():
    params = make_params(bounds=WorldBounds(0, 100, 0, 100))
    engine = PsoEngine(6, params, Objective(target=Vec2(50, 50)), sensing_radius=10.0,
                       rng=np.random.default_rng(4))
    prev_pbest = engine.best_fit.copy()
    for _ in range(60):
        engine.inertia = pso_step(engine)
        pbest = engine.best_fit
        assert (pbest <= prev_pbest).all()
        assert pbest.min() <= prev_pbest.min()
        assert all(params.bounds.contains(p) for p in engine.positions())
        assert ((params.v_min <= engine.vel) & (engine.vel <= params.v_max)).all()
        prev_pbest = pbest.copy()


def test_engine_inertia_sequence_is_geometric():
    params = PsoParams(bounds=WorldBounds())
    engine = PsoEngine(3, params, Objective(target=Vec2(50, 50)),
                       sensing_radius=10.0, rng=np.random.default_rng(5))
    for t in range(1, 101):
        engine.tick()
        assert engine.inertia == pytest.approx(
            params.inertia_w0 * params.inertia_decrement ** t, rel=1e-12)


def test_engine_trace_rows_have_no_decisions():
    engine = PsoEngine(4, PsoParams(bounds=WorldBounds()), Objective(),
                       sensing_radius=10.0, rng=np.random.default_rng(6))
    records = engine.tick()
    assert len(records) == 4
    for r in records:
        assert r.state is None and r.action is None and r.reward is None
        assert r.neighbor_count >= 0


def test_engine_tick_returns_columns_without_building_records(monkeypatch):
    import qswarm.metrics
    from qswarm.metrics import Trace

    def not_in_tick(self, *args, **kwargs):
        raise AssertionError("tick() must not build TickRecords")

    engine = PsoEngine(4, PsoParams(bounds=WorldBounds()), Objective(),
                       sensing_radius=10.0, rng=np.random.default_rng(7))
    with monkeypatch.context() as patch:
        patch.setattr(qswarm.metrics.TickRecord, "__init__", not_in_tick)
        rows = engine.tick()
    assert isinstance(rows, Trace) and rows.shape == (1, 4)
    assert rows.positions[0].tolist() == [[p.x, p.y] for p in engine.positions()]
    assert (rows.state == -1).all() and (rows.action == -1).all()
    assert np.isnan(rows.reward).all()


def test_engine_tick_builds_no_particles_or_vec2(monkeypatch):
    import qswarm.core
    import qswarm.pso

    def not_in_tick(self, *args, **kwargs):
        raise AssertionError("tick() must not build per-particle objects")

    engine = PsoEngine(5, PsoParams(bounds=WorldBounds()), Objective(),
                       sensing_radius=10.0, rng=np.random.default_rng(8))
    with monkeypatch.context() as patch:
        patch.setattr(qswarm.pso.PsoParticle, "__init__", not_in_tick)
        patch.setattr(qswarm.core.Vec2, "__init__", not_in_tick)
        for _ in range(3):
            engine.tick()
    assert engine.tick_index == 3


def test_engine_counts_a_swarm_inside_epsilon_without_measuring_distances(monkeypatch):
    import qswarm.core

    def not_measured(*args, **kwargs):
        raise AssertionError("a swarm inside epsilon needs no distance")

    monkeypatch.setattr(qswarm.core, "pairwise_distances", not_measured)
    # constriction 0 holds the swarm in place: a 3 x 3 box, diagonal below 10
    for m in (1, 2, 50):
        engine = PsoEngine(m, make_params(bounds=WorldBounds(0, 3, 0, 3), constriction=0.0),
                           Objective(), sensing_radius=10.0, rng=np.random.default_rng(m))
        assert engine.tick().neighbor_count[0].tolist() == [m - 1] * m


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(v_min=2.0, v_max=-2.0)
    with pytest.raises(ValueError):
        make_params(c1=-0.5)
    with pytest.raises(ValueError):
        make_params(inertia_w0=0.0)
    with pytest.raises(ValueError):
        make_params(inertia_decrement=1.5)


# --- the array rules against the scalar rules they replaced -------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=8),
       target=st.tuples(finite_floats, finite_floats))
def test_fitness_matches_the_scalar_distance_bit_for_bit(points, target):
    # subnormal and extreme coordinates included; where a square exceeds the
    # float range Python's ** raises and the array rule gives inf
    def scalar(x, y):
        try:
            return euclidean_distance(Vec2(x, y), Vec2(*target))
        except OverflowError:
            return math.inf

    expected = np.array([scalar(x, y) for x, y in points])
    with np.errstate(over="ignore"):
        got = Objective(target=Vec2(*target)).fitness(np.array(points, dtype=float))
    assert got.tobytes() == expected.tobytes()


@dataclass
class ScalarParticle:
    position: Vec2
    velocity: Vec2
    best_position: Vec2
    best_fitness: float


def scalar_init(m, params, objective, rng):
    b = params.bounds
    positions = [Vec2(b.x_min + (b.x_max - b.x_min) * rng.random(),
                      b.y_min + (b.y_max - b.y_min) * rng.random()) for _ in range(m)]
    velocities = [Vec2(params.v_min + (params.v_max - params.v_min) * rng.random(),
                       params.v_min + (params.v_max - params.v_min) * rng.random())
                  for _ in range(m)]
    return [ScalarParticle(x, v, x, euclidean_distance(x, objective.target))
            for x, v in zip(positions, velocities)]


def scalar_step(swarm, objective, w_t, params, rng):
    """One tick of the per-particle rules: Python floats, one particle at a time."""
    best = 0
    for i in range(1, len(swarm)):
        if swarm[i].best_fitness < swarm[best].best_fitness:
            best = i
    gbest = swarm[best].best_position
    b = params.bounds
    for p in swarm:
        r1 = rng.random()
        r2 = rng.random()
        dvx = params.c1 * r1 * (p.best_position.x - p.position.x) \
            + params.c2 * r2 * (gbest.x - p.position.x)
        dvy = params.c1 * r1 * (p.best_position.y - p.position.y) \
            + params.c2 * r2 * (gbest.y - p.position.y)
        if params.canonical_velocity:
            vx = params.constriction * (w_t * p.velocity.x + dvx)
            vy = params.constriction * (w_t * p.velocity.y + dvy)
        else:
            vx = params.constriction * w_t * dvx
            vy = params.constriction * w_t * dvy
        p.velocity = Vec2(min(max(vx, params.v_min), params.v_max),
                          min(max(vy, params.v_min), params.v_max))
        p.position = Vec2(min(max(p.position.x + p.velocity.x, b.x_min), b.x_max),
                          min(max(p.position.y + p.velocity.y, b.y_min), b.y_max))
        fitness = math.sqrt((p.position.x - objective.target.x) ** 2
                            + (p.position.y - objective.target.y) ** 2)
        if fitness < p.best_fitness:
            p.best_position = p.position
            p.best_fitness = fitness
    return w_t * params.inertia_decrement


zeros = st.sampled_from([0.0, -0.0])
widths = st.floats(0.5, 100.0)


@st.composite
def intervals(draw, low, high):
    """(lo, hi) with a signed-zero lower end, a signed-zero upper end, or neither."""
    kind = draw(st.sampled_from(["zero_lo", "zero_hi", "free"]))
    if kind == "zero_lo":
        return draw(zeros), draw(st.floats(0.5, high))
    if kind == "zero_hi":
        return draw(st.floats(low, -0.5)), draw(zeros)
    lo = draw(st.floats(low, high))
    return lo, lo + draw(widths)


@st.composite
def swarm_configs(draw):
    x_min, x_max = draw(intervals(-100.0, 100.0))
    y_min, y_max = draw(intervals(-100.0, 100.0))
    v_min, v_max = draw(intervals(-5.0, 5.0))
    bounds = WorldBounds(x_min, x_max, y_min, y_max)
    coefficients = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    params = PsoParams(
        c1=draw(coefficients), c2=draw(coefficients),
        inertia_w0=draw(st.floats(0.01, 1.0)),
        inertia_decrement=draw(st.floats(0.5, 1.0)),
        constriction=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        v_min=v_min, v_max=v_max,
        canonical_velocity=draw(st.booleans()), bounds=bounds)
    u = st.floats(0.0, 1.0)
    target = Vec2(x_min + bounds.width * draw(u), y_min + bounds.height * draw(u))
    return params, Objective(target=target)


def scalar_columns(swarm):
    return (np.array([p.position.as_tuple() for p in swarm], dtype=float),
            np.array([p.velocity.as_tuple() for p in swarm], dtype=float),
            np.array([p.best_position.as_tuple() for p in swarm], dtype=float),
            np.array([p.best_fitness for p in swarm], dtype=float))


@settings(max_examples=200, deadline=None)
@given(config=swarm_configs(), m=st.integers(1, 30), ticks=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
def test_array_engine_matches_the_scalar_rules_bit_for_bit(config, m, ticks, seed):
    params, objective = config
    engine = PsoEngine(m, params, objective, sensing_radius=10.0,
                       rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    swarm = scalar_init(m, params, objective, rng)
    w = params.inertia_w0
    for tick in range(ticks + 1):
        if tick:
            engine.tick()
            w = scalar_step(swarm, objective, w, params, rng)
        arrays = (engine.pos, engine.vel, engine.best_pos, engine.best_fit)
        for got, expected in zip(arrays, scalar_columns(swarm), strict=True):
            assert got.tobytes() == expected.tobytes()  # signed zeros count
        assert engine.inertia == w
        assert engine.rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("over, message", [
    ({"v_min": -10 ** 308, "v_max": 10 ** 308}, r"pso\.v_max - pso\.v_min must be finite"),
    ({"c1": 10 ** 308, "c2": 10 ** 308}, r"pso velocity may overflow"),
], ids=["velocity-span", "velocity-pull"])
def test_integer_params_whose_float_sums_overflow_are_refused(over, message):
    with pytest.raises(ValueError, match="^" + message):
        PsoParams(bounds=WorldBounds(), **over)
