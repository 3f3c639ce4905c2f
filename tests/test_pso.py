import numpy as np
import pytest

from qswarm.core import Vec2, WorldBounds
from qswarm.pso import (Objective, PsoEngine, PsoParams, PsoParticle,
                        pso_init, pso_step, select_global_best,
                        update_personal_best, velocity_update)


class FakeRng:
    """Deterministic stand-in feeding prescribed uniform draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def make_params(**over):
    defaults = dict(bounds=WorldBounds(0, 10, 0, 10))
    defaults.update(over)
    return PsoParams(**defaults)


def test_init_components_follow_range_formula():
    # u=0.5 maps to the middle of [x_min, x_max]
    params = make_params(v_min=-1.0, v_max=1.0)
    rng = FakeRng([0.5, 0.5, 0.0, 1.0])
    swarm = pso_init(1, params, Objective(target=Vec2(0, 0)), rng)
    p = swarm[0]
    assert p.position == Vec2(5.0, 5.0)
    assert p.velocity == Vec2(-1.0, 1.0)


def test_init_velocity_at_lower_limit():
    params = make_params(v_min=-1.0, v_max=1.0)
    rng = FakeRng([0.2, 0.8, 0.0, 0.0])
    swarm = pso_init(1, params, Objective(target=Vec2(0, 0)), rng)
    assert swarm[0].velocity == Vec2(-1.0, -1.0)


def test_init_personal_best_is_initial_position():
    params = make_params()
    rng = np.random.default_rng(0)
    obj = Objective(target=Vec2(5, 5))
    for p in pso_init(4, params, obj, rng):
        assert p.best_position == p.position
        assert p.best_fitness == obj.evaluate(p.position)


def test_init_rejects_empty_swarm():
    with pytest.raises(ValueError):
        pso_init(0, make_params(), Objective(), np.random.default_rng(0))


def test_fitness_examples():
    obj = Objective(target=Vec2(0, 0))
    assert obj.evaluate(Vec2(0, 0)) == 0.0
    assert obj.evaluate(Vec2(3, 4)) == 5.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert obj.evaluate(Vec2(*rng.uniform(-50, 50, 2))) >= 0.0


def test_personal_best_update_rules():
    obj = Objective(target=Vec2(0, 0))
    # strict improvement replaces
    p = PsoParticle(Vec2(0, 2), Vec2(0, 0), Vec2(0, 3), 3.0)
    update_personal_best(p, obj)
    assert (p.best_position, p.best_fitness) == (Vec2(0, 2), 2.0)
    # tie does not replace
    p = PsoParticle(Vec2(3, 0), Vec2(0, 0), Vec2(0, 3), 3.0)
    update_personal_best(p, obj)
    assert p.best_position == Vec2(0, 3)
    # worse does not replace
    p = PsoParticle(Vec2(0, 4), Vec2(0, 0), Vec2(0, 3), 3.0)
    update_personal_best(p, obj)
    assert p.best_position == Vec2(0, 3)


def make_swarm(fitnesses):
    return [PsoParticle(Vec2(i, 0), Vec2(0, 0), Vec2(i, 0), f)
            for i, f in enumerate(fitnesses)]


def test_select_global_best():
    assert select_global_best(make_swarm([3.2, 1.1, 5.0]))[0] == 1
    assert select_global_best(make_swarm([2.0, 2.0]))[0] == 0
    assert select_global_best(make_swarm([4.2]))[0] == 0
    with pytest.raises(ValueError):
        select_global_best([])


def test_velocity_update_hand_value():
    # x=(0,0), pbest=(1,0), gbest=(2,0), c1=c2=2, r1=r2=0.5, w=0.9:
    # dv = 2*0.5*1 + 2*0.5*2 = 3, v = 0.9*3 = 2.7
    params = make_params(c1=2.0, c2=2.0, v_min=-10.0, v_max=10.0)
    p = PsoParticle(Vec2(0, 0), Vec2(0, 0), Vec2(1, 0), 1.0)
    v = velocity_update(p, Vec2(2, 0), 0.9, params, FakeRng([0.5, 0.5]))
    assert v.x == pytest.approx(2.7, rel=1e-12)
    assert v.y == 0.0


def test_velocity_zero_at_consensus():
    params = make_params()
    p = PsoParticle(Vec2(3, 3), Vec2(1, 1), Vec2(3, 3), 0.0)
    v = velocity_update(p, Vec2(3, 3), 0.9, params, FakeRng([0.7, 0.2]))
    assert v == Vec2(0.0, 0.0)


def test_velocity_zero_constriction_annihilates_motion():
    params = make_params(constriction=0.0)
    p = PsoParticle(Vec2(0, 0), Vec2(1, 1), Vec2(5, 5), 1.0)
    v = velocity_update(p, Vec2(9, 9), 0.9, params, FakeRng([1.0, 1.0]))
    assert v == Vec2(0.0, 0.0)


def test_velocity_clamped_to_limits():
    params = make_params(v_min=-2.0, v_max=2.0)
    p = PsoParticle(Vec2(0, 0), Vec2(0, 0), Vec2(10, -10), 1.0)
    v = velocity_update(p, Vec2(10, -10), 0.9, params, FakeRng([1.0, 1.0]))
    assert v == Vec2(2.0, -2.0)


def test_canonical_velocity_keeps_memory_term():
    params = make_params(canonical_velocity=True, v_min=-50.0, v_max=50.0)
    p = PsoParticle(Vec2(0, 0), Vec2(4, -4), Vec2(0, 0), 0.0)
    # pbest == gbest == x so only w * v(t) survives
    v = velocity_update(p, Vec2(0, 0), 0.5, params, FakeRng([0.3, 0.3]))
    assert v == Vec2(2.0, -2.0)


def test_canonical_velocity_full_form():
    # w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x), evaluated by hand:
    # x=(1,0), v=(2,0), pbest=(3,0), gbest=(5,0), c1=c2=2, r1=0.5, r2=0.25,
    # w=0.5 -> 0.5*2 + 2*0.5*2 + 2*0.25*4 = 1 + 2 + 2 = 5
    params = make_params(canonical_velocity=True, c1=2.0, c2=2.0,
                         v_min=-50.0, v_max=50.0)
    p = PsoParticle(Vec2(1, 0), Vec2(2, 0), Vec2(3, 0), 2.0)
    v = velocity_update(p, Vec2(5, 0), 0.5, params, FakeRng([0.5, 0.25]))
    assert v.x == pytest.approx(5.0, rel=1e-12)
    assert v.y == 0.0


def test_step_fixed_point_at_optimum():
    params = make_params()
    obj = Objective(target=Vec2(5, 5))
    swarm = [PsoParticle(Vec2(5, 5), Vec2(0, 0), Vec2(5, 5), 0.0)]
    pso_step(swarm, obj, 0.9, params, np.random.default_rng(2))
    assert swarm[0].position == Vec2(5, 5)
    assert swarm[0].best_fitness == 0.0


def test_step_returns_decayed_inertia():
    params = make_params(inertia_w0=0.9, inertia_decrement=0.99)
    swarm = [PsoParticle(Vec2(5, 5), Vec2(0, 0), Vec2(5, 5), 0.0)]
    w1 = pso_step(swarm, Objective(target=Vec2(5, 5)), 0.9, params,
                  np.random.default_rng(3))
    assert w1 == pytest.approx(0.891, rel=1e-12)


def test_step_monotone_bests_and_bounds():
    params = make_params(bounds=WorldBounds(0, 100, 0, 100))
    obj = Objective(target=Vec2(50, 50))
    rng = np.random.default_rng(4)
    swarm = pso_init(6, params, obj, rng)
    w = params.inertia_w0
    prev_pbest = [p.best_fitness for p in swarm]
    prev_gbest = min(prev_pbest)
    for _ in range(60):
        w = pso_step(swarm, obj, w, params, rng)
        pbest = [p.best_fitness for p in swarm]
        gbest = min(pbest)
        assert all(now <= before for now, before in zip(pbest, prev_pbest))
        assert gbest <= prev_gbest
        assert select_global_best(swarm)[0] == int(np.argmin(pbest))
        for p in swarm:
            assert params.bounds.contains(p.position)
            assert params.v_min <= p.velocity.x <= params.v_max
            assert params.v_min <= p.velocity.y <= params.v_max
        prev_pbest, prev_gbest = pbest, gbest


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


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(v_min=2.0, v_max=-2.0)
    with pytest.raises(ValueError):
        make_params(c1=-0.5)
    with pytest.raises(ValueError):
        make_params(inertia_w0=0.0)
    with pytest.raises(ValueError):
        make_params(inertia_decrement=1.5)
