"""Rollout engine, training loops, samplers: pairing, freezing, gradients."""
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from coopdiff import optimize, tape
from coopdiff.aggregation import aggregate, make_mask, scatter_adjoint
from coopdiff.control import ControlPolicy, make_policy
from coopdiff.costs import ClassifierNll, QuadraticWell, SocConfig, with_seam
from coopdiff.nn import Mlp
from coopdiff.optimize import (
    DivergedRolloutError,
    TrainingDivergedError,
    TrainPlan,
    bptt_rollout,
    controlwise_ido,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_poe_naive,
    sample_uncontrolled,
)
from coopdiff.scores import AnalyticGmmScore, GaussianMixture, MlpScore
from coopdiff.sde import NoiseSchedule, NoiseStream, derive_rng, make_time_grid
from guidance_replay import record_guidance, replay_guidance
import opgraphs as ops
from oracles import ZeroCost, sample_reverse_sde, soc_objective, taped_rollout
from rollout_history import recorded

SCHEDULE = NoiseSchedule()


def make_setup(num_agents=2, steps=12, lam=0.5, alpha=0.5,
               target=(1.0, -1.0), var=0.25):
    gmm = GaussianMixture(weights=[0.5, 0.5],
                          means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[var, var])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = (make_mask("identity", 1, 2) if num_agents == 1
           else make_mask("halves", 2, 2))
    cfg = SocConfig(control_weight=lam, running_scale=alpha)
    psi = QuadraticWell(np.asarray(target))
    grid = make_time_grid(steps, 1e-3)
    return score, agg, cfg, psi, grid


def make_policies(num_agents, seed=7, hidden=(8,), gain=(4,), c0=0.0):
    return [
        make_policy(2, i, derive_rng(seed, 100 + i), hidden=hidden,
                    gain_hidden=gain, guidance_gain_init=c0)
        for i in range(num_agents)
    ]


def test_zero_policy_rollout_is_zero_objective_and_uncontrolled():
    # zero-initialised policies, alpha = 0, psi = 0: J = 0 exactly and
    # the trajectories match the uncontrolled sampler bit for bit
    score, agg, _, _, grid = make_setup()
    cfg = SocConfig(control_weight=0.5, running_scale=0.0)
    psi = ZeroCost()
    policies = make_policies(2)
    noise = NoiseStream(3)
    with recorded(grid) as rec:
        J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                            noise, batch=4)
    assert J.value.item() == 0.0
    with recorded(grid) as un:
        sample_uncontrolled(score, agg, cfg, grid, psi, SCHEDULE, seed=3,
                            batch=4)
    assert len(rec.states) == len(un.states) == grid.steps
    for k in range(len(rec.states)):
        for i in range(2):
            assert np.array_equal(rec.states[k][i], un.states[k][i])


def test_cdps_zero_scale_matches_uncontrolled_bitwise():
    score, agg, cfg, psi, grid = make_setup()
    a = sample_cdps(score, agg, cfg, grid, psi, SCHEDULE, seed=5, batch=4,
                    alpha_guid=0.0)
    b = sample_uncontrolled(score, agg, cfg, grid, psi, SCHEDULE, seed=5,
                            batch=4)
    assert np.array_equal(a.terminal_y, b.terminal_y)


def test_control_energy_term_recomputable_from_record():
    score, agg, cfg, psi, grid = make_setup()
    policies = make_policies(2, c0=-0.5)
    with recorded(grid) as history:
        J, rec = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                              NoiseStream(11), batch=3)
    lambdas = cfg.lambda_weights(2)
    recomputed = sum(
        lambdas[i] * float((u * u).sum(axis=1).mean()) * history.dts[k]
        for k in range(len(history.controls))
        for i, u in enumerate(history.controls[k])
    )
    default_form = cfg.control_weight * rec.loss_u
    np.testing.assert_allclose(recomputed, default_form, rtol=1e-10)
    # and the fused objective decomposes into the three stored parts
    np.testing.assert_allclose(
        rec.objective,
        cfg.control_weight * rec.loss_u + cfg.running_scale * rec.loss_c
        + rec.loss_psi,
        rtol=1e-10,
    )


def test_soc_objective_matches_taped_rollout():
    score, agg, cfg, psi, grid = make_setup()
    policies = make_policies(2, c0=-0.4)
    with recorded(grid, psi) as history:
        J, _ = bptt_rollout(policies, score, agg, cfg, grid, history.psi,
                            SCHEDULE, NoiseStream(13), batch=5)
    np.testing.assert_allclose(
        soc_objective(history, cfg, psi), J.value.item(), rtol=1e-10
    )


def test_rollout_rejects_empty_batch():
    score, agg, cfg, psi, grid = make_setup()
    with pytest.raises(ValueError):
        bptt_rollout(make_policies(2), score, agg, cfg, grid, psi, SCHEDULE,
                     NoiseStream(0), batch=0)


def test_rollout_gradient_matches_finite_differences(monkeypatch):
    # single agent, identity mask, quadratic well, K = 5, d = 2, B = 1;
    # the guidance inputs are frozen at base-point values because stopgrad
    # makes them constants of the differentiated function
    score, _, _, _, _ = make_setup()
    agg = make_mask("identity", 1, 2)
    cfg = SocConfig(control_weight=0.5, running_scale=0.7)
    psi = QuadraticWell(np.array([1.0, -1.0]))
    grid = make_time_grid(5, 1e-3)
    policies = make_policies(1, hidden=(6,), gain=(4,), c0=-0.3)
    noise = NoiseStream(17)

    frozen = record_guidance(monkeypatch)
    J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                        noise, batch=1)
    tape.backward(J)
    params = policies[0].params()
    grads = [p.grad.copy() for p in params]
    replay_guidance(monkeypatch, frozen)

    def forward():
        Jv, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                             noise, batch=1)
        return Jv.value.item()

    h = 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for pi, p in enumerate(params):
        flat_idx = rng.choice(p.value.size, size=min(3, p.value.size),
                              replace=False)
        for idx in flat_idx:
            orig = p.value.copy()
            up = orig.copy()
            up.reshape(-1)[idx] += h
            p.value = up
            fp = forward()
            dn = orig.copy()
            dn.reshape(-1)[idx] -= h
            p.value = dn
            fm = forward()
            p.value = orig
            fd = (fp - fm) / (2 * h)
            an = grads[pi].reshape(-1)[idx]
            if max(abs(fd), abs(an)) < 1e-7:  # below FD cancellation noise
                continue
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    assert worst < 1e-3


def _base(a):
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


def vjp_arrays(nodes) -> dict:
    """The distinct arrays (by base, id -> base) that the VJP closures of
    ``nodes`` reference: through their cells and defaults, lists, tuples,
    dicts, nested functions and the values of nodes they hold (a fused
    MLP node's hidden activations, say, or a rollout node's step
    records: states, controls, psi gradients, the networks' caches and
    the scores' pullbacks)."""
    found, seen = {}, set()
    stack = [f for n in nodes for f in n.vjps]
    while stack:
        v = stack.pop()
        if isinstance(v, tape.Node):
            v = v.value
        if isinstance(v, np.ndarray):
            found[id(_base(v))] = _base(v)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, types.FunctionType) and id(v) not in seen:
            seen.add(id(v))
            stack.extend(c.cell_contents for c in v.__closure__ or ())
            stack.extend(v.__defaults__ or ())
    return found


def graph_nbytes(root) -> int:
    """Bytes of the distinct arrays ``root``'s graph holds: the node values
    and the arrays the VJP closures keep, each buffer counted once."""
    nodes = tape._toposort(root)
    held = vjp_arrays(nodes)
    held.update((id(_base(n.value)), _base(n.value)) for n in nodes)
    return sum(a.nbytes for a in held.values())


def test_rollout_memory_contract():
    # K = 500 steps, N = 3 agents, d = 256: the arrays a full
    # differentiable rollout's graph holds, node values and what the VJP
    # closures keep, stay far below 2 GB
    gmm = GaussianMixture(weights=[1.0], means=[np.zeros(256)], variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("h-stripes", 3, 256, image_hw=(16, 16))
    cfg = SocConfig(control_weight=1.0, running_scale=1.0)
    psi = QuadraticWell(np.zeros(256))
    grid = make_time_grid(500, 1e-3)
    policies = [
        make_policy(256, i, derive_rng(1, i), hidden=(32,), gain_hidden=(8,))
        for i in range(3)
    ]
    J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                        NoiseStream(2), batch=1)
    total = graph_nbytes(J)
    assert total < 2 * 1024 ** 3, f"rollout tape holds {total / 1e9:.2f} GB"
    # backward still runs on the full-length tape
    tape.backward(J)


def traced_bytes(fn, keep=False):
    """(bytes ``fn``'s result keeps allocated, peak bytes while it ran),
    both over the allocations alive before the call, by tracemalloc; with
    ``keep``, (the result, the bytes it keeps) instead."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if keep:
        return result, kept - before
    del result
    return kept - before, peak - before


@pytest.mark.parametrize("mode", ["joint", "controlwise"])
def test_training_holds_one_rollout_graph_at_a_time(mode, monkeypatch):
    # an update drops its graph after backward, so the next rollout builds
    # its own into the room that graph leaves: no rollout node is alive
    # when the next rollout starts, and the traced peak of a run (4 joint
    # or 8 control-wise updates) exceeds that of one update by less than
    # a quarter of a rollout's graph (a second graph alive would add a
    # whole one)
    dim = 64
    gmm = GaussianMixture(weights=[1.0], means=[np.zeros(dim)],
                          variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("h-stripes", 2, dim, image_hw=(8, 8))
    cfg = SocConfig(control_weight=1.0, running_scale=1.0)
    psi = QuadraticWell(np.zeros(dim))
    grid = make_time_grid(40, 1e-3)

    policies = [[make_policy(dim, i, derive_rng(3, i), hidden=(32,),
                             gain_hidden=(8,)) for i in range(2)]
                for _ in range(3)]
    graph, _ = traced_bytes(lambda: bptt_rollout(
        policies[0], score, agg, cfg, grid, psi, SCHEDULE, NoiseStream(4),
        batch=8))
    _, one = traced_bytes(lambda: joint_ido(
        TrainPlan(updates=1, batch=8, lr=1e-3), policies[1], score, agg,
        cfg, grid, psi, SCHEDULE, seed=4))
    sweeps = []
    real = optimize.bptt_rollout

    def tracked(*args, **kwargs):
        assert all(sweep() is None for sweep in sweeps)
        objective, record = real(*args, **kwargs)
        sweeps.append(weakref.ref(objective.vjps[0]))
        return objective, record

    monkeypatch.setattr(optimize, "bptt_rollout", tracked)
    plan = TrainPlan(updates=4, outer_iters=2, inner_steps=2,
                     batch=8, lr=1e-3)
    trainer = joint_ido if mode == "joint" else controlwise_ido
    _, peak = traced_bytes(lambda: trainer(
        plan, policies[2], score, agg, cfg, grid, psi, SCHEDULE, seed=4))
    assert len(sweeps) == (4 if mode == "joint" else 8)
    assert peak - one < 0.25 * graph, ((peak - one) / graph, graph)


def test_joint_ido_requires_learnable_parameters():
    score, agg, cfg, psi, grid = make_setup()
    plan = TrainPlan(updates=2, batch=2, lr=1e-3)
    with pytest.raises(ValueError):
        joint_ido(plan, [], score, agg, cfg, grid, psi, SCHEDULE, seed=0)


def test_curve_length_equals_updates():
    score, agg, cfg, psi, grid = make_setup(steps=6)
    plan = TrainPlan(updates=7, batch=2, lr=1e-3)
    res = joint_ido(plan, make_policies(2), score, agg, cfg, grid, psi,
                    SCHEDULE, seed=1)
    assert len(res.curve) == 7
    assert [c.update for c in res.curve] == list(range(7))


def test_plan_validation_and_counting():
    with pytest.raises(ValueError):
        TrainPlan(checkpoint_every=-1)
    with pytest.raises(ValueError):
        TrainPlan(inner_steps=0)
    with pytest.raises(ValueError):
        TrainPlan(lr=0.0)


def test_controlwise_freezes_inactive_agents():
    score, agg, cfg, psi, grid = make_setup(steps=6)
    policies = make_policies(2, c0=-0.2)
    plan = TrainPlan(outer_iters=2, inner_steps=3,
                     batch=2, lr=1e-2)
    snapshots = []

    def on_update(update, pols):
        snapshots.append((update,
                          [[p.value.copy() for p in pol.params()]
                           for pol in pols]))

    res = controlwise_ido(plan, policies, score, agg, cfg, grid, psi,
                          SCHEDULE, seed=2, on_update=on_update)
    # control-wise sweeps run outer_iters * N * inner_steps updates
    assert res.total_updates == len(res.curve) == 2 * 2 * 3
    # agent schedule: updates 0-2 train agent 0, 3-5 agent 1, 6-8 agent 0, ...
    m = plan.inner_steps
    for (u_prev, params_prev), (u_next, params_next) in zip(snapshots,
                                                            snapshots[1:]):
        active_next = (u_next // m) % 2
        for agent in range(2):
            same_block = (u_prev // m) % 2 == active_next
            if agent != active_next and same_block:
                for a, b in zip(params_prev[agent], params_next[agent]):
                    assert np.array_equal(a, b), (
                        f"inactive agent {agent} moved at update {u_next}"
                    )


def test_controlwise_single_agent_reduces_to_joint_updates():
    score, _, cfg, psi, grid = make_setup(steps=6)
    agg = make_mask("identity", 1, 2)

    joint_pols = make_policies(1, c0=-0.2)
    plan_j = TrainPlan(updates=6, batch=2, lr=1e-2)
    res_j = joint_ido(plan_j, joint_pols, score, agg, cfg, grid, psi,
                      SCHEDULE, seed=5)

    cw_pols = make_policies(1, c0=-0.2)
    plan_c = TrainPlan(outer_iters=2, inner_steps=3,
                       batch=2, lr=1e-2)
    res_c = controlwise_ido(plan_c, cw_pols, score, agg, cfg, grid, psi,
                            SCHEDULE, seed=5)
    # same update count, same noise keys, one coordinate: identical runs
    assert res_j.total_updates == res_c.total_updates == 6
    for p_j, p_c in zip(joint_pols[0].params(), cw_pols[0].params()):
        np.testing.assert_array_equal(p_j.value, p_c.value)
    np.testing.assert_allclose(
        [c.objective for c in res_j.curve],
        [c.objective for c in res_c.curve], rtol=1e-12,
    )


def test_joint_and_controlwise_share_noise_at_same_update():
    # the initial states of update n depend only on (seed, n)
    score, agg, cfg, psi, grid = make_setup(steps=6)
    with recorded(grid) as a:
        bptt_rollout(make_policies(2, seed=1, c0=-0.5), score, agg, cfg, grid,
                     psi, SCHEDULE, NoiseStream(9), batch=3, update_index=4)
    with recorded(grid) as b:
        bptt_rollout(make_policies(2, seed=2, c0=0.0), score, agg, cfg, grid,
                     psi, SCHEDULE, NoiseStream(9), batch=3, update_index=4)
    for i in range(2):
        assert np.array_equal(a.states[0][i], b.states[0][i])
    with recorded(grid) as c:
        bptt_rollout(make_policies(2, seed=1, c0=-0.5), score, agg, cfg, grid,
                     psi, SCHEDULE, NoiseStream(9), batch=3, update_index=5)
    assert not np.array_equal(a.states[0][0], c.states[0][0])


def test_divergence_error_names_the_step():
    score, agg, cfg, psi, grid = make_setup(steps=30)
    policies = make_policies(2, c0=1e8)  # ascend the cost, explosively
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedRolloutError) as err:
            bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                         NoiseStream(1), batch=2)
    assert err.value.step >= 0


def test_sampler_determinism_and_chunking():
    score, agg, cfg, psi, grid = make_setup(steps=8)
    a = sample_cdps(score, agg, cfg, grid, psi, SCHEDULE, seed=4, batch=6,
                    alpha_guid=2.0)
    b = sample_cdps(score, agg, cfg, grid, psi, SCHEDULE, seed=4, batch=6,
                    alpha_guid=2.0)
    np.testing.assert_array_equal(a.terminal_y, b.terminal_y)
    c = sample_cdps(score, agg, cfg, grid, psi, SCHEDULE, seed=4, batch=6,
                    alpha_guid=2.0, noise_index=1)
    assert not np.array_equal(a.terminal_y, c.terminal_y)


def test_poe_single_score_is_ordinary_sampling():
    gmm = GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    grid = make_time_grid(40, 1e-3)
    a = sample_poe_naive([score], grid, SCHEDULE, seed=6, batch=16, dim=2)
    b = sample_reverse_sde(score, grid, SCHEDULE, seed=6, batch=16, dim=2)
    np.testing.assert_array_equal(a, b)


def test_poe_two_standard_normals_relaxes_to_one_third_variance():
    # summed score -2x makes the reverse dynamics an OU process with
    # stationary variance 1 / (2 * 2 - 1); the true product density has
    # variance 1/2, which the naive sampler does NOT attain: this is the
    # bias the score-summing short-cut introduces
    gmm = GaussianMixture(weights=[1.0], means=[[0.0]], variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    grid = make_time_grid(300, 1e-3)
    x = sample_poe_naive([score, score], grid, SCHEDULE, seed=8,
                         batch=40_000, dim=1)
    var = x.var()
    assert abs(var - 1.0 / 3.0) < 0.015, var


@pytest.mark.parametrize("trainer, mode", [(joint_ido, "joint"),
                                           (controlwise_ido, "controlwise")],
                         ids=["joint", "controlwise"])
def test_second_divergence_aborts_with_the_partial_curve(trainer, mode):
    # every rollout diverges: update 0 is skipped and halves the learning
    # rate, update 1 aborts the run
    score, agg, cfg, psi, grid = make_setup(steps=30)
    plan = TrainPlan(updates=3, outer_iters=2, inner_steps=2,
                     batch=2, lr=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            trainer(plan, make_policies(2, c0=1e8), score, agg, cfg, grid,
                    psi, SCHEDULE, seed=1)
    assert str(err.value).startswith("update 1: ")
    assert err.value.curve == []


def fail_updates(monkeypatch, updates, how):
    """Make the trainers' rollouts fail at the given update indices: either
    the rollout diverges, or the objective gains a zero term whose gradient
    into the first policy weight is NaN."""
    real = optimize.bptt_rollout

    def failing(policies, *args, update_index=0, **kwargs):
        if update_index in updates and how == "rollout":
            raise DivergedRolloutError(step=0, agent=0)
        objective, rec = real(policies, *args, update_index=update_index,
                              **kwargs)
        if update_index in updates:
            # sqrt at 0: the VJP 0.5 / 0 is inf, times the zero scale NaN
            w = policies[0].params()[0]
            poison = ops.reduce_sum(ops.sqrt(ops.scale(w, 0.0)))
            objective = ops.add(objective, poison)
        return objective, rec

    monkeypatch.setattr(optimize, "bptt_rollout", failing)


@pytest.mark.parametrize("how", ["rollout", "gradient"])
def test_a_failed_update_is_skipped_and_halves_the_learning_rate(
        monkeypatch, how):
    score, agg, cfg, psi, grid = make_setup(steps=6)
    plan = TrainPlan(updates=4, batch=2, lr=1e-2)
    fail_updates(monkeypatch, {1}, how)
    lrs = []
    real_adam = optimize.adam_step
    monkeypatch.setattr(optimize, "adam_step", lambda params, grads, state:
                        lrs.append(state.lr) or real_adam(params, grads, state))
    with np.errstate(divide="ignore", invalid="ignore"):
        res = joint_ido(plan, make_policies(2, c0=-0.2), score, agg, cfg,
                        grid, psi, SCHEDULE, seed=3)
    assert [c.update for c in res.curve] == [0, 2, 3]
    assert res.total_updates == 3   # the updates applied, not planned
    assert lrs == [1e-2] * 2 + [5e-3] * 4   # two policies per update


def test_a_second_nonfinite_gradient_aborts_with_the_partial_curve(
        monkeypatch):
    score, agg, cfg, psi, grid = make_setup(steps=6)
    plan = TrainPlan(updates=5, batch=2, lr=1e-2)
    fail_updates(monkeypatch, {1, 3}, "gradient")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            joint_ido(plan, make_policies(2, c0=-0.2), score, agg, cfg,
                      grid, psi, SCHEDULE, seed=3)
    assert str(err.value) == ("update 3: non-finite policy gradient "
                              "(after halving the learning rate)")
    assert [row[0] for row in err.value.curve] == [0, 2]


def test_shuffled_sweeps_follow_the_derived_permutation():
    gmm = GaussianMixture(weights=[1.0], means=[[0.0, 0.0, 0.0]],
                          variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("halves", 3, 3)
    cfg = SocConfig(control_weight=0.5, running_scale=0.5)
    psi = QuadraticWell(np.array([1.0, -1.0, 0.5]))
    grid = make_time_grid(6, 1e-3)
    policies = [
        make_policy(3, i, derive_rng(7, 100 + i), hidden=(8,),
                    gain_hidden=(4,), guidance_gain_init=-0.2)
        for i in range(3)
    ]
    plan = TrainPlan(outer_iters=3, inner_steps=2,
                     batch=2, lr=1e-2, shuffle_agents=True)
    snapshot = [[p.value.copy() for p in pol.params()] for pol in policies]
    moved = []

    def on_update(update, pols):
        now = [[p.value.copy() for p in pol.params()] for pol in pols]
        moved.append([
            i for i in range(3)
            if any(not np.array_equal(a, b)
                   for a, b in zip(snapshot[i], now[i]))
        ])
        snapshot[:] = now

    controlwise_ido(plan, policies, score, agg, cfg, grid, psi, SCHEDULE,
                    seed=4, on_update=on_update)
    orders = [list(derive_rng(4, 9, outer).permutation(3))
              for outer in range(3)]
    assert orders != [[0, 1, 2]] * 3
    assert moved == [[i] for order in orders for i in order for _ in range(2)]


def test_only_the_learned_control_computes_tweedie_guidance(monkeypatch):
    score, agg, cfg, psi, grid = make_setup(steps=6)
    calls = []
    real = optimize.tweedie_guidance
    monkeypatch.setattr(optimize, "tweedie_guidance",
                        lambda *args: calls.append(args) or real(*args))
    sample_uncontrolled(score, agg, cfg, grid, psi, SCHEDULE, seed=2, batch=3)
    sample_cdps(score, agg, cfg, grid, psi, SCHEDULE, seed=2, batch=3,
                alpha_guid=2.0)
    assert calls == []
    sample_controlled(make_policies(2, c0=-0.5), score, agg, cfg, grid, psi,
                      SCHEDULE, seed=2, batch=3)
    assert len(calls) == grid.steps - 1


def test_rollout_calls_the_shared_score_model_once_per_step():
    # N = 3 agents on a K-step grid: one score call on all N*B rows per step
    gmm = GaussianMixture(weights=[1.0], means=[[0.0, 0.0, 0.0]],
                          variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    calls = []

    def counting_score(x, t):
        calls.append(x.value.shape)
        return score(x, t)

    agg = make_mask("halves", 3, 3)
    cfg = SocConfig(control_weight=0.5, running_scale=0.5)
    psi = QuadraticWell(np.array([1.0, -1.0, 0.5]))
    steps = 7
    grid = make_time_grid(steps + 1, 1e-3)
    policies = [
        make_policy(3, i, derive_rng(7, 100 + i), hidden=(8,),
                    gain_hidden=(4,), guidance_gain_init=-0.2)
        for i in range(3)
    ]
    bptt_rollout(policies, counting_score, agg, cfg, grid, psi, SCHEDULE,
                 NoiseStream(1), batch=4)
    assert calls == [(3 * 4, 3)] * steps


def test_stacked_aggregate_matches_the_per_agent_mask_sum():
    rng = derive_rng(5, 0)
    agg = make_mask("h-stripes", 3, 64, image_hw=(8, 8))
    xs = rng.standard_normal((3, 4, 64))
    weights = rng.standard_normal((4, 64))
    # the per-agent form: Y = sum_i X_i * mask_i, dX_i = dY * mask_i
    expected = xs[0] * agg.masks[0]
    for i in range(1, 3):
        expected = expected + xs[i] * agg.masks[i]
    np.testing.assert_array_equal(aggregate(agg, xs), expected)
    adjoint = scatter_adjoint(agg, weights)
    for i in range(3):
        np.testing.assert_array_equal(adjoint[i], weights * agg.masks[i])


def test_recorded_rollout_evaluates_psi_once_per_step_and_at_the_end():
    # the guidance pass yields psi(Y0_hat) for the running cost as well, and
    # the baseline's state-gradient pass yields the scores too, so every
    # K-step rollout calls the score model K times and psi K + 1 times
    score, agg, cfg, psi, grid = make_setup(steps=6)
    steps = grid.steps - 1
    shapes, score_rows = [], []

    def counting_psi(y):
        shapes.append(y.value.shape)
        return psi(y)

    def counting_score(x, t):
        score_rows.append(x.value.shape[0])
        return score(x, t)

    policies = make_policies(2, c0=-0.5)
    J, _ = bptt_rollout(policies, counting_score, agg, cfg, grid,
                        counting_psi, SCHEDULE, NoiseStream(2), batch=3)
    tape.backward(J)
    assert shapes == [(3, 2)] * (steps + 1)
    assert score_rows == [2 * 3] * steps
    samplers = (
        lambda: sample_controlled(policies, counting_score, agg, cfg, grid,
                                  counting_psi, SCHEDULE, seed=2, batch=3),
        lambda: sample_cdps(counting_score, agg, cfg, grid, counting_psi,
                            SCHEDULE, seed=2, batch=3, alpha_guid=1.0),
    )
    for sample in samplers:
        shapes.clear()
        score_rows.clear()
        sample()
        assert shapes == [(3, 2)] * (steps + 1)
        assert score_rows == [2 * 3] * steps


def sweep_setups():
    """(name, rollout arguments, the extra leaves to compare): the 2-D
    mixture task; shapes16 widths with the classifier NLL and the seam
    loss; a trained score network, whose weights get gradients too."""
    score, agg, cfg, psi, grid = make_setup(steps=8)
    policies = make_policies(2, c0=-0.4)
    for p in (p for policy in policies for p in policy.params()):
        p.value = p.value + 0.1 * derive_rng(6, 0).standard_normal(
            p.value.shape)
    yield "gmm2d", (policies, score, agg, cfg, grid, psi), []
    args = shapes16_sized_args(steps=6, batch=4)
    yield "shapes16", args, []
    net = MlpScore(2, (16,), 8, derive_rng(101, 20), schedule=SCHEDULE)
    yield ("trained-score", (make_policies(2, c0=-0.5), net, agg, cfg,
                             make_time_grid(5, 1e-2), psi), net.params())


@pytest.mark.parametrize("name", ["gmm2d", "shapes16", "trained-score"])
def test_the_reverse_sweep_matches_the_taped_reference(name):
    # the rollout's one-node objective and its sweep against the same
    # rollout built on the generic tape, one node per piece: the objective
    # is bit-equal, and every gradient (the running cost's adjoint into
    # Y0_hat and the score model's included) agrees to summation order
    _, args, extra = next(s for s in sweep_setups() if s[0] == name)
    policies, batch = args[0], 3
    leaves = [p for policy in policies for p in policy.params()] + extra
    J, _ = bptt_rollout(*args, SCHEDULE, NoiseStream(5), batch=batch)
    assert sorted(map(id, J.parents)) == sorted(map(id, leaves))
    tape.backward(J)
    got = [p.grad for p in leaves]
    ref = taped_rollout(*args, SCHEDULE, NoiseStream(5), batch)
    assert J.value == ref.value
    tape.backward(ref)
    for g, p in zip(got, leaves):
        scale = np.abs(p.grad).max()
        assert np.abs(g - p.grad).max() <= 1e-14 * scale, p.name


def test_a_rollout_node_has_the_trained_leaves_as_parents():
    # frozen policy weights get no adjoint and are no parent; without a
    # trained leaf, or under no_grad, the objective is a constant
    score, agg, cfg, psi, grid = make_setup(steps=5)
    policies = make_policies(2, c0=-0.4)
    tape.freeze(policies[1].nn2.params())
    J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                        NoiseStream(1), batch=2)
    assert J.parents == tuple(policies[0].params() + policies[1].nn1.params())
    tape.backward(J)
    assert all(p.grad is None for p in policies[1].nn2.params())
    with tape.no_grad():
        J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                            NoiseStream(1), batch=2)
    assert J.is_leaf and not J.requires_grad


def test_a_rollout_node_sweeps_once_and_frees_its_records():
    # the sweep frees each step's record once it has passed it, so the
    # graph holds only the leaves afterwards, and a second backward raises
    # instead of returning a partial gradient
    J, policies = shapes16_sized_rollout(8)
    leaves = sum(p.value.nbytes for policy in policies
                 for p in policy.params())
    assert graph_nbytes(J) > 2 * leaves
    tape.backward(J)
    assert graph_nbytes(J) < leaves + 4 * 2 * 16 * 256 * 8
    with pytest.raises(RuntimeError, match="runs once"):
        tape.backward(J)


def test_an_update_makes_one_backward_and_no_psi_subtape(monkeypatch):
    # K = 80 grid points: per update one top-level backward (the rollout
    # node's sweep), 79 score calls and 80 psi calls (79 at the Tweedie
    # estimates, one terminal), and the psi gradients come from the cost
    # node's own VJP, with no backward of their own
    score, agg, cfg, psi, grid = make_setup(steps=80)
    calls = {"backward": 0, "score": 0, "psi": 0}
    real_backward = tape.backward

    def counting_backward(root):
        calls["backward"] += 1
        return real_backward(root)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(tape, "backward", counting_backward)
    joint_ido(TrainPlan(updates=2, batch=2, lr=1e-3), make_policies(2),
              counting("score", score), agg, cfg, grid,
              counting("psi", psi), SCHEDULE, seed=1)
    assert calls == {"backward": 2, "score": 2 * 79, "psi": 2 * 80}


def test_a_rollout_step_records_at_most_25_tape_nodes():
    # N = 2 agents on 16x16 h-stripes (d = 256) with random frozen score
    # and classifier nets and the seam loss on: the steps record no tape
    # node at all, so the graph is the rollout node and its leaves at any K
    dim = 256
    agg = make_mask("h-stripes", 2, dim, image_hw=(16, 16))
    cfg = SocConfig(control_weight=1e-3, running_scale=1.0,
                    seam_beta=0.05, seam_gamma=0.05)
    score = MlpScore(dim, (32,), 16, derive_rng(8, 0), schedule=SCHEDULE)
    clf = Mlp([dim, 16, 4], derive_rng(8, 1))
    tape.freeze(score.params() + clf.params())
    psi = with_seam(ClassifierNll(clf, 1), agg, cfg)
    policies = [make_policy(dim, i, derive_rng(8, 2 + i), hidden=(16,),
                            gain_hidden=(8,), guidance_gain_init=-1.0)
                for i in range(2)]

    def nodes(steps):
        J, _ = bptt_rollout(policies, score, agg, cfg,
                            make_time_grid(steps, 0.02), psi, SCHEDULE,
                            NoiseStream(1), batch=4)
        return len(tape._toposort(J))

    per_step = (nodes(9) - nodes(5)) / 4
    assert per_step == 0, per_step
    assert nodes(9) == 1 + sum(len(p.params()) for p in policies)


def shapes16_sized_args(steps, batch=16):
    """``bptt_rollout`` arguments at shapes16's sizes (N = 2, 16x16
    h-stripes, the criterion-5 network widths and seam loss) on random
    frozen score and classifier nets, with the policies' weights moved off
    their zero final layer, up to the noise and the batch."""
    dim = 256
    agg = make_mask("h-stripes", 2, dim, image_hw=(16, 16))
    cfg = SocConfig(control_weight=1e-5, running_scale=1.0,
                    seam_beta=0.05, seam_gamma=0.05)
    score = MlpScore(dim, (192, 192), 16, derive_rng(5, 1), schedule=SCHEDULE)
    clf = Mlp([dim, 64, 4], derive_rng(5, 2))
    tape.freeze(score.params() + clf.params())
    psi = with_seam(ClassifierNll(clf, 1), agg, cfg)
    policies = [make_policy(dim, i, derive_rng(5, 10 + i), hidden=(128, 128),
                            gain_hidden=(32,), guidance_gain_init=-100.0)
                for i in range(2)]
    rng = derive_rng(5, 20)
    for p in (p for policy in policies for p in policy.params()):
        p.value = p.value + 0.05 * rng.standard_normal(p.value.shape)
    return policies, score, agg, cfg, make_time_grid(steps, 0.02), psi


def shapes16_sized_rollout(steps):
    """A B = 16 ``bptt_rollout`` on ``shapes16_sized_args``; returns the
    objective and the policies."""
    args = shapes16_sized_args(steps)
    J, _ = bptt_rollout(*args, SCHEDULE, NoiseStream(1), batch=16)
    return J, args[0]


def test_a_k80_training_rollout_holds_at_most_26_mb():
    # what the step records of a K = 80 shapes16-sized rollout hold,
    # counted by walking the rollout node's VJP, is what building the
    # rollout left allocated (tracemalloc), up to the record it returns and
    # the Python objects around the arrays; and it is at most 26 MB
    args = shapes16_sized_args(80)
    (J, _), kept = traced_bytes(lambda: bptt_rollout(
        *args, SCHEDULE, NoiseStream(1), batch=16), keep=True)
    weights = [p for policy in args[0] for p in policy.params()]
    older = {id(_base(p.value)) for p in weights + args[1].params()}
    counted = sum(a.nbytes for i, a in vjp_arrays([J]).items()
                  if i not in older)
    assert 0.95 * kept < counted <= kept, (counted, kept)
    total = graph_nbytes(J)
    assert total <= 26e6, total


class _Stop(Exception):
    pass


@pytest.mark.parametrize("mode", ["joint", "controlwise"])
def test_the_sweep_rebuilds_each_steps_controls_bit_for_bit(mode,
                                                            monkeypatch):
    # the step records keep no controls: for the control energy's adjoint
    # the sweep rebuilds U_k from the policies' caches, and that is the
    # forward's U_k exactly, at every step and for every agent. Both
    # networks' final layers are off zero, so the drift and the gain both
    # enter. The control-wise update steps agent 0 with agent 1 frozen.
    policies, score, agg, cfg, grid, psi = shapes16_sized_args(6)
    for policy in policies:
        assert np.all(policy.nn1.weights[-1].value != 0)
        assert np.all(policy.nn2.weights[-1].value != 0)
    rebuilt = {}
    real = ControlPolicy.control

    def recording(self, cache, x, y, guidance, t):
        u = real(self, cache, x, y, guidance, t)
        rebuilt[(t, self.agent_index)] = u.copy()
        return u

    def stop(update, pols):
        raise _Stop

    monkeypatch.setattr(ControlPolicy, "control", recording)
    trainer = joint_ido
    if mode == "controlwise":
        trainer = controlwise_ido
        tape.freeze(policies[1].params())
    plan = TrainPlan(updates=1, outer_iters=1, inner_steps=1, batch=16,
                     lr=1e-3)
    with recorded(grid) as history, pytest.raises(_Stop):
        trainer(plan, policies, score, agg, cfg, grid, psi, SCHEDULE,
                seed=1, on_update=stop)
    steps = len(history.controls)
    assert steps == grid.times.size - 1
    assert len(rebuilt) == steps * len(policies)
    for k in range(steps):
        for i in range(len(policies)):
            u = rebuilt[(float(grid.times[k]), i)]
            assert np.array_equal(u, history.controls[k][i]), (k, i)


@pytest.mark.parametrize("sampler, units", [
    ("uncontrolled", 9.0), ("controlled", 10.5), ("cdps", 12.0)])
def test_a_sampling_chunk_peaks_at_one_steps_arrays(sampler, units,
                                                    monkeypatch):
    # one chunk at N = 4 agents, B = 64, d = 256 with shapes16's network
    # widths: its traced peak, in units of one (N, B, d) array, is what one
    # step needs. A step holds X, the scores, the controls, the noise, the
    # drift and the EM step's temporaries (8 units); the learned control
    # adds the policies' activations, and cdps peaks in the state
    # gradient's pass back through the score net. A step whose arrays
    # are still alive while the next one allocates, or an initial draw
    # held for the whole rollout, reads about 9.5, 11.5 and 18 units. No
    # sampler calls backward.
    n, batch, dim = 4, 64, 256
    agg = make_mask("h-stripes", n, dim, image_hw=(16, 16))
    cfg = SocConfig(control_weight=1e-5, running_scale=1.0,
                    seam_beta=0.05, seam_gamma=0.05)
    score = MlpScore(dim, (192, 192), 16, derive_rng(9, 1), schedule=SCHEDULE)
    clf = Mlp([dim, 64, 4], derive_rng(9, 2))
    tape.freeze(score.params() + clf.params())
    psi = with_seam(ClassifierNll(clf, 1), agg, cfg)
    policies = [make_policy(dim, i, derive_rng(9, 10 + i), hidden=(128, 128),
                            gain_hidden=(32,), guidance_gain_init=-100.0)
                for i in range(n)]
    args = (agg, cfg, make_time_grid(6, 0.02), psi, SCHEDULE, 1, batch)
    run = {"uncontrolled": lambda: sample_uncontrolled(score, *args),
           "controlled": lambda: sample_controlled(policies, score, *args),
           "cdps": lambda: sample_cdps(score, *args)}[sampler]
    monkeypatch.setattr(tape, "backward", None)      # a call would raise
    _, peak = traced_bytes(run)
    assert peak <= units * n * batch * dim * 8, peak / (n * batch * dim * 8)


def unread_bytes(root) -> int:
    """Bytes of the distinct arrays that the nodes of ``root``'s graph
    (the root aside) hold as values and that no VJP closure references."""
    nodes = tape._toposort(root)
    read = vjp_arrays(nodes)
    held = {id(_base(n.value)): _base(n.value).nbytes
            for n in nodes if n is not root}
    return sum(b for i, b in held.items() if i not in read)


def test_a_rollout_graph_holds_only_values_its_vjps_read():
    # what the rollout node's VJP does not read is the biases (the sweep
    # reads the weights it ran with from the networks' caches): the same
    # at K = 80 as after one step
    unread = unread_bytes(shapes16_sized_rollout(80)[0])
    assert unread == unread_bytes(shapes16_sized_rollout(2)[0])
    assert unread < 4 * 2 * 16 * 256 * 8, unread
