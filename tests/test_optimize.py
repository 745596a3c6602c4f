"""Rollout engine, training loops, samplers: pairing, freezing, gradients."""
import collections
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
    ZeroControls,
    bptt_rollout,
    controlwise_ido,
    coupled_rollout,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_poe_naive,
    sample_uncontrolled,
)
from coopdiff.scores import (AnalyticGmmScore, GaussianMixture, MlpScore,
                             summed_score)
from coopdiff.sde import NoiseSchedule, NoiseStream, derive_rng, make_time_grid
from guidance_replay import record_guidance, replay_guidance
import opgraphs as ops
from oracles import (
    LinearFeedback,
    PerAgentControls,
    ZeroCost,
    lq_costs,
    reverse_sde_reference,
    soc_objective,
    taped_rollout,
)
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
    recomputed = sum(
        cfg.control_weight / 2 * float((u * u).sum(axis=1).mean())
        * history.dts[k]
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
    nodes = ops._toposort(root)
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


@pytest.mark.parametrize("trainer", [joint_ido, controlwise_ido])
def test_a_trainer_of_frozen_policies_raises(trainer):
    score, agg, cfg, psi, grid = make_setup(steps=4)
    policies = make_policies(2, c0=-0.3)
    tape.freeze([p for policy in policies for p in policy.params()])
    plan = TrainPlan(updates=2, outer_iters=1, inner_steps=1, batch=2)
    with pytest.raises(ValueError, match="no learnable parameters"):
        trainer(plan, policies, score, agg, cfg, grid, psi, SCHEDULE, seed=0)


@pytest.mark.parametrize("trainer", [joint_ido, controlwise_ido])
def test_a_trainer_steps_only_the_leaves_that_require_grad(trainer):
    # agent 1's NN2 frozen: every other leaf moves, the frozen ones keep
    # their bytes
    score, agg, cfg, psi, grid = make_setup(steps=6)
    policies = make_policies(2, c0=-0.3)
    frozen = policies[1].nn2.params()
    tape.freeze(frozen)
    leaves = [p for policy in policies for p in policy.params()]
    before = [p.value.copy() for p in leaves]
    plan = TrainPlan(updates=4, outer_iters=1, inner_steps=2, batch=2,
                     lr=1e-2)
    curve = trainer(plan, policies, score, agg, cfg, grid, psi, SCHEDULE,
                    seed=3)
    assert len(curve) == 4
    for p, b in zip(leaves, before):
        moved = not np.array_equal(p.value, b)
        assert moved == all(p is not f for f in frozen), p.name


def test_training_writes_the_stacked_weights_in_place(monkeypatch):
    # the first rollout copies each of a policy's 8 tensors into one
    # (2, ...) stack; no later joint or control-wise update copies one
    # again, and every leaf stays a view of its row
    score, agg, cfg, psi, grid = make_setup(steps=6)
    policies = make_policies(2, c0=-0.3)
    leaves = [p for policy in policies for p in policy.params()]
    start = [p.value.copy() for p in leaves]
    copies = []
    real_stack = np.stack

    def counting_stack(arrays, *args, **kwargs):
        copies.append(real_stack(arrays, *args, **kwargs))
        return copies[-1]

    bases = []

    def on_update(n, pols):
        bases.append([p.value.base for p in leaves])

    monkeypatch.setattr(np, "stack", counting_stack)
    joint_ido(TrainPlan(updates=3, batch=2, lr=1e-2), policies, score, agg,
              cfg, grid, psi, SCHEDULE, seed=1, on_update=on_update)
    controlwise_ido(TrainPlan(outer_iters=1, inner_steps=2, batch=2,
                              lr=1e-2), policies, score, agg, cfg, grid,
                    psi, SCHEDULE, seed=2, on_update=on_update)
    tensors = len(policies[0].params())
    assert tensors == 8 and len(copies) == tensors
    assert len(bases) == 3 + 4
    for j, p in enumerate(leaves):
        stack = copies[j % tensors]
        assert all(b[j] is stack for b in bases), p.name
        assert p.value.base is stack
        assert np.shares_memory(p.value, stack[j // tensors])
        assert not np.array_equal(p.value, start[j]), p.name


def test_curve_length_equals_updates():
    score, agg, cfg, psi, grid = make_setup(steps=6)
    plan = TrainPlan(updates=7, batch=2, lr=1e-3)
    curve = joint_ido(plan, make_policies(2), score, agg, cfg, grid, psi,
                      SCHEDULE, seed=1)
    assert len(curve) == 7
    assert [c.update for c in curve] == list(range(7))


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

    curve = controlwise_ido(plan, policies, score, agg, cfg, grid, psi,
                            SCHEDULE, seed=2, on_update=on_update)
    # control-wise sweeps run outer_iters * N * inner_steps updates
    assert len(curve) == 2 * 2 * 3
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
    curve_j = joint_ido(plan_j, joint_pols, score, agg, cfg, grid, psi,
                        SCHEDULE, seed=5)

    cw_pols = make_policies(1, c0=-0.2)
    plan_c = TrainPlan(outer_iters=2, inner_steps=3,
                       batch=2, lr=1e-2)
    curve_c = controlwise_ido(plan_c, cw_pols, score, agg, cfg, grid,
                              psi, SCHEDULE, seed=5)
    # same update count, same noise keys, one coordinate: identical runs
    assert len(curve_j) == len(curve_c) == 6
    for p_j, p_c in zip(joint_pols[0].params(), cw_pols[0].params()):
        np.testing.assert_array_equal(p_j.value, p_c.value)
    np.testing.assert_allclose(
        [c.objective for c in curve_j],
        [c.objective for c in curve_c], rtol=1e-12,
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
    # against a step loop that calls neither sample_poe_naive nor
    # coupled_rollout, bit for bit
    grid = make_time_grid(40, 1e-3)
    for gmm in (
        GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0]),
        GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                        variances=[0.25, 0.25]),
    ):
        score = AnalyticGmmScore(gmm, SCHEDULE)
        a = sample_poe_naive([score], 2, SocConfig(), grid, ZeroCost(),
                             SCHEDULE, seed=6, batch=16).terminal_y
        b = reverse_sde_reference(score, grid, SCHEDULE, seed=6, batch=16,
                                  dim=2)
        np.testing.assert_array_equal(a, b)


def test_poe_two_standard_normals_relaxes_to_one_third_variance():
    # summed score -2x makes the reverse dynamics an OU process with
    # stationary variance 1 / (2 * 2 - 1); the true product density has
    # variance 1/2, which the naive sampler does NOT attain: this is the
    # bias the score-summing short-cut introduces
    gmm = GaussianMixture(weights=[1.0], means=[[0.0]], variances=[1.0])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    grid = make_time_grid(300, 1e-3)
    x = sample_poe_naive([score, score], 1, SocConfig(), grid, ZeroCost(),
                         SCHEDULE, seed=8, batch=40_000).terminal_y
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
    the rollout diverges, or the objective's sweep gives the first policy
    weight a NaN gradient."""
    real = optimize.bptt_rollout

    def failing(policies, *args, update_index=0, **kwargs):
        if update_index in updates and how == "rollout":
            raise DivergedRolloutError(step=0, agent=0)
        objective, rec = real(policies, *args, update_index=update_index,
                              **kwargs)
        if update_index in updates:
            sweep = objective.vjps[0]

            def poisoned(g):
                grads = list(sweep(g))
                grads[0] = grads[0] * np.nan
                return grads

            objective = tape.fused(objective.value, objective.parents,
                                   poisoned)
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
        curve = joint_ido(plan, make_policies(2, c0=-0.2), score, agg,
                          cfg, grid, psi, SCHEDULE, seed=3)
    assert [c.update for c in curve] == [0, 2, 3]
    assert len(curve) == 3   # the updates applied, not planned
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
    assert [point.update for point in err.value.curve] == [0, 2]


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
        calls.append(x.shape)
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


def lq_setup():
    """The linear-quadratic task: one Gaussian component, halves and a
    quadratic well, K = 19. Returns the score model, mask, config, cost,
    grid and ``lq_costs``' (J*, J_zero, gains, offsets)."""
    gmm = GaussianMixture(weights=[1.0], means=[[0.7, -0.4]],
                          variances=[0.3])
    agg = make_mask("halves", 2, 2)
    cfg = SocConfig(control_weight=0.5, running_scale=0.8)
    psi = QuadraticWell(np.array([1.2, 0.5]))
    grid = make_time_grid(20, 0.01)
    exact = lq_costs(gmm.means[0], 0.3, psi.target, agg, cfg, grid, SCHEDULE)
    return AnalyticGmmScore(gmm, SCHEDULE), agg, cfg, psi, grid, exact


def test_the_rollout_estimates_the_exact_lq_costs():
    # the linear-quadratic control problem: the Riccati recursion gives the
    # exact expected hat-J under the optimal feedback and under zero
    # control (the K = 19 values of ROADMAP direction 3). Paired on the
    # same noise keys, each rollout's mean hat-J and their difference
    # match within 4 standard errors.
    score, agg, cfg, psi, grid, exact = lq_setup()
    j_star, j_zero, gains, offsets = exact
    np.testing.assert_allclose([j_star, j_zero], [1.70285, 2.65927],
                               atol=5e-6)
    feedback = LinearFeedback(agg, gains, offsets)
    noise = NoiseStream(17)
    costs = np.array([
        [coupled_rollout(source, score, agg, cfg, grid, psi, SCHEDULE, noise,
                         batch=4000, update_index=chunk)[1].objective
         for source in (feedback, ZeroControls())]
        for chunk in range(40)])
    means = costs.mean(axis=0)
    errors = costs.std(axis=0, ddof=1) / np.sqrt(len(costs))
    gap = costs[:, 1] - costs[:, 0]
    gap_error = gap.std(ddof=1) / np.sqrt(len(gap))
    assert abs(means[0] - j_star) < 4 * errors[0], (means[0], errors[0])
    assert abs(means[1] - j_zero) < 4 * errors[1], (means[1], errors[1])
    assert abs(gap.mean() - (j_zero - j_star)) < 4 * gap_error, (
        gap.mean(), gap_error)


@pytest.mark.parametrize("trainer", ["joint", "controlwise"])
def test_training_closes_the_lq_gap_to_the_exact_optimum(trainer):
    # 200 updates of (32, 32) policies on the linear-quadratic task, where
    # the optimal feedback is in the policy class: the trained policies'
    # excess cost over the optimum, paired with the optimal feedback on the
    # same noise keys, is at most 1% of the zero-control gap J_zero - J*,
    # and not below 0 by more than 4 standard errors
    score, agg, cfg, psi, grid, exact = lq_setup()
    j_star, j_zero, gains, offsets = exact
    policies = [make_policy(2, i, derive_rng(23, i), hidden=(32, 32))
                for i in range(2)]
    if trainer == "joint":
        joint_ido(TrainPlan(updates=200, batch=64, lr=1e-2), policies,
                  score, agg, cfg, grid, psi, SCHEDULE, seed=3)
    else:                               # 20 sweeps of 5 updates per agent
        controlwise_ido(TrainPlan(outer_iters=20, inner_steps=5, batch=64,
                                  lr=1e-2),
                        policies, score, agg, cfg, grid, psi, SCHEDULE,
                        seed=3)
    noise = NoiseStream(29)
    sources = (optimize.PolicyControls(policies, agg),
               LinearFeedback(agg, gains, offsets))
    excess = np.array([
        np.subtract(*(coupled_rollout(source, score, agg, cfg, grid, psi,
                                      SCHEDULE, noise, batch=4000,
                                      update_index=chunk)[1].objective
                      for source in sources))
        for chunk in range(10)])
    error = excess.std(ddof=1) / np.sqrt(len(excess))
    assert excess.mean() <= 0.01 * (j_zero - j_star), (excess.mean(), error)
    assert excess.mean() > -4 * error, (excess.mean(), error)


def test_recorded_rollout_evaluates_psi_once_per_step_and_at_the_end():
    # the guidance pass yields psi(Y0_hat) for the running cost as well, and
    # the baseline's state gradient pulls back the step's own score call,
    # so every K-step rollout calls the score model K times and psi K + 1
    # times
    score, agg, cfg, psi, grid = make_setup(steps=6)
    steps = grid.steps - 1
    shapes, score_rows = [], []

    def counting_psi(y, grad=True):
        shapes.append(y.shape)
        return psi(y, grad)

    def counting_score(x, t):
        score_rows.append(x.shape[0])
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
    ops.backward(ref)
    for g, p in zip(got, leaves):
        scale = np.abs(p.grad).max()
        assert np.abs(g - p.grad).max() <= 1e-14 * scale, p.name


@pytest.mark.parametrize("entries", [2, 3])
def test_a_repeated_trained_expert_gets_the_gradient_of_its_copies(entries):
    # summed_score([net] * entries) hands the sweep the same leaf adjoint
    # objects once per entry: net's gradient is the sum of the gradients
    # that as many distinct copies of net get
    score, agg, cfg, psi, _ = make_setup()

    def gradients(nets):
        J, _ = bptt_rollout(make_policies(2, c0=-0.5), summed_score(nets),
                            agg, cfg, make_time_grid(5, 1e-2), psi, SCHEDULE,
                            NoiseStream(5), batch=2)
        tape.backward(J)
        return [p.grad for p in nets[0].params()]

    def net():
        return MlpScore(2, (8,), 4, derive_rng(101, 21), schedule=SCHEDULE)

    repeated = gradients([net()] * entries)
    copies = [net() for _ in range(entries)]
    gradients(copies)
    for j, got in enumerate(repeated):
        ref = sum(c.params()[j].grad for c in copies)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_a_rollout_node_has_the_trained_leaves_as_parents():
    # frozen policy weights get no adjoint and are no parent; without a
    # trained leaf, or in a rollout that does not train (a sampler's),
    # the objective is a constant
    score, agg, cfg, psi, grid = make_setup(steps=5)
    policies = make_policies(2, c0=-0.4)
    tape.freeze(policies[1].nn2.params())
    J, _ = bptt_rollout(policies, score, agg, cfg, grid, psi, SCHEDULE,
                        NoiseStream(1), batch=2)
    assert J.parents == tuple(policies[0].params() + policies[1].nn1.params())
    tape.backward(J)
    assert all(p.grad is None for p in policies[1].nn2.params())
    J, _ = optimize.coupled_rollout(
        optimize.PolicyControls(policies, agg), score, agg, cfg, grid, psi,
        SCHEDULE, NoiseStream(1), batch=2)
    assert J.is_leaf and not J.requires_grad


def test_a_rollout_node_sweeps_once_and_frees_its_records():
    # the sweep frees each step's record once it has passed it, so the
    # graph holds only the leaves afterwards, and a second backward raises
    # instead of returning a partial gradient
    J, policies = shapes16_sized_rollout(8)
    leaves = sum(p.value.nbytes for policy in policies
                 for p in policy.params())
    # before the sweep: the leaves and the 7 step records (8 grid
    # points), each holding at least X_k (2, 16, 256), the (16, 256) psi
    # gradient and the stacked NN1's two (2, 16, 128) hidden activations
    record = (2 * 16 * 256 + 16 * 256 + 2 * 2 * 16 * 128) * 8
    assert graph_nbytes(J) >= leaves + 7 * record
    tape.backward(J)
    assert graph_nbytes(J) < leaves + 4 * 2 * 16 * 256 * 8
    with pytest.raises(RuntimeError, match="runs once"):
        tape.backward(J)


def test_an_update_makes_one_backward_and_no_psi_subtape(monkeypatch):
    # K = 80 grid points: per update one top-level backward (the rollout
    # node's sweep), 79 score calls and 80 psi calls (79 at the Tweedie
    # estimates, one terminal), and the psi gradients come from the cost's
    # own call, with no backward of their own
    score, agg, cfg, psi, grid = make_setup(steps=80)
    calls = {"backward": 0, "score": 0, "psi": 0}
    real_backward = tape.backward

    def counting_backward(root):
        calls["backward"] += 1
        return real_backward(root)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
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
        return len(ops._toposort(J))

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
    # the Python objects around the arrays; and it is at most 26 MB. The
    # policies are stacked first: tracemalloc would count the stack as new
    # bytes without seeing the leaves' old arrays freed
    args = shapes16_sized_args(80)
    optimize.PolicyControls(args[0], args[2])
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
        for i, row in enumerate(u):      # the stacked policy's agent rows
            rebuilt[(t, i)] = row.copy()
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
    # stacked before the trace, which would count the stack as new bytes
    # without seeing the leaves' old arrays freed
    optimize.PolicyControls(policies, agg)
    _, peak = traced_bytes(run)
    assert peak <= units * n * batch * dim * 8, peak / (n * batch * dim * 8)


def unread_bytes(root) -> int:
    """Bytes of the distinct arrays that the nodes of ``root``'s graph
    (the root aside) hold as values and that no VJP closure references."""
    nodes = ops._toposort(root)
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


# ---------------------------------------------------------------------------
# the agents' policies as one stack
# ---------------------------------------------------------------------------

class Logged:
    """A control source that passes every call on to ``source`` and logs
    copies of the controls it returns and, per sweep step, of the states'
    adjoint it leaves and the aggregate input's adjoint it returns."""

    def __init__(self, source):
        self.source, self.guidance, self.log = source, source.guidance, []

    def params(self):
        return self.source.params()

    def split(self, sums):
        return self.source.split(sums)

    def __call__(self, *args):
        us, caches = self.source(*args)
        self.log.append(us.copy())
        return us, caches

    def backward(self, *args):
        grads, a_y = self.source.backward(*args)
        a_x = args[-1]
        self.log += [None if a_x is None else a_x.copy(), a_y]
        return grads, a_y


def three_agent_setup(steps=7):
    """N = 3 agents on d = 3 ("halves"), a 3-D mixture and a quadratic
    well, with policies whose final layers are all off zero."""
    gmm = GaussianMixture(weights=[0.5, 0.5],
                          means=[[-1.0, 0.0, 0.5], [1.0, 0.5, -0.5]],
                          variances=[0.25, 0.25])
    agg = make_mask("halves", 3, 3)
    policies = [make_policy(3, i, derive_rng(31, i), hidden=(8, 8),
                            gain_hidden=(4,), guidance_gain_init=-0.4)
                for i in range(3)]
    rng = derive_rng(31, 9)
    for p in (p for policy in policies for p in policy.params()):
        p.value = p.value + 0.1 * rng.standard_normal(p.value.shape)
    return (policies, AnalyticGmmScore(gmm, SCHEDULE), agg,
            SocConfig(control_weight=0.5, running_scale=0.5),
            make_time_grid(steps, 1e-3),
            QuadraticWell(np.array([1.0, -1.0, 0.5])))


def test_the_stacked_policy_is_the_per_agent_loop_bit_for_bit():
    # one training rollout under the stacked policy and under the loop over
    # the agents' own policies, with agent 1's gain network frozen: the same
    # objective, controls, states' and aggregate adjoints at every step,
    # and gradients, bit for bit; the frozen network's leaves get none
    policies, score, agg, cfg, grid, psi = three_agent_setup()
    for policy in policies:
        assert np.all(policy.nn1.weights[-1].value != 0)
        assert np.all(policy.nn2.weights[-1].value != 0)
    tape.freeze(policies[1].nn2.params())
    leaves = [p for policy in policies for p in policy.params()]
    runs = []
    for source in (optimize.PolicyControls(policies, agg),
                   PerAgentControls(policies, agg)):
        logged = Logged(source)
        J, _ = coupled_rollout(logged, score, agg, cfg, grid, psi, SCHEDULE,
                               NoiseStream(4), batch=5, train=True)
        tape.backward(J)
        runs.append((J.value, logged.log, [p.grad for p in leaves]))
        for p in leaves:
            p.grad = None
    (j_stack, log_stack, g_stack), (j_loop, log_loop, g_loop) = runs
    assert j_stack == j_loop
    assert len(log_stack) == len(log_loop) == 3 * (grid.times.size - 1)
    for a, b in zip(log_stack, log_loop):
        assert (a is None and b is None) or np.array_equal(a, b)
    for p, a, b in zip(leaves, g_stack, g_loop):
        if p in policies[1].nn2.params():
            assert a is None and b is None
        else:
            assert np.array_equal(a, b), p.name


def _count_mlp_calls(monkeypatch, counts):
    for name in ("__call__", "output", "backward"):
        real = getattr(Mlp, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(Mlp, name, counted)


def test_the_mlp_calls_per_rollout_step_do_not_depend_on_the_agent_count(
        monkeypatch):
    # per step: two network calls (NN1 and NN2 of the stack) whose outputs
    # the sweep rebuilds (two more ``output``s) and two backward passes
    dim, steps = 4, 6
    gmm = GaussianMixture(weights=[1.0], means=[np.zeros(dim)],
                          variances=[0.5])
    score = AnalyticGmmScore(gmm, SCHEDULE)
    cfg = SocConfig(control_weight=0.5, running_scale=0.5)
    psi = QuadraticWell(np.ones(dim))
    grid = make_time_grid(steps, 1e-3)
    counts = {}
    for n in (2, 4):
        policies = [make_policy(dim, i, derive_rng(3, i), hidden=(8,),
                                gain_hidden=(4,), guidance_gain_init=-0.5)
                    for i in range(n)]
        counts[n] = collections.Counter()
        with monkeypatch.context() as patch:
            _count_mlp_calls(patch, counts[n])
            J, _ = bptt_rollout(policies, score, make_mask("halves", n, dim),
                                cfg, grid, psi, SCHEDULE, NoiseStream(1),
                                batch=3)
            tape.backward(J)
    k = grid.times.size - 1
    assert counts[2] == counts[4] == {"__call__": 2 * k, "output": 4 * k,
                                      "backward": 2 * k}


def test_the_policies_stack_is_their_storage():
    # the stack is where the weights live: a second stack over the same
    # policies reuses every array, and a leaf rebound by hand is
    # restacked by the next rollout, whose controls read its new value
    policies, score, agg, cfg, grid, psi = three_agent_setup(steps=4)
    leaves = [p for policy in policies for p in policy.params()]
    stack = optimize.PolicyControls(policies, agg).policy
    bases = [p.value.base for p in leaves]
    assert all(b is not None for b in bases)
    again = optimize.PolicyControls(policies, agg).policy
    assert all(p.value.base is b for p, b in zip(leaves, bases))
    assert all(a.value is b.value
               for a, b in zip(again.params(), stack.params()))

    def terminal(source):
        return coupled_rollout(source, score, agg, cfg, grid, psi, SCHEDULE,
                               NoiseStream(2), batch=4)[1].terminal_states

    before = terminal(optimize.PolicyControls(policies, agg))
    gain = policies[2].nn2.biases[-1]
    gain.value = gain.value - 0.5
    source = optimize.PolicyControls(policies, agg)
    after = terminal(source)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, terminal(PerAgentControls(policies, agg)))
    # only the rebound leaf's tensor is restacked, every agent's row of it
    restacked = source.policy.nn2.biases[-1].value
    assert np.array_equal(restacked[2], gain.value)
    last = [policy.nn2.biases[-1] for policy in policies]
    for p, b in zip(leaves, bases):
        assert p.value.base is (restacked if p in last else b), p.name


def test_policies_of_unequal_sizes_do_not_stack():
    agg = make_mask("halves", 2, 2)
    policies = [make_policy(2, 0, derive_rng(1, 0), hidden=(8,)),
                make_policy(2, 1, derive_rng(1, 1), hidden=(6,))]
    with pytest.raises(ValueError, match="cannot stack"):
        optimize.PolicyControls(policies, agg)
