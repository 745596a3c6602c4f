"""Control policies: reward-informed initialisation, guidance paths,
the training-free baseline, gradient isolation."""
import numpy as np
import pytest

from coopdiff import tape
from coopdiff.aggregation import aggregate, make_mask, scatter_adjoint
from coopdiff.control import (
    eval_control,
    make_policy,
    state_guidance,
    tweedie_guidance,
)
from coopdiff.costs import ClassifierNll, QuadraticWell, SocConfig, with_seam
from coopdiff.nn import Mlp
from coopdiff.optimize import CdpsControls, sample_cdps
from coopdiff.scores import (
    AnalyticGmmScore,
    GaussianMixture,
    MlpScore,
    tweedie,
)
from coopdiff.sde import NoiseSchedule, TimeGrid, derive_rng
import opgraphs as ops
from oracles import taped_state_guidance

SCHEDULE = NoiseSchedule()


def cdps_gradient(score_fn, agg, psi, xs, t):
    """The cdps state gradient at the (N, B, d) states ``xs``, formed as a
    rollout step forms it: one score call, Tweedie, the aggregate and
    grad psi, then ``state_guidance`` on the score call's pullback."""
    xs = np.asarray(xs, dtype=np.float64)
    scores, (vjp, _) = score_fn(xs.reshape(-1, xs.shape[2]), t)
    y0_hat = aggregate(agg, tweedie(xs, t, scores.reshape(xs.shape),
                                    SCHEDULE))
    return state_guidance(agg, SCHEDULE, vjp, psi(y0_hat)[1], t)


def test_fresh_policy_is_exactly_gain_times_guidance():
    rng = np.random.default_rng(0)
    for c0 in (0.0, -2.5, 1.0):
        policy = make_policy(3, 0, derive_rng(0, 10), hidden=(8,),
                             gain_hidden=(4,), guidance_gain_init=c0)
        for _ in range(100):
            x = rng.standard_normal((2, 3))
            y = rng.standard_normal((2, 3))
            g = rng.standard_normal((2, 3))
            t = float(rng.uniform(0, 1))
            u = eval_control(policy, x, y, t, g).value
            np.testing.assert_array_equal(u, c0 * g)


def test_zero_guidance_zero_init_gives_zero_control():
    policy = make_policy(3, 0, derive_rng(0, 11))
    u = eval_control(policy, np.ones((4, 3)), np.ones((4, 3)), 0.5,
                     np.zeros((4, 3))).value
    assert np.all(u == 0.0)


def test_control_sees_the_aggregate_state():
    policy = make_policy(2, 0, derive_rng(0, 12), hidden=(8,))
    # give NN1 nonzero weights so inputs matter
    rng = derive_rng(0, 13)
    for p in policy.nn1.params():
        p.value = rng.standard_normal(p.value.shape) * 0.3
    x = np.ones((1, 2))
    g = np.ones((1, 2))
    u1 = eval_control(policy, x, np.zeros((1, 2)), 0.5, g).value
    u2 = eval_control(policy, x, np.ones((1, 2)), 0.5, g).value
    assert not np.array_equal(u1, u2)


def test_eval_control_is_deterministic():
    policy = make_policy(2, 0, derive_rng(0, 14))
    args = (np.ones((3, 2)), np.zeros((3, 2)), 0.3, np.ones((3, 2)))
    np.testing.assert_array_equal(
        eval_control(policy, *args).value, eval_control(policy, *args).value
    )


def test_eval_control_dimension_mismatch():
    policy = make_policy(3, 0, derive_rng(0, 15))
    with pytest.raises(ValueError):
        eval_control(policy, np.ones((1, 2)), np.ones((1, 3)), 0.5,
                     np.ones((1, 3)))


@pytest.mark.parametrize("hidden, gain_hidden", [((8, 8), (4,)), ((), ())])
def test_a_control_rebuilt_from_its_cache_is_the_forwards(hidden,
                                                          gain_hidden):
    # every weight off zero, with and without hidden layers (without, the
    # last layer reads the input parts)
    policy = make_policy(3, 0, derive_rng(0, 16), hidden=hidden,
                         gain_hidden=gain_hidden)
    rng = derive_rng(0, 17)
    for p in policy.params():
        p.value = rng.standard_normal(p.value.shape) * 0.3
    x, y, g = (rng.standard_normal((5, 3)) for _ in range(3))
    u, cache = policy.forward(x, y, g, 0.37)
    assert np.array_equal(policy.control(cache, x, y, g, 0.37), u)


def test_cdps_zero_scale_gives_zero_control():
    xs = np.ones((2, 2, 3))
    u, _ = CdpsControls(0.0)(0, 0.5, xs, xs[0], np.ones((2, 2, 3)))
    assert np.all(u == 0.0)


def test_cdps_control_is_descent_scaled_gradient():
    g = np.array([[[1.0, -2.0]], [[0.5, 3.0]]])
    xs = np.zeros((2, 1, 2))
    u, _ = CdpsControls(10.0)(0, 0.5, xs, xs[0], g)
    np.testing.assert_array_equal(u, -10.0 * g)


def test_state_guidance_matches_finite_differences():
    # quadratic psi and an analytic Gaussian score: differentiate
    # psi(aggregate(tweedie(x, score(x)))) w.r.t. the agent states by hand
    gmm = GaussianMixture(weights=[1.0], means=[[0.5, -0.5]], variances=[0.8])
    score_fn = AnalyticGmmScore(gmm, SCHEDULE)
    agg = make_mask("halves", 2, 2)
    psi = QuadraticWell(np.array([1.0, 2.0]))
    t = 0.35
    rng = derive_rng(1, 0)
    xs = [rng.standard_normal((2, 2)) for _ in range(2)]
    grads = cdps_gradient(score_fn, agg, psi, xs, t)

    def forward(xs_val):
        x0h = [tweedie(x, t, score_fn(x, t)[0], SCHEDULE) for x in xs_val]
        y0 = aggregate(agg, x0h)
        return float(psi(y0, grad=False)[0].sum())

    h = 1e-6
    worst = 0.0
    for i in range(2):
        for idx in range(xs[i].size):
            xp = [x.copy() for x in xs]
            xm = [x.copy() for x in xs]
            xp[i].reshape(-1)[idx] += h
            xm[i].reshape(-1)[idx] -= h
            fd = (forward(xp) - forward(xm)) / (2 * h)
            an = grads[i].reshape(-1)[idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-9))
    assert worst < 1e-4


def state_guidance_setups():
    """(name, score, aggregator, cost, batch) for the state gradient:
    gmm2d's analytic mixture score, a frozen random score net and
    classifier at shapes16's sizes with the seam loss, and a score net
    whose weights are trained (they require grad)."""
    rng = derive_rng(4, 0)
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[0.25, 0.25])
    yield ("gmm2d", AnalyticGmmScore(gmm, SCHEDULE), make_mask("halves", 2, 2),
           QuadraticWell(np.array([2.0, -1.5])), 5)
    agg = make_mask("h-stripes", 4, 256, image_hw=(16, 16))
    score = MlpScore(256, (192, 192), 16, derive_rng(4, 1), schedule=SCHEDULE)
    clf = Mlp([256, 64, 4], derive_rng(4, 2))
    tape.freeze(score.params() + clf.params())
    cfg = SocConfig(seam_beta=0.05, seam_gamma=0.05)
    yield ("shapes16", score, agg, with_seam(ClassifierNll(clf, 1), agg, cfg),
           3)
    net = MlpScore(2, (16,), 8, derive_rng(4, 3), schedule=SCHEDULE)
    for p in net.params():
        p.value = p.value + 0.1 * rng.standard_normal(p.value.shape)
    yield ("trained-score", net, make_mask("halves", 2, 2),
           QuadraticWell(np.array([0.5, -1.0])), 4)


@pytest.mark.parametrize("name", ["gmm2d", "shapes16", "trained-score"])
def test_state_guidance_matches_the_taped_reference(name, monkeypatch):
    # the gradient a cdps rollout step hands its controls (the step's own
    # score call pulled back through psi, the aggregate and Tweedie)
    # against the same gradient from one sub-tape and its backward, at the
    # states of that step: bit-equal at every step, and only the reference
    # calls backward
    _, score, agg, psi, batch = next(s for s in state_guidance_setups()
                                     if s[0] == name)
    steps = []
    real = CdpsControls.__call__

    def recording(self, k, t, xs, y, grad_x):
        steps.append((t, xs.copy(), grad_x.copy()))
        return real(self, k, t, xs, y, grad_x)

    monkeypatch.setattr(CdpsControls, "__call__", recording)
    roots = []
    for engine in (tape, ops):
        monkeypatch.setattr(engine, "backward",
                            lambda root, real=engine.backward:
                            roots.append(root) or real(root))
    grid = TimeGrid(np.array([0.9, 0.3, 0.05, 0.01]), eps=0.01)
    sample_cdps(score, agg, SocConfig(), grid, psi, SCHEDULE, seed=4,
                batch=batch, alpha_guid=1.0)
    assert not roots
    assert [t for t, _, _ in steps] == [0.9, 0.3, 0.05]
    for t, xs, grad_x in steps:
        ref = taped_state_guidance(score, agg, psi, SCHEDULE, xs, t)
        assert np.array_equal(grad_x, ref[3]), (name, t)
    assert len(roots) == len(steps)


def test_tweedie_guidance_equals_masked_cost_gradient():
    # linear selection: grad wrt each agent's estimate is the masked
    # gradient of psi at the aggregate; the same pass returns psi itself
    agg = make_mask("halves", 2, 4)
    psi = QuadraticWell(np.zeros(4))
    rng = derive_rng(1, 1)
    x0h = [rng.standard_normal((3, 4)) for _ in range(2)]
    value, grad = tweedie_guidance(psi, aggregate(agg, x0h))
    grads = scatter_adjoint(agg, grad)
    y0 = sum(x * m for x, m in zip(x0h, agg.masks))
    np.testing.assert_allclose(value, (y0 * y0).sum(axis=1, keepdims=True),
                               rtol=1e-14)
    full = 2.0 * y0
    for i in range(2):
        np.testing.assert_allclose(grads[i], full * agg.masks[i], atol=1e-12)


def test_tweedie_guidance_is_one_call_of_the_cost():
    # psi and grad psi come from the cost's own call, with its gradient
    # asked for, and from nowhere else: a plain function is a cost too
    psi = QuadraticWell(np.array([1.0, -1.0]))
    y = derive_rng(1, 2).standard_normal((3, 2))
    calls = []

    def counting_psi(v, grad=True):
        calls.append(grad)
        return psi(v, grad)

    value, grad = tweedie_guidance(counting_psi, y)
    assert calls == [True]
    assert np.array_equal(value, ((y - psi.target) ** 2).sum(axis=1,
                                                            keepdims=True))
    assert np.array_equal(grad, 2.0 * (y - psi.target))


def test_score_params_perturbation_changes_cdps_not_stopgrad_guidance():
    # the baseline differentiates through the score network, the learned
    # parametrisation does not: perturbing score weights changes the
    # state-gradient guidance but never the Tweedie-gradient guidance
    agg = make_mask("halves", 2, 2)
    psi = QuadraticWell(np.array([1.0, -1.0]))
    net = MlpScore(2, (16,), 8, derive_rng(2, 0), schedule=SCHEDULE)
    rng = derive_rng(2, 1)
    xs = [rng.standard_normal((2, 2)) for _ in range(2)]
    t = 0.5

    before = cdps_gradient(net, agg, psi, xs, t)
    x0h_before = [tweedie(x, t, net(x, t)[0], SCHEDULE) for x in xs]
    tg_before = tweedie_guidance(psi, aggregate(agg, x0h_before))

    for p in net.params():
        p.value = p.value + 0.05

    after = cdps_gradient(net, agg, psi, xs, t)
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))
    # holding the Tweedie estimates fixed, the guidance is untouched
    tg_after = tweedie_guidance(psi, aggregate(agg, x0h_before))
    for a, b in zip(tg_before, tg_after):
        np.testing.assert_array_equal(a, b)


def test_guidance_path_gives_zero_gradient_to_score_params():
    # assemble the learned-control guidance exactly as the rollout does
    # (detached Tweedie estimates), then check the score network receives
    # no adjoint while the policy does
    agg = make_mask("halves", 2, 2)
    psi = QuadraticWell(np.array([0.5, 0.5]))
    net = MlpScore(2, (16,), 8, derive_rng(3, 0), schedule=SCHEDULE)
    policy = make_policy(2, 0, derive_rng(3, 1), hidden=(8,),
                         guidance_gain_init=-1.0)
    rng = derive_rng(3, 2)
    xs = [ops.constant(rng.standard_normal((2, 2))) for _ in range(2)]
    t = 0.4

    scores = [ops.score_node(net, x, t) for x in xs]
    x0h = [ops.tweedie(x, t, s, SCHEDULE) for x, s in zip(xs, scores)]
    _, grad = tweedie_guidance(psi, ops.aggregate(agg, ops.stack(x0h)).value)
    u = eval_control(policy, xs[0], xs[1], t, scatter_adjoint(agg, grad)[0])
    ops.backward(ops.reduce_sum(ops.mul(u, u)))

    assert all(p.grad is None or np.all(p.grad == 0.0) for p in net.params())
    assert any(p.grad is not None and np.any(p.grad != 0.0)
               for p in policy.params())
