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
from coopdiff.optimize import CdpsControls
from coopdiff.scores import (
    AnalyticGmmScore,
    GaussianMixture,
    MlpScore,
    gmm_score,
    tweedie,
)
from coopdiff.sde import NoiseSchedule, derive_rng
import opgraphs as ops
from oracles import taped_cost, taped_state_guidance

SCHEDULE = NoiseSchedule()


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
    score_fn = lambda x, t: gmm_score(gmm, x, t, SCHEDULE)
    agg = make_mask("halves", 2, 2)
    psi = QuadraticWell(np.array([1.0, 2.0]))
    t = 0.35
    rng = derive_rng(1, 0)
    xs = [rng.standard_normal((2, 2)) for _ in range(2)]
    grads = state_guidance(score_fn, agg, psi, SCHEDULE, xs, t).grad

    def forward(xs_val):
        with tape.no_grad():
            x0h = [tweedie(x, t, score_fn(tape.constant(x), t).value,
                           SCHEDULE)
                   for x in xs_val]
            y0 = aggregate(agg, x0h)
            return float(psi(tape.constant(y0)).value.sum())

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
    """(name, score, aggregator, cost, states) for the state gradient:
    gmm2d's analytic mixture score, a frozen random score net and
    classifier at shapes16's sizes with the seam loss, and a score net
    whose weights are trained (they require grad)."""
    rng = derive_rng(4, 0)
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[0.25, 0.25])
    yield ("gmm2d", AnalyticGmmScore(gmm, SCHEDULE), make_mask("halves", 2, 2),
           QuadraticWell(np.array([2.0, -1.5])), rng.standard_normal((2, 5, 2)))
    agg = make_mask("h-stripes", 4, 256, image_hw=(16, 16))
    score = MlpScore(256, (192, 192), 16, derive_rng(4, 1), schedule=SCHEDULE)
    clf = Mlp([256, 64, 4], derive_rng(4, 2))
    tape.freeze(score.params() + clf.params())
    cfg = SocConfig(seam_beta=0.05, seam_gamma=0.05)
    yield ("shapes16", score, agg, with_seam(ClassifierNll(clf, 1), agg, cfg),
           rng.standard_normal((4, 3, 256)))
    net = MlpScore(2, (16,), 8, derive_rng(4, 3), schedule=SCHEDULE)
    for p in net.params():
        p.value = p.value + 0.1 * rng.standard_normal(p.value.shape)
    yield ("trained-score", net, make_mask("halves", 2, 2),
           QuadraticWell(np.array([0.5, -1.0])), rng.standard_normal((2, 4, 2)))


@pytest.mark.parametrize("name", ["gmm2d", "shapes16", "trained-score"])
def test_state_guidance_matches_the_taped_reference(name, monkeypatch):
    # the plain-array pass (the score call's pullback, then the adjoints
    # of psi, the aggregate and Tweedie) against the same gradient from
    # one sub-tape and its backward: every output is bit-equal, and only
    # the reference calls backward
    _, score, agg, psi, xs = next(s for s in state_guidance_setups()
                                  if s[0] == name)
    roots = []
    real_backward = tape.backward
    monkeypatch.setattr(tape, "backward",
                        lambda root: roots.append(root) or real_backward(root))
    for t in (0.9, 0.3, 0.05):
        with tape.no_grad():
            got = state_guidance(score, agg, psi, SCHEDULE, xs, t)
        assert not roots
        ref = taped_state_guidance(score, agg, psi, SCHEDULE, xs, t)
        assert len(roots) == 1
        roots.clear()
        for field, a, b in zip(got._fields, got, ref):
            assert np.array_equal(a, b), (name, t, field)


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


def test_tweedie_guidance_takes_a_cost_that_is_one_node_on_its_input():
    # grad psi is the cost node's one VJP: a cost built as a graph of
    # several ops is refused, not differentiated another way
    psi = QuadraticWell(np.array([1.0, -1.0]))
    y = derive_rng(1, 2).standard_normal((3, 2))
    value, grad = tweedie_guidance(psi, y)
    assert np.array_equal(grad, 2.0 * (y - psi.target))
    with pytest.raises(TypeError, match="one op node"):
        tweedie_guidance(taped_cost(psi), y)


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

    before = state_guidance(net, agg, psi, SCHEDULE, xs, t).grad
    with tape.no_grad():
        x0h_before = [tweedie(x, t, net(tape.constant(x), t).value, SCHEDULE)
                      for x in xs]
    tg_before = tweedie_guidance(psi, aggregate(agg, x0h_before))

    for p in net.params():
        p.value = p.value + 0.05

    after = state_guidance(net, agg, psi, SCHEDULE, xs, t).grad
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
    xs = [tape.constant(rng.standard_normal((2, 2))) for _ in range(2)]
    t = 0.4

    scores = [net(x, t) for x in xs]
    x0h = [ops.tweedie(x, t, s, SCHEDULE) for x, s in zip(xs, scores)]
    _, grad = tweedie_guidance(psi, ops.aggregate(agg, ops.stack(x0h)))
    u = eval_control(policy, xs[0], xs[1], t, scatter_adjoint(agg, grad)[0])
    tape.backward(ops.reduce_sum(ops.mul(u, u)))

    assert all(p.grad is None or np.all(p.grad == 0.0) for p in net.params())
    assert any(p.grad is not None and np.any(p.grad != 0.0)
               for p in policy.params())
