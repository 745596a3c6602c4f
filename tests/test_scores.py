"""Analytic mixture scores, the Tweedie denoiser, score-matching losses."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopdiff import tape
from coopdiff.nn import time_features
from coopdiff.optim import AdamState, adam_step
from coopdiff.scores import (
    GaussianMixture,
    MlpScore,
    denoiser_loss,
    gmm_score,
    tweedie,
    tweedie_adjoint,
)
from coopdiff.sde import NoiseSchedule, derive_rng, marginal_coeffs
import opgraphs as ops
from oracles import (
    dsm_loss,
    gmm_score_np,
    row_time_gmm_score,
    taped_denoiser_loss,
)

SCHEDULE = NoiseSchedule()


def std_normal_gmm(dim=2):
    return GaussianMixture(weights=[1.0], means=[np.zeros(dim)], variances=[1.0])


def test_mixture_validation():
    with pytest.raises(ValueError):
        GaussianMixture(weights=[0.6, 0.6], means=[[0.0], [1.0]], variances=[1, 1])
    with pytest.raises(ValueError):
        GaussianMixture(weights=[1.0], means=[[0.0]], variances=[0.0])


def test_std_normal_score_is_minus_x():
    gmm = std_normal_gmm()
    rng = derive_rng(0, 0)
    for t in (0.0, 0.2, 0.7, 1.0):
        x = rng.standard_normal((5, 2))
        s = gmm_score(gmm, x, t, SCHEDULE).value
        np.testing.assert_allclose(s, -x, rtol=0, atol=1e-12)


def test_shifted_gaussian_score_hand_formula():
    # data N(mu0, I): diffused variance alpha^2 + sigma^2 = 1, so the
    # score is -(x - alpha mu0)
    mu0 = np.array([1.5, -2.0])
    gmm = GaussianMixture(weights=[1.0], means=[mu0], variances=[1.0])
    rng = derive_rng(0, 1)
    for t in (0.1, 0.5, 0.9):
        alpha, _ = marginal_coeffs(SCHEDULE, t)
        x = rng.standard_normal((4, 2))
        s = gmm_score(gmm, x, t, SCHEDULE).value
        np.testing.assert_allclose(s, -(x - alpha * mu0), atol=1e-12)


def test_symmetric_mixture_score_vanishes_at_origin():
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[2.0, 0.0], [-2.0, 0.0]],
                          variances=[0.5, 0.5])
    s = gmm_score(gmm, np.zeros((1, 2)), 0.4, SCHEDULE).value
    np.testing.assert_allclose(s, np.zeros((1, 2)), atol=1e-14)


def test_gmm_score_matches_log_density_fd():
    gmm = GaussianMixture(
        weights=[0.3, 0.45, 0.25],
        means=[[1.0, -1.0], [-2.0, 0.5], [0.0, 2.0]],
        variances=[0.3, 1.2, 0.7],
    )
    rng = derive_rng(1, 0)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(2) * 2.5
        mix = gmm.diffused(t, SCHEDULE)
        s = gmm_score(gmm, x[None, :], t, SCHEDULE).value[0]
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (mix.log_density(xp[None, :])[0]
                  - mix.log_density(xm[None, :])[0]) / (2 * h)
            rel = abs(fd - s[i]) / max(abs(fd), abs(s[i]), 1e-10)
            worst = max(worst, rel)
    assert worst < 1e-6


def test_gmm_score_taped_equals_vectorised():
    gmm = GaussianMixture(weights=[0.4, 0.6], means=[[1.0, 0.0], [-1.0, 1.0]],
                          variances=[0.4, 0.9])
    x = derive_rng(2, 0).standard_normal((6, 2))
    t = 0.37
    a = gmm_score(gmm, x, t, SCHEDULE).value
    b = gmm_score_np(gmm, x, np.full(6, t), SCHEDULE)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_gmm_sampling_moments():
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0], [1.0]],
                          variances=[0.25, 0.25])
    samples = gmm.sample(derive_rng(3, 0), 200_000)
    assert abs(samples.mean()) < 0.01
    assert abs(samples.var() - 1.25) < 0.02  # 0.25 + mean spread 1.0


def test_tweedie_identity_at_data_time():
    x = np.array([[0.3, -0.4]])
    out = tweedie(x, 0.0, np.zeros((1, 2)), SCHEDULE)
    np.testing.assert_array_equal(out, x)


def test_tweedie_matches_conjugate_posterior_mean():
    # prior N(mu0, I), observation x_t ~ N(alpha x0, sigma^2 I):
    # E[x0 | x_t] = alpha x_t + sigma^2 mu0 (since alpha^2 + sigma^2 = 1)
    mu0 = np.array([0.8, -1.1])
    gmm = GaussianMixture(weights=[1.0], means=[mu0], variances=[1.0])
    rng = derive_rng(4, 0)
    for t in (0.05, 0.3, 0.8, 1.0):
        alpha, sigma = marginal_coeffs(SCHEDULE, t)
        x = rng.standard_normal((8, 2)) * 1.5
        score = gmm_score(gmm, x, t, SCHEDULE).value
        got = tweedie(x, t, score, SCHEDULE)
        want = alpha * x + sigma ** 2 * mu0
        assert np.max(np.abs(got - want)) < 1e-10


def test_tweedie_is_affine_in_state_and_score():
    x = derive_rng(4, 1).standard_normal((3, 2))
    s = derive_rng(4, 2).standard_normal((3, 2))
    a = 2.5
    lhs = tweedie(a * x, 0.4, a * s, SCHEDULE)
    rhs = a * tweedie(x, 0.4, s, SCHEDULE)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_tweedie_adjoint_identity(seed):
    # <a, tweedie(x, s)> = <a_x, x> + <a_s, s> for the helper's (a_x, a_s)
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(1e-3, 1.0))
    x, s, a = (rng.standard_normal((2, 3, 5)) for _ in range(3))
    out = tweedie(x, t, s, SCHEDULE)
    lhs = float((a * out).sum())
    a_x, a_s = tweedie_adjoint(a, t, SCHEDULE)
    rhs = float((a_x * x).sum() + (a_s * s).sum())
    scale = float(np.abs(a * out).sum() + np.abs(a_x * x).sum()
                  + np.abs(a_s * s).sum())
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_dsm_loss_zero_for_conditional_score():
    rng = derive_rng(5, 0)
    x0 = rng.standard_normal((16, 3))
    t = rng.uniform(0.05, 1.0, size=16)
    noise = rng.standard_normal((16, 3))
    _, sigma = marginal_coeffs(SCHEDULE, t)
    target = -noise / sigma[:, None]

    loss = dsm_loss(lambda x, tt: tape.constant(target), x0, t, noise, SCHEDULE)
    assert float(loss.value) == 0.0


def test_dsm_loss_for_zero_model_and_nonnegativity():
    rng = derive_rng(5, 1)
    x0 = rng.standard_normal((32, 3))
    t = rng.uniform(0.05, 1.0, size=32)
    noise = rng.standard_normal((32, 3))
    _, sigma = marginal_coeffs(SCHEDULE, t)
    expected = np.mean(np.sum((noise / sigma[:, None]) ** 2, axis=1))

    def zero_model(x, tt):
        return tape.constant(np.zeros_like(x.value))

    loss = dsm_loss(zero_model, x0, t, noise, SCHEDULE)
    np.testing.assert_allclose(float(loss.value), expected, rtol=1e-12)
    assert float(loss.value) >= 0.0


def test_dsm_loss_empty_batch_raises():
    with pytest.raises(ValueError):
        dsm_loss(lambda x, t: x, np.zeros((0, 2)), np.zeros(0),
                 np.zeros((0, 2)), SCHEDULE)


def test_denoiser_loss_zero_when_head_returns_data():
    # a network whose residual is x_0 - x_t: with zero noise and
    # alpha(t) >= 1/2, x_t = alpha x_0 lies within a factor 2 of x_0, so
    # the residual is exact (Sterbenz) and the head x_t + r is x_0 exactly
    rng = derive_rng(5, 2)
    x0 = rng.standard_normal((8, 2))
    t = rng.uniform(0.02, 0.3, 8)
    assert np.all(marginal_coeffs(SCHEDULE, t)[0] >= 0.5)

    class Oracle:
        temb_width = 2

        class mlp:
            @staticmethod
            def forward(parts):
                return x0 - parts[0], ([], [])

        @staticmethod
        def params():
            return []

    loss, grads = denoiser_loss(Oracle(), x0, t, np.zeros((8, 2)), SCHEDULE)
    assert loss == 0.0 and grads == []


def test_trained_score_net_approaches_analytic_dsm_loss():
    # two-component 2-D mixture: a small trained net should come within
    # 10% of the analytic score's held-out score-matching loss
    gmm = GaussianMixture(weights=[0.5, 0.5], means=[[-1.0, 0.0], [1.0, 0.0]],
                          variances=[0.25, 0.25])
    analytic = row_time_gmm_score(gmm, SCHEDULE)
    net = MlpScore(2, (64, 64), 16, derive_rng(6, 0), schedule=SCHEDULE)
    adam = AdamState.for_params(net.params(), lr=2e-3)
    rng = derive_rng(6, 1)
    for _ in range(1500):
        x0 = gmm.sample(rng, 128)
        t = rng.uniform(0.02, 1.0, size=128)
        eps = rng.standard_normal((128, 2))
        _, grads = denoiser_loss(net, x0, t, eps, SCHEDULE)
        adam_step(net.params(), grads, adam)

    # held-out protocol: times in [0.1, 1], where the score-matching loss
    # compares model structure instead of the 1/sigma^2 conditional-score
    # floor that dominates as t -> 0
    held_rng = derive_rng(6, 2)
    x0 = gmm.sample(held_rng, 4096)
    t = held_rng.uniform(0.1, 1.0, size=4096)
    eps = held_rng.standard_normal((4096, 2))
    with tape.no_grad():
        net_loss = float(dsm_loss(net, x0, t, eps, SCHEDULE).value)
        ana_loss = float(dsm_loss(analytic, x0, t, eps, SCHEDULE).value)
    assert net_loss <= 1.10 * ana_loss, (net_loss, ana_loss)


@pytest.mark.parametrize("rows", [12, 40])
def test_denoiser_loss_equals_its_tape_reference_bit_for_bit(rows,
                                                             monkeypatch):
    # the array fit against the taped loss of the same network: loss and
    # every weight and bias gradient are bit-equal, both for a batch
    # narrower than the 24-wide hidden layers (whose weight gradients are
    # OuterSum terms, folded by tape.dense) and for a wider one
    net = MlpScore(3, (24, 24), 8, derive_rng(7, 0), schedule=SCHEDULE)
    rng = derive_rng(7, rows)
    x0 = rng.standard_normal((rows, 3))
    t = rng.uniform(0.0, 1.0, rows)
    eps = rng.standard_normal((rows, 3))
    folds = []
    fold = tape.OuterSum.array
    monkeypatch.setattr(tape.OuterSum, "array",
                        lambda self: folds.append(self) or fold(self))
    loss, grads = denoiser_loss(net, x0, t, eps, SCHEDULE, eps=0.02)
    assert bool(folds) == (rows < 24)
    ref = taped_denoiser_loss(net, x0, t, eps, SCHEDULE, eps=0.02)
    tape.backward(ref)
    assert loss == float(ref.value)
    assert len(grads) == len(net.params())
    for p, g in zip(net.params(), grads):
        assert type(g) is np.ndarray and np.array_equal(g, p.grad), p.name


@pytest.mark.parametrize("components,dim", [(1, 2), (2, 2), (3, 3)])
def test_gmm_score_is_one_node_whose_vjp_is_the_hessian_vector_product(
        components, dim):
    rng = derive_rng(6, components)
    gmm = GaussianMixture(
        weights=np.full(components, 1.0 / components),
        means=rng.standard_normal((components, dim)) * 1.5,
        variances=rng.uniform(0.2, 1.2, components),
    )
    x0 = rng.standard_normal((5, dim)) * 1.5
    g = rng.standard_normal((5, dim))
    h = 1e-6
    for t in (0.05, 0.4, 0.9):
        x = tape.leaf(x0)
        out = gmm_score(gmm, x, t, SCHEDULE)
        assert out.parents == (x,)
        tape.backward(ops.reduce_sum(ops.mul(out, g)))
        fd = np.zeros_like(x0)
        for idx in np.ndindex(*x0.shape):
            xp, xm = x0.copy(), x0.copy()
            xp[idx] += h
            xm[idx] -= h
            fd[idx] = ((gmm_score_np(gmm, xp, t, SCHEDULE) * g).sum()
                       - (gmm_score_np(gmm, xm, t, SCHEDULE) * g).sum()) / (2 * h)
        np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-7)


def test_score_net_call_and_tweedie_are_three_nodes():
    net = MlpScore(4, (8,), 6, derive_rng(6, 9), schedule=SCHEDULE)
    tape.freeze(net.params())
    x = tape.leaf(derive_rng(6, 10).standard_normal((3, 4)))
    score = net(x, 0.3)
    out = ops.tweedie(x, 0.3, score, SCHEDULE)
    nodes = tape._toposort(ops.reduce_sum(out))
    assert len(nodes) == 5      # x, fused Mlp, tail, tweedie, sum
    assert out.parents == (x, score)
    # the same values as the per-op composition
    alpha, sigma = marginal_coeffs(SCHEDULE, 0.3)
    m = x.value + net.mlp(np.concatenate(
        [x.value, time_features(0.3, 6, batch=3)], axis=1)).value
    assert np.array_equal(score.value,
                          (m * float(alpha) - x.value) * (1.0 / sigma ** 2))
    # and its input gradient, through the tail and the Mlp, is the FD one
    w = derive_rng(6, 11).standard_normal((3, 4))
    tape.backward(ops.reduce_sum(ops.mul(out, w)))

    def f(v):
        with tape.no_grad():
            return float((tweedie(v, 0.3, net(v, 0.3).value, SCHEDULE) * w).sum())

    fd = np.zeros((3, 4))
    for idx in np.ndindex(3, 4):
        xp, xm = x.value.copy(), x.value.copy()
        xp[idx] += 1e-6
        xm[idx] -= 1e-6
        fd[idx] = (f(xp) - f(xm)) / 2e-6
    np.testing.assert_allclose(x.grad, fd, rtol=1e-6, atol=1e-7)
