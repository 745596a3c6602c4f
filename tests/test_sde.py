"""Schedule coefficients, time grids, EM stepping, seeded noise."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from coopdiff.sde import (
    NoiseSchedule,
    NoiseStream,
    em_step,
    em_step_adjoint,
    make_time_grid,
    marginal_coeffs,
    reverse_drift,
    reverse_drift_adjoint,
)

SCHEDULE = NoiseSchedule()


def test_marginal_coeffs_at_zero():
    alpha, sigma = marginal_coeffs(SCHEDULE, 0.0)
    assert alpha == 1.0 and sigma == 0.0


def test_marginal_coeffs_at_one_vs_quadrature():
    # independent oracle: integrate beta numerically
    integral, err = integrate.quad(SCHEDULE.beta, 0.0, 1.0)
    assert err < 1e-10
    assert abs(integral - 10.05) < 1e-9  # 0.1 + 19.9 / 2 by hand
    alpha, sigma = marginal_coeffs(SCHEDULE, 1.0)
    np.testing.assert_allclose(alpha, np.exp(-0.5 * integral), rtol=1e-12)
    np.testing.assert_allclose(alpha, np.exp(-5.025), rtol=1e-12)
    np.testing.assert_allclose(sigma, np.sqrt(1 - alpha ** 2), rtol=1e-12)


def test_marginal_coeffs_quadrature_at_random_times():
    rng = np.random.default_rng(0)
    for t in rng.uniform(0, 1, size=20):
        integral, _ = integrate.quad(SCHEDULE.beta, 0.0, t)
        alpha, _ = marginal_coeffs(SCHEDULE, t)
        np.testing.assert_allclose(alpha, np.exp(-0.5 * integral), rtol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0))
def test_vp_identity(t):
    alpha, sigma = marginal_coeffs(SCHEDULE, t)
    assert abs(alpha ** 2 + sigma ** 2 - 1.0) < 1e-12


def test_vp_identity_dense_grid():
    alpha, sigma = marginal_coeffs(SCHEDULE, np.linspace(0, 1, 10_001))
    assert np.max(np.abs(alpha ** 2 + sigma ** 2 - 1.0)) < 1e-12


def test_marginal_coeffs_domain_error():
    with pytest.raises(ValueError):
        marginal_coeffs(SCHEDULE, 1.5)
    with pytest.raises(ValueError):
        marginal_coeffs(SCHEDULE, -0.1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(beta_min=0.0)
    with pytest.raises(ValueError):
        NoiseSchedule(beta_min=2.0, beta_max=1.0)


def test_reverse_drift_zero_state_zero_score():
    mu = reverse_drift(np.zeros((1, 2)), 0.3, np.zeros((1, 2)), SCHEDULE)
    np.testing.assert_array_equal(mu, np.zeros((1, 2)))


def test_reverse_drift_hand_formula():
    # x = [1, 0], score = [-1, 0]: mu = [c/2 - c, 0] = [-c/2, 0], c = beta(0.5)
    c = float(SCHEDULE.beta(0.5))
    mu = reverse_drift(np.array([[1.0, 0.0]]), 0.5,
                       np.array([[-1.0, 0.0]]), SCHEDULE)
    np.testing.assert_allclose(mu, [[-0.5 * c, 0.0]], rtol=1e-14)


def test_reverse_drift_score_is_log_density_gradient():
    # for data N(0, I) the diffused marginal stays N(0, I); check the
    # analytic score -x against finite differences of its log density
    def log_density(x):
        return -0.5 * float(x @ x) - np.log(2 * np.pi)

    x = np.array([0.7, -0.3])
    h = 1e-6
    for i in range(2):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (log_density(xp) - log_density(xm)) / (2 * h)
        np.testing.assert_allclose(fd, -x[i], rtol=1e-6)


def test_reverse_drift_shape_error():
    with pytest.raises(ValueError):
        reverse_drift(np.zeros((1, 3)), 0.5, np.zeros((1, 2)), SCHEDULE)


def test_reverse_drift_time_domain():
    with pytest.raises(ValueError):
        reverse_drift(np.zeros((1, 2)), 0.0, np.zeros((1, 2)), SCHEDULE)


def dot(pairs) -> tuple[float, float]:
    """sum <a, b> over the (a, b) pairs, and the sum of |a * b|, the
    scale a rounding error of the sum is relative to."""
    return (float(sum((a * b).sum() for a, b in pairs)),
            float(sum(np.abs(a * b).sum() for a, b in pairs)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_reverse_drift_adjoint_identity(seed):
    # <a, mu(x, s)> = <a_x, x> + <a_s, s> for the helper's (a_x, a_s)
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(1e-3, 1.0))
    x, s, a = (rng.standard_normal((2, 3, 5)) for _ in range(3))
    lhs, lhs_scale = dot([(a, reverse_drift(x, t, s, SCHEDULE))])
    rhs, rhs_scale = dot(zip(reverse_drift_adjoint(a, t, SCHEDULE), (x, s)))
    assert abs(lhs - rhs) <= 1e-12 * (lhs_scale + rhs_scale)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_em_step_adjoint_identity(seed):
    # with zero noise the step is linear in (x, drift, control)
    rng = np.random.default_rng(seed)
    dt, g = float(rng.uniform(1e-3, 0.1)), float(rng.uniform(0.1, 5.0))
    x, mu, u, a = (rng.standard_normal((2, 3, 5)) for _ in range(4))
    out = em_step(x, dt, mu, g, np.zeros_like(x), control=u)
    lhs, lhs_scale = dot([(a, out)])
    rhs, rhs_scale = dot(zip(em_step_adjoint(a, dt, g), (x, mu, u)))
    assert abs(lhs - rhs) <= 1e-12 * (lhs_scale + rhs_scale)


def test_em_step_frozen_dynamics():
    x = np.array([[1.0, 2.0]])
    out = em_step(x, 0.1, np.zeros((1, 2)), 0.0, np.ones((1, 2)))
    np.testing.assert_array_equal(out, x)


def test_em_step_deterministic_euler():
    out = em_step(np.array([[1.0]]), 0.5, np.array([[2.0]]), 0.0,
                  np.zeros((1, 1)))
    np.testing.assert_array_equal(out, [[2.0]])


def test_em_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        em_step(np.ones((1, 1)), 0.0, np.ones((1, 1)), 1.0, np.ones((1, 1)))


def test_em_variance_growth_matches_brownian_motion():
    # drift 0, g = 1 over total time T: terminal variance ~ T
    paths, steps, total = 100_000, 20, 1.0
    dt = total / steps
    stream = NoiseStream(123)
    x = np.zeros((paths, 1))
    for k in range(steps):
        x = em_step(x, dt, np.zeros((paths, 1)), 1.0,
                    stream.normal((1, 0, k), (paths, 1)))
    var = x.var()
    se = total * np.sqrt(2.0 / (paths - 1))  # sd of a chi^2-based estimate
    assert abs(var - total) < 3 * se


def test_make_time_grid_basic():
    grid = make_time_grid(2, 0.5)
    np.testing.assert_array_equal(grid.times, [1.0, 0.5])
    grid = make_time_grid(500, 1e-3)
    assert grid.steps == 500
    np.testing.assert_allclose(grid.dts, (1 - 1e-3) / 499, rtol=1e-9)
    assert np.all(grid.dts > 0)


def test_make_time_grid_validation():
    with pytest.raises(ValueError):
        make_time_grid(1, 0.5)
    with pytest.raises(ValueError):
        make_time_grid(10, 0.0)
    with pytest.raises(ValueError):
        make_time_grid(10, 1.0)


def test_noise_stream_keying():
    stream = NoiseStream(5)
    a = stream.normal((1, 2, 3), (4,))
    b = stream.normal((1, 2, 3), (4,))
    c = stream.normal((1, 2, 4), (4,))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, NoiseStream(6).normal((1, 2, 3), (4,)))
    with pytest.raises(ValueError):
        NoiseStream(-1)
    with pytest.raises(ValueError):
        stream.normal((-1, 0), (2,))


def test_em_trajectory_bit_reproducible():
    def run():
        stream = NoiseStream(42)
        x = stream.normal((0, 0, 0), (8, 2))
        for k in range(50):
            drift = -0.5 * x
            x = em_step(x, 0.01, drift, 1.3,
                        stream.normal((1, 0, k), (8, 2)))
        return x

    np.testing.assert_array_equal(run(), run())
