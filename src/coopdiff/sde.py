"""Variance-preserving diffusion coefficients and Euler-Maruyama stepping.

Conventions used everywhere in this package:
  * diffusion time t runs in [0, 1]; t = 0 is data, t = 1 is (almost) pure
    noise. beta(t) = beta_min + t * (beta_max - beta_min).
  * alpha(t) = exp(-0.5 * int_0^t beta(s) ds), sigma(t)^2 = 1 - alpha(t)^2,
    so a forward perturbation is x_t = alpha(t) x_0 + sigma(t) eps.
  * sampling integrates t DOWNWARD from 1 to a terminal cutoff eps > 0 with
    positive step sizes dt_k = t_k - t_{k+1}; the reverse drift at a state x
    with score s is  mu = 0.5 * beta(t) * x + beta(t) * s  and one EM step is
    x' = x + (mu + g u) dt + g sqrt(dt) xi  with g(t) = sqrt(beta(t)).
    ``reverse_drift`` and ``em_step`` map arrays to arrays; their adjoints
    are ``reverse_drift_adjoint`` and ``em_step_adjoint``.
  * all stochasticity is drawn from ``NoiseStream``, which hashes an integer
    key into a counter-based Philox generator: identical (seed, key) pairs
    give identical draws, which is how paired-noise comparisons between
    samplers and training modes are implemented.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta variance-preserving schedule."""

    beta_min: float = 0.1
    beta_max: float = 20.0

    def __post_init__(self):
        if not (0.0 < self.beta_min <= self.beta_max):
            raise ValueError(
                f"need 0 < beta_min <= beta_max, got {self.beta_min}, {self.beta_max}"
            )

    def beta(self, t):
        return self.beta_min + np.asarray(t, dtype=np.float64) * (
            self.beta_max - self.beta_min
        )

    def alpha(self, t):
        # closed form of exp(-0.5 * int_0^t beta): the integral of a linear
        # beta is beta_min * t + 0.5 * t^2 * (beta_max - beta_min)
        t = np.asarray(t, dtype=np.float64)
        integral = self.beta_min * t + 0.5 * t * t * (self.beta_max - self.beta_min)
        return np.exp(-0.5 * integral)

    def sigma(self, t):
        a = self.alpha(t)
        return np.sqrt(np.maximum(1.0 - a * a, 0.0))

    def g(self, t):
        return np.sqrt(self.beta(t))


def marginal_coeffs(schedule: NoiseSchedule, t):
    """(alpha(t), sigma(t)) with alpha^2 + sigma^2 = 1; t must lie in [0, 1].

    For a float ``t`` the pair (two numpy scalars) is memoised per
    (schedule, t), so the calls of one rollout step share it.
    """
    if isinstance(t, float):
        return _scalar_coeffs(schedule, t)
    return _coeffs(schedule, t)


def _coeffs(schedule: NoiseSchedule, t):
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError(f"diffusion time outside [0, 1]: {t!r}")
    return schedule.alpha(t_arr), schedule.sigma(t_arr)


@functools.lru_cache(maxsize=4096)
def _scalar_coeffs(schedule: NoiseSchedule, t: float):
    return _coeffs(schedule, t)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing diffusion times, from 1 down to eps."""

    times: Array
    eps: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a time grid needs at least two points")
        if np.any(np.diff(t) >= 0):
            raise ValueError("grid times must be strictly decreasing")

    @property
    def steps(self) -> int:
        return self.times.size

    @property
    def dts(self) -> Array:
        return -np.diff(self.times)


def make_time_grid(steps: int, eps: float = 1e-3) -> TimeGrid:
    """``steps`` linearly spaced times from 1 down to ``eps``."""
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    return TimeGrid(times=np.linspace(1.0, eps, steps), eps=float(eps))


def reverse_drift(x: Array, t: float, score: Array,
                  schedule: NoiseSchedule) -> Array:
    """mu = -f(x, t) + g(t)^2 * score = 0.5 beta(t) x + beta(t) score."""
    if x.shape != score.shape:
        raise ValueError(
            f"score shape {score.shape} does not match state shape {x.shape}"
        )
    if not (0.0 < t <= 1.0):
        raise ValueError(f"reverse drift needs t in (0, 1], got {t}")
    b = float(schedule.beta(t))
    return x * (0.5 * b) + score * b


def reverse_drift_adjoint(g: Array, t: float, schedule: NoiseSchedule):
    """``reverse_drift``'s adjoints of x and score, given the drift's."""
    b = float(schedule.beta(t))
    return g * (0.5 * b), g * b


def em_step(x: Array, dt: float, drift: Array, g: float, noise: Array,
            control: Array | None = None) -> Array:
    """x' = x + (drift + g * control) * dt + g * sqrt(dt) * noise (noise
    supplied by the caller; no control term when ``control`` is None)."""
    if dt <= 0.0:
        raise ValueError(f"EM step size must be positive, got {dt}")
    g = float(g)
    total = drift if control is None else drift + control * g
    out = x + total * dt
    kick = g * np.sqrt(dt)
    if kick != 0.0:
        out = out + kick * noise
    return out


def em_step_adjoint(a: Array, dt: float, g: float):
    """``em_step``'s adjoints of x, drift and control, given the new x's."""
    a_drift = a * dt
    return a, a_drift, a_drift * g


# ---------------------------------------------------------------------------
# seeded noise and rng derivation
# ---------------------------------------------------------------------------

# stream ids namespace the NoiseStream keys
STREAM_INIT = 0      # trajectory initialisation draws
STREAM_STEP = 1      # per-step EM noise


class NoiseStream:
    """Counter-keyed standard-normal source.

    ``normal(key, shape)`` is a pure function of (seed, key): every call
    constructs a Philox generator from ``SeedSequence([seed, *key])``.
    Samplers key draws by (stream, update, step), so two runs that share a
    seed consume identical noise at the same logical position even if they
    interleave other draws differently.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)

    def generator(self, key: tuple[int, ...]) -> np.random.Generator:
        parts = [self.seed] + [int(k) for k in key]
        if any(p < 0 for p in parts):
            raise ValueError(f"noise keys must be non-negative, got {key}")
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(parts)))

    def normal(self, key: tuple[int, ...], shape) -> Array:
        return self.generator(key).standard_normal(shape)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for auxiliary randomness (init, data, ...)."""
    return NoiseStream(seed).generator(tuple(key))
