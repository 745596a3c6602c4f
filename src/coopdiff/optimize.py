"""Coupled-SDE rollouts, the differentiable control objective, training
loops, and baseline samplers.

One rollout simulates B trajectories of the N coupled controlled
reverse-time SDEs on a shared time grid. The agents' states are one
(N, B, d) array X, so every step below is one op on the whole stack:

    S     = S(X, t_k)                          shared score model, N*B rows
    Xh    = tweedie(X, t_k, S)                 denoised look-ahead
    Y, Yh = aggregate(X), aggregate(Xh)        joint state and Tweedie estimate
    U     = controls(k, t_k, X, Y, grad psi(Yh))   (N, B, d), one per agent
    mu    = 0.5 b X + b S                      reverse drift
    X    <- X + (mu + g U) dt + g sqrt(dt) xi

accumulating the control energy and the running cost; the terminal cost is
evaluated on the aggregate of the final states. Every step runs in plain
arrays, for training and sampling alike. A training rollout (grad enabled,
some policy weight trained) also appends one record per step holding only
what its backward reads: X_k, U_k, grad psi(Yh_k), the policies' caches
(weights, hidden activations) and the step's score call's pullback. It
returns hat-J as one ``tape.fused`` node over the trained weights, whose
VJP is the BPTT reverse sweep k = K-1, ..., 0: it carries the adjoint of
X_k through the pieces' adjoint helpers (the ones their tape nodes use),
adds the step's energy and running-cost adjoints, rebuilds Y_k, the
guidance and the time features with the forward's ops, and hands each
weight's ``a.T @ g`` terms to one ``tape.OuterSum``. The sweep frees each
record once past it, so it runs once. A rollout also returns a
``RolloutRecord`` of its detached outputs (the loss parts, terminal
states and costs).

The score model and psi are evaluated once per step, for every control
source; both are only called, as plain callables. When the step needs
grad psi(Yh) (the learned control), ``tweedie_guidance`` gives psi(Yh) and
its per-row gradient from the cost node's VJP; the sweep reuses that
gradient for the running cost, and the learned control reads G = masks *
grad psi(Yh) from it as a constant, so no adjoint flows from the controls
back into the score model through it. The training-free baseline
differentiates psi through the score model instead: its step is one
sub-tape on a detached X leaf (``state_guidance``) that yields S, Yh,
psi(Yh) and grad_X psi(Yh) (the baseline has no parameters to train).
The zero control uses no gradient.

Both trainers run one update loop and differ only in their schedule of
(update index, agents to step): joint training steps every agent at every
update, control-wise training one agent per block of updates. An update
drops its graph right after backward, so training holds one rollout's
graph at a time.

All noise is drawn from a ``NoiseStream`` keyed by (stream, update, step),
so runs sharing a seed are pairable draw by draw: joint and control-wise
training consume identical noise at the same update index, a zero control
reproduces the uncontrolled sampler bit for bit, and baseline comparisons
at evaluation time are paired.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tape
from .aggregation import MaskAggregator, aggregate, scatter_adjoint
from .control import (
    ControlPolicy,
    cdps_control,
    eval_control,  # noqa: F401  (bench/tracing.py times it under this name)
    state_guidance,
    tweedie_guidance,
)
from .costs import SocConfig
from .optim import AdamState, adam_step
from .scores import stacked_score, tweedie, tweedie_adjoint
from .sde import (
    STREAM_INIT,
    STREAM_STEP,
    NoiseSchedule,
    NoiseStream,
    TimeGrid,
    derive_rng,
    em_step,
    em_step_adjoint,
    reverse_drift,
    reverse_drift_adjoint,
)
from .tape import Node

Array = np.ndarray


class DivergedRolloutError(RuntimeError):
    """A step left some state non-finite; ``step`` names the EM step and
    ``agent`` the first agent with a non-finite state."""

    def __init__(self, step: int, agent: int):
        super().__init__(
            f"rollout diverged at step {step} (agent {agent}): "
            "non-finite state"
        )
        self.step = step
        self.agent = agent


class TrainingDivergedError(RuntimeError):
    """Training aborted after repeated divergence; carries the curve so far."""

    def __init__(self, message: str, curve: list):
        super().__init__(message)
        self.curve = curve


@dataclass
class RolloutRecord:
    """Detached per-rollout outputs.

    ``loss_u`` is the unweighted control accumulator
    sum_k dt_k (1/N) sum_i mean_B ||u_i_k||^2, ``loss_c`` the unscaled
    running-cost accumulator sum_k dt_k mean_B psi(Y0_hat_k), and
    ``loss_psi`` the batch-mean terminal cost, so that with default agent
    weights  hat_J = lambda loss_u + alpha loss_c + loss_psi.
    """

    loss_u: float
    loss_c: float
    loss_psi: float
    objective: float
    per_sample_psi: Array        # (B,) terminal psi per sample
    terminal_y: Array            # (B, d)
    terminal_states: Array       # (N, B, d)


@dataclass(frozen=True)
class TrainPlan:
    """Iteration budgets and step sizes for control optimisation. The
    trainer a caller picks, ``joint_ido`` or ``controlwise_ido``, sets the
    schedule; each reads only its own budget fields."""

    updates: int = 1000              # gradient updates (joint training)
    outer_iters: int = 300           # outer sweeps (control-wise training)
    inner_steps: int = 5             # updates per agent per sweep
    batch: int = 16
    lr: float = 1e-4
    shuffle_agents: bool = False
    checkpoint_every: int = 0        # 0 disables periodic checkpoints

    def __post_init__(self):
        for name in ("updates", "outer_iters", "inner_steps", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr!r}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got "
                             f"{self.checkpoint_every}")


# ---------------------------------------------------------------------------
# control sources
# ---------------------------------------------------------------------------
# A control source maps the per-step context (k, t, X, Y, G) to one
# (N, B, d) control node. Its ``guidance`` names the cost gradient G the
# rollout computes for it: "tweedie" for grad psi(Y0_hat), "state" for
# grad_X psi(Y0_hat) through the score model, None for no gradient (the
# rollout then passes None). Keeping zero controls and learned controls
# on the same arithmetic path makes "zero policy" and "uncontrolled" runs
# bit-identical.

class PolicyControls:
    """Learned controls fed the cost gradient at the Tweedie aggregate."""

    guidance = "tweedie"

    def __init__(self, policies: Sequence[ControlPolicy], agg):
        self.policies = list(policies)
        self.agg = agg
        self.sizes = [len(policy.params()) for policy in self.policies]

    def params(self) -> list[Node]:
        return [p for policy in self.policies for p in policy.params()]

    def __call__(self, k, t, xs, y, grad_psi):
        """The (N, B, d) controls and each policy's forward cache."""
        guidance = scatter_adjoint(self.agg, grad_psi)
        us = np.empty_like(xs)
        caches = []
        for i, policy in enumerate(self.policies):
            us[i], cache = policy.forward(xs[i], y, guidance[i], t)
            caches.append(cache)
        return us, caches

    def backward(self, caches, t, xs, y, grad_psi, a_u, live, a_x=None):
        """The parameter adjoints (one per ``params()`` entry, None where
        not ``live``) given the controls' adjoint ``a_u``, from the step's
        inputs rebuilt with the forward's ops; with the states' adjoint
        ``a_x``, the state parts are added into it and the aggregate
        input's adjoint is returned too."""
        guidance = scatter_adjoint(self.agg, grad_psi)
        d = self.agg.dim
        span = (0, 2 * d) if a_x is not None else None
        grads, a_y = [], None
        for i, (policy, cache) in enumerate(zip(self.policies, caches)):
            flags = live[len(grads):len(grads) + self.sizes[i]]
            g, g_in = policy.backward(cache, xs[i], y, guidance[i], t,
                                      a_u[i], flags, span)
            grads += g
            if span:
                a_x[i] += g_in[:, :d]
                a_y = g_in[:, d:] if a_y is None else a_y + g_in[:, d:]
        return grads, a_y


class ZeroControls:
    guidance = None
    params = list            # no parameters: params() is []

    def __call__(self, k, t, xs, y, grad_psi):
        return np.zeros_like(xs), None


class CdpsControls:
    """Training-free guidance: scaled cost gradient w.r.t. the states."""

    guidance = "state"

    params = list            # no parameters: params() is []

    def __init__(self, alpha_guid):
        self.alpha_guid = float(alpha_guid)

    def __call__(self, k, t, xs, y, grad_x):
        return cdps_control(xs, t, grad_x, self.alpha_guid).value, None


# ---------------------------------------------------------------------------
# the rollout
# ---------------------------------------------------------------------------

def _score_pullback(score_fn, xs: Array, t: float, k: int):
    """The step's scores and, when they depend on a leaf that requires
    grad, their pullback with its leaves (the state as None). X_0 is
    drawn, so step 0's differentiates only trained score weights."""
    rows = xs.reshape(-1, xs.shape[2])            # N*B rows, as stacked
    x = tape.leaf(rows) if k > 0 else tape.constant(rows)
    scores = score_fn(x, t)
    leaves, vjp = tape.pullback(scores)
    pull = (vjp, [None if n is x else n for n in leaves]) if leaves else None
    return scores.value.reshape(xs.shape), pull


def coupled_rollout(
    control_fn: Callable,
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    noise: NoiseStream,
    batch: int,
    update_index: int = 0,
) -> tuple[Node, RolloutRecord]:
    """Simulate the coupled controlled system and assemble hat-J: one
    node over the leaves that require grad, whose VJP is the reverse
    sweep over the step records (a constant when nothing is trained)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    n_agents = agg.num_agents
    dim = agg.dim
    times = grid.times
    dts = grid.dts
    lambdas = cfg.lambda_weights(n_agents)
    params = control_fn.params()
    live = tape.live(params)
    records = [] if any(live) else None
    extra: dict = {}                  # a score model's trained weights

    sigma0 = float(schedule.sigma(times[0]))
    init = noise.normal((STREAM_INIT, update_index, 0), (n_agents, batch, dim))
    xs = sigma0 * init                             # (N, B, d)

    running_sum = control_sum = loss_u = loss_c = 0.0
    for k in range(times.size - 1):
        t, dt = float(times[k]), float(dts[k])
        g_k = float(schedule.g(t))

        y_k = aggregate(agg, xs).value
        pull = None
        if control_fn.guidance == "state":
            # one sub-tape gives the step's scores, Y0_hat, psi and the
            # state gradient
            scores, _, psi_value, grad = state_guidance(
                score_fn, agg, psi, schedule, xs, t)
        else:
            if records is None:
                scores = stacked_score(score_fn, xs, t).value
            else:
                scores, pull = _score_pullback(score_fn, xs, t, k)
                if pull is not None:
                    extra.update((id(n), n) for n in pull[1] if n is not None)
            y0_hat = aggregate(agg, tweedie(xs, t, scores, schedule))
            # one psi pass: the guidance also yields psi, and the sweep
            # reuses its gradient for the running cost
            if control_fn.guidance == "tweedie":
                psi_value, grad = tweedie_guidance(psi, y0_hat)
            else:
                psi_value, grad = psi(y0_hat).value, None  # (B, 1)
        step_cost = psi_value.sum() * (1.0 / batch)
        loss_c += float(step_cost) * dt
        running_sum = running_sum + step_cost * (cfg.running_weight(t) * dt)

        us, caches = control_fn(k, t, xs, y_k, grad)
        sq = (us * us).sum(axis=2).sum(axis=1) * (1.0 / batch)
        control_sum = control_sum + (sq * (lambdas * dt)).sum()
        loss_u += float((sq / n_agents).sum()) * dt

        xi = noise.normal((STREAM_STEP, update_index, k),
                          (n_agents, batch, dim))
        mu = reverse_drift(xs, t, scores, schedule)
        x_next = em_step(xs, dt, mu, g_k, xi, control=us).value
        if records is not None:
            records.append((xs, us, grad, caches, pull))
        xs = x_next
        finite = np.isfinite(xs).all(axis=(1, 2))
        if not finite.all():
            raise DivergedRolloutError(step=k, agent=int(np.argmin(finite)))

    y_term = aggregate(agg, xs)
    if records is None:
        psi_term, grad_term = psi(y_term).value, None  # (B, 1)
    else:
        psi_term, grad_term = tweedie_guidance(psi, y_term)
    terminal = psi_term.sum() * (1.0 / batch)
    parents = [p for p, keep in zip(params, live) if keep] + [*extra.values()]

    def sweep(g):
        """BPTT: the adjoint of X_k, carried from k = K down to 0; each
        step's record is freed once passed, so it runs once."""
        if not records:
            raise RuntimeError("a rollout's reverse sweep runs once: it "
                               "frees the step records as it goes")
        grads, owned = {}, set()
        a_x = scatter_adjoint(agg, (g * (1.0 / batch)) * grad_term)
        for k in range(len(records) - 1, -1, -1):
            xs_k, us, grad, caches, pull = records.pop()
            t, dt = float(times[k]), float(dts[k])
            # EM step: the drift's and the control's adjoints, plus the
            # control energy's
            _, a_mu, a_u = em_step_adjoint(a_x, dt, float(schedule.g(t)))
            half = us * ((g * (lambdas * dt)) * (1.0 / batch))[:, None, None]
            a_u += half + half
            # the drift's parts; X_0 is drawn, so it gets none
            a_x_mu, a_s = reverse_drift_adjoint(a_mu, t, schedule)
            a_x = a_x + a_x_mu if k > 0 else None
            p_grads, a_y = control_fn.backward(
                caches, t, xs_k, aggregate(agg, xs_k).value, grad, a_u, live,
                a_x)
            for p, a in zip(params, p_grads):
                if a is not None:
                    tape.accumulate(grads, owned, id(p), a)
            if a_x is None and pull is None:
                continue
            # Tweedie's, from the running cost at Y0_hat =
            # aggregate(tweedie(X, S))
            weight = cfg.running_weight(t) * dt
            a_xh, a_s_xh = tweedie_adjoint(
                scatter_adjoint(agg, grad * (weight * (1.0 / batch))), t,
                schedule)
            a_s += a_s_xh
            if a_x is not None:
                a_x += a_xh
                a_x += scatter_adjoint(agg, a_y)
            if pull is not None:
                vjp, leaves = pull
                for leaf, a in zip(leaves, vjp(a_s.reshape(-1, dim))):
                    if leaf is not None:
                        tape.accumulate(grads, owned, id(leaf), a)
                    elif a_x is not None:
                        a_x += a.reshape(a_x.shape)
        return tuple(grads[id(p)] for p in parents)

    value = terminal + running_sum + control_sum
    objective = tape.fused(value, parents, sweep)
    return objective, RolloutRecord(
        loss_u=loss_u,
        loss_c=loss_c,
        loss_psi=float(terminal),
        objective=float(value),
        per_sample_psi=psi_term[:, 0].copy(),
        terminal_y=y_term.value,
        terminal_states=xs,
    )


def bptt_rollout(
    policies: Sequence[ControlPolicy],
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    noise: NoiseStream,
    batch: int,
    update_index: int = 0,
) -> tuple[Node, RolloutRecord]:
    """Differentiable rollout under the learned per-agent controls."""
    if len(policies) != agg.num_agents:
        raise ValueError(
            f"{len(policies)} policies for {agg.num_agents} agents"
        )
    return coupled_rollout(
        PolicyControls(policies, agg),
        score_fn,
        agg,
        cfg,
        grid,
        psi,
        schedule,
        noise,
        batch,
        update_index=update_index,
    )


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

@dataclass
class CurvePoint:
    update: int
    loss_u: float
    loss_c: float
    loss_psi: float
    objective: float

    def row(self) -> tuple:
        return (self.update, self.loss_u, self.loss_c, self.loss_psi, self.objective)


@dataclass
class TrainingResult:
    policies: list
    curve: list
    total_updates: int          # updates applied (skipped ones excluded)


def joint_ido(
    plan: TrainPlan,
    policies: Sequence[ControlPolicy],
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    on_update: Callable | None = None,
) -> TrainingResult:
    """Simultaneous gradient descent on every agent's control parameters:
    each of the ``plan.updates`` updates steps every policy."""
    policies = list(policies)
    every = range(len(policies))
    return _train(
        plan, policies, ((n, every) for n in range(plan.updates)),
        score_fn, agg, cfg, grid, psi, schedule, seed, on_update,
    )


def controlwise_ido(
    plan: TrainPlan,
    policies: Sequence[ControlPolicy],
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    on_update: Callable | None = None,
) -> TrainingResult:
    """Coordinate descent over agents.

    Outer sweeps select one agent at a time; during that agent's
    ``inner_steps`` updates every other policy is held fixed (their
    gradients are computed but never applied, and their Adam state never
    advances). With ``shuffle_agents`` sweep ``outer`` visits the agents in
    the order ``derive_rng(seed, 9, outer).permutation(N)``.
    """
    policies = list(policies)

    def blocks():
        update = 0
        for outer in range(plan.outer_iters):
            order = range(len(policies))
            if plan.shuffle_agents:
                order = derive_rng(seed, 9, outer).permutation(len(policies))
            for i in order:
                for _ in range(plan.inner_steps):
                    yield update, (int(i),)
                    update += 1

    return _train(
        plan, policies, blocks(),
        score_fn, agg, cfg, grid, psi, schedule, seed, on_update,
    )


def _train(plan, policies, updates, score_fn, agg, cfg, grid, psi, schedule,
           seed, on_update) -> TrainingResult:
    """The update loop both trainers share.

    ``updates`` yields (update index, indices of the agents to step). Per
    update: rollout, backward, one Adam step per active policy, a curve
    point and ``on_update``. The update's graph is dropped right after
    backward, before the Adam step and the next rollout, so an update
    holds one rollout's graph at its peak, not two. The update index keys
    the noise stream, so joint and control-wise runs with the same seed
    consume identical noise at the same update. A diverged rollout or a
    non-finite gradient of an active policy skips the update and halves
    every learning rate once; a second one aborts with the partial curve
    attached. ``total_updates`` counts the updates applied, one per curve
    point.
    """
    if not any(policy.params() for policy in policies):
        raise ValueError("no learnable parameters; use the cdps sampler instead")
    adams = [
        AdamState.for_params(policy.params(), lr=plan.lr) for policy in policies
    ]
    noise = NoiseStream(seed)
    curve: list[CurvePoint] = []
    lr_halved = False
    params = [p for policy in policies for p in policy.params()]
    for n, active in updates:
        cause = grads = None
        for p in params:         # the last update's gradients are done with
            p.grad = None
        try:
            objective, rec = bptt_rollout(
                policies, score_fn, agg, cfg, grid, psi, schedule, noise,
                plan.batch, update_index=n,
            )
        except DivergedRolloutError as err:
            failure, cause = str(err), err
        else:
            tape.backward(objective)
            del objective        # one graph alive: drop it before the next
            grads = {i: [p.grad for p in policies[i].params()] for i in active}
            finite = all(np.isfinite(g).all() for gs in grads.values() for g in gs)
            failure = None if finite else "non-finite policy gradient"
        if failure is not None:
            if lr_halved:
                raise TrainingDivergedError(
                    f"update {n}: {failure} (after halving the learning rate)",
                    [c.row() for c in curve],
                ) from cause
            lr_halved = True
            for adam in adams:
                adam.lr = adam.lr / 2.0
            continue
        for i in active:
            adam_step(policies[i].params(), grads[i], adams[i])
        curve.append(CurvePoint(n, rec.loss_u, rec.loss_c, rec.loss_psi, rec.objective))
        if on_update is not None:
            on_update(n, policies)
    return TrainingResult(policies, curve, len(curve))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def sample_controlled(
    policies,
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    batch: int,
    noise_index: int = 0,
) -> RolloutRecord:
    """Draw samples under trained policies (no parameter updates)."""
    with tape.no_grad():
        _, record = bptt_rollout(
            policies, score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
        )
    return record


def sample_uncontrolled(
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    batch: int,
    noise_index: int = 0,
) -> RolloutRecord:
    """The coupled system with zero control everywhere."""
    with tape.no_grad():
        _, record = coupled_rollout(
            ZeroControls(), score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
        )
    return record


def sample_cdps(
    score_fn,
    agg: MaskAggregator,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    batch: int,
    alpha_guid: float = 100.0,
    noise_index: int = 0,
) -> RolloutRecord:
    """Training-free baseline: per-step scaled cost gradients as controls."""
    control_fn = CdpsControls(alpha_guid)
    with tape.no_grad():
        _, record = coupled_rollout(
            control_fn, score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
        )
    return record


def sample_poe_naive(
    score_fns: Sequence,
    grid: TimeGrid,
    schedule: NoiseSchedule,
    seed: int,
    batch: int,
    dim: int,
    noise_index: int = 0,
) -> Array:
    """Reverse SDE driven by the SUM of the component scores.

    This is the biased product-of-experts shortcut: summing scores of the
    diffused components does not give the score of the diffused product
    except at t = 0, so the sampler is exact only when one score is passed
    (ordinary sampling). With one N(0, I) expert repeated n times the
    summed score is -n x and the terminal per-coordinate variance relaxes
    to 1 / (2 n - 1), not the true product variance 1 / n.
    """
    if not score_fns:
        raise ValueError("need at least one score model")
    noise = NoiseStream(seed)
    times = grid.times
    sigma0 = float(schedule.sigma(times[0]))
    x = sigma0 * noise.normal((STREAM_INIT, noise_index, 0), (1, batch, dim))[0]
    with tape.no_grad():
        for k in range(times.size - 1):
            t = float(times[k])
            dt = float(times[k] - times[k + 1])
            g_k = float(schedule.g(t))
            x_node = tape.constant(x)
            total = None
            for fn in score_fns:
                s = fn(x_node, t)
                total = s if total is None else tape.add(total, s)
            mu = reverse_drift(x_node, t, total, schedule)
            xi = noise.normal((STREAM_STEP, noise_index, k), (1, batch, dim))[0]
            x = em_step(x_node, dt, mu, g_k, xi).value
            if not np.all(np.isfinite(x)):
                raise DivergedRolloutError(step=k, agent=0)
    return x
