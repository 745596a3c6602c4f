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
arrays, for training and sampling alike. A training rollout (``train``
set, as ``bptt_rollout`` does, and some weight trained) also appends one
record per step holding only what its backward reads and cannot rebuild:
X_k, grad psi(Yh_k), the stacked policy's cache (weights, hidden
activations) and the step's score call's pullback. It returns hat-J as one
``tape.fused`` node over the trained weights, whose VJP is the BPTT
reverse sweep k = K-1, ..., 0: it carries the adjoint of X_k through the
pieces' plain-array adjoint helpers (``em_step_adjoint``,
``reverse_drift_adjoint``, ``tweedie_adjoint``, ``scatter_adjoint``),
adds the step's energy and running-cost adjoints, rebuilds Y_k, the
guidance, the time features and the controls U_k (the stacked
networks' last layers from the cache) with the forward's ops, so bit for
bit, and hands each stacked weight's ``a.T @ g`` terms to one
``nn.OuterSum``, whose folded (N, ...) sum gives agent i its row. The
sweep frees each record once past it, so it runs once. A sampling
rollout keeps no record, and its hat-J is a constant node. A rollout
also returns a ``RolloutRecord`` of its detached outputs (the loss parts,
terminal states and costs).

Every control source runs one step body: the score model and psi are
evaluated once per step, and S, Yh and psi(Yh) come from the same lines.
Both are only called, on arrays, as the ``scores`` and ``costs``
contracts promise: ``score_fn(x, t)`` returns the scores and their
pullback, ``psi(y, grad)`` the costs and their gradient. A rollout keeps
a step's pullback only while something reads it: the baseline's state
gradient, within the step, and the sweep. A sampler keeps none for a
sweep, and neither does step 0 of a training rollout (X_0 is drawn)
unless the score model has trained weights. The pieces between them (Tweedie, the aggregate,
the drift, the EM step) map arrays to arrays. When the step needs
grad psi(Yh) (the learned control), ``tweedie_guidance`` gives psi(Yh)
and its per-row gradient; the sweep reuses that gradient for the running
cost, and the learned control reads G = masks * grad psi(Yh) from it as
a constant, so no adjoint flows from the controls back into the score
model through it. The training-free baseline differentiates psi through
the score model instead: ``state_guidance`` pulls the step's
grad psi(Yh) back through the aggregate, Tweedie and the step's score
call, giving grad_X psi(Yh) on arrays (the baseline has no parameters to
train). The zero control uses no gradient. Each step's arrays are
released before the next step allocates, so a sampling chunk holds one
step's arrays at a time.

Every method runs this one rollout. The naive product-of-experts baseline
is the uncontrolled rollout of one agent that owns every coordinate, under
the experts' summed score (``scores.summed_score``).

Both trainers run one update loop and differ only in their schedule of
(update index, agents to step): joint training steps every agent at every
update, control-wise training one agent per block of updates, and both
return the training curve, one ``CurvePoint`` per update applied. An
update drops its objective node right after ``tape.backward``, so
training holds one rollout's step records at a time.

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
from .aggregation import MaskAggregator, aggregate, make_mask, scatter_adjoint
from .control import (
    ControlPolicy,
    eval_control,  # noqa: F401  (bench/tracing.py times it under this name)
    state_guidance,
    tweedie_guidance,
)
from .costs import SocConfig
from .nn import Mlp, accumulate, dense
from .optim import AdamState, adam_step
from .scores import summed_score, tweedie, tweedie_adjoint
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
    """Training aborted after repeated divergence; carries the curve so
    far, one ``CurvePoint`` per update applied."""

    def __init__(self, message: str, curve: list):
        super().__init__(message)
        self.curve = curve


@dataclass
class RolloutRecord:
    """Detached per-rollout outputs.

    ``loss_u`` is the unweighted control accumulator
    sum_k dt_k (1/N) sum_i mean_B ||u_i_k||^2, ``loss_c`` the unscaled
    running-cost accumulator sum_k dt_k mean_B psi(Y0_hat_k), and
    ``loss_psi`` the batch-mean terminal cost, so that with a constant
    running weight  hat_J = lambda loss_u + alpha loss_c + loss_psi.
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
# A control source maps the per-step context (k, t, X, Y, G) to the
# (N, B, d) controls and the caches its backward reads. Its ``guidance``
# names the cost gradient G the rollout computes for it: "tweedie" for
# grad psi(Y0_hat), "state" for grad_X psi(Y0_hat) through the score
# model, None for no gradient (the rollout then passes None). Keeping
# zero controls and learned controls on the same arithmetic path makes
# "zero policy" and "uncontrolled" runs bit-identical. A source with leaves
# (``params()``) has ``backward`` and ``split`` for the sweep's sums.

class PolicyControls:
    """Learned controls fed the cost gradient at the Tweedie aggregate."""

    guidance = "tweedie"

    def __init__(self, policies: Sequence[ControlPolicy], agg):
        if len(policies) != agg.num_agents:
            raise ValueError(
                f"{len(policies)} policies for {agg.num_agents} agents"
            )
        self.policies, self.agg = list(policies), agg
        self.policy = ControlPolicy(
            None, Mlp.stack([p.nn1 for p in policies]),
            Mlp.stack([p.nn2 for p in policies]), policies[0].temb_width)

    def params(self) -> list[Node]:
        return [p for policy in self.policies for p in policy.params()]

    def __call__(self, k, t, xs, y, grad_psi):
        """The (N, B, d) controls and the stacked policy's forward cache."""
        guidance = scatter_adjoint(self.agg, grad_psi)
        return self.policy.forward(xs, y, guidance, t)

    def backward(self, cache, t, xs, y, grad_psi, a_u, energy, a_x=None):
        """The stacked tensors' adjoints (None for an untrained network)
        given the controls' adjoint ``a_u`` from the EM step, the inputs
        rebuilt with the forward's ops; the control energy ``energy``
        ||U||^2 adds 2 energy U into ``a_u``. With the states' adjoint
        ``a_x``, its state parts are added in and Y's adjoint returned."""
        guidance = scatter_adjoint(self.agg, grad_psi)
        half = self.policy.control(cache, xs, y, guidance, t) * energy
        a_u += half + half
        d = self.agg.dim
        span = (0, 2 * d) if a_x is not None else None
        grads, g_in = self.policy.backward(cache, xs, y, guidance, t, a_u,
                                           span)
        if not span:
            return grads, None
        a_x += g_in[..., :d]
        return grads, g_in[..., d:].sum(axis=0)

    def split(self, sums: dict) -> dict:
        """Leaf id -> row i (agent i's) of its tensor's summed adjoint."""
        n = len(self.policy.params())
        return {id(p): dense(sums[j % n])[j // n]
                for j, p in enumerate(self.params()) if j % n in sums}


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
        """u = -alpha_guid * grad_X psi(Y0_hat): with alpha_guid > 0 the
        control pushes the states down the cost."""
        return grad_x * -self.alpha_guid, None


# ---------------------------------------------------------------------------
# the rollout
# ---------------------------------------------------------------------------

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
    train: bool = False,
) -> tuple[Node, RolloutRecord]:
    """Simulate the coupled controlled system and assemble hat-J. With
    ``train``, hat-J is one node over the leaves that require grad, whose
    VJP is the reverse sweep over the step records; without it, or when
    nothing is trained, it is a constant and no record is kept."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    n_agents = agg.num_agents
    dim = agg.dim
    times = grid.times
    dts = grid.dts
    energy_weight = cfg.control_weight / n_agents
    params = control_fn.params()
    parents = [p for p in params if train and p.requires_grad]
    records = [] if parents else None
    extra: dict = {}                  # a score model's trained weights

    sigma0 = float(schedule.sigma(times[0]))
    xs = sigma0 * noise.normal((STREAM_INIT, update_index, 0),
                               (n_agents, batch, dim))     # (N, B, d)

    running_sum = control_sum = loss_u = loss_c = 0.0
    for k in range(times.size - 1):
        t, dt = float(times[k]), float(dts[k])
        # one call of the shared score model on the N*B rows
        scores, pull = score_fn(xs.reshape(-1, dim), t)
        scores = scores.reshape(xs.shape)
        # cdps reads the pullback in this step; X_0 is drawn, so the
        # sweep reads step 0's only for trained score weights
        vjp = pull[0] if control_fn.guidance == "state" else None
        if records is not None and (k > 0 or pull[1]):
            extra.update((id(n), n) for n in pull[1])
        else:
            pull = None
        y0_hat = aggregate(agg, tweedie(xs, t, scores, schedule))
        # one psi pass: the guidance also yields psi, and the sweep
        # reuses its gradient for the running cost
        if control_fn.guidance == "tweedie":
            psi_value, grad = tweedie_guidance(psi, y0_hat)
        else:
            psi_value, grad = psi(y0_hat, grad=vjp is not None)
        del y0_hat
        if vjp is not None:
            # grad psi(Y0_hat) pulled back to the states through this step
            grad = state_guidance(agg, schedule, vjp, grad, t)
            vjp = None
        step_cost = psi_value.sum() * (1.0 / batch)
        loss_c += float(step_cost) * dt
        running_sum = running_sum + step_cost * (cfg.running_weight(t) * dt)

        us, caches = control_fn(k, t, xs, aggregate(agg, xs), grad)
        sq = (us * us).sum(axis=2).sum(axis=1) * (1.0 / batch)
        control_sum = control_sum + (sq * (energy_weight * dt)).sum()
        loss_u += float((sq / n_agents).sum()) * dt

        xi = noise.normal((STREAM_STEP, update_index, k),
                          (n_agents, batch, dim))
        mu = reverse_drift(xs, t, scores, schedule)
        x_next = em_step(xs, dt, mu, float(schedule.g(t)), xi, control=us)
        if records is not None:
            records.append((xs, grad, caches, pull))
        # the step's arrays go before the next step allocates its own
        del scores, grad, us, caches, pull, xi, mu
        xs = x_next
        finite = np.isfinite(xs).all(axis=(1, 2))
        if not finite.all():
            raise DivergedRolloutError(step=k, agent=int(np.argmin(finite)))

    y_term = aggregate(agg, xs)
    if records is None:
        psi_term, grad_term = psi(y_term, grad=False)          # (B, 1)
    else:
        psi_term, grad_term = tweedie_guidance(psi, y_term)
    terminal = psi_term.sum() * (1.0 / batch)
    parents += extra.values()

    def sweep(g):
        """BPTT: the adjoint of X_k, carried from k = K down to 0; each
        step's record is freed once passed, so it runs once."""
        if not records:
            raise RuntimeError("a rollout's reverse sweep runs once: it "
                               "frees the step records as it goes")
        grads, sums, owned = {}, {}, set()   # by leaf id, by tensor index
        a_x = scatter_adjoint(agg, (g * (1.0 / batch)) * grad_term)
        for k in range(len(records) - 1, -1, -1):
            xs_k, grad, caches, pull = records.pop()
            t, dt = float(times[k]), float(dts[k])
            # EM step: the drift's and the control's adjoints
            _, a_mu, a_u = em_step_adjoint(a_x, dt, float(schedule.g(t)))
            # the drift's parts; X_0 is drawn, so it gets none
            a_x_mu, a_s = reverse_drift_adjoint(a_mu, t, schedule)
            a_x = a_x + a_x_mu if k > 0 else None
            # the controls', the control energy's included
            u_grads, a_y = control_fn.backward(
                caches, t, xs_k, aggregate(agg, xs_k), grad, a_u,
                (g * (energy_weight * dt)) * (1.0 / batch), a_x)
            for j, a in enumerate(u_grads):
                if a is not None:
                    accumulate(sums, owned, j, a)
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
                a_x_s, a_leaves = vjp(a_s.reshape(-1, dim))
                for leaf, a in zip(leaves, a_leaves):
                    accumulate(grads, owned, id(leaf), a)
                if a_x is not None:
                    a_x += a_x_s.reshape(a_x.shape)
        grads.update(control_fn.split(sums))
        return tuple(dense(grads[id(p)]) for p in parents)

    value = terminal + running_sum + control_sum
    objective = tape.fused(value, parents, sweep)
    return objective, RolloutRecord(
        loss_u=loss_u,
        loss_c=loss_c,
        loss_psi=float(terminal),
        objective=float(value),
        per_sample_psi=psi_term[:, 0].copy(),
        terminal_y=y_term,
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
    return coupled_rollout(PolicyControls(policies, agg), score_fn, agg, cfg,
                           grid, psi, schedule, noise, batch,
                           update_index=update_index, train=True)


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
) -> list[CurvePoint]:
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
) -> list[CurvePoint]:
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
           seed, on_update) -> list[CurvePoint]:
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
    attached. The curve has one point per update applied.
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
                    curve,
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
    return curve


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample(control_fn, score_fn, agg, cfg, grid, psi, schedule, seed,
            batch, noise_index) -> RolloutRecord:
    """The record of one rollout under ``control_fn`` without step
    records, on the noise of (``seed``, ``noise_index``)."""
    return coupled_rollout(
        control_fn, score_fn, agg, cfg, grid, psi, schedule,
        NoiseStream(seed), batch, update_index=noise_index,
    )[1]


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
    return _sample(PolicyControls(policies, agg), score_fn, agg, cfg, grid,
                   psi, schedule, seed, batch, noise_index)


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
    return _sample(ZeroControls(), score_fn, agg, cfg, grid, psi, schedule,
                   seed, batch, noise_index)


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
    return _sample(CdpsControls(alpha_guid), score_fn, agg, cfg, grid, psi,
                   schedule, seed, batch, noise_index)


def sample_poe_naive(
    score_fns: Sequence,
    dim: int,
    cfg: SocConfig,
    grid: TimeGrid,
    psi,
    schedule: NoiseSchedule,
    seed: int,
    batch: int,
    noise_index: int = 0,
) -> RolloutRecord:
    """Reverse SDE driven by the SUM of the component scores: the
    uncontrolled rollout of one agent owning all ``dim`` coordinates.

    This is the biased product-of-experts shortcut: summing scores of the
    diffused components does not give the score of the diffused product
    except at t = 0, so the sampler is exact only when one score is passed
    (ordinary sampling). With one N(0, I) expert repeated n times the
    summed score is -n x and the terminal per-coordinate variance relaxes
    to 1 / (2 n - 1), not the true product variance 1 / n.
    """
    return sample_uncontrolled(summed_score(score_fns),
                               make_mask("identity", 1, dim), cfg, grid, psi,
                               schedule, seed, batch, noise_index)
