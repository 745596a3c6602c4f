"""Coupled-SDE rollouts, the differentiable control objective, training
loops, and baseline samplers.

One rollout simulates B trajectories of the N coupled controlled
reverse-time SDEs on a shared time grid. The agents' states are one
(N, B, d) node X, so every step below is one op on the whole stack:

    S     = S(X, t_k)                          shared score model, N*B rows
    Xh    = tweedie(X, t_k, S)                 denoised look-ahead
    Y, Yh = aggregate(X), aggregate(Xh)        joint state and Tweedie estimate
    U     = controls(k, t_k, X, Y, grad psi(Yh))   (N, B, d), one per agent
    mu    = 0.5 b X + b S                      reverse drift
    X    <- X + (mu + g U) dt + g sqrt(dt) xi

accumulating the control energy and the running cost; the terminal cost is
evaluated on the aggregate of the final states. The rollout is recorded on
the tape end to end (score evaluations included), one node per piece: the
score call (two, plus the reshapes of ``stacked_score``), ``tweedie``, each
``aggregate``, the drift, the EM step with its g U term, the control
energy and the running cost (time weight and batch mean folded in). The
objective is one node over the terminal cost and every step's terms,
summed in the order of the running and energy accumulators; it lists the
terms last step first, so backward reaches each step's terms next to
that step. At the end of a step, ``tape.release`` drops the values of the
nodes it recorded, all but the next state's: the VJPs keep what backward
reads, so the graph holds nothing else.

The score model and psi are evaluated once per step, for every control
source. When the step needs grad psi(Yh) -- the learned control consumes
it, or the rollout is recorded and Yh requires grad -- one sub-tape on a
detached Yh leaf (``tweedie_guidance``) returns both psi(Yh) and its
per-row gradient. The running cost enters the main tape as one node with
that value and the VJP g * grad psi(Yh), and the learned control reads
G = masks * grad psi(Yh) from the same pass. G enters the graph as a
constant, so adjoints never flow from the controls back into the score
model through it. Each agent keeps its own policy, so the learned control
is the one place that loops over agents. The training-free baseline
differentiates psi through the score model instead: its step is one
sub-tape on a detached X leaf (``state_guidance``) that yields S, Yh,
psi(Yh) and grad_X psi(Yh), and the rollout takes them as constants (the
baseline has no parameters to train). The zero control uses no gradient.

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

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import tape
from .aggregation import MaskAggregator, aggregate, scatter_adjoint
from .control import (
    ControlPolicy,
    cdps_control,
    eval_control,
    state_guidance,
    tweedie_guidance,
)
from .costs import SocConfig
from .optim import AdamState, adam_step
from .scores import stacked_score, tweedie
from .sde import (
    STREAM_INIT,
    STREAM_STEP,
    NoiseSchedule,
    NoiseStream,
    TimeGrid,
    derive_rng,
    em_step,
    reverse_drift,
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
    """Detached per-rollout bookkeeping.

    ``loss_u`` is the unweighted control accumulator
    sum_k dt_k (1/N) sum_i mean_B ||u_i_k||^2, ``loss_c`` the unscaled
    running-cost accumulator sum_k dt_k mean_B psi(Y0_hat_k), and
    ``loss_psi`` the batch-mean terminal cost, so that with default agent
    weights  hat_J = lambda loss_u + alpha loss_c + loss_psi.
    """

    times: Array
    dts: Array
    batch: int
    num_agents: int
    loss_u: float = 0.0
    loss_c: float = 0.0
    loss_psi: float = 0.0
    objective: float = 0.0
    per_sample_psi: Array | None = None
    terminal_y: Array | None = None
    terminal_states: Array | None = None            # (N, B, d)
    states: list = field(default_factory=list)      # [k] -> (N, B, d)
    controls: list = field(default_factory=list)    # [k] -> (N, B, d)
    y0_hats: list = field(default_factory=list)     # [k] -> (B, d)


@dataclass(frozen=True)
class TrainPlan:
    """Iteration budgets and step sizes for control optimisation."""

    mode: str = "joint"              # "joint", "controlwise" or "cdps"
    updates: int = 1000              # gradient updates (joint mode)
    outer_iters: int = 300           # outer sweeps (control-wise mode)
    inner_steps: int = 5             # updates per agent per sweep
    batch: int = 16
    lr: float = 1e-4
    shuffle_agents: bool = False
    checkpoint_every: int = 0        # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.mode not in ("joint", "controlwise", "cdps"):
            raise ValueError(
                f"mode must be joint, controlwise or cdps, got {self.mode!r}"
            )
        for name in ("updates", "outer_iters", "inner_steps", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError("the learning rate must be positive")


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

    def __call__(self, k, t, xs, y, grad_psi):
        guidance = scatter_adjoint(self.agg, grad_psi)
        return tape.stack([
            eval_control(p, tape.index(xs, i), y, t, guidance[i])
            for i, p in enumerate(self.policies)
        ])


class ZeroControls:
    guidance = None

    def __call__(self, k, t, xs, y, grad_psi):
        return tape.constant(np.zeros_like(xs.value))


class CdpsControls:
    """Training-free guidance: scaled cost gradient w.r.t. the states."""

    guidance = "state"

    def __init__(self, alpha_guid):
        self.alpha_guid = float(alpha_guid)

    def __call__(self, k, t, xs, y, grad_x):
        return cdps_control(xs, t, tape.constant(grad_x), self.alpha_guid)


# ---------------------------------------------------------------------------
# the rollout
# ---------------------------------------------------------------------------

def _batch_mean(per_sample: Node, batch: int) -> Node:
    return tape.scale(tape.reduce_sum(per_sample), 1.0 / batch)


def _control_energy(controls: Node, weights: Array, batch: int):
    """One node for sum_i weights_i mean_B ||u_i||^2, and the per-agent
    batch means of ||u_i||^2, shape (N,)."""
    u = controls.value
    sq = (u * u).sum(axis=2).sum(axis=1) * (1.0 / batch)

    def vjp(g):
        coef = (g * weights) * (1.0 / batch)
        half = u * coef[:, None, None]
        return half + half

    return tape.op((sq * weights).sum(), (controls,), (vjp,)), sq


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
    record_history: bool = False,
) -> tuple[Node, RolloutRecord]:
    """Simulate the coupled controlled system and assemble hat-J."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    n_agents = agg.num_agents
    dim = agg.dim
    times = grid.times
    dts = grid.dts
    lambdas = cfg.lambda_weights(n_agents)
    record = RolloutRecord(
        times=times, dts=dts, batch=batch, num_agents=n_agents
    )

    sigma0 = float(schedule.sigma(times[0]))
    init = noise.normal((STREAM_INIT, update_index, 0), (n_agents, batch, dim))
    xs = tape.constant(sigma0 * init)              # (N, B, d)

    # the objective's per-step terms, in step order; their sums keep the
    # order of the running and the control-energy accumulators
    terms: list[Node] = []
    running_sum = control_sum = 0.0
    loss_u = 0.0
    loss_c = 0.0

    for k in range(times.size - 1):
        t = float(times[k])
        dt = float(dts[k])
        g_k = float(schedule.g(t))

        if record_history:
            record.states.append(xs.value)

        # the step's nodes, all but the next state released at its end
        with tape.scope() as recorded:
            y_k = aggregate(agg, xs)
            if control_fn.guidance == "state":
                # one sub-tape gives the step's scores, Y0_hat, psi and the
                # state gradient; the rollout reuses them as constants
                step = state_guidance(score_fn, agg, psi, schedule,
                                      xs.value, t)
                scores = tape.constant(step.scores)
                y0_hat = tape.constant(step.y0_hat)
                psi_value, grad = step.psi, step.grad
            else:
                scores = stacked_score(score_fn, xs, t)
                y0_hat = aggregate(agg, tweedie(xs, t, scores, schedule))
                # one psi pass: the guidance sub-tape also yields psi, and
                # the running cost reuses its gradient as VJP
                if control_fn.guidance == "tweedie" or y0_hat.requires_grad:
                    psi_value, grad = tweedie_guidance(psi, y0_hat)
                else:
                    psi_value, grad = psi(y0_hat).value, None  # (B, 1)
            step_cost = psi_value.sum() * (1.0 / batch)
            loss_c += float(step_cost) * dt
            weight = cfg.running_weight(t) * dt
            running = step_cost * weight
            running_sum = running_sum + running
            if y0_hat.requires_grad:
                # grad is grad psi(Y0_hat) here; the time weight and the
                # batch mean are folded into the one node
                terms.append(tape.rowwise(y0_hat, running,
                                          grad * (weight * (1.0 / batch))))

            controls = control_fn(k, t, xs, y_k, grad)

            energy, sq = _control_energy(controls, lambdas * dt, batch)
            control_sum = control_sum + energy.value
            terms.append(energy)
            loss_u += float((sq / n_agents).sum()) * dt

            if record_history:
                record.controls.append(controls.value)
                record.y0_hats.append(y0_hat.value)

            xi = noise.normal((STREAM_STEP, update_index, k),
                              (n_agents, batch, dim))
            mu = reverse_drift(xs, t, scores, schedule)
            xs = em_step(xs, dt, mu, g_k, xi, control=controls)
            finite = np.isfinite(xs.value).all(axis=(1, 2))
            if not finite.all():
                raise DivergedRolloutError(step=k,
                                           agent=int(np.argmin(finite)))
        tape.release(n for n in recorded if n is not xs)

    if record_history:
        record.states.append(xs.value)

    y_term = aggregate(agg, xs)
    psi_term = psi(y_term)                         # (B, 1)
    terminal_node = _batch_mean(psi_term, batch)

    # one node for terminal + sum of running terms + sum of energy terms.
    # Its parents list the terms last step first, so backward's topological
    # order reaches each step's terms next to that step, and the adjoints
    # they send into the step are not all alive at once.
    value = terminal_node.value + running_sum + control_sum
    parents = [n for n in (terminal_node, *reversed(terms)) if n.requires_grad]
    objective = tape.fused(value, parents, lambda g: (g,) * len(parents))

    record.loss_u = loss_u
    record.loss_c = loss_c
    record.loss_psi = float(terminal_node.value)
    record.objective = float(objective.value)
    record.per_sample_psi = psi_term.value[:, 0].copy()
    record.terminal_y = y_term.value
    record.terminal_states = xs.value
    return objective, record


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
    record_history: bool = False,
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
        record_history=record_history,
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
    if plan.mode != "joint":
        raise ValueError(f"joint_ido needs mode='joint', got {plan.mode!r}")
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
    if plan.mode != "controlwise":
        raise ValueError(
            f"controlwise_ido needs mode='controlwise', got {plan.mode!r}"
        )
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
    for n, active in updates:
        cause = None
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
    record_history: bool = False,
    noise_index: int = 0,
) -> RolloutRecord:
    """Draw samples under trained policies (no parameter updates)."""
    with tape.no_grad():
        _, record = bptt_rollout(
            policies, score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
            record_history=record_history,
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
    record_history: bool = False,
    noise_index: int = 0,
) -> RolloutRecord:
    """The coupled system with zero control everywhere."""
    with tape.no_grad():
        _, record = coupled_rollout(
            ZeroControls(), score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
            record_history=record_history,
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
    record_history: bool = False,
    noise_index: int = 0,
) -> RolloutRecord:
    """Training-free baseline: per-step scaled cost gradients as controls."""
    control_fn = CdpsControls(alpha_guid)
    with tape.no_grad():
        _, record = coupled_rollout(
            control_fn, score_fn, agg, cfg, grid, psi, schedule,
            NoiseStream(seed), batch, update_index=noise_index,
            record_history=record_history,
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
