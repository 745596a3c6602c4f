"""The benchmark's two workloads.

Each workload is a single-process closed loop: one caller, no added
threads, and the next update or chunk is issued only when the previous
one has returned. A workload builds its inputs from a generated config
whose only per-run value is the seed, times its operations, and checks
every output; see README.md for why each workload exists and which layers
it stresses or bypasses.

In a traced run every other operation is traced, so per-layer figures and
the tracing overhead (traced minus untraced operation time) come from the
same process.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coopdiff import checkpoint, optimize
from coopdiff.harness import (
    build_assets,
    load_config,
    make_policies,
    with_overrides,
)
from coopdiff.optimize import (
    DivergedRolloutError,
    TrainingDivergedError,
    controlwise_ido,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_uncontrolled,
)
from coopdiff.sde import make_time_grid

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SHAPES16_CFG = BENCH_DIR / "configs" / "shapes16.cfg"

ACCURACY_BAR = 0.90          # the criterion-5 target-class bar


@dataclass
class Run:
    """What one workload run measured and checked."""

    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)         # untraced operations
    traced_op_s: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)   # their request ids
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    run_s: float = 0.0
    info: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def end_to_end(self) -> dict:
        """The end-to-end metrics of BENCHMARK.json."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "op_s_p50": statistics.median(self.op_s),
            "op_s_tail": tail(self.op_s)[0],
            "ops_per_s": len(self.op_s) / sum(self.op_s),
            "run_s": self.run_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


class OpClock:
    """Times consecutive operations; with a tracer, traces every other one."""

    def __init__(self, run: Run, tracer=None):
        self.run = run
        self.tracer = tracer
        self.index = 0
        self.start = None

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.active = self.index % 2 == 1
            self.tracer.request = self.index
        self.start = time.perf_counter()

    def end(self) -> None:
        elapsed = time.perf_counter() - self.start
        self.start = None
        if self.tracer is not None and self.tracer.active:
            self.tracer.active = False
            self.run.traced_op_s.append(elapsed)
            self.run.traced_ops.append(self.index)
        else:
            self.run.op_s.append(elapsed)
        self.index += 1

    def abandon(self) -> None:
        """Drop an operation begun after the last one the caller issued."""
        self.start = None
        if self.tracer is not None:
            self.tracer.active = False


def generate_config(template: Path, out_dir: Path, **overrides):
    """Write ``template`` with ``overrides`` (config key -> value) and load it."""
    lines = [
        line for line in template.read_text().splitlines()
        if line.split("#", 1)[0].split("=", 1)[0].strip() not in overrides
    ]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path = out_dir / f"{template.stem}.generated.cfg"
    path.write_text("\n".join(lines) + "\n")
    return load_config(path)


def _setup(run: Run, config, tracer):
    """Build the task assets, timing it as the run's set-up."""
    if tracer is not None:
        tracer.request = "setup"
    start = time.perf_counter()
    assets = build_assets(config)
    run.setup_s.append(time.perf_counter() - start)
    if tracer is None:
        return assets
    # the score model and the cost reach the trainers and samplers as
    # callables, so they are wrapped here rather than patched
    return dataclasses.replace(
        assets,
        score_fn=tracer.wrap("scores.score", assets.score_fn),
        psi=tracer.wrap("costs.psi", assets.psi),
    )


@contextlib.contextmanager
def rollout_log(log: list):
    """Record each training rollout's objective (None when it diverged).

    The trainers only report the objective in their return value, and a
    time-limited run stops them from ``on_update``, so the rollout they
    look up by name is wrapped to keep it.
    """
    real = optimize.bptt_rollout

    def logged(*args, **kwargs):
        try:
            objective, record = real(*args, **kwargs)
        except DivergedRolloutError:
            log.append(None)
            raise
        log.append(record.objective)
        return objective, record

    optimize.bptt_rollout = logged
    try:
        yield log
    finally:
        optimize.bptt_rollout = real


class _Stop(Exception):
    """Raised from ``on_update`` when the time budget is spent."""


def _all_finite(arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


# ---------------------------------------------------------------------------
# shapes16-train
# ---------------------------------------------------------------------------

def shapes16_train(seed: int, seconds: float, work_dir: Path, tracer=None,
                   overrides=None) -> Run:
    """BPTT updates on shapes16 (N=2): joint_ido, then controlwise_ido."""
    run = Run()
    t0 = time.perf_counter()
    config = generate_config(
        SHAPES16_CFG, work_dir, **{**(overrides or {}), "seed": seed,
                                   "num_agents": 2, "method": "joint"})
    assets = _setup(run, config, tracer)
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    args = (assets.score_fn, assets.agg, config.soc(), grid, assets.psi,
            config.schedule(), config.seed)
    clock = OpClock(run, tracer)
    deadline = time.perf_counter()
    phases = []
    for trainer, method in ((joint_ido, "joint"), (controlwise_ido, "controlwise")):
        deadline += seconds / 2
        objectives: list = []
        policies = make_policies(config, assets.dim)

        def on_update(update, pols, deadline=deadline):
            clock.end()
            grads = [p.grad for pol in pols for p in pol.params()]
            if not _all_finite(grads):
                run.fail(f"{method} update {update}: non-finite gradient")
            if time.perf_counter() >= deadline:
                raise _Stop
            clock.begin()

        plan = with_overrides(config, method=method).plan()
        clock.begin()
        with rollout_log(objectives):
            try:
                trainer(plan, policies, *args, on_update=on_update)
                clock.abandon()
            except _Stop:
                pass
            except TrainingDivergedError as err:
                clock.abandon()
                run.fail(f"{method}: {err}")
        run.attempted += len(objectives)
        phases.append(objectives)
        _save_policies(run, policies, work_dir / method, tracer)
        for update, value in enumerate(objectives):
            if value is None or not math.isfinite(value):
                run.fail(f"{method} update {update}: objective {value}")
    joint, cw = phases
    if not (joint and cw and joint[0] is not None and joint[0] == cw[0]):
        run.fail(f"update-0 objectives differ: joint {joint[:1]}, "
                 f"controlwise {cw[:1]}")
    run.info["updates"] = {"joint": len(joint), "controlwise": len(cw)}
    run.run_s = time.perf_counter() - t0
    return run


def _save_policies(run: Run, policies, out_dir: Path, tracer) -> None:
    """Checkpoint the trained policies, as the end of a training run does."""
    if tracer is not None:
        tracer.request = "post"
        tracer.active = True
    for pol in policies:
        path = out_dir / f"policy_agent{pol.agent_index}.npz"
        checkpoint.save_checkpoint(path, pol.state_dict())
        if not path.is_file():
            run.fail(f"checkpoint {path.name} was not written")
    if tracer is not None:
        tracer.active = False


# ---------------------------------------------------------------------------
# shapes16-sample
# ---------------------------------------------------------------------------

def shapes16_sample(seed: int, seconds: float, work_dir: Path, tracer=None,
                    overrides=None) -> Run:
    """256-sample chunks at N=4; one operation is a cycle of one chunk
    each from the uncontrolled, controlled and cdps samplers."""
    run = Run()
    t0 = time.perf_counter()
    config = generate_config(
        SHAPES16_CFG, work_dir, **{**(overrides or {}), "seed": seed,
                                   "num_agents": 4})
    assets = _setup(run, config, tracer)
    policies = make_policies(config, assets.dim)
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    common = (assets.agg, config.soc(), grid, assets.psi, config.schedule(),
              config.seed, config.eval_chunk)
    methods = {
        "uncontrolled": lambda k: sample_uncontrolled(
            assets.score_fn, *common, noise_index=k),
        "controlled": lambda k: sample_controlled(
            policies, assets.score_fn, *common, noise_index=k),
        "cdps": lambda k: sample_cdps(
            assets.score_fn, *common, alpha_guid=config.cdps_alpha_guid,
            noise_index=k),
    }
    chunk_s = {name: [] for name in methods}
    clock = OpClock(run, tracer)
    # a traced run traces every other cycle, so it needs at least two
    min_cycles = 1 if tracer is None else 2
    start = time.perf_counter()
    cycle = 0
    while time.perf_counter() - start < seconds or cycle < min_cycles:
        records = {}
        clock.begin()
        for name, draw in methods.items():
            run.attempted += 1
            chunk_start = time.perf_counter()
            try:
                records[name] = draw(cycle)
            except (DivergedRolloutError, FloatingPointError) as err:
                run.fail(f"{name} chunk {cycle}: {err}")
                continue
            chunk_s[name].append(time.perf_counter() - chunk_start)
        clock.end()
        for name, record in records.items():
            _check_chunk(run, name, cycle, record, assets)
        cycle += 1
    run.info["samples_per_s"] = {
        name: config.eval_chunk * len(times) / sum(times)
        for name, times in chunk_s.items() if times
    }
    run.info["cycles"] = cycle
    run.run_s = time.perf_counter() - t0
    return run


def _check_chunk(run: Run, name: str, cycle: int, record, assets) -> None:
    if not _all_finite([record.terminal_y, *record.terminal_states]):
        run.fail(f"{name} chunk {cycle}: non-finite terminal sample")
        return
    accuracy = float(assets.accuracy_fn(record.terminal_y).mean())
    run.info.setdefault("accuracy", {}).setdefault(name, []).append(accuracy)
    if name != "uncontrolled" and accuracy < ACCURACY_BAR:
        run.fail(f"{name} chunk {cycle}: target accuracy {accuracy:.3f} "
                 f"< {ACCURACY_BAR}")


WORKLOADS = {
    "shapes16-train": shapes16_train,
    "shapes16-sample": shapes16_sample,
}


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond.

    With ten samples or fewer no percentile has ten beyond it; the maximum
    (percentile 100) stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n
