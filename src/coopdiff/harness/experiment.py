"""End-to-end experiment runs: asset building, method execution, metrics.

A run is fully determined by its config and seed: datasets, network inits,
training noise and evaluation noise all derive from the config seed
through keyed generators, so re-running a config reproduces every output
file byte for byte, also at another BLAS thread count (CI compares one
thread with two).

The CLI's ``train-*`` verbs call the fits ``build_assets`` calls
(``train_score_model``, ``fit_classifier``), and ``sample`` evaluates and
writes its samples as ``run_experiment`` does (``evaluate_method``,
``write_samples``).

Outputs per run directory (a run first deletes those an earlier run
left there, but for config.txt, which it rewrites):
  config.txt    normalised config snapshot
  metrics.csv   one header + one row (method, counts, mean psi, accuracy, ...)
  curve.csv     per-update training curve (header only for sampling methods)
  samples.pgm   8x8-style grid of terminal aggregated samples (image tasks)
  samples.csv   terminal aggregated samples as rows (gmm2d)
  agent<i>.pgm  per-agent terminal states, controlled region outlined
  policy_agent<i>.npz  policy checkpoints (learned methods); score.npz and
                classifier.npz come from train-score / train-classifier
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import tape
from ..aggregation import MaskAggregator
from ..checkpoint import load_checkpoint, save_checkpoint
from ..control import make_policy
from ..costs import ClassifierNll, QuadraticWell, with_seam
from ..optim import AdamState, adam_step
from ..optimize import (
    controlwise_ido,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_poe_naive,
    sample_uncontrolled,
)
from ..scores import AnalyticGmmScore, GaussianMixture, MlpScore, denoiser_loss
from ..sde import derive_rng, make_time_grid
from .classifier import new_classifier, train_classifier
from .config import ConfigError, ExperimentConfig, normalized_text
from .gridio import export_grid
from .shapes import CLASS_NAMES, IMAGE_H, IMAGE_W, ShapesDataset, generate_shapes

Array = np.ndarray

# rng sub-keys, to keep every consumer independent
_KEY_SCORE_INIT = 50
_KEY_SCORE_DATA = 51
_KEY_POLICY_INIT = 300
_EVAL_SEED_OFFSET = 1_000_003

# the files a run writes into its directory; a new run removes them first,
# so a failed or smaller run leaves none of an earlier run's behind
_RUN_FILES = ("metrics.csv", "curve.csv", "samples.*", "agent*.pgm",
              "policy_agent*.npz")


@dataclass
class TaskAssets:
    """Everything the methods share for one task instance."""

    dim: int
    agg: MaskAggregator
    score_fn: object
    psi: object
    accuracy_fn: object


@dataclass
class Report:
    method: str
    task: str
    eval_samples: int
    mean_psi: float
    accuracy: float
    output_dir: Path
    curve: list


def _gmm2d_mixture(config: ExperimentConfig) -> GaussianMixture:
    sep = config.gmm_separation
    var = config.gmm_component_var
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=[[-sep, 0.0], [sep, 0.0]],
        variances=[var, var],
    )


def new_score_net(config: ExperimentConfig) -> MlpScore:
    """The configured score network at its seeded init."""
    return MlpScore(IMAGE_H * IMAGE_W, config.score_hidden,
                    config.score_temb_width,
                    derive_rng(config.seed, _KEY_SCORE_INIT),
                    schedule=config.schedule())


def train_score_model(config: ExperimentConfig, dataset: ShapesDataset) -> MlpScore:
    """Denoising training of the score network on the shapes images.

    The fit runs in float32, the mixed-precision recipe: the seeded
    float64 init is cast to float32, and the network, its gradients and
    Adam's moments stay float32 for every step. The data stream (pick,
    t, eps) is drawn in float64 as for a float64 fit, and ``denoiser_loss``
    casts each step's network input once. The weights are cast back to
    float64 before the network is returned, so every caller (the
    trainers, the samplers, the ``train-score`` checkpoint) gets a
    float64 network.
    """
    schedule = config.schedule()
    score = new_score_net(config)
    params = score.params()
    for p in params:
        p.value = p.value.astype(np.float32)
    adam = AdamState.for_params(params, lr=config.score_lr)
    rng = derive_rng(config.seed, _KEY_SCORE_DATA)
    x_train, _ = dataset.train()
    for _ in range(config.score_train_steps):
        pick = rng.integers(0, x_train.shape[0], size=config.score_batch)
        x0 = x_train[pick]
        t = rng.uniform(config.grid_eps, 1.0, size=config.score_batch)
        eps = rng.standard_normal(x0.shape)
        _, grads = denoiser_loss(score, x0, t, eps, schedule,
                                 eps=config.grid_eps)
        adam_step(params, grads, adam)
    for p in params:
        p.value = p.value.astype(np.float64)
    return score


def fit_classifier(config: ExperimentConfig, dataset: ShapesDataset):
    """The configured classifier fit on the shapes images."""
    return train_classifier(
        dataset,
        seed=config.seed,
        hidden=config.classifier_hidden,
        lr=config.classifier_lr,
        max_steps=config.classifier_max_steps,
        target_accuracy=config.classifier_target_accuracy,
    )


def load_weights(model, path, what: str) -> None:
    """Load the checkpoint at ``path`` into ``model``; a file that is not a
    checkpoint, or whose tensors do not fit the model, is a config error."""
    try:
        tensors = load_checkpoint(path)[0]
        extra = sorted(set(tensors) - {p.name for p in model.params()})
        if extra:
            raise ValueError(f"the model has no tensors {extra}")
        model.load_state_dict(tensors)
    except (KeyError, ValueError) as err:
        raise ConfigError(
            f"{path} does not fit the configured {what}: {err}"
        ) from err


def build_assets(config: ExperimentConfig) -> TaskAssets:
    """Construct the task components, loading or training the pretrained
    networks of shapes16.

    A score network or classifier trained or loaded here is returned
    frozen: the pretrained agents are fixed, and only the control policies
    are learned. The shapes16 dataset is generated from the config and
    read only to train them; the assets do not keep it.
    """
    agg = config.aggregator()
    dim = agg.dim
    if config.task == "gmm2d":
        score_fn = AnalyticGmmScore(_gmm2d_mixture(config), config.schedule())
        target = np.asarray(config.soc_target, dtype=np.float64)
        if target.size != dim:
            raise ConfigError(
                f"soc.target needs {dim} coordinates, got {target.size}"
            )
        psi = QuadraticWell(target)
        target_sign = 1.0 if target[0] >= 0 else -1.0

        def accuracy_fn(y: Array) -> Array:
            # mode accuracy: did the first coordinate land in the target
            # component's half-plane (prior is 1/2 under no steering)
            return (np.sign(y[:, 0]) == target_sign).astype(np.float64)

        return TaskAssets(dim, agg, score_fn, psi, accuracy_fn)

    # shapes16
    dataset = generate_shapes(config.shapes_per_class, seed=config.seed)
    if config.classifier_checkpoint:
        classifier = new_classifier(dim, config.classifier_hidden,
                                    config.seed)
        load_weights(classifier, config.classifier_checkpoint, "classifier")
    else:
        classifier = fit_classifier(config, dataset)
    tape.freeze(classifier.params())
    if config.score_checkpoint:
        score_fn = new_score_net(config)
        load_weights(score_fn, config.score_checkpoint, "score network")
    else:
        score_fn = train_score_model(config, dataset)
    tape.freeze(score_fn.params())
    label = CLASS_NAMES.index(config.soc_target_class)
    psi = with_seam(ClassifierNll(classifier, label), agg, config.soc())

    def accuracy_fn(y: Array) -> Array:
        logits = classifier([np.clip(y, -1.0, 1.0)])[0]
        return (logits.argmax(axis=1) == label).astype(np.float64)

    return TaskAssets(dim, agg, score_fn, psi, accuracy_fn)


def make_policies(config: ExperimentConfig, dim: int):
    return [
        make_policy(
            dim,
            i,
            derive_rng(config.seed, _KEY_POLICY_INIT + i),
            hidden=config.policy_hidden,
            gain_hidden=config.policy_gain_hidden,
            temb_width=config.policy_temb_width,
            guidance_gain_init=config.policy_guidance_gain_init,
        )
        for i in range(config.num_agents)
    ]


# ---------------------------------------------------------------------------
# evaluation and file output
# ---------------------------------------------------------------------------

def evaluate_method(config: ExperimentConfig, assets: TaskAssets, policies):
    """Chunked paired-noise evaluation; returns per-sample arrays + records."""
    schedule = config.schedule()
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    cfg = config.soc()
    eval_seed = config.seed + _EVAL_SEED_OFFSET
    n = config.eval_samples
    psis, accs, ys = [], [], []
    states = None
    loss_u = loss_c = 0.0
    for chunk_idx, start in enumerate(range(0, n, config.eval_chunk)):
        batch = min(config.eval_chunk, n - start)
        common = (cfg, grid, assets.psi, schedule, eval_seed, batch)
        if config.method == "poe":
            rec = sample_poe_naive([assets.score_fn] * config.num_agents,
                                   assets.dim, *common, noise_index=chunk_idx)
        elif config.method == "uncontrolled":
            rec = sample_uncontrolled(assets.score_fn, assets.agg, *common,
                                      noise_index=chunk_idx)
        elif config.method == "cdps":
            rec = sample_cdps(assets.score_fn, assets.agg, *common,
                              alpha_guid=config.cdps_alpha_guid,
                              noise_index=chunk_idx)
        else:
            rec = sample_controlled(policies, assets.score_fn, assets.agg,
                                    *common, noise_index=chunk_idx)
        psis.append(rec.per_sample_psi)
        accs.append(assets.accuracy_fn(rec.terminal_y))
        ys.append(rec.terminal_y)
        states = rec.terminal_states if states is None else states
        loss_u += rec.loss_u * batch
        loss_c += rec.loss_c * batch
    return {
        "psi": np.concatenate(psis),
        "accuracy": np.concatenate(accs),
        "terminal_y": np.concatenate(ys, axis=0),
        "first_chunk_states": states,
        "mean_loss_u": loss_u / n,
        "mean_loss_c": loss_c / n,
    }


def _float_repr(x) -> str:
    return repr(float(x))


def _write_metrics(path: Path, config: ExperimentConfig, evals: dict) -> None:
    header = [
        "method", "task", "seed", "eval_samples", "mean_psi", "accuracy",
        "mean_loss_u", "mean_loss_c",
    ]
    row = [
        config.method,
        config.task,
        str(config.seed),
        str(config.eval_samples),
        _float_repr(evals["psi"].mean()),
        _float_repr(evals["accuracy"].mean()),
        _float_repr(evals["mean_loss_u"]),
        _float_repr(evals["mean_loss_c"]),
    ]
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")


def _write_curve(path: Path, curve) -> None:
    lines = ["update,loss_u,loss_c,loss_psi,objective"]
    for point in curve:
        update, lu, lc, lp, obj = point.row()
        lines.append(
            f"{update},{_float_repr(lu)},{_float_repr(lc)},"
            f"{_float_repr(lp)},{_float_repr(obj)}"
        )
    path.write_text("\n".join(lines) + "\n")


def samples_path(config: ExperimentConfig) -> Path:
    """The run directory's ``samples.pgm`` (image task) or ``samples.csv``."""
    name = "samples.pgm" if config.task == "shapes16" else "samples.csv"
    return config.resolve_output_dir() / name


def write_samples(config: ExperimentConfig, agg: MaskAggregator, y: Array,
                  path=None) -> Path:
    """Write terminal samples to ``path`` (by default ``samples_path``) and
    return it: one PGM grid for the image task, one CSV row per sample
    otherwise."""
    image = config.task == "shapes16"
    path = Path(path or samples_path(config))
    if image:
        export_grid(y, path, agg.image_hw)
        return path
    lines = [",".join(f"y{i}" for i in range(y.shape[1]))]
    for row in y:
        lines.append(",".join(_float_repr(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def run_experiment(config: ExperimentConfig, assets: TaskAssets | None = None) -> Report:
    """Execute the configured method end to end and write the run artifacts."""
    if assets is None:
        assets = build_assets(config)
    out = config.resolve_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    for pattern in _RUN_FILES:
        for stale in out.glob(pattern):
            stale.unlink()
    (out / "config.txt").write_text(normalized_text(config))

    schedule = config.schedule()
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    cfg = config.soc()

    policies = None
    curve = []
    if config.method in ("joint", "controlwise"):
        policies = make_policies(config, assets.dim)
        plan = config.plan()

        applied = itertools.count(1)

        def checkpoint_cb(update, pols):
            done = next(applied)          # updates applied so far
            if (update + 1) % plan.checkpoint_every == 0:
                for pol in pols:
                    save_checkpoint(
                        out / f"policy_agent{pol.agent_index}.npz",
                        pol.state_dict(),
                        meta={"update": done},
                    )

        trainer = joint_ido if config.method == "joint" else controlwise_ido
        curve = trainer(
            plan, policies, assets.score_fn, assets.agg, cfg, grid,
            assets.psi, schedule, config.seed,
            on_update=checkpoint_cb if plan.checkpoint_every else None,
        )
        for pol in policies:
            save_checkpoint(out / f"policy_agent{pol.agent_index}.npz",
                            pol.state_dict(), meta={"update": len(curve)})

    evals = evaluate_method(config, assets, policies)
    _write_metrics(out / "metrics.csv", config, evals)
    _write_curve(out / "curve.csv", curve)

    y = evals["terminal_y"]
    n_show = min(64, y.shape[0])
    image = config.task == "shapes16"
    write_samples(config, assets.agg, y[:n_show] if image else y)
    if image:
        for i, xs in enumerate(evals["first_chunk_states"]):
            export_grid(xs[:n_show], out / f"agent{i}.pgm",
                        assets.agg.image_hw, agg=assets.agg, agent=i)

    return Report(
        method=config.method,
        task=config.task,
        eval_samples=config.eval_samples,
        mean_psi=float(evals["psi"].mean()),
        accuracy=float(evals["accuracy"].mean()),
        output_dir=out,
        curve=curve,
    )
