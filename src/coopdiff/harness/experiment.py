"""End-to-end experiment runs: asset building, method execution, metrics.

A run is fully determined by its config and seed: datasets, network inits,
training noise and evaluation noise all derive from the config seed
through keyed generators, so re-running a config reproduces every output
file byte for byte.

Outputs per run directory:
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
from ..nn import Mlp
from ..optim import AdamState, adam_step
from ..optimize import (
    TrainingResult,
    controlwise_ido,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_poe_naive,
    sample_uncontrolled,
)
from ..scores import AnalyticGmmScore, GaussianMixture, MlpScore, denoiser_loss
from ..sde import derive_rng, make_time_grid
from .classifier import train_classifier
from .config import ConfigError, ExperimentConfig, normalized_text
from .gridio import export_grid
from .shapes import CLASS_NAMES, IMAGE_H, IMAGE_W, ShapesDataset, generate_shapes

Array = np.ndarray

# rng sub-keys, to keep every consumer independent
_KEY_SCORE_INIT = 50
_KEY_SCORE_DATA = 51
_KEY_POLICY_INIT = 300
_EVAL_SEED_OFFSET = 1_000_003


@dataclass
class TaskAssets:
    """Everything the methods share for one task instance."""

    dim: int
    agg: MaskAggregator
    score_fn: object
    psi: object
    accuracy_fn: object
    classifier: Mlp | None = None

    def image_hw(self):
        return self.agg.image_hw


@dataclass
class Report:
    method: str
    task: str
    eval_samples: int
    mean_psi: float
    accuracy: float
    mean_loss_u: float
    mean_loss_c: float
    output_dir: Path
    curve: list
    paths: dict


def _gmm2d_mixture(config: ExperimentConfig) -> GaussianMixture:
    sep = config.gmm_separation
    var = config.gmm_component_var
    return GaussianMixture(
        weights=[0.5, 0.5],
        means=[[-sep, 0.0], [sep, 0.0]],
        variances=[var, var],
    )


def train_score_model(config: ExperimentConfig, dataset: ShapesDataset) -> MlpScore:
    """Denoising training of the score network on the shapes images."""
    schedule = config.schedule()
    score = MlpScore(
        IMAGE_H * IMAGE_W,
        config.score_hidden,
        config.score_temb_width,
        derive_rng(config.seed, _KEY_SCORE_INIT),
        schedule=schedule,
    )
    adam = AdamState.for_params(score.params(), lr=config.score_lr)
    rng = derive_rng(config.seed, _KEY_SCORE_DATA)
    x_train, _ = dataset.train()
    for _ in range(config.score_train_steps):
        pick = rng.integers(0, x_train.shape[0], size=config.score_batch)
        x0 = x_train[pick]
        t = rng.uniform(config.grid_eps, 1.0, size=config.score_batch)
        eps = rng.standard_normal(x0.shape)
        _, grads = denoiser_loss(score, x0, t, eps, schedule,
                                 eps=config.grid_eps)
        adam_step(score.params(), grads, adam)
    return score


def load_weights(model, path, what: str) -> None:
    """Load the checkpoint at ``path`` into ``model``; a file that is not a
    checkpoint, or whose tensors do not fit the model, is a config error."""
    try:
        model.load_state_dict(load_checkpoint(path)[0])
    except (KeyError, ValueError) as err:
        raise ConfigError(
            f"{path} does not fit the configured {what}: {err}"
        ) from err


def build_assets(
    config: ExperimentConfig,
    score_fn=None,
    classifier: Mlp | None = None,
    dataset: ShapesDataset | None = None,
) -> TaskAssets:
    """Construct (or load, or accept pre-built) task components.

    A score network or classifier trained or loaded here is returned
    frozen: the pretrained agents are fixed, and only the control policies
    are learned. The shapes16 ``dataset`` (generated from the config when
    not given) is read only to train them; the assets do not keep it.
    """
    schedule = config.schedule()
    agg = config.aggregator()
    dim = agg.dim
    if config.task == "gmm2d":
        if score_fn is None:
            score_fn = AnalyticGmmScore(_gmm2d_mixture(config), schedule)
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
    if dataset is None:
        dataset = generate_shapes(config.shapes_per_class, seed=config.seed)
    if classifier is None:
        if config.classifier_checkpoint:
            classifier = Mlp(
                [dim, *config.classifier_hidden, len(CLASS_NAMES)],
                derive_rng(config.seed, 42),
                name="classifier",
            )
            load_weights(classifier, config.classifier_checkpoint,
                         "classifier")
        else:
            classifier = train_classifier(
                dataset,
                seed=config.seed,
                hidden=config.classifier_hidden,
                lr=config.classifier_lr,
                max_steps=config.classifier_max_steps,
                target_accuracy=config.classifier_target_accuracy,
            )
        tape.freeze(classifier.params())
    if score_fn is None:
        if config.score_checkpoint:
            score_fn = MlpScore(
                dim,
                config.score_hidden,
                config.score_temb_width,
                derive_rng(config.seed, _KEY_SCORE_INIT),
                schedule=config.schedule(),
            )
            load_weights(score_fn, config.score_checkpoint, "score network")
        else:
            score_fn = train_score_model(config, dataset)
        tape.freeze(score_fn.params())
    label = CLASS_NAMES.index(config.soc_target_class)
    psi = with_seam(ClassifierNll(classifier, label), agg, config.soc())

    def accuracy_fn(y: Array) -> Array:
        logits = classifier.forward([np.clip(y, -1.0, 1.0)])[0]
        return (logits.argmax(axis=1) == label).astype(np.float64)

    return TaskAssets(dim, agg, score_fn, psi, accuracy_fn, classifier)


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

def _evaluate_method(config: ExperimentConfig, assets: TaskAssets, policies):
    """Chunked paired-noise evaluation; returns per-sample arrays + records."""
    schedule = config.schedule()
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    cfg = config.soc()
    eval_seed = config.seed + _EVAL_SEED_OFFSET
    remaining = config.eval_samples
    chunk_idx = 0
    psis, accs, ys = [], [], []
    states = None
    loss_u = 0.0
    loss_c = 0.0
    while remaining > 0:
        batch = min(config.eval_chunk, remaining)
        if config.method == "poe":
            mixtures = [assets.score_fn] * config.num_agents
            y = sample_poe_naive(
                mixtures, grid, schedule, eval_seed, batch, assets.dim,
                noise_index=chunk_idx,
            )
            with tape.no_grad():
                psi_vals = assets.psi(tape.constant(y)).value[:, 0]
            rec_states = None
        else:
            if config.method == "uncontrolled":
                rec = sample_uncontrolled(
                    assets.score_fn, assets.agg, cfg, grid, assets.psi,
                    schedule, eval_seed, batch, noise_index=chunk_idx,
                )
            elif config.method == "cdps":
                rec = sample_cdps(
                    assets.score_fn, assets.agg, cfg, grid, assets.psi,
                    schedule, eval_seed, batch,
                    alpha_guid=config.cdps_alpha_guid, noise_index=chunk_idx,
                )
            else:
                rec = sample_controlled(
                    policies, assets.score_fn, assets.agg, cfg, grid,
                    assets.psi, schedule, eval_seed, batch,
                    noise_index=chunk_idx,
                )
            y = rec.terminal_y
            psi_vals = rec.per_sample_psi
            rec_states = rec.terminal_states
            loss_u += rec.loss_u * batch
            loss_c += rec.loss_c * batch
        psis.append(psi_vals)
        accs.append(assets.accuracy_fn(y))
        ys.append(y)
        if states is None and rec_states is not None:
            states = rec_states
        remaining -= batch
        chunk_idx += 1
    n = config.eval_samples
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


def _write_samples_csv(path: Path, y: Array) -> None:
    lines = [",".join(f"y{i}" for i in range(y.shape[1]))]
    for row in y:
        lines.append(",".join(_float_repr(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig, assets: TaskAssets | None = None) -> Report:
    """Execute the configured method end to end and write the run artifacts."""
    if assets is None:
        assets = build_assets(config)
    out = config.resolve_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    paths = {"config": out / "config.txt", "metrics": out / "metrics.csv",
             "curve": out / "curve.csv"}
    paths["config"].write_text(normalized_text(config))

    schedule = config.schedule()
    grid = make_time_grid(config.grid_steps, config.grid_eps)
    cfg = config.soc()

    policies = None
    result: TrainingResult | None = None
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
        result = trainer(
            plan, policies, assets.score_fn, assets.agg, cfg, grid,
            assets.psi, schedule, config.seed,
            on_update=checkpoint_cb if plan.checkpoint_every else None,
        )
        for pol in policies:
            ckpt = out / f"policy_agent{pol.agent_index}.npz"
            save_checkpoint(ckpt, pol.state_dict(),
                            meta={"update": result.total_updates})
            paths[f"policy_agent{pol.agent_index}"] = ckpt

    evals = _evaluate_method(config, assets, policies)
    _write_metrics(paths["metrics"], config, evals)
    _write_curve(paths["curve"], result.curve if result is not None else [])

    y = evals["terminal_y"]
    n_show = min(64, y.shape[0])
    if config.task == "shapes16":
        paths["samples"] = out / "samples.pgm"
        export_grid(y[:n_show], paths["samples"], assets.image_hw())
        if evals["first_chunk_states"] is not None:
            for i, xs in enumerate(evals["first_chunk_states"]):
                agent_path = out / f"agent{i}.pgm"
                export_grid(
                    xs[:n_show], agent_path, assets.image_hw(),
                    agg=assets.agg, agent=i,
                )
                paths[f"agent{i}"] = agent_path
    else:
        paths["samples"] = out / "samples.csv"
        _write_samples_csv(paths["samples"], y)

    return Report(
        method=config.method,
        task=config.task,
        eval_samples=config.eval_samples,
        mean_psi=float(evals["psi"].mean()),
        accuracy=float(evals["accuracy"].mean()),
        mean_loss_u=float(evals["mean_loss_u"]),
        mean_loss_c=float(evals["mean_loss_c"]),
        output_dir=out,
        curve=result.curve if result is not None else [],
        paths=paths,
    )
