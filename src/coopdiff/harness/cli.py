"""Command-line front end.

Verbs:
  train-score       fit the score network on the procedural image task
  train-classifier  fit the terminal-cost classifier
  run               execute a configured method end to end, write artifacts
  sample            draw samples with a configured method
  report            print the metrics of a finished run

Exit codes: 0 success, 2 configuration error, 3 training failed
(diverged dynamics or classifier below its target accuracy), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..checkpoint import save_checkpoint
from ..optimize import DivergedRolloutError, TrainingDivergedError
from .classifier import ClassifierTrainingError, train_classifier
from .config import ConfigError, load_config, with_overrides
from .experiment import (
    build_assets,
    load_weights,
    make_policies,
    run_experiment,
    train_score_model,
)
from .gridio import export_grid
from .shapes import generate_shapes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopdiff",
        description="cooperative control of pre-trained diffusion agents",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    ts = sub.add_parser("train-score", help="train the score network")
    ts.add_argument("--config", required=True)
    ts.add_argument("--out", required=True, help="checkpoint path (.npz)")

    tc = sub.add_parser("train-classifier", help="train the cost classifier")
    tc.add_argument("--config", required=True)
    tc.add_argument("--out", required=True, help="checkpoint path (.npz)")

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--method", default=None,
                     help="override the configured method")
    run.add_argument("--output-dir", default=None,
                     help="override the configured output directory")

    smp = sub.add_parser("sample", help="draw samples without metrics")
    smp.add_argument("--config", required=True)
    smp.add_argument("--count", type=int, default=64)
    smp.add_argument("--out", default=None,
                     help="output file (defaults into the run directory)")
    smp.add_argument("--policies", default=None,
                     help="directory holding policy_agent<i>.npz checkpoints")

    rep = sub.add_parser("report", help="print metrics of a finished run")
    rep.add_argument("--run", required=True, help="run output directory")
    return parser


def _cmd_train_score(args) -> int:
    config = load_config(args.config)
    if config.task != "shapes16":
        raise ConfigError("train-score applies to the shapes16 task")
    dataset = generate_shapes(config.shapes_per_class, seed=config.seed)
    score = train_score_model(config, dataset)
    save_checkpoint(args.out, score.state_dict(),
                    meta={"hidden": list(config.score_hidden),
                          "temb_width": config.score_temb_width,
                          "seed": config.seed})
    print(f"score checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_train_classifier(args) -> int:
    config = load_config(args.config)
    if config.task != "shapes16":
        raise ConfigError("train-classifier applies to the shapes16 task")
    dataset = generate_shapes(config.shapes_per_class, seed=config.seed)
    clf = train_classifier(
        dataset,
        seed=config.seed,
        hidden=config.classifier_hidden,
        lr=config.classifier_lr,
        max_steps=config.classifier_max_steps,
        target_accuracy=config.classifier_target_accuracy,
    )
    save_checkpoint(args.out, clf.state_dict(),
                    meta={"hidden": list(config.classifier_hidden),
                          "seed": config.seed})
    print(f"classifier checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    overrides = {}
    if args.method is not None:
        overrides["method"] = args.method
    if args.output_dir is not None:
        overrides["output_dir"] = args.output_dir
    if overrides:
        config = with_overrides(config, **overrides)
    report = run_experiment(config)
    print(
        f"{report.method} on {report.task}: mean psi "
        f"{report.mean_psi:.6f}, accuracy {report.accuracy:.4f} "
        f"({report.eval_samples} samples) -> {report.output_dir}"
    )
    return EXIT_OK


def _cmd_sample(args) -> int:
    config = load_config(args.config)
    config = with_overrides(config, eval_samples=args.count,
                            eval_chunk=min(args.count, config.eval_chunk))
    assets = build_assets(config)
    policies = None
    if config.method in ("joint", "controlwise"):
        if args.policies is None:
            raise ConfigError(
                "sampling a learned method needs --policies (a directory "
                "with policy_agent<i>.npz)"
            )
        policies = make_policies(config, assets.dim)
        for pol in policies:
            path = Path(args.policies) / f"policy_agent{pol.agent_index}.npz"
            load_weights(pol, path, "policy")
    from .experiment import _evaluate_method

    evals = _evaluate_method(config, assets, policies)
    y = evals["terminal_y"]
    if config.task == "shapes16":
        out = Path(args.out or config.resolve_output_dir() / "samples.pgm")
        export_grid(y, out, assets.image_hw())
    else:
        out = Path(args.out or config.resolve_output_dir() / "samples.csv")
        from .experiment import _write_samples_csv

        out.parent.mkdir(parents=True, exist_ok=True)
        _write_samples_csv(out, y)
    print(f"{y.shape[0]} samples -> {out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    metrics = Path(args.run) / "metrics.csv"
    if not metrics.exists():
        raise FileNotFoundError(f"no metrics.csv under {args.run}")
    try:
        header, row = metrics.read_text(encoding="utf-8").strip().splitlines()[:2]
    except ValueError as err:      # not UTF-8, or no header and value row
        raise OSError(f"{metrics} is not a metrics file: {err}") from err
    for key, value in zip(header.split(","), row.split(",")):
        print(f"{key:>14}: {value}")
    return EXIT_OK


_COMMANDS = {
    "train-score": _cmd_train_score,
    "train-classifier": _cmd_train_classifier,
    "run": _cmd_run,
    "sample": _cmd_sample,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # non-finite states are detected and reported as divergence (exit
        # 3), so numpy's floating-point warnings would only repeat that
        with np.errstate(all="ignore"):
            return _COMMANDS[args.verb](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergedRolloutError, TrainingDivergedError) as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_TRAINING
    except ClassifierTrainingError as err:
        print(f"classifier training failed: {err}", file=sys.stderr)
        return EXIT_TRAINING
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
