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
from .classifier import ClassifierTrainingError
from .config import ConfigError, load_config, with_overrides
from .experiment import (
    build_assets,
    evaluate_method,
    fit_classifier,
    load_weights,
    make_policies,
    policy_path,
    run_experiment,
    samples_path,
    train_score_model,
    write_samples,
)
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


# verb -> (the network it fits, the fit, the checkpoint's meta)
_FITS = {
    "train-score": ("score", train_score_model, lambda config: {
        "hidden": list(config.score_hidden),
        "temb_width": config.score_temb_width}),
    "train-classifier": ("classifier", fit_classifier, lambda config: {
        "hidden": list(config.classifier_hidden)}),
}


def _cmd_train(args) -> int:
    what, fit, meta = _FITS[args.verb]
    config = load_config(args.config)
    if config.task != "shapes16":
        raise ConfigError(f"{args.verb} applies to the shapes16 task")
    dataset = generate_shapes(config.shapes_per_class, seed=config.seed)
    model = fit(config, dataset)
    save_checkpoint(args.out, model.state_dict(),
                    meta={**meta(config), "seed": config.seed})
    print(f"{what} checkpoint written to {args.out}")
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
    learned = config.method in ("joint", "controlwise")
    if learned and args.policies is None:
        raise ConfigError(
            "sampling a learned method needs --policies (a directory "
            "with policy_agent<i>.npz)"
        )
    if args.out is None and samples_path(config).exists():
        raise ConfigError(f"{samples_path(config)} holds a run's samples; "
                          "pass --out to write elsewhere")
    assets = build_assets(config)
    policies = None
    if learned:
        policies = make_policies(config, assets.dim)
        for pol in policies:
            load_weights(pol, policy_path(args.policies, pol.agent_index),
                         "policy")
    y = evaluate_method(config, assets, policies)["terminal_y"]
    out = write_samples(config, assets.agg, y, args.out)
    print(f"{y.shape[0]} samples -> {out}")
    return EXIT_OK


_POE_LOSS_C_NOTE = (
    "(poe: the running cost at the summed score's Tweedie estimate, "
    "not a cost of PoE's samples)"
)


def _cmd_report(args) -> int:
    metrics = Path(args.run) / "metrics.csv"
    if not metrics.exists():
        raise FileNotFoundError(f"no metrics.csv under {args.run}")
    try:
        header, row = metrics.read_text(encoding="utf-8").strip().splitlines()[:2]
    except ValueError as err:      # not UTF-8, or no header and value row
        raise OSError(f"{metrics} is not a metrics file: {err}") from err
    keys, values = header.split(","), row.split(",")
    if len(keys) != len(values):
        raise OSError(f"{metrics} is not a metrics file: {len(keys)} header "
                      f"fields, {len(values)} values")
    method = dict(zip(keys, values)).get("method")
    for key, value in zip(keys, values):
        print(f"{key:>14}: {value}")
        if key == "mean_loss_c" and method == "poe":
            print(f"{'':>14}  {_POE_LOSS_C_NOTE}")
    return EXIT_OK


_COMMANDS = {
    "train-score": _cmd_train,
    "train-classifier": _cmd_train,
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
