"""Experiment front end: datasets, classifier, configs, runs, exports."""

from .classifier import ClassifierTrainingError, train_classifier
from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    normalized_text,
    parse_config_text,
    with_overrides,
)
from .experiment import (
    Report,
    TaskAssets,
    build_assets,
    make_policies,
    run_experiment,
    train_score_model,
)
from .gridio import export_grid, write_pgm
from .shapes import CLASS_NAMES, ShapesDataset, generate_shapes
