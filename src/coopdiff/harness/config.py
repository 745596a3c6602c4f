"""Experiment configuration: flat key = value text with a strict schema.

The format is one ``key = value`` assignment per line, ``#`` comments,
dotted keys for grouping (``grid.steps = 80``). Every key must be in the
schema; parsing reports the offending line on errors. ``normalized_text``
re-serialises a config deterministically (sorted keys, repr floats), which
is what gets written next to run outputs as the config snapshot.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path


from ..aggregation import MaskAggregator, make_mask
from ..costs import SocConfig
from ..optimize import TrainPlan
from ..scores import ALPHA_FLOOR
from ..sde import NoiseSchedule, make_time_grid
from .shapes import CLASS_NAMES, IMAGE_H, IMAGE_W

OUTPUT_ROOT_ENV = "COOPDIFF_OUTPUT_ROOT"

TASKS = ("gmm2d", "shapes16")
METHODS = ("uncontrolled", "cdps", "poe", "joint", "controlwise")
MASKS = ("identity", "halves", "h-stripes", "v-stripes")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(p) for p in raw.replace(",", " ").split())


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _parse_floats(raw: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_float(p) for p in raw.replace(",", " ").split())


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a seeded end-to-end run needs."""

    task: str = "gmm2d"
    method: str = "joint"
    seed: int = 0
    num_agents: int = 2
    mask: str = "halves"
    eval_samples: int = 1024
    eval_chunk: int = 256
    output_dir: str = "run"

    schedule_beta_min: float = 0.1
    schedule_beta_max: float = 20.0
    grid_steps: int = 500
    grid_eps: float = 1e-3

    soc_control_weight: float = 10.0
    soc_running_scale: float = 1.0
    soc_running_ramp: str = "constant"
    soc_seam_beta: float = 0.0
    soc_seam_gamma: float = 0.0
    soc_charbonnier_eps: float = 1e-3
    soc_target_class: str = "cross"
    soc_target: tuple = (2.0, -1.5)

    plan_updates: int = 1000
    plan_outer_iters: int = 300
    plan_inner_steps: int = 5
    plan_batch: int = 16
    plan_lr: float = 1e-4
    plan_shuffle_agents: bool = False
    plan_checkpoint_every: int = 0

    cdps_alpha_guid: float = 100.0

    policy_hidden: tuple = (128, 128)
    policy_gain_hidden: tuple = (32,)
    policy_temb_width: int = 16
    policy_guidance_gain_init: float = 0.0

    score_hidden: tuple = (192, 192)
    score_temb_width: int = 16
    score_train_steps: int = 4000
    score_lr: float = 1e-3
    score_batch: int = 128
    score_checkpoint: str = ""

    classifier_hidden: tuple = (64,)
    classifier_lr: float = 1e-3
    classifier_max_steps: int = 4000
    classifier_target_accuracy: float = 0.95
    classifier_checkpoint: str = ""

    shapes_per_class: int = 400

    gmm_separation: float = 1.2
    gmm_component_var: float = 0.25

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.mask not in MASKS:
            raise ConfigError(f"mask must be one of {MASKS}, got {self.mask!r}")
        if self.eval_samples < 1:
            raise ConfigError("eval_samples must be >= 1")
        if self.eval_chunk < 1:
            raise ConfigError("eval_chunk must be >= 1")
        if self.num_agents < 1:
            raise ConfigError("num_agents must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.task == "shapes16" and self.soc_target_class not in CLASS_NAMES:
            raise ConfigError(
                f"soc.target_class must be one of {CLASS_NAMES}, got "
                f"{self.soc_target_class!r}"
            )
        if self.task == "poe":
            raise ConfigError("poe is a method, not a task")
        if self.method == "poe" and self.task != "gmm2d":
            raise ConfigError("the poe baseline is defined for the gmm2d task")
        for name in ("policy_hidden", "policy_gain_hidden", "score_hidden",
                     "classifier_hidden"):
            widths = getattr(self, name)
            if any(w < 1 for w in widths):
                raise ConfigError(f"{_FIELD_TO_KEY[name]} widths must be >= 1, "
                                  f"got {_format_value(widths)!r}")
        for name in ("score_batch", "score_train_steps",
                     "classifier_max_steps", "shapes_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be >= 1, "
                                  f"got {getattr(self, name)}")
        for name in ("policy_temb_width", "score_temb_width"):
            width = getattr(self, name)
            if width < 2 or width % 2:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be even and "
                                  f">= 2, got {width}")
        for name in ("gmm_component_var", "score_lr", "classifier_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be > 0, got "
                                  f"{getattr(self, name)!r}")
        if not 0 < self.classifier_target_accuracy <= 1:
            raise ConfigError(f"classifier.target_accuracy must lie in "
                              f"(0, 1], got "
                              f"{self.classifier_target_accuracy!r}")
        # build every derived object once, so a bad value fails here and
        # not in the middle of a run; the errors of the grid, cost and
        # plan name their field, which the prefix makes the config key
        for prefix, build in (
                ("", self.schedule), ("", self.aggregator), ("soc.", self.soc),
                ("plan.", self.plan),
                ("grid.", lambda: make_time_grid(self.grid_steps,
                                                 self.grid_eps))):
            try:
                build()
            except ValueError as err:
                raise ConfigError(prefix + str(err)) from err
        if self.schedule().alpha(1.0) < ALPHA_FLOOR:
            raise ConfigError(f"alpha(1) is below the Tweedie floor "
                              f"{ALPHA_FLOOR:g}; lower schedule.beta_max")

    # -- derived objects ---------------------------------------------------

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(self.schedule_beta_min, self.schedule_beta_max)

    def aggregator(self) -> MaskAggregator:
        if self.task == "gmm2d":
            return make_mask(self.mask, self.num_agents, 2)
        return make_mask(self.mask, self.num_agents, IMAGE_H * IMAGE_W,
                         image_hw=(IMAGE_H, IMAGE_W))

    def soc(self) -> SocConfig:
        return SocConfig(
            control_weight=self.soc_control_weight,
            running_scale=self.soc_running_scale,
            running_ramp=self.soc_running_ramp,
            seam_beta=self.soc_seam_beta,
            seam_gamma=self.soc_seam_gamma,
            charbonnier_eps=self.soc_charbonnier_eps,
        )

    def plan(self) -> TrainPlan:
        return TrainPlan(
            updates=self.plan_updates,
            outer_iters=self.plan_outer_iters,
            inner_steps=self.plan_inner_steps,
            batch=self.plan_batch,
            lr=self.plan_lr,
            shuffle_agents=self.plan_shuffle_agents,
            checkpoint_every=self.plan_checkpoint_every,
        )

    def resolve_output_dir(self) -> Path:
        out = Path(self.output_dir)
        if not out.is_absolute():
            root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
            out = root / out
        return out


# schema: config key -> (dataclass field, parser)
_SCHEMA: dict = {
    "task": ("task", str.strip),
    "method": ("method", str.strip),
    "seed": ("seed", int),
    "num_agents": ("num_agents", int),
    "mask": ("mask", str.strip),
    "eval_samples": ("eval_samples", int),
    "eval_chunk": ("eval_chunk", int),
    "output_dir": ("output_dir", str.strip),
    "schedule.beta_min": ("schedule_beta_min", _parse_float),
    "schedule.beta_max": ("schedule_beta_max", _parse_float),
    "grid.steps": ("grid_steps", int),
    "grid.eps": ("grid_eps", _parse_float),
    "soc.control_weight": ("soc_control_weight", _parse_float),
    "soc.running_scale": ("soc_running_scale", _parse_float),
    "soc.running_ramp": ("soc_running_ramp", str.strip),
    "soc.seam_beta": ("soc_seam_beta", _parse_float),
    "soc.seam_gamma": ("soc_seam_gamma", _parse_float),
    "soc.charbonnier_eps": ("soc_charbonnier_eps", _parse_float),
    "soc.target_class": ("soc_target_class", str.strip),
    "soc.target": ("soc_target", _parse_floats),
    "plan.updates": ("plan_updates", int),
    "plan.outer_iters": ("plan_outer_iters", int),
    "plan.inner_steps": ("plan_inner_steps", int),
    "plan.batch": ("plan_batch", int),
    "plan.lr": ("plan_lr", _parse_float),
    "plan.shuffle_agents": ("plan_shuffle_agents", _parse_bool),
    "plan.checkpoint_every": ("plan_checkpoint_every", int),
    "cdps.alpha_guid": ("cdps_alpha_guid", _parse_float),
    "policy.hidden": ("policy_hidden", _parse_ints),
    "policy.gain_hidden": ("policy_gain_hidden", _parse_ints),
    "policy.temb_width": ("policy_temb_width", int),
    "policy.guidance_gain_init": ("policy_guidance_gain_init", _parse_float),
    "score.hidden": ("score_hidden", _parse_ints),
    "score.temb_width": ("score_temb_width", int),
    "score.train_steps": ("score_train_steps", int),
    "score.lr": ("score_lr", _parse_float),
    "score.batch": ("score_batch", int),
    "score.checkpoint": ("score_checkpoint", str.strip),
    "classifier.hidden": ("classifier_hidden", _parse_ints),
    "classifier.lr": ("classifier_lr", _parse_float),
    "classifier.max_steps": ("classifier_max_steps", int),
    "classifier.target_accuracy": ("classifier_target_accuracy", _parse_float),
    "classifier.checkpoint": ("classifier_checkpoint", str.strip),
    "shapes.per_class": ("shapes_per_class", int),
    "gmm.separation": ("gmm_separation", _parse_float),
    "gmm.component_var": ("gmm_component_var", _parse_float),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _SCHEMA.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {raw_line!r}"
            )
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(
                f"line {lineno}: unknown config key {key!r} "
                f"(closest: {_closest(key)})"
            )
        field_name, parser = _SCHEMA[key]
        if field_name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field_name] = parser(raw_value)
        except (ValueError, TypeError) as err:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {err}"
            ) from err
    try:
        return ExperimentConfig(**values)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err


def _closest(key: str) -> str:
    import difflib

    match = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
    return match[0] if match else "none"


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(
            repr(v) if isinstance(v, float) else str(v) for v in value
        )
    return str(value)


def normalized_text(config: ExperimentConfig) -> str:
    """Deterministic snapshot serialisation (sorted keys, repr floats)."""
    lines = []
    for f in sorted(fields(config), key=lambda f: _FIELD_TO_KEY[f.name]):
        key = _FIELD_TO_KEY[f.name]
        lines.append(f"{key} = {_format_value(getattr(config, f.name))}")
    return "\n".join(lines) + "\n"


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    return replace(config, **overrides)
