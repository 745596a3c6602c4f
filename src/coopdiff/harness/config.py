"""Experiment configuration: flat key = value text with a strict schema.

The format is one ``key = value`` assignment per line, ``#`` comments,
dotted keys for grouping (``grid.steps = 80``). The keys are the fields
of ``ExperimentConfig``: a field ``<group>_<rest>`` of one of the
``_GROUPS`` is the key ``<group>.<rest>``, and the type of a field's
default picks its parser. Unknown keys are rejected; parsing reports the
offending line on errors. ``normalized_text``
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


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


_PARSERS = {bool: _parse_bool, int: int, float: _parse_float, str: str.strip}


def _parser(default):
    """A field's parser, chosen by the type of its default. A tuple default
    takes a comma- or space-separated list of its first item's type."""
    if isinstance(default, tuple):
        item = _PARSERS[type(default[0])]
        return lambda raw: tuple(item(p) for p in raw.replace(",", " ").split())
    return _PARSERS[type(default)]


# a field named ``<group>_<rest>`` is the config key ``<group>.<rest>``
_GROUPS = ("schedule", "grid", "soc", "plan", "cdps", "policy", "score",
           "classifier", "shapes", "gmm")


def _key(name: str) -> str:
    group, _, rest = name.partition("_")
    return f"{group}.{rest}" if group in _GROUPS else name


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

    # soc(), plan() and schedule() build their objects from the
    # ``<group>_<field>`` fields here, which take those objects' defaults
    schedule_beta_min: float = NoiseSchedule.beta_min
    schedule_beta_max: float = NoiseSchedule.beta_max
    grid_steps: int = 500
    grid_eps: float = 1e-3

    soc_control_weight: float = SocConfig.control_weight
    soc_running_scale: float = SocConfig.running_scale
    soc_running_ramp: str = SocConfig.running_ramp
    soc_seam_beta: float = SocConfig.seam_beta
    soc_seam_gamma: float = SocConfig.seam_gamma
    soc_charbonnier_eps: float = SocConfig.charbonnier_eps
    soc_target_class: str = "cross"
    soc_target: tuple = (2.0, -1.5)

    plan_updates: int = TrainPlan.updates
    plan_outer_iters: int = TrainPlan.outer_iters
    plan_inner_steps: int = TrainPlan.inner_steps
    plan_batch: int = TrainPlan.batch
    plan_lr: float = TrainPlan.lr
    plan_shuffle_agents: bool = TrainPlan.shuffle_agents
    plan_checkpoint_every: int = TrainPlan.checkpoint_every

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
        if self.method == "poe" and self.task != "gmm2d":
            raise ConfigError("the poe baseline is defined for the gmm2d task")
        for name in ("policy_hidden", "policy_gain_hidden", "score_hidden",
                     "classifier_hidden"):
            widths = getattr(self, name)
            if any(w < 1 for w in widths):
                raise ConfigError(f"{_key(name)} widths must be >= 1, "
                                  f"got {_format_value(widths)!r}")
        for name in ("score_batch", "score_train_steps",
                     "classifier_max_steps", "shapes_per_class"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{_key(name)} must be >= 1, "
                                  f"got {getattr(self, name)}")
        for name in ("policy_temb_width", "score_temb_width"):
            width = getattr(self, name)
            if width < 2 or width % 2:
                raise ConfigError(f"{_key(name)} must be even and "
                                  f">= 2, got {width}")
        for name in ("gmm_component_var", "score_lr", "classifier_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{_key(name)} must be > 0, got "
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

    def _build(self, cls, group: str):
        return cls(**{f.name: getattr(self, f"{group}_{f.name}")
                      for f in fields(cls)})

    def schedule(self) -> NoiseSchedule:
        return self._build(NoiseSchedule, "schedule")

    def aggregator(self) -> MaskAggregator:
        if self.task == "gmm2d":
            return make_mask(self.mask, self.num_agents, 2)
        return make_mask(self.mask, self.num_agents, IMAGE_H * IMAGE_W,
                         image_hw=(IMAGE_H, IMAGE_W))

    def soc(self) -> SocConfig:
        return self._build(SocConfig, "soc")

    def plan(self) -> TrainPlan:
        return self._build(TrainPlan, "plan")

    def resolve_output_dir(self) -> Path:
        out = Path(self.output_dir)
        if not out.is_absolute():
            root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
            out = root / out
        return out


# config key -> (dataclass field, parser), one row per field
_SCHEMA = {_key(f.name): (f.name, _parser(f.default))
           for f in fields(ExperimentConfig)}


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
        return " ".join(_format_value(v) for v in value)
    return str(value)


def normalized_text(config: ExperimentConfig) -> str:
    """Deterministic snapshot serialisation (sorted keys, repr floats)."""
    return "".join(f"{key} = {_format_value(getattr(config, name))}\n"
                   for key, (name, _) in sorted(_SCHEMA.items()))


def with_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    return replace(config, **overrides)
