"""Cooperative control of multiple pre-trained diffusion agents.

The package simulates coupled controlled reverse-time diffusion SDEs,
trains per-agent control policies by differentiating a Monte Carlo control
objective through every integration step, and ships the inference-time
guidance and score-summing baselines it is compared against.
"""

from .aggregation import MaskAggregator, aggregate, make_mask, scatter_adjoint
from .checkpoint import load_checkpoint, save_checkpoint
from .control import ControlPolicy, eval_control, make_policy
from .costs import (
    ClassifierNll,
    QuadraticWell,
    SocConfig,
    seam_loss,
)
from .nn import Mlp, time_features
from .optim import AdamState, adam_step
from .optimize import (
    DivergedRolloutError,
    RolloutRecord,
    TrainPlan,
    bptt_rollout,
    controlwise_ido,
    joint_ido,
    sample_cdps,
    sample_controlled,
    sample_poe_naive,
    sample_uncontrolled,
)
from .scores import (
    AnalyticGmmScore,
    GaussianMixture,
    MlpScore,
    gmm_score,
    tweedie,
)
from .sde import (
    NoiseSchedule,
    NoiseStream,
    TimeGrid,
    em_step,
    make_time_grid,
    marginal_coeffs,
    reverse_drift,
)

__version__ = "0.1.0"
