"""Partial-label learning with leveraged weighted losses.

Subpackages by theme: `losses` (the loss family and its gradients),
`labelgen` (candidate-set generation models), `weights` (per-instance class
weights), `model` (networks, trainer, checkpoints), `consistency`
(brute-force certification of the risk identities), `data` (datasets and
file formats), `cli` (experiment harness), `rng` (reproducible streams).
"""

from .consistency import (
    CheckNotApplicable,
    ConsistencyReport,
    beta1_collapse_check,
    certify_coefficient_ordering,
    certify_risk_equivalence,
    certify_subset_normalization,
    certify_uniform_recovery,
    lemma1_check,
    partial_risk_bruteforce,
    supervised_risk_direct,
    theorem2_coefficient_check,
)
from .data import (
    Dataset,
    load_idx,
    load_partial_csv,
    make_gaussian_task,
    save_partial_csv,
    standardize,
    take,
    with_candidates,
)
from .labelgen import GenerationModel, make_case, make_uniform
from .losses import (
    CROSS_ENTROPY,
    RAMP,
    SIGMOID,
    ZERO_ONE_STEP,
    LWConfig,
    UnsupportedLossError,
    derived_supervised_loss,
    lw_loss_batch,
    lw_loss_gradient_batch,
    special_case_loss,
)
from .model import (
    EpochMetrics,
    Layer,
    NetworkParams,
    TrainerConfig,
    TrainingDiverged,
    TrainResult,
    accuracy,
    backward,
    forward,
    init_network,
    learning_rate_at,
    load_checkpoint,
    network_widths,
    predict,
    save_checkpoint,
    train,
)
from .rng import make_rng
from .weights import init_weights, partition_sums, update_weights

__version__ = "0.1.0"

__all__ = [
    "CROSS_ENTROPY",
    "CheckNotApplicable",
    "ConsistencyReport",
    "Dataset",
    "EpochMetrics",
    "GenerationModel",
    "LWConfig",
    "Layer",
    "NetworkParams",
    "RAMP",
    "SIGMOID",
    "TrainResult",
    "TrainerConfig",
    "TrainingDiverged",
    "UnsupportedLossError",
    "ZERO_ONE_STEP",
    "accuracy",
    "backward",
    "beta1_collapse_check",
    "certify_coefficient_ordering",
    "certify_risk_equivalence",
    "certify_subset_normalization",
    "certify_uniform_recovery",
    "derived_supervised_loss",
    "forward",
    "init_network",
    "init_weights",
    "learning_rate_at",
    "lemma1_check",
    "load_checkpoint",
    "load_idx",
    "load_partial_csv",
    "lw_loss_batch",
    "lw_loss_gradient_batch",
    "make_case",
    "make_gaussian_task",
    "make_rng",
    "make_uniform",
    "network_widths",
    "partial_risk_bruteforce",
    "partition_sums",
    "predict",
    "save_checkpoint",
    "save_partial_csv",
    "special_case_loss",
    "standardize",
    "supervised_risk_direct",
    "take",
    "theorem2_coefficient_check",
    "train",
    "update_weights",
    "with_candidates",
]
