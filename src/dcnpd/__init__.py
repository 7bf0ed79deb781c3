"""Individualized treatment effect estimation with propensity-guided dropout.

A pure-NumPy research package: a propensity scorer whose predictions set
per-subject dropout rates, a two-headed potential-outcomes network trained
by alternating phases on treated and control subjects, Monte Carlo effect
inference, synthetic observational benchmarks, and reference baselines.
"""

from .baselines import DirectModel, KnnConfig, knn_ite, train_direct_nn
from .data import (
    CsvSchema,
    ObservationalDataset,
    Standardization,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
    train_test_split,
)
from .dcn import (
    DCNParams,
    ITEEstimate,
    build_dcn,
    dcn_forward,
    estimate_ite,
    predict_deterministic,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    ite_mse,
    run_experiment,
)
from .nn import (
    AdamState,
    DenseLayer,
    MLPParams,
    adam_step,
    grad_check,
    mlp_backward,
    mlp_forward,
    xavier_init,
)
from .propensity import (
    DropoutSchedule,
    PropensityModel,
    binary_entropy,
    dropout_probability,
    keep_probability,
    predict_propensity,
    train_propensity,
)
from .training import (
    TrainConfig,
    factual_mse,
    split_batches,
    train_dcn,
    train_dcn_fixed_dropout,
)

__all__ = [
    "AdamState",
    "ConfigError",
    "CsvSchema",
    "DCNParams",
    "DenseLayer",
    "DirectModel",
    "DropoutSchedule",
    "ExperimentConfig",
    "ExperimentReport",
    "ITEEstimate",
    "KnnConfig",
    "MLPParams",
    "ObservationalDataset",
    "PropensityModel",
    "Standardization",
    "SyntheticConfig",
    "TrainConfig",
    "adam_step",
    "binary_entropy",
    "build_dcn",
    "dcn_forward",
    "dropout_probability",
    "emit_report",
    "estimate_ite",
    "factual_mse",
    "generate_synthetic",
    "grad_check",
    "ite_mse",
    "keep_probability",
    "knn_ite",
    "load_csv",
    "mlp_backward",
    "mlp_forward",
    "predict_deterministic",
    "predict_propensity",
    "run_experiment",
    "save_csv",
    "split_batches",
    "standardize",
    "train_dcn",
    "train_dcn_fixed_dropout",
    "train_direct_nn",
    "train_propensity",
    "train_test_split",
    "xavier_init",
]
