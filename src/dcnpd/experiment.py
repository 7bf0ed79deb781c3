"""Repeated-realization experiments: config, pipeline, reporting, model bundles.

One experiment runs R repetitions. Each repetition draws (or reloads) a
dataset, splits it, standardizes features on the training side, fits the
selected estimator, and scores predicted effects against the known ground
truth on the held-out side.

Every repetition derives its own random streams from the master seed with
fixed spawn keys, so results are reproducible, adding repetitions never
perturbs earlier ones, and two models run with the same config see identical
realizations and splits repetition by repetition (paired comparisons).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import DEFAULT_DIRECT_ARCH, DirectModel, KnnConfig, knn_ite, train_direct_nn
from .data import (
    ObservationalDataset,
    Standardization,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    standardize,
    train_test_split,
)
from .dcn import DCNParams, mc_ite_matrix, predict_deterministic
from .nn import MLPParams
from .propensity import DropoutSchedule, PropensityModel, train_propensity
from .training import TrainConfig, train_dcn, train_dcn_fixed_dropout

SCHEMA_VERSION = 1

MODEL_KINDS = ("dcn-pd", "dcn-fixed", "nn4", "knn")


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


def parse_model(token: str) -> tuple[str, float | int | None]:
    """Split a model token: dcn-pd | dcn-fixed:<p> | nn4 | knn:<k>."""
    if token == "dcn-pd":
        return "dcn-pd", None
    if token == "nn4":
        return "nn4", None
    if token.startswith("dcn-fixed:"):
        try:
            p = float(token.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad dropout in model token {token!r}") from None
        if not 0.0 <= p < 1.0:
            raise ConfigError("fixed dropout must lie in [0, 1)")
        return "dcn-fixed", p
    if token.startswith("knn:"):
        try:
            k = int(token.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad k in model token {token!r}") from None
        if k < 1:
            raise ConfigError("k must be at least 1")
        return "knn", k
    raise ConfigError(
        f"unknown model {token!r}; expected dcn-pd, dcn-fixed:<p>, nn4, or knn:<k>"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run needs; the seed is mandatory."""

    model: str
    seed: int
    synthetic: SyntheticConfig | None = None
    csv_path: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    repetitions: int = 1
    train_fraction: float = 0.8
    n_samples: int = 100
    propensity_arch: tuple[int, ...] = (25, 25)
    propensity_epochs: int = 1000
    fixed_split: bool = False
    fixed_covariates: bool = False
    out: str | None = None

    def __post_init__(self):
        parse_model(self.model)
        if self.seed is None:
            raise ConfigError("a seed is required; reproducibility is not optional")
        if (self.synthetic is None) == (self.csv_path is None):
            raise ConfigError("exactly one dataset source: synthetic or csv_path")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be at least 1")
        if self.propensity_epochs < 1:
            raise ConfigError("propensity_epochs must be at least 1")
        if self.fixed_covariates and self.synthetic is None:
            raise ConfigError("fixed_covariates requires a synthetic source")

    def to_dict(self) -> dict:
        payload = {
            "model": self.model,
            "seed": self.seed,
            "csv_path": self.csv_path,
            "repetitions": self.repetitions,
            "train_fraction": self.train_fraction,
            "n_samples": self.n_samples,
            "propensity_arch": list(self.propensity_arch),
            "propensity_epochs": self.propensity_epochs,
            "fixed_split": self.fixed_split,
            "fixed_covariates": self.fixed_covariates,
            "out": self.out,
            "train": {
                "epochs": self.train.epochs,
                "gamma": self.train.gamma,
                "learning_rate": self.train.learning_rate,
                "beta1": self.train.beta1,
                "beta2": self.train.beta2,
                "epsilon": self.train.epsilon,
                "batch_size": self.train.batch_size,
                "shared_widths": list(self.train.shared_widths),
                "head_widths": list(self.train.head_widths),
                "seed": self.train.seed,
            },
        }
        if self.synthetic is not None:
            payload["synthetic"] = {
                "n": self.synthetic.n,
                "d": self.synthetic.d,
                "bias_strength": self.synthetic.bias_strength,
                "noise_std": self.synthetic.noise_std,
                "surface": self.synthetic.surface,
                "seed": self.synthetic.seed,
            }
        else:
            payload["synthetic"] = None
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {
            "model",
            "seed",
            "synthetic",
            "csv_path",
            "train",
            "repetitions",
            "train_fraction",
            "n_samples",
            "propensity_arch",
            "propensity_epochs",
            "fixed_split",
            "fixed_covariates",
            "out",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(payload)
        if kwargs.get("synthetic") is not None:
            try:
                kwargs["synthetic"] = SyntheticConfig(**kwargs["synthetic"])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad synthetic block: {e}") from None
        if kwargs.get("train") is not None:
            train = dict(kwargs["train"])
            for key in ("shared_widths", "head_widths"):
                if key in train:
                    train[key] = tuple(train[key])
            try:
                kwargs["train"] = TrainConfig(**train)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"bad train block: {e}") from None
        else:
            kwargs.pop("train", None)
        if "propensity_arch" in kwargs:
            kwargs["propensity_arch"] = tuple(kwargs["propensity_arch"])
        if "model" not in kwargs or "seed" not in kwargs:
            raise ConfigError("config requires both a model and a seed")
        try:
            return cls(**kwargs)
        except TypeError as e:
            raise ConfigError(str(e)) from None


@dataclass
class ExperimentReport:
    """Per-repetition effect MSEs plus their mean and standard error."""

    model: str
    repetitions: int
    per_rep_mse: list[float]
    mean_mse: float
    std_error: float
    config: dict
    duration_seconds: float
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "model": self.model,
            "repetitions": self.repetitions,
            "per_rep_mse": self.per_rep_mse,
            "mean_mse": self.mean_mse,
            "std_error": self.std_error,
            "config": self.config,
            "duration_seconds": self.duration_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        return cls(
            model=payload["model"],
            repetitions=payload["repetitions"],
            per_rep_mse=list(payload["per_rep_mse"]),
            mean_mse=payload["mean_mse"],
            std_error=payload["std_error"],
            config=payload["config"],
            duration_seconds=payload["duration_seconds"],
            schema_version=payload["schema_version"],
        )


def ite_mse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared difference between predicted and true effects."""
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape or predicted.ndim != 1 or len(predicted) == 0:
        raise ValueError("predicted and truth must be equal-length non-empty vectors")
    return float(np.mean((predicted - truth) ** 2))


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# spawn-key channels: (1, r, c) is repetition r; (0, x) are run-global streams
_DATA, _SPLIT, _TRAIN, _MC = range(4)


def _fit_and_predict(
    config: ExperimentConfig,
    train_set: ObservationalDataset,
    test_X: np.ndarray,
    train_rng: np.random.Generator,
    mc_rng: np.random.Generator,
) -> np.ndarray:
    kind, value = parse_model(config.model)
    if kind == "dcn-pd":
        schedule = DropoutSchedule(config.train.gamma)
        prop = train_propensity(
            train_set,
            config.propensity_arch,
            config.propensity_epochs,
            train_rng,
            schedule=schedule,
        )
        params = train_dcn(train_set, prop, config.train, train_rng)
        samples = mc_ite_matrix(params, prop, schedule, test_X, config.n_samples, mc_rng)
        return samples.mean(axis=1)
    if kind == "dcn-fixed":
        params = train_dcn_fixed_dropout(train_set, value, config.train, train_rng)
        return predict_deterministic(params, test_X)[2]
    if kind == "nn4":
        model = train_direct_nn(train_set, DEFAULT_DIRECT_ARCH, config.train, train_rng)
        return model.predict_ite(test_X)
    knn_config = KnnConfig(k=value)
    return np.array([knn_ite(train_set, row, knn_config) for row in test_X])


def _run_repetition(
    config: ExperimentConfig,
    r: int,
    base: ObservationalDataset | None,
    covariates: np.ndarray | None,
) -> float:
    if base is not None:
        dataset = base
    else:
        dataset = generate_synthetic(
            config.synthetic, _stream(config.seed, 1, r, _DATA), covariates=covariates
        )
    if config.fixed_split:
        split_rng = _stream(config.seed, 0, 1)  # same permutation every repetition
    else:
        split_rng = _stream(config.seed, 1, r, _SPLIT)
    train_set, test_set = train_test_split(dataset, config.train_fraction, split_rng)
    train_scaled, transform = standardize(train_set)
    test_X = transform.transform(test_set.X)
    predictions = _fit_and_predict(
        config,
        train_scaled,
        test_X,
        _stream(config.seed, 1, r, _TRAIN),
        _stream(config.seed, 1, r, _MC),
    )
    return ite_mse(predictions, test_set.true_ite)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all repetitions and aggregate their effect MSEs.

    Repetitions are independent given their derived streams; they run
    sequentially here, and results are keyed by repetition index either way.
    """
    start = time.perf_counter()
    base = covariates = None
    if config.csv_path is not None:
        base = load_csv(config.csv_path)
        if base.true_ite is None:
            raise ConfigError(
                "evaluation needs ground truth: the CSV must carry mu0 and mu1 columns"
            )
    elif config.fixed_covariates:
        covariates = _stream(config.seed, 0, 0).standard_normal(
            (config.synthetic.n, config.synthetic.d)
        )
    per_rep: list[float] = []
    for r in range(config.repetitions):
        try:
            per_rep.append(_run_repetition(config, r, base, covariates))
        except ConfigError:
            raise
        except Exception as e:
            raise RuntimeError(f"repetition {r} failed: {e}") from e
    values = np.asarray(per_rep)
    std_error = (
        float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    )
    return ExperimentReport(
        model=config.model,
        repetitions=config.repetitions,
        per_rep_mse=[float(v) for v in per_rep],
        mean_mse=float(values.mean()),
        std_error=std_error,
        config=config.to_dict(),
        duration_seconds=time.perf_counter() - start,
    )


def emit_report(report: ExperimentReport, path) -> None:
    """Write the JSON report and a per-repetition CSV next to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    csv_path = path.with_suffix(".csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["schema_version", "repetition", "ite_mse"])
        for r, value in enumerate(report.per_rep_mse):
            writer.writerow([report.schema_version, r, repr(float(value))])


def load_report(path) -> ExperimentReport:
    with open(path, encoding="utf-8") as fh:
        return ExperimentReport.from_dict(json.load(fh))


# --- model bundles (CLI train/evaluate interchange format) ---


def load_source(config: ExperimentConfig, rng: np.random.Generator) -> ObservationalDataset:
    """The config's dataset: load the CSV or draw one synthetic realization."""
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    return generate_synthetic(config.synthetic, rng)


def train_model_bundle(config: ExperimentConfig) -> dict:
    """Train the configured model on the full dataset; return a JSON-ready bundle."""
    dataset = load_source(config, _stream(config.seed, 1, 0, _DATA))
    scaled, transform = standardize(dataset)
    kind, value = parse_model(config.model)
    train_rng = _stream(config.seed, 1, 0, _TRAIN)
    bundle: dict = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "standardization": transform.to_dict(),
    }
    if kind == "dcn-pd":
        schedule = DropoutSchedule(config.train.gamma)
        prop = train_propensity(
            scaled,
            config.propensity_arch,
            config.propensity_epochs,
            train_rng,
            schedule=schedule,
        )
        params = train_dcn(scaled, prop, config.train, train_rng)
        bundle.update(
            gamma=config.train.gamma,
            n_samples=config.n_samples,
            propensity=prop.to_dict(),
            dcn=params.to_dict(),
        )
    elif kind == "dcn-fixed":
        params = train_dcn_fixed_dropout(scaled, value, config.train, train_rng)
        bundle.update(dropout_prob=value, dcn=params.to_dict())
    elif kind == "nn4":
        model = train_direct_nn(scaled, DEFAULT_DIRECT_ARCH, config.train, train_rng)
        bundle.update(net=model.to_dict()["net"])
    else:
        bundle.update(
            k=value,
            x=scaled.X.tolist(),
            w=scaled.W.tolist(),
            y=scaled.Y.tolist(),
        )
    return bundle


def predict_from_bundle(
    bundle: dict, X: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Predicted effects for raw (unstandardized) feature rows."""
    version = bundle.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported bundle schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    transform = Standardization.from_dict(bundle["standardization"])
    X_scaled = transform.transform(np.asarray(X, dtype=np.float64))
    kind = bundle["kind"]
    if kind == "dcn-pd":
        prop = PropensityModel.from_dict(bundle["propensity"])
        params = DCNParams.from_dict(bundle["dcn"])
        schedule = DropoutSchedule(bundle["gamma"])
        if rng is None:
            rng = np.random.default_rng()
        samples = mc_ite_matrix(
            params, prop, schedule, X_scaled, int(bundle.get("n_samples", 100)), rng
        )
        return samples.mean(axis=1)
    if kind == "dcn-fixed":
        return predict_deterministic(DCNParams.from_dict(bundle["dcn"]), X_scaled)[2]
    if kind == "nn4":
        return DirectModel(MLPParams.from_dict(bundle["net"])).predict_ite(X_scaled)
    if kind == "knn":
        train_set = ObservationalDataset(
            np.asarray(bundle["x"]), np.asarray(bundle["w"]), np.asarray(bundle["y"])
        )
        knn_config = KnnConfig(k=int(bundle["k"]))
        return np.array([knn_ite(train_set, row, knn_config) for row in X_scaled])
    raise ConfigError(f"unknown bundle kind {kind!r}")
