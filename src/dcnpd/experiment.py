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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import pool
from .baselines import DEFAULT_DIRECT_ARCH, KnnConfig, knn_arms, knn_ite, train_direct_nn
from .data import (
    ObservationalDataset,
    Standardization,
    SyntheticConfig,
    check_count,
    check_widths,
    generate_synthetic,
    load_csv,
    standardize,
    train_test_split,
)
from .dcn import DCNParams, dcn_forward, mc_ite_matrix
from .nn import MLPParams, json_list, json_object, mlp_forward
from .propensity import DEFAULT_ARCH, DropoutSchedule, PropensityModel, train_propensity
from .training import TrainConfig, train_dcn, train_dcn_fixed_dropout

SCHEMA_VERSION = 1  # reports, sidecars and evaluate results
BUNDLE_VERSION = 2  # the model bundle's layout; `_upgrade` reads version 1

MODEL_TOKENS = "dcn-pd | dcn-fixed:<p> | nn4 | knn:<k>"


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to CLI exit code 2."""


def parse_model(token: str) -> tuple[str, float | int | None]:
    """Split a model token (one of `MODEL_TOKENS`) into its kind and parameter."""
    if not isinstance(token, str):
        raise ConfigError(f"model must be a string, one of {MODEL_TOKENS}; got {token!r}")
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
    raise ConfigError(f"unknown model {token!r}; expected {MODEL_TOKENS}")


def config_from_json(cls, payload, where: str):
    """``cls(**payload)`` from a JSON object; lists become tuple fields.

    An unknown key, a malformed value or a field ``cls`` rejects is a ConfigError.
    """
    if not isinstance(payload, dict):
        raise ConfigError(f"the {where} must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown keys in the {where}: {unknown}")
    kwargs = dict(payload)
    for f in fields(cls):
        if f.name in kwargs and str(f.type).startswith("tuple"):
            if not isinstance(kwargs[f.name], (list, tuple)):
                raise ConfigError(f"{where}: {f.name} must be a list, got {kwargs[f.name]!r}")
            kwargs[f.name] = tuple(kwargs[f.name])
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {where}: {e}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; the seed is mandatory, the model only to train one.

    ``seed`` is the only seed: every random draw of a run comes from its streams.
    """

    seed: int
    model: str | None = None
    synthetic: SyntheticConfig | None = None
    csv_path: str | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    repetitions: int = 1
    train_fraction: float = 0.8
    n_samples: int = 100
    propensity_arch: tuple[int, ...] = DEFAULT_ARCH
    propensity_epochs: int = 1000
    fixed_split: bool = False
    fixed_covariates: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.model is not None:
            parse_model(self.model)
        if self.seed is None:
            raise ConfigError("a seed is required; reproducibility is not optional")
        check_count("seed", self.seed, 0, ConfigError)
        if (self.synthetic is None) == (self.csv_path is None):
            raise ConfigError("exactly one dataset source: synthetic or csv_path")
        check_count("repetitions", self.repetitions, error=ConfigError)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")
        check_count("n_samples", self.n_samples, error=ConfigError)
        check_count("propensity_epochs", self.propensity_epochs, error=ConfigError)
        check_widths("propensity_arch", self.propensity_arch, error=ConfigError)
        for name in ("csv_path", "out"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ConfigError(f"{name} must be a string or null, got {getattr(self, name)!r}")
        if self.fixed_covariates and self.synthetic is None:
            raise ConfigError("fixed_covariates requires a synthetic source")

    def to_dict(self) -> dict:
        # JSON has no tuples: widths and architectures are written as lists
        return asdict(
            self,
            dict_factory=lambda items: {
                k: list(v) if isinstance(v, tuple) else v for k, v in items
            },
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """The config a JSON object describes; each level rejects keys it does not know."""
        if "seed" not in payload:
            raise ConfigError("a seed is required: pass --seed or set it in the config")
        kwargs = dict(payload)
        if kwargs.get("train") is None:
            kwargs.pop("train", None)
        for name, block in (("synthetic", SyntheticConfig), ("train", TrainConfig)):
            if kwargs.get(name) is not None:
                kwargs[name] = config_from_json(block, kwargs[name], f"{name} block")
        return config_from_json(cls, kwargs, "config")


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
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentReport":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


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


# --- the estimators: one entry of MODELS per model kind ---
#
# ``fit(train_set, config, value, rng)`` trains on standardized rows, where
# ``value`` is the model token's parameter; the fitted object predicts effects
# for standardized rows with ``predict_ite(X, rng)``, ``width`` is the feature
# width it takes, and ``to_dict`` / ``from_dict`` write and read the kind's
# bundle fields. Trainers are called through this module's globals, so
# rebinding them (as a tracer does) reaches every call.


@dataclass
class _PropensityDropoutDCN:
    """Propensity net, then the two-headed net under propensity-dropout; MC-averaged effects."""

    propensity: PropensityModel
    dcn: DCNParams
    schedule: DropoutSchedule
    n_samples: int

    def __post_init__(self):
        check_count("n_samples", self.n_samples, error=ValueError)
        width = self.propensity.net.input_dim
        if width != self.width:
            raise ValueError(f"propensity width {width} does not match dcn width {self.width}")

    @property
    def width(self) -> int:
        return self.dcn.input_dim

    @classmethod
    def fit(cls, train_set, config: ExperimentConfig, value, rng):
        arch, epochs = config.propensity_arch, config.propensity_epochs
        prop = train_propensity(train_set, arch, epochs=epochs, rng=rng)
        dcn = train_dcn(train_set, prop, config.train, rng)
        return cls(prop, dcn, DropoutSchedule(config.train.gamma), config.n_samples)

    def predict_ite(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        samples = mc_ite_matrix(self.dcn, self.propensity, self.schedule, X, self.n_samples, rng)
        return samples.mean(axis=1)

    def to_dict(self) -> dict:
        return {
            "gamma": self.schedule.gamma,
            "n_samples": self.n_samples,
            "propensity": self.propensity.to_dict(),
            "dcn": self.dcn.to_dict(),
        }

    @classmethod
    def from_dict(cls, bundle: dict):
        schedule = DropoutSchedule(bundle["gamma"])
        prop = PropensityModel.from_dict(json_object(bundle["propensity"], "propensity"))
        dcn = DCNParams.from_dict(json_object(bundle["dcn"], "dcn"))
        return cls(prop, dcn, schedule, bundle["n_samples"])


@dataclass
class _FixedDropoutDCN:
    """The two-headed net trained with one dropout rate; deterministic effects."""

    dropout_prob: float
    dcn: DCNParams

    @property
    def width(self) -> int:
        return self.dcn.input_dim

    @classmethod
    def fit(cls, train_set, config: ExperimentConfig, value, rng):
        return cls(value, train_dcn_fixed_dropout(train_set, value, config.train, rng))

    def predict_ite(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        y0, y1 = dcn_forward(self.dcn, X)
        return y1 - y0

    def to_dict(self) -> dict:
        return {"dropout_prob": self.dropout_prob, "dcn": self.dcn.to_dict()}

    @classmethod
    def from_dict(cls, bundle: dict):
        return cls(bundle["dropout_prob"], DCNParams.from_dict(json_object(bundle["dcn"], "dcn")))


@dataclass
class _DirectNet:
    """One four-layer regressor f(x, w); deterministic effects f(x, 1) - f(x, 0)."""

    net: MLPParams

    def __post_init__(self):
        if self.net.output_dim != 1:
            raise ValueError("direct model must have a single output unit")

    @property
    def width(self) -> int:
        return self.net.input_dim - 1

    @classmethod
    def fit(cls, train_set, config: ExperimentConfig, value, rng):
        return cls(train_direct_nn(train_set, DEFAULT_DIRECT_ARCH, config.train, rng=rng))

    def predict_ite(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # one pass per arm: a single 2n-row pass may round differently
        y1, y0 = (
            mlp_forward(self.net, np.column_stack([X, np.full(len(X), w)]))[0][:, 0]
            for w in (1.0, 0.0)
        )
        return y1 - y0

    def to_dict(self) -> dict:
        return {"net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, bundle: dict):
        return cls(MLPParams.from_dict(json_object(bundle["net"], "net")))


@dataclass
class _Matching:
    """k-NN matching against the training rows, which the bundle embeds.

    Both arms must hold at least k rows, checked when the model is built, so
    neither `fit` nor `from_dict` returns a model that cannot answer a query.
    """

    train_set: ObservationalDataset
    knn: KnnConfig

    def __post_init__(self):
        knn_arms(self.train_set.W, self.knn.k)

    @property
    def width(self) -> int:
        return self.train_set.d

    @classmethod
    def fit(cls, train_set, config: ExperimentConfig, value, rng):
        return cls(train_set, KnnConfig(k=value))

    def predict_ite(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return np.array([knn_ite(self.train_set, row, self.knn) for row in X])

    def to_dict(self) -> dict:
        rows = self.train_set
        return {"k": self.knn.k, "x": rows.X.tolist(), "w": rows.W.tolist(), "y": rows.Y.tolist()}

    @classmethod
    def from_dict(cls, bundle: dict):
        rows = ObservationalDataset(
            np.asarray(bundle["x"]), np.asarray(bundle["w"]), np.asarray(bundle["y"])
        )
        return cls(rows, KnnConfig(k=bundle["k"]))


MODELS = {
    "dcn-pd": _PropensityDropoutDCN,
    "dcn-fixed": _FixedDropoutDCN,
    "nn4": _DirectNet,
    "knn": _Matching,
}


def _realization_files(config: ExperimentConfig) -> list[Path]:
    """``[csv_path]`` for a file; for a directory, one sorted ``*.csv`` per repetition."""
    path = Path(config.csv_path)
    if not path.is_dir():
        return [path]
    files = sorted(path.glob("*.csv"))
    if len(files) < config.repetitions:
        raise ConfigError(
            f"csv_path {path} holds {len(files)} CSV files; "
            f"{config.repetitions} repetitions need one each"
        )
    return files[: config.repetitions]


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
    kind, value = parse_model(config.model)
    model = MODELS[kind].fit(train_scaled, config, value, _stream(config.seed, 1, r, _TRAIN))
    predictions = model.predict_ite(test_X, _stream(config.seed, 1, r, _MC))
    return ite_mse(predictions, test_set.true_ite)


# --- repetitions in worker processes ---
#
# A repetition that trains for at least POOL_MIN_STEPS minibatch steps runs in
# a `pool` worker, a child interpreter with single-threaded BLAS, one per usable CPU.
# It draws only from its own (seed, 1, r, .) streams, so its result does not
# depend on the worker or the CPU count, and at the benchmark's shapes (600
# training rows) a product has the same bits on one BLAS thread as on several,
# so it equals an in-process run. On a 2-core Xeon (OpenBLAS 0.3.31) a worker
# starts and serves its first job in 0.19-0.26 s; a benchmark-shaped step (32
# rows, d=25, 200-200 shared stack) takes 0.7-0.8 ms and a step of a one-layer
# 8-unit net 0.2 ms. A repetition of 1,000 steps is thus 0.2-0.8 s of work,
# enough that two of them side by side repay a worker's start-up even on the
# first call, while the benchmark's 4-step warm-ups stay in-process.
POOL_MIN_STEPS = 1_000


def _train_steps(config: ExperimentConfig, n: int) -> int:
    """Minibatch steps of one repetition on an n-row dataset; k-NN trains none."""
    if parse_model(config.model)[0] == "knn":
        return 0
    rows = math.ceil(config.train_fraction * n)
    return config.train.epochs * math.ceil(rows / config.train.batch_size)


def _failure(r: int, e: Exception) -> Exception:
    """What a failed repetition raises: a ConfigError as is, anything else wrapped."""
    if isinstance(e, ConfigError):
        return e
    error = RuntimeError(f"repetition {r} failed: {e}")
    error.__cause__ = e
    return error


def _collect(running: dict, values: dict, errors: dict, timeout: float | None = None) -> None:
    """Record the replies of the running workers ready within ``timeout`` s (None: one at least)."""
    for worker in pool._ready(running, timeout):
        r = running.pop(worker)
        try:
            values[r] = worker.result()
        except Exception as e:
            errors[r] = _failure(r, e)
        pool._give(worker)


def _repetitions(config: ExperimentConfig) -> list[float]:
    """Every repetition's effect MSE in order; the long ones run in worker processes."""
    base = covariates = None
    files = [] if config.csv_path is None else _realization_files(config)
    if config.fixed_covariates:
        covariates = _stream(config.seed, 0, 0).standard_normal(
            (config.synthetic.n, config.synthetic.d)
        )
    most = min(config.repetitions, pool.cpus())  # workers running at once
    values, errors, running = {}, {}, {}  # running maps a worker to its repetition
    try:
        for r in range(config.repetitions):
            try:
                if r < len(files):  # a single file loads once and serves every repetition
                    base = load_csv(files[r])
                    if base.true_ite is None:
                        raise ConfigError(
                            f"evaluation needs ground truth: {files[r]} must carry mu0 and mu1 columns"
                        )
            except Exception as e:  # raised as is, after any lower repetition's failure
                errors[r] = e
                break
            job = (config, r, base, covariates)
            rows = config.synthetic.n if base is None else base.n
            if _train_steps(config, rows) < POOL_MIN_STEPS:
                try:
                    values[r] = _run_repetition(*job)
                except Exception as e:
                    errors[r] = _failure(r, e)
            else:
                while len(running) == most:  # the first worker to reply takes this job
                    _collect(running, values, errors)
                if not errors:
                    try:
                        worker = pool._take()
                        worker.start("dcnpd.experiment", "_run_repetition", *job)
                        running[worker] = r
                    except Exception as e:  # no worker started, it died, or a job did not pickle
                        errors[r] = _failure(r, e)
            _collect(running, values, errors, timeout=0)
            if errors:  # no repetition starts after a failure; the running ones finish
                break
        while running:
            _collect(running, values, errors)
    except BaseException:  # an interrupt: kill the running workers, do not wait for them
        for worker in pool._live.difference(pool._idle):
            worker.close(kill=True)
        raise
    if errors:
        raise errors[min(errors)]
    return [values[r] for r in range(config.repetitions)]


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute all repetitions and aggregate their effect MSEs.

    Repetitions are independent given their derived streams. Those that train
    for at least `POOL_MIN_STEPS` minibatch steps run side by side in worker
    processes, one per CPU this process may use; the rest run here. Either
    way each `per_rep_mse` value has the same bits, and the lowest failing
    repetition's error is raised. An interrupt kills the workers still running
    instead of waiting for them. A ``csv_path`` directory gives repetition r
    the r-th ``*.csv`` in sorted order.
    """
    start = time.perf_counter()
    per_rep = _repetitions(config)
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


def write_json(path, payload: dict) -> str:
    """``payload`` as indented sorted-key JSON text, also written to ``path`` unless None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    return text


def emit_report(report: ExperimentReport, path) -> None:
    """Write the JSON report and a per-repetition CSV next to it."""
    path = Path(path)
    write_json(path, report.to_dict())
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


def load_source(
    csv_path: str | None, synthetic: SyntheticConfig | None, rng: np.random.Generator
) -> ObservationalDataset:
    """One dataset: the CSV file at ``csv_path``, else one draw of ``synthetic`` from ``rng``."""
    if csv_path is None:
        return generate_synthetic(synthetic, rng)
    if Path(csv_path).is_dir():
        raise ConfigError(f"csv_path {csv_path} is a directory; only benchmark reads one")
    return load_csv(csv_path)


def train_model_bundle(config: ExperimentConfig) -> dict:
    """Train the configured model on the full dataset; return a JSON-ready bundle."""
    dataset = load_source(config.csv_path, config.synthetic, _stream(config.seed, 1, 0, _DATA))
    scaled, transform = standardize(dataset)
    kind, value = parse_model(config.model)
    model = MODELS[kind].fit(scaled, config, value, _stream(config.seed, 1, 0, _TRAIN))
    return {
        "schema_version": BUNDLE_VERSION,
        "kind": kind,
        "standardization": transform.to_dict(),
        **model.to_dict(),
    }


def _upgrade(bundle: dict) -> dict:
    """A copy of a version-1 bundle in the version-2 layout; the input is not edited.

    A version-1 dcn-pd bundle may repeat its gamma as ``propensity.gamma``,
    record ``propensity.entropy_base``, which has only ever been 2, and end
    its propensity net in a ``"sigmoid"`` layer over the same logits that a
    version-2 net ends in ``"identity"``. The first two are checked and
    dropped, and the last layer is renamed.
    """
    upgraded = {**bundle, "schema_version": BUNDLE_VERSION}
    if bundle["kind"] != "dcn-pd":
        return upgraded
    upgraded["propensity"] = prop = dict(json_object(bundle["propensity"], "propensity"))
    if prop.pop("gamma", bundle["gamma"]) != bundle["gamma"]:
        raise ConfigError(f"gamma {bundle['gamma']!r} differs from propensity.gamma")
    if prop.pop("entropy_base", 2) != 2:
        raise ConfigError("propensity.entropy_base must be 2, the only base ever written")
    net = json_object(prop["net"], "propensity.net")
    layers = json_list(net["layers"], "propensity.net.layers")
    if layers:
        *hidden, last = layers
        last = json_object(last, f"propensity.net.layers[{len(hidden)}]")
        if last.get("activation") == "sigmoid":
            prop["net"] = {**net, "layers": [*hidden, {**last, "activation": "identity"}]}
    return upgraded


def predict_from_bundle(bundle: dict, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Predicted effects for raw (unstandardized) feature rows; draws, if any, from ``rng``."""
    version = bundle.get("schema_version")
    if type(version) is not int or version not in (1, BUNDLE_VERSION):  # not True, nor 1.0
        raise ConfigError(
            f"unsupported bundle schema_version {version!r}; expected 1 or {BUNDLE_VERSION}"
        )
    kind = bundle.get("kind")
    if not isinstance(kind, str) or kind not in MODELS:
        raise ConfigError(f"unknown bundle kind {kind!r}")
    try:
        if version == 1:
            bundle = _upgrade(bundle)
        scaling = json_object(bundle["standardization"], "standardization")
        transform = Standardization.from_dict(scaling)
        model = MODELS[kind].from_dict(bundle)
    except KeyError as e:
        raise ConfigError(f"{kind} bundle is missing the field {e}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{kind} bundle holds an invalid field: {e}") from None
    width = len(transform.mean)
    if width != model.width:
        raise ConfigError(
            f"{kind} bundle: standardization width {width} does not match model width {model.width}"
        )
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != width:
        raise ConfigError(f"the data have {X.shape[-1]} features; the {kind} bundle takes {width}")
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite effect, rejected below
        predictions = model.predict_ite(transform.transform(X), rng)
    finite = np.isfinite(predictions)
    if not finite.all():
        raise ConfigError(
            f"the {kind} bundle predicts a non-finite effect for row {int(np.argmin(finite))}"
        )
    return predictions
