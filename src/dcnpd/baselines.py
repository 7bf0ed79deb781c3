"""Comparison estimators: k-NN matching, a single-net regressor, fixed dropout.

The fixed-dropout variant of the multitask network lives in `training`
(`train_dcn_fixed_dropout`); this module adds the two structurally different
baselines. Both potential outcomes of a subject are estimated from
group-restricted neighbor sets in the matching estimator, and from one
network that takes the treatment bit as an input feature in the direct
estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ObservationalDataset, check_count
from .nn import (
    MLPParams,
    build_mlp,
    draw_masks,
    minibatches,
    mlp_forward,
    train_step,
)
from .training import TrainConfig

DEFAULT_DIRECT_ARCH = (200, 200, 200)  # hidden widths; output layer is the 4th
DIRECT_DROPOUT = 0.2


@dataclass(frozen=True)
class KnnConfig:
    """Matching estimator knobs; distances are Euclidean on the features as given."""

    k: int = 5

    def __post_init__(self):
        check_count("k", self.k, error=ValueError)


def _group_mean_outcome(
    X: np.ndarray, Y: np.ndarray, rows: np.ndarray, x: np.ndarray, k: int
) -> float:
    deltas = X[rows] - x
    distances = np.sqrt(np.sum(deltas * deltas, axis=1))
    # stable sort keeps equal distances in row order: ties go to lower index
    nearest = np.argsort(distances, kind="stable")[:k]
    return float(Y[rows][nearest].mean())


def knn_ite(
    train: ObservationalDataset, x: np.ndarray, config: KnnConfig = KnnConfig()
) -> float:
    """Mean outcome of the k nearest treated minus the k nearest control."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (train.d,):
        raise ValueError(f"x must be a length-{train.d} feature vector")
    treated = np.flatnonzero(train.W == 1)
    control = np.flatnonzero(train.W == 0)
    if len(treated) < config.k or len(control) < config.k:
        raise ValueError(
            f"both groups need at least k={config.k} members "
            f"(treated {len(treated)}, control {len(control)})"
        )
    return _group_mean_outcome(
        train.X, train.Y, treated, x, config.k
    ) - _group_mean_outcome(train.X, train.Y, control, x, config.k)


@dataclass
class DirectModel:
    """Single regressor f(x, w); effects are read off as f(x,1) - f(x,0)."""

    net: MLPParams

    def __post_init__(self):
        if self.net.output_dim != 1:
            raise ValueError("direct model must have a single output unit")

    @property
    def feature_dim(self) -> int:
        return self.net.input_dim - 1

    def predict_outcome(self, x: np.ndarray, w) -> np.ndarray | float:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        rows = x[None, :] if single else x
        if rows.shape[1] != self.feature_dim:
            raise ValueError(
                f"feature width {rows.shape[1]} does not match model width {self.feature_dim}"
            )
        w_col = np.broadcast_to(np.asarray(w, dtype=np.float64), (rows.shape[0],))
        inputs = np.column_stack([rows, w_col])
        out = mlp_forward(self.net, inputs)[0][:, 0]
        return float(out[0]) if single else out

    def predict_ite(self, x: np.ndarray) -> np.ndarray | float:
        return self.predict_outcome(x, 1.0) - self.predict_outcome(x, 0.0)

    def to_dict(self) -> dict:
        return {"net": self.net.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "DirectModel":
        return cls(MLPParams.from_dict(payload["net"]))


def train_direct_nn(
    dataset: ObservationalDataset,
    arch: Sequence[int] = DEFAULT_DIRECT_ARCH,
    config: TrainConfig = TrainConfig(),
    rng: np.random.Generator | None = None,
    dropout_prob: float = DIRECT_DROPOUT,
) -> DirectModel:
    """Fit the direct regressor on (x, w) -> y with uniform hidden dropout.

    Same optimizer, loss, initialization, and minibatch size as the
    multitask training loop, so comparisons isolate the architecture.
    """
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError("dropout_prob must lie in [0, 1)")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    net = build_mlp((dataset.d + 1, *arch, 1), rng, output_activation="identity")
    keep_all = np.full(dataset.n, 1.0 - dropout_prob)
    hidden_widths = net.hidden_widths()
    inputs = np.column_stack([dataset.X, dataset.W.astype(np.float64)])
    state = config.adam_state(net.parameter_arrays())
    for epoch in range(1, config.epochs + 1):
        try:
            for rows in minibatches(dataset.n, config.batch_size, rng):
                yb = dataset.Y[rows]
                masks = draw_masks(hidden_widths, keep_all[rows], rng)
                # held until the next step returns (see train_step)
                last_step = train_step(
                    [net],
                    [state],
                    inputs[rows],
                    [masks],
                    lambda out: (2.0 * (out[:, 0] - yb) / len(rows))[:, None],
                )
        except FloatingPointError as e:
            raise FloatingPointError(f"direct net training, epoch {epoch}: {e}") from None
    return DirectModel(net)
