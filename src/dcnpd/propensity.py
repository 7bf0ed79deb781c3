"""Propensity scoring and the entropy-based dropout schedule.

A small feed-forward network estimates p(x) = P(W=1 | X=x). Its predicted
score feeds a dropout schedule that keeps units with probability
gamma/2 + H(p)/2, where H is base-2 binary entropy: subjects whose
treatment assignment is nearly deterministic (p near 0 or 1) carry thin
counterfactual evidence and get dropped hardest, while perfectly balanced
subjects (p = 1/2) see no dropout at all when gamma = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ObservationalDataset, Standardization, check_count, standardize
from .nn import AdamState, MLPParams, build_mlp, json_object, mlp_forward, train_step

PROB_CLAMP = 1e-12

DEFAULT_ARCH = (25, 25)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


@dataclass(frozen=True)
class DropoutSchedule:
    """Offset gamma in [0,1], whose one default is `TrainConfig.gamma`; H is base 2."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


def binary_entropy(p):
    """Base-2 entropy of a Bernoulli(p); endpoints use the 0*log0 = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(p > 0.0, p * np.log2(p), 0.0) - np.where(
            q > 0.0, q * np.log2(q), 0.0
        )
    return h if h.ndim else float(h)


def dropout_probability(p_tilde, schedule: DropoutSchedule):
    """1 - gamma/2 - H(p)/2: maximal at extreme scores, zero at p = 1/2, gamma = 1."""
    return 1.0 - schedule.gamma / 2.0 - binary_entropy(p_tilde) / 2.0


def keep_probability(p_tilde, schedule: DropoutSchedule):
    """Complementary keep rate, computed directly as gamma/2 + H(p)/2."""
    return schedule.gamma / 2.0 + binary_entropy(p_tilde) / 2.0


@dataclass
class PropensityModel:
    """Logit-output scorer plus the feature scaling it was fitted with.

    Its net ends in one identity unit; `predict_propensity` applies the
    sigmoid. It holds no gamma: the fitted dcn-pd model owns the schedule.
    """

    net: MLPParams
    standardization: Standardization

    def __post_init__(self):
        if self.net.output_dim != 1:
            raise ValueError("propensity net must have a single output unit")
        if self.net.layers[-1].activation != "identity":
            raise ValueError("propensity net must end in an identity (logit) output")
        if len(self.standardization.mean) != self.net.input_dim:
            raise ValueError(
                f"standardization width {len(self.standardization.mean)} "
                f"does not match propensity net width {self.net.input_dim}"
            )

    def to_dict(self) -> dict:
        return {
            "net": self.net.to_dict(),
            "standardization": self.standardization.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PropensityModel":
        net = json_object(payload["net"], "propensity.net")
        scaling = json_object(payload["standardization"], "propensity.standardization")
        return cls(
            MLPParams.from_dict(net, "propensity.net"),
            Standardization.from_dict(scaling, "propensity.standardization"),
        )


def predict_propensity(model: PropensityModel, x: np.ndarray) -> np.ndarray:
    """Scores in [1e-12, 1 - 1e-12] of an (n, d) matrix's rows; deterministic, no dropout."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:  # a stack would pass the layers and lose all but its first rows
        raise ValueError("x must be 2-D (subjects x features)")
    logits = mlp_forward(model.net, model.standardization.transform(x))[0][:, 0]
    return np.clip(stable_sigmoid(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)


def _bce_grad(logits: np.ndarray, w: np.ndarray) -> np.ndarray:
    # gradient of the mean cross-entropy with respect to the logits
    return ((stable_sigmoid(logits[:, 0]) - w) / len(w))[:, None]


def train_propensity(
    dataset: ObservationalDataset,
    arch: Sequence[int] = DEFAULT_ARCH,
    *,
    epochs: int,
    rng: np.random.Generator,
    learning_rate: float = 0.001,
) -> PropensityModel:
    """Fit the scorer by full-batch Adam on binary cross-entropy of W given X.

    Features are standardized internally and the fitted scaling is stored
    on the returned model, so callers may pass raw or pre-scaled data.
    """
    check_count("epochs", epochs, error=ValueError)
    treated = int(dataset.W.sum())
    if treated == 0 or treated == dataset.n:
        raise ValueError("propensity training needs both treated and control subjects")
    scaled, transform = standardize(dataset)
    # the net ends in logits, so the loss never saturates
    net = build_mlp((dataset.d, *arch, 1), rng)
    w = scaled.W.astype(np.float64)
    state = AdamState.for_params(net.parameter_arrays(), learning_rate)
    caches = [None]
    for epoch in range(1, epochs + 1):
        try:
            train_step([net], [state], scaled.X, [None], lambda z: _bce_grad(z, w), caches)
        except FloatingPointError as e:
            raise FloatingPointError(f"propensity training, epoch {epoch}: {e}") from None
    return PropensityModel(net, transform)
