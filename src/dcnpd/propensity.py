"""Propensity scoring and the entropy-based dropout schedule.

A small feed-forward network estimates p(x) = P(W=1 | X=x). Its predicted
score feeds a dropout schedule that keeps units with probability
gamma/2 + H(p)/2, where H is base-2 binary entropy: subjects whose
treatment assignment is nearly deterministic (p near 0 or 1) carry thin
counterfactual evidence and get dropped hardest, while perfectly balanced
subjects (p = 1/2) see no dropout at all when gamma = 1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import ObservationalDataset, Standardization, check_count, standardize
from .nn import (
    AdamState,
    MLPParams,
    build_mlp,
    mlp_forward,
    stable_sigmoid,
    train_step,
)

PROB_CLAMP = 1e-12

DEFAULT_ARCH = (25, 25)
DEFAULT_EPOCHS = 300


@dataclass(frozen=True)
class DropoutSchedule:
    """Offset gamma in [0,1]; entropy is always base 2, so H(1/2) = 1."""

    gamma: float = 1.0

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


def dropout_probability(p_tilde, schedule: DropoutSchedule = DropoutSchedule()):
    """1 - gamma/2 - H(p)/2: maximal at extreme scores, zero at p = 1/2, gamma = 1."""
    return 1.0 - schedule.gamma / 2.0 - binary_entropy(p_tilde) / 2.0


def keep_probability(p_tilde, schedule: DropoutSchedule = DropoutSchedule()):
    """Complementary keep rate, computed directly as gamma/2 + H(p)/2."""
    return schedule.gamma / 2.0 + binary_entropy(p_tilde) / 2.0


@dataclass
class PropensityModel:
    """Sigmoid-output scorer plus the feature scaling it was fitted with.

    The dropout schedule travels with the model so a saved file pins down
    the entire keep-probability computation.
    """

    net: MLPParams
    standardization: Standardization
    schedule: DropoutSchedule = DropoutSchedule()

    def __post_init__(self):
        if self.net.output_dim != 1:
            raise ValueError("propensity net must have a single output unit")
        if self.net.layers[-1].activation != "sigmoid":
            raise ValueError("propensity net must end in a sigmoid output")

    def to_dict(self) -> dict:
        return {
            "net": self.net.to_dict(),
            "standardization": self.standardization.to_dict(),
            "gamma": self.schedule.gamma,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PropensityModel":
        # older bundles record the entropy base, which has only ever been 2
        if payload.get("entropy_base", 2) != 2:
            raise ValueError("entropy base is fixed at 2")
        return cls(
            MLPParams.from_dict(payload["net"]),
            Standardization.from_dict(payload["standardization"]),
            DropoutSchedule(payload["gamma"]),
        )


def predict_propensity(model: PropensityModel, x: np.ndarray):
    """Deterministic score in [1e-12, 1 - 1e-12]; no dropout in this network.

    Accepts a single feature vector (returns a float) or an (n, d) matrix
    (returns an (n,) array).
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    scores = mlp_forward(model.net, model.standardization.transform(rows))[0][:, 0]
    scores = np.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(scores[0]) if single else scores


def _bce_grad(logits: np.ndarray, w: np.ndarray) -> np.ndarray:
    # gradient of the mean cross-entropy with respect to the logits
    return ((stable_sigmoid(logits[:, 0]) - w) / len(w))[:, None]


def train_propensity(
    dataset: ObservationalDataset,
    arch: Sequence[int] = DEFAULT_ARCH,
    epochs: int = DEFAULT_EPOCHS,
    rng: np.random.Generator | None = None,
    schedule: DropoutSchedule = DropoutSchedule(),
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
    if rng is None:
        rng = np.random.default_rng()
    scaled, transform = standardize(dataset)
    net = build_mlp(
        (dataset.d, *arch, 1), rng, hidden_activation="relu", output_activation="sigmoid"
    )
    # train through an identity-output view sharing the sigmoid net's arrays
    # (a shallow copy), so the loss works on logits and never saturates
    logit_head = copy.copy(net.layers[-1])
    logit_head.activation = "identity"
    logit_view = MLPParams(net.layers[:-1] + [logit_head])
    w = scaled.W.astype(np.float64)
    state = AdamState.for_params(logit_view.parameter_arrays(), lr=learning_rate)
    for epoch in range(1, epochs + 1):
        try:
            # held until the next step returns (see train_step)
            last_step = train_step(
                [logit_view], [state], scaled.X, [None], lambda z: _bce_grad(z, w)
            )
        except FloatingPointError as e:
            raise FloatingPointError(f"propensity training, epoch {epoch}: {e}") from None
    return PropensityModel(net, transform, schedule)
