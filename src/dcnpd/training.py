"""Alternating-phase training of the multitask network.

Epochs alternate between the two treatment arms: odd epochs (k = 1, 3, ...)
update the shared stack and head0 on the control batch, even epochs update
the shared stack and head1 on the treated batch. The inactive head is never
touched, so its parameters are bit-identical across its off epochs. Each
parameter group keeps its own Adam moment state for the whole run.

Per-example dropout masks are drawn every minibatch with keep probability
gamma/2 + H(p_tilde(x_i))/2 from the frozen propensity model; the
fixed-dropout variant replaces that schedule with a constant and is
otherwise the same code path (identical random-stream consumption, so the
two coincide bit-for-bit whenever their keep probabilities do).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, TextIO

import numpy as np

from .data import ObservationalDataset, check_count
from .dcn import DCNParams, build_dcn, dcn_forward
from .nn import AdamState, draw_masks, minibatches, train_step
from .propensity import (
    DropoutSchedule,
    PropensityModel,
    keep_probability,
    predict_propensity,
)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the alternating loop; defaults follow the benchmark setup."""

    epochs: int = 100
    gamma: float = 1.0
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    shared_widths: tuple[int, ...] = (200, 200)
    head_widths: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        check_count("epochs", self.epochs, error=ValueError)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        for name in ("learning_rate", "epsilon"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        check_count("batch_size", self.batch_size, error=ValueError)

    def adam_state(self, arrays) -> AdamState:
        """Fresh Adam moments for ``arrays`` with this config's optimizer settings."""
        return AdamState.for_params(
            arrays, self.learning_rate, self.beta1, self.beta2, self.epsilon
        )


@dataclass(frozen=True)
class EpochRecord:
    """One line of training telemetry: which phase ran and its factual MSE."""

    epoch: int
    phase: str
    factual_mse: float


def split_batches(
    dataset: ObservationalDataset,
) -> tuple[ObservationalDataset, ObservationalDataset]:
    """Partition by treatment: (treated, control), original row order kept."""
    return (
        dataset.subset(np.flatnonzero(dataset.W == 1)),
        dataset.subset(np.flatnonzero(dataset.W == 0)),
    )


def factual_mse(params: DCNParams, batch: ObservationalDataset) -> float:
    """Mean squared error of each subject's own arm against its factual outcome."""
    if batch.n == 0:
        raise ValueError("factual_mse needs a non-empty batch")
    y0, y1 = dcn_forward(params, batch.X)
    pred = np.where(batch.W == 1, y1, y0)
    return float(np.mean((pred - batch.Y) ** 2))


def _train_alternating(
    dataset: ObservationalDataset,
    keep_all: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None,
    metrics_out: TextIO | None,
    mask_observer: Callable[[np.ndarray, np.ndarray], None] | None,
) -> DCNParams:
    treated_idx = np.flatnonzero(dataset.W == 1)
    control_idx = np.flatnonzero(dataset.W == 0)
    if len(treated_idx) == 0 or len(control_idx) == 0:
        raise ValueError("training needs both treated and control subjects")
    params = build_dcn(dataset.d, rng, config.shared_widths, config.head_widths)
    shared_state = config.adam_state(params.shared.parameter_arrays())
    shared_widths, head0_widths, head1_widths = params.mask_widths()
    arms = (
        ("control", control_idx, params.head0, head0_widths),
        ("treated", treated_idx, params.head1, head1_widths),
    )
    head_states = [config.adam_state(head.parameter_arrays()) for _, _, head, _ in arms]
    for k in range(1, config.epochs + 1):
        arm = 0 if k % 2 == 1 else 1
        phase, idx, head, head_widths = arms[arm]
        try:
            for batch in minibatches(len(idx), config.batch_size, rng):
                rows = idx[batch]
                yb, keep = dataset.Y[rows], keep_all[rows]
                # masks are drawn unconditionally, even at keep 1, so runs that
                # differ only in schedule stay on the same random stream
                shared_mask = draw_masks(shared_widths, keep, rng)
                head_mask = draw_masks(head_widths, keep, rng)
                if mask_observer is not None:
                    mask_observer(rows, keep)
                # held until the next step returns (see train_step)
                last_step = train_step(
                    [params.shared, head],
                    [shared_state, head_states[arm]],
                    dataset.X[rows],
                    [shared_mask, head_mask],
                    lambda out: (2.0 * (out[:, 0] - yb) / len(rows))[:, None],
                )
        except FloatingPointError as e:
            raise FloatingPointError(f"epoch {k} ({phase} phase): {e}") from None
        if on_epoch is not None or metrics_out is not None:
            record = EpochRecord(
                epoch=k,
                phase=phase,
                factual_mse=factual_mse(params, dataset.subset(idx)),
            )
            if on_epoch is not None:
                on_epoch(record, params)
            if metrics_out is not None:
                metrics_out.write(
                    json.dumps(
                        {
                            "epoch": record.epoch,
                            "phase": record.phase,
                            "factual_mse": record.factual_mse,
                        }
                    )
                    + "\n"
                )
    return params


def train_dcn(
    dataset: ObservationalDataset,
    prop: PropensityModel,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    *,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None = None,
    metrics_out: TextIO | None = None,
    mask_observer: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> DCNParams:
    """Propensity-guided training: keep probabilities follow the entropy schedule.

    The propensity model stays frozen; its scores are computed once up
    front. ``mask_observer``, when given, receives (dataset row indices,
    keep probabilities) for every minibatch. With ``rng`` omitted, the
    stream is seeded from ``config.seed``.
    """
    if prop.net.input_dim != dataset.d:
        raise ValueError(
            f"propensity model expects {prop.net.input_dim} features, dataset has {dataset.d}"
        )
    if rng is None:
        rng = np.random.default_rng(config.seed)
    schedule = DropoutSchedule(config.gamma)
    keep_all = keep_probability(predict_propensity(prop, dataset.X), schedule)
    return _train_alternating(
        dataset, keep_all, config, rng, on_epoch, metrics_out, mask_observer
    )


def train_dcn_fixed_dropout(
    dataset: ObservationalDataset,
    dropout_prob: float,
    config: TrainConfig,
    rng: np.random.Generator | None = None,
    *,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None = None,
    metrics_out: TextIO | None = None,
    mask_observer: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> DCNParams:
    """Same alternating loop with one constant keep probability for everyone."""
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError("dropout_prob must lie in [0, 1)")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    keep_all = np.full(dataset.n, 1.0 - dropout_prob)
    return _train_alternating(
        dataset, keep_all, config, rng, on_epoch, metrics_out, mask_observer
    )
