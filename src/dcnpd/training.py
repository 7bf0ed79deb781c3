"""Phase-by-phase minibatch training, and the alternating multitask trainer.

`fit_phases` is the one minibatch loop: each epoch trains one chain of nets
on one set of rows, the phases taken in turn, with fresh per-example dropout
masks every minibatch. The multitask network runs two phases: odd epochs
(k = 1, 3, ...) update the shared stack and head0 on the control subjects,
even epochs update the shared stack and head1 on the treated subjects. The
inactive head is never touched, so its parameters are bit-identical across
its off epochs. Each parameter group keeps its own Adam moment state for the
whole run. The direct-net baseline (`baselines.train_direct_nn`) runs one
phase over every row.

Keep probabilities are gamma/2 + H(p_tilde(x_i))/2 from the frozen
propensity model; the fixed-dropout variant replaces that schedule with a
constant and is otherwise the same code path (identical random-stream
consumption, so the two coincide bit-for-bit whenever their keep
probabilities do).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import ObservationalDataset, check_count, check_widths
from .dcn import DCNParams, build_dcn
from .nn import AdamState, MLPParams, draw_masks, mask_widths, minibatches, mlp_forward, train_step
from .propensity import DropoutSchedule, PropensityModel, keep_probability, predict_propensity


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the alternating loop; defaults follow the benchmark setup.

    There is no seed here: every trainer takes its random stream as ``rng``.
    Adam's other settings are the constants `nn.BETA1`, `nn.BETA2` and
    `nn.EPSILON`.
    """

    epochs: int = 100
    gamma: float = 1.0
    learning_rate: float = 0.001
    batch_size: int = 32
    shared_widths: tuple[int, ...] = (200, 200)
    head_widths: tuple[int, ...] = ()

    def __post_init__(self):
        check_count("epochs", self.epochs, error=ValueError)
        DropoutSchedule(self.gamma)  # raises unless gamma lies in [0, 1]
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        check_count("batch_size", self.batch_size, error=ValueError)
        check_widths("shared_widths", self.shared_widths, error=ValueError)
        check_widths("head_widths", self.head_widths, error=ValueError)
        if not self.shared_widths:
            raise ValueError("at least one shared layer is required")


@dataclass(frozen=True)
class EpochRecord:
    """One line of training telemetry: which phase ran and its factual MSE."""

    epoch: int
    phase: str
    factual_mse: float


def _squared_error_grad(y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    # dloss/doutput of the mean squared error of a net's first output against y
    return lambda out: (2.0 * (out[:, 0] - y) / len(y))[:, None]


def fit_phases(
    phases: Sequence[tuple[str, Sequence[MLPParams], Sequence[AdamState], np.ndarray]],
    X: np.ndarray,
    Y: np.ndarray,
    keep: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> None:
    """Train chains of nets in place, one phase per epoch, phases in turn.

    A phase is ``(name, nets, states, rows)``: epoch k makes one shuffled
    minibatch pass of ``phases[(k - 1) % len(phases)]`` over its ``rows`` of
    ``X`` and ``Y``. Each minibatch draws, with one `draw_masks` call at
    ``keep`` of its rows, the masks of ``mask_widths(nets)``, and takes one
    `train_step` on the squared error of the chain's first output.
    ``on_epoch`` receives each epoch's `EpochRecord`, whose error is the
    maskless one on the phase's rows. Each phase keeps one set of step
    caches and one mask block per minibatch length, of which it has at
    most two.
    """
    buffers = {}  # (phase, minibatch length) -> (train_step caches, mask block)
    for k in range(1, config.epochs + 1):
        phase = (k - 1) % len(phases)
        name, nets, states, rows = phases[phase]
        widths = mask_widths(nets)
        try:
            for batch in minibatches(len(rows), config.batch_size, rng):
                idx = rows[batch]
                if (phase, len(idx)) not in buffers:
                    block = np.empty((1, len(idx) * sum(map(sum, widths))))
                    buffers[phase, len(idx)] = [None] * len(nets), block
                caches, block = buffers[phase, len(idx)]
                # masks are drawn unconditionally, even at keep 1, so runs that
                # differ only in schedule stay on the same random stream
                masks = draw_masks(widths, keep[idx], rng, out=block)
                train_step(nets, states, X[idx], masks, _squared_error_grad(Y[idx]), caches)
        except FloatingPointError as e:
            raise FloatingPointError(f"epoch {k} ({name} phase): {e}") from None
        if on_epoch is not None:
            out = X[rows]
            for net in nets:
                out = mlp_forward(net, out)[0]
            on_epoch(EpochRecord(k, name, float(np.mean((out[:, 0] - Y[rows]) ** 2))))


def _train_alternating(
    dataset: ObservationalDataset,
    keep: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None,
) -> DCNParams:
    control = np.flatnonzero(dataset.W == 0)
    treated = np.flatnonzero(dataset.W == 1)
    if len(treated) == 0 or len(control) == 0:
        raise ValueError("training needs both treated and control subjects")
    params = build_dcn(dataset.d, rng, config.shared_widths, config.head_widths)
    # the two phases share the shared stack's Adam state; each head has its own
    shared, head0, head1 = (
        AdamState.for_params(net.parameter_arrays(), config.learning_rate)
        for net in (params.shared, params.head0, params.head1)
    )
    phases = [
        ("control", [params.shared, params.head0], [shared, head0], control),
        ("treated", [params.shared, params.head1], [shared, head1], treated),
    ]
    hook = None if on_epoch is None else lambda record: on_epoch(record, params)
    fit_phases(phases, dataset.X, dataset.Y, keep, config, rng, hook)
    return params


def train_dcn(
    dataset: ObservationalDataset,
    prop: PropensityModel,
    config: TrainConfig,
    rng: np.random.Generator,
    *,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None = None,
) -> DCNParams:
    """Propensity-guided training: keep probabilities follow the entropy schedule.

    The propensity model stays frozen; its scores are computed once up
    front. ``on_epoch``, when given, receives each epoch's `EpochRecord`
    and the network as it stands. Initialization, minibatch order and
    masks all draw from ``rng``.
    """
    if prop.net.input_dim != dataset.d:
        raise ValueError(
            f"propensity model expects {prop.net.input_dim} features, dataset has {dataset.d}"
        )
    schedule = DropoutSchedule(config.gamma)
    keep_all = keep_probability(predict_propensity(prop, dataset.X), schedule)
    return _train_alternating(dataset, keep_all, config, rng, on_epoch)


def train_dcn_fixed_dropout(
    dataset: ObservationalDataset,
    dropout_prob: float,
    config: TrainConfig,
    rng: np.random.Generator,
    *,
    on_epoch: Callable[[EpochRecord, DCNParams], None] | None = None,
) -> DCNParams:
    """Same alternating loop with one constant keep probability for everyone."""
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError("dropout_prob must lie in [0, 1)")
    keep_all = np.full(dataset.n, 1.0 - dropout_prob)
    return _train_alternating(dataset, keep_all, config, rng, on_epoch)
