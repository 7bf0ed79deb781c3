"""Comparison estimators: k-NN matching, a single-net regressor, fixed dropout.

The fixed-dropout variant of the multitask network lives in `training`
(`train_dcn_fixed_dropout`); this module adds the two structurally different
baselines. Both potential outcomes of a subject are estimated from
group-restricted neighbor sets in the matching estimator, and from one
network that takes the treatment bit as an input feature in the direct
estimator. Fitted models and their effect readouts live in `experiment`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pool
from .data import ROW_BLOCK, ObservationalDataset, check_count
from .nn import AdamState, MLPParams, build_mlp
from .training import TrainConfig, fit_phases

DEFAULT_DIRECT_ARCH = (200, 200, 200)  # hidden widths; output layer is the 4th
DIRECT_DROPOUT = 0.2


@dataclass(frozen=True)
class KnnConfig:
    """Matching estimator knobs; distances are Euclidean on the features as given."""

    k: int

    def __post_init__(self):
        check_count("k", self.k, error=ValueError)


def _group_mean_outcome(distances: np.ndarray, Y: np.ndarray, rows: np.ndarray, k: int) -> float:
    group = distances[rows]
    kth = np.partition(group, k - 1)[k - 1]
    candidates = np.flatnonzero(group <= kth)
    # a stable sort keeps equal distances in row order, so ties go to the lower
    # index and these are the first k of a stable sort of the whole group
    nearest = candidates[np.argsort(group[candidates], kind="stable")[:k]]
    return float(Y[rows[nearest]].mean())


def knn_arms(W: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control row indices; both arms must hold at least ``k`` rows."""
    is_treated = W == 1
    treated, control = np.flatnonzero(is_treated), np.flatnonzero(~is_treated)
    if len(treated) < k or len(control) < k:
        raise ValueError(
            f"both groups need at least k={k} members "
            f"(treated {len(treated)}, control {len(control)})"
        )
    return treated, control


def _span_distances(X: np.ndarray, x: np.ndarray, distances: np.ndarray, span: slice) -> None:
    """Write the distances of rows ``span`` of ``X`` into ``distances[span]``, block by block."""
    start, stop = span.start, span.stop
    queries = np.tile(x, (min(stop - start, ROW_BLOCK), 1))
    deltas = np.empty_like(queries)
    for lo in range(start, stop, ROW_BLOCK):
        block = X[lo : min(lo + ROW_BLOCK, stop)]
        sq = np.subtract(block, queries[: len(block)], out=deltas[: len(block)])
        np.sum(np.multiply(sq, sq, out=sq), axis=1, out=distances[lo : lo + len(block)])
    np.sqrt(distances[span], out=distances[span])


# numpy's ufuncs release the GIL, so these threads run spans side by side;
# they start on the first query with more than one span and run only numpy
_SPAN_POOL = ThreadPoolExecutor(thread_name_prefix="dcnpd-knn-span")


def _distances(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``x`` to each row of ``X``, ROW_BLOCK rows at a time.

    The blocks are split into contiguous spans of whole blocks, the last
    possibly ragged, one per CPU this process may use. The calling thread
    computes the first span and `_SPAN_POOL` the others, so a query on at
    most ROW_BLOCK rows, or on one usable CPU, starts no thread. A block's
    squares are summed while still in cache, and a C-order block sums each
    row's squares as that row alone would be summed, so every distance has
    the bits of ``np.sqrt(np.sum((X[i] - x) ** 2))`` at any span count.
    """
    n = len(X)
    blocks = -(-n // ROW_BLOCK)
    span_rows = ROW_BLOCK * -(-blocks // pool.cpus())
    spans = [slice(start, min(start + span_rows, n)) for start in range(0, n, span_rows)]
    distances = np.empty(n)
    others = [_SPAN_POOL.submit(_span_distances, X, x, distances, span) for span in spans[1:]]
    _span_distances(X, x, distances, spans[0])
    for future in others:
        future.result()
    return distances


def knn_ite(train: ObservationalDataset, x: np.ndarray, config: KnnConfig) -> float:
    """Mean outcome of the k nearest treated minus the k nearest control."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (train.d,):
        raise ValueError(f"x must be a length-{train.d} feature vector")
    if not np.isfinite(x).all():
        raise ValueError("x contains NaN or infinite values")
    treated, control = knn_arms(train.W, config.k)
    distances = _distances(train.X, x)
    return _group_mean_outcome(distances, train.Y, treated, config.k) - _group_mean_outcome(
        distances, train.Y, control, config.k
    )


def train_direct_nn(
    dataset: ObservationalDataset,
    arch: Sequence[int],
    config: TrainConfig,
    *,
    rng: np.random.Generator,
    dropout_prob: float = DIRECT_DROPOUT,
) -> MLPParams:
    """Fit the direct regressor on (x, w) -> y with uniform hidden dropout; return its net.

    One `training.fit_phases` phase over every row: the same loop,
    optimizer, loss, initialization, and minibatch size as the multitask
    network, so comparisons isolate the architecture. The net's input is
    the features followed by the treatment bit.
    """
    if not 0.0 <= dropout_prob < 1.0:
        raise ValueError("dropout_prob must lie in [0, 1)")
    net = build_mlp((dataset.d + 1, *arch, 1), rng)
    inputs = np.column_stack([dataset.X, dataset.W.astype(np.float64)])
    state = AdamState.for_params(net.parameter_arrays(), config.learning_rate)
    phase = ("direct", [net], [state], np.arange(dataset.n))
    fit_phases([phase], inputs, dataset.Y, np.full(dataset.n, 1.0 - dropout_prob), config, rng)
    return net
