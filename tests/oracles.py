"""Test oracles: numbers the package computes another way, checked against it."""

from typing import Callable

import numpy as np

from dcnpd.data import ObservationalDataset
from dcnpd.dcn import DCNParams, dcn_forward
from dcnpd.nn import MLPParams


def grad_check(
    params: MLPParams,
    loss_fn: Callable[[MLPParams], tuple[float, list[np.ndarray]]],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_fn`` evaluates the current parameters and returns
    ``(loss, grads)`` with grads in `mlp_backward` layout; it must be
    deterministic (fix any masks and data in its closure). Relative error
    per entry is ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-12)``.
    Raises FloatingPointError if any evaluated loss is non-finite.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    loss0, grads = loss_fn(params)
    if not np.isfinite(loss0):
        raise FloatingPointError("loss is not finite at the base point")
    arrays = params.parameter_arrays()
    if len(grads) != len(arrays):
        raise ValueError("gradient layout does not match the parameter stack")
    max_rel = 0.0
    for arr, g in zip(arrays, grads):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + epsilon
            loss_plus = loss_fn(params)[0]
            arr[idx] = orig - epsilon
            loss_minus = loss_fn(params)[0]
            arr[idx] = orig
            if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
                raise FloatingPointError("loss is not finite at a perturbed point")
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = g[idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            max_rel = max(max_rel, rel)
    return max_rel


def factual_mse(params: DCNParams, batch: ObservationalDataset) -> float:
    """Mean squared error of each subject's own arm against its factual outcome."""
    if batch.n == 0:
        raise ValueError("factual_mse needs a non-empty batch")
    y0, y1 = dcn_forward(params, batch.X)
    pred = np.where(batch.W == 1, y1, y0)
    return float(np.mean((pred - batch.Y) ** 2))
