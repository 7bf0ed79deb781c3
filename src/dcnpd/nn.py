"""Dense feed-forward substrate: layers, dropout masks, Adam, gradient checking.

Everything runs in float64 on plain numpy arrays (row-major, one row per
example). Randomness always comes from an explicitly passed
``numpy.random.Generator``; there is no hidden global state.

Dropout uses the inverted convention: a mask holds ``1/keep`` for a kept
unit and ``0.0`` for a dropped one (see `bernoulli_mask`), so that masked
and maskless passes live on the same scale. Masks are applied to hidden
activations only, never to inputs or to an output layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

ACTIVATIONS = ("relu", "sigmoid", "identity")


def stable_sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow for large |z|, optionally into ``out``."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z) if out is None else out
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _activate(z: np.ndarray, name: str, out: np.ndarray | None = None) -> np.ndarray:
    # identity returns z itself, so ``out`` is then z or unused
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "sigmoid":
        return stable_sigmoid(z, out)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(z: np.ndarray, a: np.ndarray, name: str) -> np.ndarray:
    # Derivative w.r.t. the pre-activation; ReLU uses the 0 subgradient at 0.
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "identity":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {name!r}")


def aligned(a) -> np.ndarray:
    """``a`` as float64 starting on a 64-byte boundary (``a`` itself if it does).

    Where an array lands depends on earlier allocations, and OpenBLAS ran the
    products of a stacked Monte Carlo pass with a (200, 200) matrix 1.8x slower
    from 16, 32 or 48 bytes past one (2-core Xeon, OpenBLAS 0.3.31), same bits.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ctypes.data % 64 == 0:
        return a
    buf = np.empty(a.size + 8)
    start = -buf.ctypes.data % 64 // 8
    out = buf[start : start + a.size].reshape(a.shape)
    out[...] = a
    return out


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform Xavier initialization on [-sqrt(6/(fan_in+fan_out)), +sqrt(...)]."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan dimensions must be >= 1, got ({fan_in}, {fan_out})")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class DenseLayer:
    """One affine layer ``y = f(x @ W + b)`` with activation tag ``f``."""

    W: np.ndarray
    b: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        self.W = aligned(self.W)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.W.ndim != 2:
            raise ValueError("W must be 2-D (fan_in x fan_out)")
        if self.b.shape != (self.W.shape[1],):
            raise ValueError(
                f"bias shape {self.b.shape} does not match fan_out {self.W.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def fan_in(self) -> int:
        return self.W.shape[0]

    @property
    def fan_out(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.W.copy(), self.b.copy(), self.activation)


@dataclass
class MLPParams:
    """An ordered stack of dense layers with compatible dimensions."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ValueError(
                    f"layer widths incompatible: {prev.fan_out} -> {nxt.fan_in}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    def hidden_widths(self) -> list[int]:
        """Widths of every layer output except the final one."""
        return [layer.fan_out for layer in self.layers[:-1]]

    def parameter_arrays(self) -> list[np.ndarray]:
        """Flat view [W1, b1, W2, b2, ...]; the arrays themselves, not copies."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.W)
            out.append(layer.b)
        return out

    def copy(self) -> "MLPParams":
        return MLPParams([layer.copy() for layer in self.layers])

    def to_dict(self) -> dict:
        return {
            "layers": [
                {
                    "weights": layer.W.tolist(),
                    "bias": layer.b.tolist(),
                    "activation": layer.activation,
                }
                for layer in self.layers
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MLPParams":
        layers = [
            DenseLayer(
                np.asarray(entry["weights"], dtype=np.float64),
                np.asarray(entry["bias"], dtype=np.float64),
                entry["activation"],
            )
            for entry in payload["layers"]
        ]
        return cls(layers)


def build_mlp(
    widths: Sequence[int],
    rng: np.random.Generator,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
) -> MLPParams:
    """Xavier-initialized MLP with layer sizes ``widths[0] -> ... -> widths[-1]``."""
    if len(widths) < 2:
        raise ValueError("widths must list at least input and output dimensions")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        act = output_activation if i == len(widths) - 2 else hidden_activation
        layers.append(DenseLayer(xavier_init(fan_in, fan_out, rng), np.zeros(fan_out), act))
    return MLPParams(layers)


def bernoulli_mask(uniform: np.ndarray, keep) -> np.ndarray:
    """Turn uniform [0, 1) draws into an inverted-dropout mask, in place.

    An entry below ``keep`` becomes ``1/keep``, any other ``0.0``. ``keep``
    is a scalar or an array that broadcasts against ``uniform``, and must
    lie in (0, 1]. No other code divides a mask by its keep probability.
    """
    keep = np.asarray(keep, dtype=np.float64)
    # written so that NaN fails too
    if not ((keep > 0.0) & (keep <= 1.0)).all():
        raise ValueError("keep probability must lie in (0, 1]")
    np.less(uniform, keep, out=uniform)
    return np.divide(uniform, keep, out=uniform)


def draw_masks(
    widths: Sequence[int],
    keep: np.ndarray,
    rng: np.random.Generator,
    draws: int | None = None,
    out: np.ndarray | None = None,
) -> list[np.ndarray]:
    """One inverted-dropout mask per width, for ``draws`` draws, from one random block.

    ``keep`` is the per-row keep probability vector; row ``i`` of every mask
    holds ``0.0`` or ``1/keep[i]``. One ``rng.random`` call fills a
    ``(draws, rows * sum(widths))`` block (one row when ``draws`` is None)
    whose row ``m`` holds, width by width, the ``(rows, width)`` masks of
    draw ``m`` row by row: the stream and the values of one
    ``(rng.random((rows, width)) < keep[:, None]) / keep[:, None]`` per
    width and draw, in that order. `bernoulli_mask` turns each width's view
    of the block into its mask in place, so each mask is that view,
    ``(draws, rows, width)``, or ``(rows, width)`` when ``draws`` is None.
    ``out``, a float64 block of that shape, receives the draw instead of a
    new block, so a caller can reuse one block for every draw.
    """
    keep = np.asarray(keep, dtype=np.float64)
    rows = len(keep)
    c = 1 if draws is None else draws
    shape = (c, rows * sum(widths))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 block of shape {shape}")
    rng.random(out=out)
    masks, start = [], 0
    for w in widths:
        mask = bernoulli_mask(out[:, start : start + rows * w].reshape(c, rows, w), keep[:, None])
        masks.append(mask[0] if draws is None else mask)
        start += rows * w
    return masks


def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Index arrays of one shuffled pass over ``range(n)``; the last may be short."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


@dataclass
class ForwardCache:
    """Intermediates retained by `mlp_forward` for the backward pass.

    ``masks`` holds the caller's mask arrays themselves, not copies.
    ``output`` is the network output, kept so that a later call can write
    into it (see `mlp_forward`).
    """

    inputs: list[np.ndarray]
    pre_acts: list[np.ndarray]
    acts: list[np.ndarray]
    masks: list[np.ndarray | None]
    output: np.ndarray | None = None


def mlp_forward(
    params: MLPParams,
    x: np.ndarray,
    masks: Sequence[np.ndarray | None] | None = None,
    out: ForwardCache | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Forward pass over a batch; returns output and the backward cache.

    ``x`` is ``(rows, features)``, or a stack ``(..., rows, features)`` of
    such batches: each item of a stack gives the bits that a call on that
    item alone gives, since ``np.matmul`` runs the same kernel per item.

    ``masks[i]``, an inverted-dropout mask (`draw_masks`), multiplies the
    output of layer ``i`` elementwise. Its shape is a trailing part of that
    output's shape: ``(width,)``, ``(rows, width)``, or the whole shape of a
    stack. The list may be shorter than the layer stack; layers past its
    end (typically the output layer) stay unmasked, and a ``None`` entry
    skips a layer. An all-ones mask reproduces the maskless output exactly.

    With ``out``, the cache of an earlier call on the same network, an
    input of the same shape and masks on the same layers, every
    intermediate and the output are written into its arrays and ``out`` is
    returned as the cache. The values are the same as from a fresh call;
    ``x`` is never written. A mismatch raises ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("x must be 2-D (batch x features) or a stack of such batches")
    if x.shape[-1] != params.input_dim:
        raise ValueError(
            f"input width {x.shape[-1]} does not match network input {params.input_dim}"
        )
    n_layers = len(params.layers)
    masks = list(masks or ())
    if len(masks) > n_layers:
        raise ValueError("more masks than layers")
    masks += [None] * (n_layers - len(masks))
    for i, (layer, m) in enumerate(zip(params.layers, masks)):
        shape = (*x.shape[:-1], layer.fan_out)
        if m is not None and m.shape != shape[len(shape) - m.ndim :]:
            raise ValueError(f"mask of shape {m.shape} does not fit layer {i} output {shape}")
    reuse = out is not None
    if not reuse:
        out = ForwardCache(*([None] * n_layers for _ in range(4)))
    elif len(out.pre_acts) != n_layers or out.inputs[0].shape != x.shape:
        raise ValueError("cache was filled by a call of another shape")
    elif [m is None for m in masks] != [m is None for m in out.masks]:
        raise ValueError("cache was filled with masks on other layers")
    h = x
    for i, (layer, m) in enumerate(zip(params.layers, masks)):
        out.inputs[i] = h
        z = np.add(np.matmul(h, layer.W, out=out.pre_acts[i]), layer.b, out=out.pre_acts[i])
        a = _activate(z, layer.activation, out.acts[i])
        out.pre_acts[i], out.acts[i] = z, a
        if m is None:
            h = a
        else:
            # the output buffer is the next layer's input, or the net's own
            h = np.multiply(a, m, out=out.inputs[i + 1] if i + 1 < n_layers else out.output)
    out.masks, out.output = masks, h
    return h, out


def mlp_backward(
    params: MLPParams, cache: ForwardCache, grad_output: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Backpropagate ``dloss/doutput`` through the cached forward pass.

    Returns ``(grads, grad_input)`` where ``grads[i] = (dW_i, db_i)``.
    Gradients are sums over the batch; any averaging lives in the loss
    gradient the caller supplies. Units masked out in the forward pass
    propagate exactly zero gradient.
    """
    if len(cache.inputs) != len(params.layers):
        raise ValueError("cache does not match the parameter stack")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    if grad_output.shape != (cache.inputs[0].shape[0], params.output_dim):
        raise ValueError("grad_output shape does not match the forward output")
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)  # type: ignore[list-item]
    g = grad_output
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        if cache.inputs[i].shape[1] != layer.fan_in:
            raise ValueError("cache does not match the parameter stack")
        if cache.masks[i] is not None:
            g = g * cache.masks[i]
        gz = g * _activation_grad(cache.pre_acts[i], cache.acts[i], layer.activation)
        dW = cache.inputs[i].T @ gz
        db = gz.sum(axis=0)
        grads[i] = (dW, db)
        g = gz @ layer.W.T
    return grads, g


def flatten_grads(grads: list[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """[ (dW1, db1), ... ] -> [dW1, db1, ...], matching `parameter_arrays`."""
    out: list[np.ndarray] = []
    for dW, db in grads:
        out.append(dW)
        out.append(db)
    return out


@dataclass
class AdamState:
    """Adam moment accumulators for a fixed list of parameter arrays."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(
        cls,
        params: Sequence[np.ndarray],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(
    params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState
) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # lr * (m/bc1) / (sqrt(v/bc2) + eps), operation for operation, in two
        # scratch arrays instead of a fresh full-size temporary per operation
        step, denom = np.empty_like(p), np.empty_like(p)
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=step)
        v *= state.beta2
        v += np.multiply(np.multiply(g, g, out=denom), 1.0 - state.beta2, out=denom)
        np.multiply(np.divide(m, bc1, out=step), state.lr, out=step)
        np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), state.epsilon, out=denom)
        p -= np.divide(step, denom, out=step)


def train_step(
    nets: Sequence[MLPParams],
    states: Sequence[AdamState],
    x: np.ndarray,
    masks: Sequence[Sequence[np.ndarray | None] | None],
    loss_grad: Callable[[np.ndarray], np.ndarray],
) -> tuple[list[list[tuple[np.ndarray, np.ndarray]]], list[ForwardCache]]:
    """One Adam step on a chain of nets, each feeding the next.

    ``masks[i]``, the per-layer mask list of ``nets[i]`` (or None), applies
    to that net (see `mlp_forward`); ``loss_grad`` maps the last net's
    output to ``dloss/doutput``. Every net is updated in place with its own
    ``states[i]``. Raises FloatingPointError, before any update, if the
    forward output is not finite.

    Returns each net's applied gradients and forward cache. A training loop
    holds them until its next step returns: freeing a whole step's arrays at
    once lets glibc trim the heap and fault it back in on every step.
    """
    caches = []
    h = x
    for net, mask in zip(nets, masks):
        h, cache = mlp_forward(net, h, mask)
        caches.append(cache)
    if not np.isfinite(h).all():
        raise FloatingPointError("forward output is not finite")
    g = loss_grad(h)
    grads = [None] * len(nets)
    for i in reversed(range(len(nets))):
        grads[i], g = mlp_backward(nets[i], caches[i], g)
        adam_step(nets[i].parameter_arrays(), flatten_grads(grads[i]), states[i])
    return grads, caches


def grad_check(
    params: MLPParams,
    loss_fn: Callable[[MLPParams], tuple[float, list[tuple[np.ndarray, np.ndarray]]]],
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
    flat = flatten_grads(grads)
    arrays = params.parameter_arrays()
    if len(flat) != len(arrays):
        raise ValueError("gradient layout does not match the parameter stack")
    max_rel = 0.0
    for arr, g in zip(arrays, flat):
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
