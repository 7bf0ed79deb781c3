"""Dense feed-forward substrate: layers, dropout masks, backprop, Adam.

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

ACTIVATIONS = ("relu", "identity")

# Adam's moment decay rates and denominator offset, Kingma & Ba's defaults
# (arXiv 1412.6980); the learning rate is the only optimizer setting
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


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
    activation: str

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
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("layer weights must be finite")

    @property
    def fan_in(self) -> int:
        return self.W.shape[0]

    @property
    def fan_out(self) -> int:
        return self.W.shape[1]


def json_object(value, name: str) -> dict:
    """``value``, a block read from JSON; a TypeError naming ``name`` unless it is an object."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, got {value!r}")
    return value


def json_list(value, name: str) -> list:
    """``value``, a list read from JSON; a TypeError naming ``name`` unless it is a list."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a JSON list, got {value!r}")
    return value


@dataclass
class MLPParams:
    """An ordered stack of dense layers with compatible dimensions."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("layers is empty: an MLP needs at least one layer")
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

    def parameter_arrays(self) -> list[np.ndarray]:
        """Flat view [W1, b1, W2, b2, ...]; the arrays themselves, not copies."""
        return [a for layer in self.layers for a in (layer.W, layer.b)]

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
    def from_dict(cls, payload: dict, name: str = "net") -> "MLPParams":
        """The net `to_dict` wrote, read from the bundle field ``name``; errors name the layer."""
        layers = []
        for i, entry in enumerate(json_list(payload["layers"], f"{name}.layers")):
            field = f"{name}.layers[{i}]"
            entry = json_object(entry, field)
            try:
                layers.append(DenseLayer(entry["weights"], entry["bias"], entry["activation"]))
                cls(layers[-2:])  # the layer takes the previous layer's output
            except (TypeError, ValueError) as e:
                raise type(e)(f"{field}: {e}") from None
        return cls(layers)


def build_mlp(
    widths: Sequence[int], rng: np.random.Generator, output_activation: str = "identity"
) -> MLPParams:
    """Xavier-initialized ReLU MLP with layer sizes ``widths[0] -> ... -> widths[-1]``."""
    if len(widths) < 2:
        raise ValueError("widths must list at least input and output dimensions")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        act = output_activation if i == len(widths) - 2 else "relu"
        layers.append(DenseLayer(xavier_init(fan_in, fan_out, rng), np.zeros(fan_out), act))
    return MLPParams(layers)


def _checked_keep(keep) -> np.ndarray:
    keep = np.asarray(keep, dtype=np.float64)
    # written so that NaN fails too
    if not ((keep > 0.0) & (keep <= 1.0)).all():
        raise ValueError("keep probability must lie in (0, 1]")
    return keep


def bernoulli_mask(uniform: np.ndarray, keep) -> np.ndarray:
    """Turn uniform [0, 1) draws into an inverted-dropout mask, in place.

    An entry below ``keep`` becomes ``1/keep``, any other ``0.0``. ``keep``
    is a scalar or an array that broadcasts against ``uniform``, and must
    lie in (0, 1]. No other code divides a mask by its keep probability.
    """
    keep = _checked_keep(keep)
    np.less(uniform, keep, out=uniform)
    return np.divide(uniform, keep, out=uniform)


def mask_widths(chain: Sequence[MLPParams]) -> list[list[int]]:
    """Per-net widths of the masked outputs of a chain of nets: all but the chain's output."""
    widths = [[layer.fan_out for layer in net.layers] for net in chain]
    widths[-1].pop()
    return widths


def draw_masks(
    groups: Sequence[Sequence[int]],
    keep: np.ndarray,
    rng: np.random.Generator,
    draws: int | None = None,
    out: np.ndarray | None = None,
) -> list[list[np.ndarray]]:
    """Inverted-dropout masks for ``draws`` draws, one list per net, from one random block.

    ``groups`` holds one list of widths per net (see `mask_widths`).
    ``keep`` is the per-row keep probability vector; row ``i`` of every mask
    holds ``0.0`` or ``1/keep[i]``. One ``rng.random`` call fills a
    ``(draws, rows * total width)`` block (one row when ``draws`` is None)
    whose row ``m`` holds, net by net and width by width, the ``(rows,
    width)`` masks of draw ``m`` row by row: the stream and the values of
    one ``(rng.random((rows, width)) < keep[:, None]) / keep[:, None]`` per
    width and draw, in that order. `bernoulli_mask` turns each width's view
    of the block into its mask in place, so each mask is that view,
    ``(draws, rows, width)``, or ``(rows, width)`` when ``draws`` is None.
    ``out``, a float64 block of that shape, receives the draw instead of a
    new block, so a caller can reuse one block for every draw.
    """
    # checked before the block is drawn, so a rejected keep leaves rng as it was
    keep = _checked_keep(keep)
    rows = len(keep)
    c = 1 if draws is None else draws
    shape = (c, rows * sum(map(sum, groups)))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 block of shape {shape}")
    rng.random(out=out)
    masks, start = [], 0
    for widths in groups:
        masks.append([])
        for w in widths:
            view = out[:, start : start + rows * w].reshape(c, rows, w)
            mask = bernoulli_mask(view, keep[:, None])
            masks[-1].append(mask[0] if draws is None else mask)
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
    into it (see `mlp_forward`). The last three fields are `mlp_backward`'s
    buffers, None until the first backward on this cache: the parameter
    gradients ``[dW1, db1, dW2, db2, ...]`` in `MLPParams.parameter_arrays`
    order, the gradient at each layer's input plus one at the output, and
    each ReLU layer's ``acts > 0`` (None for identity). ``acts[i]`` is layer
    ``i``'s unmasked activation, written over its ``h @ W + b``.
    """

    inputs: list[np.ndarray]
    acts: list[np.ndarray]
    masks: list[np.ndarray | None]
    output: np.ndarray | None = None
    grads: list[np.ndarray] | None = None
    grad_bufs: list[np.ndarray] | None = None
    act_grads: list[np.ndarray | None] | None = None


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

    Layers are ReLU or identity. Each layer's ``h @ W + b`` lands in one
    buffer, ``cache.acts[i]``, which ReLU then overwrites in place.

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
    if out is None:
        out = ForwardCache(*([None] * n_layers for _ in range(3)))
    elif len(out.acts) != n_layers or out.inputs[0].shape != x.shape:
        raise ValueError("cache was filled by a call of another shape")
    elif [m is None for m in masks] != [m is None for m in out.masks]:
        raise ValueError("cache was filled with masks on other layers")
    h = x
    for i, (layer, m) in enumerate(zip(params.layers, masks)):
        out.inputs[i] = h
        a = np.add(np.matmul(h, layer.W, out=out.acts[i]), layer.b, out=out.acts[i])
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
        out.acts[i] = a
        if m is None:
            h = a
        else:
            # the output buffer is the next layer's input, or the net's own
            h = np.multiply(a, m, out=out.inputs[i + 1] if i + 1 < n_layers else out.output)
    out.masks, out.output = masks, h
    return h, out


def mlp_backward(
    params: MLPParams, cache: ForwardCache, grad_output: np.ndarray, input_grad: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Backpropagate ``dloss/doutput`` through the cached forward pass.

    Returns ``(grads, grad_input)`` where ``grads`` is
    ``[dW1, db1, dW2, db2, ...]``, the layout of
    `MLPParams.parameter_arrays`, so it goes to `adam_step` as is;
    ``grad_input`` is None with ``input_grad=False``, which skips layer 0's
    ``gz @ W.T``. Gradients are sums over the batch; any averaging lives in
    the loss gradient the caller supplies. Units masked out in the forward
    pass propagate exactly zero gradient. A ReLU layer passes gradient where
    its cached activation is positive, the entries where its input was.

    Every returned array is a buffer of ``cache``: the first backward on a
    cache allocates them, and each later one, after `mlp_forward` has
    refilled the cache through ``out=``, overwrites them. ``grad_output`` is
    never written.
    """
    if len(cache.inputs) != len(params.layers):
        raise ValueError("cache does not match the parameter stack")
    grad_output = np.asarray(grad_output, dtype=np.float64)
    rows = cache.inputs[0].shape[0]
    if grad_output.shape != (rows, params.output_dim):
        raise ValueError("grad_output shape does not match the forward output")
    for layer, h in zip(params.layers, cache.inputs):
        if h.shape[1] != layer.fan_in:
            raise ValueError("cache does not match the parameter stack")
    if cache.grads is None:
        cache.grads = [np.empty(a.shape) for a in params.parameter_arrays()]
        widths = [params.input_dim, *(layer.fan_out for layer in params.layers)]
        cache.grad_bufs = [np.empty((rows, w)) for w in widths]
        cache.act_grads = [
            np.empty((rows, layer.fan_out), bool) if layer.activation == "relu" else None
            for layer in params.layers
        ]
    g = grad_output
    for i in reversed(range(len(params.layers))):
        layer, a, m = params.layers[i], cache.acts[i], cache.masks[i]
        # below the top layer g is grad_bufs[i + 1] itself, so gz overwrites it
        gz, act_grad = cache.grad_bufs[i + 1], cache.act_grads[i]
        if m is not None:
            g = np.multiply(g, m, out=gz)
        # dloss/dz; ReLU takes the 0 subgradient at 0, identity leaves g as it is
        if layer.activation == "relu":
            g = np.multiply(g, np.greater(a, 0.0, out=act_grad), out=gz)
        np.matmul(cache.inputs[i].T, g, out=cache.grads[2 * i])
        np.sum(g, axis=0, out=cache.grads[2 * i + 1])
        g = np.matmul(g, layer.W.T, out=cache.grad_bufs[i]) if i or input_grad else None
    return cache.grads, g


@dataclass
class AdamState:
    """Adam moment accumulators for a fixed list of parameter arrays.

    ``scratch`` holds two arrays per parameter that `adam_step` overwrites.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: list[tuple[np.ndarray, np.ndarray]]
    lr: float
    t: int = 0

    @classmethod
    def for_params(cls, params: Sequence[np.ndarray], lr: float) -> "AdamState":
        m, v = ([np.zeros_like(p) for p in params] for _ in range(2))
        scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        return cls(m, v, scratch, lr)


def adam_step(
    params: Sequence[np.ndarray], grads: Sequence[np.ndarray], state: AdamState
) -> None:
    """One bias-corrected Adam update with `BETA1`, `BETA2` and `EPSILON`, applied in place."""
    if not len(params) == len(grads) == len(state.m) == len(state.scratch):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    for p, g, m, v, (step, denom) in zip(params, grads, state.m, state.v, state.scratch):
        # lr * (m/bc1) / (sqrt(v/bc2) + eps), operation for operation, in the
        # state's two scratch arrays instead of a temporary per operation
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=step)
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=denom), 1.0 - BETA2, out=denom)
        np.multiply(np.divide(m, bc1, out=step), state.lr, out=step)
        np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), EPSILON, out=denom)
        p -= np.divide(step, denom, out=step)


def train_step(
    nets: Sequence[MLPParams],
    states: Sequence[AdamState],
    x: np.ndarray,
    masks: Sequence[Sequence[np.ndarray | None] | None],
    loss_grad: Callable[[np.ndarray], np.ndarray],
    caches: list[ForwardCache | None] | None = None,
) -> tuple[list[list[np.ndarray]], list[ForwardCache]]:
    """One Adam step on a chain of nets, each feeding the next.

    ``masks[i]``, the per-layer mask list of ``nets[i]`` (or None), applies
    to that net (see `mlp_forward`); ``loss_grad`` maps the last net's
    output to ``dloss/doutput``. Every net is updated in place with its own
    ``states[i]``. Raises FloatingPointError, before any update, if the
    forward output is not finite.

    ``caches``, one slot per net, works as in `dcn_forward`: an empty slot
    receives the net's new cache and a filled one is refilled, so steps of
    one input shape and mask layout reuse one set of activation and
    gradient buffers. Returns each net's applied gradients and the caches;
    the gradients are buffers of those caches, overwritten by the next step
    on them.
    """
    caches = [None] * len(nets) if caches is None else caches
    h = x
    for i, (net, mask) in enumerate(zip(nets, masks)):
        h, caches[i] = mlp_forward(net, h, mask, caches[i])
    if not np.isfinite(h).all():
        raise FloatingPointError("forward output is not finite")
    g = loss_grad(h)
    grads = [None] * len(nets)
    for i in reversed(range(len(nets))):
        # the chain's input gradient is never read
        grads[i], g = mlp_backward(nets[i], caches[i], g, input_grad=i > 0)
        adam_step(nets[i].parameter_arrays(), grads[i], states[i])
    return grads, caches

