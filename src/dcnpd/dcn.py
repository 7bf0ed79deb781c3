"""Multitask potential-outcomes network and Monte Carlo effect inference.

The network is a shared ReLU stack feeding two idiosyncratic heads, one per
treatment arm, each ending in a scalar identity output. At inference time the
propensity score of a subject sets a per-subject keep probability; repeated
stochastic forward passes under that schedule yield a distribution of effect
draws whose spread reflects how trustworthy the counterfactual is for that
subject. A call of at least `POOL_MIN_DRAWS` rows times draws runs its
draws on the `pool` workers, with the bits of the in-process loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import pool
from .data import check_count
from .nn import (
    ForwardCache,
    MLPParams,
    build_mlp,
    draw_masks,
    json_object,
    mask_widths,
    mlp_forward,
)
from .propensity import DropoutSchedule, PropensityModel, keep_probability, predict_propensity

# Rows per stacked Monte Carlo pass: `_mc_outcomes` runs an n-row input
# in chunks of ROWS // n draws (at least one), each one (draws, n, d) stack.
# In a sweep at the default widths (100 draws, n from 1 to 200), 128 and
# 256 were within run-to-run noise of each other, 512 and more ran up to 2x
# slower at n >= 16, and 64 lost at n = 16 to 32.
ROWS = 256

# Rows times draws from which `_mc_outcomes` runs its spans on `pool`
# workers, whose start costs a fresh process about 0.25 s. Fresh-process
# `dcnpd evaluate` (default widths, 100 draws, 2-core Xeon), spans pooled at
# any size against in-process draws, alternated pairs faster: 1,000 rows
# 3/8, 1,250 6/16, 1,500 28/52, 1,750 13/32 (medians -4% to +9%), 2,000
# 33/52 (-6% to +1%), 2,500 9/12, 3,000 12/12, 4,000 7/8 (-12%). Warm, a
# 2,000-row call took 0.50-0.73 s pooled and 0.76-0.87 s in-process.
POOL_MIN_DRAWS = 200_000


@dataclass
class DCNParams:
    """Shared representation stack plus one outcome head per treatment arm.

    Every shared-layer output is a hidden activation of the full network, so
    dropout masks cover the whole shared stack; heads mask only their own
    hidden layers (none in the default single-layer heads).
    """

    shared: MLPParams
    head0: MLPParams
    head1: MLPParams

    def __post_init__(self):
        width = self.shared.output_dim
        for name, head in (("head0", self.head0), ("head1", self.head1)):
            if head.input_dim != width:
                raise ValueError(
                    f"{name} input width {head.input_dim} does not match shared output {width}"
                )
            if head.output_dim != 1:
                raise ValueError(f"{name} must end in a single output unit")
            if head.layers[-1].activation != "identity":
                raise ValueError(f"{name} must end in an identity output")

    @property
    def input_dim(self) -> int:
        return self.shared.input_dim

    def to_dict(self) -> dict:
        return {
            "shared": self.shared.to_dict(),
            "head0": self.head0.to_dict(),
            "head1": self.head1.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DCNParams":
        nets = {k: json_object(payload[k], f"dcn.{k}") for k in ("shared", "head0", "head1")}
        return cls(*(MLPParams.from_dict(net, f"dcn.{k}") for k, net in nets.items()))


def build_dcn(
    input_dim: int,
    rng: np.random.Generator,
    shared_widths: Sequence[int],
    head_widths: Sequence[int],
) -> DCNParams:
    """Xavier-initialized network; draw order is shared, head0, head1."""
    shared = build_mlp((input_dim, *shared_widths), rng, output_activation="relu")
    rep = shared.output_dim
    head0 = build_mlp((rep, *head_widths, 1), rng)
    head1 = build_mlp((rep, *head_widths, 1), rng)
    return DCNParams(shared, head0, head1)


def dcn_forward(
    params: DCNParams,
    x: np.ndarray,
    masks: Sequence[list] | None = None,
    caches: list[ForwardCache | None] | None = None,
):
    """Evaluate both heads as a (y0, y1) pair; the shared stack runs exactly once.

    ``x`` is an (n, d) batch (length-n arrays) or a (c, n, d) stack of
    batches with masks of the same leading axes ((c, n) arrays). ``masks``
    is a (shared, head0, head1) triple of per-layer mask lists, as
    `mlp_forward` takes them.

    ``caches`` is an optional three-slot list (shared, head0, head1): each
    pass stores its `mlp_forward` cache in an empty slot and writes into
    the cache of a filled one, so repeated calls of one shape and mask
    layout reuse their buffers. Results returned for a batch are then views
    of those buffers, overwritten by the next call.
    """
    slots = [None] * 3 if caches is None else caches
    groups = [None] * 3 if masks is None else masks
    rep, slots[0] = mlp_forward(params.shared, x, groups[0], slots[0])
    outs = []
    for i, net in ((1, params.head0), (2, params.head1)):
        out, slots[i] = mlp_forward(net, rep, groups[i], slots[i])
        outs.append(out[..., 0])
    return tuple(outs)


@dataclass
class ITEEstimate:
    """Monte Carlo effect distribution for one subject."""

    samples: np.ndarray
    mean: float
    std: float
    quantiles: tuple[float, float]


def _summarize(t_samples: np.ndarray) -> ITEEstimate:
    # single-draw std is 0 by convention; a constant vector short-circuits so
    # pairwise-summation noise cannot produce a spurious nonzero spread
    constant = bool(np.all(t_samples == t_samples[0]))
    if len(t_samples) > 1 and not constant:
        std = float(np.std(t_samples, ddof=1))
    else:
        std = 0.0
    lo, hi = np.quantile(t_samples, (0.025, 0.975))
    return ITEEstimate(
        samples=t_samples,
        mean=float(t_samples[0]) if constant else float(np.mean(t_samples)),
        std=std,
        quantiles=(float(lo), float(hi)),
    )


def _mc_outcomes(
    params: DCNParams,
    prop: PropensityModel,
    schedule: DropoutSchedule,
    X: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(y0, y1) draws as one (2, n, n_samples) array, in chunks of c = max(1, ROWS // n) draws.

    Row i keeps units with its scheduled `keep_probability`, as in
    training; each draw takes fresh masks for the shared stack, then head0,
    then head1: every shared output and each head's hidden outputs, the
    `mask_widths` of the chains (shared, head0) and (head1). ``X`` is
    checked once, and `draw_masks` checks the keep vector. `_mc_span` runs
    the chunks: here, or, for a call of at least `POOL_MIN_DRAWS` rows times
    draws with a PCG64 ``rng`` and k > 1 usable CPUs, in k `pool` workers,
    one span of whole chunks each, while this process waits (its BLAS
    threads would slow a span run here). Span j draws from a copy of ``rng``
    advanced past the spans before it, each draw taking n times the total
    mask width in 64-bit outputs, and ``rng`` moves past them all once
    every span is back: the bits of the in-process loop at any CPU count.
    Every worker is taken before any span is sent, so they boot side by
    side. A span runs under this process's `np.geterr`, its error is raised
    here with the worker's traceback, and a failure kills the workers yet
    to answer.
    """
    check_count("n_samples", n_samples, error=ValueError)
    n = X.shape[0]
    if n == 0:
        raise ValueError("X has no rows")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} of X contains NaN or infinite values")
    keep = keep_probability(predict_propensity(prop, X), schedule)
    widths = mask_widths([params.shared, params.head0]) + mask_widths([params.head1])
    chunk = max(1, min(n_samples, ROWS // n))
    span = n_samples  # draws per span
    if n * n_samples >= POOL_MIN_DRAWS and type(rng.bit_generator) is np.random.PCG64:
        span = chunk * -(-n_samples // (chunk * pool.cpus()))
    if span >= n_samples:
        return _mc_span(params, X, keep, widths, chunk, n_samples, rng)
    outputs = n * sum(map(sum, widths))  # 64-bit outputs per draw
    state = rng.bit_generator.state
    starts = range(0, n_samples, span)
    taken, spans = [], []
    try:
        for _ in starts:
            taken.append(pool._take())
        for worker, start in zip(taken, starts):
            job = (np.geterr(), state, start * outputs, params, X, keep, widths, chunk)
            worker.start("dcnpd.dcn", "_worker_span", *job, min(span, n_samples - start))
        for worker in taken:
            spans.append(worker.result())
    except BaseException:  # the workers yet to answer hold a span, or may be gone
        for worker in taken[len(spans) :]:
            worker.close(kill=True)
        raise
    finally:
        for worker in taken:
            pool._give(worker)
    # `advance` clears the buffered half of a 32-bit draw, which doubles leave alone
    buffered = {k: state[k] for k in ("has_uint32", "uinteger")}
    rng.bit_generator.state = {**rng.bit_generator.advance(n_samples * outputs).state, **buffered}
    return np.concatenate(spans, axis=2)


def _mc_span(params, X, keep, widths, chunk: int, draws: int, rng) -> np.ndarray:
    """(y0, y1) for ``draws`` draws, as one (2, n, draws) array, in chunks of ``chunk`` draws.

    A chunk of c draws is one stacked (c, n, d) pass whose masks come from
    one random block, in the order that c single draws take them: the bits
    of one fresh (n, d) pass per draw. The first chunk allocates the block
    and the forward caches; every later chunk of its size writes into them.
    """
    y = np.empty((2, len(X), draws))
    block = None
    for start in range(0, draws, chunk):
        c = min(chunk, draws - start)
        if block is None or len(block) != c:
            block, caches = np.empty((c, len(X) * sum(map(sum, widths)))), [None] * 3
            stack = np.broadcast_to(X, (c, *X.shape))
        masks = draw_masks(widths, keep, rng, draws=c, out=block)
        out0, out1 = dcn_forward(params, stack, masks, caches=caches)
        y[0, :, start : start + c], y[1, :, start : start + c] = out0.T, out1.T
    return y


def _worker_span(errors: dict, state: dict, outputs: int, *args) -> np.ndarray:
    """`_mc_span` in a worker, under the caller's ``np.geterr()``, its draws from a
    PCG64 with the caller's ``state`` advanced by ``outputs`` 64-bit outputs."""
    bits = np.random.PCG64()
    bits.state = state
    with np.errstate(**errors):
        return _mc_span(*args, np.random.Generator(bits.advance(outputs)))


def estimate_ite(
    params: DCNParams,
    prop: PropensityModel,
    schedule: DropoutSchedule,
    x: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> ITEEstimate:
    """Draw n_samples stochastic effect estimates for one subject.

    The subject's propensity score fixes its keep probability
    (`keep_probability`, as in training); each draw uses fresh independent
    masks for the shared stack and both heads. Inverted-dropout scaling is
    kept at inference so the Monte Carlo mean tracks the deterministic
    prediction.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("estimate_ite takes a single feature vector")
    y0, y1 = _mc_outcomes(params, prop, schedule, x[None, :], n_samples, rng)
    return _summarize(y1[0] - y0[0])


def mc_ite_matrix(
    params: DCNParams,
    prop: PropensityModel,
    schedule: DropoutSchedule,
    X: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Effect draws for a whole batch: (n, n_samples), row i for subject i.

    Same schedule as `estimate_ite`, with per-row keep probabilities and
    per-row masks.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-D (subjects x features)")
    y0, y1 = _mc_outcomes(params, prop, schedule, X, n_samples, rng)
    return y1 - y0
