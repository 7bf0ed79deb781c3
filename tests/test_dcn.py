"""Multitask network: forward consistency, mask sampling, MC inference."""

import copy
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnpd import dcn, pool
from dcnpd.cli import main
from dcnpd.data import Standardization
from dcnpd.dcn import (
    DCNParams,
    _summarize,
    build_dcn,
    dcn_forward,
    estimate_ite,
    mc_ite_matrix,
)
from dcnpd.experiment import _FixedDropoutDCN
from dcnpd.nn import DenseLayer, MLPParams, draw_masks
from dcnpd.propensity import (
    DropoutSchedule,
    PropensityModel,
    keep_probability,
    predict_propensity,
)
from dcnpd.training import TrainConfig

DEFAULT = TrainConfig()


def small_dcn(seed=0, d=3, shared=(6, 6), heads=()):
    return build_dcn(d, np.random.default_rng(seed), shared, heads)


def zero_dcn(d=3, width=4):
    def stack(*dims, out_act):
        layers = [
            DenseLayer(np.zeros((a, b)), np.zeros(b), "relu")
            for a, b in zip(dims, dims[1:])
        ]
        layers[-1].activation = out_act
        return MLPParams(layers)

    return DCNParams(
        stack(d, width, width, out_act="relu"),
        stack(width, 1, out_act="identity"),
        stack(width, 1, out_act="identity"),
    )


def dcn_mask_widths(params):
    """(shared, head0, head1) widths: every shared output, each head's hidden ones."""
    return [
        [layer.fan_out for layer in params.shared.layers],
        [layer.fan_out for layer in params.head0.layers[:-1]],
        [layer.fan_out for layer in params.head1.layers[:-1]],
    ]


def dcn_masks(keep, widths, rows, rng):
    """A (shared, head0, head1) mask triple for a ``rows``-row batch at ``keep``."""
    return draw_masks(widths, np.full(rows, keep), rng)


def deterministic_ite(params, x):
    """The maskless effect, as the fixed-dropout model predicts it."""
    return _FixedDropoutDCN(0.0, params).predict_ite(x, None)


def fresh_mask(shape, keep, rng):
    """An inverted-dropout Bernoulli(keep) mask from its own ``rng.random`` call."""
    return (rng.random(shape) < keep) / keep


def reference_estimate_ite(params, prop, schedule, x, n_samples, rng):
    """The per-draw loop that `estimate_ite` ran before it became one-row MC.

    Each draw samples flat ``(width,)`` masks at the subject's scalar keep
    probability (shared stack, head0, head1) and runs one one-row pass.
    """
    row = x[None, :]
    keep = float(keep_probability(predict_propensity(prop, row), schedule)[0])
    y0 = np.empty(n_samples)
    y1 = np.empty(n_samples)
    for m in range(n_samples):
        groups = [[fresh_mask(w, keep, rng) for w in ws] for ws in dcn_mask_widths(params)]
        y0[m], y1[m] = (out[0] for out in dcn_forward(params, row, groups))
    return y1 - y0


def reference_mc_outcomes(params, prop, schedule, X, n_samples, rng):
    """One fresh (n, d) pass per draw, each mask its own `fresh_mask` call."""
    keep = keep_probability(predict_propensity(prop, X), schedule)
    y0, y1 = np.empty((2, X.shape[0], n_samples))
    for m in range(n_samples):
        groups = [
            [fresh_mask((len(keep), w), keep[:, None], rng) for w in ws]
            for ws in dcn_mask_widths(params)
        ]
        y0[:, m], y1[:, m] = dcn_forward(params, X, groups)
    return y0, y1


def stub_propensity(logit, d=3):
    """Constant-score model: every subject gets sigmoid(logit)."""
    net = MLPParams([DenseLayer(np.zeros((d, 1)), np.array([logit]), "identity")])
    return PropensityModel(net, Standardization(np.zeros(d), np.ones(d)))


class TestParams:
    def test_default_architecture(self):
        params = build_dcn(25, np.random.default_rng(0), DEFAULT.shared_widths, DEFAULT.head_widths)
        assert [l.fan_out for l in params.shared.layers] == [200, 200]
        assert all(l.activation == "relu" for l in params.shared.layers)
        assert len(params.head0.layers) == 1
        assert params.head0.layers[0].activation == "identity"
        assert dcn_mask_widths(params) == [[200, 200], [], []]

    def test_head_width_mismatch_rejected(self):
        shared = MLPParams([DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu")])
        good = MLPParams([DenseLayer(np.zeros((4, 1)), np.zeros(1), "identity")])
        bad = MLPParams([DenseLayer(np.zeros((5, 1)), np.zeros(1), "identity")])
        with pytest.raises(ValueError):
            DCNParams(shared, good, bad)

    def test_head_must_be_scalar_identity(self):
        shared = MLPParams([DenseLayer(np.zeros((3, 4)), np.zeros(4), "relu")])
        relu_head = MLPParams([DenseLayer(np.zeros((4, 1)), np.zeros(1), "relu")])
        with pytest.raises(ValueError):
            DCNParams(shared, relu_head, relu_head)

    def test_dict_round_trip(self):
        params = small_dcn(1)
        clone = DCNParams.from_dict(params.to_dict())
        x = np.random.default_rng(2).normal(size=(5, 3))
        np.testing.assert_array_equal(deterministic_ite(params, x), deterministic_ite(clone, x))


class TestForward:
    def test_zero_net_outputs_zero(self):
        y0, y1 = dcn_forward(zero_dcn(), np.array([[1.0, -2.0, 3.0]]))
        assert y0.tolist() == y1.tolist() == [0.0]

    def test_identical_heads_agree_for_any_shared_mask(self):
        params = small_dcn(3)
        params.head1 = copy.deepcopy(params.head0)
        rng = np.random.default_rng(4)
        masks = dcn_masks(0.5, dcn_mask_widths(params), 1, rng)
        x = rng.normal(size=(1, 3))
        y0, y1 = dcn_forward(params, x, masks)
        np.testing.assert_array_equal(y0, y1)

    def test_all_ones_masks_equal_maskless(self):
        params = small_dcn(5)
        x = np.random.default_rng(6).normal(size=(4, 3))
        masks = dcn_masks(1.0, dcn_mask_widths(params), 4, np.random.default_rng(7))
        with_mask = dcn_forward(params, x, masks)
        bare = dcn_forward(params, x)
        np.testing.assert_array_equal(with_mask[0], bare[0])
        np.testing.assert_array_equal(with_mask[1], bare[1])

    @pytest.mark.parametrize(
        "x, message",
        [(np.zeros((2, 4)), "input width"), (np.zeros(3), "2-D")],
        ids=["width", "one-vector"],
    )
    def test_dimension_mismatch(self, x, message):
        with pytest.raises(ValueError, match=message):
            dcn_forward(small_dcn(), x)


class TestPredictDeterministic:
    """The fixed-dropout model's effect: one maskless `dcn_forward`, y1 - y0."""

    def test_zero_net(self):
        np.testing.assert_array_equal(deterministic_ite(zero_dcn(), np.ones((2, 3))), [0.0, 0.0])

    def test_bias_offset_between_heads(self):
        params = zero_dcn()
        params.head1.layers[-1].b[0] = 1.75
        X = np.random.default_rng(12).normal(size=(5, 3))
        y0, y1 = dcn_forward(params, X)
        np.testing.assert_array_equal(deterministic_ite(params, X), np.full(5, 1.75))
        np.testing.assert_array_equal(y1 - y0, np.full(5, 1.75))

    def test_batch_shape(self):
        y0, y1 = dcn_forward(small_dcn(), np.zeros((7, 3)))
        ite = deterministic_ite(small_dcn(), np.zeros((7, 3)))
        assert y0.shape == y1.shape == ite.shape == (7,)


class TestSampleMasks:
    """The DCN mask set, one list per net, drawn through `draw_masks`."""

    def test_keep_one_gives_all_ones(self):
        shared, head0, head1 = dcn_masks(1.0, ([5, 6], [4], []), 3, np.random.default_rng(0))
        for m in shared + head0:
            np.testing.assert_array_equal(m, np.ones_like(m))
        assert head1 == []

    def test_keep_zero_rejected(self):
        with pytest.raises(ValueError):
            draw_masks([[5]], np.zeros(2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_masks([[5]], np.array([0.5, 0.0]), np.random.default_rng(0))
        with pytest.raises(ValueError):
            draw_masks([[2]], np.array([np.nan, 0.5]), np.random.default_rng(0))

    def test_rejected_keep_leaves_generator_untouched(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="keep probability"):
            draw_masks([[5]], np.array([0.5, 0.0]), rng)
        assert rng.bit_generator.state == before

    def test_binomial_concentration(self):
        [[mask]] = draw_masks([[10_000]], np.array([0.5, 0.2]), np.random.default_rng(1))
        frac = (mask > 0.0).mean(axis=1)
        assert 0.48 <= frac[0] <= 0.52
        assert 0.18 <= frac[1] <= 0.22

    def test_same_seed_same_masks(self):
        a = dcn_masks(0.7, ([8, 8], [3], [3]), 2, np.random.default_rng(2))
        b = dcn_masks(0.7, ([8, 8], [3], [3]), 2, np.random.default_rng(2))
        for ga, gb in zip(a, b, strict=True):
            for ma, mb in zip(ga, gb, strict=True):
                np.testing.assert_array_equal(ma, mb)

    def test_stored_keep_prob(self):
        keep = np.array([0.35, 0.9, 1.0])
        [masks] = draw_masks([[4, 2]], keep, np.random.default_rng(3))
        assert [m.shape for m in masks] == [(3, 4), (3, 2)]
        # a kept unit carries its row's inverted-dropout scale
        for m in masks:
            kept = m > 0.0
            assert kept[2].all()
            np.testing.assert_array_equal(m[kept], np.broadcast_to(1.0 / keep[:, None], m.shape)[kept])

    def test_head_masks_drawn_independently(self):
        masks = dcn_masks(0.5, ([4], [1000], [1000]), 1, np.random.default_rng(4))
        assert not np.array_equal(masks[1][0], masks[2][0])


class TestEstimateIte:
    def test_balanced_subject_has_zero_spread(self):
        # p = 0.5, gamma = 1 means dropout probability exactly 0
        params = small_dcn(13)
        prop = stub_propensity(0.0)
        est = estimate_ite(
            params, prop, DropoutSchedule(1.0), np.ones(3), 50, np.random.default_rng(14)
        )
        assert est.std == 0.0
        assert np.all(est.samples == est.samples[0])
        assert est.quantiles == (est.mean, est.mean)
        assert est.mean == deterministic_ite(params, np.ones((1, 3)))[0]

    def test_single_sample_convention(self):
        params = small_dcn(15)
        prop = stub_propensity(2.0)
        est = estimate_ite(
            params, prop, DropoutSchedule(1.0), np.ones(3), 1, np.random.default_rng(16)
        )
        assert est.std == 0.0 and len(est.samples) == 1 and est.mean == est.samples[0]

    def test_identical_heads_with_shared_head_mask_give_zero(self):
        params = small_dcn(17, heads=(5,))
        params.head1 = copy.deepcopy(params.head0)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(1, 3))
        for _ in range(20):
            masks = dcn_masks(0.5, dcn_mask_widths(params), 1, rng)
            forced = (masks[0], masks[1], masks[1])  # inject
            y0, y1 = dcn_forward(params, x, forced)
            np.testing.assert_array_equal(y1 - y0, [0.0])

    def test_deterministic_given_seed(self):
        params = small_dcn(19)
        prop = stub_propensity(1.5)
        args = (params, prop, DropoutSchedule(1.0), np.ones(3), 40)
        a = estimate_ite(*args, np.random.default_rng(20))
        b = estimate_ite(*args, np.random.default_rng(20))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert (a.mean, a.std, a.quantiles) == (b.mean, b.std, b.quantiles)

    def test_uncertainty_tracks_schedule_not_luck(self):
        # extreme propensity drops harder than balanced, by Eq.-style monotonicity
        sched = DropoutSchedule(1.0)
        from dcnpd.propensity import dropout_probability, predict_propensity

        balanced, extreme = stub_propensity(0.0), stub_propensity(4.0)
        x = np.zeros((1, 3))
        assert dropout_probability(predict_propensity(extreme, x), sched)[0] > (
            dropout_probability(predict_propensity(balanced, x), sched)[0]
        )

    def test_mc_mean_is_stable_at_large_m(self):
        params = small_dcn(21, shared=(16, 16))
        prop = stub_propensity(3.0)  # keep prob well below 1
        sched = DropoutSchedule(1.0)
        x = np.ones(3)
        m = 10_000
        a = estimate_ite(params, prop, sched, x, m, np.random.default_rng(22))
        b = estimate_ite(params, prop, sched, x, m, np.random.default_rng(23))
        assert abs(a.mean - b.mean) < 3.0 * a.std / np.sqrt(m)

    def test_quantiles_ordered_and_bracket_mean_band(self):
        params = small_dcn(24)
        est = estimate_ite(
            params,
            stub_propensity(2.5),
            DropoutSchedule(1.0),
            np.ones(3),
            200,
            np.random.default_rng(25),
        )
        lo, hi = est.quantiles
        assert lo <= hi
        assert lo <= est.mean <= hi

    def test_input_validation(self):
        params = small_dcn()
        prop = stub_propensity(0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            estimate_ite(params, prop, DropoutSchedule(1.0), np.ones((2, 3)), 100, rng)
        for n_samples in (0, 2.5, True):
            with pytest.raises(ValueError, match="n_samples"):
                estimate_ite(params, prop, DropoutSchedule(1.0), np.ones(3), n_samples, rng)
            with pytest.raises(ValueError, match="n_samples"):
                mc_ite_matrix(params, prop, DropoutSchedule(1.0), np.ones((2, 3)), n_samples, rng)
        with pytest.raises(ValueError, match="row 0"):
            estimate_ite(params, prop, DropoutSchedule(1.0), np.array([1.0, np.inf, 0.0]), 100, rng)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_mean_matches_sample_mean(self, seed):
        params = small_dcn(26)
        est = estimate_ite(
            params,
            stub_propensity(2.0),
            DropoutSchedule(1.0),
            np.ones(3),
            30,
            np.random.default_rng(seed),
        )
        assert est.mean == float(np.mean(est.samples))


    @given(st.integers(0, 2**32 - 1), st.floats(-4.0, 4.0), st.integers(1, 60))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_draw_reference_bitwise(self, seed, logit, n_samples):
        params = small_dcn(33, heads=(4,))
        prop = stub_propensity(logit)
        sched = DropoutSchedule(0.6)
        x = np.random.default_rng(seed).normal(size=3)
        est = estimate_ite(params, prop, sched, x, n_samples, np.random.default_rng(seed))
        ref = _summarize(
            reference_estimate_ite(params, prop, sched, x, n_samples, np.random.default_rng(seed))
        )
        np.testing.assert_array_equal(est.samples, ref.samples)
        assert (est.mean, est.std, est.quantiles) == (ref.mean, ref.std, ref.quantiles)


class TestMcMatrix:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
        st.sampled_from([(), (1,), (5,), (4, 3)]),
        st.floats(-4.0, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_draw_reference_bitwise(self, seed, rows, n_samples, heads, logit):
        params = small_dcn(seed % 1000, heads=heads)
        prop = stub_propensity(logit)
        sched = DropoutSchedule(0.4)
        X = np.random.default_rng(seed).normal(size=(rows, 3))
        samples = mc_ite_matrix(params, prop, sched, X, n_samples, np.random.default_rng(seed))
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, n_samples, np.random.default_rng(seed))
        np.testing.assert_array_equal(samples, y1 - y0)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.integers(1, 300),
        st.sampled_from([(), (4, 3)]),
        st.floats(-4.0, 4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_stacked_chunks_match_per_draw_reference_bitwise(
        self, seed, rows, n_samples, heads, logit
    ):
        # rows on both sides of ROWS, and draw counts that leave a short last chunk
        params = small_dcn(seed % 1000, heads=heads)
        prop = stub_propensity(logit)
        sched = DropoutSchedule(0.7)
        X = np.random.default_rng(seed).normal(size=(rows, 3))
        samples = mc_ite_matrix(params, prop, sched, X, n_samples, np.random.default_rng(seed))
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, n_samples, np.random.default_rng(seed))
        assert samples.tobytes() == (y1 - y0).tobytes()

    def test_cohort_size_matches_per_draw_reference_bitwise(self):
        # the default architecture at a cohort's size, where BLAS may thread
        rng = np.random.default_rng(40)
        params = build_dcn(25, rng, DEFAULT.shared_widths, DEFAULT.head_widths)
        net = MLPParams([DenseLayer(0.3 * rng.normal(size=(25, 1)), np.zeros(1), "identity")])
        prop = PropensityModel(net, Standardization(np.zeros(25), np.ones(25)))
        sched = DropoutSchedule(0.5)
        X = rng.normal(size=(2000, 25))
        samples = mc_ite_matrix(params, prop, sched, X, 3, np.random.default_rng(41))
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, 3, np.random.default_rng(41))
        assert samples.tobytes() == (y1 - y0).tobytes()

    def test_draws_reuse_one_block_and_one_cache_set(self, monkeypatch):
        # more than ROWS / 2 rows: one draw per chunk, every chunk the same size
        draw, forward = dcn.draw_masks, dcn.dcn_forward
        blocks, buffers = [], []

        def draw_spy(widths, keep, rng, draws=None, out=None):
            masks = draw(widths, keep, rng, draws, out)
            assert all(np.shares_memory(m, out) for group in masks for m in group)
            blocks.append(out)
            return masks

        def forward_spy(params, x, masks=None, caches=None):
            result = forward(params, x, masks, caches=caches)
            buffers.append(
                [
                    a
                    for c in caches
                    for a in (c.output, *c.inputs[1:], *c.acts)
                    if a is not None
                ]
            )
            return result

        monkeypatch.setattr(dcn, "draw_masks", draw_spy)
        monkeypatch.setattr(dcn, "dcn_forward", forward_spy)
        params = small_dcn(42, heads=(4,))
        X = np.random.default_rng(43).normal(size=(200, 3))
        mc_ite_matrix(params, stub_propensity(1.0), DropoutSchedule(0.5), X, 5,
                      np.random.default_rng(44))
        assert len(blocks) == len(buffers) == 5
        assert all(b is blocks[0] for b in blocks)
        for later in buffers[1:]:
            assert all(a is b for a, b in zip(later, buffers[0], strict=True))

    def test_rejects_nonfinite_row(self):
        X = np.ones((5, 3))
        X[3, 1] = np.nan
        X[4, 0] = np.inf
        with pytest.raises(ValueError, match="row 3"):
            mc_ite_matrix(
                small_dcn(), stub_propensity(1.0), DropoutSchedule(1.0), X, 4,
                np.random.default_rng(0),
            )

    def test_shape_and_determinism(self):
        params = small_dcn(27)
        prop = stub_propensity(1.0)
        X = np.random.default_rng(28).normal(size=(6, 3))
        a = mc_ite_matrix(params, prop, DropoutSchedule(1.0), X, 25, np.random.default_rng(29))
        b = mc_ite_matrix(params, prop, DropoutSchedule(1.0), X, 25, np.random.default_rng(29))
        assert a.shape == (6, 25)
        np.testing.assert_array_equal(a, b)

    def test_balanced_rows_are_constant(self):
        params = small_dcn(30)
        prop = stub_propensity(0.0)  # keep prob exactly 1 everywhere
        X = np.random.default_rng(31).normal(size=(4, 3))
        samples = mc_ite_matrix(params, prop, DropoutSchedule(1.0), X, 10, np.random.default_rng(32))
        ite = deterministic_ite(params, X)
        np.testing.assert_array_equal(samples, np.repeat(ite[:, None], 10, axis=1))

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            mc_ite_matrix(
                small_dcn(),
                stub_propensity(0.0),
                DropoutSchedule(1.0),
                np.ones(3),
                5,
                np.random.default_rng(0),
            )

    def test_rejects_empty_input_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="no rows"):
            mc_ite_matrix(
                small_dcn(), stub_propensity(0.0), DropoutSchedule(1.0), np.ones((0, 3)), 5, rng
            )
        assert rng.bit_generator.state == state


def pooled_draws(monkeypatch, cpus: int | None = None) -> None:
    """Any call of more than one chunk runs its spans on workers, on ``cpus`` usable CPUs if given."""
    monkeypatch.setattr(dcn, "POOL_MIN_DRAWS", 0)
    if cpus is not None:
        monkeypatch.setattr(pool, "cpus", lambda: cpus)


def refuse_spans_here(monkeypatch) -> None:
    """Make any span run by this process fail, so a passing call ran its spans on workers."""

    def refuse(*args):
        raise AssertionError("a span ran in this process")

    monkeypatch.setattr(dcn, "_mc_span", refuse)


def pooled_case(rows: int, heads=(4, 3)):
    """A small net, a propensity, a schedule and ``rows`` rows of features."""
    X = np.random.default_rng(rows).normal(size=(rows, 3))
    return small_dcn(rows, heads=heads), stub_propensity(0.3), DropoutSchedule(0.4), X


class TestPooledDraws:
    """Calls of at least POOL_MIN_DRAWS rows x draws run their draw spans on `pool` workers."""

    # chunk 1; chunk 6 with a short last chunk of 5; one row, chunk 256, last chunk 88
    @pytest.mark.parametrize("rows, n_samples", [(300, 7), (40, 29), (1, 600)])
    @pytest.mark.parametrize("cpus", [None, 3])  # None: the CPUs this process may use
    def test_pooled_draws_match_reference_bitwise(self, monkeypatch, rows, n_samples, cpus):
        params, prop, sched, X = pooled_case(rows)
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        for r in (rng, reference):  # a buffered 32-bit half-output, which doubles leave alone
            r.integers(2**32, dtype=np.uint32)
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, n_samples, reference)
        if (cpus or pool.cpus()) > 1:
            refuse_spans_here(monkeypatch)
        pooled_draws(monkeypatch, cpus)
        samples = mc_ite_matrix(params, prop, sched, X, n_samples, rng)
        assert samples.tobytes() == (y1 - y0).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert not set(pool._live).difference(pool._idle)

    def test_another_bit_generator_draws_here(self, monkeypatch):
        params, prop, sched, X = pooled_case(300)
        reference = np.random.Generator(np.random.MT19937(5))
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, 7, reference)
        pooled_draws(monkeypatch, 2)
        monkeypatch.setattr(pool, "_take", lambda: pytest.fail("a worker was taken"))
        rng = np.random.Generator(np.random.MT19937(5))
        assert mc_ite_matrix(params, prop, sched, X, 7, rng).tobytes() == (y1 - y0).tobytes()
        np.testing.assert_equal(rng.bit_generator.state, reference.bit_generator.state)

    def test_calls_below_the_constant_start_no_worker(self):
        # in a fresh interpreter, so no earlier call has started a worker
        script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dcnpd import dcn, pool
from dcnpd.data import Standardization
from dcnpd.nn import build_mlp
from dcnpd.propensity import DropoutSchedule, PropensityModel
pool.cpus = lambda: 2
rows = -(-dcn.POOL_MIN_DRAWS // 100)  # rows x 100 draws reach the constant, rows - 1 do not
params = dcn.build_dcn(3, np.random.default_rng(0), (6, 6), ())
prop = PropensityModel(build_mlp((3, 1), np.random.default_rng(1)), Standardization(np.zeros(3), np.ones(3)))
counts = []
for n in (rows - 1, rows):
    X = np.random.default_rng(n).normal(size=(n, 3))
    dcn.mc_ite_matrix(params, prop, DropoutSchedule(0.4), X, 100, np.random.default_rng(2))
    counts.append(len(pool._live))
print(json.dumps(counts))
"""
        src = str(Path(dcn.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, src],
            capture_output=True, text=True, check=False, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        # the call at the constant, the script's check that it can see the workers start
        assert json.loads(result.stdout) == [0, 2]

    def test_a_killed_worker_fails_one_call_then_is_replaced(self, monkeypatch):
        params, prop, sched, X = pooled_case(300)
        pooled_draws(monkeypatch, 2)
        expected = mc_ite_matrix(params, prop, sched, X, 7, np.random.default_rng(3))
        idle = list(pool._idle)
        assert idle
        for worker in idle:  # killed, and waited for until dead, without reaping
            os.kill(worker.proc.pid, signal.SIGKILL)
            os.waitid(os.P_PID, worker.proc.pid, os.WEXITED | os.WNOWAIT)
        rng = np.random.default_rng(3)
        with pytest.raises(RuntimeError, match=r"worker process lost \(\w+Error"):
            mc_ite_matrix(params, prop, sched, X, 7, rng)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        assert not set(idle) & pool._live
        assert mc_ite_matrix(params, prop, sched, X, 7, rng).tobytes() == expected.tobytes()

    def test_a_span_error_keeps_its_type_and_traceback(self, monkeypatch):
        params, prop, sched, X = pooled_case(300)
        y0, y1 = reference_mc_outcomes(params, prop, sched, X, 7, np.random.default_rng(3))
        overflowing = copy.deepcopy(params)
        overflowing.shared.layers[0].W[:] = 1e308
        pooled_draws(monkeypatch, 2)
        rng = np.random.default_rng(3)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError) as err:
            mc_ite_matrix(overflowing, prop, sched, X, 7, rng)
        assert "in _mc_span" in str(err.value.__cause__)  # the worker's traceback text
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
        assert not set(pool._live).difference(pool._idle)
        # no worker given back still holds a span's reply
        assert mc_ite_matrix(params, prop, sched, X, 7, rng).tobytes() == (y1 - y0).tobytes()

    def test_evaluate_of_an_overflowing_bundle_gives_the_in_process_message(
        self, tmp_path, monkeypatch, capsys
    ):
        legacy = Path(__file__).parent / "data" / "legacy_dcn_pd_bundle.json"
        bundle = json.loads(legacy.read_text())["bundle"]
        bundle["standardization"]["mean"][0] = 1e308
        model_file, config = tmp_path / "model.json", tmp_path / "config.json"
        model_file.write_text(json.dumps(bundle))
        # 200 rows: one draw per chunk, so the bundle's 3 draws make 3 chunks
        config.write_text(json.dumps({"seed": 7, "synthetic": {"n": 200, "d": 2}}))
        argv = ["evaluate", "--config", str(config), "--model-file", str(model_file),
                "--out", str(tmp_path / "eval.json")]
        capsys.readouterr()
        assert main(argv) == 2
        here = capsys.readouterr().err
        assert "non-finite effect" in here
        pooled_draws(monkeypatch, 2)
        refuse_spans_here(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert capsys.readouterr().err == here
        assert not caught  # the spans ran under predict_from_bundle's errstate

    def test_a_worker_counts_one_cpu(self):
        worker = pool._take()
        try:
            worker.start("dcnpd.pool", "cpus")
            assert worker.result() == 1
        finally:
            pool._give(worker)
