"""Dense substrate tests: hand-derived oracles plus property checks."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnpd.nn import (
    ACTIVATIONS,
    AdamState,
    DenseLayer,
    MLPParams,
    adam_step,
    aligned,
    bernoulli_mask,
    build_mlp,
    draw_masks,
    mask_widths,
    minibatches,
    mlp_backward,
    mlp_forward,
    train_step,
    xavier_init,
)
from oracles import grad_check

# Hand-derived: one identity unit, w=2, b=0, x=3, squared-error loss
# 0.5*(out - y)^2 against y=1. out=6, dloss/dout=5, dW=x*5=15, db=5.
HAND_DW = 15.0
HAND_DB = 5.0
HAND_DX = 10.0

# Adam from zero moments, scalar grad 1.0 at every step, defaults:
# step 1 gives m=0.1, v=0.001, both bias-correct to 1, so each of the
# first two steps moves the parameter by exactly lr/(1 + eps).
ADAM_STEP = 0.001 / (1.0 + 1e-8)


def tiny_net(seed=0, widths=(3, 5, 1)):
    return build_mlp(widths, np.random.default_rng(seed))


class TestForward:
    def test_hand_single_unit(self):
        params = MLPParams([DenseLayer(np.array([[2.0]]), np.array([0.0]), "identity")])
        out, cache = mlp_forward(params, np.array([[3.0]]))
        assert out.item() == 6.0
        grads, grad_in = mlp_backward(params, cache, np.array([[5.0]]))
        assert grads[0].item() == HAND_DW
        assert grads[1].item() == HAND_DB
        assert grad_in.item() == HAND_DX

    def test_relu_clamps_negative(self):
        params = MLPParams([DenseLayer(np.array([[1.0]]), np.array([0.0]), "relu")])
        out, _ = mlp_forward(params, np.array([[-2.0], [2.0]]))
        np.testing.assert_array_equal(out, [[0.0], [2.0]])

    def test_weights_start_on_a_64_byte_boundary(self):
        raw = np.arange(40.0)
        start = 1 if (raw.ctypes.data + 8) % 64 else 2
        W = raw[start : start + 35].reshape(7, 5)
        assert W.ctypes.data % 64
        layer = DenseLayer(W, np.zeros(5))
        assert layer.W.ctypes.data % 64 == 0 and layer.W.tobytes() == W.tobytes()
        assert aligned(layer.W) is layer.W  # an aligned array is shared, not copied
        net = MLPParams.from_dict(tiny_net(3, widths=(3, 6, 5, 1)).to_dict())
        assert all(l.W.ctypes.data % 64 == 0 for l in net.layers)

    def test_input_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            mlp_forward(tiny_net(), np.ones((2, 4)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_all_ones_mask_is_identity(self, seed):
        params = tiny_net(seed)
        x = np.random.default_rng(seed + 1).normal(size=(4, 3))
        bare, _ = mlp_forward(params, x)
        masked, _ = mlp_forward(params, x, [np.ones(5)])
        np.testing.assert_array_equal(bare, masked)


class TestDropoutMasking:
    def test_masked_units_are_zeroed_and_survivors_rescaled(self):
        params = MLPParams(
            [
                DenseLayer(np.eye(2), np.zeros(2), "identity"),
                DenseLayer(np.ones((2, 1)), np.zeros(1), "identity"),
            ]
        )
        x = np.array([[1.0, 1.0]])
        mask = bernoulli_mask(np.array([0.2, 0.7]), 0.5)
        np.testing.assert_array_equal(mask, [2.0, 0.0])
        out, _ = mlp_forward(params, x, [mask])
        # survivor 1.0 scaled by 1/0.5, dropped unit contributes nothing
        assert out.item() == 2.0

    def test_per_example_keep_prob(self):
        params = MLPParams(
            [
                DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),
                DenseLayer(np.array([[1.0]]), np.zeros(1), "identity"),
            ]
        )
        x = np.array([[1.0], [1.0]])
        mask = bernoulli_mask(np.zeros((2, 1)), np.array([[0.5], [0.25]]))
        out, _ = mlp_forward(params, x, [mask])
        np.testing.assert_allclose(out, [[2.0], [4.0]])

    def test_dropped_units_get_zero_gradient(self):
        params = tiny_net()
        x = np.random.default_rng(1).normal(size=(6, 3))
        out, cache = mlp_forward(params, x, [np.array([2.0, 0.0, 2.0, 0.0, 2.0])])
        grads, _ = mlp_backward(params, cache, np.ones_like(out))
        dW0, db0 = grads[:2]
        np.testing.assert_array_equal(dW0[:, 1], 0.0)
        np.testing.assert_array_equal(dW0[:, 3], 0.0)
        assert db0[1] == 0.0 and db0[3] == 0.0

    def test_mask_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="mask"):
            mlp_forward(tiny_net(), np.ones((2, 3)), [np.ones(4)])
        with pytest.raises(ValueError, match="more masks"):
            mlp_forward(tiny_net(), np.ones((2, 3)), [np.ones(5), np.ones(1), np.ones(1)])

    def test_keep_prob_zero_rejected(self):
        for keep in (0.0, -0.5, 1.5, np.nan, np.array([[0.5], [0.0]])):
            with pytest.raises(ValueError, match="keep probability"):
                bernoulli_mask(np.zeros((2, 5)), keep)

    @given(st.integers(0, 10_000), st.floats(0.3, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_inverted_scaling_is_unbiased(self, seed, keep):
        """Mean of masked outputs over many draws approaches the bare output."""
        rng = np.random.default_rng(seed)
        params = MLPParams(
            [
                DenseLayer(np.eye(3), np.zeros(3), "identity"),
                DenseLayer(np.ones((3, 1)), np.zeros(1), "identity"),
            ]
        )
        x = np.array([[1.0, 2.0, 3.0]])
        bare, _ = mlp_forward(params, x)
        draws = 4000
        total = 0.0
        for _ in range(draws):
            total += mlp_forward(params, x, [bernoulli_mask(rng.random(3), keep)])[0].item()
        # each unit contributes x_i * Bernoulli(keep)/keep; 5 SEs of headroom
        se = np.sqrt(np.sum(x**2 * (1 - keep) / keep)) / np.sqrt(draws)
        assert abs(total / draws - bare.item()) < 5 * se + 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bernoulli_mask_is_binary(self, seed):
        uniform = np.random.default_rng(seed).random((7, 5))
        m = bernoulli_mask(uniform, 0.6)
        assert m is uniform and set(np.unique(m)) <= {0.0, 1.0 / 0.6}

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 4]),
        st.integers(1, 8),
        st.lists(st.lists(st.integers(1, 9), max_size=3), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_masks_match_per_width_bernoulli_loop(self, seed, draws, rows, groups):
        # pins the training masks (draws=None) and the Monte Carlo blocks alike
        keep = np.random.default_rng(seed).uniform(0.1, 1.0, rows)
        rng_block, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        masks = draw_masks(groups, keep, rng_block, draws)
        assert [len(group) for group in masks] == [len(widths) for widths in groups]
        for k in range(draws or 1):
            for group, widths in zip(masks, groups):
                for mask, w in zip(group, widths):
                    expected = (rng_loop.random((rows, w)) < keep[:, None]) / keep[:, None]
                    got = mask if draws is None else mask[k]
                    assert got.shape == (rows, w) and got.tobytes() == expected.tobytes()
        assert rng_block.random() == rng_loop.random()

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 3]),
        st.integers(1, 8),
        st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_draw_masks_hold_zero_or_inverse_keep(self, seed, draws, rows, widths):
        keep = np.random.default_rng(seed).uniform(0.1, 1.0, rows)
        inverse = 1.0 / keep[:, None]  # row i: 1/keep[i]
        for mask in draw_masks([widths], keep, np.random.default_rng(seed), draws)[0]:
            assert ((mask == 0.0) | (mask == inverse)).all()


def assert_same_cache(a, b):
    for field in ("inputs", "acts", "masks"):
        for x, y in zip(getattr(a, field), getattr(b, field), strict=True):
            if x is None or y is None:
                assert x is None and y is None
            else:
                np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.output, b.output)


class TestReusedBuffers:
    """``out=`` refills earlier results: same values, same random stream, no new arrays."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from(ACTIVATIONS),
        st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_mlp_forward_out_matches_fresh(self, seed, rows, hidden, masked):
        rng = np.random.default_rng(seed)
        params = build_mlp((4, 6, 5, 2), rng, hidden_activation=hidden)

        def draw():
            keep = rng.uniform(0.2, 1.0, rows)
            masks = draw_masks([[6, 5, 2]], keep, rng)[0]
            return [m if on else None for m, on in zip(masks, masked)]

        x_a, mask_a = rng.normal(size=(rows, 4)), draw()
        x_b, mask_b = rng.normal(size=(rows, 4)), draw()
        _, cache = mlp_forward(params, x_a, mask_a)

        def buffers():
            return [id(a) for a in cache.acts + cache.inputs[1:]]

        before = buffers() + [id(cache.output)]
        x_before = x_b.copy()
        out, reused = mlp_forward(params, x_b, mask_b, out=cache)
        fresh_out, fresh = mlp_forward(params, x_b, mask_b)
        assert reused is cache and out is cache.output
        assert buffers() + [id(out)] == before
        np.testing.assert_array_equal(out, fresh_out)
        assert_same_cache(reused, fresh)
        np.testing.assert_array_equal(x_b, x_before)
        g = rng.normal(size=fresh_out.shape)
        for a, b in zip(mlp_backward(params, reused, g)[0], mlp_backward(params, fresh, g)[0]):
            np.testing.assert_array_equal(a, b)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 20),
        st.sampled_from([None, 1, 3]),
        st.lists(st.lists(st.integers(1, 9), max_size=2), min_size=1, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_masks_out_matches_fresh(self, seed, rows, draws, groups):
        keep = np.random.default_rng(seed).uniform(0.1, 1.0, rows)
        # a block holding stale values, as an earlier draw leaves it
        total = sum(map(sum, groups))
        block = np.random.default_rng(seed + 1).random((draws or 1, rows * total))
        rng_fresh, rng_out = np.random.default_rng(seed), np.random.default_rng(seed)
        fresh = sum(draw_masks(groups, keep, rng_fresh, draws), [])
        refilled = sum(draw_masks(groups, keep, rng_out, draws, out=block), [])
        for m, f in zip(refilled, fresh, strict=True):
            assert np.shares_memory(m, block)
            np.testing.assert_array_equal(m, f)
        assert rng_out.random() == rng_fresh.random()

    def test_mismatched_out_rejected(self):
        params, rng = tiny_net(), np.random.default_rng(0)
        keep = np.full(2, 0.5)
        _, cache = mlp_forward(params, np.ones((2, 3)), draw_masks([[5]], keep, rng)[0])
        with pytest.raises(ValueError, match="shape"):
            mlp_forward(params, np.ones((3, 3)), draw_masks([[5]], np.full(3, 0.5), rng)[0], out=cache)
        with pytest.raises(ValueError, match="layers"):
            mlp_forward(params, np.ones((2, 3)), None, out=cache)
        with pytest.raises(ValueError):
            mlp_forward(tiny_net(widths=(3, 4, 1)), np.ones((2, 3)), out=cache)
        with pytest.raises(ValueError, match="block"):
            draw_masks([[5], [5]], keep, rng, out=np.empty((1, 10)))
        with pytest.raises(ValueError, match="block"):
            draw_masks([[5]], keep, rng, draws=3, out=np.empty((2, 10)))
        with pytest.raises(ValueError, match="block"):
            draw_masks([[5]], keep, rng, out=np.empty((1, 10), dtype=np.float32))


class TestStackedBatches:
    """A ``(c, n, d)`` stack gives, item by item, the bits of ``c`` 2-D calls."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 12),
        st.sampled_from(ACTIVATIONS),
        st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_mlp_forward_stack_matches_per_item(self, seed, c, rows, hidden, masked):
        rng = np.random.default_rng(seed)
        params = build_mlp((4, 6, 5, 2), rng, hidden_activation=hidden)
        keep = rng.uniform(0.2, 1.0, rows)
        x = rng.normal(size=(c, rows, 4))
        stacked = draw_masks([[6, 5, 2]], keep, rng, draws=c)[0]
        masks = [m if on else None for m, on in zip(stacked, masked)]
        out, cache = mlp_forward(params, x, masks)
        _, other = mlp_forward(params, x[::-1], masks)
        refilled, _ = mlp_forward(params, x, masks, out=other)
        assert out.shape == (c, rows, 2)
        np.testing.assert_array_equal(refilled, out)
        for k in range(c):
            item = [None if m is None else m[k] for m in masks]
            expected, item_cache = mlp_forward(params, x[k], item)
            assert out[k].tobytes() == expected.tobytes()
            for a, b in zip(cache.acts, item_cache.acts):
                assert a[k].tobytes() == b.tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 8),
        st.lists(st.integers(1, 9), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_masks_draws_match_successive_calls(self, seed, c, rows, widths):
        keep = np.random.default_rng(seed).uniform(0.1, 1.0, rows)
        rng_one, rng_each = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = draw_masks([widths], keep, rng_one, draws=c)[0]
        each = [draw_masks([widths], keep, rng_each)[0] for _ in range(c)]
        assert [m.shape for m in stacked] == [(c, rows, w) for w in widths]
        for i in range(len(widths)):
            for k in range(c):
                np.testing.assert_array_equal(stacked[i][k], each[k][i])
        assert rng_one.random() == rng_each.random()

    def test_mismatched_stack_rejected(self):
        params, rng = tiny_net(), np.random.default_rng(0)
        keep = np.full(2, 0.5)
        masks = draw_masks([[5]], keep, rng, draws=3)[0]
        with pytest.raises(ValueError, match="mask"):
            mlp_forward(params, np.ones((4, 2, 3)), masks)
        with pytest.raises(ValueError, match="mask"):
            mlp_forward(params, np.ones((3, 3)), masks)
        with pytest.raises(ValueError, match="2-D"):
            mlp_forward(params, np.ones(3))


class TestBackward:
    def test_matches_finite_differences_small_net(self):
        rng = np.random.default_rng(7)
        params = tiny_net(7, widths=(3, 4, 2))
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))

        def loss_fn(p):
            out, cache = mlp_forward(p, x)
            diff = out - y
            grads, _ = mlp_backward(p, cache, diff / len(x))
            return 0.5 * np.mean(np.sum(diff**2, axis=1)), grads

        assert grad_check(params, loss_fn) < 1e-6

    def test_matches_finite_differences_with_mask(self):
        rng = np.random.default_rng(11)
        params = build_mlp((2, 6, 1), np.random.default_rng(11))
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 1))
        mask = [bernoulli_mask(rng.random((4, 6)), 0.5)]

        def loss_fn(p):
            out, cache = mlp_forward(p, x, mask)
            diff = out - y
            grads, _ = mlp_backward(p, cache, diff / len(x))
            return 0.5 * np.mean(np.sum(diff**2, axis=1)), grads

        assert grad_check(params, loss_fn) < 1e-6

    @staticmethod
    def written_out_backward(params, cache, grad_output):
        """The backward pass with a fresh array per operation, as formulas.

        Each ReLU mask comes from ``z`` recomputed from the cached input, not
        from a cached activation.
        """
        grads, g = [None] * (2 * len(params.layers)), grad_output
        for i in reversed(range(len(params.layers))):
            layer = params.layers[i]
            z = cache.inputs[i] @ layer.W + layer.b
            if cache.masks[i] is not None:
                g = g * cache.masks[i]
            if layer.activation == "relu":
                gz = g * (z > 0.0).astype(np.float64)
            else:
                gz = g * np.ones_like(z)
            grads[2 * i : 2 * i + 2] = cache.inputs[i].T @ gz, gz.sum(axis=0)
            g = gz @ layer.W.T
        return grads, g

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("rows", [1, 7])
    def test_matches_written_out_formulas_bitwise(self, activation, masked, rows):
        rng = np.random.default_rng(12)
        widths = (4, 6, 5, 3)
        params = build_mlp(widths, rng, activation, activation)

        def masks():
            # a mask on every layer, the output too, when masked
            drawn = draw_masks([widths[1:]], rng.uniform(0.3, 1.0, rows), rng)[0]
            return drawn if masked else None

        def check(cache, expect_buffers=None):
            g = rng.normal(size=(rows, widths[-1]))
            g_before = g.tobytes()
            want, want_in = self.written_out_backward(params, cache, g)
            got, got_in = mlp_backward(params, cache, g)
            assert g.tobytes() == g_before
            assert got_in.tobytes() == want_in.tobytes()
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            skipped, none = mlp_backward(params, cache, g, input_grad=False)
            assert none is None and skipped is got
            assert [a.tobytes() for a in skipped] == [b.tobytes() for b in want]
            if expect_buffers is not None:
                assert all(a is b for a, b in zip(got, expect_buffers, strict=True))
            return list(got)

        _, cache = mlp_forward(params, rng.normal(size=(rows, widths[0])), masks())
        buffers = check(cache)
        refilled = mlp_forward(params, rng.normal(size=(rows, widths[0])), masks(), out=cache)[1]
        assert refilled is cache
        check(cache, expect_buffers=buffers)

    def test_grad_output_shape_mismatch_raises(self):
        params = tiny_net()
        _, cache = mlp_forward(params, np.ones((2, 3)))
        with pytest.raises(ValueError):
            mlp_backward(params, cache, np.ones((3, 1)))

    def test_nonfinite_loss_raises(self):
        params = tiny_net()

        def bad_loss(p):
            out, cache = mlp_forward(p, np.ones((1, 3)))
            grads, _ = mlp_backward(p, cache, np.ones_like(out))
            return float("nan"), grads

        with pytest.raises(FloatingPointError):
            grad_check(params, bad_loss)


class TestAdam:
    def test_two_steps_hand_values(self):
        p = np.array([0.0])
        state = AdamState.for_params([p])
        adam_step([p], [np.array([1.0])], state)
        np.testing.assert_allclose(p, [-ADAM_STEP], rtol=0, atol=1e-18)
        assert state.t == 1
        np.testing.assert_allclose(state.m[0], [0.1])
        np.testing.assert_allclose(state.v[0], [0.001])
        adam_step([p], [np.array([1.0])], state)
        # moment recursion and bias correction round differently, few-ulp slack
        np.testing.assert_allclose(p, [-2 * ADAM_STEP], rtol=1e-12)

    def test_update_is_in_place(self):
        p = np.zeros(3)
        alias = p
        state = AdamState.for_params([p])
        adam_step([p], [np.ones(3)], state)
        assert alias is p and alias[0] != 0.0

    def test_zero_grads_leave_fresh_params_fixed(self):
        p = np.array([1.5, -2.0])
        state = AdamState.for_params([p])
        for _ in range(5):
            adam_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p, [1.5, -2.0])

    def test_shape_mismatch_raises(self):
        p = np.zeros(3)
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step([p], [np.zeros(2)], state)

    def test_matches_written_out_update_bitwise(self):
        rng = np.random.default_rng(41)
        shapes = [(1,), (3,), (4, 5)]
        params = [rng.normal(size=s) for s in shapes]
        lr, b1, b2, eps = 0.01, 0.8, 0.99, 1e-6
        state = AdamState.for_params(params, lr, b1, b2, eps)
        scratch = [a for pair in state.scratch for a in pair]
        want_p = [p.copy() for p in params]
        want_m, want_v = [np.zeros(s) for s in shapes], [np.zeros(s) for s in shapes]
        for t in range(1, 4):
            grads = [rng.normal(size=s) for s in shapes]
            adam_step(params, grads, state)
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            # the 14 operations; the scratch pair ends holding the step and denominator
            want_scratch = []
            for j, g in enumerate(grads):
                want_m[j] = want_m[j] * b1 + g * (1.0 - b1)
                want_v[j] = want_v[j] * b2 + (g * g) * (1.0 - b2)
                denom = np.sqrt(want_v[j] / bc2) + eps
                step = (want_m[j] / bc1 * lr) / denom
                want_p[j] = want_p[j] - step
                want_scratch += [step, denom]
            got = params + state.m + state.v + scratch
            for a, b in zip(got, want_p + want_m + want_v + want_scratch, strict=True):
                assert a.tobytes() == b.tobytes()
            assert all(a is b for a, b in zip([a for pair in state.scratch for a in pair], scratch))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_descends_a_quadratic(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=4)
        p = np.zeros(4)
        state = AdamState.for_params([p], lr=0.05)
        first = np.sum((p - target) ** 2)
        for _ in range(400):
            adam_step([p], [2 * (p - target)], state)
        assert np.sum((p - target) ** 2) < first * 0.01


class TestTrainStep:
    def test_matches_hand_chained_step(self):
        rng = np.random.default_rng(30)
        first, second = tiny_net(31, (3, 5, 4)), tiny_net(32, (4, 2, 1))
        x, y = rng.normal(size=(6, 3)), rng.normal(size=6)
        mask = [bernoulli_mask(rng.random((6, 5)), 0.7)]
        expected = copy.deepcopy([first, second])
        exp_states = [AdamState.for_params(n.parameter_arrays()) for n in expected]
        rep, cache1 = mlp_forward(expected[0], x, mask)
        out, cache2 = mlp_forward(expected[1], rep)
        grads2, grad_rep = mlp_backward(expected[1], cache2, (out - y[:, None]) / 6)
        grads1, _ = mlp_backward(expected[0], cache1, grad_rep)
        adam_step(expected[0].parameter_arrays(), grads1, exp_states[0])
        adam_step(expected[1].parameter_arrays(), grads2, exp_states[1])

        states = [AdamState.for_params(n.parameter_arrays()) for n in (first, second)]
        applied, caches = train_step(
            [first, second], states, x, [mask, None], lambda o: (o - y[:, None]) / 6
        )
        for got, want in zip((first, second), expected):
            for a, b in zip(got.parameter_arrays(), want.parameter_arrays()):
                np.testing.assert_array_equal(a, b)
        for got, want in zip(applied, (grads1, grads2)):
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(caches[1].inputs[0], rep)
        assert [s.t for s in states] == [1, 1]

    def test_nonfinite_output_raises_before_any_update(self):
        net = tiny_net(33)
        net.layers[-1].b[0] = np.inf
        before = [a.copy() for a in net.parameter_arrays()]
        state = AdamState.for_params(net.parameter_arrays())
        with pytest.raises(FloatingPointError):
            train_step([net], [state], np.ones((2, 3)), [None], lambda o: o)
        for a, b in zip(net.parameter_arrays(), before):
            np.testing.assert_array_equal(a, b)
        assert state.t == 0

    @given(st.integers(1, 50), st.integers(1, 20), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_minibatches_partition_one_permutation(self, n, batch_size, seed):
        batches = list(minibatches(n, batch_size, np.random.default_rng(seed)))
        np.testing.assert_array_equal(
            np.concatenate(batches), np.random.default_rng(seed).permutation(n)
        )
        assert all(len(b) == batch_size for b in batches[:-1])


class TestXavier:
    def test_bounds(self):
        W = xavier_init(30, 20, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 50)
        assert W.shape == (30, 20)
        assert np.all(np.abs(W) <= limit)

    def test_empirical_variance_50x50(self):
        # uniform on [-L, L] has variance L^2/3 = 0.02 for fan 50/50
        W = xavier_init(50, 50, np.random.default_rng(123))
        assert abs(W.var() - 0.02) < 0.2 * 0.02

    def test_bad_fan_raises(self):
        with pytest.raises(ValueError):
            xavier_init(0, 5, np.random.default_rng(0))


class TestParamsPlumbing:
    def test_incompatible_widths_raise(self):
        with pytest.raises(ValueError):
            MLPParams(
                [
                    DenseLayer(np.ones((2, 3)), np.zeros(3)),
                    DenseLayer(np.ones((4, 1)), np.zeros(1)),
                ]
            )

    def test_parameter_arrays_are_views(self):
        params = tiny_net()
        arrays = params.parameter_arrays()
        arrays[0][0, 0] = 99.0
        assert params.layers[0].W[0, 0] == 99.0

    def test_dict_round_trip(self):
        params = tiny_net(3)
        restored = MLPParams.from_dict(params.to_dict())
        for a, b in zip(params.layers, restored.layers):
            np.testing.assert_array_equal(a.W, b.W)
            np.testing.assert_array_equal(a.b, b.b)
            assert a.activation == b.activation

    def test_build_mlp_shapes_and_activations(self):
        params = build_mlp((4, 8, 8, 2), np.random.default_rng(0))
        assert [l.fan_in for l in params.layers] == [4, 8, 8]
        assert [l.activation for l in params.layers] == ["relu", "relu", "identity"]

    def test_mask_widths_cover_every_output_but_the_chains_last(self):
        first, second = tiny_net(0, (4, 8, 6)), tiny_net(1, (6, 5, 3, 1))
        assert mask_widths([first, second]) == [[8, 6], [5, 3]]
        assert mask_widths([second]) == [[5, 3]]
        assert mask_widths([tiny_net(2, (4, 1))]) == [[]]

    def test_backward_grads_follow_parameter_arrays(self):
        params = tiny_net(4, (2, 3, 1))
        out, cache = mlp_forward(params, np.ones((5, 2)))
        grads, _ = mlp_backward(params, cache, np.ones_like(out))
        assert [a.shape for a in grads] == [(2, 3), (3,), (3, 1), (1,)]
        assert [a.shape for a in grads] == [a.shape for a in params.parameter_arrays()]
