"""Alternating-loop behavior: phase schedule, mask schedule, determinism."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from dcnpd.data import ObservationalDataset, Standardization, standardize
from dcnpd import dcn, training
from dcnpd.dcn import DCNParams, build_dcn, dcn_forward, mc_ite_matrix
from dcnpd.baselines import train_direct_nn
from dcnpd.nn import (
    AdamState,
    DenseLayer,
    MLPParams,
    build_mlp,
    draw_masks,
    minibatches,
    train_step,
)
from dcnpd.propensity import (
    DropoutSchedule,
    PropensityModel,
    keep_probability,
    predict_propensity,
    train_propensity,
)
from dcnpd.training import EpochRecord, TrainConfig, train_dcn, train_dcn_fixed_dropout
from oracles import factual_mse

SMALL = TrainConfig(epochs=10, batch_size=8, shared_widths=(8,), head_widths=())


def biased_toy(n=60, d=3, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    p = 1.0 / (1.0 + np.exp(-X[:, 0]))
    W = (rng.random(n) < p).astype(int)
    Y = X @ np.full(d, 0.3) + 1.5 * W + noise * rng.normal(size=n)
    return ObservationalDataset(X, W, Y)


def stub_propensity(logit, d=3):
    net = MLPParams([DenseLayer(np.zeros((d, 1)), np.array([logit]), "identity")])
    return PropensityModel(net, Standardization(np.zeros(d), np.ones(d)))


def params_equal(a: DCNParams, b: DCNParams) -> bool:
    for pa, pb in zip(
        a.shared.parameter_arrays() + a.head0.parameter_arrays() + a.head1.parameter_arrays(),
        b.shared.parameter_arrays() + b.head0.parameter_arrays() + b.head1.parameter_arrays(),
    ):
        if not np.array_equal(pa, pb):
            return False
    return True


def stack_equal(a: MLPParams, b: MLPParams) -> bool:
    return all(
        np.array_equal(pa, pb)
        for pa, pb in zip(a.parameter_arrays(), b.parameter_arrays())
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(gamma=1.5)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        for bad in ({"beta1": 1.0}, {"beta2": -0.1}, {"epsilon": 0.0},
                    {"learning_rate": float("nan")}, {"epsilon": float("inf")}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                TrainConfig(**bad)


class TestFactualMse:
    def test_hand_case(self):
        # preds (1, 3) vs targets (0, 1): (1 + 4) / 2
        params = build_dcn(2, np.random.default_rng(0), (4,), ())
        for stack in (params.shared,):
            for layer in stack.layers:
                layer.W[:] = 0.0
                layer.b[:] = 0.0
        params.head0.layers[0].W[:] = 0.0
        params.head0.layers[0].b[:] = 1.0
        params.head1.layers[0].W[:] = 0.0
        params.head1.layers[0].b[:] = 3.0
        ds = ObservationalDataset(
            np.zeros((2, 2)), np.array([0, 1]), np.array([0.0, 1.0])
        )
        assert factual_mse(params, ds) == 2.5

    def test_constant_residual(self):
        params = build_dcn(2, np.random.default_rng(0), (4,), ())
        for stack in (params.shared, params.head0, params.head1):
            for layer in stack.layers:
                layer.W[:] = 0.0
                layer.b[:] = 0.0
        ds = ObservationalDataset(np.ones((5, 2)), np.zeros(5, dtype=int), np.full(5, 3.0))
        assert factual_mse(params, ds) == 9.0

    def test_empty_batch_rejected(self):
        params = build_dcn(2, np.random.default_rng(0), (4,), ())
        ds = ObservationalDataset(np.ones((2, 2)), np.array([0, 1]), np.zeros(2))
        empty = ds.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            factual_mse(params, empty)


class TestSchedule:
    def collect_epochs(self, train_fn, *args, config):
        snaps: list[tuple[EpochRecord, DCNParams]] = []
        train_fn(*args, config, np.random.default_rng(42),
                 on_epoch=lambda rec, p: snaps.append((rec, copy.deepcopy(p))))
        return snaps

    def test_phase_labels_alternate_starting_with_control(self):
        ds = biased_toy()
        snaps = self.collect_epochs(train_dcn, ds, stub_propensity(0.3), config=SMALL)
        assert [rec.phase for rec, _ in snaps] == ["control", "treated"] * 5

    def test_head_freezing_over_ten_epochs(self):
        ds = biased_toy()
        init = build_dcn(ds.d, np.random.default_rng(42), SMALL.shared_widths, SMALL.head_widths)
        snaps = self.collect_epochs(train_dcn, ds, stub_propensity(0.3), config=SMALL)
        prev = init
        for rec, current in snaps:
            if rec.phase == "control":
                assert stack_equal(current.head1, prev.head1)  # bit-identical
                assert not stack_equal(current.head0, prev.head0)
            else:
                assert stack_equal(current.head0, prev.head0)
                assert not stack_equal(current.head1, prev.head1)
            assert not stack_equal(current.shared, prev.shared)
            prev = current

    def test_k1_leaves_head1_at_initialization(self):
        ds = biased_toy()
        cfg = TrainConfig(epochs=1, batch_size=8, shared_widths=(8,))
        init = build_dcn(ds.d, np.random.default_rng(7), cfg.shared_widths, cfg.head_widths)
        trained = train_dcn(ds, stub_propensity(0.0), cfg, np.random.default_rng(7))
        assert stack_equal(trained.head1, init.head1)
        assert not stack_equal(trained.head0, init.head0)

    def test_k2_touches_both_heads_once(self):
        ds = biased_toy()
        cfg = TrainConfig(epochs=2, batch_size=8, shared_widths=(8,))
        snaps = self.collect_epochs(train_dcn, ds, stub_propensity(0.0), config=cfg)
        (rec1, after1), (rec2, after2) = snaps
        assert (rec1.phase, rec2.phase) == ("control", "treated")
        assert stack_equal(after2.head0, after1.head0)
        assert not stack_equal(after2.head1, after1.head1)

    def test_epoch_record_is_the_phase_arms_factual_mse(self):
        ds = biased_toy()
        snaps = self.collect_epochs(train_dcn, ds, stub_propensity(0.3), config=SMALL)
        for rec, params in snaps:
            arm = ds.subset(np.flatnonzero(ds.W == (rec.phase == "treated")))
            assert rec.factual_mse == factual_mse(params, arm)

    def test_fixed_dropout_shares_the_schedule_invariant(self):
        ds = biased_toy()
        snaps = self.collect_epochs(train_dcn_fixed_dropout, ds, 0.2, config=SMALL)
        for i, (rec, _) in enumerate(snaps):
            assert rec.epoch == i + 1


def spy_on_keeps(monkeypatch, module) -> list[np.ndarray]:
    """Record the keep vector of every `draw_masks` call made through ``module``."""
    seen, draw = [], module.draw_masks

    def spy(widths, keep, *args, **kwargs):
        seen.append(keep)
        return draw(widths, keep, *args, **kwargs)

    monkeypatch.setattr(module, "draw_masks", spy)
    return seen


class TestMaskSchedule:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_training_and_inference_build_identical_keep_vectors(self, monkeypatch, gamma):
        ds = biased_toy(80, seed=4)
        prop = train_propensity(ds, epochs=40, rng=np.random.default_rng(5))
        cfg = TrainConfig(epochs=2, gamma=gamma, batch_size=16, shared_widths=(8,))
        trained = spy_on_keeps(monkeypatch, training)
        params = train_dcn(ds, prop, cfg, np.random.default_rng(6))
        inferred = spy_on_keeps(monkeypatch, dcn)
        mc_ite_matrix(params, prop, DropoutSchedule(gamma), ds.X, 2, np.random.default_rng(7))
        # one control epoch and one treated epoch visit every row once
        assert len(np.unique(inferred[0])) == ds.n
        assert np.sort(np.concatenate(trained)).tobytes() == np.sort(inferred[0]).tobytes()

    def test_keep_prob_is_entropy_formula_exactly(self, monkeypatch):
        ds = biased_toy(80, seed=2)
        prop = train_propensity(ds, epochs=40, rng=np.random.default_rng(3))
        cfg = TrainConfig(epochs=4, gamma=0.7, batch_size=16, shared_widths=(8,))
        expected = keep_probability(
            predict_propensity(prop, ds.X), DropoutSchedule(0.7)
        )
        assert len(np.unique(expected)) == ds.n
        seen = spy_on_keeps(monkeypatch, training)
        train_dcn(ds, prop, cfg, np.random.default_rng(4))
        keeps = np.concatenate(seen)
        assert len(keeps) == 2 * ds.n
        for pair in (keeps[: ds.n], keeps[ds.n :]):  # epochs 1-2, then 3-4
            np.testing.assert_array_equal(np.sort(pair), np.sort(expected))

    def test_fixed_dropout_keep_is_constant(self, monkeypatch):
        ds = biased_toy(40, seed=5)
        seen = spy_on_keeps(monkeypatch, training)
        train_dcn_fixed_dropout(ds, 0.25, SMALL, np.random.default_rng(6))
        keeps = np.concatenate(seen)
        assert len(keeps) == SMALL.epochs // 2 * ds.n
        np.testing.assert_array_equal(keeps, np.full(len(keeps), 0.75))


def squared_error_grad(y):
    return lambda out: (2.0 * (out[:, 0] - y) / len(y))[:, None]


def reference_alternating(ds, keep, config, rng):
    """The alternating loop written out: control epochs, then treated, in turn.

    Each minibatch draws the shared masks and the head's hidden masks with
    one `draw_masks` call and takes one `train_step` on (shared, head).
    """
    params = build_dcn(ds.d, rng, config.shared_widths, config.head_widths)
    shared_widths = [layer.fan_out for layer in params.shared.layers]
    head0_widths, head1_widths = (
        [layer.fan_out for layer in head.layers[:-1]] for head in (params.head0, params.head1)
    )
    shared_state, head0_state, head1_state = (
        config.adam_state(net.parameter_arrays())
        for net in (params.shared, params.head0, params.head1)
    )
    arms = [
        (np.flatnonzero(ds.W == 0), params.head0, head0_state, head0_widths),
        (np.flatnonzero(ds.W == 1), params.head1, head1_state, head1_widths),
    ]
    for k in range(config.epochs):
        idx, head, head_state, head_widths = arms[k % 2]
        for batch in minibatches(len(idx), config.batch_size, rng):
            rows = idx[batch]
            masks = draw_masks([shared_widths, head_widths], keep[rows], rng)
            train_step(
                [params.shared, head],
                [shared_state, head_state],
                ds.X[rows],
                masks,
                squared_error_grad(ds.Y[rows]),
            )
    return params


def reference_direct(ds, arch, keep, config, rng):
    """The direct net's loop written out: every row each epoch, one mask draw per batch."""
    net = build_mlp((ds.d + 1, *arch, 1), rng, output_activation="identity")
    inputs = np.column_stack([ds.X, ds.W.astype(np.float64)])
    state = config.adam_state(net.parameter_arrays())
    for _ in range(config.epochs):
        for rows in minibatches(ds.n, config.batch_size, rng):
            widths = [layer.fan_out for layer in net.layers[:-1]]
            masks = draw_masks([widths], np.full(len(rows), keep), rng)
            train_step([net], [state], inputs[rows], masks, squared_error_grad(ds.Y[rows]))
    return net


class TestReferenceLoop:
    CONFIG = TrainConfig(epochs=3, batch_size=8, shared_widths=(8, 6), head_widths=(5,))

    def test_propensity_dropout_matches_reference_bitwise(self):
        ds = biased_toy(50, seed=23)
        prop = train_propensity(ds, epochs=20, rng=np.random.default_rng(24))
        keep = keep_probability(predict_propensity(prop, ds.X), DropoutSchedule(0.6))
        cfg = replace(self.CONFIG, gamma=0.6)
        trained = train_dcn(ds, prop, cfg, np.random.default_rng(25))
        assert params_equal(trained, reference_alternating(ds, keep, cfg, np.random.default_rng(25)))

    def test_fixed_dropout_matches_reference_bitwise(self):
        ds = biased_toy(50, seed=26)
        trained = train_dcn_fixed_dropout(ds, 0.3, self.CONFIG, np.random.default_rng(27))
        keep = np.full(ds.n, 0.7)
        expected = reference_alternating(ds, keep, self.CONFIG, np.random.default_rng(27))
        assert params_equal(trained, expected)

    def test_direct_net_matches_reference_bitwise(self):
        ds = biased_toy(45, seed=28)
        arch = (7, 5)
        trained = train_direct_nn(
            ds, arch, self.CONFIG, rng=np.random.default_rng(29), dropout_prob=0.25
        )
        expected = reference_direct(ds, arch, 0.75, self.CONFIG, np.random.default_rng(29))
        assert stack_equal(trained, expected)


def same_bits(a: list, b: list) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


def dcn_arrays(params: DCNParams) -> list:
    return [a for net in (params.shared, params.head0, params.head1) for a in net.parameter_arrays()]


class TestStepBuffers:
    """Steps on kept caches reuse their arrays and give the fresh-allocation bits."""

    def test_steps_on_the_same_caches_reuse_gradient_arrays(self):
        rng = np.random.default_rng(50)
        nets = [build_mlp((3, 6, 4), rng), build_mlp((4, 5, 1), rng)]
        fresh_nets = copy.deepcopy(nets)
        states, fresh_states = (
            [AdamState.for_params(net.parameter_arrays()) for net in group]
            for group in (nets, fresh_nets)
        )
        x, y = rng.normal(size=(7, 3)), rng.normal(size=7)
        caches, returned = [None, None], []
        for _ in range(2):
            masks = draw_masks([[6, 4], [5]], rng.uniform(0.5, 1.0, 7), rng)
            grads, kept = train_step(nets, states, x, masks, squared_error_grad(y), caches)
            assert kept is caches
            returned.append([a for net_grads in grads for a in net_grads])
            train_step(fresh_nets, fresh_states, x, masks, squared_error_grad(y))
        assert all(a is b for a, b in zip(*returned, strict=True))
        for net, fresh in zip(nets, fresh_nets):
            assert same_bits(net.parameter_arrays(), fresh.parameter_arrays())

    def test_short_last_minibatches_match_reference_bitwise(self):
        ds = biased_toy(61, seed=51)
        config = replace(TestReferenceLoop.CONFIG, epochs=5)
        arms = np.bincount(ds.W)
        assert (arms % config.batch_size != 0).all() and (arms > config.batch_size).all()
        prop = train_propensity(ds, epochs=20, rng=np.random.default_rng(53))
        keep = keep_probability(predict_propensity(prop, ds.X), DropoutSchedule(config.gamma))
        trained = train_dcn(ds, prop, config, np.random.default_rng(52))
        expected = reference_alternating(ds, keep, config, np.random.default_rng(52))
        assert same_bits(dcn_arrays(trained), dcn_arrays(expected))


class TestDeterminismAndEquivalence:
    def test_same_seed_bit_identical(self):
        ds = biased_toy(70, seed=8)
        prop = stub_propensity(0.4)
        a = train_dcn(ds, prop, SMALL, np.random.default_rng(9))
        b = train_dcn(ds, prop, SMALL, np.random.default_rng(9))
        assert params_equal(a, b)

    def test_zero_dropout_equals_balanced_stub_bitwise(self):
        # keep prob is exactly 1 on both paths, and the random streams align
        ds = biased_toy(60, seed=11)
        fixed = train_dcn_fixed_dropout(ds, 0.0, SMALL, np.random.default_rng(12))
        stub = train_dcn(ds, stub_propensity(0.0), SMALL, np.random.default_rng(12))
        assert params_equal(fixed, stub)


class TestTrainingProgress:
    def test_loss_decreases_on_noiseless_linear_toy(self):
        ds = biased_toy(200, seed=13, noise=0.0)
        scaled, _ = standardize(ds)
        cfg = TrainConfig(epochs=40, batch_size=32, shared_widths=(32,))
        init = build_dcn(scaled.d, np.random.default_rng(14), cfg.shared_widths, ())
        trained = train_dcn(scaled, stub_propensity(0.0), cfg, np.random.default_rng(14))
        assert factual_mse(trained, scaled) < factual_mse(init, scaled)

    def test_head_widths_respected(self):
        ds = biased_toy(40, seed=17)
        cfg = TrainConfig(epochs=2, batch_size=8, shared_widths=(8,), head_widths=(6,))
        params = train_dcn(ds, stub_propensity(0.0), cfg, np.random.default_rng(18))
        assert len(params.head0.layers) == 2
        assert [layer.fan_out for layer in params.head0.layers] == [6, 1]


class TestErrors:
    def test_single_arm_dataset_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        ds = ObservationalDataset(X, np.ones(10, dtype=int), np.zeros(10))
        with pytest.raises(ValueError):
            train_dcn(ds, stub_propensity(0.0), SMALL, np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_dcn_fixed_dropout(ds, 0.2, SMALL, np.random.default_rng(0))

    def test_feature_width_mismatch_rejected(self):
        ds = biased_toy(20, seed=1)  # d = 3
        with pytest.raises(ValueError):
            train_dcn(ds, stub_propensity(0.0, d=4), SMALL, np.random.default_rng(0))

    def test_divergence_raises_naming_epoch_and_phase(self):
        ds = biased_toy(40, seed=3)
        cfg = TrainConfig(epochs=4, batch_size=8, shared_widths=(8,), learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"epoch 1 \(control phase\)"):
                train_dcn(ds, stub_propensity(0.3), cfg, np.random.default_rng(4))
            with pytest.raises(FloatingPointError, match=r"epoch 1 \(control phase\)"):
                train_dcn_fixed_dropout(ds, 0.2, cfg, np.random.default_rng(4))

    def test_dropout_domain(self):
        ds = biased_toy(20, seed=2)
        for bad in (-0.1, 1.0):
            with pytest.raises(ValueError):
                train_dcn_fixed_dropout(ds, bad, SMALL, np.random.default_rng(0))


class TestRecovery:
    def test_constant_effect_toy_recovers_under_quarter_mse(self):
        # y0 = x'b, y1 = x'b + 2, no noise, mild bias: the alternating net
        # should pin the constant effect well inside 0.25 squared error
        rng = np.random.default_rng(19)
        n, d = 500, 5
        X = rng.normal(size=(n, d))
        beta = np.array([0.4, 0.3, 0.0, 0.2, 0.1])
        p = 1.0 / (1.0 + np.exp(-0.8 * X.mean(axis=1) * np.sqrt(d)))
        W = (rng.random(n) < p).astype(int)
        mu0 = X @ beta
        mu1 = mu0 + 2.0
        Y = np.where(W == 1, mu1, mu0)
        ds = ObservationalDataset(X, W, Y, mu0, mu1)
        scaled, transform = standardize(ds)
        prop = train_propensity(scaled, epochs=300, rng=np.random.default_rng(20))
        cfg = TrainConfig(epochs=200)
        params = train_dcn(scaled, prop, cfg, np.random.default_rng(21))
        holdout = np.random.default_rng(22).normal(size=(200, d))
        y0, y1 = dcn_forward(params, transform.transform(holdout))
        ite = y1 - y0
        assert np.mean((ite - 2.0) ** 2) < 0.25
