"""Acceptance gate: ten criteria, one printed verdict line each.

Covers schedule endpoint math, gradient fidelity, alternating-phase
freezing, Monte Carlo degeneracy, matching-oracle equivalence, paired
benchmark orderings, noiseless recovery, end-to-end determinism, and an
optional real-data check driven by the DCNPD_IHDP_DIR environment variable.
"""

import copy
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dcnpd.baselines import KnnConfig, knn_ite
from dcnpd.data import ObservationalDataset, Standardization, SyntheticConfig
from dcnpd.dcn import build_dcn, estimate_ite
from dcnpd.experiment import (
    POOL_MIN_STEPS,
    ExperimentConfig,
    _run_repetition,
    _train_steps,
    run_experiment,
)
from dcnpd.nn import bernoulli_mask, build_mlp, mlp_backward, mlp_forward
from dcnpd.propensity import DropoutSchedule, PropensityModel, dropout_probability
from dcnpd.training import TrainConfig, train_dcn
from oracles import grad_check


def verdict(log: list, criterion: int, passed: bool, description: str, detail: str = "") -> None:
    """Record one pass/fail line per criterion; conftest prints them in the summary."""
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:2d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    log.append(line)
    print(line, flush=True)
    assert passed, line


def skip_line(log: list, criterion: int, description: str, reason: str) -> None:
    line = f"[criterion {criterion:2d}] SKIP - {description} ({reason})"
    log.append(line)
    print(line, flush=True)
    pytest.skip(reason)


# --- shared paired benchmark for the ordering criteria ---

BENCHMARK_MODELS = ("dcn-pd", "dcn-fixed:0.2", "dcn-fixed:0.5", "nn4", "knn:5")
BENCHMARK_REPS = 20


@pytest.fixture(scope="module")
def paired_benchmark():
    """Five models, identical seed: repetition r of each sees the same data."""
    synthetic = SyntheticConfig(
        n=750, d=25, bias_strength=3.0, noise_std=1.0, surface="ExpSurface"
    )
    reports = {}
    for model in BENCHMARK_MODELS:
        config = ExperimentConfig(
            model=model,
            seed=1,
            synthetic=synthetic,
            train=TrainConfig(),
            repetitions=BENCHMARK_REPS,
            propensity_epochs=300,
        )
        reports[model] = run_experiment(config)
    return reports


def paired_wins(reports, model_a: str, model_b: str) -> int:
    pairs = zip(reports[model_a].per_rep_mse, reports[model_b].per_rep_mse)
    return sum(a < b for a, b in pairs)


def test_criterion_01_schedule_endpoints(criteria_log):
    schedule = DropoutSchedule(1.0)
    center = dropout_probability(0.5, schedule)
    edges = [dropout_probability(p, schedule) for p in (0.0, 1.0, 1e-15, 1.0 - 1e-15)]
    passed = abs(center) <= 1e-12 and all(abs(e - 0.5) <= 1e-12 for e in edges)
    verdict(
        criteria_log,
        1,
        passed,
        "dropout rate is 0 at balanced score and 1/2 at extreme scores",
        f"center={center:.2e}, worst edge gap={max(abs(e - 0.5) for e in edges):.2e}",
    )


def test_criterion_02_gradient_fidelity(criteria_log):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = build_mlp((3, 5, 1), rng)  # one 5-unit hidden layer + linear output
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        mask = [bernoulli_mask(rng.random((8, 5)), 0.7)]

        def loss_fn(p):
            out, cache = mlp_forward(p, X, mask)
            residual = out[:, 0] - y
            grad_out = (2.0 * residual / len(y))[:, None]
            grads, _ = mlp_backward(p, cache, grad_out)
            return float(np.mean(residual**2)), grads

        worst = max(worst, grad_check(params, loss_fn))
    verdict(
        criteria_log,
        2,
        worst < 1e-4,
        "analytic gradients match central differences over 20 seeds",
        f"worst relative error={worst:.2e}",
    )


def test_criterion_03_alternating_phase_freezing(criteria_log):
    rng = np.random.default_rng(8)
    n, d = 60, 3
    X = rng.standard_normal((n, d))
    W = (rng.random(n) < 0.5).astype(int)
    W[:4] = [0, 1, 0, 1]  # both arms guaranteed non-empty
    Y = X @ np.array([1.0, -0.5, 0.25]) + W * 1.5 + rng.standard_normal(n)
    dataset = ObservationalDataset(X, W, Y)
    prop = constant_score_model(d, 0.5)
    config = TrainConfig(epochs=10, shared_widths=(16,), batch_size=16)

    snapshots = []
    train_dcn(
        dataset,
        prop,
        config,
        np.random.default_rng(5),
        on_epoch=lambda record, params: snapshots.append(
            (record.epoch, record.phase, copy.deepcopy(params))
        ),
    )
    init_rng = np.random.default_rng(5)
    previous = build_dcn(d, init_rng, config.shared_widths, config.head_widths)

    frozen_ok = shared_moves = True
    for epoch, phase, snap in snapshots:
        if phase == "control":  # odd epochs train head0; head1 must be untouched
            frozen_ok &= stacks_equal(snap.head1, previous.head1)
        else:  # even epochs train head1; head0 must be untouched
            frozen_ok &= stacks_equal(snap.head0, previous.head0)
        shared_moves &= not stacks_equal(snap.shared, previous.shared)
        previous = snap
    verdict(
        criteria_log,
        3,
        frozen_ok and shared_moves and len(snapshots) == 10,
        "inactive head bit-frozen each epoch while shared layers move",
        f"epochs={len(snapshots)}, frozen={frozen_ok}, shared_moves={shared_moves}",
    )


def stacks_equal(a, b) -> bool:
    return all(
        np.array_equal(x, y) for x, y in zip(a.parameter_arrays(), b.parameter_arrays())
    )


def constant_score_model(d: int, score: float) -> PropensityModel:
    """A propensity model whose prediction is `score` for every subject."""
    net = build_mlp((d, 1), np.random.default_rng(0))
    net.layers[0].W[:] = 0.0
    net.layers[0].b[:] = np.log(score / (1.0 - score)) if score != 0.5 else 0.0
    return PropensityModel(net, Standardization(np.zeros(d), np.ones(d)))


def test_criterion_04_monte_carlo_degeneracy(criteria_log):
    d = 4
    rng = np.random.default_rng(3)
    params = build_dcn(d, rng, (8, 8), ())
    prop = constant_score_model(d, 0.5)
    schedule = DropoutSchedule(1.0)  # balanced score -> dropout 0 -> keep 1
    x = rng.standard_normal(d)
    stds = [
        estimate_ite(params, prop, schedule, x, n_samples=m, rng=np.random.default_rng(m)).std
        for m in (1, 3, 50)
    ]
    verdict(
        criteria_log,
        4,
        all(s == 0.0 for s in stds),
        "balanced score under full-strength schedule gives zero sample spread",
        f"stds={stds}",
    )


def brute_force_knn_ite(train: ObservationalDataset, x: np.ndarray, k: int) -> float:
    def group_mean(w: int) -> float:
        scored = sorted(
            (float(np.sqrt(np.sum((train.X[i] - x) ** 2))), i)
            for i in range(train.n)
            if train.W[i] == w
        )
        return sum(train.Y[i] for _, i in scored[:k]) / k

    return group_mean(1) - group_mean(0)


def test_criterion_05_matching_oracle_equivalence(criteria_log):
    rng = np.random.default_rng(12)
    mismatches = 0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(2 * k + 2, 201))
        d = int(rng.integers(1, 5))
        n_treated = int(rng.integers(k, n - k + 1))
        W = np.zeros(n, dtype=int)
        W[rng.permutation(n)[:n_treated]] = 1
        train = ObservationalDataset(
            rng.standard_normal((n, d)), W, rng.standard_normal(n)
        )
        for _ in range(3):
            x = rng.standard_normal(d)
            fast = knn_ite(train, x, KnnConfig(k))
            slow = brute_force_knn_ite(train, x, k)
            mismatches += fast != slow
    verdict(
        criteria_log,
        5,
        mismatches == 0,
        "matching estimator equals the exhaustive oracle on 50 random datasets",
        f"mismatches={mismatches}",
    )


def test_criterion_06_scheduled_beats_fixed_dropout(criteria_log, paired_benchmark):
    reports = paired_benchmark
    mean_pd = reports["dcn-pd"].mean_mse
    mean_02 = reports["dcn-fixed:0.2"].mean_mse
    mean_05 = reports["dcn-fixed:0.5"].mean_mse
    wins_02 = paired_wins(reports, "dcn-pd", "dcn-fixed:0.2")
    wins_05 = paired_wins(reports, "dcn-pd", "dcn-fixed:0.5")
    threshold = 0.6 * BENCHMARK_REPS
    passed = (
        mean_pd <= mean_02
        and mean_pd <= mean_05
        and wins_02 >= threshold
        and wins_05 >= threshold
    )
    verdict(
        criteria_log,
        6,
        passed,
        "scheduled dropout beats both fixed-rate variants on mean and paired wins",
        f"mean {mean_pd:.2f} vs {mean_02:.2f}/{mean_05:.2f}, "
        f"wins {wins_02}/{BENCHMARK_REPS} and {wins_05}/{BENCHMARK_REPS}",
    )


def test_criterion_07_ordering_against_baselines(criteria_log, paired_benchmark):
    reports = paired_benchmark
    mean_pd = reports["dcn-pd"].mean_mse
    mean_nn4 = reports["nn4"].mean_mse
    mean_knn = reports["knn:5"].mean_mse
    passed = mean_pd < mean_nn4 and mean_pd < mean_knn
    verdict(
        criteria_log,
        7,
        passed,
        "scheduled dropout beats the direct net and the matching baseline",
        f"mean {mean_pd:.2f} vs nn4 {mean_nn4:.2f} and knn:5 {mean_knn:.2f}",
    )


def test_criterion_08_noiseless_recovery(criteria_log):
    config = ExperimentConfig(
        model="dcn-pd",
        seed=2026,
        synthetic=SyntheticConfig(
            n=500, d=5, bias_strength=1.0, noise_std=0.0, surface="LinearOffset"
        ),
        train=TrainConfig(epochs=200),
        repetitions=1,
        propensity_epochs=300,
    )
    mse = run_experiment(config).per_rep_mse[0]
    verdict(
        criteria_log,
        8,
        mse < 0.25,
        "noiseless linear-offset effects recovered after 200 epochs",
        f"held-out effect MSE={mse:.4f} < 0.25",
    )


def test_criterion_09_end_to_end_determinism(criteria_log):
    config = ExperimentConfig(
        model="dcn-pd",
        seed=77,
        synthetic=SyntheticConfig(n=200, d=10, bias_strength=2.0, noise_std=1.0),
        train=TrainConfig(epochs=30, shared_widths=(64, 64)),
        repetitions=2,
        propensity_epochs=150,
        n_samples=50,
    )
    first = run_experiment(config).per_rep_mse
    second = run_experiment(config).per_rep_mse
    # 160 training rows in minibatches of 32 for 200 epochs: 1,000 steps per
    # repetition, so the run goes to worker processes; compare it with this
    # process running each repetition in turn
    pooled = replace(config, train=TrainConfig(epochs=200, shared_widths=(64, 64)))
    assert _train_steps(pooled, 200) >= POOL_MIN_STEPS
    pooled_mse = run_experiment(pooled).per_rep_mse
    serial_mse = [_run_repetition(pooled, r, None, None) for r in range(pooled.repetitions)]
    detail = f"{first} == {second}"
    if pooled_mse != serial_mse:
        detail += f"; pooled {pooled_mse} != in-process {serial_mse}"
    verdict(
        criteria_log,
        9,
        first == second and pooled_mse == serial_mse,
        "identical configs reproduce identical per-repetition MSE vectors",
        detail,
    )


def test_criterion_10_real_data_ordering(criteria_log):
    description = "real-data ordering across user-supplied realizations"
    ihdp_dir = os.environ.get("DCNPD_IHDP_DIR")
    if not ihdp_dir:
        skip_line(criteria_log, 10, description, "set DCNPD_IHDP_DIR to a directory of CSV realizations")
    files = sorted(Path(ihdp_dir).glob("*.csv"))
    if not files:
        skip_line(criteria_log, 10, description, f"no CSV files found in {ihdp_dir}")

    means = {}
    for model in ("dcn-pd", "nn4", "knn:5"):
        per_file = []
        for i, path in enumerate(files):
            config = ExperimentConfig(
                model=model,
                seed=1000 + i,
                csv_path=str(path),
                train=TrainConfig(),
                repetitions=1,
                propensity_epochs=300,
            )
            per_file.append(run_experiment(config).per_rep_mse[0])
        means[model] = float(np.mean(per_file))
    passed = means["dcn-pd"] < means["nn4"] and means["dcn-pd"] < means["knn:5"]
    verdict(
        criteria_log,
        10,
        passed,
        description,
        f"{len(files)} realizations, mean MSE dcn-pd {means['dcn-pd']:.3f} "
        f"vs nn4 {means['nn4']:.3f} and knn:5 {means['knn:5']:.3f}",
    )
