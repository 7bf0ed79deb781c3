"""Tests for the repeated-realization experiment layer."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dcnpd import cli, experiment, pool
from dcnpd.baselines import KnnConfig, knn_ite
from dcnpd.data import (
    ObservationalDataset,
    ParseError,
    ValidationError,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
    train_test_split,
)
from dcnpd.experiment import (
    MODELS,
    POOL_MIN_STEPS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    ite_mse,
    load_report,
    parse_model,
    predict_from_bundle,
    run_experiment,
    train_model_bundle,
)
from dcnpd.nn import DenseLayer, MLPParams
from dcnpd.training import TrainConfig


def quick_config(**overrides) -> ExperimentConfig:
    fields = dict(
        model="knn:3",
        seed=11,
        synthetic=SyntheticConfig(n=60, d=3, bias_strength=1.0, noise_std=0.5),
        repetitions=2,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestIteMse:
    def test_hand_computed_value(self):
        # errors (-1, -2) -> (1 + 4) / 2 = 2.5
        assert ite_mse(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 2.5

    def test_constant_shift_gives_shift_squared(self):
        truth = np.array([0.3, -1.2, 4.0, 0.0])
        assert ite_mse(truth + 0.5, truth) == pytest.approx(0.25, rel=1e-15)

    def test_perfect_prediction_is_zero(self):
        truth = np.array([1.0, 2.0, 3.0])
        assert ite_mse(truth.copy(), truth) == 0.0

    def test_rejects_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            ite_mse(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ite_mse(np.array([]), np.array([]))


class TestParseModel:
    def test_plain_tokens(self):
        assert parse_model("dcn-pd") == ("dcn-pd", None)
        assert parse_model("nn4") == ("nn4", None)

    def test_parameterized_tokens(self):
        assert parse_model("dcn-fixed:0.2") == ("dcn-fixed", 0.2)
        assert parse_model("knn:7") == ("knn", 7)

    @pytest.mark.parametrize(
        "token",
        ["", "dcn", "knn", "knn:0", "knn:2.5", "dcn-fixed", "dcn-fixed:1.0",
         "dcn-fixed:-0.1", "dcn-fixed:abc", "nn5", "KNN:5"],
    )
    def test_rejects_bad_tokens(self, token):
        with pytest.raises(ConfigError):
            parse_model(token)


class TestExperimentConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model="knn:3", seed=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="knn:3",
                seed=1,
                synthetic=SyntheticConfig(),
                csv_path="data.csv",
            )

    def test_validates_numeric_fields(self):
        with pytest.raises(ConfigError):
            quick_config(repetitions=0)
        for bad in ({"repetitions": 1.5}, {"n_samples": 2.5}, {"propensity_epochs": True}):
            with pytest.raises(ConfigError):
                quick_config(**bad)
        for seed in (-1, 1.5, "1"):
            with pytest.raises(ConfigError, match="seed"):
                quick_config(seed=seed)
        with pytest.raises(ConfigError):
            quick_config(train_fraction=1.0)
        with pytest.raises(ConfigError):
            quick_config(train_fraction=0.0)
        with pytest.raises(ConfigError):
            quick_config(n_samples=0)
        with pytest.raises(ConfigError):
            quick_config(propensity_epochs=0)

    def test_validates_model_token(self):
        with pytest.raises(ConfigError):
            quick_config(model="forest")

    def test_fixed_covariates_needs_synthetic_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                model="knn:3", seed=1, csv_path="data.csv", fixed_covariates=True
            )

    def test_dict_round_trip(self):
        config = quick_config(
            train=TrainConfig(epochs=7, shared_widths=(16, 8)),
            fixed_split=True,
            n_samples=17,
            out="some/report.json",
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        payload = quick_config().to_dict()
        payload["typo_field"] = 1
        with pytest.raises(ConfigError, match=r"unknown keys in the config: \['typo_field'\]"):
            ExperimentConfig.from_dict(payload)
        # the top-level seed is the only one: a block seed is an unknown key too
        for block in ("synthetic", "train"):
            payload = quick_config().to_dict()
            payload[block]["seed"] = 5
            message = rf"unknown keys in the {block} block: \['seed'\]"
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "override, field_name",
        [
            ({"propensity_arch": 5}, "propensity_arch"),
            ({"train": {"shared_widths": 5}}, "shared_widths"),
            ({"train": {"head_widths": "wide"}}, "head_widths"),
            ({"train": "x"}, "train"),
            ({"synthetic": [60, 3]}, "synthetic"),
        ],
        ids=["arch-int", "widths-int", "widths-str", "train-str", "synthetic-list"],
    )
    def test_from_dict_rejects_malformed_blocks(self, override, field_name):
        payload = quick_config().to_dict()
        payload.update(override)
        with pytest.raises(ConfigError, match=field_name):
            ExperimentConfig.from_dict(payload)

    def test_from_dict_requires_a_seed_not_a_model(self):
        payload = quick_config().to_dict()
        del payload["seed"]
        with pytest.raises(ConfigError, match="seed is required"):
            ExperimentConfig.from_dict(payload)
        # generate and evaluate read the same config, and fit no model
        payload = quick_config().to_dict()
        del payload["model"]
        assert ExperimentConfig.from_dict(payload) == quick_config(model=None)


def manual_knn_rep_mse(config: ExperimentConfig, r: int) -> float:
    """Independent re-derivation of one repetition from the documented streams."""

    def stream(*key):
        return np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=key))

    covariates = None
    if config.fixed_covariates:
        covariates = stream(0, 0).standard_normal(
            (config.synthetic.n, config.synthetic.d)
        )
    dataset = generate_synthetic(config.synthetic, stream(1, r, 0), covariates=covariates)
    split_rng = stream(0, 1) if config.fixed_split else stream(1, r, 1)
    train_set, test_set = train_test_split(dataset, config.train_fraction, split_rng)
    train_scaled, transform = standardize(train_set)
    k = int(config.model.split(":")[1])
    predictions = np.array(
        [knn_ite(train_scaled, row, KnnConfig(k)) for row in transform.transform(test_set.X)]
    )
    return ite_mse(predictions, test_set.true_ite)


class TestRunExperiment:
    def test_report_shape_and_aggregates(self):
        config = quick_config(repetitions=3)
        report = run_experiment(config)
        assert report.model == "knn:3"
        assert report.repetitions == 3
        assert len(report.per_rep_mse) == 3
        assert all(v >= 0.0 for v in report.per_rep_mse)
        assert report.config == config.to_dict()
        assert report.duration_seconds > 0.0
        values = np.array(report.per_rep_mse)
        assert math.isclose(report.mean_mse, float(values.mean()), rel_tol=1e-12)
        assert math.isclose(
            report.std_error,
            float(values.std(ddof=1) / math.sqrt(len(values))),
            rel_tol=1e-12,
        )

    def test_single_repetition_has_zero_std_error(self):
        report = run_experiment(quick_config(repetitions=1))
        assert report.std_error == 0.0
        assert report.mean_mse == report.per_rep_mse[0]

    def test_matches_manual_stream_derivation(self):
        config = quick_config(repetitions=2)
        report = run_experiment(config)
        assert report.per_rep_mse == [manual_knn_rep_mse(config, r) for r in range(2)]

    def test_fixed_covariates_matches_manual_derivation(self):
        config = quick_config(repetitions=2, fixed_covariates=True)
        report = run_experiment(config)
        assert report.per_rep_mse == [manual_knn_rep_mse(config, r) for r in range(2)]

    def test_adding_repetitions_keeps_earlier_results(self):
        short = run_experiment(quick_config(repetitions=2))
        long = run_experiment(quick_config(repetitions=4))
        assert long.per_rep_mse[:2] == short.per_rep_mse

    def test_identical_configs_are_deterministic_excluding_duration(self):
        config = quick_config(repetitions=2)
        a = run_experiment(config).to_dict()
        b = run_experiment(config).to_dict()
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_models_share_realizations_and_splits(self):
        # Paired comparison: data and split streams never depend on the model
        # token, so two models disagree only through their predictions.
        base = quick_config(repetitions=2, model="knn:3")
        other = quick_config(repetitions=2, model="knn:5")
        report_a = run_experiment(base)
        report_b = run_experiment(other)
        assert report_a.per_rep_mse == [manual_knn_rep_mse(base, r) for r in range(2)]
        assert report_b.per_rep_mse == [manual_knn_rep_mse(other, r) for r in range(2)]

    def test_csv_source_with_fixed_split_repeats_exactly(self, tmp_path):
        dataset = generate_synthetic(
            SyntheticConfig(n=60, d=3, bias_strength=1.0), np.random.default_rng(3)
        )
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        config = ExperimentConfig(
            model="knn:3", seed=5, csv_path=str(path), repetitions=3, fixed_split=True
        )
        report = run_experiment(config)
        assert report.per_rep_mse[0] == report.per_rep_mse[1] == report.per_rep_mse[2]

    def test_csv_source_without_fixed_split_varies(self, tmp_path):
        dataset = generate_synthetic(
            SyntheticConfig(n=60, d=3, bias_strength=1.0), np.random.default_rng(3)
        )
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        config = ExperimentConfig(
            model="knn:3", seed=5, csv_path=str(path), repetitions=3
        )
        report = run_experiment(config)
        assert len(set(report.per_rep_mse)) > 1

    def test_csv_without_ground_truth_is_config_error(self, tmp_path):
        rng = np.random.default_rng(0)
        dataset = ObservationalDataset(
            rng.standard_normal((20, 2)),
            np.array([0, 1] * 10),
            rng.standard_normal(20),
        )
        path = tmp_path / "plain.csv"
        save_csv(dataset, path)
        with pytest.raises(ConfigError):
            run_experiment(
                ExperimentConfig(model="knn:3", seed=5, csv_path=str(path))
            )

    @pytest.mark.parametrize("model", ["knn:3", "dcn-fixed:0.2"])
    def test_csv_directory_repetition_equals_single_file_run(self, tmp_path, model):
        # Repetition r of a directory run reads the r-th sorted CSV under the
        # streams (seed, 1, r, .), exactly as repetition r of a one-file run.
        for i in range(4):
            dataset = generate_synthetic(
                SyntheticConfig(n=40, d=3, bias_strength=1.0), np.random.default_rng(i)
            )
            save_csv(dataset, tmp_path / f"realization_{i}.csv")
        (tmp_path / "notes.txt").write_text("not a realization", encoding="utf-8")
        tiny = dict(train=TrainConfig(epochs=2, shared_widths=(6,), batch_size=8), seed=5)
        report = run_experiment(
            ExperimentConfig(model=model, csv_path=str(tmp_path), repetitions=3, **tiny)
        )
        for r in range(3):
            single = ExperimentConfig(
                model=model, csv_path=str(tmp_path / f"realization_{r}.csv"),
                repetitions=r + 1, **tiny,
            )
            assert report.per_rep_mse[r] == run_experiment(single).per_rep_mse[r]

    @pytest.mark.parametrize("files", [0, 1])
    def test_csv_directory_with_too_few_files_is_config_error(self, tmp_path, files):
        for i in range(files):
            dataset = generate_synthetic(SyntheticConfig(n=20, d=2), np.random.default_rng(i))
            save_csv(dataset, tmp_path / f"realization_{i}.csv")
        config = ExperimentConfig(model="knn:3", seed=5, csv_path=str(tmp_path), repetitions=2)
        with pytest.raises(ConfigError, match=f"holds {files} CSV files"):
            run_experiment(config)

    def test_csv_directory_file_without_ground_truth_is_config_error(self, tmp_path):
        rng = np.random.default_rng(0)
        save_csv(generate_synthetic(SyntheticConfig(n=20, d=2), rng), tmp_path / "a.csv")
        plain = ObservationalDataset(
            rng.standard_normal((20, 2)), np.array([0, 1] * 10), rng.standard_normal(20)
        )
        save_csv(plain, tmp_path / "b.csv")
        config = ExperimentConfig(model="knn:3", seed=5, csv_path=str(tmp_path), repetitions=2)
        with pytest.raises(ConfigError, match="b.csv must carry mu0 and mu1"):
            run_experiment(config)

    def test_repetition_failure_is_wrapped_with_index(self):
        # 10 rows -> 8 train rows; one arm is always smaller than k=7.
        config = quick_config(
            model="knn:7",
            synthetic=SyntheticConfig(n=10, d=2, bias_strength=0.0),
            repetitions=1,
        )
        with pytest.raises(RuntimeError, match="repetition 0"):
            run_experiment(config)

    def test_neural_models_smoke(self):
        tiny_train = TrainConfig(epochs=2, shared_widths=(6,), batch_size=8)
        for model in ("dcn-pd", "dcn-fixed:0.2", "nn4"):
            config = quick_config(
                model=model,
                synthetic=SyntheticConfig(n=30, d=2, bias_strength=1.0),
                repetitions=1,
                train=tiny_train,
                propensity_epochs=5,
                propensity_arch=(4,),
                n_samples=3,
            )
            report = run_experiment(config)
            assert len(report.per_rep_mse) == 1
            assert math.isfinite(report.per_rep_mse[0])


def pooled_config(**overrides) -> ExperimentConfig:
    """A small net that trains long enough per repetition to run in worker processes."""
    # 40 rows: 32 training rows, one minibatch per epoch
    fields = dict(
        model="dcn-pd",
        seed=7,
        synthetic=SyntheticConfig(n=40, d=3, bias_strength=1.0),
        train=TrainConfig(epochs=POOL_MIN_STEPS, shared_widths=(8,)),
        repetitions=3,
        propensity_epochs=10,
        propensity_arch=(4,),
        n_samples=4,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def in_process(config: ExperimentConfig, bases) -> list[float]:
    """The serial loop: each repetition run by this process, one after another."""
    return [experiment._run_repetition(config, r, base, None) for r, base in enumerate(bases)]


def refuse_in_process(monkeypatch):
    """Make any repetition run by this process fail, so a passing run was pooled."""

    def refuse(*job):
        raise AssertionError("repetition ran in-process")

    monkeypatch.setattr(experiment, "_run_repetition", refuse)


def write_realizations(folder: Path, count: int) -> list[Path]:
    paths = []
    for i in range(count):
        config = SyntheticConfig(n=40, d=3, bias_strength=1.0)
        ds = generate_synthetic(config, np.random.default_rng(i))
        paths.append(folder / f"realization_{i}.csv")
        save_csv(ds, paths[-1])
    return paths


POOL_SCRIPT = """
import json, os, sys
from dcnpd import experiment, pool
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
report = experiment.run_experiment(experiment.ExperimentConfig.from_dict(json.loads(sys.argv[2])))
print(json.dumps({
    "per_rep_mse": report.per_rep_mse,
    "cpus": len(os.sched_getaffinity(0)),
    "workers": [worker.proc.pid for worker in pool._live],
}))
"""


def script_env() -> dict:
    """This environment, with the package under test first on PYTHONPATH."""
    src = str(Path(experiment.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_pool_script(config: ExperimentConfig, mode: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT, mode, json.dumps(config.to_dict())],
        env=script_env(), capture_output=True, text=True, timeout=300, check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


# prints the worker PIDs once every worker is busy, then waits to be interrupted
INTERRUPT_SCRIPT = """
import json, os, signal, sys, threading, time
from dcnpd import experiment, pool
signal.signal(signal.SIGINT, signal.default_int_handler)  # even if started with it ignored
config = experiment.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
def report():
    deadline = time.monotonic() + 60
    busy = min(config.repetitions, len(os.sched_getaffinity(0)))
    while len(pool._live) - len(pool._idle) < busy and time.monotonic() < deadline:
        time.sleep(0.01)
    print(json.dumps([w.proc.pid for w in list(pool._live)]), flush=True)
threading.Thread(target=report, daemon=True).start()
experiment.run_experiment(config)
"""


def ignores_sigint(pid: int) -> bool:
    """Whether the process ignores SIGINT, read from its SigIgn mask (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        mask = next(line for line in fh if line.startswith("SigIgn:")).split()[1]
    return bool(int(mask, 16) >> (signal.SIGINT - 1) & 1)


def interrupt_pooled_run(group: bool) -> str:
    """SIGINT a pooled run once its workers are busy; check it stops promptly; return its stderr.

    With ``group`` the signal goes to the script's whole process group, as a
    terminal's Ctrl-C does, once every worker serves its job and ignores SIGINT.
    """
    config = pooled_config(repetitions=2, train=TrainConfig(epochs=200_000, shared_widths=(8,)))
    script = subprocess.Popen(
        [sys.executable, "-c", INTERRUPT_SCRIPT, json.dumps(config.to_dict())],
        env=script_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,  # so the interrupt reaches the script's processes alone
    )
    try:
        workers = json.loads(script.stdout.readline())
        deadline = time.monotonic() + 10
        while group and not all(map(ignores_sigint, workers)):
            assert time.monotonic() < deadline, "a worker does not ignore SIGINT"
            time.sleep(0.01)
        start = time.monotonic()
        if group:
            os.killpg(script.pid, signal.SIGINT)
        else:
            script.send_signal(signal.SIGINT)
        _, stderr = script.communicate(timeout=60)
        elapsed = time.monotonic() - start
    finally:
        try:  # whatever happened, leave no process of the script's session behind
            os.killpg(script.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        script.communicate()
    assert len(workers) == min(2, len(os.sched_getaffinity(0)))
    assert elapsed < 3
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return stderr


def write_arms(folder: Path, files: list[tuple[str, int]]) -> None:
    """One CSV per (kind, rows) in sorted-name order; kinds are ok, all-control and no-truth."""
    for i, (kind, n) in enumerate(files):
        config = SyntheticConfig(n=n, d=3, bias_strength=1.0)
        ds = generate_synthetic(config, np.random.default_rng(i))
        if kind == "all-control":
            ds = ObservationalDataset(ds.X, np.zeros(n, dtype=int), ds.Y, ds.mu0, ds.mu1)
        elif kind == "no-truth":
            ds = ObservationalDataset(ds.X, ds.W, ds.Y)
        save_csv(ds, folder / f"r{i}.csv")


class TestWorkerPool:
    @pytest.mark.parametrize("source", ["synthetic", "csv-file", "csv-directory"])
    def test_pooled_run_equals_in_process_loop_bitwise(self, tmp_path, monkeypatch, source):
        paths = write_realizations(tmp_path, 3)
        if source == "synthetic":
            config, bases = pooled_config(), [None] * 3
        elif source == "csv-file":
            config = pooled_config(synthetic=None, csv_path=str(paths[0]))
            bases = [load_csv(paths[0])] * 3
        else:
            config = pooled_config(synthetic=None, csv_path=str(tmp_path))
            bases = [load_csv(path) for path in paths]
        expected = in_process(config, bases)
        refuse_in_process(monkeypatch)
        assert run_experiment(config).per_rep_mse == expected
        assert run_experiment(config).per_rep_mse == expected  # reused workers

    def test_a_directory_run_holds_few_loaded_realizations(self, tmp_path, monkeypatch):
        write_realizations(tmp_path, 8)
        loaded, counts = [], []

        def load(path):
            loaded.append(weakref.ref(dataset := load_csv(path)))
            counts.append(sum(ref() is not None for ref in loaded))
            return dataset

        monkeypatch.setattr(experiment, "load_csv", load)
        run_experiment(pooled_config(synthetic=None, csv_path=str(tmp_path), repetitions=8))
        assert len(counts) == 8
        assert max(counts) <= 2  # the current realization and the previous one

    @pytest.mark.parametrize("model, reps", [("dcn-fixed:0.2", 2), ("nn4", 1)])
    def test_other_neural_models_pool_bitwise(self, monkeypatch, model, reps):
        config = pooled_config(model=model, repetitions=reps)
        expected = in_process(config, [None] * reps)
        refuse_in_process(monkeypatch)
        assert run_experiment(config).per_rep_mse == expected

    def test_short_repetitions_stay_in_process(self, monkeypatch):
        config = pooled_config(train=TrainConfig(epochs=POOL_MIN_STEPS - 1, shared_widths=(8,)))
        assert experiment._train_steps(config, 40) == POOL_MIN_STEPS - 1
        refuse_in_process(monkeypatch)
        with pytest.raises(RuntimeError, match="repetition 0 failed: repetition ran in-process"):
            run_experiment(config)

    def test_one_cpu_gives_the_same_results(self):
        config = pooled_config(repetitions=2)
        pinned = run_pool_script(config, "pinned")
        free = run_pool_script(config, "free")
        assert pinned["cpus"] == 1 and len(pinned["workers"]) == 1
        assert pinned["per_rep_mse"] == free["per_rep_mse"]

    def test_no_worker_outlives_the_interpreter(self):
        workers = run_pool_script(pooled_config(repetitions=2), "free")["workers"]
        assert workers
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_killed_workers_fail_one_call_then_are_replaced(self):
        config = pooled_config(repetitions=2)
        expected = run_experiment(config).per_rep_mse
        killed = list(pool._idle)
        assert killed
        for worker in killed:
            os.kill(worker.proc.pid, signal.SIGKILL)
        # one repetition meets one dead worker; the others must not reach the next call
        with pytest.raises(RuntimeError, match=r"repetition 0 failed: worker process lost"):
            run_experiment(replace(config, repetitions=1))
        assert not set(killed) & pool._live
        assert run_experiment(config).per_rep_mse == expected

    def test_worker_error_keeps_its_type_and_traceback(self):
        config = pooled_config(train=TrainConfig(epochs=POOL_MIN_STEPS, learning_rate=1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow on the way
            with pytest.raises(RuntimeError, match=r"repetition 0 failed: epoch \d") as err:
                run_experiment(config)
        cause = err.value.__cause__
        assert type(cause) is FloatingPointError
        assert "in fit_phases" in str(cause.__cause__)  # the worker's traceback text

    @pytest.mark.parametrize(
        "job_error, raised",
        [("bad-model", ConfigError), ("bad-covariates", RuntimeError)],
    )
    def test_error_types_survive_the_worker(self, job_error, raised):
        config = pooled_config()
        covariates = None
        if job_error == "bad-model":
            object.__setattr__(config, "model", 5)  # parse_model raises in the worker
        else:
            covariates = np.zeros((1, 1))  # generate_synthetic rejects their shape
        worker = pool._Worker()
        try:
            worker.start("dcnpd.experiment", "_run_repetition", config, 0, None, covariates)
            with pytest.raises(Exception) as err:
                worker.result()
        finally:
            worker.close()
        error = experiment._failure(0, err.value)
        assert type(error) is raised
        if raised is RuntimeError:
            assert str(error).startswith("repetition 0 failed: covariates must have shape")
            assert type(error.__cause__) is ValidationError
        assert "Traceback" in str(
            (error.__cause__ if raised is RuntimeError else error).__cause__
        )

    @pytest.mark.parametrize(
        "epochs, files, raised, message",
        [
            # 40 rows train one step per epoch: every repetition is pooled
            (POOL_MIN_STEPS, [("ok", 40), ("all-control", 40), ("ok", 40), ("no-truth", 40)],
             RuntimeError, "repetition 1 failed: training needs both"),
            (POOL_MIN_STEPS, [("ok", 40), ("no-truth", 40), ("all-control", 40), ("ok", 40)],
             ConfigError, "r1.csv must carry mu0 and mu1"),
            # 500 epochs: 40 rows run here (500 steps), 80 rows are pooled (1,000 steps);
            # repetition 1 fails here, as a rule before the pooled repetition 0 replies
            (500, [("all-control", 80), ("all-control", 40), ("ok", 80)],
             RuntimeError, "repetition 0 failed: training needs both"),
            (500, [("ok", 80), ("all-control", 40), ("all-control", 80), ("ok", 40)],
             RuntimeError, "repetition 1 failed: training needs both"),
        ],
    )
    def test_lowest_failing_repetition_is_raised(self, tmp_path, epochs, files, raised, message):
        write_arms(tmp_path, files)
        config = ExperimentConfig(
            model="dcn-fixed:0.2", seed=3, csv_path=str(tmp_path), repetitions=len(files),
            train=TrainConfig(epochs=epochs, shared_widths=(8,)),
        )
        with pytest.raises(raised, match=message):
            run_experiment(config)

    @pytest.mark.parametrize("epochs", [POOL_MIN_STEPS, 2])  # pooled, short
    def test_a_load_error_is_raised_as_is(self, tmp_path, capsys, epochs):
        write_arms(tmp_path, [("ok", 40)] * 3)
        lines = (tmp_path / "r1.csv").read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        cells[3 + 1] = "x"  # data row 2's y: three features, then w and y
        lines[2] = ",".join(cells)
        (tmp_path / "r1.csv").write_text("".join(lines))
        message = "row 2, column 'y': not a number: 'x'"
        config = ExperimentConfig(
            model="dcn-fixed:0.2", seed=3, csv_path=str(tmp_path), repetitions=3,
            train=TrainConfig(epochs=epochs, shared_widths=(8,)),
        )
        with pytest.raises(ParseError) as err:
            run_experiment(config)
        assert str(err.value) == message
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        capsys.readouterr()
        assert cli.main(["benchmark", "--config", str(path), "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_interrupt_stops_a_pooled_run_promptly(self):
        assert "KeyboardInterrupt" in interrupt_pooled_run(group=False)

    def test_ctrl_c_to_the_process_group_prints_one_traceback(self):
        stderr = interrupt_pooled_run(group=True)  # the script's and its workers' stderr
        assert stderr.count("KeyboardInterrupt") == 1, stderr

    def test_a_pooled_run_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("a thread was started")

        config = pooled_config(repetitions=2)
        expected = in_process(config, [None] * 2)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        refuse_in_process(monkeypatch)
        assert run_experiment(config).per_rep_mse == expected

    def test_worker_warnings_meet_this_process_filters(self, tmp_path):
        # features near 1e200 overflow in standardize's variance: a RuntimeWarning
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        X[:, 0] *= 1e200
        W, Y = np.arange(40) % 2, rng.standard_normal(40)
        ds = ObservationalDataset(X, W, Y, np.zeros(40), np.ones(40))
        save_csv(ds, tmp_path / "wide.csv")
        pooled = pooled_config(synthetic=None, csv_path=str(tmp_path / "wide.csv"), repetitions=1)
        short = pooled_config(
            synthetic=None, csv_path=str(tmp_path / "wide.csv"), repetitions=1,
            train=TrainConfig(epochs=2, shared_widths=(8,)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError) as here:
                run_experiment(short)
            with pytest.raises(RuntimeError) as pooled_error:
                run_experiment(pooled)
        assert str(pooled_error.value) == str(here.value)
        assert type(pooled_error.value.__cause__) is RuntimeWarning


def test_pool_and_distance_block_tests_pass_pinned_to_one_cpu():
    # on one CPU a repetition takes one worker, so each waits for the one before
    # it to reply, one k-NN span, so the calling thread computes every distance, no
    # CSV worker, so the calling process formats every block of a write, and one
    # Monte Carlo span, drawn in the calling process with the same bits; the jobs
    # of `pool.ordered`'s own tests share the CPU with the process that sends them
    tests = Path(__file__).resolve().parent
    cpu = min(os.sched_getaffinity(0))
    names = ("experiment", "baselines", "data", "dcn", "pool")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / f"test_{name}.py") for name in names),
         "-k", "TestWorkerPool or TestKnnRowBlocks or TestCsvRowBlocks or TestPooledDraws"
               " or TestOrdered"],
        cwd=tests.parent, env=script_env(), preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True, text=True, check=False, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr


def test_mask_monte_carlo_and_training_tests_pass_on_one_blas_thread():
    # stacked Monte Carlo passes match per-draw passes only if a (c, n, d) matmul
    # gives each item the bits of a 2-D one at this thread count too; pooled
    # repetitions train on one BLAS thread, where steps on reused buffers must
    # still match the written-out reference loops
    tests = Path(__file__).resolve().parent
    one_thread = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(tests / name) for name in ("test_nn.py", "test_dcn.py", "test_training.py"))],
        cwd=tests.parent, env={**script_env(), **one_thread},
        capture_output=True, text=True, check=False, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr


class TestEmitReport:
    def test_round_trip_recovers_values_exactly(self, tmp_path):
        report = run_experiment(quick_config(repetitions=3))
        path = tmp_path / "nested" / "dir" / "report.json"
        emit_report(report, path)
        loaded = load_report(path)
        assert loaded.per_rep_mse == report.per_rep_mse
        assert loaded.mean_mse == report.mean_mse
        assert loaded.std_error == report.std_error
        assert loaded.schema_version == report.schema_version
        assert loaded.config == report.config

    def test_csv_has_one_row_per_repetition(self, tmp_path):
        report = run_experiment(quick_config(repetitions=3))
        path = tmp_path / "report.json"
        emit_report(report, path)
        lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert lines[0] == "schema_version,repetition,ite_mse"
        assert len(lines) == 4
        for r, line in enumerate(lines[1:]):
            version, index, value = line.split(",")
            assert int(version) == report.schema_version
            assert int(index) == r
            assert float(value) == report.per_rep_mse[r]

    def test_json_carries_schema_version(self, tmp_path):
        report = run_experiment(quick_config(repetitions=1))
        path = tmp_path / "report.json"
        emit_report(report, path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1

    def test_report_dict_round_trip(self):
        report = run_experiment(quick_config(repetitions=2))
        assert ExperimentReport.from_dict(report.to_dict()) == report


HEADER_KEYS = {"schema_version", "kind", "standardization"}
LEGACY_BUNDLE = Path(__file__).parent / "data" / "legacy_dcn_pd_bundle.json"
WIDE = {"mean": [0.0, 0.0, 0.0], "std": [1.0, 1.0, 1.0]}
BUNDLE_KEYS = {
    "dcn-pd": HEADER_KEYS | {"gamma", "n_samples", "propensity", "dcn"},
    "dcn-fixed": HEADER_KEYS | {"dropout_prob", "dcn"},
    "nn4": HEADER_KEYS | {"net"},
    "knn": HEADER_KEYS | {"k", "x", "w", "y"},
}


# what `test_every_field_replaced_predicts_finite_effects_or_exits_2` puts in each field
FIELD_VALUES = (5, "x", None, [], {}, math.nan, math.inf, -math.inf, -1, 0, 2.5, True, 1e308)


def field_paths(value, path=()):
    """The path of every field under ``value``, into the first two entries of each list."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value[:2])
    else:
        return
    for key, child in children:
        yield (*path, key)
        yield from field_paths(child, (*path, key))


def with_field(value, path, new):
    """A copy of ``value`` with the field at ``path`` set to ``new``; ``value`` is not edited."""
    if not path:
        return new
    head, *rest = path
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[head] = with_field(value[head], rest, new)
    return copy


def tiny_bundle_config(model: str) -> ExperimentConfig:
    return quick_config(
        model=model,
        synthetic=SyntheticConfig(n=30, d=2, bias_strength=1.0),
        repetitions=1,
        train=TrainConfig(epochs=2, shared_widths=(6,), batch_size=8),
        propensity_epochs=5,
        propensity_arch=(4,),
        n_samples=3,
    )


def fit_like_bundle(config: ExperimentConfig):
    """The in-memory model and transform that `train_model_bundle` serializes."""
    full = generate_synthetic(
        config.synthetic,
        np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, 0, 0))),
    )
    scaled, transform = standardize(full)
    kind, value = parse_model(config.model)
    train_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, 0, 2)))
    return MODELS[kind].fit(scaled, config, value, train_rng), transform


def assert_bundle_matches_fitted_model(config, bundle, X_new):
    """Same fields as the fitted object, and bit-identical predictions."""
    model, transform = fit_like_bundle(config)
    assert json.loads(json.dumps(model.to_dict())) == {
        key: value for key, value in bundle.items() if key not in HEADER_KEYS
    }
    fresh = model.predict_ite(transform.transform(X_new), np.random.default_rng(5))
    loaded = predict_from_bundle(bundle, X_new, rng=np.random.default_rng(5))
    assert loaded.tobytes() == fresh.tobytes()


@pytest.fixture(scope="module")
def tiny_bundles():
    return {
        kind: json.loads(json.dumps(train_model_bundle(tiny_bundle_config(model))))
        for kind, model in (
            ("dcn-pd", "dcn-pd"),
            ("dcn-fixed", "dcn-fixed:0.3"),
            ("nn4", "nn4"),
            ("knn", "knn:3"),
        )
    }


class TestModelBundles:
    def test_knn_bundle_predicts_like_direct_knn(self):
        config = quick_config(model="knn:3", repetitions=1)
        bundle = json.loads(json.dumps(train_model_bundle(config)))
        assert set(bundle) == BUNDLE_KEYS["knn"]
        rng = np.random.default_rng(99)
        X_new = rng.standard_normal((5, 3))
        predictions = predict_from_bundle(bundle, X_new, np.random.default_rng(0))
        full = generate_synthetic(
            config.synthetic,
            np.random.default_rng(np.random.SeedSequence(11, spawn_key=(1, 0, 0))),
        )
        scaled, transform = standardize(full)
        expected = np.array(
            [knn_ite(scaled, row, KnnConfig(3)) for row in transform.transform(X_new)]
        )
        np.testing.assert_array_equal(predictions, expected)
        assert_bundle_matches_fitted_model(config, bundle, X_new)

    def test_neural_bundles_round_trip_through_json(self):
        X_new = np.random.default_rng(7).standard_normal((4, 2))
        for model in ("dcn-pd", "dcn-fixed:0.3", "nn4"):
            config = tiny_bundle_config(model)
            bundle = json.loads(json.dumps(train_model_bundle(config)))
            assert bundle["schema_version"] == 2
            assert set(bundle) == BUNDLE_KEYS[parse_model(model)[0]]
            rng = np.random.default_rng(5)
            predictions = predict_from_bundle(bundle, X_new, rng=rng)
            assert predictions.shape == (4,)
            assert np.all(np.isfinite(predictions))
            if model != "dcn-pd":  # deterministic predictors ignore the stream
                repeat = predict_from_bundle(bundle, X_new, np.random.default_rng(6))
                np.testing.assert_array_equal(predictions, repeat)
            else:  # Monte Carlo: same stream, same answer
                repeat = predict_from_bundle(bundle, X_new, rng=np.random.default_rng(5))
                np.testing.assert_array_equal(predictions, repeat)
            assert_bundle_matches_fitted_model(config, bundle, X_new)

    @pytest.mark.parametrize("kind", ["oracle", [], {}], ids=repr)
    def test_unknown_bundle_kind_rejected(self, kind):
        with pytest.raises(ConfigError, match="unknown bundle kind"):
            predict_from_bundle(
                {
                    "schema_version": 1,
                    "kind": kind,
                    "standardization": {"mean": [0.0], "std": [1.0]},
                },
                np.zeros((1, 1)),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize(
        "kind, key",
        [(kind, key) for kind, keys in BUNDLE_KEYS.items()
         for key in sorted(keys - {"schema_version", "kind"})],
    )
    def test_bundle_missing_field_rejected(self, tiny_bundles, kind, key):
        bundle = dict(tiny_bundles[kind])
        del bundle[key]
        with pytest.raises(ConfigError, match=f"{kind} bundle .*'{key}'"):
            predict_from_bundle(bundle, np.zeros((1, 2)), rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "kind, key, value",
        [("knn", "k", 0), ("knn", "k", None), ("dcn-pd", "gamma", 1.5), ("knn", "k", 2.7),
         ("dcn-pd", "n_samples", 2.5), ("dcn-pd", "n_samples", True),
         ("knn", "standardization", {"mean": [0.0, 0.0], "std": [1.0, math.inf]})]
        # a standardization 3 wide on models fitted to 2 features
        + [(kind, "standardization", WIDE) for kind in BUNDLE_KEYS],
    )
    def test_bundle_invalid_field_rejected(self, tiny_bundles, kind, key, value):
        bundle = {**tiny_bundles[kind], key: value}
        with pytest.raises(ConfigError, match=f"{kind} bundle"):
            predict_from_bundle(bundle, np.zeros((1, 2)), rng=np.random.default_rng(0))

    def test_dcn_pd_bundle_writes_gamma_once(self, tiny_bundles):
        bundle = tiny_bundles["dcn-pd"]
        assert set(bundle) == BUNDLE_KEYS["dcn-pd"]
        assert set(bundle["propensity"]) == {"net", "standardization"}

    def test_legacy_dcn_pd_bundle_predicts_its_recorded_bits(self):
        # written before gamma left the propensity block, which repeats it
        saved = json.loads(LEGACY_BUNDLE.read_text())
        bundle = saved["bundle"]
        assert bundle["propensity"]["gamma"] == bundle["gamma"] == 0.7
        rng = np.random.default_rng(saved["seed"])
        predictions = predict_from_bundle(bundle, np.array(saved["X"]), rng)
        assert predictions.tobytes() == np.array(saved["predictions"]).tobytes()

    def test_upgrade_gives_a_version_1_bundle_the_version_2_layout(self, tiny_bundles):
        bundle = json.loads(LEGACY_BUNDLE.read_text())["bundle"]
        before = json.dumps(bundle)
        upgraded = experiment._upgrade(bundle)
        assert json.dumps(bundle) == before  # a copy: the input is not edited
        assert upgraded["schema_version"] == 2
        assert set(upgraded) == BUNDLE_KEYS["dcn-pd"]
        assert set(upgraded["propensity"]) == set(tiny_bundles["dcn-pd"]["propensity"])
        layers = upgraded["propensity"]["net"]["layers"]
        assert [layer["activation"] for layer in layers] == ["relu", "identity"]

    def test_version_1_bundle_records_entropy_base_2_only(self):
        # a version-1 propensity block may record the entropy base, which was only ever 2
        saved = json.loads(LEGACY_BUNDLE.read_text())
        bundle, X = saved["bundle"], np.array(saved["X"])
        for base in (2, 10):
            edited = {**bundle, "propensity": {**bundle["propensity"], "entropy_base": base}}
            rng = np.random.default_rng(saved["seed"])
            if base == 2:
                predictions = predict_from_bundle(edited, X, rng)
                assert predictions.tobytes() == np.array(saved["predictions"]).tobytes()
            else:
                with pytest.raises(ConfigError, match="dcn-pd bundle .*entropy_base must be 2"):
                    predict_from_bundle(edited, X, rng)

    def test_version_1_net_ending_in_sigmoid_reads_as_the_same_logit_net(self, tiny_bundles):
        # version-1 propensity nets end in "sigmoid" over the logits that version 2 ends in
        bundle = tiny_bundles["dcn-pd"]
        older = json.loads(json.dumps(bundle))  # a deep copy
        older["schema_version"] = 1
        older["propensity"]["net"]["layers"][-1]["activation"] = "sigmoid"
        before = json.dumps(older)
        X = np.random.default_rng(19).normal(size=(7, 2))
        predictions = predict_from_bundle(older, X, np.random.default_rng(5))
        assert json.dumps(older) == before  # not edited in place
        expected = predict_from_bundle(bundle, X, np.random.default_rng(5))
        assert predictions.tobytes() == expected.tobytes()
        # version 2 knows the logit net only
        with pytest.raises(ConfigError, match="unknown activation 'sigmoid'"):
            predict_from_bundle({**older, "schema_version": 2}, X, np.random.default_rng(5))

    @pytest.mark.parametrize("version", [1, 2])
    def test_every_field_replaced_predicts_finite_effects_or_exits_2(self, tiny_bundles, version):
        # the legacy fixture (version 1), or a new bundle; any other outcome,
        # a RuntimeWarning included, fails the test
        if version == 1:
            saved = json.loads(LEGACY_BUNDLE.read_text())
            bundle, X = saved["bundle"], np.array(saved["X"])
        else:
            bundle, X = tiny_bundles["dcn-pd"], np.random.default_rng(8).normal(size=(4, 2))
        for path in field_paths(bundle):
            for value in FIELD_VALUES:
                try:
                    edited = with_field(bundle, path, value)
                    predictions = predict_from_bundle(edited, X, np.random.default_rng(0))
                except ConfigError:
                    continue
                except Exception as e:
                    pytest.fail(f"{path} = {value!r}: {type(e).__name__}: {e}")
                assert np.isfinite(predictions).all(), (path, value)

    def test_dcn_pd_bundle_propensity_net_ends_in_logits(self, tiny_bundles):
        layers = tiny_bundles["dcn-pd"]["propensity"]["net"]["layers"]
        assert [layer["activation"] for layer in layers] == ["relu", "identity"]

    def test_parent_layout_dcn_pd_bundle_predicts_its_recorded_bits(self):
        # gamma only at the top level, and a propensity net that ends in "sigmoid"
        saved = json.loads(LEGACY_BUNDLE.read_text())
        bundle = saved["bundle"]
        del bundle["propensity"]["gamma"]
        assert bundle["propensity"]["net"]["layers"][-1]["activation"] == "sigmoid"
        rng = np.random.default_rng(saved["seed"])
        predictions = predict_from_bundle(bundle, np.array(saved["X"]), rng)
        assert predictions.tobytes() == np.array(saved["predictions"]).tobytes()

    def test_legacy_dcn_pd_bundle_with_two_gammas_rejected(self):
        bundle = json.loads(LEGACY_BUNDLE.read_text())["bundle"]
        for edit in [{"gamma": 0.5}, {"propensity": {**bundle["propensity"], "gamma": 0.5}}]:
            with pytest.raises(ConfigError, match="dcn-pd bundle .*differs from propensity.gamma"):
                predict_from_bundle({**bundle, **edit}, np.zeros((1, 2)), np.random.default_rng(0))

    @pytest.mark.parametrize("key, bad", [("weights", math.nan), ("bias", -math.inf)])
    @pytest.mark.parametrize(
        "kind, net",
        [("dcn-pd", "dcn.shared"), ("dcn-pd", "propensity.net"), ("dcn-fixed", "dcn.head1"),
         ("nn4", "net")],
    )
    def test_bundle_with_a_nonfinite_weight_rejected(self, tiny_bundles, kind, net, key, bad):
        bundle = json.loads(json.dumps(tiny_bundles[kind]))  # a deep copy
        layer = bundle
        for name in net.split("."):
            layer = layer[name]
        layer = layer["layers"][0]
        if key == "weights":
            layer[key][0][0] = bad
        else:
            layer[key][0] = bad
        bundle = json.loads(json.dumps(bundle))  # json writes and reads NaN and Infinity
        with pytest.raises(ConfigError, match=f"{kind} bundle .*weights must be finite"):
            predict_from_bundle(bundle, np.zeros((1, 2)), rng=np.random.default_rng(0))

    def test_knn_with_an_arm_smaller_than_k_is_not_trained(self):
        with pytest.raises(ValueError, match=r"both groups need at least k=30 members \(treated"):
            train_model_bundle(tiny_bundle_config("knn:30"))

    def test_knn_bundle_with_an_arm_smaller_than_k_rejected(self, tiny_bundles):
        bundle = tiny_bundles["knn"]
        arm = min(sum(bundle["w"]), len(bundle["w"]) - sum(bundle["w"]))
        edits = [{"k": arm + 1}, {"w": [1] * len(bundle["w"])}]
        for edit in edits:
            with pytest.raises(ConfigError, match=f"knn bundle .*at least k={edit.get('k', 3)}"):
                predict_from_bundle({**bundle, **edit}, np.zeros((1, 2)), np.random.default_rng(0))
        # the largest k both arms can serve still answers
        predict_from_bundle({**bundle, "k": arm}, np.zeros((1, 2)), np.random.default_rng(0))

    def test_bundle_width_mismatch_names_both_widths(self, tiny_bundles):
        rng = np.random.default_rng(0)
        for kind in BUNDLE_KEYS:
            # data of another width than a consistent bundle's
            with pytest.raises(ConfigError, match=f"3 features; the {kind} bundle takes 2"):
                predict_from_bundle(tiny_bundles[kind], np.zeros((1, 3)), rng)
            bundle = {**tiny_bundles[kind], "standardization": WIDE}
            with pytest.raises(ConfigError, match="standardization width 3 .* width 2"):
                predict_from_bundle(bundle, np.zeros((1, 3)), rng)
        bundle = tiny_bundles["dcn-pd"]
        prop = {**bundle["propensity"], "standardization": WIDE}
        with pytest.raises(ConfigError, match="standardization width 3 .* width 2"):
            predict_from_bundle({**bundle, "propensity": prop}, np.zeros((1, 2)), rng)
        # a propensity model of its own width 3 against the 2-wide network
        net = MLPParams([DenseLayer(np.zeros((3, 1)), np.zeros(1), "identity")])
        prop = {**bundle["propensity"], "net": net.to_dict(), "standardization": WIDE}
        with pytest.raises(ConfigError, match="propensity width 3 .* width 2"):
            predict_from_bundle({**bundle, "propensity": prop}, np.zeros((1, 2)), rng)
