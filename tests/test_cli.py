"""Tests for the command-line interface: flags, exit codes, file outputs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dcnpd.cli import main
from dcnpd.data import ObservationalDataset, load_csv, save_csv
from dcnpd.experiment import ExperimentConfig, load_report


def write_config(tmp_path, name="config.json", **fields):
    payload = {
        "model": "knn:3",
        "seed": 7,
        "synthetic": {"n": 60, "d": 3, "bias_strength": 1.0, "noise_std": 0.5},
        "repetitions": 2,
    }
    payload.update(fields)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# a model token of each kind
ONE_PER_KIND = ("dcn-pd", "dcn-fixed:0.2", "nn4", "knn:3")
# a version-1 dcn-pd bundle, the rows it was queried with and the effects it predicted
LEGACY_BUNDLE = Path(__file__).parent / "data" / "legacy_dcn_pd_bundle.json"


def dcnpd(*argv):
    """``python -m dcnpd`` with ``argv`` in a child process."""
    command = [sys.executable, "-m", "dcnpd", *argv]
    return subprocess.run(command, capture_output=True, text=True, check=False, timeout=300)


class TestArgumentHandling:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--seed", "1", "--model", "bogus", "--reps", "9"],
            ["generate", "--seed", "1", "--reps", "9"],
            ["evaluate", "--seed", "1", "--model-file", "m.json", "--reps", "2"],
            # not an abbreviation of --model-file
            ["evaluate", "--seed", "1", "--model", "knn:3", "--model-file", "m.json"],
        ],
    )
    def test_experiment_flag_outside_train_and_benchmark_exits_2(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        code = main(["benchmark", "--model", "knn:3",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_model_is_config_error(self, tmp_path, capsys):
        code = main(["benchmark", "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "model" in capsys.readouterr().err

    def test_bad_model_token_is_config_error(self, tmp_path, capsys):
        code = main(["benchmark", "--seed", "1", "--model", "forest",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unreadable_config_file_is_config_error(self, tmp_path):
        assert main(["benchmark", "--config", str(tmp_path / "absent.json")]) == 2

    def test_invalid_json_config_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["benchmark", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"synthetic": {"n": 60, "d": 3, "seed": 5}}, "the synthetic block: ['seed']"),
            ({"train": {"seed": 5}}, "the train block: ['seed']"),
            ({"bogus": 1}, "the config: ['bogus']"),
            ({"train": {"epoch": 2}}, "the train block: ['epoch']"),
            # Adam's constants, even at the values it runs with
            ({"train": {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}},
             "the train block: ['beta1', 'beta2', 'epsilon']"),
            ({"csv_path": "data.csv"}, "exactly one dataset source: synthetic or csv_path"),
        ],
        ids=["synthetic", "train", "unknown-key", "unknown-block-key", "adam-constants",
             "two-sources"],
    )
    @pytest.mark.parametrize("command", ["generate", "train", "evaluate", "benchmark"])
    def test_seed_inside_a_block_exits_2(self, tmp_path, capsys, command, fields, message):
        # every command reads its config alike: a block seed is one more unknown key
        config = write_config(tmp_path, **fields)
        out = tmp_path / "out.json"
        args = [command, "--config", str(config), "--out", str(out)]
        if command == "evaluate":
            args += ["--model-file", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGenerate:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "data" / "synthetic.csv"
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
        dataset = load_csv(out)
        assert dataset.n == 60 and dataset.d == 3
        assert dataset.true_ite is not None
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert sidecar["seed"] == 7
        assert sidecar["synthetic"]["n"] == 60
        written = ExperimentConfig.from_dict(json.loads(config.read_text())).to_dict()
        assert sidecar["synthetic"] == written["synthetic"]
        assert "seed" not in sidecar["synthetic"]  # the top-level seed is the only one
        assert str(out) in capsys.readouterr().out

    def test_same_seed_regenerates_identical_csv(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["generate", "--config", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["generate", "--config", str(config), "--seed", "8",
                     "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()

    def test_rejects_csv_path(self, tmp_path, capsys):
        config = write_config(tmp_path, csv_path="data.csv", synthetic=None)
        out = tmp_path / "d.csv"
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        assert "csv_path" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_seed(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"synthetic": {"n": 20, "d": 2}}))
        assert main(["generate", "--config", str(config),
                     "--out", str(tmp_path / "d.csv")]) == 2

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    @pytest.mark.parametrize("seed", [1.7, -1, "1", True], ids=["float", "negative", "str", "bool"])
    def test_bad_seed_exits_2(self, tmp_path, capsys, command, seed):
        config = write_config(tmp_path, seed=seed)
        out = tmp_path / "d.csv"
        args = [command, "--config", str(config), "--out", str(out)]
        if command == "evaluate":
            args += ["--model-file", str(tmp_path / "m.json")]
        assert main(args) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not out.exists()


# object-valued fields of each bundle kind, and the nets whose layer lists they hold
BUNDLE_BLOCKS = {
    "dcn-pd": ["propensity", "propensity.net", "propensity.standardization", "dcn",
               "standardization"],
    "dcn-fixed": ["dcn", "standardization"],
    "nn4": ["net", "standardization"],
    "knn": ["standardization"],
}
BUNDLE_NETS = {
    "dcn-pd": ["propensity.net", "dcn.shared", "dcn.head1"],
    "dcn-fixed": ["dcn.head0"],
    "nn4": ["net"],
}


def write_edited_bundle(bundle: dict, field: str, value, folder: Path) -> Path:
    """A copy of ``bundle`` with the dotted ``field`` set to ``value``, written to a file.

    A part of ``field`` that follows a list is an index, as in ``dcn.shared.layers.1``.
    """
    bundle = json.loads(json.dumps(bundle))  # a deep copy
    *parents, key = field.split(".")
    block = bundle

    def part(name):
        return int(name) if isinstance(block, list) else name

    for name in parents:
        block = block[part(name)]
    block[part(key)] = value
    model_file = folder / "bad.json"
    model_file.write_text(json.dumps(bundle))
    return model_file


@pytest.fixture(scope="module")
def trained_bundles(tmp_path_factory):
    """The config that trained them and one tiny bundle per kind, through ``main``."""
    root = tmp_path_factory.mktemp("bundles")
    config = write_config(root, train={"epochs": 2}, propensity_epochs=2, n_samples=3)
    bundles = {}
    for model in ONE_PER_KIND:
        out = root / f"{model.replace(':', '_')}.json"
        assert main(["train", "--config", str(config), "--model", model, "--out", str(out)]) == 0
        bundles[model.split(":")[0]] = json.loads(out.read_text())
    return config, bundles


class TestTrainAndEvaluate:
    def test_train_then_evaluate_round_trip(self, tmp_path, capsys):
        config = write_config(tmp_path)
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--out", str(model_file)]) == 0
        bundle = json.loads(model_file.read_text())
        assert bundle["kind"] == "knn"
        assert bundle["schema_version"] == 2
        capsys.readouterr()

        result_file = tmp_path / "eval.json"
        code = main(["evaluate", "--config", str(config),
                     "--model-file", str(model_file), "--out", str(result_file)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads(result_file.read_text())
        assert printed == stored
        assert stored["kind"] == "knn"
        assert stored["n"] == 60
        assert stored["ite_mse"] >= 0.0

    def test_train_with_two_models_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["train", "--config", str(config), "--model", "knn:3",
                     "--model", "knn:5", "--out", str(tmp_path / "model.json")])
        assert code == 2
        assert "pass --model once" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_train_knn_with_an_arm_smaller_than_k_exits_1(self, tmp_path, capsys):
        config = write_config(tmp_path, synthetic={"n": 40, "d": 3})
        out = tmp_path / "bundles" / "knn_30.json"
        assert main(["train", "--config", str(config), "--model", "knn:30",
                     "--out", str(out)]) == 1
        assert "both groups need at least k=30 members" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_directory_source_is_config_error(self, tmp_path, capsys, command):
        config = write_config(tmp_path, csv_path=str(tmp_path), synthetic=None)
        args = [command, "--config", str(config), "--out", str(tmp_path / "out.json")]
        if command == "evaluate":
            model_file = tmp_path / "model.json"
            assert main(["train", "--config", str(write_config(tmp_path, name="t.json")),
                         "--out", str(model_file)]) == 0
            args += ["--model-file", str(model_file)]
        capsys.readouterr()
        assert main(args) == 2
        assert "is a directory" in capsys.readouterr().err

    def test_evaluate_requires_model_file_flag(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", str(config)])
        assert exc.value.code == 2

    def test_evaluate_missing_model_file_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config),
                     "--model-file", str(tmp_path / "nope.json")]) == 2

    def test_evaluate_without_ground_truth_is_config_error(self, tmp_path):
        rng = np.random.default_rng(0)
        plain = ObservationalDataset(
            rng.standard_normal((20, 3)),
            np.array([0, 1] * 10),
            rng.standard_normal(20),
        )
        csv_path = tmp_path / "plain.csv"
        save_csv(plain, csv_path)
        config = write_config(tmp_path, csv_path=str(csv_path), synthetic=None)
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(write_config(tmp_path, name="t.json")),
                     "--out", str(model_file)]) == 0
        assert main(["evaluate", "--config", str(config),
                     "--model-file", str(model_file)]) == 2


    def test_evaluate_rejects_bundle_of_another_width(self, tmp_path, capsys):
        config = write_config(tmp_path)
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--out", str(model_file)]) == 0
        bundle = json.loads(model_file.read_text())
        bundle["standardization"] = {"mean": [0.0] * 4, "std": [1.0] * 4}
        model_file.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--model-file", str(model_file)]) == 2
        assert "standardization width 4 does not match model width 3" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["knn:3", "nn4"])
    def test_evaluate_on_data_of_another_width_exits_2(self, tmp_path, capsys, model):
        config = write_config(tmp_path, model=model, train={"epochs": 2})
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--out", str(model_file)]) == 0
        wide = write_config(tmp_path, name="wide.json", synthetic={"n": 40, "d": 4})
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", str(wide), "--model-file", str(model_file),
                     "--out", str(out)]) == 2
        kind = model.split(":")[0]
        assert f"the data have 4 features; the {kind} bundle takes 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, field, value",
        [(kind, field, value) for kind, fields in BUNDLE_BLOCKS.items() for field in fields
         for value in (5, [])]
        + [(kind, f"{net}.layers", []) for kind, nets in BUNDLE_NETS.items() for net in nets],
        ids=str,
    )
    def test_evaluate_with_a_malformed_bundle_block_exits_2(
        self, trained_bundles, tmp_path, capsys, kind, field, value
    ):
        config, bundles = trained_bundles
        model_file = write_edited_bundle(bundles[kind], field, value, tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--model-file", str(model_file)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field.split(".")[-1] in err

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("dcn-pd", "dcn.shared.layers", 5, "dcn.shared.layers must be a JSON list"),
            ("dcn-pd", "propensity.net.layers", "x", "propensity.net.layers must be a JSON list"),
            ("dcn-fixed", "dcn.head0.layers", [5], "dcn.head0.layers[0] must be a JSON object"),
            ("dcn-pd", "standardization.mean", ["a", 0.0, 0.0],
             "standardization.mean[0] must be a number, got 'a'"),
            ("knn", "standardization.std", [1.0, True, 1.0],
             "standardization.std[1] must be a number, got True"),
            ("dcn-pd", "propensity.standardization.std", "x",
             "propensity.standardization.std must be a JSON list of numbers"),
            ("dcn-pd", "dcn.shared.layers.1.weights", "x",
             "dcn.shared.layers[1]: could not convert string to float: 'x'"),
            ("nn4", "net.layers.1.bias", [0.0],
             "net.layers[1]: bias shape (1,) does not match fan_out 200"),
            ("dcn-pd", "propensity.net.layers.1",
             {"weights": [[0.0, 0.0]], "bias": [0.0, 0.0], "activation": "relu"},
             "propensity.net.layers[1]: layer widths incompatible: 25 -> 1"),
        ],
        ids=str,
    )
    def test_evaluate_with_a_bundle_field_of_the_wrong_type_names_the_field(
        self, trained_bundles, tmp_path, capsys, kind, field, value, message
    ):
        config, bundles = trained_bundles
        model_file = write_edited_bundle(bundles[kind], field, value, tmp_path)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--model-file", str(model_file)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, message",
        [
            ("dcn.shared.layers.0.weights.0.0",
             "ite_mse overflows: the dcn-pd bundle's effects are too large"),
            ("standardization.mean.0", "the dcn-pd bundle predicts a non-finite effect for row 1"),
        ],
    )
    def test_evaluate_of_a_bundle_that_overflows_exits_2_and_writes_nothing(
        self, tmp_path, capsys, field, message
    ):
        # a finite value whose products overflow: a huge effect, or none at all;
        # pyproject.toml makes a RuntimeWarning an error
        bundle = json.loads(LEGACY_BUNDLE.read_text())["bundle"]
        model_file = write_edited_bundle(bundle, field, 1e308, tmp_path)
        config = write_config(tmp_path, synthetic={"n": 20, "d": 2})
        out = tmp_path / "eval.json"
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config), "--model-file", str(model_file),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_reads_out_from_the_config(self, tmp_path, capsys):
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(write_config(tmp_path)),
                     "--out", str(model_file)]) == 0
        capsys.readouterr()
        out = tmp_path / "scores" / "eval.json"
        config = write_config(tmp_path, name="e.json", out=str(out))
        assert main(["evaluate", "--config", str(config), "--model-file", str(model_file)]) == 0
        assert json.loads(out.read_text()) == json.loads(capsys.readouterr().out)

    # a version is a JSON integer: true, 1.0 and 2.0 equal 1, 1 and 2 in Python
    @pytest.mark.parametrize("version", [99, True, 1.0, 2.0])
    def test_evaluate_rejects_unknown_bundle_version(self, tmp_path, capsys, version):
        config = write_config(tmp_path)
        model_file = tmp_path / "model.json"
        assert main(["train", "--config", str(config), "--out", str(model_file)]) == 0
        bundle = json.loads(model_file.read_text())
        bundle["schema_version"] = version
        model_file.write_text(json.dumps(bundle))
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config),
                     "--model-file", str(model_file)]) == 2
        assert f"unsupported bundle schema_version {version!r}" in capsys.readouterr().err


class TestBenchmark:
    def test_writes_report_and_csv(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results" / "report.json"
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        report = load_report(out)
        assert report.model == "knn:3"
        assert report.repetitions == 2
        assert out.with_suffix(".csv").exists()
        stdout = capsys.readouterr().out
        assert "mean_ite_mse=" in stdout
        assert "std_error=" in stdout

    def test_flags_override_config_fields(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["benchmark", "--config", str(config), "--model", "knn:5",
                     "--reps", "1", "--seed", "9", "--out", str(out)]) == 0
        report = load_report(out)
        assert report.model == "knn:5"
        assert report.repetitions == 1
        assert report.config["seed"] == 9

    def test_works_without_config_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["benchmark", "--model", "knn:3", "--seed", "4",
                     "--reps", "1", "--out", str(out)])
        assert code == 0  # defaults supply the synthetic source
        assert load_report(out).repetitions == 1

    @pytest.mark.parametrize(
        "fields",
        [{"seed": -1}, {"seed": 1.5}, {"seed": "1"}, {"repetitions": 1.5},
         {"propensity_arch": 5}, {"train": {"shared_widths": 5}}, {"train": "x"},
         {"synthetic": {"n": 40, "d": 3, "seed": 5}}, {"train": {"seed": 5}},
         {"train": {"beta1": 1.0}}, {"train": {"beta2": -0.5}},
         {"train": {"learning_rate": float("nan")}}, {"train": {"epsilon": -1}},
         {"synthetic": {"n": 40, "d": 3, "bias_strength": float("inf")}},
         {"synthetic": {"n": 40, "d": 3, "noise_std": float("nan")}},
         {"propensity_arch": [0]}, {"propensity_arch": [2.5]},
         {"train": {"shared_widths": [0]}}, {"train": {"shared_widths": []}},
         {"train": {"shared_widths": [True]}}, {"train": {"head_widths": [1.5]}},
         {"csv_path": 5, "synthetic": None}, {"out": 5}],
        ids=["seed-negative", "seed-float", "seed-str", "reps-float", "arch-int",
             "widths-int", "train-str", "synthetic-seed", "train-seed", "beta1-one",
             "beta2-negative", "lr-nan", "epsilon-negative", "bias-inf", "noise-nan",
             "arch-zero", "arch-float", "widths-zero", "widths-empty", "widths-bool",
             "head-widths-float", "csv-path-int", "out-int"],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, fields):
        config = write_config(tmp_path, **fields)
        # an --out flag would replace the config's out
        out = [] if "out" in fields else ["--out", str(tmp_path / "r.json")]
        code = main(["benchmark", "--config", str(config), *out])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields",
        [{"synthetic": {"n": 40.5, "d": 3}}, {"synthetic": {"n": 40, "d": True}},
         {"train": {"epochs": 1.5}}, {"train": {"batch_size": 8.0}}],
        ids=["n-float", "d-bool", "epochs-float", "batch-size-float"],
    )
    def test_non_integer_count_exits_2(self, tmp_path, capsys, fields):
        config = write_config(tmp_path, **fields)
        code = main(["benchmark", "--config", str(config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [5, None, ["knn:3"]], ids=["int", "null", "list"])
    def test_non_string_model_exits_2(self, tmp_path, capsys, model):
        config = write_config(tmp_path, model=model)
        code = main(["benchmark", "--config", str(config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "model must be a string" in capsys.readouterr().err

    def test_several_models_run_paired_and_report_separately(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results" / "report.json"
        models = ["knn:3", "knn:1", "knn:5"]
        args = ["benchmark", "--config", str(config), "--out", str(out)]
        assert main(args + [arg for m in models for arg in ("--model", m)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split()[0] for line in lines if "mean_ite_mse=" in line]
        assert rows == [f"model={m}" for m in models]
        reports = []
        for tag in ("knn_3", "knn_1", "knn_5"):
            path = out.with_name(f"report-{tag}.json")
            assert path.with_suffix(".csv").exists()
            reports.append(load_report(path))
        assert [r.model for r in reports] == models
        assert not out.exists()
        first = reports[0].per_rep_mse
        block = [f"  vs {r.model} {sum(a < b for a, b in zip(first, r.per_rep_mse))}/2"
                 for r in reports[1:]]
        start = lines.index("paired win rate of knn:3 (lower per-repetition MSE):")
        assert lines[start + 1:] == block

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        config = write_config(
            tmp_path, model="knn:40", synthetic={"n": 30, "d": 2}, repetitions=1
        )
        code = main(["benchmark", "--config", str(config),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "repetition 0" in capsys.readouterr().err


class TestSubprocessEntryPoints:
    def test_module_invocation(self, tmp_path):
        config = write_config(tmp_path, repetitions=1)
        out = tmp_path / "report.json"
        result = subprocess.run(
            [sys.executable, "-m", "dcnpd", "benchmark",
             "--config", str(config), "--out", str(out)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        assert out.exists()
        assert "mean_ite_mse=" in result.stdout

    def test_evaluate_of_a_version_1_bundle_prints_the_in_process_result(self, tmp_path, capsys):
        model_file = tmp_path / "legacy.json"
        model_file.write_text(json.dumps(json.loads(LEGACY_BUNDLE.read_text())["bundle"]))
        config = write_config(tmp_path, synthetic={"n": 20, "d": 2})
        argv = ["evaluate", "--config", str(config), "--model-file", str(model_file)]
        result = dcnpd(*argv)
        assert result.returncode == 0, result.stderr
        capsys.readouterr()
        assert main(argv) == 0
        assert result.stdout == capsys.readouterr().out
        assert math.isfinite(json.loads(result.stdout)["ite_mse"])

    def test_bad_bundle_config_or_width_exits_2_and_a_failed_train_writes_nothing(self, tmp_path):
        def dcnpd(*argv):
            # file arguments name files in tmp_path
            argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
            command = [sys.executable, "-m", "dcnpd", *argv]
            return subprocess.run(command, capture_output=True, text=True, check=False)

        small = {"synthetic": {"n": 40, "d": 3}, "train": {"epochs": 2}, "propensity_epochs": 2,
                 "n_samples": 3}
        configs = {"bundle": small, "bogus": {"bogus": 1}, "d4": {"synthetic": {"n": 40, "d": 4}}}
        for name, payload in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(payload), encoding="utf-8")
        trained = dcnpd("train", "--config", "bundle.json", "--model", "nn4", "--seed", "1",
                        "--out", "nn4.json")
        assert trained.returncode == 0, trained.stderr
        bundle = json.loads((tmp_path / "nn4.json").read_text())
        bundle["standardization"] = {"mean": [0.0] * 4, "std": [1.0] * 4}
        (tmp_path / "wide.json").write_text(json.dumps(bundle), encoding="utf-8")
        for argv in [
            ["evaluate", "--config", "bundle.json", "--seed", "2", "--model-file", "wide.json"],
            ["generate", "--config", "bogus.json", "--seed", "1", "--out", "bogus.csv"],
            ["evaluate", "--config", "bogus.json", "--seed", "2", "--model-file", "nn4.json"],
            ["evaluate", "--config", "d4.json", "--seed", "2", "--model-file", "nn4.json"],
        ]:
            result = dcnpd(*argv)
            assert result.returncode == 2, (argv, result.stderr)
            assert "config error" in result.stderr
        # an arm of the 40 rows holds fewer than 30: training fails and writes nothing
        result = dcnpd("train", "--config", "bundle.json", "--model", "knn:30", "--seed", "1",
                       "--out", "knn_30.json")
        assert result.returncode != 0
        assert not (tmp_path / "knn_30.json").exists()

    def test_pooled_benchmark_gives_the_same_results_on_one_cpu(self, tmp_path):
        # 128 training rows in minibatches of 32 for 250 epochs: 1,000 steps per
        # repetition, so both repetitions run in worker processes; one CPU must
        # give the same per-repetition results as all of them
        config = write_config(
            tmp_path, model="dcn-pd", repetitions=2, synthetic={"n": 160, "d": 5},
            train={"epochs": 250, "shared_widths": [16]}, propensity_epochs=20, n_samples=10,
        )
        cpu = min(os.sched_getaffinity(0))
        mse = []
        for name, pin in [("all", None), ("one", lambda: os.sched_setaffinity(0, {cpu}))]:
            out = tmp_path / f"{name}.json"
            result = subprocess.run(
                [sys.executable, "-m", "dcnpd", "benchmark", "--config", str(config),
                 "--seed", "1", "--out", str(out)],
                capture_output=True, text=True, check=False, preexec_fn=pin, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            mse.append(json.loads(out.read_text())["per_rep_mse"])
        assert len(mse[0]) == 2 and mse[0] == mse[1]

    def test_benchmark_from_a_generated_csv(self, tmp_path):
        # the CSV reader's one-pass path depends on np.loadtxt, so read a file on every leg
        csv_path = tmp_path / "data.csv"
        result = dcnpd("generate", "--seed", "1", "--out", str(csv_path))
        assert result.returncode == 0, result.stderr
        config = tmp_path / "csv.json"
        config.write_text(json.dumps(
            {"csv_path": str(csv_path), "train": {"epochs": 2}, "propensity_epochs": 2}
        ))
        result = dcnpd("benchmark", "--config", str(config), "--model", "dcn-pd",
                       "--model", "knn:3", "--seed", "1", "--reps", "1",
                       "--out", str(tmp_path / "csv-report.json"))
        assert result.returncode == 0, result.stderr
        for tag in ("dcn-pd", "knn_3"):
            assert (tmp_path / f"csv-report-{tag}.csv").exists()

    def test_four_model_benchmark_writes_each_report(self, tmp_path):
        config = tmp_path / "smoke.json"
        config.write_text(json.dumps({"synthetic": {"n": 40, "d": 3}, "train": {"epochs": 2}}))
        models = [arg for model in ONE_PER_KIND for arg in ("--model", model)]
        result = dcnpd("benchmark", "--config", str(config), *models, "--seed", "1",
                       "--reps", "1", "--out", str(tmp_path / "smoke" / "report.json"))
        assert result.returncode == 0, result.stderr
        for model in ONE_PER_KIND:
            assert (tmp_path / "smoke" / f"report-{model.replace(':', '_')}.csv").exists()

    def test_train_and_evaluate_each_model(self, tmp_path):
        config = tmp_path / "bundle.json"
        config.write_text(json.dumps({"synthetic": {"n": 40, "d": 3}, "train": {"epochs": 2},
                                      "propensity_epochs": 2, "n_samples": 3}))
        for model in ONE_PER_KIND:
            bundle = tmp_path / "bundles" / f"{model.replace(':', '_')}.json"
            trained = dcnpd("train", "--config", str(config), "--model", model, "--seed", "1",
                            "--out", str(bundle))
            assert trained.returncode == 0, (model, trained.stderr)
            scored = dcnpd("evaluate", "--config", str(config), "--seed", "2",
                           "--model-file", str(bundle))
            assert scored.returncode == 0, (model, scored.stderr)
            assert json.loads(scored.stdout)["kind"] == model.split(":")[0]

    def test_module_invocation_config_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "dcnpd", "benchmark", "--model", "bogus",
             "--seed", "1"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 2
