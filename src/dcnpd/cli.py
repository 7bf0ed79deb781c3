"""Command-line interface: generate, train, evaluate, benchmark.

Exit codes: 0 on success, 2 when the configuration is invalid (including
bad flags), 1 when a valid run fails at runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import generate_synthetic, save_csv
from .experiment import (
    MODEL_TOKENS,
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    emit_report,
    ite_mse,
    load_source,
    predict_from_bundle,
    run_experiment,
    train_model_bundle,
    write_json,
)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.allow_abbrev = False  # else `evaluate --model x` would pass as `--model-file x`
    sub.add_argument("--config", help="JSON config file; flags below override its fields")
    sub.add_argument("--seed", type=int, help="master seed (required here or in the config)")
    sub.add_argument("--out", help="output path")


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    _add_common_flags(sub)
    sub.add_argument(
        "--model", action="append", help=f"{MODEL_TOKENS}; repeat for a paired benchmark"
    )
    sub.add_argument("--reps", type=int, help="number of repetitions")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcnpd",
        description="Treatment-effect estimation with propensity-guided dropout.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="draw a synthetic observational dataset and save it as CSV"
    )
    _add_common_flags(generate)
    generate.set_defaults(func=_cmd_generate)

    train = commands.add_parser(
        "train", help="fit one model on the full dataset and save a model bundle"
    )
    _add_experiment_flags(train)
    train.set_defaults(func=_cmd_train)

    evaluate = commands.add_parser(
        "evaluate", help="score a saved model bundle against a ground-truth dataset"
    )
    _add_common_flags(evaluate)
    evaluate.add_argument("--model-file", required=True, help="bundle written by `train`")
    evaluate.set_defaults(func=_cmd_evaluate)

    benchmark = commands.add_parser(
        "benchmark", help="run the repeated-realization experiment and emit a report"
    )
    _add_experiment_flags(benchmark)
    benchmark.set_defaults(func=_cmd_benchmark)

    return parser


def _read_json(path, what: str):
    """The JSON value in the file at ``path``; an unreadable or invalid file is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {what}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} is not valid JSON: {e}") from None


def _config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file with the flags applied, read the same way by every command."""
    payload = {} if args.config is None else _read_json(args.config, "config file")
    if not isinstance(payload, dict):
        raise ConfigError("config file must contain a JSON object")
    flags = {"seed": args.seed, "repetitions": getattr(args, "reps", None), "out": args.out}
    payload.update((key, value) for key, value in flags.items() if value is not None)
    if payload.get("synthetic") is None and payload.get("csv_path") is None:
        payload["synthetic"] = {}
    return ExperimentConfig.from_dict(payload)


def _experiment_configs(args: argparse.Namespace) -> list[ExperimentConfig]:
    """One config per ``--model`` flag (or the config file's model), same payload."""
    config = _config(args)
    if not args.model and config.model is None:
        raise ConfigError(
            f"model must be a string, one of {MODEL_TOKENS}: pass --model or set it in the config"
        )
    return [replace(config, model=model) for model in args.model or [config.model]]


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _config(args)
    if config.csv_path is not None:
        raise ConfigError("generate draws a synthetic dataset: the config must not set csv_path")
    out = Path(config.out or "dataset.csv")
    dataset = generate_synthetic(config.synthetic, np.random.default_rng(config.seed))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    sidecar = out.with_suffix(".json")
    synthetic = config.to_dict()["synthetic"]
    write_json(
        sidecar, {"schema_version": SCHEMA_VERSION, "seed": config.seed, "synthetic": synthetic}
    )
    print(f"wrote {dataset.n} rows x {dataset.d} features to {out} (sidecar {sidecar})")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config, *others = _experiment_configs(args)
    if others:
        raise ConfigError("train fits one model: pass --model once")
    bundle = train_model_bundle(config)
    out = Path(config.out or "model.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(bundle, sort_keys=True) + "\n", encoding="utf-8")
    print(f"trained {config.model} and saved the bundle to {out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config(args)
    bundle = _read_json(args.model_file, "model file")
    if not isinstance(bundle, dict) or "kind" not in bundle:
        raise ConfigError("model file is not a model bundle (missing 'kind')")
    rng = np.random.default_rng(config.seed)  # the dataset's draws, then the masks
    dataset = load_source(config.csv_path, config.synthetic, rng)
    if dataset.true_ite is None:
        raise ConfigError(
            "evaluation needs ground truth: the dataset must carry mu0 and mu1"
        )
    predictions = predict_from_bundle(bundle, dataset.X, rng)
    result = {
        "schema_version": SCHEMA_VERSION,
        "kind": bundle["kind"],
        "n": dataset.n,
        "ite_mse": ite_mse(predictions, dataset.true_ite),
    }
    print(write_json(config.out, result), end="")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    configs = _experiment_configs(args)
    path = Path(configs[0].out or "report.json")
    reports = []
    for config in configs:
        report = run_experiment(config)
        out = path
        if len(configs) > 1:  # e.g. report-knn_5.json for knn:5
            tag = config.model.replace(":", "_")
            out = path.with_name(f"{path.stem}-{tag}{path.suffix or '.json'}")
        emit_report(report, out)
        print(
            f"model={report.model} reps={report.repetitions} "
            f"mean_ite_mse={report.mean_mse:.6g} std_error={report.std_error:.6g}"
        )
        print(f"report: {out} (per-repetition CSV: {out.with_suffix('.csv')})")
        reports.append(report)
    first, *others = reports
    if others:
        print(f"paired win rate of {first.model} (lower per-repetition MSE):")
    for other in others:
        wins = sum(a < b for a, b in zip(first.per_rep_mse, other.per_rep_mse))
        print(f"  vs {other.model} {wins}/{first.repetitions}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
