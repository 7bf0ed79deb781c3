"""The benchmark's workloads: inputs from the seed, timed rounds, checks, metrics.

A workload has a set-up (inputs drawn from the seed, plus a warm-up pass)
and a round: a fixed unit of work whose operations are timed one by one and
whose outputs are checked. The same seed gives the same round, so every
round of a run must reproduce the first one's results bit for bit.

Every workload calls the package only through its public functions, and
always through the module attribute (``dcn.estimate_ite``), so the traced
run sees each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dcnpd import baselines, cli, data, dcn, experiment, propensity, training

SURFACE = {"bias_strength": 3.0, "noise_std": 1.0, "surface": "ExpSurface"}
MODELS = ("dcn-pd", "dcn-fixed:0.2", "nn4", "knn:5")

# round_s is the measured round time on a 2-core OpenBLAS machine; a run
# does max(1, round(seconds / round_s)) rounds, so that for a given
# --seconds the amount of work, and every traced call count, is fixed.
SIZES = {
    "full": {
        "paired-reps": dict(
            n=750, d=25, epochs=100, propensity_epochs=300, n_samples=100, reps=2, round_s=12.5
        ),
        "mc-query": dict(
            n=750, d=25, epochs=100, propensity_epochs=300, n_samples=100,
            queries=100, cohort=2000, round_s=6.7,
        ),
        "large-n": dict(n=100_000, d=25, propensity_epochs=20, matches=100, k=5, round_s=14.5),
    },
    "tiny": {
        "paired-reps": dict(
            n=80, d=25, epochs=2, propensity_epochs=3, n_samples=4, reps=2, round_s=0.5
        ),
        "mc-query": dict(
            n=80, d=25, epochs=2, propensity_epochs=3, n_samples=4,
            queries=3, cohort=20, round_s=0.5,
        ),
        "large-n": dict(n=200, d=25, propensity_epochs=2, matches=3, k=5, round_s=0.5),
    },
}


class Ops:
    """Counts the operations attempted and those whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def timed(self, label: str, check: Callable, fn: Callable, *args, **kwargs):
        """Run and time one operation, then check its output: (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.failures.append(f"{label}: {type(e).__name__}: {e}")
            raise
        seconds = time.perf_counter() - start
        self._record(label, check(result))
        return result, seconds

    def verify(self, label: str, problems: list[str]) -> None:
        """Count one untimed check, such as a comparison between rounds."""
        self.attempted += 1
        self._record(label, problems)

    def _record(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Context:
    seed: int
    workdir: Path
    ops: Ops


@dataclass
class Round:
    """Operation times by stage, and the results that must repeat exactly."""

    stages: dict[str, list[float]] = field(default_factory=dict)
    identity: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(sum(times) for times in self.stages.values())


def finite(values, shape: tuple) -> list[str]:
    a = np.asarray(values, dtype=np.float64)
    if a.shape != shape:
        return [f"shape {a.shape}, expected {shape}"]
    if not np.isfinite(a).all():
        return ["non-finite values"]
    return []


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def _rng(seed: int, channel: int) -> np.random.Generator:
    return np.random.default_rng([seed, channel])


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _ms_percentiles(prefix: str, seconds: list[float]) -> dict:
    p50, p90 = np.percentile(np.asarray(seconds) * 1e3, (50, 90))
    return {
        f"{prefix}_ms_p50": metric(p50, "ms", len(seconds)),
        f"{prefix}_ms_p90": metric(p90, "ms", len(seconds)),
    }


def _median_stage(rounds: list[Round], stage: str) -> float:
    return statistics.median(sum(r.stages[stage]) for r in rounds)


# --- paired-reps: the acceptance fixture's shape, fewer repetitions ---


def paired_prepare(ctx: Context, p: dict) -> dict:
    synthetic = data.SyntheticConfig(n=p["n"], d=p["d"], **SURFACE)
    train = training.TrainConfig(epochs=p["epochs"])
    return {
        model: experiment.ExperimentConfig(
            model=model,
            seed=ctx.seed,
            synthetic=synthetic,
            train=train,
            repetitions=p["reps"],
            propensity_epochs=p["propensity_epochs"],
            n_samples=p["n_samples"],
        )
        for model in MODELS
    }


def paired_round(ctx: Context, p: dict, configs: dict) -> Round:
    result = Round()
    for model, config in configs.items():
        report, seconds = ctx.ops.timed(
            f"run_experiment {model}",
            lambda r: finite(r.per_rep_mse, (p["reps"],)),
            experiment.run_experiment,
            config,
        )
        result.stages[model] = [seconds]
        result.identity[model] = {"per_rep_mse": report.per_rep_mse}
    return result


def paired_summary(p: dict, rounds: list[Round]) -> dict:
    reps = p["reps"]
    per_rep = [r.stages[model][0] / reps for r in rounds for model in MODELS]
    round_s = statistics.median(r.seconds for r in rounds)
    named = {
        "reps_per_s": metric(len(MODELS) * reps / round_s, "1/s", len(rounds)),
        "rep_ms_p50": metric(1e3 * statistics.median(per_rep), "ms", len(per_rep)),
        "dcn_pd_rep_s": metric(_median_stage(rounds, "dcn-pd") / reps, "s", len(rounds)),
        "ite_mse": metric(
            np.mean(rounds[0].identity["dcn-pd"]["per_rep_mse"]), "outcome^2", reps
        ),
    }
    for model in MODELS:
        named[f"{model}.rep_s"] = metric(_median_stage(rounds, model) / reps, "s", len(rounds))
    return named


# --- mc-query: inference on one fitted model, at batch 1 and at batch n ---


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return path


def mc_prepare(ctx: Context, p: dict) -> dict:
    synthetic = {"n": p["n"], "d": p["d"], **SURFACE}
    train_config = _write_json(
        ctx.workdir / "train.json",
        {
            "model": "dcn-pd",
            "seed": ctx.seed,
            "synthetic": synthetic,
            "train": {"epochs": p["epochs"]},
            "propensity_epochs": p["propensity_epochs"],
            "n_samples": p["n_samples"],
        },
    )
    bundle_path = ctx.workdir / "model.json"
    code = _cli(["train", "--config", str(train_config), "--out", str(bundle_path)])
    ctx.ops.verify("cli train", [] if code == 0 else [f"exit code {code}"])
    bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
    transform = data.Standardization.from_dict(bundle["standardization"])
    cohort = data.generate_synthetic(
        data.SyntheticConfig(n=p["cohort"], d=p["d"], **SURFACE), _rng(ctx.seed, 1)
    )
    evaluate_config = _write_json(
        ctx.workdir / "evaluate.json", {"synthetic": {**synthetic, "n": p["cohort"]}}
    )
    return {
        "params": dcn.DCNParams.from_dict(bundle["dcn"]),
        "prop": propensity.PropensityModel.from_dict(bundle["propensity"]),
        "schedule": propensity.DropoutSchedule(bundle["gamma"]),
        "X": transform.transform(cohort.X),
        "true_ite": cohort.true_ite,
        "evaluate": [
            "evaluate",
            "--config", str(evaluate_config),
            "--seed", str(ctx.seed),
            "--model-file", str(bundle_path),
            "--out", str(ctx.workdir / "evaluation.json"),
        ],
        "evaluation": ctx.workdir / "evaluation.json",
    }


def _check_estimate(estimate, n_samples: int) -> list[str]:
    return finite(estimate.samples, (n_samples,)) + finite(
        [estimate.mean, estimate.std, *estimate.quantiles], (4,)
    )


def _evaluate(s: dict) -> dict:
    code = _cli(s["evaluate"])
    if code != 0:
        return {"exit_code": code}
    return json.loads(s["evaluation"].read_text(encoding="utf-8"))


def _check_evaluation(result: dict, n: int) -> list[str]:
    if "exit_code" in result:
        return [f"exit code {result['exit_code']}"]
    problems = [] if result.get("n") == n else [f"evaluated {result.get('n')} rows, not {n}"]
    return problems + finite(result.get("ite_mse", np.nan), ())


def mc_round(ctx: Context, p: dict, s: dict) -> Round:
    model = (s["params"], s["prop"], s["schedule"])
    samples = p["n_samples"]
    result = Round(stages={"query": []})
    query_rng = _rng(ctx.seed, 2)
    query_means = []
    for x in s["X"][: p["queries"]]:
        estimate, seconds = ctx.ops.timed(
            "estimate_ite",
            lambda e: _check_estimate(e, samples),
            dcn.estimate_ite,
            *model,
            x,
            samples,
            query_rng,
        )
        result.stages["query"].append(seconds)
        query_means.append(estimate.mean)
    effects, seconds = ctx.ops.timed(
        "mc_ite_matrix",
        lambda e: finite(e, (len(s["X"]), samples)),
        dcn.mc_ite_matrix,
        *model,
        s["X"],
        samples,
        _rng(ctx.seed, 3),
    )
    result.stages["cohort"] = [seconds]
    evaluation, seconds = ctx.ops.timed(
        "cli evaluate", lambda r: _check_evaluation(r, p["cohort"]), _evaluate, s
    )
    result.stages["evaluate"] = [seconds]
    mean_effects = effects.mean(axis=1)
    result.identity = {
        "query_means_sha256": _digest(query_means),
        "cohort_effects_sha256": _digest(effects),
        "cohort_ite_mse": float(np.mean((mean_effects - s["true_ite"]) ** 2)),
        "evaluate_ite_mse": evaluation.get("ite_mse"),
    }
    return result


def mc_summary(p: dict, rounds: list[Round]) -> dict:
    queries = [t for r in rounds for t in r.stages["query"]]
    return {
        **_ms_percentiles("query", queries),
        "cohort_subjects_per_s": metric(
            p["cohort"] / _median_stage(rounds, "cohort"), "1/s", len(rounds)
        ),
        "evaluate_s": metric(_median_stage(rounds, "evaluate"), "s", len(rounds)),
        "ite_mse": metric(rounds[0].identity["cohort_ite_mse"], "outcome^2", p["cohort"]),
    }


# --- large-n: CSV I/O, a full-batch fit and matching on 100k rows ---


def large_prepare(ctx: Context, p: dict) -> dict:
    return {
        "dataset": data.generate_synthetic(
            data.SyntheticConfig(n=p["n"], d=p["d"], **SURFACE), _rng(ctx.seed, 4)
        ),
        "queries": data.generate_synthetic(
            data.SyntheticConfig(n=p["matches"], d=p["d"], **SURFACE), _rng(ctx.seed, 5)
        ),
        "path": ctx.workdir / "large.csv",
    }


def _check_written(path: Path, n: int) -> list[str]:
    with open(path, "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    return [] if lines == n + 1 else [f"{lines - 1} data rows written, expected {n}"]


def _check_round_trip(got, want) -> list[str]:
    return [
        f"column {name} differs after the round trip"
        for name in ("X", "W", "Y", "mu0", "mu1")
        if getattr(got, name).dtype != getattr(want, name).dtype
        or getattr(got, name).tobytes() != getattr(want, name).tobytes()
    ]


def _check_propensity(model) -> list[str]:
    arrays = model.net.parameter_arrays()
    return [] if all(np.isfinite(a).all() for a in arrays) else ["non-finite weights"]


def large_round(ctx: Context, p: dict, s: dict) -> Round:
    dataset, queries, path = s["dataset"], s["queries"], s["path"]
    n, d = dataset.n, dataset.d
    _, write_s = ctx.ops.timed(
        "save_csv", lambda _: _check_written(path, n), data.save_csv, dataset, path
    )
    loaded, read_s = ctx.ops.timed(
        "load_csv", lambda got: _check_round_trip(got, dataset), data.load_csv, path
    )
    (scaled, transform), standardize_s = ctx.ops.timed(
        "standardize", lambda out: finite(out[0].X, (n, d)), data.standardize, loaded
    )
    model, fit_s = ctx.ops.timed(
        "train_propensity",
        _check_propensity,
        propensity.train_propensity,
        scaled,
        epochs=p["propensity_epochs"],
        rng=_rng(ctx.seed, 6),
    )
    knn = baselines.KnnConfig(k=p["k"])
    match_s, effects = [], []
    for x in transform.transform(queries.X):
        effect, seconds = ctx.ops.timed(
            "knn_ite", lambda e: finite(e, ()), baselines.knn_ite, scaled, x, knn
        )
        match_s.append(seconds)
        effects.append(effect)
    result = Round(
        stages={
            "write": [write_s],
            "read": [read_s],
            "standardize": [standardize_s],
            "fit": [fit_s],
            "match": match_s,
        }
    )
    result.identity = {
        "propensity_weights_sha256": _digest(
            np.concatenate([a.ravel() for a in model.net.parameter_arrays()])
        ),
        "match_effects_sha256": _digest(effects),
        "match_ite_mse": float(np.mean((np.asarray(effects) - queries.true_ite) ** 2)),
    }
    return result


def large_summary(p: dict, rounds: list[Round]) -> dict:
    n = p["n"]
    write_s = _median_stage(rounds, "write")
    read_s = _median_stage(rounds, "read")
    csv_s = statistics.median(sum(r.stages["write"] + r.stages["read"]) for r in rounds)
    return {
        "csv_rows_per_s": metric(2 * n / csv_s, "1/s", len(rounds)),
        "csv_write_rows_per_s": metric(n / write_s, "1/s", len(rounds)),
        "csv_read_rows_per_s": metric(n / read_s, "1/s", len(rounds)),
        "propensity_fit_s": metric(_median_stage(rounds, "fit"), "s", len(rounds)),
        **_ms_percentiles("match", [t for r in rounds for t in r.stages["match"]]),
        "ite_mse": metric(rounds[0].identity["match_ite_mse"], "outcome^2", p["matches"]),
    }


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Context, dict], dict]
    round: Callable[[Context, dict, dict], Round]
    summary: Callable[[dict, list[Round]], dict]
    # the named metric behind each shared end-to-end metric
    throughput: str
    latency: str
    stage: str


WORKLOADS = {
    "paired-reps": Workload(
        paired_prepare, paired_round, paired_summary, "reps_per_s", "rep_ms_p50", "dcn_pd_rep_s"
    ),
    "mc-query": Workload(
        mc_prepare, mc_round, mc_summary, "cohort_subjects_per_s", "query_ms_p50", "evaluate_s"
    ),
    "large-n": Workload(
        large_prepare,
        large_round,
        large_summary,
        "csv_rows_per_s",
        "match_ms_p50",
        "propensity_fit_s",
    ),
}


def setup(ctx: Context, name: str, p: dict):
    """Build the workload's inputs, then warm up every workload at the tiny size.

    The first fit in a process runs up to 2x slower, and lazy imports and
    first-call costs sit on other paths, so the warm-up runs one tiny round
    of each workload; this also calls every traced function at least once
    in every workload's traced run.
    """
    state = WORKLOADS[name].prepare(ctx, p)
    for other, workload in WORKLOADS.items():
        tiny = SIZES["tiny"][other]
        warm = Context(ctx.seed, ctx.workdir / f"warm-{other}", ctx.ops)
        warm.workdir.mkdir(parents=True, exist_ok=True)
        workload.round(warm, tiny, workload.prepare(warm, tiny))
    return state


def end_to_end(workload: Workload, named: dict) -> dict:
    """The shared end-to-end metrics, each taken from this workload's named one."""
    return {
        "setup_s": named["setup_s"],
        "wall_s": named["wall_s"],
        "throughput_per_s": named[workload.throughput],
        "latency_ms_p50": named[workload.latency],
        "stage_s": named[workload.stage],
    }
