#!/usr/bin/env python3
"""Run one benchmark workload against the dcnpd package in this checkout.

    python3 perfbench/run.py --workload paired-reps --seed 1 --seconds 20 --trace 0

Prints a table of the workload's named metrics (each with its unit and
sample count), then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
The full record (environment, named metrics, the results that must repeat
exactly, per-layer figures) goes to ``perfbench/out/``. Exits 1 when an
operation fails or an output check does not hold.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("paired-reps", "mc-query", "large-n")
SETUPS = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "tiny"), help="tiny is for the smoke test"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cap_blas_threads() -> None:
    """One client per process: BLAS may use every core, and no more, unless set."""
    cores = str(len(os.sched_getaffinity(0)))
    for variable in THREAD_VARIABLES:
        os.environ.setdefault(variable, cores)


def import_checkout():
    """Import dcnpd from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dcnpd

    if Path(dcnpd.__file__).resolve().parent != (src / "dcnpd").resolve():
        raise ImportError(f"dcnpd was imported from {dcnpd.__file__}, not from {src}")
    return dcnpd


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    try:
        import_checkout()
    except ImportError as e:
        print(f"cannot import dcnpd from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    params = workloads.SIZES[args.size][args.workload]
    rounds_to_run = max(1, round(args.seconds / params["round_s"]))
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = workloads.Context(args.seed, workdir, workloads.Ops())
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    setup_s, rounds = [], []
    try:
        if tracer:
            tracer.install()
        for _ in range(SETUPS):
            start = time.perf_counter()
            with span("bench.setup"):
                state = workloads.setup(ctx, args.workload, params)
            setup_s.append(time.perf_counter() - start)
        for _ in range(rounds_to_run):
            with span("bench.round"):
                rounds.append(workload.round(ctx, params, state))
    except Exception:
        traceback.print_exc()
        print(
            f"{args.workload}: stopped after {ctx.ops.attempted} operations; "
            f"failures: {ctx.ops.failures}",
            file=sys.stderr,
        )
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for i, r in enumerate(rounds[1:], start=1):
        ctx.ops.verify(
            f"round {i} repeats round 0",
            [] if r.identity == rounds[0].identity else ["results differ from round 0"],
        )
    named = workload.summary(params, rounds)
    named["setup_s"] = workloads.metric(statistics.median(setup_s), "s", len(setup_s))
    named["wall_s"] = workloads.metric(
        statistics.median(r.seconds for r in rounds), "s", len(rounds)
    )
    if tracer:
        metrics, problems = tracer.layer_metrics()
        metrics["traced.wall_s"] = {"value": named["wall_s"]["value"], "unit": "s"}
        ctx.ops.verify("span nesting", problems[:10])
        spans_file = OUT / f"{args.workload}-spans.json"
        tracer.write_spans(spans_file)
    else:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in workloads.end_to_end(workload, named).items()
        }

    correct = not ctx.ops.failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "setups": len(setup_s),
        "rounds": len(rounds),
        "setup_seconds": setup_s,
        "round_seconds": [r.seconds for r in rounds],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "correct": correct,
        "attempted": ctx.ops.attempted,
        "failed": len(ctx.ops.failures),
        "failures": ctx.ops.failures,
        "named_metrics": named,
        "metrics": metrics,
        "identity": rounds[0].identity,
    }
    if tracer:
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {len(setup_s)} set-ups, {len(rounds)} rounds")
    for name, m in sorted(named.items()):
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<10} (n={m['samples']})")
    for failure in ctx.ops.failures:
        print(f"  FAILED {failure}")
    print(f"record: {result_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ctx.ops.attempted,
                "failed": len(ctx.ops.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
