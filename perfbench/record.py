#!/usr/bin/env python3
"""Write a reference record of every workload: default, single-threaded, traced.

    python3 perfbench/record.py --seed 1 --out perfbench/records/reference.json

Runs perfbench/run.py once per workload in each of three modes, for the
run length in BENCHMARK.json: untraced with BLAS capped at the core count
(the default), untraced with one BLAS thread (the single-threaded
baseline), and traced. The record keeps each run's named metrics and adds,
per workload, the tracing overhead: traced wall_s minus untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT, THREAD_VARIABLES

MODES = {
    "default": ({}, 0),
    "single_thread": ({variable: "1" for variable in THREAD_VARIABLES}, 0),
    "traced": ({}, 1),
}


def run(workload: str, seed: int, seconds: int, mode: str) -> dict:
    threads, trace = MODES[mode]
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(threads)
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} ({mode}) failed:\n{proc.stdout}\n{proc.stderr}")
    result = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=HERE / "records" / "reference.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {mode: run(workload, args.seed, seconds, mode) for mode in MODES}
        untraced = runs["default"]["named_metrics"]["wall_s"]["value"]
        traced = runs["traced"]["named_metrics"]["wall_s"]["value"]
        record["environment"] = runs["default"]["environment"]
        record["workloads"][workload] = {
            "default": runs["default"]["named_metrics"],
            "single_thread": runs["single_thread"]["named_metrics"],
            "single_thread_num_threads": runs["single_thread"]["environment"]["num_threads"],
            "traced_per_layer": runs["traced"]["metrics"],
            "tracing_overhead_s": traced - untraced,
            "tracing_overhead_share": (traced - untraced) / untraced,
            "identity": runs["default"]["identity"],
            "identity_matches_default": {
                mode: runs[mode]["identity"] == runs["default"]["identity"]
                for mode in ("single_thread", "traced")
            },
        }
        print(f"{workload}: tracing overhead {traced - untraced:+.3f} s on {untraced:.3f} s")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
