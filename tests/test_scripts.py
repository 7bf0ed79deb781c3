"""Smoke tests for the driver scripts: each runs end to end at tiny sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from dcnpd.data import SyntheticConfig, generate_synthetic, save_csv

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--epochs", "1", "--propensity-epochs", "2"]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_benchmark_models_prints_one_row_per_model():
    result = run_script(
        "benchmark_models.py",
        "--reps", "1", "--n", "40", "--d", "3", "--n-samples", "2", *TINY,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines() if "mean_ite_mse=" in line]
    assert rows == ["dcn-pd", "dcn-fixed:0.2", "dcn-fixed:0.5", "nn4", "knn:5"]
    assert "paired win rate of dcn-pd" in result.stdout


def test_run_ihdp_prints_one_row_per_file(tmp_path):
    for seed in (1, 2):
        dataset = generate_synthetic(
            SyntheticConfig(n=40, d=3, bias_strength=1.0), np.random.default_rng(seed)
        )
        save_csv(dataset, tmp_path / f"realization_{seed}.csv")
    result = run_script("run_ihdp.py", "--dir", str(tmp_path), *TINY)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["realization_1.csv", "realization_2.csv"]
    for line in lines[:2]:
        assert re.findall(r"(\S+)=\s*-?\d+\.\d{4}", line) == ["dcn-pd", "nn4", "knn:5"]
    assert "means over 2 realizations:" in result.stdout
