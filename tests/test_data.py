"""Dataset plumbing: CSV round-trips, the generator's ground truth, splits."""

import csv
import json
import math
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from dcnpd import data, pool
from dcnpd.data import (
    ROW_BLOCK,
    ObservationalDataset,
    ParseError,
    SchemaError,
    Standardization,
    SyntheticConfig,
    ValidationError,
    generate_synthetic,
    load_csv,
    save_csv,
    standardize,
    train_test_split,
)
from dcnpd.experiment import ConfigError


def toy_dataset():
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    return ObservationalDataset(X, np.array([1, 0, 1]), np.array([0.5, 1.5, 2.5]))


class TestDatasetInvariants:
    def test_w_must_be_binary(self):
        with pytest.raises(ValidationError):
            ObservationalDataset(np.ones((2, 1)), np.array([0, 2]), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            ObservationalDataset(np.ones((3, 1)), np.array([0, 1]), np.zeros(3))

    def test_true_ite_derived_from_mus(self):
        ds = ObservationalDataset(
            np.ones((2, 1)),
            np.array([0, 1]),
            np.zeros(2),
            mu0=np.array([1.0, 2.0]),
            mu1=np.array([4.0, 2.5]),
        )
        np.testing.assert_array_equal(ds.true_ite, [3.0, 0.5])
        with pytest.raises(TypeError, match="true_ite"):  # derived only, never passed
            ObservationalDataset(ds.X, ds.W, ds.Y, ds.mu0, ds.mu1, true_ite=ds.true_ite)

    @pytest.mark.parametrize(
        "cells, name",
        [
            pytest.param({name: bad}, name, id=f"{bad}-{name}")
            for bad in (np.nan, np.inf, -np.inf)
            for name in ("X", "Y", "mu0", "mu1")
        ]
        + [pytest.param({"mu0": -1e308, "mu1": 1e308}, "mu1 - mu0", id="overflow-true_ite")],
    )
    def test_nonfinite_values_rejected(self, cells, name):
        arrays = {
            "X": np.ones((3, 2)),
            "Y": np.zeros(3),
            "mu0": np.zeros(3),
            "mu1": np.ones(3),
        }
        for key, value in cells.items():
            arrays[key].flat[1] = value
        with pytest.raises(ValidationError, match=re.escape(name)):
            ObservationalDataset(arrays["X"], np.array([0, 1, 0]), arrays["Y"],
                                 arrays["mu0"], arrays["mu1"])

    def test_mu0_without_mu1_rejected(self):
        with pytest.raises(ValidationError):
            ObservationalDataset(
                np.ones((2, 1)), np.array([0, 1]), np.zeros(2), mu0=np.zeros(2)
            )

    def test_subset_keeps_ground_truth(self):
        ds = generate_synthetic(SyntheticConfig(n=10, d=2), np.random.default_rng(0))
        sub = ds.subset(np.array([4, 1]))
        np.testing.assert_array_equal(sub.true_ite, ds.true_ite[[4, 1]])
        np.testing.assert_array_equal(sub.X, ds.X[[4, 1]])


class TestCsv:
    def test_handcrafted_round_trip(self, tmp_path):
        path = tmp_path / "toy.csv"
        save_csv(toy_dataset(), path)
        loaded = load_csv(path)
        assert loaded.n == 3 and loaded.d == 2
        np.testing.assert_array_equal(loaded.X, toy_dataset().X)
        np.testing.assert_array_equal(loaded.W, [1, 0, 1])
        np.testing.assert_array_equal(loaded.Y, [0.5, 1.5, 2.5])

    def test_ground_truth_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n=20, d=3), np.random.default_rng(1))
        path = tmp_path / "gt.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.mu0, ds.mu0)
        np.testing.assert_array_equal(loaded.mu1, ds.mu1)
        np.testing.assert_array_equal(loaded.true_ite, ds.true_ite)

    def test_non_binary_treatment_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,w,y\n1.0,2,3.0\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    def test_missing_outcome_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,w\n1.0,0\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,w,y\n1.0,0,2.0\noops,1,3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.column == "x1"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_nonfinite_cell_carries_location(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            "x1,x2,w,y,mu0,mu1\n"
            "1.0,2.0,0,2.0,0.0,1.0\n"
            f"1.0,2.0,1,3.0,0.0,{cell}\n"
            f"1.0,{cell},1,{cell},0.0,1.0\n"
        )
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 2 and err.value.column == "mu1"
        path.write_text(f"y,x1,w\n{cell},{cell},0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 1 and err.value.column == "y"

    def test_mu0_without_mu1_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,w,y,mu0\n1.0,0,2.0,0.5\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, column",
        [("x1,w,x1,y\n1.0,1,2.0,3.0\n", "x1"), ("w,x1,w,y\noops,1.0,1,3.0\n", "w")],
        ids=["feature", "treatment"],
    )
    def test_repeated_header_name_is_schema_error(self, tmp_path, text, column):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"column '{column}' appears more than once"):
            load_csv(path)

    def test_oversized_cell_in_a_refused_file_names_its_row(self, tmp_path):
        # the cell exceeds csv's 131,072-character field limit; the short row sends
        # the file to the per-cell reader, which cannot read that cell
        path = tmp_path / "bad.csv"
        path.write_text("x1,w,y\n1.0,0,2.0\n" + "1" * 200_000 + ",0,2.0\n1.0,0\n")
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            load_csv(path)
        assert err.value.row == 2

    @pytest.mark.parametrize(
        "error",
        [
            SchemaError("no feature columns"),
            ParseError(3, "x1", "not a number: 'bad'"),
            ValidationError("treatment values must be 0 or 1"),
            ConfigError("k must be at least 1"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_errors_survive_pickling(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error) and str(copy) == str(error)
        assert vars(copy) == vars(error)

    def test_unclaimed_columns_are_features(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c,w,y\n1,2,3,0,4\n5,6,7,1,8\n")
        ds = load_csv(path)
        assert ds.d == 3
        np.testing.assert_array_equal(ds.X[0], [1.0, 2.0, 3.0])

    @given(
        X=npst.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 4)),
            elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_save_load_is_bit_exact(self, tmp_path_factory, X, seed):
        rng = np.random.default_rng(seed)
        n = X.shape[0]
        ds = ObservationalDataset(X, rng.integers(0, 2, n), rng.normal(size=n))
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.X, ds.X)
        np.testing.assert_array_equal(loaded.Y, ds.Y)
        np.testing.assert_array_equal(loaded.W, ds.W)


def reference_save_csv(dataset, path):
    """The row-at-a-time `csv.writer` loop that `save_csv` must match byte for byte."""
    header = [f"x{j + 1}" for j in range(dataset.d)] + ["w", "y"]
    if dataset.true_ite is not None:
        header += ["mu0", "mu1"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.X[i]]
            row.append(str(int(dataset.W[i])))
            row.append(repr(float(dataset.Y[i])))
            if dataset.true_ite is not None:
                row.append(repr(float(dataset.mu0[i])))
                row.append(repr(float(dataset.mu1[i])))
            writer.writerow(row)


def reference_load_csv(path):
    """The per-cell reader that `load_csv` must agree with, result and error alike."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: no header row") from None
        rows = list(reader)
    positions = {name: i for i, name in enumerate(header)}
    for i, name in enumerate(header):
        if name in header[:i]:
            raise SchemaError(f"column {name!r} appears more than once in the header")
    for required in ("w", "y"):
        if required not in positions:
            raise SchemaError(f"missing required column {required!r}")
    features = [name for name in header if name not in {"w", "y", "mu0", "mu1"}]
    if not features:
        raise SchemaError("no feature columns")
    has_mu = "mu0" in positions
    if has_mu != ("mu1" in positions):
        raise SchemaError("mu0 and mu1 columns must appear together")
    n = len(rows)
    if n == 0:
        raise SchemaError("no data rows")

    def cell(raw, row, column):
        try:
            return float(raw)
        except ValueError:
            raise ParseError(row, column, f"not a number: {raw!r}") from None

    X, W, Y = np.empty((n, len(features))), np.empty(n), np.empty(n)
    mu0, mu1 = (np.empty(n), np.empty(n)) if has_mu else (None, None)
    width = len(header)
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(i, "<row>", f"expected {width} cells, got {len(row)}")
        for j, name in enumerate(features):
            X[i - 1, j] = cell(row[positions[name]], i, name)
        w = cell(row[positions["w"]], i, "w")
        if w not in (0.0, 1.0):
            raise ValidationError(f"row {i}: treatment must be 0 or 1, got {w}")
        W[i - 1] = w
        Y[i - 1] = cell(row[positions["y"]], i, "y")
        if has_mu:
            mu0[i - 1] = cell(row[positions["mu0"]], i, "mu0")
            mu1[i - 1] = cell(row[positions["mu1"]], i, "mu1")
    parsed = {name: X[:, j] for j, name in enumerate(features)}
    parsed["y"] = Y
    if has_mu:
        parsed["mu0"], parsed["mu1"] = mu0, mu1
    bad = ~np.isfinite(np.column_stack(list(parsed.values())))
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        column = min((name for name, b in zip(parsed, bad[i]) if b), key=positions.get)
        raise ParseError(i + 1, column, f"not a finite number: {rows[i][positions[column]]!r}")
    return ObservationalDataset(X, W, Y, mu0, mu1)


def read_outcome(load, path):
    """Every column's dtype, shape and bytes, or the error's type, location and text."""
    try:
        ds = load(path)
    except ValueError as err:
        return type(err), getattr(err, "row", None), getattr(err, "column", None), str(err)
    return [
        None if a is None else (a.dtype.str, a.shape, a.tobytes())
        for a in (ds.X, ds.W, ds.Y, ds.mu0, ds.mu1, ds.true_ite)
    ]


GOOD_ROWS = ["1.5,-2.0,0,3.0,0.5,1.5", "0.25,4.0,1,-1.0,0.0,2.0", "7.0,8.0,1,9.0,1.0,1.0"]
HEADER = "x1,x2,w,y,mu0,mu1"
NAN_ROW, W2_ROW = "nan,2.0,0,3.0,0.0,1.0", "1.0,2.0,2,3.0,0.0,1.0"


def _body(*rows, end="\r\n"):
    return end.join([HEADER, *rows]) + end


class TestCsvAgainstReference:
    """`save_csv` and `load_csv` against the row-at-a-time code they replaced."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(_body(*GOOD_ROWS), id="valid"),
            pytest.param(_body(GOOD_ROWS[0], "", GOOD_ROWS[1]), id="blank-line-mid-file"),
            pytest.param(_body(*GOOD_ROWS) + "\r\n", id="trailing-blank-line"),
            pytest.param(_body("", *GOOD_ROWS), id="blank-first-line"),
            pytest.param(HEADER + "\n\n", id="only-a-blank-line"),
            pytest.param(HEADER + "\n", id="header-only"),
            pytest.param(_body(GOOD_ROWS[0], "#,1.0,1,2.0,0.0,1.0"), id="hash-cell"),
            pytest.param(_body(GOOD_ROWS[0], '"2.5",1.0,1,2.0,0.0,1.0'), id="quoted-cell"),
            pytest.param(_body(GOOD_ROWS[0], "1_0,1.0,1,2.0,0.0,1.0"), id="underscore-cell"),
            pytest.param(_body(" 1.5 ,\t-2.0, 0 ,3.0\t,0.5,1.5"), id="whitespace-padded"),
            pytest.param(_body("\xa01.5\u3000,-2.0,0,3.0,0.5,1.5"), id="unicode-space-padded"),
            pytest.param(_body("1.5\x1f,-2.0,0,3.0,0.5,1.5"), id="separator-padded"),
            pytest.param(_body("\u0661.5,-2.0,0,3.0,0.5,1.5"), id="unicode-digit"),
            pytest.param(_body(*GOOD_ROWS, end="\r"), id="cr-only-line-ends"),
            pytest.param(_body(*GOOD_ROWS, end="\n"), id="lf-line-ends"),
            pytest.param(_body(*GOOD_ROWS)[:-2], id="no-final-line-end"),
            pytest.param(_body(GOOD_ROWS[0], "1.0,2.0,1,3.0,0.0"), id="short-row"),
            pytest.param(_body(GOOD_ROWS[0], "1.0,2.0,1,3.0,0.0,1.0,9"), id="long-row"),
            pytest.param(_body(GOOD_ROWS[0], ",2.0,1,3.0,0.0,1.0"), id="empty-cell"),
            pytest.param(_body(GOOD_ROWS[0], W2_ROW), id="w2"),
            pytest.param(_body(NAN_ROW, W2_ROW), id="w2-after-nan"),
            pytest.param(_body(W2_ROW, NAN_ROW), id="nan-after-w2"),
            pytest.param(_body("1.0,2.0,-0.0,3.0,0.0,1.0"), id="negative-zero-w"),
            pytest.param(_body("1.0,2.0,1,1e500,0.0,1.0"), id="overflowing-cell"),
            pytest.param(_body("1.0,2.0,1,3.0,-1e308,1e308"), id="overflowing-true-ite"),
            pytest.param("x1,w,x1,y\r\n1.0,1,2.0,3.0\r\n", id="duplicate-feature-name"),
            pytest.param("w,x1,w,y\r\noops,1.0,1,3.0\r\n", id="unread-duplicate-treatment"),
        ],
    )
    def test_reader_matches_reference(self, tmp_path, text):
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a file is either read or refused, silently
            got = read_outcome(load_csv, path)
        assert got == read_outcome(reference_load_csv, path)

    @pytest.mark.parametrize("end", ["\r\n", "\n", "\r"])
    def test_well_formed_file_takes_the_one_pass_path(self, tmp_path, monkeypatch, end):
        def refuse(*args):
            raise AssertionError("the per-cell reader ran on a well-formed file")

        monkeypatch.setattr("dcnpd.data._parse_cells", refuse)
        path = tmp_path / "d.csv"
        path.write_bytes(_body(*GOOD_ROWS, " 2.5 ,\t-1.0,0,3.0,0.5,1.5", end=end).encode())
        assert load_csv(path).n == 4

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_reader_matches_reference_on_drawn_files(self, tmp_path_factory, data):
        # valid rows of x1, w, y, x2, then up to two faults: an odd cell, a treatment
        # of 2, a short or long row, or a blank line after the row
        numbers = st.sampled_from(["0.5", "-0.0", "1e-300", "5e-324", "-1e300", " 2 ", "3"])
        treatment = st.sampled_from(["0", "1", "1.0", "-0.0"])
        rows = [
            [data.draw(numbers), data.draw(treatment), data.draw(numbers), data.draw(numbers)]
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        odd = st.sampled_from(
            ["2", "1_0", '"1"', "#", "", "nan", "-inf", "1e500", "\x1c1", "1\x1f", "x"]
        )
        for _ in range(data.draw(st.integers(0, 2))):
            row = rows[data.draw(st.integers(0, len(rows) - 1))]
            fault = data.draw(st.sampled_from(["cell", "treatment", "short", "long", "blank"]))
            if fault == "cell":
                row[data.draw(st.integers(0, len(row) - 1))] = data.draw(odd)
            elif fault == "treatment":
                row[1] = "2"
            elif fault == "short":
                row.pop()
            elif fault == "long":
                row.append("1")
            else:
                row[-1] += "\n"
        ends = st.sampled_from(["\r\n", "\n", "\r"])
        text = "x1,w,y,x2\r\n" + "".join(",".join(row) + data.draw(ends) for row in rows)
        path = tmp_path_factory.mktemp("drawn") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(load_csv, path) == read_outcome(reference_load_csv, path)

    @given(
        X=npst.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 3)),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300]),
            ),
        ),
        mu=st.lists(st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, -1e300, 0.1]), min_size=12),
        seed=st.integers(0, 2**32 - 1),
        ground_truth=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_writer_matches_reference(self, tmp_path_factory, X, mu, seed, ground_truth):
        rng = np.random.default_rng(seed)
        n = X.shape[0]
        mu0, mu1 = (np.array(mu[:n]), np.array(mu[6 : 6 + n])) if ground_truth else (None, None)
        ds = ObservationalDataset(X, rng.integers(0, 2, n), X[:, 0][::-1], mu0, mu1)
        folder = tmp_path_factory.mktemp("write")
        save_csv(ds, folder / "new.csv")
        reference_save_csv(ds, folder / "old.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
        assert read_outcome(load_csv, folder / "new.csv") == read_outcome(lambda _: ds, None)

    def test_writer_matches_reference_across_row_blocks(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n=2 * ROW_BLOCK + 3, d=2), np.random.default_rng(2))
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert read_outcome(load_csv, tmp_path / "new.csv") == read_outcome(lambda _: ds, None)


def record_own_blocks(monkeypatch, ds, fail_at=None, error=ValueError) -> tuple[list, list]:
    """The first rows of the blocks formatted here, and the workers held when block ``fail_at``
    raises ``error``, once. Before its first block this process waits until every worker held
    has replied, so that a block goes to a worker however long one takes to start."""
    starts, held, format_rows = [], [], data._format_rows

    def recorded(X, W, tail):
        if not starts:
            for worker in set(pool._live).difference(pool._idle):
                select.select([worker], [], [], 60)
        starts.append(int(np.flatnonzero(ds.X[:, 0] == X[0, 0])[0]))
        if starts[-1] == fail_at and not held:
            held.extend(set(pool._live).difference(pool._idle))
            raise error("formatting failed")
        return format_rows(X, W, tail)

    monkeypatch.setattr(data, "_format_rows", recorded)
    return starts, held


def pooled(monkeypatch, cpus: int | None = None) -> None:
    """Any multi-block write takes workers, on ``cpus`` usable CPUs if given."""
    monkeypatch.setattr(data, "POOL_MIN_VALUES", 0)
    if cpus is not None:
        monkeypatch.setattr(data.os, "sched_getaffinity", lambda pid: set(range(cpus)))


def killed(workers) -> None:
    """SIGKILL the workers and wait until each has died, without reaping it."""
    for worker in workers:
        os.kill(worker.proc.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.proc.pid, os.WEXITED | os.WNOWAIT)


class TestCsvRowBlocks:
    """`save_csv` hands each block to a free `pool` worker, or formats it here."""

    @pytest.mark.parametrize("n", [2 * ROW_BLOCK + 3, ROW_BLOCK + 1])
    @pytest.mark.parametrize("cpus", [None, 3])  # None: the CPUs this process may use
    def test_pooled_blocks_match_reference(self, tmp_path, monkeypatch, n, cpus):
        ds = generate_synthetic(SyntheticConfig(n=n, d=2), np.random.default_rng(n))
        pooled(monkeypatch, cpus)
        own, _ = record_own_blocks(monkeypatch, ds)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        blocks = list(range(0, n, ROW_BLOCK))
        if min(len(blocks), cpus or len(os.sched_getaffinity(0))) > 1:
            assert set(own) < set(blocks)  # a worker formatted one at least
        else:
            assert own == blocks
        assert not set(pool._live).difference(pool._idle)

    def test_small_and_one_block_writes_start_no_worker(self, tmp_path):
        # in a fresh interpreter, so no earlier write has started a worker
        script = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from dcnpd import pool
from dcnpd.data import POOL_MIN_VALUES, ROW_BLOCK, SyntheticConfig, generate_synthetic, save_csv
wide = POOL_MIN_VALUES // ROW_BLOCK  # ROW_BLOCK rows of it are POOL_MIN_VALUES values at least
counts = []
for n, d in ((ROW_BLOCK, wide), (ROW_BLOCK + 1, 2), (ROW_BLOCK + 1, wide)):
    save_csv(generate_synthetic(SyntheticConfig(n=n, d=d), np.random.default_rng(n)), sys.argv[2])
    counts.append(len(pool._live))
print(json.dumps(counts))
"""
        src = str(Path(data.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, src, str(tmp_path / "d.csv")],
            capture_output=True, text=True, check=False, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        one_block, small, large = json.loads(result.stdout)
        assert one_block == small == 0
        # the large two-block write, the script's check that it can see a worker start
        assert large == min(2, len(os.sched_getaffinity(0))) - 1

    def test_a_killed_worker_fails_one_write_then_is_replaced(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(n=2 * ROW_BLOCK + 3, d=2), np.random.default_rng(5))
        reference_save_csv(ds, tmp_path / "old.csv")
        pooled(monkeypatch, 2)
        save_csv(ds, tmp_path / "new.csv")
        idle = list(pool._idle)
        assert idle
        killed(idle)
        with pytest.raises(RuntimeError, match=r"worker process lost \(\w+Error"):
            save_csv(ds, tmp_path / "new.csv")
        assert not set(idle) & pool._live
        save_csv(ds, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_a_failure_here_kills_the_worker_holding_a_block(self, tmp_path, monkeypatch, error):
        ds = generate_synthetic(SyntheticConfig(n=2 * ROW_BLOCK + 3, d=2), np.random.default_rng(6))
        pooled(monkeypatch, 2)
        own, held = record_own_blocks(monkeypatch, ds, fail_at=2 * ROW_BLOCK, error=error)
        with pytest.raises(error, match="formatting failed"):
            save_csv(ds, tmp_path / "new.csv")
        assert own == [0, 2 * ROW_BLOCK] and len(held) == 1  # block 1 was in flight
        assert held[0].proc.returncode is not None
        assert held[0] not in pool._live and held[0] not in pool._idle

    def test_a_failure_before_any_block_is_sent_keeps_the_worker(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(n=2 * ROW_BLOCK + 3, d=2), np.random.default_rng(7))
        reference_save_csv(ds, tmp_path / "old.csv")
        pooled(monkeypatch, 2)
        own, held = record_own_blocks(monkeypatch, ds, fail_at=0)
        with pytest.raises(ValueError, match="formatting failed"):
            save_csv(ds, tmp_path / "new.csv")
        assert own == [0] and len(held) == 1
        assert held[0] in pool._idle and held[0].proc.poll() is None
        save_csv(ds, tmp_path / "new.csv")  # takes that worker again, owing an empty block
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len(own[1:]) < 3 and held[0] in pool._idle and not held[0].owes  # it took a block


class TestGenerator:
    def test_shapes_and_ground_truth_identity(self):
        ds = generate_synthetic(SyntheticConfig(n=50, d=7), np.random.default_rng(3))
        assert ds.X.shape == (50, 7) and ds.n == 50 and ds.d == 7
        np.testing.assert_array_equal(ds.true_ite, ds.mu1 - ds.mu0)

    def test_linear_offset_effect_is_two_plus_x1(self):
        ds = generate_synthetic(
            SyntheticConfig(n=100, d=4, surface="LinearOffset"), np.random.default_rng(4)
        )
        # true_ite is computed as mu1 - mu0, so cancellation leaves ulp noise
        np.testing.assert_allclose(ds.true_ite, 2.0 + ds.X[:, 0], rtol=1e-12, atol=1e-12)

    def test_noiseless_outcome_equals_factual_mu(self):
        ds = generate_synthetic(
            SyntheticConfig(n=100, d=3, noise_std=0.0), np.random.default_rng(5)
        )
        np.testing.assert_array_equal(ds.Y, np.where(ds.W == 1, ds.mu1, ds.mu0))

    def test_exp_surface_control_mean_positive(self):
        ds = generate_synthetic(
            SyntheticConfig(n=200, d=5, surface="ExpSurface"), np.random.default_rng(6)
        )
        assert np.all(ds.mu0 > 0)

    def test_unbiased_assignment_near_half(self):
        n = 4000
        ds = generate_synthetic(
            SyntheticConfig(n=n, d=3, bias_strength=0.0), np.random.default_rng(7)
        )
        assert abs(ds.W.mean() - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_bias_correlates_treatment_with_direction(self):
        ds = generate_synthetic(
            SyntheticConfig(n=1000, d=5, bias_strength=3.0), np.random.default_rng(8)
        )
        along = ds.X.mean(axis=1)  # direction a is uniform over features
        corr = np.corrcoef(ds.W, along)[0, 1]
        assert corr > 0.3

    def test_selection_bias_grows_with_strength(self):
        gaps = []
        for strength in (0.0, 1.0, 3.0):
            ds = generate_synthetic(
                SyntheticConfig(n=5000, d=4, bias_strength=strength), np.random.default_rng(9)
            )
            along = ds.X.mean(axis=1)
            gaps.append(abs(along[ds.W == 1].mean() - along[ds.W == 0].mean()))
        assert gaps[0] <= gaps[1] + 1e-3 and gaps[1] <= gaps[2] + 1e-3

    def test_fixed_covariates_are_reused(self):
        cfg = SyntheticConfig(n=30, d=2)
        X = np.random.default_rng(99).standard_normal((30, 2))
        a = generate_synthetic(cfg, np.random.default_rng(1), covariates=X)
        b = generate_synthetic(cfg, np.random.default_rng(2), covariates=X)
        np.testing.assert_array_equal(a.X, X)
        np.testing.assert_array_equal(b.X, X)
        assert not np.array_equal(a.Y, b.Y)  # outcomes still redrawn

    def test_covariate_shape_checked(self):
        with pytest.raises(ValidationError):
            generate_synthetic(
                SyntheticConfig(n=5, d=2), np.random.default_rng(0), covariates=np.ones((4, 2))
            )

    def test_same_seed_same_dataset(self):
        cfg = SyntheticConfig(n=40, d=6)
        a, b = (generate_synthetic(cfg, np.random.default_rng(11)) for _ in range(2))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.Y, b.Y)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(n=1)
        with pytest.raises(ValidationError):
            SyntheticConfig(d=0)
        with pytest.raises(ValidationError):
            SyntheticConfig(noise_std=-1.0)
        with pytest.raises(ValidationError, match="noise_std"):
            SyntheticConfig(noise_std=float("nan"))
        with pytest.raises(ValidationError, match="bias_strength"):
            SyntheticConfig(bias_strength=float("inf"))
        with pytest.raises(ValidationError):
            SyntheticConfig(surface="Cubic")


class TestSplit:
    def test_ceiling_sizes(self):
        ds = generate_synthetic(SyntheticConfig(n=10, d=2), np.random.default_rng(0))
        train, test = train_test_split(ds, 0.8, np.random.default_rng(0))
        assert (train.n, test.n) == (8, 2)

    def test_747_splits_like_the_benchmark(self):
        ds = generate_synthetic(SyntheticConfig(n=747, d=3), np.random.default_rng(0))
        train, test = train_test_split(ds, 0.8, np.random.default_rng(0))
        assert (train.n, test.n) == (598, 149)

    def test_same_seed_same_partition(self):
        ds = generate_synthetic(SyntheticConfig(n=25, d=2), np.random.default_rng(0))
        a = train_test_split(ds, 0.6, np.random.default_rng(5))
        b = train_test_split(ds, 0.6, np.random.default_rng(5))
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].X, b[1].X)

    def test_empty_side_rejected(self):
        ds = generate_synthetic(SyntheticConfig(n=2, d=2), np.random.default_rng(0))
        with pytest.raises(ValueError):
            train_test_split(ds, 0.9, np.random.default_rng(0))

    def test_fraction_domain(self):
        ds = generate_synthetic(SyntheticConfig(n=10, d=2), np.random.default_rng(0))
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                train_test_split(ds, bad, np.random.default_rng(0))

    @given(st.integers(3, 60), st.floats(0.05, 0.95), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_is_exact(self, n, fraction, seed):
        k = math.ceil(fraction * n)
        if k <= 0 or k >= n:
            return
        X = np.arange(n, dtype=np.float64)[:, None]
        ds = ObservationalDataset(X, np.zeros(n, dtype=int), np.zeros(n))
        train, test = train_test_split(ds, fraction, np.random.default_rng(seed))
        ids = np.concatenate([train.X[:, 0], test.X[:, 0]])
        assert sorted(ids.astype(int).tolist()) == list(range(n))
        assert train.n == k


class TestStandardize:
    def test_two_point_column(self):
        ds = ObservationalDataset(
            np.array([[1.0], [3.0]]), np.array([0, 1]), np.zeros(2)
        )
        scaled, transform = standardize(ds)
        np.testing.assert_array_equal(scaled.X[:, 0], [-1.0, 1.0])
        np.testing.assert_array_equal(transform.mean, [2.0])
        np.testing.assert_array_equal(transform.std, [1.0])

    def test_constant_column_maps_to_zeros(self):
        ds = ObservationalDataset(
            np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]),
            np.array([0, 1, 0]),
            np.zeros(3),
        )
        scaled, transform = standardize(ds)
        np.testing.assert_array_equal(scaled.X[:, 0], np.zeros(3))
        assert transform.std[0] == 1.0

    def test_transform_of_mean_is_exactly_zero(self):
        ds = generate_synthetic(SyntheticConfig(n=30, d=4), np.random.default_rng(12))
        _, transform = standardize(ds)
        np.testing.assert_array_equal(transform.transform(transform.mean), np.zeros(4))

    def test_population_std_convention(self):
        ds = generate_synthetic(SyntheticConfig(n=50, d=3), np.random.default_rng(13))
        scaled, _ = standardize(ds)
        np.testing.assert_allclose(scaled.X.std(axis=0), 1.0, rtol=1e-12)
        np.testing.assert_allclose(scaled.X.mean(axis=0), 0.0, atol=1e-14)

    def test_width_mismatch_on_transform(self):
        ds = generate_synthetic(SyntheticConfig(n=10, d=3), np.random.default_rng(0))
        _, transform = standardize(ds)
        with pytest.raises(ValueError):
            transform.transform(np.ones(4))

    @pytest.mark.parametrize(
        "mean, std", [([0.0, 0.0], [1.0, math.inf]), ([0.0, math.nan], [1.0, 1.0])]
    )
    def test_non_finite_fit_is_rejected(self, mean, std):
        with pytest.raises(ValueError, match="feature 1: mean .* must be finite"):
            Standardization(mean, std)

    def test_overflowing_feature_is_rejected_not_zeroed(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 3))
        X[:, 0] *= 1e200  # the variance overflows to inf
        ds = ObservationalDataset(X, np.arange(40) % 2, rng.standard_normal(40))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="feature 0: .* std inf must be finite"):
                standardize(ds)

    def test_round_trip_dict(self):
        ds = generate_synthetic(SyntheticConfig(n=10, d=3), np.random.default_rng(0))
        _, transform = standardize(ds)
        clone = Standardization.from_dict(transform.to_dict())
        np.testing.assert_array_equal(clone.mean, transform.mean)
        np.testing.assert_array_equal(clone.std, transform.std)
