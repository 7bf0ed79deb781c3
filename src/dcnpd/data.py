"""Observational datasets: CSV I/O, synthetic generation, splitting, scaling.

A dataset is a feature matrix X, a binary treatment vector W, factual
outcomes Y, and (when ground truth is known) the potential-outcome means
mu0/mu1 with their difference as the true individualized effect. CSV files
use one header row, columns ``x1..xd, w, y`` and optionally ``mu0, mu1``,
UTF-8, period decimals.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import pool

SURFACES = ("LinearOffset", "ExpSurface")

# per-realization coefficient draw: mostly-zero sparse weights
BETA_VALUES = (0.0, 0.1, 0.2, 0.3, 0.4)
BETA_PROBS = (0.6, 0.1, 0.1, 0.1, 0.1)


class SchemaError(ValueError):
    """A required column is missing or the column set is inconsistent."""


class ParseError(ValueError):
    """A cell failed numeric parsing; carries 1-based data row and column name."""

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column
        self.detail = message

    def __reduce__(self):  # unpickle through __init__'s three arguments
        return type(self), (self.row, self.column, self.detail)


class ValidationError(ValueError):
    """Parsed values violate a dataset invariant (e.g. non-binary treatment)."""


def check_count(name: str, value, least: int = 1, error: type = ValidationError) -> None:
    """Raise ``error`` unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")


def check_widths(name: str, widths, error: type = ValidationError) -> None:
    """Raise ``error`` unless every entry of ``widths`` is a layer width (`check_count`)."""
    for width in widths:
        check_count(f"each {name} entry", width, error=error)


def _require_finite(**arrays: np.ndarray) -> None:
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} contains NaN or infinite values")


@dataclass
class ObservationalDataset:
    """n subjects: features X (n x d), treatment W in {0,1}, factual outcome Y.

    ``mu0``/``mu1`` are optional noiseless potential-outcome means; when both
    are present ``true_ite`` is derived as their elementwise difference.
    """

    X: np.ndarray
    W: np.ndarray
    Y: np.ndarray
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    true_ite: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValidationError("X must be 2-D (subjects x features)")
        _require_finite(X=self.X)
        n = self.X.shape[0]
        self.W = np.asarray(self.W)
        if self.W.shape != (n,):
            raise ValidationError("W length does not match X rows")
        if not np.isin(self.W, (0, 1)).all():
            raise ValidationError("treatment values must be 0 or 1")
        self.W = self.W.astype(np.int64)
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.Y.shape != (n,):
            raise ValidationError("Y length does not match X rows")
        _require_finite(Y=self.Y)
        if (self.mu0 is None) != (self.mu1 is None):
            raise ValidationError("mu0 and mu1 must be supplied together")
        if self.mu0 is not None:
            self.mu0 = np.asarray(self.mu0, dtype=np.float64)
            self.mu1 = np.asarray(self.mu1, dtype=np.float64)
            if self.mu0.shape != (n,) or self.mu1.shape != (n,):
                raise ValidationError("mu0/mu1 lengths do not match X rows")
            _require_finite(mu0=self.mu0, mu1=self.mu1)
            with np.errstate(over="ignore"):
                self.true_ite = self.mu1 - self.mu0
            if not np.isfinite(self.true_ite).all():
                raise ValidationError("mu1 - mu0 overflows: true_ite would not be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "ObservationalDataset":
        """Row selection preserving any ground-truth columns."""
        indices = np.asarray(indices)
        return ObservationalDataset(
            self.X[indices],
            self.W[indices],
            self.Y[indices],
            None if self.mu0 is None else self.mu0[indices],
            None if self.mu1 is None else self.mu1[indices],
        )


# rows per CSV block, formatted here or by a `pool` worker, and per k-NN
# distance block, so memory does not grow with n; the k-NN spans, one per
# usable CPU, are whole blocks of it
ROW_BLOCK = 4096
# a CSV write of fewer values (rows times columns) starts no `pool` worker: the
# CPU that a worker takes while it starts then costs more than it saves. On a
# 2-core Xeon, timed in fresh processes in alternated pairs with this check off,
# a write that started one was mostly no faster below 500k values and mostly
# faster from about 600k, at d=5, 16 and 25
POOL_MIN_VALUES = 600_000
# numpy strips these ASCII separators around a number as whitespace; float() rejects them
_SEPARATORS = b"\x1c\x1d\x1e\x1f"


def _parse_array(path, first: str, rest: Iterator[str], width: int, w: int) -> np.ndarray | None:
    """Every cell in one `np.loadtxt` pass, or None to leave the file to `_parse_cells`.

    loadtxt skips blank lines and reads a subset of what `float` reads, to the same bits;
    a result is kept only with one row per line and no cell the per-cell reader refuses.
    """
    if not first.strip():  # refused anyway; and an all-blank body makes loadtxt warn
        return None
    with open(path, "rb") as fh:
        if any(c in block for block in iter(lambda: fh.read(1 << 20), b"") for c in _SEPARATORS):
            return None
    counter = itertools.count()
    lines = (line for line, _ in zip(itertools.chain([first], rest), counter))
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    # zip draws each line before its count, so the counter stops at the line count
    ok = table.shape == (next(counter), width) and np.isin(table[:, w], (0.0, 1.0)).all()
    return table if ok and np.isfinite(table).all() else None


def _parse_cells(path, width: int, names: list[str], positions: dict) -> np.ndarray:
    """The named columns, cell by cell; the error names the first bad row and column."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows.extend(csv.reader(fh))
        except csv.Error as e:  # e.g. a cell over csv's field size limit
            raise ParseError(len(rows), "<row>", str(e)) from None
    del rows[0]
    values = np.empty((len(rows), len(names)))
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(i, "<row>", f"expected {width} cells, got {len(row)}")
        for j, name in enumerate(names):
            raw = row[positions[name]]
            try:
                values[i - 1, j] = value = float(raw)
            except ValueError:
                raise ParseError(i, name, f"not a number: {raw!r}") from None
            if name == "w" and value not in (0.0, 1.0):
                raise ValidationError(f"row {i}: treatment must be 0 or 1, got {value}")
    # whole-array checks; only a failing file pays for locating the first bad cell
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        column = min((name for name, b in zip(names, bad[i]) if b), key=positions.get)
        raise ParseError(i + 1, column, f"not a finite number: {rows[i][positions[column]]!r}")
    return values


def load_csv(path) -> ObservationalDataset:
    """Read a dataset; columns other than ``w``, ``y``, ``mu0`` and ``mu1`` are features."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("empty file: no header row") from None
        except csv.Error as e:
            raise SchemaError(f"unreadable header row: {e}") from None
        positions = {name: i for i, name in enumerate(header)}
        if len(positions) < len(header):  # positions keeps each name's last column
            repeated = next(name for i, name in enumerate(header) if positions[name] != i)
            raise SchemaError(f"column {repeated!r} appears more than once in the header")
        for required in ("w", "y"):
            if required not in positions:
                raise SchemaError(f"missing required column {required!r}")
        features = [name for name in header if name not in ("w", "y", "mu0", "mu1")]
        if not features:
            raise SchemaError("no feature columns")
        has_mu = "mu0" in positions
        if has_mu != ("mu1" in positions):
            raise SchemaError("mu0 and mu1 columns must appear together")
        first = fh.readline()
        if not first:
            raise SchemaError("no data rows")
        table = _parse_array(path, first, fh, len(header), positions["w"])

    names = features + ["w", "y"] + (["mu0", "mu1"] if has_mu else [])
    if table is None:
        values = _parse_cells(path, len(header), names, positions)
    else:
        values = table[:, [positions[name] for name in names]]
    d = len(features)
    columns = [values[:, j].copy() for j in range(d, len(names))]  # w, y, then mu0 and mu1
    return ObservationalDataset(values[:, :d].copy(), *columns)


def _format_rows(X: np.ndarray, W: np.ndarray, tail: np.ndarray) -> str:
    """The CSV lines of a block of rows: each float's repr, CRLF line ends as in `csv`."""
    return "".join(
        f"{','.join(map(repr, x))},{w},{','.join(map(repr, rest))}\r\n"
        for x, w, rest in zip(X.tolist(), W.tolist(), tail.tolist())
    )


def save_csv(dataset: ObservationalDataset, path) -> None:
    """Write ``x1..xd, w, y[, mu0, mu1]``, `ROW_BLOCK` rows at a time, in order.

    With k usable CPUs, up to k - 1 `pool` workers format blocks beside this process.
    Each block goes to a worker free at its turn, or is formatted here, so a worker
    still starting delays nothing; a worker holds one block (two in flight could fill
    both pipes), and the blocks are written in order, so the bytes do not depend on k.
    A file of one block, or one CPU, takes no worker; one of under `POOL_MIN_VALUES`
    values starts none.
    """
    header = [f"x{j + 1}" for j in range(dataset.d)] + ["w", "y"]
    tail = [dataset.Y]
    if dataset.true_ite is not None:
        header += ["mu0", "mu1"]
        tail += [dataset.mu0, dataset.mu1]

    def rows(block: slice) -> tuple:
        return dataset.X[block], dataset.W[block], np.column_stack([c[block] for c in tail])

    starts = range(0, dataset.n, ROW_BLOCK)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        taken, ahead = [], []  # ahead: the blocks not yet written, text or the worker formatting it
        try:
            for _ in range(min(len(starts), len(os.sched_getaffinity(0))) - 1):
                if not pool._idle and dataset.n * len(header) < POOL_MIN_VALUES:
                    break
                worker = pool._take()
                if not worker.owes:  # the reply to an empty block says a new worker has started
                    worker.start("dcnpd.data", "_format_rows", *rows(slice(0)))
                    worker.owes = True
                taken.append(worker)
            for start in starts:
                free = [w for w in taken if not w.owes and w not in ahead]
                free = free or pool._ready([w for w in taken if w.owes], 0)
                block = rows(slice(start, start + ROW_BLOCK))
                if free:
                    ahead.append(free[0])
                    free[0].start("dcnpd.data", "_format_rows", *block)
                else:
                    ahead.append(_format_rows(*block))
                while ahead and (
                    len(ahead) > len(taken)
                    or isinstance(ahead[0], str)
                    or pool._ready(ahead[:1], 0)
                ):
                    fh.write(ahead[0] if isinstance(ahead[0], str) else ahead[0].result())
                    ahead.pop(0)
            for block in ahead:
                fh.write(block if isinstance(block, str) else block.result())
        except BaseException:  # a worker holding a block must not go back to the idle ones
            for worker in taken:
                if worker in ahead:
                    worker.close(kill=True)
            raise
        finally:
            for worker in taken:
                pool._give(worker)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator knobs; there is no seed here: `generate_synthetic` takes its stream as ``rng``."""

    n: int = 750
    d: int = 25
    bias_strength: float = 3.0
    noise_std: float = 1.0
    surface: str = "LinearOffset"

    def __post_init__(self):
        check_count("n", self.n, least=2)
        check_count("d", self.d)
        for name in ("bias_strength", "noise_std"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be non-negative and finite")
        if self.surface not in SURFACES:
            raise ValidationError(f"surface must be one of {SURFACES}")


def generate_synthetic(
    config: SyntheticConfig,
    rng: np.random.Generator,
    covariates: np.ndarray | None = None,
) -> ObservationalDataset:
    """Draw a biased observational dataset with known potential outcomes.

    Treatment assignment follows p(x) = sigmoid(bias_strength * x'a) along
    the fixed direction a = 1/sqrt(d), so larger bias_strength means treated
    and control covariates drift further apart. Surfaces:

    - LinearOffset: mu0 = x'b, mu1 = x'b + 2 + x_1
    - ExpSurface:   mu0 = exp((x + 1/2)'b), mu1 = x'b

    with coefficients b drawn sparsely per call. Draw order is fixed
    (X, b, W, noise); ``covariates`` skips the X draw so repeated calls can
    redraw everything else over the same subjects.
    """
    n, d = config.n, config.d
    if covariates is None:
        X = rng.standard_normal((n, d))
    else:
        X = np.asarray(covariates, dtype=np.float64)
        if X.shape != (n, d):
            raise ValidationError(f"covariates must have shape {(n, d)}")
    beta = rng.choice(BETA_VALUES, size=d, p=BETA_PROBS)
    direction = np.full(d, 1.0 / math.sqrt(d))
    logits = config.bias_strength * (X @ direction)
    propensity = 1.0 / (1.0 + np.exp(-logits))
    W = (rng.random(n) < propensity).astype(np.int64)
    if config.surface == "LinearOffset":
        mu0 = X @ beta
        mu1 = mu0 + 2.0 + X[:, 0]
    else:
        mu0 = np.exp((X + 0.5) @ beta)
        mu1 = X @ beta
    noise = rng.standard_normal(n)
    Y = np.where(W == 1, mu1, mu0) + config.noise_std * noise
    return ObservationalDataset(X, W, Y, mu0, mu1)


def train_test_split(
    dataset: ObservationalDataset, train_fraction: float, rng: np.random.Generator
) -> tuple[ObservationalDataset, ObservationalDataset]:
    """Uniform shuffle, then the first ceil(fraction * n) rows become train."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    n = dataset.n
    n_train = math.ceil(train_fraction * n)
    if n_train <= 0 or n_train >= n:
        raise ValueError(f"split {n_train}/{n - n_train} leaves one side empty")
    perm = rng.permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


@dataclass
class Standardization:
    """Per-feature affine transform x -> (x - mean) / std fitted on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ValueError("mean and std must be 1-D and the same length")
        bad = np.flatnonzero(~(np.isfinite(self.mean) & np.isfinite(self.std)))
        if bad.size:
            j = bad[0]
            raise ValueError(
                f"feature {j}: mean {self.mean[j]} and std {self.std[j]} must be finite"
            )
        if np.any(self.std <= 0):
            raise ValueError("std entries must be positive")

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature width {X.shape[-1]} does not match fitted width {self.mean.shape[0]}"
            )
        return (X - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, payload: dict, name: str = "standardization") -> "Standardization":
        """The transform `to_dict` wrote, read from the bundle field ``name``, which errors name."""
        return cls(*(_json_numbers(payload[key], f"{name}.{key}") for key in ("mean", "std")))


def _json_numbers(value, name: str) -> np.ndarray:
    """A JSON list of numbers as a float array; a TypeError naming ``name`` otherwise."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a JSON list of numbers, got {value!r}")
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise TypeError(f"{name}[{i}] must be a number, got {item!r}")
    return np.asarray(value, dtype=np.float64)


def standardize(
    dataset: ObservationalDataset,
) -> tuple[ObservationalDataset, Standardization]:
    """Center/scale each feature to mean 0, population std 1.

    Exactly constant columns map to all-zeros with std recorded as 1, so
    the transform never divides by zero and stays invertible.
    """
    if dataset.n < 2:
        raise ValueError("standardization needs at least 2 rows")
    X = dataset.X
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population (ddof=0)
    constant = np.all(X == X[0], axis=0)
    mean = np.where(constant, X[0], mean)
    std = np.where(constant | (std == 0.0), 1.0, std)
    transform = Standardization(mean, std)
    scaled = ObservationalDataset(
        transform.transform(X), dataset.W, dataset.Y, dataset.mu0, dataset.mu1
    )
    return scaled, transform
