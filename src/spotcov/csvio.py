"""CSV readers and writers for the command-line front end.

All files carry a header row, use '.' decimals and UTF-8, and numbers are
written with ``repr(float)`` -- the shortest representation that parses
back to the identical double -- so a written file reproduces the in-memory
values exactly on reload.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, InvalidArgument
from .timeseries import (
    CovPath,
    PricePath,
    build_uniform_grid,
    vech,
    vech_labels,
)

_UNIFORM_RTOL = 1e-9


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_rows(path, header, rows) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_prices(path, prices: PricePath) -> None:
    d = prices.d
    header = ["time"] + [f"asset_{k + 1}" for k in range(d)]
    times = prices.grid.points
    rows = (
        [fmt(times[i])] + [fmt(v) for v in prices.values[i]]
        for i in range(times.shape[0])
    )
    write_rows(path, header, rows)


def write_cov_path(path, cov: CovPath) -> None:
    rows = ([fmt(t)] + [fmt(v) for v in row] for t, row in zip(cov.times, vech(cov.values)))
    write_rows(path, ["time"] + vech_labels(cov.d), rows)


def write_bands(path, times, lowers, uppers, d: int) -> None:
    """Per-element bands from (m, d, d) lower and upper arrays: lo/hi column pairs."""
    header = ["time"] + [f"{lab}_{end}" for lab in vech_labels(d) for end in ("lo", "hi")]
    pairs = np.stack([vech(lowers), vech(uppers)], axis=-1).reshape(len(times), -1)
    write_rows(path, header, ([fmt(t)] + [fmt(v) for v in row] for t, row in zip(times, pairs)))


def write_jump_times(path, jump_times, d: int = 2) -> None:
    header = ["time"] + [f"jump_{k + 1}" for k in range(d)]
    rows = ([fmt(t)] + [fmt(v) for v in vec] for t, vec in jump_times)
    write_rows(path, header, rows)


def write_cv_curve(path, candidates, values) -> None:
    write_rows(
        path,
        ["h", "cv_value"],
        ([fmt(h), fmt(v)] for h, v in zip(candidates, values)),
    )


def write_mc_table(path, cells) -> None:
    write_rows(
        path,
        ["kernel", "n", "delta", "imse", "isb", "reps"],
        (
            [c.kernel, str(c.n), fmt(c.delta), fmt(c.imse), fmt(c.isb), str(c.reps)]
            for c in cells
        ),
    )


def write_qq_pairs(path, theoretical, empirical) -> None:
    write_rows(
        path,
        ["theoretical", "empirical"],
        ([fmt(a), fmt(b)] for a, b in zip(theoretical, empirical)),
    )


def write_losses(path, losses: dict) -> None:
    rows = (
        [model, str(horizon), loss_name, fmt(value)]
        for (model, horizon, loss_name), value in sorted(losses.items())
    )
    write_rows(path, ["model", "horizon", "loss_name", "value"], rows)


def write_coefficients(path, models: dict, horizons) -> None:
    rows = []
    for name in sorted(models):
        m = models[name]
        for k in horizons:
            for j, a in enumerate(m.alpha, start=1):
                rows.append([name, str(k), f"alpha_{j}", fmt(a)])
            rows.append([name, str(k), "beta_d", fmt(m.beta_d)])
            rows.append([name, str(k), "beta_w", fmt(m.beta_w)])
            rows.append([name, str(k), "beta_m", fmt(m.beta_m)])
    write_rows(path, ["model", "horizon", "param", "value"], rows)


def write_factors(path, series) -> None:
    q = series.factors.shape[1]
    header = ["date"] + [f"f_{j + 1}" for j in range(q)]
    rows = (
        [str(int(series.dates[i]))] + [fmt(v) for v in series.factors[i]]
        for i in range(len(series))
    )
    write_rows(path, header, rows)


def read_prices(path) -> PricePath:
    """Parse a prices CSV (time, asset_1..asset_d) into a PricePath.

    Raises CsvFormatError with the offending line number on malformed
    content, and InvalidArgument on non-uniform timestamps.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(1, "file is empty") from None
        if not header or header[0].strip() != "time":
            raise CsvFormatError(1, "first column must be 'time'")
        d = len(header) - 1
        if d < 1:
            raise CsvFormatError(1, "need at least one asset column")
        times: list[float] = []
        values: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise CsvFormatError(lineno, f"expected {d + 1} fields, got {len(row)}")
            try:
                nums = [float(x) for x in row]
            except ValueError:
                raise CsvFormatError(lineno, "non-numeric value") from None
            times.append(nums[0])
            values.append(nums[1:])
    if len(times) < 3:
        raise CsvFormatError(len(times) + 1, "need at least 3 observation rows")
    t = np.asarray(times)
    n = t.shape[0] - 1
    T = float(t[-1])
    if t[0] != 0.0 or T <= 0:
        raise InvalidArgument("non-uniform timestamps: grid must start at 0 and end past 0")
    expected = np.arange(n + 1) * (T / n)
    if np.max(np.abs(t - expected)) > _UNIFORM_RTOL * max(T, 1.0):
        raise InvalidArgument("non-uniform timestamps: observations must be equally spaced")
    grid = build_uniform_grid(T, n)
    return PricePath(grid=grid, values=np.asarray(values))
