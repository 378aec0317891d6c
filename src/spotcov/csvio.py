"""CSV readers and writers for the command-line front end.

All files carry a header row, use '.' decimals and UTF-8.  One row writer
formats every cell: floats as ``repr(float)`` -- the shortest representation
that parses back to the identical double, so a written file reproduces the
in-memory values exactly on reload -- and anything else with ``str``.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, InvalidArgument
from .timeseries import (
    CovPath,
    PricePath,
    build_uniform_grid,
    vech,
    vech_indices,
    vech_labels,
)

_UNIFORM_RTOL = 1e-9


def write_rows(path, header, rows) -> None:
    """A header, then rows of plain values: floats (Python or numpy) as
    repr(float(x)), everything else as str(x)."""
    with Path(path).open("w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2 and rows.size:
            # a float list's repr is its cells' repr(float): one C-level repr formats the whole body
            f.write(repr(rows.tolist())[2:-2].replace("], [", "\n").replace(", ", ",") + "\n")
            return
        w.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row]
            for row in rows
        )


def write_prices(path, prices: PricePath) -> None:
    header = ["time"] + [f"asset_{k + 1}" for k in range(prices.d)]
    write_rows(path, header, np.column_stack([prices.grid.points, prices.values]))


def write_cov_path(path, cov: CovPath) -> None:
    write_rows(path, ["time"] + vech_labels(cov.d), np.column_stack([cov.times, vech(cov.values)]))


def write_bands(path, times, lowers, uppers) -> None:
    """Per-element bands from (m, d, d) lower and upper arrays: lo/hi column pairs."""
    d = np.shape(lowers)[-1]
    header = ["time"] + [f"{lab}_{end}" for lab in vech_labels(d) for end in ("lo", "hi")]
    rows, cols = vech_indices(d)  # not vech: a level whose (1 + level)/2 rounds to 1 gives infinite bands
    pairs = np.stack([lowers[:, rows, cols], uppers[:, rows, cols]], axis=-1).reshape(len(times), -1)
    write_rows(path, header, np.column_stack([times, pairs]))


def write_jump_times(path, jump_times, d: int = 2) -> None:
    header = ["time"] + [f"jump_{k + 1}" for k in range(d)]
    write_rows(path, header, ([t, *vec] for t, vec in jump_times))


def write_cv_curve(path, candidates, values) -> None:
    write_rows(path, ["h", "cv_value"], zip(candidates, values))


def write_mc_table(path, cells) -> None:
    rows = ([c.kernel, c.n, c.delta, c.imse, c.isb, c.reps] for c in cells)
    write_rows(path, ["kernel", "n", "delta", "imse", "isb", "reps"], rows)


def write_qq_pairs(path, theoretical, empirical) -> None:
    write_rows(path, ["theoretical", "empirical"], zip(theoretical, empirical))


def write_losses(path, losses: dict) -> None:
    rows = ([*key, value] for key, value in sorted(losses.items()))
    write_rows(path, ["model", "horizon", "loss_name", "value"], rows)


def write_coefficients(path, models: dict, horizons) -> None:
    rows = []
    for name in sorted(models):
        m = models[name]
        params = [(f"alpha_{j}", a) for j, a in enumerate(m.alpha, start=1)]
        params += [("beta_d", m.beta_d), ("beta_w", m.beta_w), ("beta_m", m.beta_m)]
        rows += ([name, k, param, value] for k in horizons for param, value in params)
    write_rows(path, ["model", "horizon", "param", "value"], rows)


def write_factors(path, series) -> None:
    header = ["date"] + [f"f_{j + 1}" for j in range(series.factors.shape[1])]
    write_rows(path, header, ([date, *f] for date, f in zip(series.dates.tolist(), series.factors.tolist())))


def read_prices(path) -> PricePath:
    """Parse a prices CSV (time, asset_1..asset_d) into a PricePath.

    Blank lines are skipped and fields follow standard CSV quoting.  Raises
    CsvFormatError with the offending line number on malformed content or a
    non-finite time or price, and InvalidArgument unless the n + 1 times lie within
    1e-9 T of the uniform grid i T/n, where T is the last time.

    The body is parsed in one compiled ``np.loadtxt`` pass.  Its rows are kept
    only when they are at least 3, as wide as the header and all finite;
    otherwise the ``csv`` pass below decides the file: it names the bad line,
    or accepts the spellings ``float`` takes and ``loadtxt`` does not (``1_0``).
    """
    with Path(path).open("r", encoding="utf-8", newline="") as f:
        header = next(csv.reader(f), None)
        if header is None:
            raise CsvFormatError(1, "file is empty")
        if not header or header[0].strip() != "time":
            raise CsvFormatError(1, "first column must be 'time'")
        if len(header) < 2:
            raise CsvFormatError(1, "need at least one asset column")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a body without rows only warns
                data = np.loadtxt(f, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(header) or len(data) < 3 or not np.isfinite(data).all():
        data = _read_body(path, len(header))
    T = float(data[-1, 0])
    if data[0, 0] != 0.0 or T <= 0:
        raise InvalidArgument("non-uniform timestamps: grid must start at 0 and end past 0")
    grid = build_uniform_grid(T, len(data) - 1)
    if not np.all(np.abs(data[:, 0] - grid.points) <= _UNIFORM_RTOL * T):
        raise InvalidArgument("non-uniform timestamps: observations must be equally spaced")
    return PricePath(grid=grid, values=data[:, 1:])


def _read_body(path, width: int) -> np.ndarray:
    """The body rows by ``csv.reader`` and ``float``, checked row by row: a
    CsvFormatError names the first line with the wrong field count, a
    non-numeric value, a non-finite time or price, or the row count short of 3."""
    with Path(path).open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        lines, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if row:
                if len(row) != width:
                    raise CsvFormatError(lineno, f"expected {width} fields, got {len(row)}")
                lines.append(lineno)
                rows.append(row)
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        for lineno, row in zip(lines, rows):
            try:
                list(map(float, row))
            except ValueError:
                raise CsvFormatError(lineno, "non-numeric value") from None
        raise
    del rows  # the strings go before PricePath copies the values
    if len(data) < 3:
        raise CsvFormatError(len(data) + 1, "need at least 3 observation rows")
    t = data[:, 0]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise CsvFormatError(lines[bad[0]], f"non-uniform timestamps: time {t[bad[0]]} is not finite")
    bad = np.flatnonzero(~np.isfinite(data[:, 1:]).all(axis=1))
    if bad.size:
        raise CsvFormatError(lines[bad[0]], "price values are not finite")
    return data
