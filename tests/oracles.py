"""Independent reference implementations used only by tests.

Everything here is written as plainly as possible (explicit loops, no
shared code with the package) so that agreement with the fast paths is
meaningful evidence of correctness.  Two helpers are the exception: the
prices reader builds the package's result and error types around a
row-by-row parse, and the flat kernel is a package KernelSpec that the
tests build their flat-kernel fixtures with.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path


def kernel_value(name: str, u: float) -> float:
    if name == "gaussian":
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    if name == "onesided":
        return math.exp(u) if u <= 0.0 else 0.0
    if name == "beta":
        return (15.0 / 16.0) * (1.0 - u * u) ** 2 if abs(u) <= 1.0 else 0.0
    raise ValueError(name)


def uniform_value(width: float, u: float) -> float:
    """Flat kernel of total width on the half-open [-width/2, width/2)."""
    return 1.0 / width if -width / 2.0 <= u < width / 2.0 else 0.0


def uniform_kernel(width: float = 1.0, name: str = "uniform") -> KernelSpec:
    """Flat kernel of the given total width, centred at zero.

    The support is half-open, [-width/2, width/2), so that grid-aligned
    day windows do not double count their right endpoint.
    """
    import numpy as np

    from spotcov import KernelSpec
    from spotcov.errors import check_positive

    check_positive(width, "width")
    half = width / 2.0

    def _flat(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where((u >= -half) & (u < half), 1.0 / width, 0.0)

    return KernelSpec(
        name=name, fn=_flat, support=(-half, half), l2norm=1.0 / width, mass_tol=1e-5
    )


def naive_cv(times_left, dx, kernel, h: float, delta: float, t_l: float, t_u: float) -> float:
    """Dense leave-one-out CV value for one bandwidth, from its definition

        CV(h) = sum_{i: t_l <= t_i <= t_u} || dx_i dx_i'/delta - S_{-i} ||_F^2 * delta,
        S_{-i} = sum_{j != i} K((t_j - t_i)/h)/h dx_j dx_j',

    with ``kernel`` a callable u -> K(u).  Returns inf when every
    leave-one-out weight of every window row is zero.
    """
    n = len(dx)
    d = len(dx[0])
    total = 0.0
    any_weight = False
    for i in range(n):
        if not (t_l <= times_left[i] <= t_u):
            continue
        s = [[0.0 for _ in range(d)] for _ in range(d)]
        for j in range(n):
            if j == i:
                continue
            w = kernel((times_left[j] - times_left[i]) / h) / h
            if w != 0.0:
                any_weight = True
            for k in range(d):
                for l in range(d):
                    s[k][l] += w * dx[j][k] * dx[j][l]
        for k in range(d):
            for l in range(d):
                r = dx[i][k] * dx[i][l] / delta - s[k][l]
                total += r * r
    return total * delta if any_weight else math.inf


def naive_kcv(times_left, dx, kernel_name: str, h: float, tau: float):
    """Triple-loop kernel covariance estimate; returns a list of lists."""
    n = len(dx)
    d = len(dx[0])
    out = [[0.0 for _ in range(d)] for _ in range(d)]
    for i in range(n):
        w = kernel_value(kernel_name, (times_left[i] - tau) / h) / h
        for k in range(d):
            for l in range(d):
                out[k][l] += w * dx[i][k] * dx[i][l]
    return out


def naive_tkcv(times_left, dx, kernel_name, h, tau, cutoff, mode):
    """Triple-loop thresholded variant; cutoff is d * r(delta)."""
    n = len(dx)
    d = len(dx[0])
    out = [[0.0 for _ in range(d)] for _ in range(d)]
    for i in range(n):
        sq = sum(x * x for x in dx[i])
        stat = sq if mode == "squared-norm" else math.sqrt(sq)
        if stat > cutoff:
            continue
        w = kernel_value(kernel_name, (times_left[i] - tau) / h) / h
        for k in range(d):
            for l in range(d):
                out[k][l] += w * dx[i][k] * dx[i][l]
    return out


def naive_cir(kappa, theta, eta, v0, delta, shocks):
    """Full-truncation Euler variance path in the package's arithmetic,
    v <- max(v*b + c + a*sqrt(v), 0) with b = 1 - kappa*delta,
    c = kappa*theta*delta and a = (eta*sqrt(delta))*z, written with the
    builtin max."""
    b = 1.0 - kappa * delta
    c = kappa * theta * delta
    s = eta * math.sqrt(delta)
    v = [v0]
    for z in shocks:
        vi = v[-1]
        v.append(max(vi * b + c + (s * z) * math.sqrt(max(vi, 0.0)), 0.0))
    return v


def naive_cir_euler(kappa, theta, eta, v0, delta, shocks):
    """The same path in the textbook order of operations,
    v + kappa*(theta - v)*delta + eta*sqrt(v)*sqrt(delta)*z; it agrees with
    :func:`naive_cir` up to rounding."""
    sqdt = math.sqrt(delta)
    v = [v0]
    for z in shocks:
        vi = v[-1]
        v.append(max(vi + kappa * (theta - vi) * delta + eta * math.sqrt(max(vi, 0.0)) * sqdt * z, 0.0))
    return v


def exact_pwl_squared_integral(times, values) -> float:
    """Exact integral of f(t)^2 for f piecewise linear through the points.

    Per segment with endpoints a, b over width w the integral of the
    squared chord is w * (a*a + a*b + b*b) / 3.
    """
    total = 0.0
    for i in range(len(times) - 1):
        w = times[i + 1] - times[i]
        a, b = values[i], values[i + 1]
        total += w * (a * a + a * b + b * b) / 3.0
    return total


def naive_vech(m):
    d = len(m)
    out = []
    for c in range(d):
        for r in range(c, d):
            out.append(m[r][c])
    return out


def csv_read_prices(path):
    """The prices reader as a csv.reader pass and one np.array(rows,
    dtype=float): the same file, PricePath, CsvFormatError (line and message)
    and InvalidArgument as spotcov.csvio.read_prices."""
    import numpy as np

    from spotcov import PricePath, build_uniform_grid
    from spotcov.errors import CsvFormatError, InvalidArgument

    with Path(path).open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(1, "file is empty")
        if not header or header[0].strip() != "time":
            raise CsvFormatError(1, "first column must be 'time'")
        if len(header) < 2:
            raise CsvFormatError(1, "need at least one asset column")
        lines, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if row:
                if len(row) != len(header):
                    raise CsvFormatError(lineno, f"expected {len(header)} fields, got {len(row)}")
                lines.append(lineno)
                rows.append(row)
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        for lineno, row in zip(lines, rows):
            try:
                [float(x) for x in row]
            except ValueError:
                raise CsvFormatError(lineno, "non-numeric value") from None
        raise
    if len(data) < 3:
        raise CsvFormatError(len(data) + 1, "need at least 3 observation rows")
    for lineno, row in zip(lines, data.tolist()):
        if not math.isfinite(row[0]):
            raise CsvFormatError(lineno, f"non-uniform timestamps: time {row[0]} is not finite")
    for lineno, row in zip(lines, data.tolist()):
        if not all(math.isfinite(x) for x in row[1:]):
            raise CsvFormatError(lineno, "price values are not finite")
    t = data[:, 0]
    T = float(t[-1])
    if t[0] != 0.0 or T <= 0:
        raise InvalidArgument("non-uniform timestamps: grid must start at 0 and end past 0")
    grid = build_uniform_grid(T, len(t) - 1)
    if not np.all(np.abs(t - grid.points) <= 1e-9 * T):
        raise InvalidArgument("non-uniform timestamps: observations must be equally spaced")
    return PricePath(grid=grid, values=data[:, 1:])
