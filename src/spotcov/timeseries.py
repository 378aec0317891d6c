"""Core data types: uniform time grids, log-price paths, increments,
covariance snapshots/paths, and the half-vectorization helpers.

All containers are frozen dataclasses around read-only numpy arrays, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, check_count, check_positive

SYMMETRY_RTOL = 1e-10
PSD_SLACK = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n >= 2 steps of length delta = T/n,
    with points t_i = i*T/n, i = 0..n; t_0 = 0 and t_n = T hold bitwise."""

    T: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    delta: float = field(init=False, compare=False)

    def __post_init__(self):
        T = float(check_positive(self.T, "horizon T"))
        n = check_count(self.n, "grid steps n", minimum=2)
        points = np.arange(n + 1) * (T / n)
        points[-1] = T
        points.flags.writeable = False
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "delta", T / n)
        object.__setattr__(self, "points", points)


def build_uniform_grid(T: float, n: int) -> TimeGrid:
    """The uniform grid of n steps over [0, T]: ``TimeGrid(T, n)``."""
    return TimeGrid(T, n)


def _grid_rows(values, rows: int, name: str) -> np.ndarray:
    """values as a read-only (rows, d) array of finite floats."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    if v.shape[0] != rows:
        raise InvalidArgument(f"{name} has {v.shape[0]} rows, its grid needs {rows}")
    finite = np.isfinite(v)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise InvalidArgument(f"{name} values are not finite in row {row}")
    return _readonly(v)


@dataclass(frozen=True)
class PricePath:
    """Synchronous multivariate log-prices on a uniform grid.

    values has shape (n+1, d): one row per grid point, one column per asset.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _grid_rows(self.values, self.grid.n + 1, "price path"))

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class IncrementSeries:
    """One-step increments dX_i = X(t_i) - X(t_{i-1}), shape (n, d)."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _grid_rows(self.values, self.grid.n, "increment series"))

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def left_times(self) -> np.ndarray:
        """Times t_{i-1} at which each increment starts (kernel anchors)."""
        return self.grid.points[:-1]


def log_returns(path: PricePath) -> IncrementSeries:
    """Difference the path: row i of the result is path row i+1 minus row i."""
    return IncrementSeries(grid=path.grid, values=np.diff(path.values, axis=0))


def cov_entries(m: CovMatrix | np.ndarray) -> np.ndarray:
    """The entries of a :class:`CovMatrix`, or a (..., d, d) stack of finite
    matrices, each symmetric to within SYMMETRY_RTOL times its largest
    absolute entry: the one reader of every covariance argument."""
    if isinstance(m, CovMatrix):
        return m.entries
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-1] != m.shape[-2]:
        raise InvalidArgument(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidArgument("matrix has non-finite entries")
    gap = np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1), initial=0.0)
    bound = SYMMETRY_RTOL * np.abs(m).max(axis=(-2, -1), initial=0.0)
    worst = np.argmax(gap - bound)
    if gap.flat[worst] > bound.flat[worst]:
        raise InvalidArgument(
            f"matrix is asymmetric beyond tolerance ({gap.flat[worst]:.3e} > {bound.flat[worst]:.3e})"
        )
    return m


def _is_psd(entries: np.ndarray, slack: float = PSD_SLACK) -> np.ndarray:
    """Per matrix of a (..., d, d) stack: all eigenvalues >= -slack * trace."""
    tr = np.trace(entries, axis1=-2, axis2=-1)
    lo = np.linalg.eigvalsh(entries)[..., 0]
    return lo >= -slack * np.maximum(tr, 1.0e-300)


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric d x d covariance snapshot (units: returns^2)."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = cov_entries(self.entries)
        if m.ndim != 2:
            raise InvalidArgument(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def is_psd(self, slack: float = PSD_SLACK) -> bool:
        """True if all eigenvalues are >= -slack * trace."""
        return bool(_is_psd(self.entries, slack))


@dataclass(frozen=True)
class CovPath:
    """Covariance matrices indexed by strictly increasing times in [0, T].

    values has shape (m, d, d).
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[0] != t.shape[0] or v.shape[1] != v.shape[2]:
            raise InvalidArgument(
                f"covariance path shapes do not line up: times {t.shape}, values {v.shape}"
            )
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InvalidArgument("evaluation times must be strictly increasing")
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "values", _readonly(v))

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def __len__(self) -> int:
        return self.times.shape[0]

    def matrix(self, j: int) -> CovMatrix:
        return CovMatrix(entries=self.values[j])


def vech_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle, stacked column by column."""
    cols, rows = np.triu_indices(d)  # upper triangle row-major == lower col-major
    return rows, cols


def vech_products(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (q, n) products values[:, r] * values[:, c] of an (n, d) array, one row per vech pair."""
    rows, cols = vech_indices(values.shape[1])
    out = np.empty((rows.size, values.shape[0])) if out is None else out
    for k, (r, c) in enumerate(zip(rows, cols)):
        np.multiply(values[:, r], values[:, c], out=out[k])
    return out


def vech(m: CovMatrix | np.ndarray) -> np.ndarray:
    """Half-vectorize a symmetric matrix (or stack): lower triangle, column-major.

    [[a, b], [b, c]] maps to (a, b, c).
    """
    entries = cov_entries(m)
    rows, cols = vech_indices(entries.shape[-1])
    return entries[..., rows, cols]


def unvech(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vech`: rebuild the full symmetric matrix (or stack)."""
    m = unvech_lower(v)
    rows, cols = vech_indices(m.shape[-1])
    m[..., cols, rows] = m[..., rows, cols]
    return m


def unvech_lower(v: np.ndarray) -> np.ndarray:
    """Rebuild a lower-triangular matrix (or stack) from its vech; upper part zero."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    q = v.shape[-1]
    d = int(round((np.sqrt(8 * q + 1) - 1) / 2))
    if d * (d + 1) // 2 != q:
        raise InvalidArgument(f"vector of length {q} is not a vech of any square matrix")
    rows, cols = vech_indices(d)
    m = np.zeros(v.shape[:-1] + (d, d))
    m[..., rows, cols] = v
    return m


def vech_labels(d: int, prefix: str = "s") -> list[str]:
    """Column labels for vech entries, 1-indexed: s_1_1, s_2_1, ..."""
    rows, cols = vech_indices(d)
    return [f"{prefix}_{r + 1}_{c + 1}" for r, c in zip(rows, cols)]
