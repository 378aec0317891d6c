"""Goodness-of-fit integral and leave-one-out bandwidth cross-validation.

The CV objective scores each candidate bandwidth by how well the
leave-one-out spot estimate at each interior increment time predicts that
increment's (noisy, rank-one) covariance proxy dX dX'/delta:

    CV(h) = sum_i || dX_i dX_i'/delta - S_{-i}(t_{i-1}) ||_F^2 * delta

summed over increments whose anchor time lies in the interior window, with

    S_{-i}(t_{i-1}) = sum_{j != i} K_h(t_{j-1} - t_{i-1}) dX_j dX_j'.

On the uniform grid K_h(t_{j-1} - t_{i-1}) = K_h((j - i) delta) depends
only on the lag j - i, so every S_{-i} is one discrete convolution of the
engine's (q, n) vech-order products (timeseries.vech_products) with the
2n - 1 kernel values at lags -(n-1) .. n-1, the lag-0 (own-term) value set
to zero, and a residual's squared Frobenius norm counts each off-diagonal
product twice.  The products are transformed once by a real FFT along
their contiguous axis; each candidate evaluates K_h only at the lags
kernels.support_lags keeps (the rule of the engine's lag tables), the rest
zero, and costs one inverse FFT: O(C n log n) in total, not O(C n^2).  The
FFT rounding, of order 1e-16 relative to the largest weighted sum, is
tolerated by CV; the point estimators keep term-by-term sums and the
bitwise guarantees that rest on them.  The lag form assumes the uniform
grid of every TimeGrid; price CSVs with uneven timestamps are rejected.

A candidate is degenerate when its kernel vanishes at every lag a window
row can reach; its CV value is inf.  Candidates are scored independently;
ties break toward the smaller bandwidth, preferring lower bias when the
curve is flat.

One window rule serves CV, the ISE and the Monte Carlo IMSE/ISB tables:
[t_l, t_u] needs 0 < t_l < t_u (< T once the horizon T is known), holds the
times t_l <= t <= t_u, and must hold at least two of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState, check_bandwidth
from .kernels import KernelSpec, eval_scaled, support_lags
from .timeseries import CovPath, IncrementSeries, vech_indices, vech_products

DEFAULT_WINDOW_TRIM = 0.1


def _check_candidates(candidates) -> np.ndarray:
    """Candidate bandwidths as a nonempty, finite, positive, increasing array."""
    c = np.atleast_1d(np.asarray(candidates, dtype=float))
    if c.size == 0:
        raise InvalidArgument("bandwidth grid is empty")
    for h in c.tolist():
        check_bandwidth(h, "bandwidth candidates")
    if c.size > 1 and not np.all(np.diff(c) > 0):
        raise InvalidArgument("bandwidth candidates must be strictly increasing")
    return c


@dataclass(frozen=True)
class BandwidthGrid:
    """Candidate bandwidths plus the interior evaluation window."""

    candidates: np.ndarray = field(repr=False)
    t_l: float = 0.0
    t_u: float = 0.0

    def __post_init__(self):
        c = _check_candidates(self.candidates)
        _check_window((self.t_l, self.t_u))
        object.__setattr__(self, "candidates", c)


def default_window(T: float, trim: float = DEFAULT_WINDOW_TRIM) -> tuple[float, float]:
    """Interior window trimming a fraction of the horizon off each side."""
    if not (0.0 < trim < 0.5):
        raise InvalidArgument(f"trim fraction must be in (0, 0.5), got {trim}")
    return (trim * T, (1.0 - trim) * T)


def _check_window(window, horizon: float = np.inf, name: str = "evaluation window"):
    """Reject a window unless 0 < t_l < t_u < horizon."""
    t_l, t_u = window
    if not (0.0 < t_l < t_u < horizon):
        raise InvalidArgument(f"{name} [{t_l}, {t_u}] must satisfy 0 < t_l < t_u < {horizon}")


def _window_index(times: np.ndarray, window) -> np.ndarray:
    """Indices of the times inside the closed window; at least two."""
    t_l, t_u = window
    idx = np.flatnonzero((times >= t_l) & (times <= t_u))
    if idx.size < 2:
        raise InvalidArgument(f"need at least 2 evaluation times inside [{t_l}, {t_u}], found {idx.size}")
    return idx


def _window_errors(estimates, truth: CovPath, window) -> tuple[np.ndarray, np.ndarray]:
    """(R, m, d, d) errors of R paths against the truth at the m window times, and those
    times; each path must carry the truth's dimension and times (to 1e-9 of the largest)."""
    estimates = list(estimates)
    if not estimates:
        raise InvalidArgument("need at least one replication")
    times = truth.times
    tol = 1e-9 * np.abs(times).max(initial=0.0)
    for est in estimates:
        if len(est) != len(truth) or np.any(np.abs(est.times - times) > tol):
            raise InvalidArgument("estimate and truth must share evaluation times")
        if est.d != truth.d:
            raise InvalidArgument("estimate and truth dimensions differ")
    idx = _window_index(times, window)
    return np.stack([est.values[idx] for est in estimates]) - truth.values[idx], times[idx]


def ise(
    est: CovPath,
    truth: CovPath,
    window: tuple[float, float],
    element: tuple[int, int] | None = None,
) -> float:
    """Trapezoid integral of the squared estimation error over the window.

    With ``element=None`` the squared errors of all unique elements
    (k <= l) are summed; otherwise only the requested element counts.
    """
    (err,), t = _window_errors([est], truth, window)
    rows, cols = np.tril_indices(est.d) if element is None else ([element[0]], [element[1]])
    return float(np.trapezoid((err[:, rows, cols] ** 2).sum(axis=1), t))


def _smooth_len(m: int) -> int:
    """The least 2^a 3^b 5^c >= m."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:  # p = 3^b 5^c, times the least power of two reaching m
            best = min(best, p << (-(-m // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


@dataclass(frozen=True)
class CvResult:
    """Chosen bandwidth plus the full criterion curve."""

    h: float
    candidates: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


def cv_bandwidth(
    increments: IncrementSeries, spec: KernelSpec, grid: BandwidthGrid
) -> CvResult:
    """Score every candidate bandwidth by leave-one-out prediction error."""
    delta = increments.grid.delta
    window = (grid.t_l, grid.t_u)
    _check_window(window, increments.grid.T)
    win = _window_index(increments.left_times, window)

    n = increments.grid.n
    lo, hi = win[0], win[-1] + 1  # the window rows are contiguous
    prods = vech_products(increments.values)
    frobenius = np.where(np.equal(*vech_indices(increments.d)), 1.0, 2.0)  # off-diagonals count twice
    proxy = prods[:, lo:hi] / delta

    # Position p of the lag vector holds K_h at lag n-1-p, so the linear
    # convolution with the products at index i + n - 1 is S_{-i}.
    # Any FFT length >= 2n - 1 keeps those indices free of wrap-around; the
    # least 5-smooth one runs at pocketfft's fast radices.
    nfft = _smooth_len(2 * n - 1)
    prods_f = np.fft.rfft(prods, nfft, axis=1)

    values = np.empty(grid.candidates.size)
    degenerate = np.zeros(grid.candidates.size, dtype=bool)
    for c, h in enumerate(grid.candidates):
        a, b = support_lags(spec, h, delta, 1 - n, n - 1)
        kern = np.zeros(2 * n - 1)
        kern[n - 1 - b : n - a] = eval_scaled(spec, h, np.arange(b, a - 1, -1) * delta)
        kern[n - 1] = 0.0  # drop each anchor's own term
        degenerate[c] = not kern[lo : n - 1 + hi].any()  # the lags j - i a window row i reaches
        conv = np.fft.irfft(prods_f * np.fft.rfft(kern, nfft), nfft, axis=1)
        resid = proxy - conv[:, n - 1 + lo : n - 1 + hi]
        values[c] = float(np.einsum("ki,ki->k", resid, resid) @ frobenius) * delta
    if degenerate.all():
        raise InvalidState(
            "every candidate bandwidth leaves all leave-one-out estimates weightless"
        )
    values = np.where(degenerate, np.inf, values)
    best = int(np.argmin(values))  # first minimum: ties break toward smaller h
    return CvResult(h=float(grid.candidates[best]), candidates=grid.candidates, values=values)
