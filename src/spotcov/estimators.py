"""Kernel and threshold-kernel covariance estimators with their
asymptotic-variance machinery.

The point estimator at a target time tau is the kernel-weighted sum of
increment outer products,

    S(tau) = sum_i K_h(t_{i-1} - tau) dX_i dX_i',

which targets the kernel-weighted integrated covariance for fixed
bandwidth and the spot covariance as the bandwidth shrinks.  The
thresholded variant drops increments whose norm exceeds a vanishing
cutoff, removing finite-activity jump contributions without changing the
rate of convergence.

All three estimators run through :func:`spot_covariance_path`;
:func:`tkcv` is the one-tau path and :func:`kcv` is :func:`tkcv` without
a cutoff.

Summation contract: one vech-product array per path, threshold rows
zeroed, two weight sources, one fixed-order non-BLAS reduction per tau.
The path forms the d(d+1)/2 products dX_i[r] dX_i[c] of the lower
triangle once, as a contiguous (q, n) array, and zeroes the products of
increments failing the cutoff (the cutoff depends on the increment alone,
not on tau).  A block of B series on one grid fills one (B, q, n) array,
each series' own cutoff rows zeroed; a single series is the B = 1 case.
Each tau then gets a weight row from one of two sources:

* float target times get direct weights K_h(t_{i-1} - tau), evaluated and
  reduced over the support window of tau: the increments whose left times
  fall in [tau + lo*h, tau + hi*h] for the kernel's declared support
  [lo, hi], widened by one step against rounding (an infinite side keeps
  the first or last increment);
* :class:`GridTargets` (integer positions on the sampling grid, or on a
  grid of half steps) get strided slices of one lag table K_h(L * step),
  evaluated over every lag the grid allows, cut to the kernel's declared
  support by :func:`~spotcov.kernels.support_lags` (the rule CV's lag
  vectors use too) and trimmed to its nonzero band, from its first to its
  last nonzero entry.  A :class:`WeightPlan` holds that table and each
  target's integer row bounds; it is built once per call from GridTargets,
  or once by the caller and passed for every series on the grid.  A row is
  reduced only over the increments whose lags fall in the band.

Either row is reduced against the product array by one einsum,
"bci,i->bc" over the block, whose summation order depends only on the
shapes and strides of its operands: the row's increments are the
innermost, contiguous axis, summed by the same loop for every (b, c), so
a block row equals each series' own row bitwise.  The q sums fill the
lower triangle and its mirror, so every estimate is exactly symmetric.
The bitwise guarantees follow from this structure:

* a path equals its pointwise estimates, and a series' path in a block
  equals its path alone, because every tau row runs the same reduction
  over the same array whatever the number of taus or series; the
  direct route's support window depends on tau, the kernel, bandwidth and
  grid only, and on the lag route the table's lag range and its nonzero
  band depend on the kernel, bandwidth and grid only, never on the other
  targets, so a target's row slice and its band are the same in any call
  or plan;
* a cutoff that keeps every increment equals :func:`kcv`, because the
  product array is then left untouched;
* data outside the kernel's declared support is inert, for every shipped
  kernel, because its zero weights give exact zero terms at fixed
  positions of the reduction, or, outside the support window or the lag
  route's band, no terms at all;
* results do not depend on the BLAS thread count, because no BLAS routine
  is called.

The two routes group their terms differently (the band drops zero terms),
so the lag route agrees with the direct route to rounding, not bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState, check_count, check_positive
from .kernels import KernelSpec, eval_scaled, kernel_l2_norm, support_lags
from .timeseries import CovMatrix, CovPath, IncrementSeries, TimeGrid, cov_entries, vech_indices, vech_products

SQUARED_NORM = "squared-norm"
NORM = "norm"


@dataclass(frozen=True)
class ThresholdSpec:
    """Deterministic jump cutoff r(delta) = c * delta**beta.

    An increment survives when its Euclidean norm (mode="norm") or squared
    norm (mode="squared-norm", the default) is at most d * r(delta), with d
    the asset count.  beta < 1 makes the cutoff vanish more slowly than the
    Brownian modulus of continuity, which is what the jump-case CLT needs.
    """

    c: float
    beta: float = 0.49
    mode: str = SQUARED_NORM

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise InvalidArgument(f"beta must lie in (0, 1), got {self.beta}")
        check_positive(self.c, "c")
        if self.mode not in (SQUARED_NORM, NORM):
            raise InvalidArgument(
                f"mode must be '{SQUARED_NORM}' or '{NORM}', got {self.mode!r}"
            )

    def r(self, delta: float) -> float:
        """Cutoff value at step length delta."""
        return self.c * delta**self.beta

    def keep_mask(self, increments: IncrementSeries) -> np.ndarray:
        """Boolean mask of increments that survive the cutoff."""
        bound = increments.d * self.r(increments.grid.delta)
        sq = _squared_norms(increments)
        return (sq if self.mode == SQUARED_NORM else np.sqrt(sq)) <= bound


def _squared_norms(increments: IncrementSeries) -> np.ndarray:
    """|dX_i|^2 for every increment."""
    return np.einsum("ik,ik->i", increments.values, increments.values)


def _median_squared_norm(increments: IncrementSeries) -> float:
    """The median of |dX_i|^2, the scale both calibrators pin the cutoff to."""
    med = float(np.median(_squared_norms(increments)))
    if med <= 0.0:
        raise InvalidArgument("cannot calibrate a threshold on an all-zero path")
    return med


def default_threshold(
    increments: IncrementSeries, beta: float = 0.49, mode: str = SQUARED_NORM
) -> ThresholdSpec:
    """Path-adaptive cutoff scale: c = 9 * (median per-asset squared
    increment) / delta, or its square root in norm mode, so that the
    increments kept do not depend on the units of the prices.

    This is the conventional asymptotic calibration: the cutoff vanishes at
    rate delta**beta while typical diffusion increments vanish at rate
    delta, so fixed-size jumps are eventually excluded with probability
    one.  For finite samples with small jumps use
    :func:`calibrated_threshold` instead.
    """
    c = 9.0 * (_median_squared_norm(increments) / increments.d) / increments.grid.delta
    return ThresholdSpec(c=math.sqrt(c) if mode == NORM else c, beta=beta, mode=mode)


def calibrated_threshold(
    increments: IncrementSeries,
    multiple: float = 16.0,
    beta: float = 0.49,
    mode: str = SQUARED_NORM,
) -> ThresholdSpec:
    """Finite-sample cutoff: keep increments whose squared norm is at most
    ``multiple`` times the path median.

    Solves d * c * delta**beta = multiple * median(|dX|^2) for c (in norm
    mode the right side is the square root of that target), so the rate
    bookkeeping of :class:`ThresholdSpec` is preserved while the cutoff is
    pinned to the observed increment scale.
    """
    if not 1.0 < multiple < math.inf:
        raise InvalidArgument(f"multiple must exceed 1 and be finite, got {multiple}")
    target = multiple * _median_squared_norm(increments)
    if mode == NORM:
        target = math.sqrt(target)
    return ThresholdSpec(c=target / (increments.d * increments.grid.delta**beta), beta=beta, mode=mode)


def kcv(
    increments: IncrementSeries, spec: KernelSpec, h: float, tau: float
) -> CovMatrix:
    """Kernel covariance estimate at target time tau.

    With a nonnegative kernel the result is positive semidefinite, being a
    nonnegatively weighted sum of rank-one outer products.
    """
    return tkcv(increments, spec, h, tau, thr=None)


def tkcv(
    increments: IncrementSeries,
    spec: KernelSpec,
    h: float,
    tau: float,
    thr: ThresholdSpec | None,
) -> CovMatrix:
    """Threshold kernel covariance estimate at target time tau (the one-tau path).

    ``thr=None`` disables the cutoff, giving exactly :func:`kcv`.
    """
    return spot_covariance_path(increments, spec, h, [tau], thr).matrix(0)


@dataclass(frozen=True)
class GridTargets:
    """Target times on the uniform sampling grid, held as integers.

    Target j sits at position ``positions[j]`` of a fine grid of step
    delta / stride, on which increment i starts at position i * stride.
    Its kernel weights K_h(L * delta / stride) then depend only on the
    integer lags L = i * stride - positions[j], so one table of kernel
    values serves every target.  Callers pass integers they already hold,
    never a ratio of float times: a Monte Carlo study passes master-grid
    indices with stride n_max // n, and the daily kernel measure passes day
    midpoints, with stride 2 when a day has an odd number of steps.
    """

    positions: np.ndarray = field(repr=False, compare=False)
    stride: int = 1
    _positions_bytes: bytes = field(init=False, repr=False)  # compared and hashed in place of the array

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positions))
        if pos.ndim != 1 or pos.dtype.kind not in "iu":
            raise InvalidArgument(
                f"grid target positions must be a 1-d integer array, got {pos.dtype} {pos.shape}"
            )
        pos = pos.astype(np.int64)
        if pos.size and (pos[0] < 0 or np.any(np.diff(pos) <= 0)):
            raise InvalidArgument(
                "grid target positions must be nonnegative and strictly increasing"
            )
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "_positions_bytes", pos.tobytes())
        object.__setattr__(self, "stride", check_count(self.stride, "grid target stride"))


def _direct_rows(grid: TimeGrid, spec: KernelSpec, h: float, taus: np.ndarray):
    """(i0, i1, weights) per tau: K_h(t_{i-1} - tau) at the increments whose
    left times fall in the kernel's support around tau, widened by one step."""
    left = grid.points[:-1]
    n = left.size
    # support edges in steps, clipped so that an infinite side keeps index 0 or n
    edges = (taus[:, None] + np.multiply(spec.support, h)) / grid.delta
    edges = np.clip(edges, -1, n + 1)
    first = np.maximum(np.floor(edges[:, 0]).astype(np.int64) - 1, 0)
    stop = np.minimum(np.ceil(edges[:, 1]).astype(np.int64) + 2, n)
    for tau, i0, i1 in zip(taus.tolist(), first.tolist(), stop.tolist()):
        yield i0, i1, eval_scaled(spec, h, left[i0:i1] - tau)


@dataclass(frozen=True)
class WeightPlan:
    """The lag-route weights of one kernel and bandwidth at :class:`GridTargets`
    on one grid, built once and shared by every series on that grid.

    It holds one lag table, K_h at the lags L = i*s - k (0 <= i < n,
    0 <= k <= n*s) that :func:`~spotcov.kernels.support_lags` keeps, trimmed
    to its nonzero band, and per target the integers (i0, i1, start): the
    target's row is ``table[start : start + (i1 - i0) * s : s]``, weighting
    increments i0..i1-1, so no increment outside the band is visited.
    Bounds, not row views, keep the plan small to pickle.  Plans compare
    and hash by (spec, h, grid, targets).
    """

    spec: KernelSpec
    h: float
    grid: TimeGrid
    targets: GridTargets
    table: np.ndarray = field(init=False, repr=False, compare=False)
    bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_positive(self.h, "bandwidth")
        n, s = self.grid.n, self.targets.stride
        positions = self.targets.positions
        if positions.size and positions[-1] > n * s:
            raise InvalidArgument(f"grid target position {positions[-1]} outside the grid [0, {n * s}]")
        step = self.grid.delta / s
        lo, hi = support_lags(self.spec, self.h, step, -n * s, (n - 1) * s)
        table = eval_scaled(self.spec, self.h, np.arange(lo, hi + 1) * step)
        nonzero = np.flatnonzero(table)
        first, stop = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)  # all zero: no lag, no row
        table, lo, hi = table[first:stop], lo + first, lo + stop - 1  # trimmed to its nonzero band
        i0 = np.maximum(0, -((positions + lo) // -s))  # first i with i*s - k >= lo
        i1 = np.maximum(i0, np.minimum(n, (positions + hi) // s + 1))  # one past the last with i*s - k <= hi
        bounds = np.stack([i0, i1, i0 * s - positions - lo], axis=1)
        for a in (table, bounds):
            a.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "bounds", bounds)

    @property
    def times(self) -> np.ndarray:
        return self.targets.positions * (self.grid.delta / self.targets.stride)

    def rows(self):
        """(i0, i1, weights) per target."""
        s = self.targets.stride
        for i0, i1, start in self.bounds.tolist():
            yield i0, i1, self.table[start : start + (i1 - i0) * s : s]


def spot_covariance_path(
    increments: IncrementSeries | list[IncrementSeries],
    spec: KernelSpec,
    h: float,
    taus,
    thr: ThresholdSpec | None | list[ThresholdSpec | None] = None,
) -> CovPath | list[CovPath]:
    """Estimate at each target time; identical to pointwise calls.

    ``taus`` is a sequence of float target times, weighted directly, or a
    :class:`GridTargets`, or the :class:`WeightPlan` built for it with this
    kernel, bandwidth and grid, weighted through the plan's lag table; the
    path's times are then positions * delta / stride.  The vech products and
    the cutoff mask are computed once per path and shared by every target,
    under the summation contract above.

    ``increments`` may also be a list of B series on one grid, with ``thr``
    a list of one cutoff (or None) per series, or None for no cutoffs; the
    result is then a list of B paths, each equal to its series' own path.
    """
    block = isinstance(increments, (list, tuple))
    series = list(increments) if block else [increments]
    thrs = list(thr) if block and thr is not None else [thr] * len(series)
    if not series or len(thrs) != len(series):
        raise InvalidArgument(
            f"a block needs one or more series and one cutoff per series, got {len(series)} and {len(thrs)}"
        )
    grid, d = series[0].grid, series[0].d
    if any(inc.grid != grid or inc.d != d for inc in series):
        raise InvalidArgument("the series of a block must share one grid and asset count")
    n = grid.n
    if n < 1 or series[0].values.size == 0:
        raise InvalidArgument("increment series is empty")
    check_positive(h, "bandwidth")
    if isinstance(taus, GridTargets):
        taus = WeightPlan(spec, h, grid, taus)
    if isinstance(taus, WeightPlan):
        if (taus.spec, taus.h, taus.grid) != (spec, h, grid):
            raise InvalidArgument("weight plan was built for another kernel, bandwidth or grid")
        times = taus.times
        weight_rows = taus.rows()
    else:
        times = np.atleast_1d(np.asarray(taus, dtype=float))
        for tau in times:
            if not (0.0 <= tau <= grid.T):
                raise InvalidArgument(f"target time {tau} outside observation horizon [0, {grid.T}]")
        weight_rows = _direct_rows(grid, spec, h, times)
    rows, cols = vech_indices(d)
    prods = np.empty((len(series), rows.size, n))
    for b, (inc, cut) in enumerate(zip(series, thrs)):
        vech_products(inc.values, out=prods[b])
        if cut is not None:
            keep = cut.keep_mask(inc)
            if not keep.all():
                prods[b][:, ~keep] = 0.0
    sums = np.empty((times.shape[0], len(series), rows.size))
    for j, (i0, i1, w) in enumerate(weight_rows):
        np.einsum("bci,i->bc", prods[:, :, i0:i1], w, out=sums[j])
    out = np.empty((len(series), times.shape[0], d, d))
    out[..., rows, cols] = sums.swapaxes(0, 1)
    out[..., cols, rows] = sums.swapaxes(0, 1)
    paths = [CovPath(times=times, values=v) for v in out]
    return paths if block else paths[0]


@dataclass(frozen=True)
class ThresholdRateReport:
    """Evaluation of the cutoff rate conditions along a step-size sequence."""

    deltas: np.ndarray = field(repr=False)
    r_values: np.ndarray = field(repr=False)
    ratio_values: np.ndarray = field(repr=False)  # delta*log(1/delta)/r(delta)
    r_decreasing: bool
    ratio_decreasing_tail: bool

    @property
    def passes(self) -> bool:
        return self.r_decreasing and self.ratio_decreasing_tail


def validate_threshold_rate(thr: ThresholdSpec, deltas) -> ThresholdRateReport:
    """Check that r(delta) -> 0 and delta*log(1/delta)/r(delta) -> 0 along a
    decreasing step sequence.

    The ratio may be non-monotone for moderate steps when beta is close to
    one, so monotonicity of the ratio is only required on the tail (second
    half) of the sequence.
    """
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    for step in deltas.tolist():
        check_positive(step, "step sizes")
    if deltas.size < 2 or not np.all(np.diff(deltas) < 0):
        raise InvalidArgument("need a strictly decreasing sequence of at least 2 steps")
    r = thr.r(deltas)
    ratio = deltas * np.log(1.0 / deltas) / r
    tail = ratio[deltas.size // 2 :]
    return ThresholdRateReport(
        deltas=deltas,
        r_values=r,
        ratio_values=ratio,
        r_decreasing=bool(np.all(np.diff(r) < 0)),
        ratio_decreasing_tail=bool(np.all(np.diff(tail) < 0)),
    )


@dataclass(frozen=True)
class OmegaArray:
    """The d^2 x d^2 asymptotic variance array of the covariance CLTs, or a
    (..., d^2, d^2) stack of them, one per matrix of a covariance stack.

    Entry ((k, l), (k2, l2)) equals S[k,k2]*S[l,l2] + S[k,l2]*S[l,k2] for a
    spot covariance matrix S; pairs are flattened row-major, so (k, l) maps
    to row k*d + l.
    """

    d: int
    entries: np.ndarray = field(repr=False)

    def at(self, k: int, l: int, k2: int, l2: int) -> float:
        return float(self.entries[..., k * self.d + l, k2 * self.d + l2])


def omega(sigma: CovMatrix | np.ndarray) -> OmegaArray:
    """Build the asymptotic variance array of a spot covariance matrix, or of each of a stack."""
    s = cov_entries(sigma)
    d = s.shape[-1]
    # O[kl, k2l2] = s[k,k2] s[l,l2] + s[k,l2] s[l,k2]
    o = np.einsum("...km,...ln->...klmn", s, s) + np.einsum("...kn,...lm->...klmn", s, s)
    return OmegaArray(d=d, entries=o.reshape(s.shape[:-2] + (d * d, d * d)))


def _element_std(omega_arr: OmegaArray, spec: KernelSpec, delta: float, h: float) -> np.ndarray:
    """Per-element asymptotic standard deviation sqrt(O_kl,kl * intK2 * delta/h), (..., d, d)."""
    d = omega_arr.d
    diag = np.diagonal(omega_arr.entries, axis1=-2, axis2=-1)
    diag = diag.reshape(diag.shape[:-1] + (d, d))
    if np.any(diag <= 0.0):
        raise InvalidState("asymptotic variance array has nonpositive diagonal entries")
    return np.sqrt(diag * kernel_l2_norm(spec) * delta / h)


def asymptotic_band(
    estimate: CovMatrix | CovPath,
    omega_hat: OmegaArray,
    delta: float,
    h: float,
    spec: KernelSpec,
    level: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element confidence intervals from the shrinking-bandwidth CLT.

    Returns (lower, upper): estimate +/- z * sqrt(O_kl,kl * intK2 * delta / h)
    with z the (1+level)/2 standard normal quantile: d x d arrays for a
    :class:`CovMatrix`, (m, d, d) for a :class:`CovPath` and its omega stack.
    """
    if not (0.0 < level < 1.0):
        raise InvalidArgument(f"confidence level must be in (0, 1), got {level}")
    values = estimate.entries if isinstance(estimate, CovMatrix) else estimate.values
    if omega_hat.d != estimate.d:
        raise InvalidArgument("estimate and omega array dimensions differ")
    from scipy.special import ndtri  # costs 0.3 s at import; only bands need it

    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * _element_std(omega_hat, spec, delta, h)
    return values - half, values + half


def standardized_errors(
    estimates,
    truth: CovMatrix,
    omega_true: OmegaArray,
    delta: float,
    h: float,
    spec: KernelSpec,
) -> np.ndarray:
    """Studentize estimation errors against the known truth.

    Parameters
    ----------
    estimates : sequence of CovMatrix or array of shape (R, d, d)
        One estimate per replication.
    truth : CovMatrix
        The true spot covariance at the target time.
    omega_true : OmegaArray
        Variance array built from the truth.

    Returns
    -------
    z : array of shape (R, d, d)
        sqrt(h/delta) * (estimate - truth) / sqrt(O_kl,kl * intK2), which is
        asymptotically standard normal element by element.
    """
    # np.asarray, not np.stack: an empty sequence reaches the shape check
    est = np.asarray([cov_entries(e) for e in estimates], dtype=float)
    t = cov_entries(truth)
    if est.shape[1:] != t.shape:
        raise InvalidArgument("estimate dimensions do not match the truth")
    scale = _element_std(omega_true, spec, delta, h)
    return (est - t) / scale
