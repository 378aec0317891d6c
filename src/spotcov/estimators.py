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

Summation contract: for each target time the increments with exactly zero
kernel weight (and, for the thresholded estimator, increments failing the
cutoff) are dropped *before* summation, and the surviving terms are
reduced in time order by numpy's pairwise summation.  Two calls that keep
the same surviving set therefore agree bitwise, which is what makes the
"huge threshold equals plain estimator" and "out-of-support data is
inert" guarantees exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvalidArgument, InvalidState
from .kernels import KernelSpec, eval_scaled, kernel_l2_norm
from .timeseries import CovMatrix, CovPath, IncrementSeries

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
        if self.c <= 0 or not np.isfinite(self.c):
            raise InvalidArgument(f"c must be positive and finite, got {self.c}")
        if self.mode not in (SQUARED_NORM, NORM):
            raise InvalidArgument(
                f"mode must be '{SQUARED_NORM}' or '{NORM}', got {self.mode!r}"
            )

    def r(self, delta: float) -> float:
        """Cutoff value at step length delta."""
        return self.c * delta**self.beta

    def keep_mask(self, increments: IncrementSeries) -> np.ndarray:
        """Boolean mask of increments that survive the cutoff."""
        d = increments.d
        bound = d * self.r(increments.grid.delta)
        sq = np.einsum("ik,ik->i", increments.values, increments.values)
        if self.mode == SQUARED_NORM:
            return sq <= bound
        return np.sqrt(sq) <= bound


def default_threshold(
    increments: IncrementSeries, beta: float = 0.49, mode: str = SQUARED_NORM
) -> ThresholdSpec:
    """Path-adaptive cutoff scale: c = 9 * (median per-asset squared
    increment) / delta.

    This is the conventional asymptotic calibration: the cutoff vanishes at
    rate delta**beta while typical diffusion increments vanish at rate
    delta, so fixed-size jumps are eventually excluded with probability
    one.  For finite samples with small jumps use
    :func:`calibrated_threshold` instead.
    """
    delta = increments.grid.delta
    sq = np.einsum("ik,ik->i", increments.values, increments.values)
    med = float(np.median(sq)) / increments.d
    if med <= 0.0:
        raise InvalidArgument("cannot calibrate a threshold on an all-zero path")
    return ThresholdSpec(c=9.0 * med / delta, beta=beta, mode=mode)


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
    if multiple <= 1.0:
        raise InvalidArgument(f"multiple must exceed 1, got {multiple}")
    delta = increments.grid.delta
    sq = np.einsum("ik,ik->i", increments.values, increments.values)
    med = float(np.median(sq))
    if med <= 0.0:
        raise InvalidArgument("cannot calibrate a threshold on an all-zero path")
    target = multiple * med
    if mode == NORM:
        target = math.sqrt(target)
    return ThresholdSpec(c=target / (increments.d * delta**beta), beta=beta, mode=mode)


def _weighted_outer_sum(dx: np.ndarray, w: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """Sum of w_i * dx_i dx_i' over surviving increments, in time order.

    Zero-weight terms are dropped so that data outside the kernel support
    cannot perturb the floating-point reduction.  The einsum reduction is
    not bitwise symmetric, so the lower triangle is copied into the upper
    one: the result is symmetric exactly, at any scale of the data.
    """
    mask = w != 0.0
    if keep is not None:
        mask &= keep
    if not mask.all():
        w = w[mask]
        dx = dx[mask]
    s = np.einsum("i,ik,il->kl", w, dx, dx)
    for k in range(s.shape[0] - 1):
        s[k, k + 1 :] = s[k + 1 :, k]
    return s


def _check_tau(tau: float, T: float) -> None:
    if not (0.0 <= tau <= T):
        raise InvalidArgument(f"target time {tau} outside observation horizon [0, {T}]")


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
    """Threshold kernel covariance estimate at target time tau.

    ``thr=None`` disables the cutoff, giving exactly :func:`kcv`.
    """
    if increments.grid.n < 1 or increments.values.size == 0:
        raise InvalidArgument("increment series is empty")
    _check_tau(tau, increments.grid.T)
    w = eval_scaled(spec, h, increments.left_times - tau)
    keep = thr.keep_mask(increments) if thr is not None else None
    return CovMatrix(entries=_weighted_outer_sum(increments.values, w, keep))


def spot_covariance_path(
    increments: IncrementSeries,
    spec: KernelSpec,
    h: float,
    taus,
    thr: ThresholdSpec | None = None,
) -> CovPath:
    """Estimate at each target time in turn; identical to pointwise calls."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    T = increments.grid.T
    for tau in taus:
        _check_tau(tau, T)
    out = np.empty((taus.shape[0], increments.d, increments.d))
    for j, tau in enumerate(taus):
        out[j] = tkcv(increments, spec, h, float(tau), thr).entries
    return CovPath(times=taus, values=out)


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
    if np.any(deltas <= 0):
        raise InvalidArgument("step sizes must be positive")
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
    """The d^2 x d^2 asymptotic variance array of the covariance CLTs.

    Entry ((k, l), (k2, l2)) equals S[k,k2]*S[l,l2] + S[k,l2]*S[l,k2] for a
    spot covariance matrix S; pairs are flattened row-major, so (k, l) maps
    to row k*d + l.
    """

    d: int
    entries: np.ndarray = field(repr=False)

    def at(self, k: int, l: int, k2: int, l2: int) -> float:
        return float(self.entries[k * self.d + l, k2 * self.d + l2])

    def diag(self, k: int, l: int) -> float:
        """Variance entry for element (k, l)."""
        return self.at(k, l, k, l)


def omega(sigma: CovMatrix | np.ndarray) -> OmegaArray:
    """Build the asymptotic variance array from a spot covariance matrix."""
    if not isinstance(sigma, CovMatrix):
        sigma = CovMatrix(entries=sigma)
    s = sigma.entries
    d = sigma.d
    # O[kl, k2l2] = s[k,k2] s[l,l2] + s[k,l2] s[l,k2]
    o = np.einsum("km,ln->klmn", s, s) + np.einsum("kn,lm->klmn", s, s)
    return OmegaArray(d=d, entries=o.reshape(d * d, d * d))


def _element_std(omega_arr: OmegaArray, spec: KernelSpec, delta: float, h: float) -> np.ndarray:
    """Per-element asymptotic standard deviation sqrt(O_kl,kl * intK2 * delta/h)."""
    d = omega_arr.d
    diag = np.array([[omega_arr.diag(k, l) for l in range(d)] for k in range(d)])
    if np.any(diag <= 0.0):
        raise InvalidState("asymptotic variance array has nonpositive diagonal entries")
    return np.sqrt(diag * kernel_l2_norm(spec) * delta / h)


def asymptotic_band(
    estimate: CovMatrix,
    omega_hat: OmegaArray,
    delta: float,
    h: float,
    spec: KernelSpec,
    level: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element confidence intervals from the shrinking-bandwidth CLT.

    Returns (lower, upper) d x d arrays: estimate +/- z * sqrt(O_kl,kl *
    intK2 * delta / h) with z the (1+level)/2 standard normal quantile.
    """
    if not (0.0 < level < 1.0):
        raise InvalidArgument(f"confidence level must be in (0, 1), got {level}")
    if omega_hat.d != estimate.d:
        raise InvalidArgument("estimate and omega array dimensions differ")
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * _element_std(omega_hat, spec, delta, h)
    return estimate.entries - half, estimate.entries + half


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
    if isinstance(estimates, np.ndarray) and estimates.ndim == 3:
        est = estimates.astype(float, copy=False)
    else:
        est = np.stack([e.entries if isinstance(e, CovMatrix) else np.asarray(e) for e in estimates])
    if est.shape[1:] != (truth.d, truth.d):
        raise InvalidArgument("estimate dimensions do not match the truth")
    scale = _element_std(omega_true, spec, delta, h)
    return (est - truth.entries) / scale
