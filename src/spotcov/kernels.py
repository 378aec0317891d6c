"""Kernel functions and their closed-form constants.

Three kernels ship by name:

* ``gaussian``   -- standard normal density, cut to [-c, c] with
                    c = GAUSSIAN_CUT = sqrt(106 ln 2) ~ 8.5717.
* ``onesided``   -- exponential weighting of past observations only,
                    K(u) = e^u for u <= 0 and 0 for u > 0.
* ``beta``       -- the biweight member of the symmetric beta family,
                    K(u) = (15/16)(1 - u^2)^2 on [-1, 1].

All three integrate to one, are nonnegative and bounded, which keeps the
covariance estimators positive semidefinite.  Custom kernels can be built
by instantiating :class:`KernelSpec` directly (used e.g. for flat kernels
in tests and the daily-measure identities).

The Gaussian is cut where its weight falls below the rounding of its peak:
K(c)/K(0) = 2**-53, so any term it drops is smaller than the last bit of
the largest term it keeps.  The mass lost, 2 Phi(-c) ~ 1.0e-17, lies far
inside the unit-integral check.  Every weight route reads the declared
support, so a Gaussian estimate sums the increments within c*h of its
target instead of the whole series, and data beyond that is inert, as it
is for the two compactly supported kernels.

The shipped kernels are built on first lookup by :func:`kernel_by_name`,
so each one's unit-integral check runs once, and only if it is used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgument, check_positive

NORMALIZATION_TOL = 1e-8
_QUAD_POINTS = 400_001
GAUSSIAN_CUT = math.sqrt(106.0 * math.log(2.0))  # K(c)/K(0) = 2**-53


@dataclass(frozen=True)
class KernelSpec:
    """A named kernel with vectorized evaluation and closed-form L2 norm.

    Parameters
    ----------
    name : str
        Identifier used in configs and reports.
    fn : callable
        Vectorized density, must vanish outside ``support``.
    support : (float, float)
        Interval outside which the kernel is exactly zero; infinite
        endpoints allowed.
    l2norm : float
        The closed-form value of the integral of K^2.
    mass_tol : float
        Tolerance for the unit-integral check at construction.  The default
        suits smooth kernels; kernels with jump discontinuities need a looser
        bound because trapezoid quadrature is only first-order at a jump.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    support: tuple[float, float]
    l2norm: float
    mass_tol: float = NORMALIZATION_TOL

    def __post_init__(self):
        lo, hi = self._quad_bounds()
        k = self.fn(np.linspace(lo, hi, _QUAD_POINTS))
        if np.any(k < 0):
            raise InvalidArgument(f"kernel '{self.name}' takes negative values")
        if not np.all(np.isfinite(k)):
            raise InvalidArgument(f"kernel '{self.name}' is unbounded on its support")
        # a scalar step, not the point array, keeps the check's peak memory low
        mass = float(np.trapezoid(k, dx=(hi - lo) / (_QUAD_POINTS - 1)))
        if not abs(mass - 1.0) <= self.mass_tol:  # a NaN mass fails too
            raise InvalidArgument(
                f"kernel '{self.name}' integrates to {mass!r}, expected 1 within {self.mass_tol:.0e}"
            )

    def _quad_bounds(self) -> tuple[float, float]:
        lo, hi = self.support
        return (max(lo, -40.0), min(hi, 40.0))


def eval_kernel(spec: KernelSpec, u) -> np.ndarray | float:
    """Evaluate K(u); zero outside the declared support."""
    return eval_scaled(spec, 1.0, u)


def eval_scaled(spec: KernelSpec, h: float, z) -> np.ndarray | float:
    """Evaluate the bandwidth-scaled kernel K_h(z) = K(z/h)/h."""
    check_positive(h, "bandwidth")
    arr = np.asarray(z, dtype=float)
    out = spec.fn(arr / h) / h
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def support_lags(spec: KernelSpec, h: float, step: float, lo: int, hi: int) -> tuple[int, int]:
    """The lags [a, b] in [lo, hi] covering K_h's declared support at lag step, widened by one lag."""
    sup_lo, sup_hi = np.clip(np.multiply(spec.support, h) / step, lo - 1, hi + 1)
    return max(lo, math.floor(sup_lo) - 1), min(hi, math.ceil(sup_hi) + 1)


def kernel_l2_norm(spec: KernelSpec) -> float:
    """Closed-form integral of K^2, as used in the shrinking-bandwidth CLT."""
    return spec.l2norm


def _gaussian(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    k = np.clip(u, -2.0 * GAUSSIAN_CUT, 2.0 * GAUSSIAN_CUT, out=np.empty_like(u))  # k*k stays finite
    np.multiply(-0.5 * k, k, out=k)  # (-0.5*u)*u in place, adding no array to the build check's peak
    k = np.exp(k, out=k) / math.sqrt(2.0 * math.pi)
    return np.where(np.abs(u) <= GAUSSIAN_CUT, k, 0.0)


def _onesided_exp(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where(u <= 0.0, np.exp(np.minimum(u, 0.0)), 0.0)


def _biweight(u: np.ndarray) -> np.ndarray:
    # (15/16) * w * w with w = 1 - u*u where |u| <= 1, else 0, in place so
    # that only two arrays of u's size are held while the 400,001-point build
    # check runs; |u| capped at 2 squares to u*u inside the support, never to inf
    u = np.asarray(u, dtype=float)
    w = np.minimum(np.abs(u), 2.0, out=np.empty_like(u))
    np.multiply(w, w, out=w)
    np.subtract(1.0, w, out=w)
    k = np.multiply(15.0 / 16.0, w, out=np.empty_like(u))
    np.multiply(k, w, out=k)
    np.copyto(k, 0.0, where=~(np.abs(u, out=w) <= 1.0))
    return k


# name -> (fn, support, l2norm) of each shipped kernel
_SHIPPED = {
    "gaussian": (_gaussian, (-GAUSSIAN_CUT, GAUSSIAN_CUT), 1.0 / (2.0 * math.sqrt(math.pi))),
    "onesided": (_onesided_exp, (-math.inf, 0.0), 0.5),
    "beta": (_biweight, (-1.0, 1.0), 5.0 / 7.0),
}


@functools.cache
def kernel_by_name(name: str) -> KernelSpec:
    """Look up one of the shipped kernels: gaussian | onesided | beta.

    Each is built, and its unit integral checked, on its first lookup."""
    try:
        fn, support, l2norm = _SHIPPED[name]
    except KeyError:
        raise InvalidArgument(
            f"unknown kernel '{name}'; available: {', '.join(sorted(_SHIPPED))}"
        ) from None
    return KernelSpec(name=name, fn=fn, support=support, l2norm=l2norm)


def uniform_kernel(width: float = 1.0, name: str = "uniform") -> KernelSpec:
    """Flat kernel of the given total width, centred at zero.

    The support is half-open, [-width/2, width/2), so that grid-aligned
    day windows do not double count their right endpoint.
    """
    check_positive(width, "width")
    half = width / 2.0

    def _flat(u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where((u >= -half) & (u < half), 1.0 / width, 0.0)

    return KernelSpec(
        name=name, fn=_flat, support=(-half, half), l2norm=1.0 / width, mass_tol=1e-5
    )
