"""Euler-scheme market simulator: correlated bivariate stochastic
volatility with square-root variance processes, plus an optional
independent compound Poisson jump component in returns.

Log-prices are simulated directly (log-Euler), so the spot covariance of
log-returns equals the covariance path built from the simulated variance
trajectories exactly; that path ships with every simulation as the ground
truth for estimator studies.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .rng import derive_seed, substream
from .timeseries import CovPath, PricePath, TimeGrid


@dataclass(frozen=True)
class CirParams:
    """Square-root mean-reverting variance process parameters.

    dv = kappa * (theta - v) dt + eta * sqrt(v) dZ
    """

    kappa: float
    theta: float
    eta: float
    v0: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise InvalidArgument(f"kappa must be positive, got {self.kappa}")
        if self.theta <= 0:
            raise InvalidArgument(f"theta must be positive, got {self.theta}")
        if self.eta < 0:
            raise InvalidArgument(f"eta must be nonnegative, got {self.eta}")
        if self.v0 <= 0:
            raise InvalidArgument(f"v0 must be positive, got {self.v0}")


@dataclass(frozen=True)
class HestonConfig:
    """Bivariate stochastic volatility configuration.

    The correlation applies to the two price Brownian motions; the
    volatility drivers are independent of the price shocks (no leverage).
    """

    mu: tuple[float, float] = (0.0, 0.0)
    cir: tuple[CirParams, CirParams] = (
        CirParams(kappa=5.0, theta=0.04, eta=0.5, v0=0.04),
        CirParams(kappa=4.0, theta=0.09, eta=0.4, v0=0.09),
    )
    rho: float = 0.5

    def __post_init__(self):
        if len(self.mu) != 2 or len(self.cir) != 2:
            raise InvalidArgument("config is bivariate: mu and cir need exactly 2 entries")
        if not (-1.0 < self.rho < 1.0):
            raise InvalidArgument(f"rho must lie strictly inside (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class JumpConfig:
    """Compound Poisson jumps: Poisson arrival times, iid normal sizes."""

    intensity: float = 5.0
    mean: tuple[float, float] = (0.0, 0.0)
    sd: tuple[float, float] = (0.02, 0.02)

    def __post_init__(self):
        if self.intensity < 0:
            raise InvalidArgument(f"intensity must be nonnegative, got {self.intensity}")
        if len(self.mean) != 2 or len(self.sd) != 2:
            raise InvalidArgument("jump size parameters need exactly 2 entries")
        if any(s < 0 for s in self.sd):
            raise InvalidArgument(f"jump sd must be nonnegative, got {self.sd}")


@dataclass(frozen=True)
class SimOutput:
    """Everything a study needs from one simulated market."""

    prices: PricePath
    true_cov: CovPath
    jump_times: list = field(default_factory=list)  # [(time, size vector)]
    seed: int = 0


def simulate_cir(p: CirParams, grid: TimeGrid, seed: int) -> np.ndarray:
    """Full-truncation Euler path of the variance process, length n+1.

    The diffusion coefficient uses the positive part of the current value
    and each step is floored at zero, so the path never goes negative.
    """
    n = grid.n
    delta = grid.delta
    sqdt = math.sqrt(delta)
    xi = substream(seed).standard_normal(n)
    kappa, theta, eta, sqrt = p.kappa, p.theta, p.eta, math.sqrt
    vi = float(p.v0)
    v = array("d", [vi])
    append = v.append
    # Python floats, one per step: memoryview yields them one at a time and
    # array("d") stores them unboxed, so no list of n float objects is held.
    # "0.0 if x < 0.0 else x" is max(x, 0.0), -0.0 and NaN passing through.
    for z in memoryview(xi):
        x = vi + kappa * (theta - vi) * delta + eta * sqrt(0.0 if vi < 0.0 else vi) * sqdt * z
        vi = 0.0 if x < 0.0 else x
        append(vi)
    return np.frombuffer(v)


def true_cov_path(grid: TimeGrid, v1: np.ndarray, v2: np.ndarray, rho: float) -> CovPath:
    cov = np.empty((grid.n + 1, 2, 2))
    cov[:, 0, 0] = v1
    cov[:, 1, 1] = v2
    cov[:, 0, 1] = cov[:, 1, 0] = rho * np.sqrt(v1 * v2)
    return CovPath(times=grid.points, values=cov)


def diffusion_prices(
    cfg: HestonConfig, grid: TimeGrid, v1: np.ndarray, v2: np.ndarray, seed: int
) -> np.ndarray:
    """Log-price rows (n+1, 2) from the log-Euler recursion, X(0) = 0."""
    n = grid.n
    delta = grid.delta
    sqdt = math.sqrt(delta)
    xi1 = substream(seed, "diffusion-1").standard_normal(n)
    xi2 = substream(seed, "diffusion-2").standard_normal(n)
    eps1 = xi1
    eps2 = cfg.rho * xi1 + math.sqrt(1.0 - cfg.rho**2) * xi2
    dx = np.empty((n, 2))
    dx[:, 0] = cfg.mu[0] * delta + np.sqrt(v1[:-1]) * sqdt * eps1
    dx[:, 1] = cfg.mu[1] * delta + np.sqrt(v2[:-1]) * sqdt * eps2
    x = np.zeros((n + 1, 2))
    np.cumsum(dx, axis=0, out=x[1:])
    return x


def simulate_heston2d(cfg: HestonConfig, grid: TimeGrid, seed: int) -> SimOutput:
    """Simulate correlated bivariate prices with square-root variances.

    Substreams: "vol-1"/"vol-2" drive the variance paths, "diffusion-1"/
    "diffusion-2" the price shocks; all are derived from the one seed.
    """
    v1 = simulate_cir(cfg.cir[0], grid, derive_seed(seed, "vol-1"))
    v2 = simulate_cir(cfg.cir[1], grid, derive_seed(seed, "vol-2"))
    x = diffusion_prices(cfg, grid, v1, v2, seed)
    return SimOutput(
        prices=PricePath(grid=grid, values=x),
        true_cov=true_cov_path(grid, v1, v2, cfg.rho),
        jump_times=[],
        seed=seed,
    )


def simulate_compound_poisson(
    jc: JumpConfig, grid: TimeGrid, seed: int
) -> tuple[np.ndarray, list]:
    """Cumulative jump path on the grid plus the individual jumps.

    Returns (path, jump_times): path has shape (n+1, 2) with path[i] the sum
    of all jumps up to and including t_i; jump_times is a list of
    (time, size vector) pairs in time order.  A jump lands in the unique
    grid step whose right endpoint is the first point at or after it.
    """
    gen = substream(seed, "jumps")
    T = grid.T
    count = int(gen.poisson(jc.intensity * T)) if jc.intensity > 0 else 0
    path = np.zeros((grid.n + 1, 2))
    if count == 0:
        return path, []
    times = np.sort(gen.uniform(0.0, T, size=count))
    sizes = np.asarray(jc.mean) + np.asarray(jc.sd) * gen.standard_normal((count, 2))
    steps = np.searchsorted(grid.points, times, side="left")
    steps = np.clip(steps, 1, grid.n)
    for j, u in zip(steps, sizes):
        path[j] += u
    np.cumsum(path, axis=0, out=path)
    return path, [(float(t), s.copy()) for t, s in zip(times, sizes)]


def simulate_bates2d(
    cfg: HestonConfig,
    jc: JumpConfig,
    grid: TimeGrid,
    seed: int,
    jump_seed: int | None = None,
) -> SimOutput:
    """Diffusion simulation plus an independent jump component in returns.

    With zero intensity the output is bitwise identical to
    :func:`simulate_heston2d`.  The jump stream is independent of the
    diffusion streams; passing ``jump_seed`` re-seeds only the jumps.
    """
    base = simulate_heston2d(cfg, grid, seed)
    jpath, jump_times = simulate_compound_poisson(
        jc, grid, seed if jump_seed is None else jump_seed
    )
    if not jump_times:
        return SimOutput(
            prices=base.prices, true_cov=base.true_cov, jump_times=[], seed=seed
        )
    prices = PricePath(grid=grid, values=base.prices.values + jpath)
    return SimOutput(
        prices=prices, true_cov=base.true_cov, jump_times=jump_times, seed=seed
    )
