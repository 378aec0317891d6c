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
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState, check_positive
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
        for name in ("kappa", "theta", "v0"):
            check_positive(getattr(self, name), name)
        if not 0 <= self.eta < math.inf:
            raise InvalidArgument(f"eta must be nonnegative and finite, got {self.eta}")


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
        if not all(map(math.isfinite, self.mu)):
            raise InvalidArgument(f"mu must be finite, got {self.mu}")
        if not (-1.0 < self.rho < 1.0):
            raise InvalidArgument(f"rho must lie strictly inside (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class JumpConfig:
    """Compound Poisson jumps: Poisson arrival times, iid normal sizes."""

    intensity: float = 5.0
    mean: tuple[float, float] = (0.0, 0.0)
    sd: tuple[float, float] = (0.02, 0.02)

    def __post_init__(self):
        if not self.intensity >= 0:
            raise InvalidArgument(f"intensity must be nonnegative, got {self.intensity}")
        if len(self.mean) != 2 or len(self.sd) != 2:
            raise InvalidArgument("jump size parameters need exactly 2 entries")
        if not all(map(math.isfinite, self.mean)):
            raise InvalidArgument(f"jump mean must be finite, got {self.mean}")
        if not all(0 <= s < math.inf for s in self.sd):
            raise InvalidArgument(f"jump sd must be nonnegative and finite, got {self.sd}")

    def check_steps(self, T: float, n: int) -> None:
        """Reject more expected jumps over [0, T] than the n grid steps: that
        is no finite-activity model, and drawing the jumps could exhaust memory."""
        if self.intensity * T > n:
            raise InvalidArgument(
                f"intensity {self.intensity} expects {self.intensity * T:g} jumps, "
                f"more than the {n} grid steps"
            )


@dataclass(frozen=True)
class SimOutput:
    """Everything a study needs from one simulated market."""

    prices: PricePath
    true_cov: CovPath
    jump_times: list = field(default_factory=list)  # [(time, size vector)]


def simulate_cir(p: CirParams, grid: TimeGrid, seed: int) -> np.ndarray:
    """Full-truncation Euler path of the variance process, length n+1.

    Each step is v_{i+1} = max(v_i*b + c + a_i*sqrt(v_i), 0) with
    b = 1 - kappa*delta, c = kappa*theta*delta and a_i = eta*sqrt(delta)*z_i,
    the Euler step v + kappa*(theta - v)*delta + eta*sqrt(v)*sqrt(delta)*z
    regrouped, so the path never goes negative.
    """
    n = grid.n
    delta = grid.delta
    a = substream(seed).standard_normal(n)
    a *= p.eta * math.sqrt(delta)
    # Python floats, one per step, that np.fromiter stores unboxed in one allocation.
    # "0.0 if x < 0.0 else x" is max(x, 0.0), -0.0 and NaN passing through, so vi
    # is never below 0 and sqrt(vi) needs no positive part of its own.
    def path(vi, b, c, sqrt):
        yield vi
        for ai in memoryview(a):
            x = vi * b + c + ai * sqrt(vi)
            vi = 0.0 if x < 0.0 else x
            yield vi

    b, c = 1.0 - p.kappa * delta, p.kappa * p.theta * delta
    return np.fromiter(path(float(p.v0), b, c, math.sqrt), dtype=float, count=n + 1)


def true_cov(v1: np.ndarray, v2: np.ndarray, rho: float) -> np.ndarray:
    """The (m, 2, 2) spot covariances at m pairs of variance values; InvalidState
    when one is not finite, as when v1 * v2 overflows."""
    cov = np.empty((len(v1), 2, 2))
    cov[:, 0, 0] = v1
    cov[:, 1, 1] = v2
    with np.errstate(over="ignore", invalid="ignore"):
        cov[:, 0, 1] = cov[:, 1, 0] = rho * np.sqrt(v1 * v2)
    if not np.isfinite(cov).all():
        raise InvalidState(
            f"heston.cir: the true covariance is not finite; the variances reach "
            f"{float(np.max(v1))!r} and {float(np.max(v2))!r}"
        )
    return cov


def true_cov_path(grid: TimeGrid, v1: np.ndarray, v2: np.ndarray, rho: float) -> CovPath:
    return CovPath(times=grid.points, values=true_cov(v1, v2, rho))


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
    jc.check_steps(grid.T, grid.n)
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
        return base
    prices = PricePath(grid=grid, values=base.prices.values + jpath)
    return SimOutput(prices=prices, true_cov=base.true_cov, jump_times=jump_times)
