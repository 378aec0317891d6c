"""Command-line front end.

Subcommands: simulate | estimate | select-bandwidth | mc-study | forecast.
Every command reads a YAML config, applies --seed/--out/--threads
overrides, builds its domain objects, writes the fully resolved config to
<out>/config_echo.yaml, and only then reads inputs and computes.  Exit
codes: 0 success, 1 validation or user error, 2 I/O or system error.

Worker threads only change wall-clock time, never results.  mc-study
echoes the thread count it ran with, but a rerun from an echo file
reproduces every data file byte for byte at any --threads value.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click
import numpy as np

from . import config as cfgmod
from . import csvio
from .bandwidth import BandwidthGrid, cv_bandwidth, default_window
from .errors import InvalidArgument, SpotcovError
# calibrated_threshold, daily_cov_series and factor_series are unused here but stay
# importable: the benchmark tracer wraps them by these module paths.
from .estimators import asymptotic_band, calibrated_threshold, omega, spot_covariance_path  # noqa: F401
from .forecast import compare_models, daily_cov_series, factor_series, train_span  # noqa: F401
from .kernels import kernel_by_name
from .mc import plotting_pairs, resolve_threshold, run_mc_study
from .simulate import simulate_bates2d, simulate_heston2d
from .timeseries import build_uniform_grid, log_returns


def _overrides(seed, out, threads) -> dict:
    if threads is None:
        env = os.environ.get("SPOTCOV_THREADS")
        try:
            threads = int(env) if env else None
        except ValueError:
            raise InvalidArgument(f"SPOTCOV_THREADS must be an integer, got {env!r}") from None
    return {"seed": seed, "out": out, "threads": threads}


def _prepare(resolved: dict) -> Path:
    outdir = Path(resolved["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    cfgmod.dump_echo(outdir / "config_echo.yaml", resolved)
    return outdir


def _run(body):
    try:
        body()
    except SpotcovError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except OSError as e:
        click.echo(f"i/o error: {e}", err=True)
        sys.exit(2)


_common = [
    click.option("--config", "config_path", required=True, type=click.Path(), help="YAML config file"),
    click.option("--seed", type=int, default=None, help="override the config seed"),
    click.option("--out", type=click.Path(), default=None, help="override the output directory"),
    click.option("--threads", type=int, default=None, help="worker cap (env SPOTCOV_THREADS)"),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Spot covariance estimation toolkit."""


@main.command()
@common_options
def simulate(config_path, seed, out, threads):
    """Simulate a market and write prices, true covariance, jump times."""

    def body():
        resolved = cfgmod.resolve_simulate(cfgmod.load_yaml(config_path), _overrides(seed, out, threads))
        grid = build_uniform_grid(resolved["horizon"], resolved["n"])
        heston = cfgmod.build_heston(resolved)
        jumps = cfgmod.build_jumps(resolved)
        if jumps is not None:
            jumps.check_steps(grid.T, grid.n)
        outdir = _prepare(resolved)
        if jumps is not None:
            sim = simulate_bates2d(heston, jumps, grid, resolved["seed"])
        else:
            sim = simulate_heston2d(heston, grid, resolved["seed"])
        csvio.write_prices(outdir / "prices.csv", sim.prices)
        csvio.write_cov_path(outdir / "true_cov.csv", sim.true_cov)
        csvio.write_jump_times(outdir / "jump_times.csv", sim.jump_times, d=sim.prices.d)
        click.echo(f"wrote 4 files to {outdir}")

    _run(body)


def _estimate_body(config_path, seed, out, threads, cv_only: bool):
    resolved = cfgmod.resolve_estimate(cfgmod.load_yaml(config_path), _overrides(seed, out, threads))
    spec = kernel_by_name(resolved["kernel"])
    use_cv = resolved["bandwidth"] == "cv" or cv_only
    candidates, window = resolved["cv"]["candidates"], resolved["cv"]["window"]
    if use_cv and not candidates:
        raise InvalidArgument("cv.candidates must list at least one bandwidth to select from")
    threshold = cfgmod.build_threshold(resolved["threshold"])
    outdir = _prepare(resolved)
    prices = csvio.read_prices(resolved["prices"])
    increments = log_returns(prices)
    T = prices.grid.T

    if use_cv:
        t_l, t_u = window if window is not None else default_window(T)
        grid = BandwidthGrid(candidates=candidates, t_l=t_l, t_u=t_u)
        cv_result = cv_bandwidth(increments, spec, grid)
        csvio.write_cv_curve(outdir / "cv_curve.csv", cv_result.candidates, cv_result.values)
        click.echo(f"selected bandwidth h={cv_result.h!r}")
        if cv_only:
            return
        h = cv_result.h
    else:
        h = resolved["bandwidth"]

    taus_spec = resolved["taus"]
    if taus_spec is None:
        taus = np.linspace(*default_window(T), 101)
    elif isinstance(taus_spec, dict):
        taus = np.linspace(taus_spec["start"], taus_spec["stop"], taus_spec["count"])
    else:
        taus = np.asarray(taus_spec, dtype=float)

    est = spot_covariance_path(increments, spec, h, taus, thr=resolve_threshold(threshold, increments))
    csvio.write_cov_path(outdir / "spot_cov.csv", est)

    if resolved["band_level"] is not None:
        lowers, uppers = asymptotic_band(
            est, omega(est.values), prices.grid.delta, h, spec, resolved["band_level"]
        )
        csvio.write_bands(outdir / "bands.csv", est.times, lowers, uppers)
    click.echo(f"wrote estimates to {outdir}")


@main.command()
@common_options
def estimate(config_path, seed, out, threads):
    """Estimate the spot covariance path from a prices CSV."""
    _run(lambda: _estimate_body(config_path, seed, out, threads, cv_only=False))


@main.command("select-bandwidth")
@common_options
def select_bandwidth(config_path, seed, out, threads):
    """Run only the cross-validation step of `estimate`."""
    _run(lambda: _estimate_body(config_path, seed, out, threads, cv_only=True))


@main.command("mc-study")
@common_options
def mc_study(config_path, seed, out, threads):
    """Run a Monte Carlo study and write the error table plus QQ pairs."""

    def body():
        resolved = cfgmod.resolve_mc_study(cfgmod.load_yaml(config_path), _overrides(seed, out, threads))
        cfg = cfgmod.build_mc_config(resolved)
        outdir = _prepare(resolved)
        report = run_mc_study(cfg)
        csvio.write_mc_table(outdir / "mc_table.csv", report.cells)
        k, l = cfg.element
        for cell in report.cells:
            z = report.z_samples[(cell.kernel, cell.n)][:, k, l]
            theoretical, empirical = plotting_pairs(z)
            csvio.write_qq_pairs(
                outdir / f"qq_pairs_{cell.kernel}_n{cell.n}.csv",
                theoretical,
                empirical,
            )
        click.echo(f"wrote study results to {outdir}")

    _run(body)


@main.command()
@common_options
def forecast(config_path, seed, out, threads):
    """Simulate a multi-day market and compare forecasting models."""

    def body():
        resolved = cfgmod.resolve_forecast(cfgmod.load_yaml(config_path), _overrides(seed, out, threads))
        days = resolved["days"]
        train_span(days, resolved["split"], resolved["horizons"])
        grid = build_uniform_grid(float(days), days * resolved["n_per_day"])
        heston = cfgmod.build_heston(resolved)
        spec = kernel_by_name(resolved["kernel"])
        outdir = _prepare(resolved)
        sim = simulate_heston2d(heston, grid, resolved["seed"])
        report = compare_models(
            sim,
            days,
            spec,
            resolved["bandwidth"],
            split=resolved["split"],
            horizons=tuple(resolved["horizons"]),
        )
        csvio.write_losses(outdir / "losses.csv", report.losses)
        csvio.write_coefficients(outdir / "coefficients.csv", report.models, report.horizons)
        csvio.write_factors(outdir / "factors_vhar_rc.csv", report.series["vhar-rc"])
        csvio.write_factors(outdir / "factors_vhar_kcv.csv", report.series["vhar-kcv"])
        click.echo(f"wrote forecast comparison to {outdir}")

    _run(body)


if __name__ == "__main__":
    main()
