"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -m acceptance -s` to see the per-criterion lines.  The
Monte Carlo experiments pin their master seeds, so every run exercises
identical randomness; bandwidths and thresholds are frozen here and the
rationale for each choice is commented next to the experiment.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.special import ndtri
from scipy.stats import kstest

import spotcov as sc
from spotcov.rng import derive_seed

from oracles import naive_kcv, naive_tkcv

pytestmark = pytest.mark.acceptance

DATA = Path(__file__).parent / "data"


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ----------------------------------------------------------------------
# Criterion 1: oracle equivalence, 100 random instances, < 10 s
# ----------------------------------------------------------------------


def test_c1_oracle_equivalence():
    rng = np.random.default_rng(20240404)
    names = ("gaussian", "onesided", "beta")
    t0 = time.time()
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 1001))
        T = float(rng.uniform(0.5, 3.0))
        g = sc.build_uniform_grid(T, n)
        dx = rng.standard_normal((n, d)) * rng.uniform(0.001, 0.1)
        inc = sc.IncrementSeries(grid=g, values=dx)
        name = names[trial % 3]
        spec = sc.kernel_by_name(name)
        h = float(rng.uniform(0.05, 0.5) * T)
        tau = float(rng.uniform(0.0, T))

        est = sc.kcv(inc, spec, h, tau).entries
        ref = np.asarray(naive_kcv(g.points[:-1].tolist(), dx.tolist(), name, h, tau))
        scale = np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(np.max(np.abs(est - ref) / scale)))

        mode = "squared-norm" if trial % 2 == 0 else "norm"
        thr = sc.calibrated_threshold(inc, multiple=4.0, mode=mode)
        cutoff = d * thr.r(g.delta)
        est_t = sc.tkcv(inc, spec, h, tau, thr).entries
        ref_t = np.asarray(
            naive_tkcv(g.points[:-1].tolist(), dx.tolist(), name, h, tau, cutoff, mode)
        )
        scale_t = np.maximum(np.abs(ref_t), 1e-30)
        worst = max(worst, float(np.max(np.abs(est_t - ref_t) / scale_t)))
    elapsed = time.time() - t0
    _report(
        "C1 oracle-equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"max rel diff {worst:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# Criteria 2 and 6 share one 500-replication study: fresh volatility per
# replication (the mixed CLT is self-normalizing, so each replication is
# standardized by its own truth), gaussian kernel, h = 0.006 days.  The
# bandwidth balances effective sample size (h/delta ~ 8.6 minutes) against
# the smoothing noise from the rough realized volatility path.  Bands use
# a steadier variance plug-in built from a 5x wider estimation window.
# Replications whose simulated variance hits the truncation floor exactly
# at the target time fall outside the CLT's non-degeneracy assumption and
# are skipped (same 1% budget as the harness failure policy).
# ----------------------------------------------------------------------

T2_REPS = 500
T2_H = 0.006
T2_H_OMEGA = 0.03
T2_SEED = 777


@pytest.fixture(scope="module")
def theorem2_study():
    T, n = 2.0, 2880
    grid = sc.build_uniform_grid(T, n)
    cfg = sc.HestonConfig()
    spec = sc.kernel_by_name("gaussian")
    tau = T / 2.0
    tau_idx = n // 2
    zs, hits, skipped = [], 0, 0
    for r in range(T2_REPS):
        sim = sc.simulate_heston2d(cfg, grid, seed=derive_seed(T2_SEED, "rep", r))
        truth = sim.true_cov.values[tau_idx]
        if truth[0, 0] == 0.0 or truth[1, 1] == 0.0:
            skipped += 1
            continue
        inc = sc.log_returns(sim.prices)
        est = sc.kcv(inc, spec, T2_H, tau)
        truth_m = sc.CovMatrix(entries=truth)
        z = sc.standardized_errors(
            [est], truth_m, sc.omega(truth_m), grid.delta, T2_H, spec
        )[0]
        zs.append(z[0, 1])
        om_smooth = sc.omega(sc.kcv(inc, spec, T2_H_OMEGA, tau))
        lo, hi = sc.asymptotic_band(est, om_smooth, grid.delta, T2_H, spec, 0.95)
        hits += bool(lo[0, 1] <= truth[0, 1] <= hi[0, 1])
    assert skipped <= T2_REPS * 0.01, f"{skipped} degenerate replications"
    return np.asarray(zs), hits


def test_c2_asymptotic_normality(theorem2_study):
    t0 = time.time()
    zs, _ = theorem2_study
    m = zs.shape[0]
    theo = ndtri((np.arange(1, m + 1) - 0.5) / m)
    slope, _ = np.polyfit(theo, np.sort(zs), 1)
    ks = kstest(zs, "norm").statistic
    ok = 0.9 <= slope <= 1.1 and ks < 0.073
    _report(
        "C2 asymptotic-normality",
        ok,
        f"QQ slope {slope:.3f} in [0.9,1.1], KS {ks:.4f} < 0.073, {time.time() - t0:.0f}s",
    )


def test_c6_band_coverage(theorem2_study):
    zs, hits = theorem2_study
    rate = hits / T2_REPS
    _report(
        "C6 band-coverage",
        0.92 <= rate <= 0.98,
        f"95% band empirical coverage {rate:.3f} in [0.92, 0.98]",
    )


# ----------------------------------------------------------------------
# Criterion 3: one-sided kernel IMSE strictly decreasing from 5-minute to
# 1-minute to 5-second sampling, adjacent 95% bootstrap intervals disjoint.
# Fixed volatility trajectory (observed at nested strides), h = 0.05.
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_c3_convergence_ordering():
    t0 = time.time()
    cfg = sc.McConfig(
        reps=500,
        frequencies=(576, 2880, 34560),  # 5 min, 1 min, 5 sec over T = 2 days
        kernels=("onesided",),
        window=(0.2, 1.8),
        bandwidth=0.05,
        master_seed=424242,
        eval_points=101,
    )
    report = sc.run_mc_study(cfg)
    by_n = {c.n: c for c in report.cells}
    imse = {n: by_n[n].imse for n in cfg.frequencies}
    strict = imse[576] > imse[2880] > imse[34560]

    rng = np.random.default_rng(0)

    def boot_ci(vals, B=2000):
        means = np.empty(B)
        for b in range(B):
            means[b] = rng.choice(vals, size=vals.size, replace=True).mean()
        return np.percentile(means, [2.5, 97.5])

    ci = {n: boot_ci(by_n[n].ise_values) for n in cfg.frequencies}
    disjoint = ci[34560][1] < ci[2880][0] and ci[2880][1] < ci[576][0]
    elapsed = time.time() - t0
    _report(
        "C3 convergence-ordering",
        strict and disjoint and elapsed < 900.0,
        f"IMSE 5min={imse[576]:.3e} > 1min={imse[2880]:.3e} > 5s={imse[34560]:.3e}, "
        f"bootstrap CIs disjoint={disjoint}, {elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# Criterion 4: jump robustness.  Bates paths with intensity 5 and jump
# sizes ten times the diffusion step scale; the path-calibrated cutoff
# (16x the median squared increment norm) removes the jumps while keeping
# essentially all diffusion increments.
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_c4_jump_robustness():
    t0 = time.time()
    T, n = 2.0, 2880
    delta = T / n
    theta = (0.04, 0.09)
    jumps = sc.JumpConfig(
        intensity=5.0,
        mean=(0.0, 0.0),
        sd=tuple(10.0 * math.sqrt(th * delta) for th in theta),
    )
    base = dict(
        reps=200,
        frequencies=(n,),
        kernels=("gaussian",),
        window=(0.2, 1.8),
        bandwidth=0.05,
        master_seed=2024,
        eval_points=101,
        jumps=jumps,
    )
    imse_kcv = sc.run_mc_study(sc.McConfig(**base)).cell("gaussian", n).imse
    imse_tkcv = (
        sc.run_mc_study(sc.McConfig(threshold="calibrated", **base))
        .cell("gaussian", n)
        .imse
    )
    ratio_ok = imse_tkcv < 0.5 * imse_kcv

    # jump-free paths with a forced-large cutoff: reports bitwise equal
    clean = dict(
        reps=50,
        frequencies=(720,),
        kernels=("gaussian",),
        window=(0.2, 1.8),
        bandwidth=0.05,
        master_seed=99,
        eval_points=31,
    )
    rep_k = sc.run_mc_study(sc.McConfig(**clean))
    rep_t = sc.run_mc_study(sc.McConfig(threshold=sc.ThresholdSpec(c=1e12), **clean))
    bitwise = (
        rep_k.cell("gaussian", 720).imse == rep_t.cell("gaussian", 720).imse
        and rep_k.cell("gaussian", 720).isb == rep_t.cell("gaussian", 720).isb
        and np.array_equal(
            rep_k.z_samples[("gaussian", 720)], rep_t.z_samples[("gaussian", 720)]
        )
        and np.array_equal(
            rep_k.cell("gaussian", 720).ise_values, rep_t.cell("gaussian", 720).ise_values
        )
    )
    _report(
        "C4 jump-robustness",
        ratio_ok and bitwise,
        f"TKCV/KCV IMSE ratio {imse_tkcv / imse_kcv:.3f} < 0.5, "
        f"jump-free bitwise equality {bitwise}, {time.time() - t0:.0f}s",
    )


# ----------------------------------------------------------------------
# Criterion 5: threshold rate conditions for the default calibration
# ----------------------------------------------------------------------


def test_c5_threshold_rate():
    grid = sc.build_uniform_grid(2.0, 2880)
    sim = sc.simulate_heston2d(sc.HestonConfig(), grid, seed=5)
    thr = sc.default_threshold(sc.log_returns(sim.prices))
    assert thr.beta == 0.49
    report = sc.validate_threshold_rate(thr, 10.0 ** -np.arange(1, 7))
    _report(
        "C5 threshold-rate",
        report.passes and report.r_decreasing and report.ratio_decreasing_tail,
        f"r(delta) monotone to 0: {report.r_decreasing}, "
        f"delta*log(1/delta)/r monotone tail: {report.ratio_decreasing_tail}",
    )


# ----------------------------------------------------------------------
# Criterion 7: exact VHAR identification on noise-free synthetic factors
# ----------------------------------------------------------------------


def test_c7_vhar_identification():
    from spotcov.forecast import MONTH_LAG, WEEK_LAG, _design

    alpha = np.array([0.12, -0.04, 0.31])
    bd, bw, bm = 0.45, 0.2, 0.18
    rng = np.random.default_rng(71)
    days = 140
    f = np.zeros((days, 3))
    f[:MONTH_LAG] = rng.uniform(0.5, 1.5, (MONTH_LAG, 3))
    for t in range(MONTH_LAG - 1, days - 1):
        week = f[t - WEEK_LAG + 1 : t + 1].mean(axis=0)
        month = f[t - MONTH_LAG + 1 : t + 1].mean(axis=0)
        f[t + 1] = alpha + bd * f[t] + bw * week + bm * month
    series = sc.FactorSeries(dates=np.arange(1, days + 1), factors=f)
    model = sc.fit_vhar(series)

    coef_err = max(
        float(np.max(np.abs(model.alpha - alpha))),
        abs(model.beta_d - bd),
        abs(model.beta_w - bw),
        abs(model.beta_m - bm),
    )
    X, y = _design(series)
    coef = np.concatenate([model.alpha, [model.beta_d, model.beta_w, model.beta_m]])
    resid = y - X @ coef
    grams = np.abs(X.T @ resid)
    rel = float(np.max(grams / np.maximum(np.linalg.norm(X, axis=0), 1.0)))
    ortho_ok = rel <= 1e-8
    _report(
        "C7 vhar-identification",
        coef_err < 1e-8 and ortho_ok,
        f"max coefficient error {coef_err:.2e} < 1e-8, "
        f"max normalized regressor-residual product {rel:.2e} <= 1e-8",
    )


# ----------------------------------------------------------------------
# Criterion 8: forecasting direction over 50 seeded 120-day experiments
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_c8_forecasting_direction():
    t0 = time.time()
    days, per = 120, 288
    grid = sc.build_uniform_grid(float(days), days * per)
    cfg = sc.HestonConfig(
        cir=(
            sc.CirParams(kappa=0.10, theta=0.04, eta=0.04, v0=0.04),
            sc.CirParams(kappa=0.15, theta=0.09, eta=0.06, v0=0.09),
        )
    )
    spec = sc.kernel_by_name("gaussian")
    wins = {"L_E": 0, "L_F": 0, "L_Q": 0}
    n_exp = 50
    for s in range(n_exp):
        sim = sc.simulate_heston2d(cfg, grid, seed=derive_seed(808, "experiment", s))
        report = sc.compare_models(sim, days, spec, h=0.75)
        for ln in wins:
            if report.value("vhar-kcv", 1, ln) < report.value("vhar-rc", 1, ln):
                wins[ln] += 1
    elapsed = time.time() - t0
    ok = all(w >= 0.7 * n_exp for w in wins.values()) and elapsed < 1200.0
    _report(
        "C8 forecasting-direction",
        ok,
        f"kernel-measure wins at 1-day horizon: "
        f"L_E {wins['L_E']}/{n_exp}, L_F {wins['L_F']}/{n_exp}, L_Q {wins['L_Q']}/{n_exp}, "
        f"{elapsed:.0f}s",
    )


# ----------------------------------------------------------------------
# Criterion 9: loss-function unit identities
# ----------------------------------------------------------------------


def test_c9_loss_identities():
    eye = sc.CovMatrix(entries=np.eye(2))
    ok = True
    detail = []

    ok &= sc.loss_euclidean(eye, eye) == 0.0
    ok &= sc.loss_frobenius(eye, eye) == 0.0
    ok &= abs(sc.loss_qlike(eye, eye) - 2.0) < 1e-10
    err_eye = sc.CovMatrix(entries=np.zeros((2, 2)))
    ok &= abs(sc.loss_euclidean(eye, err_eye) - 2.0) < 1e-10
    ok &= abs(sc.loss_frobenius(eye, err_eye) - 2.0) < 1e-10
    off = sc.CovMatrix(entries=[[0.0, 1.0], [1.0, 0.0]])
    ok &= abs(sc.loss_euclidean(off, err_eye) - 1.0) < 1e-10
    ok &= abs(sc.loss_frobenius(off, err_eye) - 2.0) < 1e-10
    two = sc.CovMatrix(entries=2.0 * np.eye(2))
    ok &= abs(sc.loss_qlike(eye, two) - (2.0 * math.log(2.0) + 1.0)) < 1e-10
    detail.append("identity cases exact")

    rng = np.random.default_rng(909)
    minimizer_ok = True
    for _ in range(100):
        a = rng.standard_normal((2, 2))
        sigma = sc.CovMatrix(entries=a @ a.T + 0.05 * np.eye(2))
        b = rng.standard_normal((2, 2))
        h = sc.CovMatrix(entries=b @ b.T + 0.05 * np.eye(2))
        if sc.loss_qlike(sigma, sigma) > sc.loss_qlike(sigma, h) + 1e-10:
            minimizer_ok = False
    ok &= minimizer_ok
    detail.append(f"qlike minimizer property on 100 random PD pairs: {minimizer_ok}")
    _report("C9 loss-identities", bool(ok), "; ".join(detail))


# ----------------------------------------------------------------------
# Criterion 10: CLI determinism across reruns and worker counts
# ----------------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "spotcov.cli", *args], capture_output=True, text=True
    )


def _data_files(outdir: Path) -> dict:
    return {
        p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.suffix == ".csv"
    }


@pytest.mark.slow
def test_c10_cli_determinism(tmp_path):
    t0 = time.time()
    configs = {
        "simulate": {"model": "bates", "n": 480, "seed": 42,
                     "jumps": {"intensity": 5.0, "sd": [0.04, 0.04]}},
        "estimate": {
            "prices": str(DATA / "fixture_prices.csv"),
            "kernel": "gaussian",
            "bandwidth": 0.1,
            "band_level": 0.95,
            "taus": {"start": 0.3, "stop": 1.7, "count": 9},
        },
        "mc-study": {
            "model": "heston",
            "reps": 24,
            "frequencies": [120],
            "kernels": ["gaussian"],
            "bandwidth": 0.2,
            "window": [0.5, 1.5],
            "eval_points": 11,
            "seed": 11,
        },
        "forecast": {"days": 130, "n_per_day": 48, "split": 0.8, "seed": 5},
    }
    all_ok = True
    details = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        outputs = {}
        for threads in (1, 2, 8):
            out = tmp_path / f"{command}-t{threads}"
            res = _cli(
                command, "--config", str(cfg_path), "--out", str(out),
                "--threads", str(threads),
            )
            assert res.returncode == 0, f"{command}: {res.stderr}"
            outputs[threads] = _data_files(out)
        same_threads = outputs[1] == outputs[2] == outputs[8]

        # rerun from the echoed config reproduces everything byte for byte
        echo = tmp_path / f"{command}-t1" / "config_echo.yaml"
        re_out = tmp_path / f"{command}-re"
        res = _cli(command, "--config", str(echo), "--out", str(re_out))
        assert res.returncode == 0, f"{command} rerun: {res.stderr}"
        rerun_same = _data_files(re_out) == outputs[1]
        all_ok &= same_threads and rerun_same
        details.append(f"{command}: threads={same_threads} rerun={rerun_same}")
    _report(
        "C10 cli-determinism",
        all_ok,
        "; ".join(details) + f", {time.time() - t0:.0f}s",
    )
