import math

import numpy as np
import pytest

from spotcov import (
    CirParams,
    CovMatrix,
    FactorSeries,
    HestonConfig,
    InvalidArgument,
    InvalidState,
    PricePath,
    VharModel,
    build_uniform_grid,
    chol_vech,
    compare_models,
    daily_cov_series,
    factor_series,
    fit_vhar,
    forecast_vhar,
    horizon_average,
    kcv,
    kernel_by_name,
    log_returns,
    loss_euclidean,
    loss_frobenius,
    loss_qlike,
    simulate_heston2d,
    true_daily_integrated_cov,
    uniform_kernel,
    unvech_lower,
)
from spotcov.forecast import MONTH_LAG, WEEK_LAG


def _generate_series(alpha, bd, bw, bm, days, q=3, seed=0, noise=0.0, start=None):
    """Run the lag recursion forward with optional innovation noise."""
    rng = np.random.default_rng(seed)
    f = np.zeros((days, q))
    f[:MONTH_LAG] = start if start is not None else rng.uniform(0.5, 1.5, (MONTH_LAG, q))
    for t in range(MONTH_LAG - 1, days - 1):
        week = f[t - WEEK_LAG + 1 : t + 1].mean(axis=0)
        month = f[t - MONTH_LAG + 1 : t + 1].mean(axis=0)
        f[t + 1] = alpha + bd * f[t] + bw * week + bm * month
        if noise:
            f[t + 1] += noise * rng.standard_normal(q)
    return FactorSeries(dates=np.arange(1, days + 1), factors=f, source="realized-cov")


class TestDailySeries:
    def test_realized_definition(self):
        g = build_uniform_grid(2.0, 96)  # 2 days, 48 obs/day
        rng = np.random.default_rng(1)
        vals = rng.standard_normal((97, 2)).cumsum(axis=0) * 0.01
        p = PricePath(grid=g, values=vals)
        days = daily_cov_series(p, 2, "realized-cov")
        dx = np.diff(vals, axis=0)
        expected = dx[:48].T @ dx[:48]
        assert np.allclose(days[0].entries, expected, rtol=1e-12)

    def test_constant_increment_day(self):
        g = build_uniform_grid(1.0, 48)
        step = np.array([0.01, -0.02])
        vals = np.arange(49)[:, None] * step[None, :]
        p = PricePath(grid=g, values=vals)
        (day,) = daily_cov_series(p, 1, "realized-cov")
        assert np.allclose(day.entries, 48 * np.outer(step, step), rtol=1e-12)

    def test_flat_kernel_matches_realized(self):
        g = build_uniform_grid(2.0, 192)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((193, 2)).cumsum(axis=0) * 0.01
        p = PricePath(grid=g, values=vals)
        realized = daily_cov_series(p, 2, "realized-cov")
        flat = uniform_kernel(width=1.0)  # spans exactly one day
        kernelized = daily_cov_series(p, 2, "kernel-cov", spec=flat, h=1.0)
        for a, b in zip(realized, kernelized):
            assert np.allclose(a.entries, b.entries, atol=1e-10)

    def test_kernel_measure_is_per_day_kcv(self):
        days, per, day_len = 6, 48, 0.5
        g = build_uniform_grid(days * day_len, days * per)
        rng = np.random.default_rng(3)
        p = PricePath(grid=g, values=rng.standard_normal((days * per + 1, 2)).cumsum(axis=0) * 0.01)
        inc = log_returns(p)
        for name in ("gaussian", "onesided", "beta"):
            spec = kernel_by_name(name)
            series = daily_cov_series(p, days, "kernel-cov", spec=spec, h=0.4)
            for t, day in enumerate(series):
                expected = kcv(inc, spec, 0.4, (t + 0.5) * day_len).entries * day_len
                assert np.array_equal(day.entries, expected)

    def test_alignment_required(self):
        g = build_uniform_grid(2.0, 97)
        p = PricePath(grid=g, values=np.zeros((98, 2)))
        with pytest.raises(InvalidArgument):
            daily_cov_series(p, 2, "realized-cov")

    @pytest.mark.slow
    def test_both_measures_track_true_daily_cov(self):
        days, per = 22, 288
        g = build_uniform_grid(float(days), days * per)
        cfg = HestonConfig(
            cir=(
                CirParams(kappa=0.1, theta=0.04, eta=0.04, v0=0.04),
                CirParams(kappa=0.15, theta=0.09, eta=0.06, v0=0.09),
            )
        )
        reps = 12
        err_rc, err_kc = [], []
        for seed in range(reps):
            sim = simulate_heston2d(cfg, g, seed=900 + seed)
            truth = true_daily_integrated_cov(sim, days)
            rc = daily_cov_series(sim.prices, days, "realized-cov")
            kc = daily_cov_series(
                sim.prices, days, "kernel-cov", spec=kernel_by_name("gaussian"), h=0.5
            )
            for t in range(days):
                err_rc.append(rc[t].entries[0, 1] - truth[t].entries[0, 1])
                err_kc.append(kc[t].entries[0, 1] - truth[t].entries[0, 1])
        # both unbiased within 3 Monte Carlo standard errors
        for errs in (err_rc, err_kc):
            errs = np.asarray(errs)
            assert abs(errs.mean()) < 3 * errs.std() / math.sqrt(errs.size)


class TestCholVech:
    def test_identity(self):
        assert np.allclose(chol_vech(CovMatrix(entries=np.eye(2))), [1.0, 0.0, 1.0])

    def test_diagonal(self):
        m = CovMatrix(entries=[[4.0, 0.0], [0.0, 9.0]])
        assert np.allclose(chol_vech(m), [2.0, 0.0, 3.0])

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            m = a @ a.T + 0.01 * np.eye(2)
            v = chol_vech(CovMatrix(entries=m))
            c = unvech_lower(v)
            assert np.allclose(c @ c.T, m, rtol=1e-10, atol=1e-12)
            assert np.all(np.diag(c) >= 0)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidArgument):
            chol_vech(CovMatrix(entries=[[1.0, 2.0], [2.0, 1.0]]))

    def test_jitter_handles_semidefinite(self):
        m = CovMatrix(entries=[[1.0, 1.0], [1.0, 1.0]])  # rank one
        v = chol_vech(m)
        c = unvech_lower(v)
        assert np.allclose(c @ c.T, m.entries, atol=1e-5)


def test_factor_series_builder():
    from spotcov import factor_series

    mats = [CovMatrix(entries=np.eye(2)), CovMatrix(entries=[[4.0, 0.0], [0.0, 9.0]])]
    s = factor_series(mats, source="realized-cov", first_date=3)
    assert s.dates.tolist() == [3, 4]
    assert np.allclose(s.factors, [[1.0, 0.0, 1.0], [2.0, 0.0, 3.0]])
    assert s.source == "realized-cov"


class TestHorizonAverage:
    def test_k1_is_identity(self):
        s = _generate_series(np.zeros(2), 0.1, 0.1, 0.1, 40, q=2, seed=4, noise=0.05)
        assert np.array_equal(horizon_average(s, 1, 30), s.factors[29])

    def test_constant_series(self):
        f = np.ones((30, 3)) * 2.5
        s = FactorSeries(dates=np.arange(1, 31), factors=f)
        assert np.allclose(horizon_average(s, 5, 30), 2.5)

    def test_scalar_example(self):
        f = np.arange(1.0, 6.0)[:, None]
        s = FactorSeries(dates=np.arange(1, 6), factors=f)
        assert horizon_average(s, 5, 5)[0] == pytest.approx(3.0)

    def test_insufficient_history(self):
        f = np.ones((10, 1))
        s = FactorSeries(dates=np.arange(1, 11), factors=f)
        with pytest.raises(InvalidArgument):
            horizon_average(s, 22, 10)


class TestFitVhar:
    def test_exact_recovery_zero_noise(self):
        alpha = np.array([0.1, -0.05, 0.2])
        s = _generate_series(alpha, 0.4, 0.25, 0.15, 90, seed=5)
        model = fit_vhar(s)
        assert np.allclose(model.alpha, alpha, atol=1e-8)
        assert model.beta_d == pytest.approx(0.4, abs=1e-8)
        assert model.beta_w == pytest.approx(0.25, abs=1e-8)
        assert model.beta_m == pytest.approx(0.15, abs=1e-8)

    def test_residual_orthogonality(self):
        s = _generate_series(np.array([0.1, 0.0, 0.3]), 0.3, 0.2, 0.1, 120, seed=6, noise=0.02)
        model = fit_vhar(s)
        from spotcov.forecast import _design

        X, y, _ = _design(s)
        coef = np.concatenate([model.alpha, [model.beta_d, model.beta_w, model.beta_m]])
        resid = y - X @ coef
        grams = X.T @ resid
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(resid)
        assert np.all(np.abs(grams) <= 1e-8 * np.maximum(scale, 1e-30))

    def test_constant_series_rank_deficient(self):
        f = np.ones((60, 3))
        s = FactorSeries(dates=np.arange(1, 61), factors=f)
        with pytest.raises(InvalidState):
            fit_vhar(s)

    def test_too_short_history(self):
        f = np.random.default_rng(0).uniform(1, 2, (20, 3))
        s = FactorSeries(dates=np.arange(1, 21), factors=f)
        with pytest.raises(InvalidArgument):
            fit_vhar(s)

    def test_intercept_equivariance(self):
        base = _generate_series(np.array([0.1, 0.0, 0.3]), 0.3, 0.2, 0.1, 100, seed=8, noise=0.02)
        shift = np.array([1.0, -2.0, 0.5])
        shifted = FactorSeries(dates=base.dates, factors=base.factors + shift)
        m0, m1 = fit_vhar(base), fit_vhar(shifted)
        assert m1.beta_d == pytest.approx(m0.beta_d, abs=1e-8)
        assert m1.beta_w == pytest.approx(m0.beta_w, abs=1e-8)
        assert m1.beta_m == pytest.approx(m0.beta_m, abs=1e-8)
        expected_alpha = m0.alpha + shift * (1 - m0.beta_d - m0.beta_w - m0.beta_m)
        assert np.allclose(m1.alpha, expected_alpha, atol=1e-7)


class TestForecastVhar:
    def test_zero_betas_forecast_alpha(self):
        alpha = np.array([0.5, 0.1, 0.7])
        model = VharModel(alpha=alpha, beta_d=0.0, beta_w=0.0, beta_m=0.0)
        s = _generate_series(alpha, 0.2, 0.2, 0.2, 40, seed=9, noise=0.05)
        for k in (1, 5, 22):
            fc = forecast_vhar(model, s, k)
            c = unvech_lower(alpha)
            assert np.allclose(fc.entries, c @ c.T, rtol=1e-12)

    def test_forecast_is_psd(self):
        s = _generate_series(np.array([0.3, -0.1, 0.4]), 0.3, 0.2, 0.2, 60, seed=10, noise=0.1)
        model = fit_vhar(s)
        for k in (1, 5, 22):
            fc = forecast_vhar(model, s, k)
            assert fc.is_psd()

    def test_multi_step_matches_recursion_replay(self):
        alpha = np.array([0.1, -0.05, 0.2])
        bd, bw, bm = 0.4, 0.25, 0.15
        s = _generate_series(alpha, bd, bw, bm, 80, seed=11)
        model = fit_vhar(s)  # recovers the exact coefficients
        # replay the generating recursion 22 steps past the end
        f = list(s.factors.copy())
        for _ in range(22):
            arr = np.stack(f[-MONTH_LAG:])
            f.append(alpha + bd * arr[-1] + bw * arr[-WEEK_LAG:].mean(axis=0) + bm * arr.mean(axis=0))
        for k in (1, 5, 22):
            fc = forecast_vhar(model, s, k)
            c = unvech_lower(f[len(s.factors) + k - 1])
            assert np.allclose(fc.entries, c @ c.T, rtol=1e-6)

    def test_insufficient_history(self):
        model = VharModel(alpha=np.zeros(3))
        f = np.ones((10, 3))
        s = FactorSeries(dates=np.arange(1, 11), factors=f)
        with pytest.raises(InvalidArgument):
            forecast_vhar(model, s, 1)


class TestLosses:
    def test_identity_cases(self):
        a = CovMatrix(entries=np.eye(2))
        assert loss_euclidean(a, a) == 0.0
        assert loss_frobenius(a, a) == 0.0
        assert loss_qlike(a, a) == pytest.approx(2.0, rel=1e-14)

    def test_euclidean_diag_error(self):
        t = CovMatrix(entries=np.eye(2) * 2.0)
        f = CovMatrix(entries=np.eye(2))
        assert loss_euclidean(t, f) == pytest.approx(2.0)
        assert loss_frobenius(t, f) == pytest.approx(2.0)

    def test_offdiag_counted_twice_in_frobenius(self):
        t = CovMatrix(entries=[[0.0, 1.0], [1.0, 0.0]])
        f = CovMatrix(entries=np.zeros((2, 2)))
        assert loss_euclidean(t, f) == pytest.approx(1.0)
        assert loss_frobenius(t, f) == pytest.approx(2.0)

    def test_frobenius_euclidean_relation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            e = a + a.T
            t = CovMatrix(entries=e)
            z = CovMatrix(entries=np.zeros((3, 3)))
            diag_sq = float(np.sum(np.diag(e) ** 2))
            assert loss_frobenius(t, z) == pytest.approx(
                2.0 * loss_euclidean(t, z) - diag_sq, rel=1e-12
            )

    def test_qlike_closed_form(self):
        t = CovMatrix(entries=np.eye(2))
        f = CovMatrix(entries=2.0 * np.eye(2))
        assert loss_qlike(t, f) == pytest.approx(2.0 * math.log(2.0) + 1.0, rel=1e-14)
        assert loss_qlike(t, f) == pytest.approx(2.3863, abs=1e-4)

    def test_qlike_minimized_at_truth(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = rng.standard_normal((2, 2))
            sigma = CovMatrix(entries=a @ a.T + 0.05 * np.eye(2))
            b = rng.standard_normal((2, 2))
            h = CovMatrix(entries=b @ b.T + 0.05 * np.eye(2))
            assert loss_qlike(sigma, sigma) <= loss_qlike(sigma, h) + 1e-12

    def test_qlike_scale_behaviour(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((2, 2))
        sigma = CovMatrix(entries=a @ a.T + 0.1 * np.eye(2))
        b = rng.standard_normal((2, 2))
        h = CovMatrix(entries=b @ b.T + 0.1 * np.eye(2))
        c = 3.7
        lhs = loss_qlike(
            CovMatrix(entries=c * sigma.entries), CovMatrix(entries=c * h.entries)
        )
        assert lhs == pytest.approx(loss_qlike(sigma, h) + 2 * math.log(c), rel=1e-12)

    def test_qlike_rejects_singular_forecast(self):
        t = CovMatrix(entries=np.eye(2))
        with pytest.raises(InvalidArgument):
            loss_qlike(t, CovMatrix(entries=np.zeros((2, 2))))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            loss_euclidean(CovMatrix(entries=np.eye(2)), CovMatrix(entries=np.eye(3)))


@pytest.fixture(scope="module")
def sim_120():
    days, per = 120, 96
    g = build_uniform_grid(float(days), days * per)
    cfg = HestonConfig(
        cir=(
            CirParams(kappa=0.1, theta=0.04, eta=0.04, v0=0.04),
            CirParams(kappa=0.15, theta=0.09, eta=0.06, v0=0.09),
        )
    )
    return simulate_heston2d(cfg, g, seed=31415), days


class TestCompareModels:
    def test_structural(self, sim_120):
        sim, days = sim_120
        report = compare_models(sim, days, kernel_by_name("gaussian"), h=1.0)
        assert len(report.losses) == 18
        for (model, horizon, name), v in report.losses.items():
            assert np.isfinite(v)
            if name in ("L_E", "L_F"):
                assert v >= 0.0

    def test_deterministic(self, sim_120):
        sim, days = sim_120
        a = compare_models(sim, days, kernel_by_name("gaussian"), h=1.0)
        b = compare_models(sim, days, kernel_by_name("gaussian"), h=1.0)
        assert a.losses == b.losses

    def test_identical_series_identical_losses(self, sim_120):
        # degenerate comparison: feed the kernel branch a flat one-day kernel,
        # which reproduces the realized measure day by day
        sim, days = sim_120
        flat = uniform_kernel(width=1.0)
        report = compare_models(sim, days, flat, h=1.0)
        for k in report.horizons:
            for ln in ("L_E", "L_F", "L_Q"):
                assert report.value("vhar-rc", k, ln) == pytest.approx(
                    report.value("vhar-kcv", k, ln), rel=1e-6
                )

    def test_series_are_the_daily_factor_series(self, sim_120):
        sim, days = sim_120
        spec = kernel_by_name("gaussian")
        report = compare_models(sim, days, spec, h=1.0)
        rc = factor_series(daily_cov_series(sim.prices, days, "realized-cov"), "realized-cov")
        kc = factor_series(
            daily_cov_series(sim.prices, days, "kernel-cov", spec=spec, h=1.0), "kernel-cov"
        )
        assert np.array_equal(report.series["vhar-rc"].factors, rc.factors)
        assert np.array_equal(report.series["vhar-kcv"].factors, kc.factors)

    def test_short_history_rejected(self, sim_120):
        sim, days = sim_120
        with pytest.raises(InvalidArgument, match="history"):
            compare_models(sim, days, kernel_by_name("gaussian"), h=1.0, split=0.15)
