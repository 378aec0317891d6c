import numpy as np
import pytest
from scipy.special import ndtri

from spotcov import (
    CovPath,
    InvalidArgument,
    McConfig,
    ThresholdSpec,
    imse,
    isb,
    qq_data,
    run_mc_study,
)
from spotcov.estimators import omega, standardized_errors
from spotcov.mc import _eval_times
from spotcov.rng import derive_seed
from spotcov.simulate import simulate_cir, true_cov_path
from spotcov.timeseries import build_uniform_grid


def _paths_with_errors(errors, times=None):
    """Build (estimates, truth) CovPaths with prescribed (1,2)-element errors."""
    times = np.linspace(0.0, 2.0, 21) if times is None else times
    m = times.shape[0]
    truth = np.zeros((m, 2, 2))
    truth[:, 0, 0] = truth[:, 1, 1] = 1.0
    ests = []
    for e in errors:
        v = truth.copy()
        v[:, 0, 1] += e
        v[:, 1, 0] += e
        ests.append(CovPath(times=times, values=v))
    return ests, CovPath(times=times, values=truth)


class TestImseIsb:
    def test_zero_when_exact(self):
        ests, truth = _paths_with_errors([0.0, 0.0])
        assert imse(ests, truth, (0.2, 1.8)) == 0.0
        assert isb(ests, truth, (0.2, 1.8)) == 0.0

    def test_single_replication_equals_ise(self):
        ests, truth = _paths_with_errors([0.01])
        window = (0.2, 1.8)
        from spotcov import ise

        assert imse(ests, truth, window) == pytest.approx(
            ise(ests[0], truth, window, element=(0, 1)), rel=1e-14
        )

    def test_opposite_errors_cancel_in_isb(self):
        times = np.linspace(0.0, 2.0, 2001)
        ests, truth = _paths_with_errors([+0.003, -0.003], times)
        window = (0.25, 1.75)  # length 1.5
        assert imse(ests, truth, window) == pytest.approx(0.003**2 * 1.5, rel=1e-9)
        assert isb(ests, truth, window) == pytest.approx(0.0, abs=1e-20)

    def test_constant_bias(self):
        times = np.linspace(0.0, 2.0, 2001)
        ests, truth = _paths_with_errors([0.002, 0.002, 0.002], times)
        window = (0.25, 1.75)
        assert isb(ests, truth, window) == pytest.approx(0.002**2 * 1.5, rel=1e-9)

    def test_imse_dominates_isb(self):
        rng = np.random.default_rng(3)
        ests, truth = _paths_with_errors(rng.standard_normal(20) * 0.01)
        w = (0.2, 1.8)
        assert imse(ests, truth, w) >= isb(ests, truth, w) - 1e-12


class TestQq:
    def test_exact_normal_quantiles_give_unit_line(self):
        n = 200
        z = ndtri((np.arange(1, n + 1) - 0.5) / n)
        qq = qq_data(z)
        assert qq.slope == pytest.approx(1.0, abs=1e-9)
        assert qq.intercept == pytest.approx(0.0, abs=1e-9)

    def test_constant_input_slope_zero(self):
        qq = qq_data(np.full(50, 3.3))
        assert qq.slope == pytest.approx(0.0, abs=1e-12)
        assert qq.intercept == pytest.approx(3.3, rel=1e-12)

    def test_pseudo_normal_draws(self):
        # typical-case sampling behaviour (intercept sd ~ 1/sqrt(500))
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            qq = qq_data(rng.standard_normal(500))
            if 0.9 <= qq.slope <= 1.1 and -0.1 <= qq.intercept <= 0.1:
                hits += 1
        assert hits >= 8

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgument):
            qq_data(np.zeros(5))


class TestMcConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidArgument):
            McConfig(reps=1)
        with pytest.raises(InvalidArgument):
            McConfig(frequencies=())
        with pytest.raises(InvalidArgument):
            McConfig(frequencies=(100, 333))  # 333 does not divide 333? (max=333; 100 does not divide)
        with pytest.raises(InvalidArgument):
            McConfig(window=(0.0, 1.8))
        with pytest.raises(InvalidArgument):
            McConfig(model="bates", jumps=None)
        with pytest.raises(InvalidArgument):
            McConfig(bandwidth="auto")
        with pytest.raises(InvalidArgument):
            McConfig(bandwidth="cv")  # needs candidates
        with pytest.raises(InvalidArgument):
            McConfig(kernels=("gauss",))


class TestRunStudy:
    def test_smoke_structure_and_decomposition(self):
        cfg = McConfig(
            reps=3,
            frequencies=(100, 200),
            kernels=("gaussian",),
            bandwidth=0.2,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=5,
        )
        report = run_mc_study(cfg)
        assert len(report.cells) == 2
        for c in report.cells:
            assert c.reps == 3
            assert c.imse >= c.isb - 1e-12
            assert c.imse >= 0.0
        assert report.z_samples[("gaussian", 100)].shape == (3, 2, 2)

    def test_determinism(self):
        cfg = McConfig(
            reps=3,
            frequencies=(120,),
            kernels=("onesided",),
            bandwidth=0.2,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=6,
        )
        a, b = run_mc_study(cfg), run_mc_study(cfg)
        assert a.cell("onesided", 120).imse == b.cell("onesided", 120).imse
        assert a.cell("onesided", 120).isb == b.cell("onesided", 120).isb
        assert np.array_equal(
            a.z_samples[("onesided", 120)], b.z_samples[("onesided", 120)]
        )

    def test_parallel_matches_serial(self):
        cfg = McConfig(
            reps=6,
            frequencies=(120,),
            kernels=("gaussian",),
            bandwidth=0.2,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=8,
        )
        serial = run_mc_study(cfg)
        parallel = run_mc_study(
            McConfig(**{**cfg.__dict__, "n_workers": 3})
        )
        assert serial.cell("gaussian", 120).imse == parallel.cell("gaussian", 120).imse
        assert np.array_equal(
            serial.z_samples[("gaussian", 120)], parallel.z_samples[("gaussian", 120)]
        )

    def test_tkcv_equals_kcv_bitwise_without_jumps_and_huge_threshold(self):
        base = dict(
            model="heston",
            reps=3,
            frequencies=(240,),
            kernels=("gaussian", "beta"),
            bandwidth=0.2,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=9,
        )
        a = run_mc_study(McConfig(estimator="kcv", **base))
        b = run_mc_study(
            McConfig(estimator="tkcv", threshold=ThresholdSpec(c=1e12), **base)
        )
        for name in ("gaussian", "beta"):
            ca, cb = a.cell(name, 240), b.cell(name, 240)
            assert ca.imse == cb.imse and ca.isb == cb.isb
            assert np.array_equal(
                a.z_samples[(name, 240)], b.z_samples[(name, 240)]
            )

    @pytest.mark.parametrize("eval_points", [4, 11], ids=["qq-time-added", "qq-time-on-grid"])
    def test_one_path_serves_error_curve_and_qq_sample(self, monkeypatch, eval_points):
        import spotcov.mc as mc

        cfg = McConfig(
            reps=2,
            frequencies=(60, 120),
            kernels=("onesided", "beta"),
            estimator="tkcv",
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=eval_points,
            master_seed=21,
        )
        calls = []
        path = mc.spot_covariance_path

        def spy(inc, spec, h, taus, thr=None):
            est = path(inc, spec, h, taus, thr=thr)
            calls.append((inc, spec, h, thr, est))
            return est

        monkeypatch.setattr(mc, "spot_covariance_path", spy)
        report = run_mc_study(cfg)
        assert len(calls) == cfg.reps * 2 * 2  # one path per rep, frequency and kernel

        grid = build_uniform_grid(cfg.horizon, 120)
        v1 = simulate_cir(cfg.heston.cir[0], grid, derive_seed(cfg.master_seed, "vol-1"))
        v2 = simulate_cir(cfg.heston.cir[1], grid, derive_seed(cfg.master_seed, "vol-2"))
        truth = true_cov_path(grid, v1, v2, cfg.heston.rho)
        eval_idx = _eval_times(cfg, grid)
        assert (60 in eval_idx) == (eval_points == 11)
        truth_qq = truth.matrix(60)
        for i, (inc, spec, h, thr, est) in enumerate(calls):
            key, rep = (spec.name, inc.grid.n), i // 4
            # the QQ sample equals the one from a separate one-tau path
            one = path(inc, spec, h, [grid.points[60]], thr=thr).values
            z = standardized_errors(one, truth_qq, omega(truth_qq), inc.grid.delta, h, spec)[0]
            assert np.array_equal(report.z_samples[key][rep], z)
            # the error curve reads the eval rows only
            rows = np.searchsorted(est.times, grid.points[eval_idx])
            errs = est.values[rows, 0, 1] - truth.values[eval_idx, 0, 1]
            ise = np.trapezoid(errs**2, grid.points[eval_idx])
            assert report.cell(*key).ise_values[rep] == ise

    def _fail_one_rep(self, monkeypatch, cfg, rep, exc):
        """Make diffusion_prices raise exc in replication rep only."""
        import spotcov.mc as mc

        bad_seed = derive_seed(cfg.master_seed, "rep", rep)
        diffusion_prices = mc.diffusion_prices

        def fake(heston, grid, v1, v2, seed):
            if seed == bad_seed:
                raise exc
            return diffusion_prices(heston, grid, v1, v2, seed)

        monkeypatch.setattr(mc, "diffusion_prices", fake)

    def test_data_failure_in_one_rep_is_listed(self, monkeypatch):
        cfg = McConfig(
            reps=100,
            frequencies=(50,),
            kernels=("onesided",),
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=5,
            master_seed=12,
        )
        self._fail_one_rep(monkeypatch, cfg, 37, InvalidArgument("bad path"))
        report = run_mc_study(cfg)
        assert report.failed_reps == (37,)
        assert report.cell("onesided", 50).reps == 99

    def test_coding_error_in_a_rep_propagates(self, monkeypatch):
        cfg = McConfig(
            reps=2,
            frequencies=(50,),
            kernels=("onesided",),
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=5,
            master_seed=12,
        )
        self._fail_one_rep(monkeypatch, cfg, 1, TypeError("bug"))
        with pytest.raises(TypeError, match="bug"):
            run_mc_study(cfg)

    def test_cv_bandwidth_mode(self):
        cfg = McConfig(
            reps=2,
            frequencies=(200,),
            kernels=("gaussian",),
            bandwidth="cv",
            cv_candidates=(0.1, 0.2, 0.3),
            window=(0.5, 1.5),
            eval_points=7,
            master_seed=12,
        )
        report = run_mc_study(cfg)
        hs = report.cell("gaussian", 200).bandwidths
        assert set(hs).issubset({0.1, 0.2, 0.3})
