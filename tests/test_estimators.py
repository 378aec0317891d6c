import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_kcv, naive_tkcv
from spotcov import (
    CovMatrix,
    GridTargets,
    HestonConfig,
    IncrementSeries,
    InvalidArgument,
    InvalidState,
    KernelSpec,
    PricePath,
    ThresholdSpec,
    WeightPlan,
    asymptotic_band,
    build_uniform_grid,
    calibrated_threshold,
    default_threshold,
    kcv,
    kernel_by_name,
    log_returns,
    omega,
    simulate_heston2d,
    spot_covariance_path,
    standardized_errors,
    tkcv,
    uniform_kernel,
    validate_threshold_rate,
)
from spotcov.kernels import GAUSSIAN_CUT


def _toy_increments():
    g = build_uniform_grid(1.0, 2)
    p = PricePath(grid=g, values=[[0.0], [0.1], [-0.1]])
    return log_returns(p)


class TestKcv:
    def test_hand_example_onesided(self):
        inc = _toy_increments()
        est = kcv(inc, kernel_by_name("onesided"), 1.0, 1.0)
        expected = math.exp(-1.0) * 0.01 + math.exp(-0.5) * 0.04
        assert est.entries[0, 0] == pytest.approx(expected, rel=1e-12)
        assert est.entries[0, 0] == pytest.approx(0.0279400, abs=1e-7)

    def test_zero_increments(self):
        g = build_uniform_grid(1.0, 5)
        inc = IncrementSeries(grid=g, values=np.zeros((5, 2)))
        for name in ("gaussian", "onesided", "beta"):
            est = kcv(inc, kernel_by_name(name), 0.3, 0.5)
            assert np.all(est.entries == 0.0)

    def test_flat_kernel_reduces_to_scaled_realized_cov(self):
        rng = np.random.default_rng(11)
        g = build_uniform_grid(2.0, 64)
        vals = rng.standard_normal((65, 2)).cumsum(axis=0) * 0.01
        inc = log_returns(PricePath(grid=g, values=vals))
        # uniform mass over [0, T] centred at T/2
        flat = uniform_kernel(width=2.0)
        est = kcv(inc, flat, 1.0, 1.0)
        realized = inc.values.T @ inc.values
        assert np.allclose(est.entries, realized / 2.0, rtol=1e-12)

    def test_matches_naive_oracle(self, increments_small):
        inc = increments_small
        taus = [0.3, 1.0, 1.7]
        for name in ("gaussian", "onesided", "beta"):
            for tau in taus:
                est = kcv(inc, kernel_by_name(name), 0.25, tau)
                ref = naive_kcv(
                    inc.left_times.tolist(), inc.values.tolist(), name, 0.25, tau
                )
                assert np.allclose(est.entries, ref, rtol=1e-12, atol=1e-300)

    def test_scale_equivariance(self, increments_small):
        inc = increments_small
        scaled = IncrementSeries(grid=inc.grid, values=3.0 * inc.values)
        a = kcv(inc, kernel_by_name("gaussian"), 0.2, 1.0)
        b = kcv(scaled, kernel_by_name("gaussian"), 0.2, 1.0)
        assert np.allclose(b.entries, 9.0 * a.entries, rtol=1e-12)

    def test_psd_for_nonnegative_kernels(self, increments_small):
        for name in ("gaussian", "onesided", "beta"):
            est = kcv(increments_small, kernel_by_name(name), 0.1, 0.9)
            assert est.is_psd()

    @pytest.mark.parametrize(
        "name, h, reach",
        [("beta", 0.15, 1.0), ("gaussian", 0.05, 1.01 * GAUSSIAN_CUT)],
        ids=["beta", "gaussian"],
    )
    def test_localization_bitwise(self, increments_small, name, h, reach):
        # corrupting data outside the kernel's declared support changes nothing
        inc = increments_small
        spec = kernel_by_name(name)
        tau = 1.0
        base = kcv(inc, spec, h, tau)
        corrupted = inc.values.copy()
        outside = np.abs(inc.left_times - tau) > reach * h
        assert outside.any()
        corrupted[outside] *= 1e6
        est = kcv(IncrementSeries(grid=inc.grid, values=corrupted), spec, h, tau)
        assert np.array_equal(base.entries, est.entries)

    def test_empty_rejected(self):
        g = build_uniform_grid(1.0, 2)
        inc = IncrementSeries(grid=g, values=np.zeros((2, 1)))
        with pytest.raises(InvalidArgument):
            kcv(inc, kernel_by_name("gaussian"), 0.1, 2.0)  # tau out of range


class TestTkcv:
    def test_huge_threshold_is_bitwise_kcv(self, increments_small):
        inc = increments_small
        thr = ThresholdSpec(c=1e9)
        for name in ("gaussian", "onesided", "beta"):
            spec = kernel_by_name(name)
            a = kcv(inc, spec, 0.2, 1.1)
            b = tkcv(inc, spec, 0.2, 1.1, thr)
            assert np.array_equal(a.entries, b.entries)

    def test_tiny_threshold_zeroes_everything(self, increments_small):
        thr = ThresholdSpec(c=1e-300)
        est = tkcv(increments_small, kernel_by_name("gaussian"), 0.2, 1.1, thr)
        assert np.all(est.entries == 0.0)

    def test_hand_example_norm_mode(self):
        inc = _toy_increments()
        # d * r(delta) must equal 0.15: c = 0.15 / delta**beta with d = 1
        thr = ThresholdSpec(c=0.15 / 0.5**0.49, beta=0.49, mode="norm")
        assert thr.r(0.5) == pytest.approx(0.15, rel=1e-12)
        est = tkcv(inc, kernel_by_name("onesided"), 1.0, 1.0, thr)
        assert est.entries[0, 0] == pytest.approx(math.exp(-1.0) * 0.01, rel=1e-12)
        assert est.entries[0, 0] == pytest.approx(0.0036788, abs=1e-7)

    def test_matches_naive_oracle(self, increments_small):
        inc = increments_small
        d = inc.d
        delta = inc.grid.delta
        for mode in ("squared-norm", "norm"):
            thr = calibrated_threshold(inc, multiple=4.0, mode=mode)
            cutoff = d * thr.r(delta)
            est = tkcv(inc, kernel_by_name("gaussian"), 0.2, 0.8, thr)
            ref = naive_tkcv(
                inc.left_times.tolist(),
                inc.values.tolist(),
                "gaussian",
                0.2,
                0.8,
                cutoff,
                mode,
            )
            assert np.allclose(est.entries, ref, rtol=1e-12, atol=1e-300)

    def test_excluded_set_shrinks_with_c(self, increments_small):
        inc = increments_small
        excluded = []
        for c in (0.5, 1.0, 2.0, 8.0):
            thr = ThresholdSpec(c=c * 1e-2)
            excluded.append(int((~thr.keep_mask(inc)).sum()))
        assert excluded == sorted(excluded, reverse=True)

    def test_scale_equivariance_with_rescaled_threshold(self, increments_small):
        inc = increments_small
        c0 = 2.0
        scaled = IncrementSeries(grid=inc.grid, values=5.0 * inc.values)
        spec = kernel_by_name("gaussian")
        a = tkcv(inc, spec, 0.2, 1.0, ThresholdSpec(c=c0, mode="norm"))
        b = tkcv(scaled, spec, 0.2, 1.0, ThresholdSpec(c=5.0 * c0, mode="norm"))
        assert np.allclose(b.entries, 25.0 * a.entries, rtol=1e-12)
        a2 = tkcv(inc, spec, 0.2, 1.0, ThresholdSpec(c=c0, mode="squared-norm"))
        b2 = tkcv(scaled, spec, 0.2, 1.0, ThresholdSpec(c=25.0 * c0, mode="squared-norm"))
        assert np.allclose(b2.entries, 25.0 * a2.entries, rtol=1e-12)


class TestThresholdSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            ThresholdSpec(c=1.0, beta=1.0)
        with pytest.raises(InvalidArgument):
            ThresholdSpec(c=1.0, beta=0.0)
        for c in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument, match="c must be positive and finite"):
                ThresholdSpec(c=c)
        with pytest.raises(InvalidArgument):
            ThresholdSpec(c=1.0, mode="max")
        for multiple in (1.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument, match="multiple"):
                calibrated_threshold(_toy_increments(), multiple=multiple)

    def test_rate_report_passes_for_small_beta(self):
        thr = ThresholdSpec(c=1.0, beta=0.49)
        report = validate_threshold_rate(thr, 10.0 ** -np.arange(1, 7))
        assert report.passes
        assert report.r_values[-1] < report.r_values[0]
        assert report.ratio_values[-1] < report.ratio_values[0] / 10.0

    def test_rate_report_flags_slow_decay(self):
        thr = ThresholdSpec(c=1.0, beta=0.99)
        report = validate_threshold_rate(thr, 10.0 ** -np.arange(1, 7))
        assert not report.passes
        assert report.r_decreasing  # r itself still vanishes
        assert not report.ratio_decreasing_tail

    def test_rate_report_input_validation(self):
        thr = ThresholdSpec(c=1.0)
        with pytest.raises(InvalidArgument):
            validate_threshold_rate(thr, [0.1, 0.2])
        with pytest.raises(InvalidArgument):
            validate_threshold_rate(thr, [0.1, -0.01])
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidArgument, match="step sizes must be positive and finite"):
                validate_threshold_rate(thr, [bad, 0.1, 0.01])

    def test_default_threshold_formula(self, increments_small):
        inc = increments_small
        thr = default_threshold(inc)
        sq = np.sum(inc.values**2, axis=1)
        expected_c = 9.0 * np.median(sq) / inc.d / inc.grid.delta
        assert thr.c == pytest.approx(expected_c, rel=1e-12)
        # conservative by construction: keeps every increment of this path
        assert thr.keep_mask(inc).all()

    def test_calibrated_threshold_targets_median_multiple(self, increments_small):
        inc = increments_small
        thr = calibrated_threshold(inc, multiple=16.0)
        cutoff = inc.d * thr.r(inc.grid.delta)
        sq = np.sum(inc.values**2, axis=1)
        assert cutoff == pytest.approx(16.0 * np.median(sq), rel=1e-12)


class TestSpotPath:
    def test_single_tau_wraps_kcv(self, increments_small):
        spec = kernel_by_name("gaussian")
        path = spot_covariance_path(increments_small, spec, 0.2, [0.7])
        point = kcv(increments_small, spec, 0.2, 0.7)
        assert np.array_equal(path.values[0], point.entries)

    def test_many_taus_match_pointwise(self, increments_small):
        spec = kernel_by_name("onesided")
        taus = np.linspace(0.2, 1.8, 9)
        for thr in (None, calibrated_threshold(increments_small)):
            path = spot_covariance_path(increments_small, spec, 0.15, taus, thr)
            for j, tau in enumerate(taus):
                point = tkcv(increments_small, spec, 0.15, tau, thr)  # kcv when thr is None
                assert np.array_equal(path.values[j], point.entries)

    def test_threshold_mask_computed_once_per_path(self, increments_small, monkeypatch):
        calls = []
        keep_mask = ThresholdSpec.keep_mask

        def spy(self, increments):
            calls.append(1)
            return keep_mask(self, increments)

        monkeypatch.setattr(ThresholdSpec, "keep_mask", spy)
        thr = calibrated_threshold(increments_small)
        spot_covariance_path(
            increments_small, kernel_by_name("gaussian"), 0.15, np.linspace(0.2, 1.8, 9), thr
        )
        assert len(calls) == 1

    def test_matches_naive_oracle_with_cutting_threshold(self, increments_small):
        inc = increments_small
        thr = calibrated_threshold(inc, multiple=4.0)
        assert (~thr.keep_mask(inc)).sum() > 0
        cutoff = inc.d * thr.r(inc.grid.delta)
        taus = [0.0, 0.3, 1.0, 1.7, 2.0]
        for name in ("gaussian", "onesided", "beta"):
            path = spot_covariance_path(inc, kernel_by_name(name), 0.2, taus, thr)
            for j, tau in enumerate(taus):
                ref = naive_tkcv(
                    inc.left_times.tolist(), inc.values.tolist(), name, 0.2, tau, cutoff, thr.mode
                )
                assert np.allclose(path.values[j], ref, rtol=1e-12, atol=1e-300)
                assert np.array_equal(path.values[j], path.values[j].T)

    def test_out_of_range_tau_rejected(self, increments_small):
        with pytest.raises(InvalidArgument):
            spot_covariance_path(
                increments_small, kernel_by_name("gaussian"), 0.2, [0.5, 2.5]
            )


class TestBasisPointScale:
    """Returns in basis points (increments x 1e4) give exactly symmetric
    estimates instead of tripping the absolute symmetry tolerance."""

    @pytest.fixture(scope="class")
    def increments_bps(self):
        g = build_uniform_grid(2.0, 2880)
        inc = log_returns(simulate_heston2d(HestonConfig(), g, seed=42).prices)
        return IncrementSeries(grid=g, values=inc.values * 1e4), inc

    def test_kcv_symmetric_and_scale_equivariant(self, increments_bps):
        bps, inc = increments_bps
        spec = kernel_by_name("gaussian")
        for tau in np.linspace(0.0, 2.0, 101):
            est = kcv(bps, spec, 0.05, tau).entries
            assert np.array_equal(est, est.T)
            assert np.allclose(est, 1e8 * kcv(inc, spec, 0.05, tau).entries, rtol=1e-12)

    def test_path_symmetric(self, increments_bps):
        bps, _ = increments_bps
        taus = np.linspace(0.0, 2.0, 101)
        path = spot_covariance_path(bps, kernel_by_name("gaussian"), 0.05, taus)
        assert np.array_equal(path.values, np.transpose(path.values, (0, 2, 1)))


class TestOmega:
    def test_univariate(self):
        om = omega(CovMatrix(entries=[[2.0]]))
        assert om.entries.shape == (1, 1)
        assert om.at(0, 0, 0, 0) == 8.0

    def test_identity_2d(self):
        om = omega(CovMatrix(entries=np.eye(2)))
        assert om.at(0, 0, 0, 0) == 2.0
        assert om.at(0, 1, 0, 1) == 1.0
        assert om.at(0, 0, 0, 1) == 0.0
        assert om.at(0, 0, 1, 1) == 0.0

    def test_bivariate_distinct_block(self):
        skk, skl, sll = 0.05, 0.02, 0.08
        om = omega(CovMatrix(entries=[[skk, skl], [skl, sll]]))
        # distinct elements (kk, kl, ll) of the joint limit law
        assert om.at(0, 0, 0, 0) == pytest.approx(2 * skk**2)
        assert om.at(0, 0, 0, 1) == pytest.approx(2 * skk * skl)
        assert om.at(0, 0, 1, 1) == pytest.approx(2 * skl**2)
        assert om.at(0, 1, 0, 1) == pytest.approx(skk * sll + skl**2)
        assert om.at(0, 1, 1, 1) == pytest.approx(2 * sll * skl)
        assert om.at(1, 1, 1, 1) == pytest.approx(2 * sll**2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
    def test_symmetries(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, d))
        om = omega(CovMatrix(entries=a @ a.T))
        assert np.allclose(om.entries, om.entries.T, atol=1e-12)
        for k in range(d):
            for l in range(d):
                for k2 in range(d):
                    for l2 in range(d):
                        assert om.at(k, l, k2, l2) == pytest.approx(om.at(l, k, k2, l2))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgument):
            omega(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestBandsAndErrors:
    def test_band_halfwidth_hand_example(self):
        est = CovMatrix(entries=[[1.0]])
        om = omega(CovMatrix(entries=[[1.0]]))  # O = 2
        lo, hi = asymptotic_band(
            est, om, delta=1.0, h=100.0, spec=kernel_by_name("gaussian"), level=0.95
        )
        half = 1.959964 * math.sqrt(2.0 * 0.2820948 * 0.01)
        assert (hi[0, 0] - est.entries[0, 0]) == pytest.approx(half, abs=2e-5)
        assert (hi[0, 0] - est.entries[0, 0]) == pytest.approx(0.1472, abs=2e-4)

    def test_band_width_shrinks_with_level(self):
        est = CovMatrix(entries=[[1.0, 0.2], [0.2, 2.0]])
        om = omega(est)
        spec = kernel_by_name("gaussian")
        lo1, hi1 = asymptotic_band(est, om, 0.001, 0.1, spec, 1e-9)
        assert np.allclose(hi1 - lo1, 0.0, atol=1e-8)
        lo2, hi2 = asymptotic_band(est, om, 0.001, 0.1, spec, 0.99)
        assert np.all(hi2 - lo2 > 0)

    def test_band_level_validation(self):
        est = CovMatrix(entries=[[1.0]])
        with pytest.raises(InvalidArgument):
            asymptotic_band(est, omega(est), 0.01, 0.1, kernel_by_name("gaussian"), 0.0)

    def test_band_invalid_state_on_zero_variance(self):
        est = CovMatrix(entries=[[0.0]])
        with pytest.raises(InvalidState):
            asymptotic_band(est, omega(est), 0.01, 0.1, kernel_by_name("gaussian"), 0.9)

    def test_standardized_errors_zero_and_linear(self):
        truth = CovMatrix(entries=[[0.04, 0.01], [0.01, 0.09]])
        om = omega(truth)
        spec = kernel_by_name("gaussian")
        z0 = standardized_errors([truth], truth, om, 1e-3, 0.05, spec)
        assert np.all(z0 == 0.0)
        bump = CovMatrix(entries=truth.entries + 0.01)
        bump2 = CovMatrix(entries=truth.entries + 0.02)
        z1 = standardized_errors([bump], truth, om, 1e-3, 0.05, spec)
        z2 = standardized_errors([bump2], truth, om, 1e-3, 0.05, spec)
        assert np.allclose(z2, 2.0 * z1, rtol=1e-12)

    def test_standardized_errors_formula(self):
        truth = CovMatrix(entries=[[0.04, 0.01], [0.01, 0.09]])
        om = omega(truth)
        spec = kernel_by_name("onesided")
        est = CovMatrix(entries=truth.entries + np.array([[0.0, 0.005], [0.005, 0.0]]))
        z = standardized_errors([est], truth, om, 2e-3, 0.1, spec)
        expected = (
            math.sqrt(0.1 / 2e-3)
            * 0.005
            / math.sqrt((0.04 * 0.09 + 0.01**2) * 0.5)
        )
        assert z[0, 0, 1] == pytest.approx(expected, rel=1e-12)


def test_oracle_equivalence_random_instances():
    # 100 random instances, d <= 4, n <= 1000, all three kernels
    rng = np.random.default_rng(123)
    names = ("gaussian", "onesided", "beta")
    for trial in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(3, 1001))
        T = float(rng.uniform(0.5, 3.0))
        g = build_uniform_grid(T, n)
        dx = rng.standard_normal((n, d)) * rng.uniform(0.001, 0.1)
        inc = IncrementSeries(grid=g, values=dx)
        name = names[trial % 3]
        h = float(rng.uniform(0.05, 0.5) * T)
        tau = float(rng.uniform(0.0, T))
        est = kcv(inc, kernel_by_name(name), h, tau)
        ref = naive_kcv(inc.left_times.tolist(), dx.tolist(), name, h, tau)
        assert np.allclose(est.entries, ref, rtol=1e-12, atol=1e-300)


def _lag_increments(n, stride, seed=5, d=2, T=2.0):
    """Increments on an n-step grid; positions live on the grid refined by stride."""
    g = build_uniform_grid(T, n)
    rng = np.random.default_rng(seed)
    dx = rng.standard_normal((n, d)) * 0.01
    dx[n // 3] += 0.2  # one jump for the threshold to cut
    return IncrementSeries(grid=g, values=dx), g.delta / stride


def _naive_lag(inc, stride, step, name, h, k, thr=None):
    """Oracle estimate at fine position k, with increment i at time i*stride*step."""
    left = [i * stride * step for i in range(inc.grid.n)]
    if thr is None:
        return naive_kcv(left, inc.values.tolist(), name, h, k * step)
    cutoff = inc.d * thr.r(inc.grid.delta)
    return naive_tkcv(left, inc.values.tolist(), name, h, k * step, cutoff, thr.mode)


class TestLagRoute:
    """GridTargets: integer target positions weighted from one lag table."""

    @pytest.mark.parametrize("stride", [1, 5, 60])
    @pytest.mark.parametrize("name", ["gaussian", "onesided", "beta"])
    def test_matches_naive_oracle(self, name, stride):
        n = 240
        inc, step = _lag_increments(n, stride)
        last = n * stride
        # both ends of the grid, every residue near the start, and interior points
        positions = np.unique(
            np.r_[0, 1 : min(stride, 7) + 1, last // 3, last // 2 + 1, last - 1, last]
        )
        targets = GridTargets(positions, stride)
        for thr in (None, calibrated_threshold(inc, multiple=4.0)):
            assert thr is None or not thr.keep_mask(inc).all()
            path = spot_covariance_path(inc, kernel_by_name(name), 0.1, targets, thr)
            assert np.array_equal(path.times, positions * step)
            for j, k in enumerate(positions):
                ref = np.asarray(_naive_lag(inc, stride, step, name, 0.1, int(k), thr))
                assert np.abs(path.values[j] - ref).max() <= 1e-13 * np.abs(ref).max()
                assert np.array_equal(path.values[j], path.values[j].T)

    @pytest.mark.parametrize("stride", [1, 5, 60])
    def test_path_equals_one_target_calls(self, stride):
        n = 240
        inc, _ = _lag_increments(n, stride)
        positions = np.unique(np.r_[0, 3, np.linspace(0, n * stride, 17).astype(int)])
        targets = GridTargets(positions, stride)
        for name in ("gaussian", "onesided", "beta"):
            for thr in (None, calibrated_threshold(inc, multiple=4.0)):
                path = spot_covariance_path(inc, kernel_by_name(name), 0.07, targets, thr)
                for j, k in enumerate(positions):
                    one = spot_covariance_path(
                        inc, kernel_by_name(name), 0.07, GridTargets([k], stride), thr
                    )
                    assert np.array_equal(path.values[j], one.values[0])

    def test_close_to_float_route(self, increments_small):
        inc = increments_small
        positions = np.arange(0, inc.grid.n + 1, 37)
        taus = inc.grid.points[positions]
        for name in ("gaussian", "onesided", "beta"):
            lag = spot_covariance_path(inc, kernel_by_name(name), 0.05, GridTargets(positions))
            direct = spot_covariance_path(inc, kernel_by_name(name), 0.05, taus)
            assert np.abs(lag.values - direct.values).max() <= 1e-13 * np.abs(direct.values).max()

    @pytest.mark.parametrize("stride", [1, 5])
    @pytest.mark.parametrize(
        "name, h, reach",
        [("beta", 0.1, 1.0), ("gaussian", 0.02, GAUSSIAN_CUT)],
        ids=["beta", "gaussian"],
    )
    def test_beta_data_outside_support_inert(self, stride, name, h, reach):
        n = 400
        inc, step = _lag_increments(n, stride)
        positions = np.array([7, n * stride // 2, n * stride - 3])
        targets = GridTargets(positions, stride)
        base = spot_covariance_path(inc, kernel_by_name(name), h, targets)
        # every increment more than reach * h away from every target, scaled by 1e3
        lags = np.arange(n)[:, None] * stride - positions[None, :]
        outside = np.all(np.abs(lags * step) > 1.01 * reach * h, axis=1)
        assert outside.sum() > n // 2
        dx = inc.values.copy()
        dx[outside] *= 1e3
        moved = IncrementSeries(grid=inc.grid, values=dx)
        est = spot_covariance_path(moved, kernel_by_name(name), h, targets)
        assert np.array_equal(est.values, base.values)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=-7, max_value=10),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
        stride=st.sampled_from([1, 5, 60]),
    )
    def test_power_of_two_scaling_is_exact(self, k, name, stride):
        n = 240
        inc, _ = _lag_increments(n, stride)
        scaled = IncrementSeries(grid=inc.grid, values=inc.values * 2.0**k)
        targets = GridTargets(np.linspace(0, n * stride, 13).astype(int), stride)
        spec = kernel_by_name(name)
        thr, thr_scaled = (calibrated_threshold(x, multiple=4.0) for x in (inc, scaled))
        base = spot_covariance_path(inc, spec, 0.1, targets, thr)
        est = spot_covariance_path(scaled, spec, 0.1, targets, thr_scaled)
        assert np.array_equal(est.values, base.values * 4.0**k)

    def test_invalid_targets_rejected(self, increments_small):
        spec = kernel_by_name("gaussian")
        for bad in ([0.5, 1.0], [-1, 3], [3, 3], [[1, 2]]):
            with pytest.raises(InvalidArgument, match="positions"):
                GridTargets(bad)
        for stride in (0, -2, 1.0, True):
            with pytest.raises(InvalidArgument, match="stride"):
                GridTargets([1], stride)
        n = increments_small.grid.n
        with pytest.raises(InvalidArgument, match="outside the grid"):
            spot_covariance_path(increments_small, spec, 0.1, GridTargets([0, 2 * n + 1], 2))
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument, match="bandwidth"):
                spot_covariance_path(increments_small, spec, h, GridTargets([3]))


class TestWeightPlanAndBlocks:
    """A WeightPlan built once, and a block of series reduced together."""

    def _series(self, n, count, stride=1):
        inc, _ = _lag_increments(n, stride)
        rng = np.random.default_rng(5)
        return [IncrementSeries(grid=inc.grid, values=inc.values * rng.uniform(0.5, 2.0, inc.values.shape))
                for _ in range(count)]

    @pytest.mark.parametrize("stride", [1, 5])
    @pytest.mark.parametrize("name", ["gaussian", "onesided", "beta"])
    def test_block_equals_each_series_alone(self, name, stride):
        series = self._series(240, 5, stride)
        spec = kernel_by_name(name)
        targets = GridTargets(np.unique(np.r_[0, 3, np.linspace(0, 240 * stride, 17).astype(int)]), stride)
        plan = WeightPlan(spec, 0.07, series[0].grid, targets)
        thrs = [None, calibrated_threshold(series[1], multiple=4.0), ThresholdSpec(c=1e12), None,
                calibrated_threshold(series[4], multiple=2.0)]
        for taus in (targets, plan, plan.times):
            paths = spot_covariance_path(series, spec, 0.07, taus, thrs)
            assert len(paths) == len(series)
            for inc, thr, path in zip(series, thrs, paths):
                alone = spot_covariance_path(inc, spec, 0.07, taus, thr)
                assert np.array_equal(path.times, alone.times)
                assert np.array_equal(path.values, alone.values)
        # no cutoffs for the whole block
        for inc, path in zip(series, spot_covariance_path(series, spec, 0.07, plan)):
            assert np.array_equal(path.values, spot_covariance_path(inc, spec, 0.07, plan).values)

    def test_plan_holds_bounds_not_rows(self):
        inc = self._series(240, 1, 5)[0]
        targets = GridTargets(np.arange(0, 1201, 100), 5)
        plan = WeightPlan(kernel_by_name("beta"), 0.1, inc.grid, targets)
        assert plan.bounds.shape == (targets.positions.size, 3) and plan.bounds.dtype == np.int64
        assert not plan.table.flags.writeable and not plan.bounds.flags.writeable
        again = pickle.loads(pickle.dumps(plan))
        assert (again.spec, again.h, again.grid) == (plan.spec, plan.h, plan.grid)
        for field in ("table", "bounds", "times"):
            assert np.array_equal(getattr(again, field), getattr(plan, field))

    def test_targets_and_plans_compare_and_hash_by_value(self):
        grid = self._series(240, 1)[0].grid
        a, b = GridTargets([1, 2]), GridTargets(np.array([1, 2], dtype=np.int32))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != GridTargets([1, 2], 2) and a != GridTargets([1, 3])
        spec = kernel_by_name("beta")
        plan, same = WeightPlan(spec, 0.1, grid, a), WeightPlan(spec, 0.1, grid, b)
        assert plan == same and hash(plan) == hash(same) and len({plan, same}) == 1
        assert pickle.loads(pickle.dumps(plan)) == plan
        for other in (
            WeightPlan(kernel_by_name("gaussian"), 0.1, grid, a),
            WeightPlan(spec, 0.2, grid, a),
            WeightPlan(spec, 0.1, build_uniform_grid(1.0, 240), a),
            WeightPlan(spec, 0.1, grid, GridTargets([1, 3])),
        ):
            assert plan != other

    def test_plan_table_is_its_nonzero_band(self):
        inc = self._series(240, 1)[0]
        targets = GridTargets([0, 100, 240])
        for name in ("gaussian", "onesided", "beta"):
            for h in (0.001, 0.05, 0.3):
                plan = WeightPlan(kernel_by_name(name), h, inc.grid, targets)
                assert plan.table[0] != 0.0 and plan.table[-1] != 0.0
        # flat on (0.25, 0.75) with h one step: no lag carries weight, so every row is empty
        gap = KernelSpec(
            name="gap",
            fn=lambda u: np.where((u > 0.25) & (u < 0.75), 2.0, 0.0),
            support=(0.25, 0.75),
            l2norm=2.0,
            mass_tol=1e-4,
        )
        plan = WeightPlan(gap, inc.grid.delta, inc.grid, targets)
        assert plan.table.size == 0 and np.array_equal(plan.bounds[:, 0], plan.bounds[:, 1])
        path = spot_covariance_path(inc, gap, inc.grid.delta, plan)
        assert np.array_equal(path.values, np.zeros_like(path.values))
        assert not np.signbit(path.values).any()

    def test_mismatched_plan_or_block_rejected(self):
        a, b = self._series(240, 2)
        other = _lag_increments(120, 1)[0]
        spec = kernel_by_name("beta")
        plan = WeightPlan(spec, 0.1, a.grid, GridTargets([10, 20]))
        for args in ((kernel_by_name("gaussian"), 0.1), (spec, 0.2)):
            with pytest.raises(InvalidArgument, match="weight plan was built for another"):
                spot_covariance_path(a, *args, plan)
        with pytest.raises(InvalidArgument, match="weight plan was built for another"):
            spot_covariance_path(other, spec, 0.1, plan)
        with pytest.raises(InvalidArgument, match="share one grid"):
            spot_covariance_path([a, other], spec, 0.1, [0.5])
        with pytest.raises(InvalidArgument, match="one cutoff per series, got 2 and 1"):
            spot_covariance_path([a, b], spec, 0.1, plan, [None])
        with pytest.raises(InvalidArgument, match="one or more series"):
            spot_covariance_path([], spec, 0.1, plan)
        with pytest.raises(InvalidArgument, match="outside the grid"):
            WeightPlan(spec, 0.1, a.grid, GridTargets([241]))


def _paths_and_bands(inc, spec, h, route, thr=None):
    """Interior-target path plus its 95% band arrays, on the float or grid route."""
    n = inc.grid.n
    positions = np.linspace(n // 5, 4 * n // 5, 9).astype(int)
    taus = GridTargets(positions) if route == "grid" else inc.grid.points[positions]
    path = spot_covariance_path(inc, spec, h, taus, thr)
    lo, hi = asymptotic_band(path, omega(path.values), inc.grid.delta, h, spec, 0.95)
    return path.values, lo, hi


class TestExactProperties:
    """Relabelling assets and power-of-two unit changes commute with the
    estimator and its bands bit for bit (increments ~1e-4 .. 10, far from
    overflow and subnormals)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
        route=st.sampled_from(["float", "grid"]),
        cut=st.booleans(),
    )
    def test_swapping_assets_permutes_paths_and_bands(self, seed, name, route, cut):
        inc, _ = _lag_increments(200, 1, seed=seed)
        swapped = IncrementSeries(grid=inc.grid, values=inc.values[:, ::-1])
        spec = kernel_by_name(name)
        thr = calibrated_threshold(inc, multiple=4.0) if cut else None
        base = _paths_and_bands(inc, spec, 0.2, route, thr)
        other = _paths_and_bands(swapped, spec, 0.2, route, thr)
        for a, b in zip(base, other):
            assert np.array_equal(b, a[:, ::-1, ::-1])

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=-7, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
        route=st.sampled_from(["float", "grid"]),
        calibrate=st.sampled_from([None, default_threshold, calibrated_threshold]),
        mode=st.sampled_from(["squared-norm", "norm"]),
    )
    def test_power_of_two_scaling_scales_kcv_paths_and_bands(
        self, k, seed, name, route, calibrate, mode
    ):
        """Also with a cutoff calibrated on each path, which keeps the same increments."""
        inc, _ = _lag_increments(200, 1, seed=seed)
        scaled = IncrementSeries(grid=inc.grid, values=inc.values * 2.0**k)
        spec = kernel_by_name(name)
        thr, thr_scaled = (calibrate(x, mode=mode) if calibrate else None for x in (inc, scaled))
        base = _paths_and_bands(inc, spec, 0.2, route, thr)
        est = _paths_and_bands(scaled, spec, 0.2, route, thr_scaled)
        for a, b in zip(base, est):
            assert np.array_equal(b, a * 4.0**k)


def test_band_over_a_path_equals_bands_per_matrix(increments_small):
    spec = kernel_by_name("gaussian")
    path = spot_covariance_path(increments_small, spec, 0.1, np.linspace(0.2, 1.8, 7))
    delta = increments_small.grid.delta
    lo, hi = asymptotic_band(path, omega(path.values), delta, 0.1, spec, 0.9)
    assert lo.shape == hi.shape == path.values.shape
    for j in range(len(path)):
        m = path.matrix(j)
        lo_j, hi_j = asymptotic_band(m, omega(m), delta, 0.1, spec, 0.9)
        assert np.array_equal(lo[j], lo_j) and np.array_equal(hi[j], hi_j)
