import bisect
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_pwl_squared_integral, kernel_value, naive_cv, uniform_value
from spotcov import bandwidth
from spotcov import (
    BandwidthGrid,
    CovPath,
    HestonConfig,
    IncrementSeries,
    InvalidArgument,
    InvalidState,
    KernelSpec,
    build_uniform_grid,
    cv_bandwidth,
    default_window,
    eval_scaled,
    ise,
    kernel_by_name,
    log_returns,
    simulate_heston2d,
    uniform_kernel,
)


def _const_paths(times, d=2, offset=0.0, element=None):
    m = len(times)
    truth = np.zeros((m, d, d))
    est = truth.copy()
    if element is not None:
        k, l = element
        est[:, k, l] += offset
        est[:, l, k] += offset
    return (
        CovPath(times=times, values=est),
        CovPath(times=times, values=truth),
    )


class TestIse:
    def test_zero_for_equal_paths(self):
        times = np.linspace(0, 2, 51)
        est, truth = _const_paths(times)
        assert ise(est, truth, (0.2, 1.8)) == 0.0

    def test_constant_offset(self):
        times = np.linspace(0.0, 2.0, 2001)
        est, truth = _const_paths(times, offset=0.003, element=(0, 1))
        # window [0.25, 1.75]: length 1.5, error counted on (0,1) and (1,0)? no: unique elements only
        val = ise(est, truth, (0.25, 1.75))
        assert val == pytest.approx(0.003**2 * 1.5, rel=1e-9)
        val_el = ise(est, truth, (0.25, 1.75), element=(0, 1))
        assert val_el == pytest.approx(0.003**2 * 1.5, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0, 1, 101)
        a = CovPath(times=times, values=rng.standard_normal((101, 2, 2)) * 0 + _sym(rng, 101))
        b = CovPath(times=times, values=_sym(rng, 101))
        w = (0.1, 0.9)
        assert ise(a, b, w) == pytest.approx(ise(b, a, w), rel=1e-14)

    def test_quartic_scaling(self):
        rng = np.random.default_rng(6)
        times = np.linspace(0, 1, 101)
        av, bv = _sym(rng, 101), _sym(rng, 101)
        a, b = CovPath(times=times, values=av), CovPath(times=times, values=bv)
        a2, b2 = CovPath(times=times, values=4.0 * av), CovPath(times=times, values=4.0 * bv)
        w = (0.1, 0.9)
        # prices scaled by c scale covariances by c^2 and ise by c^4
        assert ise(a2, b2, w) == pytest.approx(16.0 * ise(a, b, w), rel=1e-12)

    def test_matches_exact_piecewise_linear_oracle(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 1.0, 4001)
        err = np.interp(times, np.linspace(0, 1, 9), rng.standard_normal(9)) * 1e-3
        vals = np.zeros((4001, 1, 1))
        vals[:, 0, 0] = err
        est = CovPath(times=times, values=vals)
        truth = CovPath(times=times, values=np.zeros_like(vals))
        window = (times[0], times[-1])
        exact = exact_pwl_squared_integral(times.tolist(), err.tolist())
        assert ise(est, truth, window, element=(0, 0)) == pytest.approx(exact, rel=1e-6)

    def test_mismatched_times_rejected(self):
        t1, t2 = np.linspace(0, 1, 11), np.linspace(0, 1, 12)
        a = CovPath(times=t1, values=np.zeros((11, 1, 1)))
        b = CovPath(times=t2, values=np.zeros((12, 1, 1)))
        with pytest.raises(InvalidArgument):
            ise(a, b, (0.1, 0.9))


def _sym(rng, m, d=2):
    a = rng.standard_normal((m, d, d))
    return a + np.transpose(a, (0, 2, 1))


class TestBandwidthGrid:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            BandwidthGrid(candidates=[], t_l=0.1, t_u=0.9)
        with pytest.raises(InvalidArgument):
            BandwidthGrid(candidates=[0.2, 0.1], t_l=0.1, t_u=0.9)
        with pytest.raises(InvalidArgument):
            BandwidthGrid(candidates=[-0.1, 0.2], t_l=0.1, t_u=0.9)
        with pytest.raises(InvalidArgument):
            BandwidthGrid(candidates=[0.1], t_l=0.9, t_u=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidates_rejected(self, bad):
        with pytest.raises(InvalidArgument, match="finite"):
            BandwidthGrid(candidates=[0.1, bad], t_l=0.1, t_u=0.9)
        with pytest.raises(InvalidArgument, match="finite"):
            BandwidthGrid(candidates=[bad], t_l=0.1, t_u=0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_rejected(self, bad):
        with pytest.raises(InvalidArgument, match="0 < t_l < t_u"):
            BandwidthGrid(candidates=[0.1], t_l=0.1, t_u=bad)

    def test_default_window(self):
        assert default_window(2.0) == (0.2, 1.8)


class TestCvBandwidth:
    def test_single_candidate_returned(self, increments_small):
        grid = BandwidthGrid(candidates=[0.11], t_l=0.2, t_u=1.8)
        res = cv_bandwidth(increments_small, kernel_by_name("gaussian"), grid)
        assert res.h == 0.11
        assert res.values.shape == (1,)

    def test_argmin_property(self, increments_small):
        grid = BandwidthGrid(candidates=np.linspace(0.02, 0.4, 12), t_l=0.2, t_u=1.8)
        res = cv_bandwidth(increments_small, kernel_by_name("gaussian"), grid)
        assert res.values.min() == res.values[list(res.candidates).index(res.h)]
        assert np.all(res.values[list(res.candidates).index(res.h)] <= res.values)

    def test_level_shift_invariance(self, heston_sim_small):
        # adding a constant to price LEVELS leaves increments unchanged
        from spotcov import PricePath

        p = heston_sim_small.prices
        shifted = PricePath(grid=p.grid, values=p.values + 5.0)
        inc_a = log_returns(p)
        inc_b = log_returns(shifted)
        grid = BandwidthGrid(candidates=[0.05, 0.1, 0.2], t_l=0.2, t_u=1.8)
        ra = cv_bandwidth(inc_a, kernel_by_name("onesided"), grid)
        rb = cv_bandwidth(inc_b, kernel_by_name("onesided"), grid)
        # invariance is exact in exact arithmetic; differencing the shifted
        # levels costs a few ulps per increment
        assert np.allclose(ra.values, rb.values, rtol=1e-9)
        assert ra.h == rb.h

    def test_degenerate_all_candidates_raises(self):
        # compact-support kernel with bandwidth far smaller than the spacing:
        # every leave-one-out weight is zero
        g = build_uniform_grid(1.0, 10)
        rng = np.random.default_rng(2)
        inc = IncrementSeries(grid=g, values=rng.standard_normal((10, 1)))
        grid = BandwidthGrid(candidates=[1e-6, 1e-5], t_l=0.15, t_u=0.85)
        with pytest.raises(InvalidState):
            cv_bandwidth(inc, kernel_by_name("beta"), grid)

    def test_window_must_be_interior(self, increments_small):
        grid = BandwidthGrid(candidates=[0.1], t_l=0.2, t_u=2.5)
        with pytest.raises(InvalidArgument):
            cv_bandwidth(increments_small, kernel_by_name("gaussian"), grid)

    @pytest.mark.parametrize("name", ["gaussian", "onesided", "beta"])
    def test_evaluates_only_each_candidates_support_window(self, increments_small, monkeypatch, name):
        calls = []

        def record(spec, h, z):
            calls.append((h, np.asarray(z)))
            return eval_scaled(spec, h, z)

        monkeypatch.setattr(bandwidth, "eval_scaled", record)
        spec = kernel_by_name(name)
        grid = BandwidthGrid(candidates=[1e-4, 0.02, 0.1, 0.4], t_l=0.2, t_u=1.8)
        cv_bandwidth(increments_small, spec, grid)
        assert [h for h, _ in calls] == grid.candidates.tolist()
        n, delta = increments_small.grid.n, increments_small.grid.delta
        all_lags = np.arange(1 - n, n)
        for h, z in calls:
            lags = np.round(z / delta).astype(int)
            assert np.array_equal(z, lags * delta)
            assert np.array_equal(np.sort(lags), np.arange(lags.min(), lags.max() + 1))
            # every lag that carries weight, and none two or more lags beyond the declared support
            weighted = all_lags[eval_scaled(spec, h, all_lags * delta) != 0.0]
            assert lags.min() <= weighted[0] and weighted[-1] <= lags.max()
            lo, hi = np.multiply(spec.support, h / delta)
            assert lo - 2 < lags.min() and lags.max() < hi + 2

    @pytest.mark.slow
    def test_cv_tracks_ise_optimal_bandwidth(self):
        """CV choice within 2 grid steps of the ISE-optimal h in >= 80% of reps.

        The oracle integrates the squared error of every matrix element
        (off-diagonals twice), which is the population objective the
        leave-one-out Frobenius criterion estimates.  The τ and the anchors
        both lie on the grid, so each weight depends only on the integer lag
        and comes from one table of the 2n lags per candidate.
        """
        candidates = np.round(np.arange(0.01, 0.31, 0.01), 10)
        cfg = HestonConfig()
        reps = 100
        hits = 0
        spec = kernel_by_name("gaussian")
        window = (0.2, 1.8)
        from spotcov.kernels import eval_scaled

        grid = build_uniform_grid(2.0, 2880)
        bg = BandwidthGrid(candidates=candidates, t_l=window[0], t_u=window[1])
        eval_idx = np.arange(0, 2881, 8)
        eval_idx = eval_idx[
            (grid.points[eval_idx] >= window[0]) & (grid.points[eval_idx] <= window[1])
        ]
        taus = grid.points[eval_idx]
        # tables[c, n + L] weighs lag L = i - e (anchor i, τ index e), so
        # the weights at τ index e over all anchors are tables[:, n - e : 2n - e]
        n = grid.n
        lags = np.arange(-n, n) * grid.delta
        tables = np.array([eval_scaled(spec, float(h), lags) for h in candidates])
        for r in range(reps):
            sim = simulate_heston2d(cfg, grid, seed=50_000 + r)
            inc = log_returns(sim.prices)
            chosen = cv_bandwidth(inc, spec, bg).h
            truth_flat = sim.true_cov.values[eval_idx].reshape(taus.size, 4)
            dx = inc.values
            outer = np.einsum("ik,il->ikl", dx, dx).reshape(dx.shape[0], 4)
            fits = np.stack([tables[:, n - e : 2 * n - e] @ outer for e in eval_idx], axis=1)
            ises = np.trapezoid(((fits - truth_flat) ** 2).sum(axis=2), taus, axis=1)
            best = candidates[int(np.argmin(ises))]
            if abs(candidates.tolist().index(chosen) - candidates.tolist().index(best)) <= 2:
                hits += 1
        assert hits >= 0.8 * reps, f"CV matched ISE-optimal h in only {hits}/{reps} runs"


def _oracle_curve(inc, kernel, candidates, t_l, t_u):
    times, dx = inc.left_times.tolist(), inc.values.tolist()
    return np.array(
        [naive_cv(times, dx, kernel, float(h), inc.grid.delta, t_l, t_u) for h in candidates]
    )


def _random_increments(n, d, seed):
    rng = np.random.default_rng(seed)
    g = build_uniform_grid(1.0, n)
    # variance rising over the horizon, so the CV curve has an interior shape
    scale = np.sqrt(g.delta) * (1.0 + g.points[:-1])[:, None]
    return IncrementSeries(grid=g, values=0.1 * scale * rng.standard_normal((n, d)))


def _assert_matches_oracle(res, oracle):
    assert np.array_equal(np.isinf(res.values), np.isinf(oracle))
    finite = np.isfinite(oracle)
    np.testing.assert_allclose(res.values[finite], oracle[finite], rtol=1e-12, atol=0.0)
    assert res.h == res.candidates[int(np.argmin(oracle))]


# (spec, oracle kernel, candidates).  With n = 120 on [0, 1] the spacing is
# 1/120; beta's first candidate is below it, so its support holds lag 0 only.
_ORACLE_KERNELS = {
    "gaussian": (
        kernel_by_name("gaussian"),
        partial(kernel_value, "gaussian"),
        [0.01, 0.03, 0.07, 0.16],
    ),
    "onesided": (
        kernel_by_name("onesided"),
        partial(kernel_value, "onesided"),
        [0.01, 0.03, 0.07, 0.16],
    ),
    "beta": (kernel_by_name("beta"), partial(kernel_value, "beta"), [0.005, 0.03, 0.07, 0.16]),
    "uniform": (uniform_kernel(0.1), partial(uniform_value, 0.1), [0.25, 0.45, 0.9, 1.3]),
}


class TestCvOracle:
    @pytest.fixture(scope="class")
    def inc(self):
        return _random_increments(120, 2, seed=8)

    @pytest.mark.parametrize("name", sorted(_ORACLE_KERNELS))
    @pytest.mark.parametrize("edges", [False, True], ids=["interior", "edges"])
    def test_matches_dense_oracle(self, inc, name, edges):
        spec, kernel, candidates = _ORACLE_KERNELS[name]
        # edges: the window spans the first through the last interior row
        t_l, t_u = (inc.left_times[1], inc.left_times[-1]) if edges else (0.2, 0.8)
        res = cv_bandwidth(inc, spec, BandwidthGrid(candidates=candidates, t_l=t_l, t_u=t_u))
        _assert_matches_oracle(res, _oracle_curve(inc, kernel, candidates, t_l, t_u))

    @pytest.mark.parametrize("name", ["gaussian", "onesided", "beta"])
    @pytest.mark.parametrize("n", [3, 5, 8, 13, 14, 23, 38, 41, 63, 68])
    def test_matches_dense_oracle_at_an_exact_transform_length(self, n, name):
        # 2n - 1 is 5-smooth, so the transform is exactly 2n - 1 long and the
        # longest lags wrap around onto the last free index; n = 2 has a single
        # interior row, one short of a window
        assert bandwidth._smooth_len(2 * n - 1) == 2 * n - 1
        inc = _random_increments(n, 2, seed=n)
        candidates = np.array([0.5, 1.5, 4.0, 3.0 * n]) * inc.grid.delta  # the last reaches every lag
        t_l, t_u = inc.left_times[1], inc.left_times[-1]
        res = cv_bandwidth(inc, kernel_by_name(name), BandwidthGrid(candidates=candidates, t_l=t_l, t_u=t_u))
        _assert_matches_oracle(res, _oracle_curve(inc, partial(kernel_value, name), candidates, t_l, t_u))

    def test_beta_below_spacing_is_inf_others_finite(self, inc):
        spec, _, candidates = _ORACLE_KERNELS["beta"]
        assert candidates[0] < inc.grid.delta
        res = cv_bandwidth(inc, spec, BandwidthGrid(candidates=candidates, t_l=0.2, t_u=0.8))
        assert res.values[0] == np.inf
        assert np.all(np.isfinite(res.values[1:]))

    @pytest.mark.parametrize("sign, rows", [(1, (2, 10)), (-1, (9, 17))])
    def test_far_lag_reached_only_from_window_edge(self, sign, rows):
        # weight only at lags 12..14 (or -14..-12): with n = 20 those lags
        # reach data only from the first rows (or the last rows) of the
        # window, so the candidate is not degenerate
        inc = _random_increments(20, 2, seed=4)
        lo, hi = sign * 11.5, sign * 14.5
        a, b = min(lo, hi), max(lo, hi)
        spec = KernelSpec(
            name="shifted",
            fn=lambda u: np.where((u >= a) & (u < b), 1.0 / 3.0, 0.0),
            support=(a, b),
            l2norm=1.0 / 3.0,
            mass_tol=1e-5,
        )
        candidates = [inc.grid.delta]
        t_l, t_u = inc.left_times[rows[0]], inc.left_times[rows[1]]
        res = cv_bandwidth(inc, spec, BandwidthGrid(candidates=candidates, t_l=t_l, t_u=t_u))
        flat = lambda u: 1.0 / 3.0 if a <= u < b else 0.0  # noqa: E731
        oracle = _oracle_curve(inc, flat, candidates, t_l, t_u)
        assert np.isfinite(oracle[0])
        _assert_matches_oracle(res, oracle)

    @pytest.mark.parametrize("rows, lag", [((2, 10), 17), ((9, 17), -17)], ids=["first-row", "last-row"])
    def test_farthest_reachable_lag_alone_is_not_degenerate(self, rows, lag):
        # n = 20: lag 17 is j - i for j = 19 and window row i = 2 only, lag -17
        # for j = 0 and row 17 only; weight one lag further reaches no data
        inc = _random_increments(20, 2, seed=4)
        t_l, t_u = inc.left_times[rows[0]], inc.left_times[rows[1]]
        grid = BandwidthGrid(candidates=[inc.grid.delta], t_l=t_l, t_u=t_u)
        for at, reached in ((lag, True), (lag + np.sign(lag), False)):
            a, b = at - 0.5, at + 0.5
            spec = KernelSpec(
                name="one-lag", fn=lambda u: np.where((u >= a) & (u < b), 1.0, 0.0),
                support=(a, b), l2norm=1.0, mass_tol=1e-5,
            )
            if reached:
                oracle = _oracle_curve(inc, lambda u: 1.0 if a <= u < b else 0.0, grid.candidates, t_l, t_u)
                assert np.isfinite(oracle[0])
                _assert_matches_oracle(cv_bandwidth(inc, spec, grid), oracle)
            else:
                with pytest.raises(InvalidState):
                    cv_bandwidth(inc, spec, grid)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(6, 40),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
        data=st.data(),
    )
    def test_property_matches_dense_oracle(self, n, d, seed, name, data):
        inc = _random_increments(n, d, seed)
        lo = data.draw(st.integers(1, n - 2), label="first window row")
        hi = data.draw(st.integers(lo + 1, n - 1), label="last window row")
        # bandwidths at odd eighths of the spacing, from below it to many
        # steps: beta's support edge then never lands exactly on a lag, where
        # rounding decides whether a weight is 0 or ~1e-31
        eighths = data.draw(
            st.lists(st.integers(0, 4 * n), min_size=1, max_size=4, unique=True), label="h"
        )
        candidates = (2 * np.sort(eighths) + 1) * inc.grid.delta / 8.0
        t_l, t_u = inc.left_times[lo], inc.left_times[hi]
        grid = BandwidthGrid(candidates=candidates, t_l=t_l, t_u=t_u)
        oracle = _oracle_curve(inc, partial(kernel_value, name), candidates, t_l, t_u)
        if np.all(np.isinf(oracle)):
            with pytest.raises(InvalidState):
                cv_bandwidth(inc, kernel_by_name(name), grid)
            return
        _assert_matches_oracle(cv_bandwidth(inc, kernel_by_name(name), grid), oracle)


def test_transform_length_is_the_least_5_smooth_number():
    smooth = sorted(
        2**a * 3**b * 5**c for a in range(16) for b in range(10) for c in range(7) if 2**a * 3**b * 5**c <= 2**15
    )
    for m in range(1, 20_001):
        assert bandwidth._smooth_len(m) == smooth[bisect.bisect_left(smooth, m)], m


class TestCvScaling:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(20, 80),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-7, 10),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
    )
    def test_power_of_two_scaling_is_exact(self, n, seed, k, name):
        # increments times 2^k scale every outer product by 4^k and every
        # squared residual by 16^k; no FFT step rounds differently
        inc = _random_increments(n, 2, seed)
        scaled = IncrementSeries(grid=inc.grid, values=inc.values * 2.0**k)
        grid = BandwidthGrid(candidates=[0.02, 0.05, 0.1, 0.2], t_l=0.2, t_u=0.8)
        spec = kernel_by_name(name)
        base, res = cv_bandwidth(inc, spec, grid), cv_bandwidth(scaled, spec, grid)
        assert np.array_equal(res.values, base.values * 16.0**k)
        assert res.h == base.h

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(20, 80),
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([-3, 4]),
        name=st.sampled_from(["gaussian", "onesided", "beta"]),
    )
    def test_power_of_two_time_units_scale_the_curve_and_h(self, n, seed, k, name):
        # the horizon, the candidates and the window times 2^k leave every lag
        # in units of h unchanged; K_h, the proxy and each residual scale by
        # 2^-k, so each squared residual times delta does too
        inc = _random_increments(n, 2, seed)
        scaled = IncrementSeries(grid=build_uniform_grid(2.0**k, n), values=inc.values)
        candidates = np.array([0.02, 0.05, 0.1, 0.2])
        spec = kernel_by_name(name)
        base = cv_bandwidth(inc, spec, BandwidthGrid(candidates=candidates, t_l=0.2, t_u=0.8))
        res = cv_bandwidth(
            scaled, spec, BandwidthGrid(candidates=candidates * 2.0**k, t_l=0.2 * 2.0**k, t_u=0.8 * 2.0**k)
        )
        assert np.array_equal(res.values, base.values * 2.0**-k)
        assert res.h == base.h * 2.0**k
