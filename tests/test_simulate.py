import numpy as np
import pytest

from oracles import naive_cir

from spotcov import (
    CirParams,
    HestonConfig,
    InvalidArgument,
    JumpConfig,
    build_uniform_grid,
    log_returns,
    simulate_bates2d,
    simulate_cir,
    simulate_compound_poisson,
    simulate_heston2d,
)
from spotcov.rng import substream


class TestCir:
    def test_param_validation(self):
        with pytest.raises(InvalidArgument):
            CirParams(kappa=0.0, theta=0.04, eta=0.5, v0=0.04)
        with pytest.raises(InvalidArgument):
            CirParams(kappa=1.0, theta=-0.04, eta=0.5, v0=0.04)
        with pytest.raises(InvalidArgument):
            CirParams(kappa=1.0, theta=0.04, eta=-0.5, v0=0.04)
        with pytest.raises(InvalidArgument):
            CirParams(kappa=1.0, theta=0.04, eta=0.5, v0=0.0)

    def test_zero_vol_of_vol_fixed_point(self):
        p = CirParams(kappa=2.0, theta=0.05, eta=0.0, v0=0.05)
        g = build_uniform_grid(1.0, 100)
        v = simulate_cir(p, g, seed=1)
        assert np.allclose(v, 0.05, rtol=1e-12)

    def test_deterministic_single_step(self):
        # with eta=0 the first Euler step is pure drift
        p = CirParams(kappa=2.0, theta=0.04, eta=0.0, v0=0.09)
        g = build_uniform_grid(1.0, 100)  # delta = 0.01
        v = simulate_cir(p, g, seed=3)
        assert v[1] == pytest.approx(0.089, rel=1e-12)

    def test_never_negative(self):
        # violent parameters to force truncation to matter
        p = CirParams(kappa=1.0, theta=0.01, eta=2.5, v0=0.01)
        g = build_uniform_grid(10.0, 20000)
        v = simulate_cir(p, g, seed=11)
        assert np.all(v >= 0.0)
        assert np.any(v == 0.0)  # truncation actually engaged

    def test_bitwise_equal_to_naive_recursion(self):
        # violent parameters, so that the floor at zero engages often
        p = CirParams(kappa=1.0, theta=0.01, eta=2.5, v0=0.01)
        g = build_uniform_grid(10.0, 5000)
        v = simulate_cir(p, g, seed=11)
        shocks = substream(11).standard_normal(g.n).tolist()
        ref = naive_cir(p.kappa, p.theta, p.eta, p.v0, g.delta, shocks)
        assert np.sum(v == 0.0) > 100
        assert v.tobytes() == np.array(ref).tobytes()

    def test_determinism(self):
        p = CirParams(kappa=5.0, theta=0.04, eta=0.5, v0=0.04)
        g = build_uniform_grid(2.0, 500)
        assert np.array_equal(simulate_cir(p, g, 42), simulate_cir(p, g, 42))
        assert not np.array_equal(simulate_cir(p, g, 42), simulate_cir(p, g, 43))

    @pytest.mark.slow
    def test_ergodic_mean(self):
        p = CirParams(kappa=2.0, theta=0.04, eta=0.3, v0=0.04)
        g = build_uniform_grid(1000.0, 100_000)
        v = simulate_cir(p, g, seed=9)
        assert np.mean(v) == pytest.approx(0.04, rel=0.05)


class TestHeston:
    def test_config_validation(self):
        with pytest.raises(InvalidArgument):
            HestonConfig(rho=1.5)
        with pytest.raises(InvalidArgument):
            HestonConfig(rho=-1.0)
        with pytest.raises(InvalidArgument):
            HestonConfig(mu=(0.0,))

    def test_determinism_bitwise(self):
        g = build_uniform_grid(2.0, 600)
        a = simulate_heston2d(HestonConfig(), g, 7)
        b = simulate_heston2d(HestonConfig(), g, 7)
        assert np.array_equal(a.prices.values, b.prices.values)
        assert np.array_equal(a.true_cov.values, b.true_cov.values)

    def test_true_cov_identity(self):
        g = build_uniform_grid(2.0, 600)
        sim = simulate_heston2d(HestonConfig(rho=0.35), g, 21)
        cov = sim.true_cov.values
        s1 = np.sqrt(cov[:, 0, 0])
        s2 = np.sqrt(cov[:, 1, 1])
        assert np.array_equal(cov[:, 0, 1], cov[:, 1, 0])
        assert np.allclose(cov[:, 0, 1], 0.35 * s1 * s2, rtol=1e-12)

    def test_initial_price_zero(self):
        g = build_uniform_grid(2.0, 100)
        sim = simulate_heston2d(HestonConfig(), g, 5)
        assert np.all(sim.prices.values[0] == 0.0)
        assert sim.jump_times == []

    def test_moment_matching_constant_vol(self):
        # eta = 0, v0 = theta, rho = 0: increments are iid with variance theta*delta
        cfg = HestonConfig(
            cir=(
                CirParams(kappa=5.0, theta=0.04, eta=0.0, v0=0.04),
                CirParams(kappa=4.0, theta=0.09, eta=0.0, v0=0.09),
            ),
            rho=0.0,
        )
        n = 100_000
        g = build_uniform_grid(float(n) / 1440.0, n)
        sim = simulate_heston2d(cfg, g, seed=77)
        dx = log_returns(sim.prices).values
        delta = g.delta
        cov = dx.T @ dx / n
        # 3 standard errors of the sample variance of a normal sample
        se1 = 0.04 * delta * np.sqrt(2.0 / n) * 3
        se2 = 0.09 * delta * np.sqrt(2.0 / n) * 3
        assert abs(cov[0, 0] - 0.04 * delta) < se1
        assert abs(cov[1, 1] - 0.09 * delta) < se2
        se12 = np.sqrt(0.04 * delta * 0.09 * delta / n) * 3
        assert abs(cov[0, 1]) < se12

    def test_price_correlation(self):
        cfg = HestonConfig(
            cir=(
                CirParams(kappa=5.0, theta=0.04, eta=0.0, v0=0.04),
                CirParams(kappa=4.0, theta=0.09, eta=0.0, v0=0.09),
            ),
            rho=0.7,
        )
        g = build_uniform_grid(40.0, 50_000)
        sim = simulate_heston2d(cfg, g, seed=13)
        dx = log_returns(sim.prices).values
        corr = np.corrcoef(dx.T)[0, 1]
        assert corr == pytest.approx(0.7, abs=0.02)


class TestCompoundPoisson:
    def test_zero_intensity(self):
        g = build_uniform_grid(2.0, 100)
        path, times = simulate_compound_poisson(JumpConfig(intensity=0.0), g, 5)
        assert times == []
        assert np.all(path == 0.0)

    def test_degenerate_sizes(self):
        g = build_uniform_grid(2.0, 2000)
        jc = JumpConfig(intensity=5.0, mean=(0.1, -0.1), sd=(0.0, 0.0))
        path, times = simulate_compound_poisson(jc, g, 17)
        assert len(times) > 0
        for _, size in times:
            assert np.allclose(size, [0.1, -0.1], rtol=0, atol=0)
        assert np.allclose(path[-1], [0.1 * len(times), -0.1 * len(times)], rtol=1e-12)

    def test_mean_jump_count(self):
        g = build_uniform_grid(2.0, 100)
        jc = JumpConfig(intensity=5.0)
        counts = [
            len(simulate_compound_poisson(jc, g, seed)[1]) for seed in range(2000)
        ]
        # Poisson(10): mean 10, sd sqrt(10); 3 standard errors of the mean
        se = 3 * np.sqrt(10.0 / len(counts))
        assert abs(np.mean(counts) - 10.0) < se

    def test_jump_lands_in_containing_step(self):
        g = build_uniform_grid(2.0, 200)
        jc = JumpConfig(intensity=3.0)
        path, times = simulate_compound_poisson(jc, g, 23)
        incr = np.diff(path, axis=0)
        for t, size in times:
            i = int(np.searchsorted(g.points, t, side="left"))
            i = max(1, min(i, g.n))
            # the increment covering t includes this jump
            assert np.all(np.abs(incr[i - 1]) > 0.0) or np.allclose(size, 0.0)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            JumpConfig(intensity=-1.0)
        with pytest.raises(InvalidArgument):
            JumpConfig(sd=(-0.1, 0.1))


class TestBates:
    def test_no_jumps_reduces_to_heston_bitwise(self):
        g = build_uniform_grid(2.0, 400)
        cfg = HestonConfig()
        a = simulate_heston2d(cfg, g, 31)
        b = simulate_bates2d(cfg, JumpConfig(intensity=0.0), g, 31)
        assert np.array_equal(a.prices.values, b.prices.values)

    def test_jump_increments_differ_by_jump_vector(self):
        g = build_uniform_grid(2.0, 400)
        cfg = HestonConfig()
        jc = JumpConfig(intensity=4.0, sd=(0.05, 0.05))
        base = simulate_heston2d(cfg, g, 37)
        noisy = simulate_bates2d(cfg, jc, g, 37)
        diff = noisy.prices.values - base.prices.values
        incr_diff = np.diff(diff, axis=0)
        jump_steps = {}
        for t, size in noisy.jump_times:
            i = max(1, min(int(np.searchsorted(g.points, t, side="left")), g.n))
            jump_steps.setdefault(i - 1, np.zeros(2))
            jump_steps[i - 1] += size
        for i in range(g.n):
            expected = jump_steps.get(i, np.zeros(2))
            assert np.allclose(incr_diff[i], expected, rtol=1e-9, atol=1e-12)

    def test_stream_independence(self):
        g = build_uniform_grid(2.0, 300)
        cfg = HestonConfig()
        jc = JumpConfig(intensity=5.0)
        a = simulate_bates2d(cfg, jc, g, 41, jump_seed=99)
        b = simulate_bates2d(cfg, jc, g, 41, jump_seed=100)
        # same diffusion, different jumps
        assert a.jump_times != b.jump_times
        c = simulate_bates2d(cfg, jc, g, 42, jump_seed=99)
        # same jumps, different diffusion
        assert [t for t, _ in a.jump_times] == [t for t, _ in c.jump_times]
        assert not np.array_equal(a.true_cov.values, c.true_cov.values)

    @pytest.mark.slow
    def test_jump_fraction_matches_intensity(self):
        g = build_uniform_grid(2.0, 2880)
        cfg = HestonConfig()
        jc = JumpConfig(intensity=2.0, sd=(0.05, 0.05))
        total_steps = 0
        jump_steps = 0
        for seed in range(500):
            sim = simulate_bates2d(cfg, jc, g, seed)
            total_steps += g.n
            jump_steps += len(sim.jump_times)
        frac = jump_steps / total_steps
        lam_delta = 2.0 * g.delta
        se = 3 * np.sqrt(lam_delta / total_steps)
        assert abs(frac - lam_delta) < se
