import concurrent.futures
import dataclasses

import numpy as np
import pytest
from scipy.special import ndtri

from spotcov import (
    GridTargets,
    InvalidArgument,
    InvalidState,
    McConfig,
    ThresholdSpec,
    run_mc_study,
)
from spotcov.estimators import ProductStack, omega, standardized_errors
from spotcov.mc import _error_integrals, _eval_times, plotting_pairs
from spotcov.rng import derive_seed
from spotcov.simulate import simulate_cir, true_cov_path
from spotcov.timeseries import build_uniform_grid

# the window [0.25, 1.75] of a step-0.001 grid over [0, 2]: length 1.5
WINDOW_TIMES = np.linspace(0.25, 1.75, 1501)


def _constant_errors(errors, times=WINDOW_TIMES):
    """(R, m) error curves, replication r off by errors[r] at every time."""
    return np.multiply.outer(errors, np.ones(times.shape[0]))


def _assert_same_report(a, b):
    assert a.failed_reps == b.failed_reps
    assert [(c.kernel, c.n, c.delta, c.imse, c.isb, c.reps) for c in a.cells] == [
        (c.kernel, c.n, c.delta, c.imse, c.isb, c.reps) for c in b.cells
    ]
    for ca, cb in zip(a.cells, b.cells):
        assert np.array_equal(ca.bandwidths, cb.bandwidths) and np.array_equal(ca.ise_values, cb.ise_values)
    assert a.z_samples.keys() == b.z_samples.keys()
    for key in a.z_samples:
        assert np.array_equal(a.z_samples[key], b.z_samples[key])


class TestImseIsb:
    """The study's IMSE and ISB, as mc._error_integrals reduces a cell's error curves."""

    def test_zero_when_exact(self):
        ise_values, imse, isb = _error_integrals(_constant_errors([0.0, 0.0]), WINDOW_TIMES)
        assert ise_values.tolist() == [0.0, 0.0] and imse == 0.0 and isb == 0.0

    def test_single_replication_equals_ise(self):
        ise_values, imse, isb = _error_integrals(_constant_errors([0.01]), WINDOW_TIMES)
        assert imse == ise_values[0] == pytest.approx(0.01**2 * 1.5, rel=1e-9)
        assert isb == pytest.approx(imse, rel=1e-14)

    def test_opposite_errors_cancel_in_isb(self):
        _, imse, isb = _error_integrals(_constant_errors([+0.003, -0.003]), WINDOW_TIMES)
        assert imse == pytest.approx(0.003**2 * 1.5, rel=1e-9)
        assert isb == pytest.approx(0.0, abs=1e-20)

    def test_constant_bias(self):
        _, _, isb = _error_integrals(_constant_errors([0.002, 0.002, 0.002]), WINDOW_TIMES)
        assert isb == pytest.approx(0.002**2 * 1.5, rel=1e-9)

    def test_imse_dominates_isb(self):
        rng = np.random.default_rng(3)
        times = np.linspace(0.2, 1.8, 17)
        _, imse, isb = _error_integrals(rng.standard_normal((20, times.size)) * 0.01, times)
        assert imse >= isb - 1e-12


class TestQq:
    def test_exact_normal_quantiles_give_unit_line(self):
        n = 200
        z = ndtri((np.arange(1, n + 1) - 0.5) / n)
        theoretical, empirical = plotting_pairs(np.random.default_rng(4).permutation(z))
        assert np.array_equal(empirical, z)  # sorted back
        assert np.all(np.abs(theoretical - empirical) <= 8 * np.spacing(np.abs(z)))

    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1000])
    def test_theoretical_column_within_8_ulp_of_ndtri(self, n):
        theoretical, _ = plotting_pairs(np.zeros(n))
        expected = ndtri((np.arange(1, n + 1) - 0.5) / n)
        assert np.all(np.abs(theoretical - expected) <= 8 * np.spacing(np.abs(expected)))

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgument, match="need at least 2 samples, got 1"):
            plotting_pairs(np.zeros(1))


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
            McConfig(bandwidth="auto")
        with pytest.raises(InvalidArgument):
            McConfig(bandwidth="cv")  # a word, not a tuple of candidates
        with pytest.raises(InvalidArgument):
            McConfig(kernels=("gauss",))

    @pytest.mark.parametrize("candidates", [(-0.1, 0.2), (0.2, 0.1), (0.1, 0.1)])
    def test_cv_candidates_checked_at_construction(self, candidates):
        with pytest.raises(InvalidArgument, match="bandwidth candidates must"):
            McConfig(bandwidth=candidates)
        grid = McConfig(bandwidth=(0.1, 0.2)).cv_grid
        assert list(grid.candidates) == [0.1, 0.2] and (grid.t_l, grid.t_u) == (0.2, 1.8)
        assert McConfig(bandwidth=0.1).cv_grid is None

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"horizon": float("inf")}, "horizon must be positive and finite"),
            ({"bandwidth": float("inf")}, "bandwidth must be positive and finite"),
            ({"bandwidth": float("nan")}, "bandwidth must be positive and finite"),
            ({"frequencies": (100,), "window": (0.5, 0.5001)}, "window and eval_points"),
            ({"frequencies": (100, 100)}, "frequencies must not repeat"),
            ({"kernels": ("beta", "gaussian", "beta")}, "kernels must not repeat"),
            ({"bandwidth": True}, "bandwidth must be a number or a tuple, got True"),
            ({"bandwidth": [0.1, 0.2]}, r"bandwidth must be a number or a tuple, got \[0.1, 0.2\]"),
            ({"bandwidth": ()}, "bandwidth grid is empty"),
            ({"n_workers": 2.5}, r"threads \(n_workers\) must be an integer of at least 1, got 2.5"),
            ({"n_workers": 0}, r"threads \(n_workers\) must be an integer of at least 1, got 0"),
            (
                {"element": (0, 1.5), "reps": 2, "frequencies": (100,), "window": (0.5, 1.5), "eval_points": 11},
                r"element indices must be integers in \{0, 1\} \(0-based\), got \(0, 1.5\)",
            ),
            ({"element": (True, 1)}, r"element indices must be integers in \{0, 1\}"),
            ({"master_seed": 1.5}, "master_seed must be an integer, got 1.5"),
            ({"master_seed": True}, "master_seed must be an integer, got True"),
            ({"kernels": (["gaussian"],)}, r"kernels must be kernel names, got \[\['gaussian'\]\]"),
            ({"kernels": ("beta", 1)}, r"kernels must be kernel names, got \['beta', 1\]"),
            ({"frequencies": ("a",)}, r"frequencies must be nonempty integers, got \['a'\]"),
        ],
    )
    def test_rejected_at_construction(self, fields, match):
        with pytest.raises(InvalidArgument, match=match):
            McConfig(**fields)


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

    def test_one_block_study_starts_no_pool(self, monkeypatch):
        import spotcov.mc as mc

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block study started a process pool")

        cfg = McConfig(
            reps=mc.BLOCK_REPS, frequencies=(120,), kernels=("gaussian",), bandwidth=0.2,
            window=(0.5, 1.5), eval_points=11, master_seed=8,
        )
        serial = run_mc_study(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        _assert_same_report(run_mc_study(dataclasses.replace(cfg, n_workers=4)), serial)

    def test_pool_capped_at_the_block_count(self, monkeypatch):
        import spotcov.mc as mc

        seen = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        def spy(*args, **kwargs):
            seen.append(kwargs["max_workers"])
            return real_pool(*args, **kwargs)

        cfg = McConfig(
            reps=2 * mc.BLOCK_REPS + 1, frequencies=(60,), kernels=("onesided",), bandwidth=0.3,
            window=(0.5, 1.5), eval_points=5, master_seed=9,
        )
        serial = run_mc_study(cfg)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        _assert_same_report(run_mc_study(dataclasses.replace(cfg, n_workers=8)), serial)
        assert seen == [3]

    def test_tkcv_equals_kcv_bitwise_without_jumps_and_huge_threshold(self):
        base = dict(
            reps=3,
            frequencies=(240,),
            kernels=("gaussian", "beta"),
            bandwidth=0.2,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=9,
        )
        a = run_mc_study(McConfig(**base))
        b = run_mc_study(McConfig(threshold=ThresholdSpec(c=1e12), **base))
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
            threshold="calibrated",
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=eval_points,
            master_seed=21,
        )
        calls = []
        path = mc.spot_covariance_path

        def spy(stack, spec, h, targets, thr=None):
            est = path(stack, spec, h, targets, thr=thr)
            calls.append((stack, spec, h, targets, est))
            return est

        monkeypatch.setattr(mc, "spot_covariance_path", spy)
        report = run_mc_study(cfg)
        blocks = -(-cfg.reps // mc.BLOCK_REPS)
        assert len(calls) == blocks * 2 * 2  # one path call per block, frequency and kernel

        grid = build_uniform_grid(cfg.horizon, 120)
        v1 = simulate_cir(cfg.heston.cir[0], grid, derive_seed(cfg.master_seed, "vol-1"))
        v2 = simulate_cir(cfg.heston.cir[1], grid, derive_seed(cfg.master_seed, "vol-2"))
        truth = true_cov_path(grid, v1, v2, cfg.heston.rho)
        eval_idx = _eval_times(cfg, grid)
        assert (60 in eval_idx) == (eval_points == 11)
        truth_qq = truth.matrix(60)
        for i, (stack, spec, h, targets, ests) in enumerate(calls):
            for b, est in enumerate(ests):
                key, rep = (spec.name, stack.grid.n), i // 4 * mc.BLOCK_REPS + b
                alone = ProductStack(stack.grid, stack.d, stack.prods[b : b + 1])  # this replication's products
                assert isinstance(targets, GridTargets) and targets.stride == 120 // stack.grid.n
                # the QQ sample equals the one from a separate one-target path
                one = path(alone, spec, h, GridTargets([60], targets.stride))[0].values
                z = standardized_errors(one, truth_qq, omega(truth_qq), stack.grid.delta, h, spec)[0]
                assert np.array_equal(report.z_samples[key][rep], z)
                # the lag route agrees with the float-time path to rounding
                direct = path(alone, spec, h, grid.points[targets.positions])[0].values
                assert np.abs(est.values - direct).max() <= 1e-13 * np.abs(direct).max()
                # the error curve reads the eval rows only
                rows = np.searchsorted(targets.positions, eval_idx)
                errs = est.values[rows, 0, 1] - truth.values[eval_idx, 0, 1]
                ise = np.trapezoid(errs**2, grid.points[eval_idx])
                assert report.cell(*key).ise_values[rep] == ise

    @pytest.mark.parametrize("bandwidth", [0.3, (0.2, 0.3, 0.45)], ids=["fixed-h", "cv"])
    def test_block_paths_equal_each_replication_alone(self, monkeypatch, bandwidth):
        import spotcov.mc as mc

        cfg = McConfig(
            reps=mc.BLOCK_REPS + 3,
            frequencies=(60, 120),
            kernels=("gaussian", "onesided", "beta"),
            threshold="calibrated",
            bandwidth=bandwidth,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=23,
        )
        calls = []
        path = mc.spot_covariance_path

        def spy(stack, spec, h, targets, thr=None):
            ests = path(stack, spec, h, targets, thr=thr)
            calls.append((stack, spec, h, targets, ests))
            return ests

        monkeypatch.setattr(mc, "spot_covariance_path", spy)
        run_mc_study(cfg)
        sizes = {}
        for stack, spec, h, targets, ests in calls:
            key = (spec.name, stack.grid.n)
            sizes[key] = sizes.get(key, 0) + len(stack.prods)
            assert len(ests) == len(stack.prods)
            for b, est in enumerate(ests):
                one = ProductStack(stack.grid, stack.d, stack.prods[b : b + 1])  # this replication's products
                alone = path(one, spec, h, targets)[0]
                assert np.array_equal(est.times, alone.times)
                assert np.array_equal(est.values, alone.values)
        assert sizes == {(name, n): cfg.reps for name in cfg.kernels for n in cfg.frequencies}
        assert max(len(stack.prods) for stack, *_ in calls) > 1

    def test_failed_replication_leaves_its_block_unchanged(self, monkeypatch):
        import spotcov.mc as mc

        cfg = McConfig(
            reps=100,  # one failure is within the 1% budget
            frequencies=(60, 120),
            kernels=("onesided", "beta"),
            threshold="calibrated",
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=11,
            master_seed=24,
        )
        bad = mc.BLOCK_REPS + 5
        full = run_mc_study(cfg)
        self._fail_one_rep(monkeypatch, cfg, bad, InvalidArgument("bad path"))
        report = run_mc_study(cfg)
        assert report.failed_reps == (bad,)
        keep = np.arange(cfg.reps) != bad
        for key in full.z_samples:
            assert np.array_equal(report.cell(*key).ise_values, full.cell(*key).ise_values[keep])
            assert np.array_equal(report.z_samples[key], full.z_samples[key][keep])

    @pytest.mark.parametrize("scale", [1e-20, 1.0])
    def test_variance_decomposition_slack_is_relative_to_the_imse(self, monkeypatch, scale):
        import spotcov.mc as mc

        cfg = McConfig(
            reps=2,
            frequencies=(50,),
            kernels=("onesided",),
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=5,
            master_seed=12,
        )

        def integrals(isb_over_imse):
            def fake(errs, times):
                return np.trapezoid(errs**2, times, axis=1), scale, isb_over_imse * scale

            return fake

        # an ISB above the IMSE by rounding passes; by half the IMSE it fails
        monkeypatch.setattr(mc, "_error_integrals", integrals(1.0 + 1e-15))
        run_mc_study(cfg)
        monkeypatch.setattr(mc, "_error_integrals", integrals(1.5))
        with pytest.raises(InvalidState, match="variance decomposition violated"):
            run_mc_study(cfg)

    def _fail_one_rep(self, monkeypatch, cfg, rep, exc, step="diffusion_prices"):
        """Make one step raise exc in replication rep only: its price draw,
        or a step given its increments (calibrated_threshold, cv_bandwidth)."""
        import spotcov.mc as mc

        bad_seed = derive_seed(cfg.master_seed, "rep", rep)
        diffusion_prices, step_fn = mc.diffusion_prices, getattr(mc, step)
        bad = []  # replication rep's price path, once drawn

        def draw(heston, grid, v1, v2, seed):
            if seed == bad_seed and step == "diffusion_prices":
                raise exc
            x = diffusion_prices(heston, grid, v1, v2, seed)
            if seed == bad_seed:
                bad.append(x)
            return x

        def fake(inc, *args, **kwargs):
            x = bad[0][:: (len(bad[0]) - 1) // inc.grid.n] if bad else None
            if x is not None and np.array_equal(inc.values, np.diff(x, axis=0)):
                raise exc
            return step_fn(inc, *args, **kwargs)

        monkeypatch.setattr(mc, "diffusion_prices", draw)
        if step != "diffusion_prices":
            monkeypatch.setattr(mc, step, fake)

    @pytest.mark.parametrize(
        "step, choice",
        [
            ("diffusion_prices", {}),
            ("calibrated_threshold", {"threshold": "calibrated"}),
            ("cv_bandwidth", {"bandwidth": (0.2, 0.3, 0.45)}),
        ],
        ids=["diffusion_prices", "calibrated_threshold", "cv_bandwidth"],
    )
    def test_data_failure_in_one_rep_is_listed(self, monkeypatch, step, choice):
        cfg = McConfig(
            reps=100,
            frequencies=(50,),
            kernels=("onesided",),
            bandwidth=choice.get("bandwidth", 0.3),
            threshold=choice.get("threshold"),
            window=(0.5, 1.5),
            eval_points=5,
            master_seed=12,
        )
        self._fail_one_rep(monkeypatch, cfg, 37, InvalidArgument("bad path"), step)
        report = run_mc_study(cfg)
        assert report.failed_reps == (37,)
        assert report.cell("onesided", 50).reps == 99

    def test_shared_step_failure_stops_the_study(self, monkeypatch):
        import spotcov.mc as mc

        cfg = McConfig(
            reps=3,
            frequencies=(50,),
            kernels=("onesided",),
            bandwidth=0.3,
            window=(0.5, 1.5),
            eval_points=5,
            master_seed=12,
        )

        def fake(*args, **kwargs):
            raise InvalidArgument("omega_qq is singular")

        # the QQ step reads only the stack's rows and what the study shares
        monkeypatch.setattr(mc, "standardized_errors", fake)
        with pytest.raises(InvalidArgument, match="omega_qq is singular"):
            run_mc_study(cfg)

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
            bandwidth=(0.1, 0.2, 0.3),
            window=(0.5, 1.5),
            eval_points=7,
            master_seed=12,
        )
        report = run_mc_study(cfg)
        hs = report.cell("gaussian", 200).bandwidths
        assert set(hs).issubset({0.1, 0.2, 0.3})
