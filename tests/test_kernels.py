import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from spotcov import kernels
from spotcov import (
    InvalidArgument,
    KernelSpec,
    eval_kernel,
    eval_scaled,
    kernel_by_name,
    kernel_l2_norm,
    uniform_kernel,
)

ALL_NAMES = ["gaussian", "onesided", "beta"]


def test_eval_kernel_closed_forms():
    assert eval_kernel(kernel_by_name("gaussian"), 0.0) == pytest.approx(
        0.3989423, abs=1e-7
    )
    assert eval_kernel(kernel_by_name("onesided"), 0.5) == 0.0
    assert eval_kernel(kernel_by_name("beta"), 0.0) == pytest.approx(0.9375, abs=0)


def test_onesided_weights_only_the_past():
    spec = kernel_by_name("onesided")
    u = np.array([-2.0, -0.5, 0.0, 0.1, 3.0])
    vals = eval_kernel(spec, u)
    assert vals[3] == 0.0 and vals[4] == 0.0
    assert vals[0] == pytest.approx(math.exp(-2.0))
    assert vals[2] == 1.0


def test_eval_scaled():
    g = kernel_by_name("gaussian")
    assert eval_scaled(g, 2.0, 0.0) == pytest.approx(0.1994711, abs=1e-7)
    for name in ALL_NAMES:
        spec = kernel_by_name(name)
        for u in (-1.3, -0.2, 0.0, 0.4):
            assert eval_scaled(spec, 1.0, u) == eval_kernel(spec, u)
    one = kernel_by_name("onesided")
    assert eval_scaled(one, 0.5, -0.5) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    assert eval_scaled(one, 0.5, -0.5) == pytest.approx(0.7357589, abs=1e-7)


def test_eval_scaled_rejects_bad_bandwidth():
    for h in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="bandwidth must be positive and finite"):
            eval_scaled(kernel_by_name("gaussian"), h, 1.0)


def test_eval_scaled_is_exact_rescaling():
    for name in ALL_NAMES:
        spec = kernel_by_name(name)
        z = np.linspace(-3, 3, 41)
        h = 0.37
        assert np.array_equal(eval_scaled(spec, h, z), spec.fn(z / h) / h)


def test_l2_norms_closed_form():
    assert kernel_l2_norm(kernel_by_name("gaussian")) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi))
    )
    assert kernel_l2_norm(kernel_by_name("onesided")) == 0.5
    assert kernel_l2_norm(kernel_by_name("beta")) == pytest.approx(5.0 / 7.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_l2_norm_matches_quadrature(name):
    spec = kernel_by_name(name)
    lo, hi = max(spec.support[0], -40.0), min(spec.support[1], 40.0)
    val, err = quad(lambda u: float(spec.fn(np.asarray(u))) ** 2, lo, hi, limit=200)
    assert kernel_l2_norm(spec) == pytest.approx(val, abs=max(1e-8, 10 * err))


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("h", [0.05, 0.5, 1.0, 3.0])
def test_scaled_kernel_integrates_to_one(name, h):
    spec = kernel_by_name(name)
    lo, hi = max(spec.support[0], -45.0), min(spec.support[1], 45.0)
    z = np.linspace(lo * h, hi * h, 200_001)
    mass = np.trapezoid(eval_scaled(spec, h, z), z)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_kernels_nonnegative_and_bounded(name):
    spec = kernel_by_name(name)
    z = np.linspace(-50, 50, 20001)
    vals = eval_kernel(spec, z)
    assert np.all(vals >= 0)
    assert np.max(vals) < np.inf
    lo, hi = spec.support
    outside = z[(z < lo) | (z > hi)]
    if outside.size:
        assert np.all(eval_kernel(spec, outside) == 0.0)


def test_unknown_kernel_name():
    with pytest.raises(InvalidArgument):
        kernel_by_name("epanechnikov")


def test_gaussian_cut_where_weight_falls_below_rounding_of_its_peak():
    c = kernels.GAUSSIAN_CUT
    spec = kernel_by_name("gaussian")
    assert spec.support == (-c, c)
    assert spec.fn(np.array(c)) > 0.0
    assert spec.fn(np.nextafter(c, np.inf)) == 0.0
    assert spec.fn(np.array(c)) / spec.fn(np.array(0.0)) == pytest.approx(2.0**-53, rel=1e-12)
    assert 2.0 * ndtr(-c) < 1e-16  # the mass the cut drops


def test_biweight_in_place_matches_its_formula_bitwise():
    u = np.r_[np.linspace(-1.5, 1.5, 30_001), -1.0, 1.0, np.nextafter(1.0, 2.0), -np.inf, np.inf, np.nan]
    assert -1.0 in u and 1.0 in u
    w = 1.0 - u * u
    formula = np.where(np.abs(u) <= 1.0, (15.0 / 16.0) * w * w, 0.0)
    assert np.array_equal(kernels._biweight(u), formula)
    assert kernels._biweight(np.float64(0.5)) == formula[np.flatnonzero(u == 0.5)[0]]
    assert np.array_equal(eval_kernel(kernel_by_name("beta"), u), formula)


def test_gaussian_matches_its_formula_bitwise_inside_the_cut():
    c = kernels.GAUSSIAN_CUT
    u = np.r_[np.linspace(-9.0, 9.0, 36_001), -c, c, np.nextafter(c, 10.0), -np.inf, np.inf, np.nan]
    formula = np.where(np.abs(u) <= c, np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi), 0.0)
    assert np.array_equal(kernels._gaussian(u), formula)
    assert kernels._gaussian(np.float64(0.5)) == formula[np.flatnonzero(u == 0.5)[0]]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_tiny_bandwidth_and_far_arguments_raise_no_overflow(name):
    # u = z/h beyond 1.3e154 used to overflow in u*u, warning before any error message
    spec = kernel_by_name(name)
    far = np.array([-np.inf, -1e300, -2e154, 2e154, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = eval_scaled(spec, 1e-200, np.array([-1.0, 0.0, 1.0]))
        outside = eval_kernel(spec, far)
    assert np.array_equal(tiny, [0.0, eval_kernel(spec, 0.0) / 1e-200, 0.0])
    assert np.array_equal(outside, np.zeros(far.size))


def test_shipped_kernels_built_on_first_lookup():
    assert not any(isinstance(v, KernelSpec) for v in vars(kernels).values())
    for name in ALL_NAMES:
        assert kernel_by_name(name) is kernel_by_name(name)


def test_bad_kernel_rejected_at_construction():
    with pytest.raises(InvalidArgument):
        KernelSpec(
            name="twice",
            fn=lambda u: 2.0 * np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi),
            support=(-math.inf, math.inf),
            l2norm=1.0,
        )
    with pytest.raises(InvalidArgument):
        KernelSpec(
            name="signed",
            fn=lambda u: np.sin(u) * np.exp(-0.5 * u * u),
            support=(-math.inf, math.inf),
            l2norm=1.0,
        )
    with pytest.raises(InvalidArgument, match="integrates to nan"):
        KernelSpec(name="nan-support", fn=kernel_by_name("beta").fn, support=(math.nan, 1.0), l2norm=5 / 7)


def test_uniform_kernel_helper():
    spec = uniform_kernel(width=1.0)
    assert eval_kernel(spec, -0.5) == 1.0
    assert eval_kernel(spec, 0.4999) == 1.0
    assert eval_kernel(spec, 0.5) == 0.0  # half-open on the right
    assert kernel_l2_norm(spec) == 1.0
    for width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="width must be positive and finite"):
            uniform_kernel(width)
