import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_vech
from spotcov import (
    CovMatrix,
    chol_vech,
    omega,
    IncrementSeries,
    InvalidArgument,
    PricePath,
    TimeGrid,
    build_uniform_grid,
    log_returns,
    unvech,
    unvech_lower,
    vech,
    vech_labels,
)
from spotcov.timeseries import vech_indices


def test_build_uniform_grid_basic():
    g = build_uniform_grid(2.0, 4)
    assert np.allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.delta == 0.5
    g = TimeGrid(0.3, np.int64(7))
    assert type(g.n) is int and g.n == 7
    assert np.array_equal(g.points[:-1], np.arange(7) * (0.3 / 7)) and g.points[-1] == 0.3


def test_build_uniform_grid_minute_sampling():
    g = build_uniform_grid(2.0, 2880)
    assert g.delta == pytest.approx(1.0 / 1440.0)
    assert g.points[0] == 0.0 and g.points[-1] == 2.0


@pytest.mark.parametrize(
    "T,n",
    [(1.0, 1), (0.0, 10), (-2.0, 10), (1.0, 0), (2.0, 2.5), (1.0, True), (np.nan, 10), (np.inf, 10)],
)
def test_build_uniform_grid_rejects(T, n):
    with pytest.raises(InvalidArgument, match="horizon T|grid steps n"):
        build_uniform_grid(T, n)
    with pytest.raises(InvalidArgument, match="horizon T|grid steps n"):
        TimeGrid(T, n)
    with pytest.raises(TypeError):
        TimeGrid(2.0, 4, points=np.linspace(0.0, 2.0, 5))  # the grid computes its points


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_increment_series_rejects_non_finite_row(bad):
    values = np.zeros((4, 2))
    values[2, 1] = bad
    with pytest.raises(InvalidArgument, match="values are not finite in row 2"):
        IncrementSeries(grid=build_uniform_grid(1.0, 4), values=values)


def test_log_returns_constant_path():
    g = build_uniform_grid(1.0, 3)
    p = PricePath(grid=g, values=np.ones((4, 2)) * 3.7)
    assert np.all(log_returns(p).values == 0.0)


def test_log_returns_arithmetic():
    g = build_uniform_grid(1.0, 2)
    p = PricePath(grid=g, values=[[0.0], [0.1], [-0.1]])
    inc = log_returns(p)
    assert np.allclose(inc.values.ravel(), [0.1, -0.2])


def test_log_returns_roundtrip():
    rng = np.random.default_rng(7)
    g = build_uniform_grid(1.0, 200)
    vals = rng.standard_normal((201, 3)).cumsum(axis=0)
    p = PricePath(grid=g, values=vals)
    inc = log_returns(p)
    rebuilt = vals[0] + np.vstack([np.zeros(3), np.cumsum(inc.values, axis=0)])
    assert np.allclose(rebuilt, vals, rtol=1e-12, atol=0)
    assert np.allclose(inc.values.sum(axis=0), vals[-1] - vals[0], rtol=1e-12)


def test_log_returns_linearity():
    rng = np.random.default_rng(8)
    g = build_uniform_grid(1.0, 50)
    a_vals = rng.standard_normal((51, 2))
    b_vals = rng.standard_normal((51, 2))
    pa, pb = PricePath(grid=g, values=a_vals), PricePath(grid=g, values=b_vals)
    combo = PricePath(grid=g, values=2.0 * a_vals + 3.0 * b_vals)
    assert np.allclose(
        log_returns(combo).values,
        2.0 * log_returns(pa).values + 3.0 * log_returns(pb).values,
        rtol=1e-12,
    )


def test_price_path_validation():
    g = build_uniform_grid(1.0, 2)
    with pytest.raises(InvalidArgument):
        PricePath(grid=g, values=np.zeros((2, 1)))  # wrong row count
    with pytest.raises(InvalidArgument):
        PricePath(grid=g, values=[[0.0], [np.nan], [0.0]])


def test_vech_examples():
    assert np.allclose(vech(np.array([[1.0, 2.0], [2.0, 3.0]])), [1, 2, 3])
    assert np.allclose(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])


def test_vech_matches_naive_ordering():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 5):
        a = rng.standard_normal((d, d))
        m = a + a.T
        assert np.allclose(vech(m), naive_vech(m.tolist()))


def test_vech_indices_are_one_cached_read_only_pair_per_d():
    for d in range(1, 6):
        rows, cols = vech_indices(d)
        assert vech_indices(d)[0] is rows and vech_indices(d)[1] is cols
        assert not rows.flags.writeable and not cols.flags.writeable
        upper_rows, upper_cols = np.triu_indices(d)
        assert np.array_equal(rows, upper_cols) and np.array_equal(cols, upper_rows)
        assert rows.dtype == upper_cols.dtype and cols.dtype == upper_rows.dtype
        assert list(zip(rows.tolist(), cols.tolist())) == [(r, c) for c in range(d) for r in range(c, d)]
        with pytest.raises(ValueError):
            rows[0] = 1


def test_vech_rejects_asymmetric():
    with pytest.raises(InvalidArgument):
        vech(np.array([[1.0, 2.0], [0.0, 3.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_vech_unvech_roundtrip(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    m = a + a.T
    assert np.array_equal(unvech(vech(m)), m)


def test_unvech_lower():
    c = unvech_lower(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(c, [[1.0, 0.0], [2.0, 3.0]])


def test_vech_labels():
    assert vech_labels(2) == ["s_1_1", "s_2_1", "s_2_2"]
    assert vech_labels(3) == ["s_1_1", "s_2_1", "s_3_1", "s_2_2", "s_3_2", "s_3_3"]


def test_cov_matrix_symmetry_enforced():
    with pytest.raises(InvalidArgument):
        CovMatrix(entries=np.array([[1.0, 1e-6], [0.0, 1.0]]))
    m = CovMatrix(entries=np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert m.is_psd()
    assert not CovMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]])).is_psd()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(bad):
    m = np.array([[bad, 0.0], [0.0, 1.0]])
    for check in (lambda a: CovMatrix(entries=a), omega, chol_vech, vech):
        with pytest.raises(InvalidArgument, match="non-finite"):
            check(m)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_symmetry_tolerance_is_relative_to_the_largest_entry(scale):
    base = np.array([[3.0, 1.0], [1.0, 2.0]])
    near, far = base.copy(), base.copy()
    near[0, 1] += 3e-11  # 1e-11 of the largest entry
    far[0, 1] += 3e-6
    for check in (lambda a: CovMatrix(entries=a), omega, chol_vech, vech):
        check(scale * near)
        with pytest.raises(InvalidArgument, match="asymmetric"):
            check(scale * far)


def test_symmetry_checked_per_matrix_of_a_stack():
    good = np.array([[3.0, 1.0], [1.0, 2.0]])
    bad = good.copy()
    bad[0, 1] += 1e-6
    # a tiny asymmetric matrix is not excused by a large one beside it
    for check in (omega, chol_vech, vech):
        check(np.stack([1e8 * good, good]))
        with pytest.raises(InvalidArgument, match="asymmetric"):
            check(np.stack([1e8 * good, bad]))
    assert np.array_equal(vech(np.stack([good, 2 * good])), [[3.0, 1.0, 2.0], [6.0, 2.0, 4.0]])
    with pytest.raises(InvalidArgument, match="square"):
        CovMatrix(entries=np.stack([good, good]))


def test_cov_matrix_immutable():
    m = CovMatrix(entries=np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
