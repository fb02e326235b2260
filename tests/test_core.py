import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learcov as lc
from learcov.core import validated_times
from conftest import naive_arma11_matrix, naive_lear_matrix


def grid_of(*times_lists):
    return lc.build_grid([np.asarray(t, dtype=float) for t in times_lists])


# --------------------------------------------------------------------------
# grids


def test_build_grid_pools_extremes_across_subjects():
    g = grid_of([1, 2, 3], [1, 5])
    assert g.d_min == 1.0
    assert g.d_max == 4.0
    assert g.n_subjects == 2
    assert g.n_measurements(0) == 3


def test_build_grid_dmin_uses_consecutive_gaps_only():
    # smallest pairwise distance is always a consecutive gap
    g = grid_of([0.0, 0.25, 2.0])
    assert g.d_min == 0.25
    assert g.d_max == 2.0


def test_build_grid_accepts_singleton_subject_alongside_pairs():
    g = grid_of([4.0], [1, 2])
    assert g.d_min == g.d_max == 1.0


@pytest.mark.parametrize("bad", [[], [np.nan, 1.0], [1.0, 1.0], [2.0, 1.0]])
def test_build_grid_rejects_malformed_times(bad):
    with pytest.raises(lc.InvalidGrid):
        grid_of(bad)


def test_build_grid_needs_at_least_one_pair():
    with pytest.raises(lc.DegenerateGrid):
        grid_of([1.0], [7.5])


def test_build_grid_override_must_bracket_observed_range():
    g = lc.build_grid([[1, 2, 3]], d_min=0.5, d_max=10.0)
    assert (g.d_min, g.d_max) == (0.5, 10.0)
    with pytest.raises(lc.InvalidGrid):
        lc.build_grid([[1, 2, 3]], d_min=1.5)
    with pytest.raises(lc.InvalidGrid):
        lc.build_grid([[1, 2, 3]], d_max=1.5)
    with pytest.raises(lc.InvalidGrid):
        lc.build_grid([[1, 2, 3]], d_min=0.0)


def test_build_grid_needs_a_subject():
    with pytest.raises(lc.InvalidGrid):
        lc.build_grid([])


def test_grid_times_are_read_only():
    g = grid_of([1, 2, 3])
    with pytest.raises(ValueError):
        g.subject_times[0][0] = 99.0


def test_grid_freezes_copies_not_the_callers_arrays():
    t = np.array([1.0, 2.0, 4.0])
    g = lc.MeasurementGrid((t,), 1.0, 3.0)
    assert t.flags.writeable
    assert not g.subject_times[0].flags.writeable
    t[0] = 0.5
    assert g.subject_times[0][0] == 1.0
    # an already read-only vector is kept, not copied
    frozen = validated_times([1.0, 2.0])
    assert lc.MeasurementGrid((frozen,), 1.0, 1.0).subject_times[0] is frozen


# --------------------------------------------------------------------------
# parameter types


def test_lear_params_validate_space():
    with pytest.raises(lc.InvalidParams):
        lc.LearParams(0.0, 0.5, 1.0)
    with pytest.raises(lc.InvalidParams):
        lc.LearParams(1.0, 1.0, 1.0)
    with pytest.raises(lc.InvalidParams):
        lc.LearParams(1.0, -0.1, 1.0)
    with pytest.raises(lc.InvalidParams):
        lc.LearParams(1.0, 0.5, -0.5)
    with pytest.raises(lc.InvalidParams):
        lc.LearParams(1.0, 0.5, np.inf)
    with pytest.raises(lc.InvalidParams, match="^sigma2 must be a real number$"):
        lc.LearParams(None, 0.5, 1.0)


def test_arma11_params_accept_wider_box():
    th = lc.Arma11Params(1.0, -0.4, -0.9)
    assert not th.in_lear_image
    assert lc.Arma11Params(1.0, 0.3, 0.7).in_lear_image
    with pytest.raises(lc.InvalidParams):
        lc.Arma11Params(1.0, 1.0, 0.5)
    with pytest.raises(lc.InvalidParams):
        lc.Arma11Params(1.0, 0.5, 1.5)


def test_params_coerce_to_plain_floats():
    th = lc.LearParams(np.float64(1.0), np.float64(0.5), 2)
    assert type(th.rho_l) is float and type(th.delta) is float


# --------------------------------------------------------------------------
# LEAR matrices


def test_lear_correlation_matches_naive_loops():
    g = grid_of([1, 2, 4], [1, 2, 3, 4, 5])
    th = lc.LearParams(1.0, 0.5, 1.0)
    for i in range(2):
        got = lc.lear_correlation(th, g, i)
        want = naive_lear_matrix(1.0, 0.5, 1.0, g.subject_times[i], g.d_min, g.d_max)
        np.testing.assert_allclose(got, want, rtol=0, atol=0)


def test_lear_correlation_frozen_entry():
    # distances on this grid: 1, 2, 3 with d_min=1, d_max=3, so d=2 gets
    # exponent 1 + 1*(2-1)/(3-1) = 1.5 and d=3 gets exponent 2
    g = grid_of([1, 2, 4])
    got = lc.lear_correlation(lc.LearParams(1.0, 0.5, 1.0), g, 0)
    assert got[0, 1] == 0.5
    assert got[1, 2] == 0.3535533905932738  # 0.5**1.5
    assert got[0, 2] == 0.25


def test_lear_covariance_scales_by_sigma2():
    g = grid_of([1, 2, 3])
    corr = lc.lear_correlation(lc.LearParams(1.0, 0.4, 2.0), g, 0)
    cov = lc.lear_covariance(lc.LearParams(2.5, 0.4, 2.0), g, 0)
    np.testing.assert_allclose(cov, 2.5 * corr, rtol=0, atol=0)


def test_delta_zero_gives_compound_symmetry():
    g = grid_of([1, 2, 3, 4, 6])
    got = lc.lear_correlation(lc.LearParams(1.0, 0.7, 0.0), g, 0)
    off = got[~np.eye(5, dtype=bool)]
    assert np.all(off == 0.7 ** g.d_min)


def test_delta_equal_range_gives_ar1():
    g = grid_of([1, 2, 3, 4, 5])
    r = g.d_max - g.d_min
    got = lc.lear_correlation(lc.LearParams(1.0, 0.6, r), g, 0)
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    np.testing.assert_allclose(got, 0.6 ** d, atol=1e-15)


def test_large_delta_approaches_ma1():
    g = grid_of([1, 2, 3, 4])
    r = g.d_max - g.d_min
    got = lc.lear_correlation(lc.LearParams(1.0, 0.5, 50.0 * r), g, 0)
    lag1 = np.diag(got, 1)
    assert np.all(lag1 == 0.5)
    beyond = got[np.triu_indices(4, 2)]
    assert np.all(beyond < 1e-6)


def test_rho_zero_gives_identity():
    g = grid_of([1, 2, 4])
    got = lc.lear_correlation(lc.LearParams(1.0, 0.0, 3.0), g, 0)
    np.testing.assert_array_equal(got, np.eye(3))


def test_degenerate_range_uses_dmin_exponent():
    # single gap: d_min == d_max, every off-diagonal is rho**d_min
    g = grid_of([2.0, 4.5])
    got = lc.lear_correlation(lc.LearParams(1.0, 0.5, 7.0), g, 0)
    assert got[0, 1] == 0.5 ** 2.5


@pytest.mark.parametrize("index", [1, -1, 0.5, "0", True])
def test_lear_correlation_rejects_bad_subject_index(index):
    g = grid_of([1, 2, 3])
    with pytest.raises(lc.InvalidSize):
        lc.lear_correlation(lc.LearParams(1.0, 0.5, 1.0), g, index)
    with pytest.raises(lc.InvalidSize):
        lc.lear_covariance(lc.LearParams(1.0, 0.5, 1.0), g, index)


# --------------------------------------------------------------------------
# ARMA(1,1) matrices


def test_arma11_covariance_matches_naive_loops():
    th = lc.Arma11Params(2.0, 0.5, 0.7)
    got = lc.arma11_covariance(th, 5)
    np.testing.assert_allclose(got, naive_arma11_matrix(2.0, 0.5, 0.7, 5), atol=0)
    # A numpy integer size is taken as SimSpec and FitOptions take one.
    assert lc.arma11_covariance(th, np.int64(5)).tobytes() == got.tobytes()


def test_arma11_covariance_handles_negative_parameters():
    got = lc.arma11_covariance(lc.Arma11Params(1.0, -0.3, -0.5), 4)
    assert got[0, 1] == -0.3
    assert got[0, 2] == -0.3 * -0.5
    assert got[0, 3] == -0.3 * 0.25


@pytest.mark.parametrize("p", [0, -2, 2.5, True])
def test_arma11_covariance_rejects_bad_size(p):
    with pytest.raises(lc.InvalidSize):
        lc.arma11_covariance(lc.Arma11Params(1.0, 0.5, 0.5), p)


# --------------------------------------------------------------------------
# Cholesky


def test_cholesky_lower_reconstructs():
    g = grid_of([1, 2, 3, 4])
    cov = lc.lear_covariance(lc.LearParams(2.0, 0.6, 1.5), g, 0)
    L = lc.cholesky_lower(cov)
    np.testing.assert_allclose(L @ L.T, cov, atol=1e-14)
    assert np.all(np.diag(L) > 0)


def test_cholesky_lower_rejects_indefinite_without_repair():
    with pytest.raises(lc.NotPositiveDefinite):
        lc.cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_lower_zero_tolerance_near_singular():
    # eigenvalue exactly 0: rank-1 matrix, must fail rather than be nudged
    v = np.array([[1.0], [1.0]])
    with pytest.raises(lc.NotPositiveDefinite):
        lc.cholesky_lower(v @ v.T)


def test_cholesky_lower_rejects_non_square():
    with pytest.raises(lc.InvalidSize):
        lc.cholesky_lower(np.ones((2, 3)))


# --------------------------------------------------------------------------
# positive definiteness boundary (documented, exact)


def test_positive_definite_on_moderate_decay_rates():
    # delta up to 2R keeps every integer grid factorable at any rho < 1
    for p in (3, 8, 20):
        g = grid_of(np.arange(1.0, p + 1.0))
        r = g.d_max - g.d_min
        for rho in (0.1, 0.5, 0.9, 0.95, 0.99):
            for dfac in (0.0, 0.5, 1.0, 2.0):
                cov = lc.lear_covariance(lc.LearParams(1.0, rho, dfac * r), g, 0)
                lc.cholesky_lower(cov)


def test_high_delta_high_rho_is_genuinely_indefinite():
    # The MA(1)-like regime has lag-1 correlation rho**d_min with all longer
    # correlations near zero, which cannot stay positive definite once the
    # lag-1 value clears one half. The 3x3 determinant at rho=0.8, delta=5R
    # is 1 - 2*rho^2 + 2*rho^(2+10) - rho^(2+20), about -0.0133: indefinite,
    # and the factorization must say so rather than repair it.
    g = grid_of([1, 2, 3])
    r = g.d_max - g.d_min
    cov = lc.lear_covariance(lc.LearParams(1.0, 0.8, 5.0 * r), g, 0)
    assert np.linalg.det(cov) < 0
    with pytest.raises(lc.NotPositiveDefinite):
        lc.cholesky_lower(cov)
    big = grid_of(np.arange(1.0, 21.0))
    cov = lc.lear_covariance(
        lc.LearParams(1.0, 0.99, 10.0 * (big.d_max - big.d_min)), big, 0
    )
    with pytest.raises(lc.NotPositiveDefinite):
        lc.cholesky_lower(cov)


# --------------------------------------------------------------------------
# properties

times_strategy = st.integers(2, 8).flatmap(
    lambda p: st.tuples(
        st.floats(-5.0, 5.0),
        st.lists(
            st.floats(0.1, 3.0, allow_nan=False), min_size=p - 1, max_size=p - 1
        ),
    )
)


def _times_from(draw_result):
    t0, gaps = draw_result
    return np.concatenate([[t0], t0 + np.cumsum(gaps)])


@settings(max_examples=150, deadline=None)
@given(times_strategy, st.floats(0.0, 0.9), st.floats(0.0, 2.0))
def test_lear_correlation_properties(tg, rho, dfac):
    times = _times_from(tg)
    g = lc.build_grid([times])
    r = g.d_max - g.d_min
    th = lc.LearParams(1.0, rho, dfac * r if r > 0 else 0.0)
    corr = lc.lear_correlation(th, g, 0)
    p = times.size
    np.testing.assert_array_equal(np.diag(corr), np.ones(p))
    np.testing.assert_array_equal(corr, corr.T)
    off = corr[~np.eye(p, dtype=bool)]
    assert np.all(off >= 0.0) and np.all(off <= 1.0)
    # correlation never increases with distance
    d = np.abs(np.subtract.outer(times, times))
    iu = np.triu_indices(p, 1)
    order = np.argsort(d[iu])
    vals = corr[iu][order]
    assert np.all(np.diff(vals) <= 1e-15)


@settings(max_examples=150, deadline=None)
@given(times_strategy, st.floats(0.05, 0.9), st.floats(0.0, 2.0))
def test_lear_matches_naive_everywhere(tg, rho, dfac):
    times = _times_from(tg)
    g = lc.build_grid([times])
    r = g.d_max - g.d_min
    delta = dfac * r if r > 0 else 0.0
    got = lc.lear_correlation(lc.LearParams(1.0, rho, delta), g, 0)
    want = naive_lear_matrix(1.0, rho, delta, times, g.d_min, g.d_max)
    # one ulp of slack: vectorized and looped exponent arithmetic may round
    # differently in the last bit
    np.testing.assert_allclose(got, want, rtol=0, atol=5e-16)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 10),
    # subnormal tau makes a relative comparison meaningless (ulp ~ value)
    st.floats(-0.9, 0.9, allow_subnormal=False),
    st.floats(-0.95, 0.95, allow_subnormal=False),
    st.floats(0.1, 4.0),
)
def test_arma11_matches_naive_everywhere(p, tau, rho_a, sigma2):
    got = lc.arma11_covariance(lc.Arma11Params(sigma2, tau, rho_a), p)
    want = naive_arma11_matrix(sigma2, tau, rho_a, p)
    # atol floor for entries whose rho_a power underflowed to subnormal,
    # where gradual underflow breaks any relative bound
    np.testing.assert_allclose(got, want, rtol=5e-16, atol=1e-307)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.99), st.floats(0.0, 2.0), st.integers(2, 12))
def test_moderate_delta_always_factorable(rho, dfac, p):
    g = lc.build_grid([np.arange(1.0, p + 1.0)])
    r = g.d_max - g.d_min
    cov = lc.lear_covariance(lc.LearParams(1.0, rho, dfac * r), g, 0)
    L = lc.cholesky_lower(cov)
    np.testing.assert_allclose(L @ L.T, cov, atol=1e-12)
