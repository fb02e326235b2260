import json
import math
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

import learcov as lc
from learcov import _jsonio, estimation
from learcov.estimation import _Prepared
from conftest import (
    fsum_gram,
    per_point_profile,
    per_point_scan,
    per_row_forward_solve,
    per_subject_compare,
    per_subject_normalize_grid,
    per_subject_prepared_groups,
    simulated_dataset,
    whitened_profile_parts,
)


def subject(times, y, X=None):
    times = np.asarray(times, dtype=float)
    if X is None:
        X = np.ones((times.size, 1))
    return lc.SubjectData(times, np.asarray(y, dtype=float), X)


def singleton_dataset(values):
    return lc.RepeatedMeasuresData(
        tuple(subject([float(i)], [v]) for i, v in enumerate(values))
    )


# --------------------------------------------------------------------------
# data containers


def test_subject_data_validates_shapes():
    with pytest.raises(lc.InvalidSize):
        subject([1, 2, 3], [1.0, 2.0])
    with pytest.raises(lc.InvalidSize):
        lc.SubjectData(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.ones((3, 1)))
    with pytest.raises(lc.InvalidGrid):
        subject([2, 1], [1.0, 2.0])
    with pytest.raises(lc.InvalidSize):
        subject([1, 2], [1.0, np.nan])


@pytest.mark.parametrize("times, y, X, error, message", [
    ("ab", [1.0, 2.0], None, lc.InvalidGrid, "times must be numbers"),
    ([], [], None, lc.InvalidGrid, "times must be a nonempty 1-d sequence"),
    ([[1.0, 2.0]], [1.0, 2.0], None, lc.InvalidGrid,
     "times must be a nonempty 1-d sequence"),
    ([1.0, np.inf], [1.0, 2.0], None, lc.InvalidGrid, "times must be finite"),
    ([1.0, np.nan], [1.0, 2.0], None, lc.InvalidGrid, "times must be finite"),
    ([1.0, 2.0, 2.0], [1.0, 2.0, 3.0], None, lc.InvalidGrid,
     "times must be strictly increasing"),
    ([1.0, 3.0, 2.0], [1.0, 2.0, 3.0], None, lc.InvalidGrid,
     "times must be strictly increasing"),
    ([1.0, 2.0], [1.0, 2.0, 3.0], None, lc.InvalidSize,
     "y has shape (3,), expected (2,)"),
    ([1.0, 2.0], [1.0, 2.0], np.ones(2), lc.InvalidSize,
     "X has shape (2,), expected (2, q)"),
    ([1.0, 2.0], [1.0, -np.inf], None, lc.InvalidSize, "y and X must be finite"),
    ([1.0, 2.0], [1.0, 2.0], [[1.0], [np.nan]], lc.InvalidSize,
     "y and X must be finite"),
])
def test_subject_data_names_what_is_wrong(times, y, X, error, message):
    if X is None:
        X = np.ones((len(y), 1))
    with pytest.raises(error) as info:
        lc.SubjectData(times, y, X)
    assert str(info.value) == message


def test_subject_data_freezes_copies_not_the_callers_arrays():
    t, y, X = np.array([1.0, 2.0]), np.array([0.1, 0.2]), np.ones((2, 1))
    s = lc.SubjectData(t, y, X)
    for stored in (s.times, s.y, s.X):
        assert not stored.flags.writeable
    t[0], y[0], X[0, 0] = 0.5, 9.0, 9.0
    assert (s.times[0], s.y[0], s.X[0, 0]) == (1.0, 0.1, 1.0)


def test_dataset_requires_consistent_design_width():
    s1 = subject([1, 2], [0.1, 0.2])
    s2 = subject([1, 2], [0.3, 0.4], X=np.ones((2, 2)))
    with pytest.raises(lc.InvalidSize):
        lc.RepeatedMeasuresData((s1, s2))


def test_dataset_requires_a_design_column():
    with pytest.raises(lc.InvalidSize, match="at least one column"):
        lc.RepeatedMeasuresData([subject([1, 2], [0.1, 0.2], X=np.ones((2, 0)))])


def test_dataset_accepts_a_rank_deficient_design_that_estimation_refuses():
    X = np.column_stack([np.ones(3), 2.0 * np.ones(3)])
    s1 = subject([1, 2, 3], [0.1, 0.2, 0.3], X=X)
    s2 = subject([1, 2, 3], [0.4, 0.5, 0.6], X=X)
    data = lc.RepeatedMeasuresData((s1, s2))
    assert data.q == 2
    with pytest.raises(lc.RankDeficient):
        lc.profile_estimates(data, (0.5, 1.0))
    with pytest.raises(lc.RankDeficient):
        lc.fit(data)


RANK_OF_THE_DESIGN = "stacked design matrix has rank 1, less than its number"
SINGULAR_NORMAL_EQUATIONS = "normal equations are singular; the design is rank"


def collinear_dataset(column, n_subjects, p, seed=0):
    """Subjects at times 1..p with the design [1, column(t)]."""
    rng = np.random.default_rng(seed)
    t = np.arange(1.0, p + 1.0)
    X = np.column_stack([np.ones(p), column(t)])
    return lc.RepeatedMeasuresData(
        subject(t, rng.standard_normal(p), X) for _ in range(n_subjects)
    )


def test_the_svd_refuses_an_exactly_collinear_design_the_cholesky_factors():
    # The second column is 0.1 times the first, but the exactly summed
    # normal equations still have a Cholesky factor: without the SVD,
    # profile_estimates would return an arbitrary beta.
    data = collinear_dataset(lambda t: np.full(t.size, 0.1), 50, 5)
    estimation._normal_factor(estimation._exact_gram(data.X.T), "factors")
    with pytest.raises(lc.RankDeficient, match=RANK_OF_THE_DESIGN):
        lc.profile_estimates(data, (0.5, 4.0))
    with pytest.raises(lc.RankDeficient, match=RANK_OF_THE_DESIGN):
        lc.fit(data)


def test_the_cholesky_refuses_a_nearly_collinear_design_the_svd_passes():
    data = collinear_dataset(lambda t: 1.0 + 1e-10 * t, 5, 6)
    assert np.linalg.matrix_rank(data.X) == 2
    with pytest.raises(lc.RankDeficient, match=SINGULAR_NORMAL_EQUATIONS):
        lc.profile_estimates(data, (0.5, 1.0))
    with pytest.raises(lc.RankDeficient, match=SINGULAR_NORMAL_EQUATIONS):
        lc.fit(data)


def test_dataset_grid_pools_across_subjects():
    data = lc.RepeatedMeasuresData(
        (subject([1, 2, 3], [0.0, 0.0, 0.0]), subject([1, 5], [0.0, 0.0]))
    )
    assert (data.grid.d_min, data.grid.d_max) == (1.0, 4.0)
    assert data.n_obs == 5
    assert data.q == 1


def test_dataset_needs_a_subject():
    with pytest.raises(lc.InvalidSize):
        lc.RepeatedMeasuresData(())


def test_dataset_grid_shares_the_subjects_validated_times():
    data = lc.RepeatedMeasuresData(
        (subject([1, 2, 4], [0.1, 0.2, 0.3]), subject([3.0], [0.4]),
         subject([1, 2], [0.5, 0.6]))
    )
    for i, s in enumerate(data.subjects):
        assert np.shares_memory(data.grid.subject_times[i], s.times)


def test_all_singleton_dataset_has_no_grid():
    data = singleton_dataset([1.0, 2.0, 3.0])
    with pytest.raises(lc.DegenerateGrid):
        data.grid


# --------------------------------------------------------------------------
# profiled likelihood values


def test_iid_singletons_match_closed_form():
    values = [1.0, 2.0, 4.0, 0.5]
    est = lc.profile_estimates(singleton_dataset(values), (0.5, 0.0))
    y = np.array(values)
    s2 = float(np.mean((y - y.mean()) ** 2))
    want = -(len(values) / 2) * (math.log(2 * math.pi * s2) + 1.0)
    assert est.loglik == pytest.approx(want, abs=1e-12)
    assert est.beta_hat[0] == pytest.approx(y.mean(), abs=1e-14)
    assert est.sigma2_hat == pytest.approx(s2, abs=1e-14)


def test_ml_value_matches_direct_density_evaluation():
    data = simulated_dataset(6, [1.0, 2.0, 3.5, 5.0], seed=9, delta=1.5)
    theta = (0.6, 1.3)
    est = lc.profile_estimates(data, theta)
    g = data.grid
    total = 0.0
    for i, s in enumerate(data.subjects):
        cov = est.sigma2_hat * lc.lear_correlation(
            lc.LearParams(1.0, *theta), g, i
        )
        total += multivariate_normal.logpdf(s.y, mean=s.X @ est.beta_hat, cov=cov)
    assert est.loglik == pytest.approx(total, abs=1e-9)


def test_reml_sigma2_is_ml_times_m_over_m_minus_q():
    data = simulated_dataset(40, [1, 2, 3, 4, 5], seed=11)
    ml = lc.profile_estimates(data, (0.5, 3.0), criterion="ml")
    reml = lc.profile_estimates(data, (0.5, 3.0), criterion="reml")
    M, q = data.n_obs, data.q
    assert reml.sigma2_hat / ml.sigma2_hat == pytest.approx(M / (M - q), rel=1e-15)
    np.testing.assert_allclose(reml.beta_hat, ml.beta_hat, rtol=0, atol=0)


def test_reml_needs_more_observations_than_coefficients():
    s1 = subject([1.0], [0.5], X=np.array([[1.0, 0.0]]))
    s2 = subject([2.0], [0.7], X=np.array([[0.0, 1.0]]))
    data = lc.RepeatedMeasuresData((s1, s2))
    with pytest.raises(lc.InvalidSize):
        lc.profile_loglik(data, (0.0, 0.0), criterion="reml")


def test_zero_residuals_are_an_error_not_an_estimate():
    data = lc.RepeatedMeasuresData((subject([1.0], [3.0]),))
    with pytest.raises(lc.SingularFit):
        lc.profile_loglik(data, (0.0, 0.0))


def test_non_positive_definite_theta_raises():
    data = simulated_dataset(4, np.arange(1.0, 9.0), seed=3)
    r = data.grid.d_max - data.grid.d_min
    with pytest.raises(lc.NotPositiveDefinite):
        lc.profile_loglik(data, (0.9, 5.0 * r))


# --------------------------------------------------------------------------
# per-pattern statistics against the whitened per-subject formula

UNIT_PATTERNS = (((1, 2, 3, 4, 5, 6), 40), ((2, 3, 4, 5), 17), ((1, 2, 3), 5))
IRREGULAR_PATTERNS = (
    ((0.0, 0.7, 1.9, 4.0), 40), ((0.0, 1.1, 4.0), 17),
    ((0.5, 2.0, 2.6, 3.1, 4.0), 5),
)
# Per-subject jittered times, 1 to 6 visits: most patterns hold one subject,
# every fourth holds two, and one shared pattern holds five.
_rng = np.random.default_rng(3)
PER_SUBJECT_PATTERNS = tuple(
    (tuple(np.arange(1.0, p + 1) + _rng.uniform(-0.3, 0.3, p)), 2 if i % 4 == 0 else 1)
    for i, p in enumerate(_rng.integers(1, 7, 40))
) + (((1.0, 2.0, 3.0, 4.0), 5),)


def pattern_dataset(patterns, q, seed=0):
    """Subjects grouped in time patterns of unequal size, polynomial design.

    Responses are X beta plus AR(1)-correlated noise; the subjects of the
    patterns are interleaved rather than grouped.
    """
    rng = np.random.default_rng(seed)
    beta = np.array([1.0, 0.5, -0.25, 0.125])[:q]
    members = []
    for times, count in patterns:
        t = np.asarray(times, dtype=float)
        X = np.vander(t, q, increasing=True)
        L = np.linalg.cholesky(0.6 ** np.abs(np.subtract.outer(t, t)))
        members.extend(
            (rng.random(), subject(t, X @ beta + L @ rng.standard_normal(t.size), X))
            for _ in range(count)
        )
    members.sort(key=lambda m: m[0])
    return lc.RepeatedMeasuresData(tuple(s for _, s in members))


def agreement_cases():
    for q in (1, 2, 3):
        single = pattern_dataset(UNIT_PATTERNS[:1], q)
        multi = pattern_dataset(UNIT_PATTERNS, q)
        irregular = pattern_dataset(IRREGULAR_PATTERNS, q)
        per_subject = pattern_dataset(PER_SUBJECT_PATTERNS, q)
        datasets = (("single", single), ("multi", multi), ("irregular", irregular),
                    ("per-subject", per_subject))
        for criterion in ("ml", "reml"):
            for label, data in datasets:
                r = data.grid.d_max - data.grid.d_min
                thetas = [(0.3, 0.5 * r), (0.6, 1.5 * r), (0.9, 0.2 * r)]
                yield pytest.param(data, "lear", criterion, thetas,
                                   id=f"lear-{criterion}-q{q}-{label}")
                if label in ("single", "multi"):
                    yield pytest.param(data, "arma11", criterion,
                                       [(0.3, 0.5), (0.6, 0.8), (-0.3, -0.5)],
                                       id=f"arma11-{criterion}-q{q}-{label}")


@pytest.mark.parametrize("data, parameterization, criterion, thetas", agreement_cases())
def test_pattern_statistics_match_the_whitened_formula(
    data, parameterization, criterion, thetas
):
    # The paths round differently (G^-1 contracted with exactly summed cross
    # products, against whitening each subject), so they agree to a few
    # units of double precision times the conditioning of G; the largest
    # relative difference over these cases is 4.2e-14.
    for theta in thetas:
        got = lc.profile_estimates(data, theta, criterion, parameterization)
        loglik, beta, sigma2 = whitened_profile_parts(
            data, theta, criterion, parameterization
        )
        assert got.loglik == pytest.approx(loglik, rel=1e-12, abs=0)
        np.testing.assert_allclose(got.beta_hat, beta, rtol=1e-12, atol=0)
        assert got.sigma2_hat == pytest.approx(sigma2, rel=1e-12, abs=0)


def failure_cases():
    unit = pattern_dataset(((tuple(range(1, 9)), 6), ((1, 2, 3), 3)), 1)
    r = unit.grid.d_max - unit.grid.d_min
    yield pytest.param(unit, (0.9, 5.0 * r), "lear", lc.NotPositiveDefinite,
                       id="lear-indefinite")
    yield pytest.param(unit, (0.95, -0.9), "arma11", lc.NotPositiveDefinite,
                       id="arma11-indefinite")
    zeros = pattern_dataset(UNIT_PATTERNS, 2)
    zeros = lc.RepeatedMeasuresData(
        tuple(subject(s.times, np.zeros(s.p), s.X) for s in zeros.subjects)
    )
    yield pytest.param(zeros, (0.5, 1.0), "lear", lc.SingularFit, id="zero-residuals")
    zero_column = lc.RepeatedMeasuresData(
        subject(s.times, s.y, np.column_stack([s.X, np.zeros(s.p)]))
        for s in pattern_dataset(UNIT_PATTERNS, 1).subjects
    )
    yield pytest.param(zero_column, (0.5, 1.0), "lear", lc.RankDeficient,
                       id="zero-design-column")


@pytest.mark.parametrize("data, theta, parameterization, error", failure_cases())
@pytest.mark.parametrize("criterion", ["ml", "reml"])
def test_pattern_statistics_fail_where_the_whitened_formula_fails(
    data, theta, parameterization, error, criterion
):
    with pytest.raises(error):
        whitened_profile_parts(data, theta, criterion, parameterization)
    with pytest.raises(error):
        lc.profile_estimates(data, theta, criterion, parameterization)


OVERFLOW = "cross products of y and X overflow float64; rescale the data"


def scaled_dataset(scale, seed=0):
    """Six subjects on four unit-spaced visits, responses scale * N(0, 1)."""
    rng = np.random.default_rng(seed)
    t = np.arange(1.0, 5.0)
    return lc.RepeatedMeasuresData(
        subject(t, scale * rng.standard_normal(4)) for _ in range(6)
    )


@pytest.mark.parametrize("scale", [1e160, 1.5e154])
def test_overflowing_cross_products_are_refused(scale):
    # At 1e160 products are infinite; at 1.5e154 a sum of finite products
    # overflows first. They used to escape from math.fsum as ValueError
    # (-inf + inf) and OverflowError (intermediate overflow).
    data = scaled_dataset(scale)
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.profile_estimates(data, (0.5, 1.0))
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.fit(data)


def test_overflowing_cross_products_of_a_pattern_of_one_subject_are_refused():
    # Each subject has its own pattern, so each pattern's sums have a
    # single term: they are summed directly, not by math.fsum, and come out
    # inf or NaN, which the first evaluation refuses.
    rng = np.random.default_rng(0)
    data = lc.RepeatedMeasuresData(
        subject([0.0, 1.0 + 0.1 * i, 2.5 + 0.2 * i], 1e160 * rng.standard_normal(3))
        for i in range(5)
    )
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.profile_estimates(data, (0.5, 1.0))
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.fit(data)


def test_overflowing_sums_over_patterns_are_refused():
    # Each pattern's term is finite; their sum over the patterns overflows.
    data = lc.RepeatedMeasuresData([
        subject([0.0, 1.0, 3.0], [0.1, -0.2, 0.3]),
        *(subject([float(k)], [sign * 1e154])
          for k, sign in zip(range(4), (1, -1, 1, -1))),
    ])
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.fit(data)


def test_overflowing_weighted_sums_are_refused():
    # Cross products near 1e306 sum to finite tensors, and identity weights
    # keep the pattern terms finite; the G^-1 of a strong correlation
    # multiplies them past the largest double.
    data = scaled_dataset(2e153)
    r = data.grid.d_max - data.grid.d_min
    assert math.isfinite(lc.profile_loglik(data, (0.0, r)))
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.profile_estimates(data, (0.95, 0.1 * r))
    with pytest.raises(lc.InvalidSize, match=OVERFLOW):
        lc.fit(data)


@pytest.mark.parametrize("data", [
    pattern_dataset(UNIT_PATTERNS, 1), pattern_dataset(IRREGULAR_PATTERNS, 2),
    pattern_dataset(PER_SUBJECT_PATTERNS, 3),
], ids=["unit-q1", "irregular-q2", "per-subject-q3"])
def test_prepared_tensors_match_the_per_subject_build(data):
    got = _Prepared(data).groups
    want = per_subject_prepared_groups(data)
    assert len(got) == len(want)
    for got_arrays, want_arrays in zip(got, want):
        for a, b in zip(got_arrays, want_arrays):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_subjects_are_views_of_the_columns():
    data = pattern_dataset(IRREGULAR_PATTERNS, 2)
    assert data.subjects is data.subjects
    for (a, b), s in zip(zip(data.offsets[:-1], data.offsets[1:]), data.subjects):
        for name in ("times", "y", "X"):
            column = getattr(data, name)
            assert np.shares_memory(getattr(s, name), column)
            assert getattr(s, name).tobytes() == column[a:b].tobytes()
    for column in (data.times, data.y, data.X, data.offsets):
        assert not column.flags.writeable


@pytest.mark.parametrize("m", [1, 2, 3, 1365, 4097, 16385])
def test_exact_gram_rounds_every_entry_once(m):
    # Columns mix magnitudes so that a plain floating-point sum of the
    # products differs from the exactly rounded one; m = 1365 and 4097 put
    # several rows in each chunk of products, with a short last chunk, and
    # m = 16385 makes every row longer than a chunk.
    from learcov.estimation import _exact_gram

    rng = np.random.default_rng(m)
    A = rng.standard_normal((4, m)) * 10.0 ** rng.integers(-8, 9, (4, m))
    B = rng.standard_normal((2, m))
    assert np.array_equal(_exact_gram(A), fsum_gram(A))
    assert np.array_equal(_exact_gram(A, B), fsum_gram(A, B))


# Values of rows that hold one value throughout: signed zeros, subnormals,
# products near the ends of the range, and values whose m-fold sums round.
CONSTANTS = [1.0, 3.0, 1.0 / 3.0, -0.1, 0.0, -0.0, 5e-324, 3e-320, 1e-160,
             1.3e154, -2.0 ** 511, 2.0 ** 1000, 2.0 ** -1000]


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from(CONSTANTS), st.none(), st.just("ends")),
                    min_size=1, max_size=8),
    m=st.one_of(st.integers(3, 40), st.just(estimation._SUM_CHUNK + 3)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_exact_gram_sums_constant_rows_in_closed_form(values, m, seed):
    # Each row holds one value of CONSTANTS, varies (None), or varies only
    # between equal ends ("ends"); the closed form m * (v * w) for two
    # constant rows must give math.fsum's bits, and refuse the same
    # overflows.
    from learcov.estimation import _exact_gram

    rng = np.random.default_rng(seed)

    def row(v):
        if v is None:
            return rng.standard_normal(m) * 10.0 ** rng.integers(-5, 6, m)
        if v == "ends":
            return np.where(np.arange(m) == m // 2, 3.0, 2.0)
        return np.full(m, v)

    A = np.array([row(v) for v in values])
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            want = fsum_gram(A)
        except OverflowError:
            want = None
    if want is None or not np.isfinite(want).all():
        with pytest.raises(lc.InvalidSize, match="overflow"):
            _exact_gram(A)
        return
    assert _exact_gram(A).tobytes() == want.tobytes()
    assert _exact_gram(A.T.copy().T).tobytes() == want.tobytes()


def row_set(kind: str, seed: int, rows: int, m: int) -> np.ndarray:
    """A (rows, m) array of products of one adversarial kind."""
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        # Magnitudes from 2**-70 to 2**70, so float sums lose low bits.
        return rng.standard_normal((rows, m)) * 2.0 ** rng.integers(-70, 71, (rows, m))
    if kind == "ties":
        # x + ulp(x) / 2 lies halfway between two doubles; pairs +-z that
        # cancel exactly hide the tie among other terms.
        x = rng.integers(2 ** 52, 2 ** 53, (rows, 1)) * 2.0 ** rng.integers(-60, 60, (rows, 1))
        half = np.spacing(x) / 2 * rng.choice([-1.0, 1.0], (rows, 1))
        z = rng.standard_normal((rows, m)) * x
        out = np.concatenate([x, half, z, -z], axis=1)
        return rng.permuted(out, axis=1)[:, :m] if m >= 2 else x
    if kind == "cancel":
        z = rng.standard_normal((rows, (m + 1) // 2)) * 2.0 ** rng.integers(-30, 30, (rows, 1))
        return rng.permuted(np.concatenate([z, -z], axis=1), axis=1)[:, :m]
    if kind == "zeros":
        return rng.choice([0.0, -0.0], (rows, m))
    if kind == "subnormal":
        tiny = rng.integers(-2 ** 40, 2 ** 40, (rows, m)) * 2.0 ** -1074
        return np.where(rng.random((rows, m)) < 0.5, tiny, rng.standard_normal((rows, m)) * 2.0 ** -1000)
    if kind == "huge":
        # Near 2**1000: rows in and beyond the binned range, some with zeros.
        out = rng.standard_normal((rows, m)) * 2.0 ** rng.integers(940, 1001, (rows, m))
        out[rng.random((rows, m)) < 0.2] = 0.0
        return out / 2.0 ** rng.integers(0, 60, (rows, 1))
    if kind == "edge":
        # Terms near the largest double: math.fsum overflows in between even
        # where the exact sum is representable, and the sum must do the same.
        top = rng.choice([-1.0, 1.0], (rows, m)) * rng.choice([0.5, 0.75, 1.0], (rows, m))
        return top * 2.0 ** 1023 / 2.0 ** rng.integers(0, 3, (rows, 1))
    if kind == "mixed-rows":
        # One chunk holding rows for both paths, and rows with zeros.
        out = row_set("mixed", seed, rows, m)
        out[::2] *= 2.0 ** 930
        out[1::3] = 0.0
        return out
    raise ValueError(kind)


KINDS = ("mixed", "ties", "cancel", "zeros", "subnormal", "huge", "edge", "mixed-rows")


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2 ** 32 - 1),
    rows=st.integers(1, 5),
    m=st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 300),
                st.just(estimation._SUM_CHUNK + 3)),
)
def test_exact_row_sums_equal_math_fsum(kind, seed, rows, m):
    products = row_set(kind, seed, rows, m)
    try:
        want = np.array([math.fsum(row) for row in products.tolist()])
    except OverflowError:
        with pytest.raises(lc.InvalidSize, match="overflow"):
            estimation._exact_row_sums(products)
        return
    got = estimation._exact_row_sums(products)
    assert got.tobytes() == want.tobytes()


def test_exact_row_sums_refuse_non_finite_products():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(lc.InvalidSize, match="rescale the data"):
            estimation._exact_row_sums(np.array([[1.0, bad, 2.0]]))


# --------------------------------------------------------------------------
# the stacked evaluation against the per-point one

GAP2_PATTERNS = (((0, 2, 4, 6, 8), 30), ((0, 2, 4), 9), ((2, 4, 6, 8), 4))
MIXED_LENGTH_PATTERNS = (
    ((1, 2, 3, 4, 5, 6), 30), ((1, 2, 4, 5), 10), ((2, 3), 5), ((3,), 4),
    ((1, 3, 4, 5, 6), 2),
)
SCAN_GRIDS = {
    "unit": UNIT_PATTERNS, "gap2": GAP2_PATTERNS,
    "mixed-length": MIXED_LENGTH_PATTERNS, "irregular": IRREGULAR_PATTERNS,
}


def scan_points(data, parameterization, allow_negative=False):
    """The 441 points of fit's default scan, first parameter outermost."""
    opts = lc.FitOptions(allow_negative=allow_negative)
    lo = -opts.rho_cap if allow_negative else 0.0
    axis1 = np.linspace(lo, opts.rho_cap, opts.grid_points)
    if parameterization == "lear":
        r = data.grid.d_max - data.grid.d_min
        axis2 = np.linspace(0.0, opts.delta_cap_factor * r, opts.grid_points)
    else:
        axis2 = np.linspace(lo, opts.rho_cap, opts.grid_points)
    return [(a, b) for a in axis1.tolist() for b in axis2.tolist()]


def outcomes(results):
    """Log-likelihood bits, or the failure's type and message, per point.

    A point of _profile_points, (loglik, sigma2, La, u), is read by its
    log-likelihood."""
    return [(type(r), str(r)) if isinstance(r, Exception)
            else (r[0] if isinstance(r, tuple) else r).hex() for r in results]


def scan_cases():
    for grid, patterns in SCAN_GRIDS.items():
        for q in (1, 2, 3, 4):
            data = pattern_dataset(patterns, q, seed=q)
            for criterion in ("ml", "reml"):
                yield pytest.param(data, "lear", criterion, False,
                                   id=f"lear-{criterion}-{grid}-q{q}")
                if grid != "irregular":
                    yield pytest.param(data, "arma11", criterion, False,
                                       id=f"arma11-{criterion}-{grid}-q{q}")
            if grid in ("unit", "mixed-length"):
                yield pytest.param(data, "arma11", "ml", True,
                                   id=f"arma11-negative-{grid}-q{q}")


@pytest.mark.parametrize("data, parameterization, criterion, allow_negative",
                         scan_cases())
def test_stacked_scan_matches_the_per_point_path(
    data, parameterization, criterion, allow_negative
):
    prep = _Prepared(data)
    points = scan_points(data, parameterization, allow_negative)
    want = outcomes(per_point_scan(prep, parameterization, criterion, points))
    a, b = zip(*points)
    got = outcomes(estimation._profile_points(prep, parameterization, criterion, a, b))
    assert got == want
    # One point at a time, as the refinement evaluates, gives the same.
    for k in range(0, len(points), 37):
        (one,) = estimation._profile_points(prep, parameterization, criterion,
                                            [a[k]], [b[k]])
        if isinstance(one, Exception):
            assert outcomes([one]) == [want[k]]
            continue
        loglik, beta, sigma2 = per_point_profile(
            prep, parameterization, criterion, a[k], b[k])
        assert one[0].hex() == want[k] == loglik.hex()
        assert estimation._beta(prep, one[2], one[3]).tobytes() == beta.tobytes()
        assert one[1] == sigma2


def test_stacked_scan_meets_failures():
    # The comparison above is only as good as its failure mask: the default
    # scan fails at many points on the unit grid, and on others.
    data = pattern_dataset(UNIT_PATTERNS, 1)
    prep = _Prepared(data)
    for parameterization in ("lear", "arma11"):
        points = scan_points(data, parameterization, parameterization == "arma11")
        failures = [r for r in per_point_scan(prep, parameterization, "ml", points)
                    if isinstance(r, Exception)]
        assert 20 <= len(failures) < len(points)


def test_stacked_scan_raises_rank_deficiency_where_the_per_point_path_does():
    # Two nearly collinear columns: identity weights factor, and so do the
    # first points of the scan, until one G^-1 makes the normal equations
    # singular by rounding.
    rng = np.random.default_rng(2)
    t = np.arange(1.0, 7.0)
    X = np.column_stack([np.ones(6), 1.0 + 1.7782794100389228e-08 * t])
    data = lc.RepeatedMeasuresData(
        lc.SubjectData(t, rng.standard_normal(6), X) for _ in range(5)
    )
    prep = _Prepared(data)
    points = scan_points(data, "lear")
    want = []
    with pytest.raises(lc.RankDeficient):
        for a, b in points:
            want.append(per_point_scan(prep, "lear", "ml", [(a, b)])[0])
    k = len(want)
    assert 0 < k < len(points)
    a, b = zip(*points)
    got = estimation._profile_points(prep, "lear", "ml", a[:k], b[:k])
    assert outcomes(got) == outcomes(want)
    with pytest.raises(lc.RankDeficient):
        list(estimation._profile_points(prep, "lear", "ml", a[:k + 1], b[:k + 1]))
    with pytest.raises(lc.RankDeficient):
        lc.fit(data)


def test_stacked_scan_memory_stays_bounded():
    # 60 patterns of 8 visits: one point's correlation stack holds 3840
    # entries, so the 441-point scan stacked in one piece peaks at 58 MB
    # (measured with _STACK_CHUNK raised past it); in chunks of at most
    # _STACK_CHUNK entries it peaks at 4.5 MB.
    rng = np.random.default_rng(9)
    patterns = [(tuple(np.arange(1.0, 9.0) + rng.uniform(-0.3, 0.3, 8)), 1)
                for _ in range(60)]
    data = pattern_dataset(patterns, 1)
    prep = _Prepared(data)
    a, b = zip(*scan_points(data, "lear"))
    assert 441 * 3840 > 10 * estimation._STACK_CHUNK
    tracemalloc.start()
    try:
        got = list(estimation._profile_points(prep, "lear", "ml", a, b))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 441
    assert peak < 8 * 8 * estimation._STACK_CHUNK  # 8 MB


def test_the_scan_is_evaluated_as_it_is_read(monkeypatch):
    # A chunk is factored when its first point is read, so fit, which keeps
    # only the best point, holds one chunk's results at a time. Chunks of
    # 100 points give the same points and the same fit.
    data = pattern_dataset(UNIT_PATTERNS, 1)
    prep = _Prepared(data)
    a, b = zip(*scan_points(data, "lear"))
    want = outcomes(estimation._profile_points(prep, "lear", "ml", a, b))
    fitted = lc.fit(data).to_dict()
    chunks = []
    factor_stage = estimation._factor_stage

    def counted(prep, parameterization, a, b):
        chunks.append(len(a))
        return factor_stage(prep, parameterization, a, b)

    per_point = sum(times.size * times.shape[1] for times, _, _ in prep.groups)
    monkeypatch.setattr(estimation, "_STACK_CHUNK", 100 * per_point)
    monkeypatch.setattr(estimation, "_factor_stage", counted)
    points = estimation._profile_points(prep, "lear", "ml", a, b)
    assert chunks == []
    got = [next(points) for _ in range(100)]
    assert chunks == [100]
    got.append(next(points))
    assert chunks == [100, 100]
    got.extend(points)
    assert chunks == [100, 100, 100, 100, 41]
    assert outcomes(got) == want
    assert lc.fit(data).to_dict() == fitted


@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-7])
def test_near_perfect_fit_keeps_its_residual_variance(eps):
    # y = 1000 + 5t + eps * noise. Responses near 1000 carry rounding of
    # about 1e-13, so a residual of size eps is only known to about
    # 1e-13 / eps relative, on either path. Building the cross products from
    # the raw responses instead loses the residual to cancellation: about
    # 1e-6 relative error at eps = 1e-2, SingularFit or garbage below.
    base = simulated_dataset(300, np.arange(1.0, 9.0), seed=61, beta=(0.0, 0.0),
                             design="intercept-time")
    data = lc.RepeatedMeasuresData(tuple(
        lc.SubjectData(s.times, 1000.0 + 5.0 * s.times + eps * s.y, s.X)
        for s in base.subjects
    ))
    r = data.grid.d_max - data.grid.d_min
    for theta in ((0.6, r), (0.3, 0.5 * r), (0.9, 0.2 * r)):
        _, _, sigma2 = whitened_profile_parts(data, theta)
        got = lc.profile_estimates(data, theta).sigma2_hat
        assert got == pytest.approx(sigma2, rel=1e-13 / eps, abs=0)


def test_loglik_is_invariant_to_subject_order():
    spec = lc.SimSpec(
        n_subjects=30,
        times=(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.0])),
        beta=np.array([1.0]),
        covariance=lc.LearParams(1.0, 0.5, 1.5),
        seed=77,
    )
    rng = np.random.default_rng(5)
    for data in (lc.simulate(spec), pattern_dataset(IRREGULAR_PATTERNS, 3),
                 pattern_dataset(PER_SUBJECT_PATTERNS, 2)):
        want = lc.profile_estimates(data, (0.4, 2.0))
        for _ in range(3):
            perm = rng.permutation(data.n_subjects)
            shuffled = lc.RepeatedMeasuresData(tuple(data.subjects[i] for i in perm))
            got = lc.profile_estimates(shuffled, (0.4, 2.0))
            assert got.loglik == want.loglik
            assert got.sigma2_hat == want.sigma2_hat
            np.testing.assert_array_equal(got.beta_hat, want.beta_hat)


def test_pointwise_equivalence_of_parameterizations():
    data = simulated_dataset(12, [1, 2, 3, 4, 5], seed=21)
    r = data.grid.d_max - data.grid.d_min
    theta = (0.55, 1.7)
    tau, rho_a = lc.map_lear_to_arma11(*theta, r)
    ll_lear = lc.profile_loglik(data, theta, parameterization="lear")
    ll_arma = lc.profile_loglik(data, (tau, rho_a), parameterization="arma11")
    assert ll_lear == pytest.approx(ll_arma, abs=1e-10)


def test_profile_loglik_validates_inputs():
    data = simulated_dataset(4, [1, 2, 3], seed=2)
    with pytest.raises(lc.InvalidParams):
        lc.profile_loglik(data, (1.2, 0.0))
    with pytest.raises(lc.InvalidParams):
        lc.profile_loglik(data, (0.5, 0.0), criterion="mle")
    with pytest.raises(lc.InvalidParams):
        lc.profile_loglik(data, (0.5, 0.0), parameterization="ar1")


@pytest.mark.parametrize("corr_params", [("a", 1), (0.5,), (0.5, 1.0, 2.0), 0.5])
def test_malformed_corr_params_are_invalid_params(corr_params):
    data = simulated_dataset(4, [1, 2, 3], seed=2)
    for evaluate in (lc.profile_loglik, lc.profile_estimates):
        with pytest.raises(lc.InvalidParams, match="corr_params"):
            evaluate(data, corr_params)


def test_loglik_surface_is_finite_on_interior_smoke_grid():
    data = simulated_dataset(10, [1, 2, 3, 4], seed=31)
    r = data.grid.d_max - data.grid.d_min
    for rho in np.linspace(0.05, 0.9, 5):
        for delta in np.linspace(0.1, 2.0, 5) * r:
            assert math.isfinite(lc.profile_loglik(data, (rho, delta)))


# --------------------------------------------------------------------------
# the model's own symmetries (metamorphic relations of profile_estimates)
#
# Tolerances are relative to the log-likelihood's size. Over 3000 cases of
# metamorphic_case the largest relative differences measured were 1.1e-15
# (rescaled y; 7.3e-15 in sigma2, 2.4e-14 in beta), 8.2e-15 (X A), 1.6e-15
# (doubled subjects) and 1.6e-12 (shifted times, whose distances round
# differently).


def metamorphic_case(seed: int, kind: str, q: int):
    """(data, theta): 6 to 24 subjects of 1 to 5 visits and a point inside
    the positive-definite region (delta at most twice the range).

    "unit" draws each subject's times from the grid 1..6, so patterns
    repeat; "irregular" gives most subjects times of their own and every
    third the shared times 0, 1.3, 2.9, 7.4. The columns of X are the
    intercept, the time and a random covariate, the first q of them.
    """
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(int(rng.integers(6, 25))):
        p = int(rng.integers(2, 6))
        if kind == "unit":
            t = np.sort(rng.choice(np.arange(1.0, 7.0), p, replace=False))
        elif i % 3:
            t = np.sort(rng.uniform(0.0, 10.0, p))
        else:
            t = np.array([0.0, 1.3, 2.9, 7.4])
        X = np.column_stack([np.ones(t.size), t, rng.standard_normal(t.size)])[:, :q]
        y = X @ np.arange(1.0, q + 1) + rng.standard_normal(t.size)
        subjects.append(lc.SubjectData(t, y, X))
    data = lc.RepeatedMeasuresData(tuple(subjects))
    r = data.grid.d_max - data.grid.d_min
    return data, (float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.0, 2.0 * r)))


def rebuilt(data, times=None, y=None, X=None):
    """``data`` with each subject's times, y or X mapped by a function."""
    return lc.RepeatedMeasuresData(tuple(
        lc.SubjectData(times(s.times) if times else s.times,
                       y(s) if y else s.y, X(s.X) if X else s.X)
        for s in data.subjects
    ))


METAMORPHIC = dict(
    seed=st.integers(0, 2 ** 32 - 1),
    kind=st.sampled_from(["unit", "irregular"]),
    q=st.integers(1, 3),
)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(0.1, 10.0), criterion=st.sampled_from(["ml", "reml"]), **METAMORPHIC)
def test_rescaled_responses_shift_the_loglik_by_a_jacobian(seed, kind, q, c, criterion):
    # y -> c y + X b: beta maps to c beta + b, sigma2 to c^2 sigma2, and the
    # log-likelihood drops by M' ln c, with M' the criterion's M or M - q.
    data, theta = metamorphic_case(seed, kind, q)
    b = np.random.default_rng(seed + 1).standard_normal(q)
    base = lc.profile_estimates(data, theta, criterion)
    moved = lc.profile_estimates(rebuilt(data, y=lambda s: c * s.y + s.X @ b),
                                 theta, criterion)
    shift = (data.n_obs - (q if criterion == "reml" else 0)) * math.log(c)
    assert moved.loglik == pytest.approx(base.loglik - shift, rel=0,
                                         abs=1e-13 * (abs(base.loglik) + abs(shift)))
    assert moved.sigma2_hat == pytest.approx(c * c * base.sigma2_hat, rel=1e-12)
    np.testing.assert_allclose(moved.beta_hat, c * base.beta_hat + b, rtol=0,
                               atol=1e-10 * (1.0 + np.abs(c * base.beta_hat + b).max()))


@settings(max_examples=100, deadline=None)
@given(**METAMORPHIC)
def test_a_change_of_design_basis_leaves_the_loglik(seed, kind, q):
    # X -> X A for a well-conditioned A: the ML log-likelihood is unchanged
    # and the REML one drops by ln |det A|.
    data, theta = metamorphic_case(seed, kind, q)
    rng = np.random.default_rng(seed + 2)
    Q, _ = np.linalg.qr(rng.standard_normal((q, q)))
    A = Q * rng.uniform(0.5, 2.0, q)
    mixed = rebuilt(data, X=lambda X: X @ A)
    for criterion, drop in (("ml", 0.0), ("reml", math.log(abs(np.linalg.det(A))))):
        base = lc.profile_estimates(data, theta, criterion).loglik
        got = lc.profile_estimates(mixed, theta, criterion).loglik
        assert got == pytest.approx(base - drop, rel=0, abs=1e-13 * abs(base))


@settings(max_examples=100, deadline=None)
@given(**METAMORPHIC)
def test_each_subject_twice_doubles_the_ml_loglik(seed, kind, q):
    data, theta = metamorphic_case(seed, kind, q)
    twice = lc.RepeatedMeasuresData(data.subjects + data.subjects)
    base = lc.profile_estimates(data, theta)
    got = lc.profile_estimates(twice, theta)
    assert got.loglik == pytest.approx(2.0 * base.loglik, rel=1e-13)
    assert got.sigma2_hat == pytest.approx(base.sigma2_hat, rel=1e-13)


# Moving or scaling the times changes the results only by rounding, which
# the correlation matrices amplify by up to their condition number kappa.
# The two tests below allow a relative error of CONDITION_FACTOR * kappa *
# eps, kappa the largest 2-norm condition number of the case's matrices at
# theta. Over 6501 draws (5001 at random and 1500 at the bounds of k and of
# the shift, both criteria each) the largest error / (kappa eps) was 2.40,
# for sigma2 of scaled times (seed 328, irregular, k = 0.1, kappa 261); for
# the log-likelihood it was 1.48 with scaled and 1.63 with shifted times.
CONDITION_FACTOR = 8.0


def conditioned_rel_tol(data, rho_l, delta) -> float:
    """CONDITION_FACTOR * kappa * eps of the case ``data`` at (rho_l, delta)."""
    theta = lc.LearParams(1.0, rho_l, delta)
    kappa = max(np.linalg.cond(lc.lear_correlation(theta, data.grid, i), 2)
                for i in range(data.n_subjects))
    return CONDITION_FACTOR * kappa * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(shift=st.floats(-16.0, 16.0), seed=METAMORPHIC["seed"], kind=METAMORPHIC["kind"])
def test_shifted_times_leave_the_intercept_loglik(seed, kind, shift):
    # Distances, and so every G, do not depend on where time starts; only
    # their rounding does.
    data, theta = metamorphic_case(seed, kind, 1)
    moved = rebuilt(data, times=lambda t: t + shift)
    rel = conditioned_rel_tol(data, *theta)
    for criterion in ("ml", "reml"):
        base = lc.profile_estimates(data, theta, criterion).loglik
        got = lc.profile_estimates(moved, theta, criterion).loglik
        assert got == pytest.approx(base, rel=rel)


@settings(max_examples=100, deadline=None)
@given(k=st.floats(0.05, 20.0), seed=METAMORPHIC["seed"], kind=METAMORPHIC["kind"])
# Two visits 1.9e-5 apart give kappa 9.5e4; sigma2 moves by 1.81e-11.
@example(seed=185514, kind="irregular", k=3.0)
def test_scaled_times_at_mapped_parameters_leave_the_intercept_loglik(seed, kind, k):
    # t -> k t multiplies every distance, d_min and R by k, which turns the
    # exponent d_min + delta (d - d_min) / R into k d_min + delta (d - d_min)
    # / R; at (rho_l^(1/k), k delta) each correlation is the original one.
    # Only rounding moves the results, that of k t and of rho_l^(1/k), most
    # on the irregular grids whose close visits make G ill-conditioned.
    data, (rho_l, delta) = metamorphic_case(seed, kind, 1)
    scaled = rebuilt(data, times=lambda t: k * t)
    rel = conditioned_rel_tol(data, rho_l, delta)
    for criterion in ("ml", "reml"):
        base = lc.profile_estimates(data, (rho_l, delta), criterion)
        got = lc.profile_estimates(scaled, (rho_l ** (1.0 / k), k * delta), criterion)
        assert got.loglik == pytest.approx(base.loglik, rel=rel)
        assert got.sigma2_hat == pytest.approx(base.sigma2_hat, rel=rel)


# --------------------------------------------------------------------------
# fitting


def test_fit_recovers_reasonable_values():
    data = simulated_dataset(200, [1, 2, 3, 4, 5], seed=101)
    res = lc.fit(data)
    assert res.parameterization == "lear"
    assert isinstance(res.estimates, lc.LearParams)
    assert abs(res.estimates.rho_l - 0.5) < 0.15
    assert abs(res.estimates.sigma2 - 1.0) < 0.25
    assert math.isfinite(res.max_loglik)
    assert res.max_loglik >= res.scan_max_loglik


def test_fit_never_returns_below_grid_floor():
    for seed in (1, 2, 3):
        data = simulated_dataset(25, [1, 2, 3, 4], seed=seed, delta=0.5)
        res = lc.fit(data)
        assert res.max_loglik >= res.scan_max_loglik


def test_fit_arma11_on_unit_grid():
    data = simulated_dataset(150, [1, 2, 3, 4, 5], seed=55)
    res = lc.fit(data, parameterization="arma11")
    assert isinstance(res.estimates, lc.Arma11Params)
    assert abs(res.estimates.tau - 0.5) < 0.15
    lear_res = lc.fit(data)
    assert res.max_loglik == pytest.approx(lear_res.max_loglik, abs=1e-4)


def test_fit_compound_symmetry_truth_lands_at_lower_delta_boundary():
    data = simulated_dataset(150, [1, 2, 3, 4, 5], seed=71, delta=0.0)
    res = lc.fit(data)
    assert res.estimates.delta < 0.5
    assert res.boundary_flags <= {
        "rho_at_lower", "rho_at_upper_cap", "delta_at_lower", "delta_at_upper_cap",
    }


def arma11_dataset(n_subjects, times, seed, tau, rho_a, sigma2=1.0):
    return lc.simulate(lc.SimSpec(
        n_subjects=n_subjects,
        times=(np.asarray(times, dtype=float),),
        beta=np.array([1.0]),
        covariance=lc.Arma11Params(sigma2, tau, rho_a),
        seed=seed,
    ))


def test_negatively_correlated_data_put_rho_at_its_lower_edge():
    # tau < 0 has no LEAR counterpart: the LEAR fit drives rho_l to 0.
    data = arma11_dataset(100, [1, 2, 3, 4, 5], seed=3, tau=-0.3, rho_a=0.5)
    res = lc.fit(data)
    assert res.estimates.rho_l < 1e-12
    assert res.boundary_flags == {"rho_at_lower"}


def test_near_unit_correlation_puts_rho_at_its_cap():
    data = simulated_dataset(100, [1, 2, 3, 4, 5], seed=5, rho_l=0.999, delta=2.0)
    res = lc.fit(data)
    assert res.estimates.rho_l == pytest.approx(0.99, abs=1e-6)
    assert res.boundary_flags == {"rho_at_upper_cap"}


def test_the_scan_point_is_kept_when_the_refinement_ends_lower(monkeypatch):
    data = simulated_dataset(60, [1, 2, 3, 4], seed=7, rho_l=0.6, delta=1.0)

    def ends_low(x0, maxiter, xatol, fatol):
        # Near rho_l = 0, delta = 0, far below the scan, asking for no point.
        return np.array([-30.0, -30.0]), 7, True
        yield

    calls = []
    profile_points = estimation._profile_points

    def recorded(prep, param, criterion, a, b):
        calls.append(list(zip(a, b)))
        return profile_points(prep, param, criterion, a, b)

    monkeypatch.setattr(estimation, "_nelder_mead", ends_low)
    monkeypatch.setattr(estimation, "_profile_points", recorded)
    res = lc.fit(data)
    monkeypatch.undo()
    refined = (0.99 / (1.0 + math.exp(30.0)), math.exp(-30.0))
    # The scan, then the refined point, and nothing after it: the scan's own
    # result is kept.
    assert [len(points) for points in calls] == [441, 1]
    assert calls[1][0] == pytest.approx(refined, rel=1e-15)
    assert lc.profile_loglik(data, refined) < res.max_loglik
    assert res.max_loglik == res.scan_max_loglik
    assert res.estimates.rho_l in np.linspace(0.0, 0.99, 21)
    assert res.estimates.delta in np.linspace(0.0, 5.0 * 2.0, 21)
    at_scan = lc.profile_estimates(data, (res.estimates.rho_l, res.estimates.delta))
    assert at_scan.loglik == res.max_loglik
    assert at_scan.sigma2_hat == res.estimates.sigma2
    assert at_scan.beta_hat.tobytes() == res.beta_hat.tobytes()
    # The refinement's own report is passed on.
    assert (res.iterations, res.converged) == (7, True)


@pytest.mark.parametrize("parameterization", ["lear", "arma11"])
def test_fit_evaluates_the_refined_point_once(monkeypatch, parameterization):
    data = simulated_dataset(60, [1, 2, 3, 4], seed=7, rho_l=0.6, delta=1.0)
    after_refinement = []
    profile_points, nelder_mead = estimation._profile_points, estimation._nelder_mead

    def counted(prep, param, criterion, a, b):
        if after_refinement:
            after_refinement.append(tuple(zip(a, b)))
        return profile_points(prep, param, criterion, a, b)

    def refinement(*args, **kwargs):
        out = yield from nelder_mead(*args, **kwargs)
        after_refinement.append("done")
        return out

    monkeypatch.setattr(estimation, "_profile_points", counted)
    monkeypatch.setattr(estimation, "_nelder_mead", refinement)
    res = lc.fit(data, parameterization)
    # The refinement wins here, and its point is the one evaluated.
    assert res.max_loglik > res.scan_max_loglik
    assert after_refinement == ["done", (astuple(res.estimates)[1:],)]
    monkeypatch.undo()
    assert lc.fit(data, parameterization).to_dict() == res.to_dict()


def refinement_cases():
    for grid, patterns in SCAN_GRIDS.items():
        data = pattern_dataset(patterns, 2, seed=5)
        yield pytest.param(data, "lear", 1, id=f"lear-{grid}")
        if grid in ("unit", "gap2"):  # ARMA(1,1) needs equal gaps
            yield pytest.param(data, "arma11", 1, id=f"arma11-{grid}")
    # Negatively correlated data: the LEAR optimum lies on the rho_l = 0
    # edge, where the simplex shrinks again and again.
    data = arma11_dataset(80, np.arange(1.0, 7.0), seed=3, tau=-0.3, rho_a=0.5)
    yield pytest.param(data, "lear", 20, id="lear-edge")


@pytest.mark.parametrize("data, parameterization, min_shrinks", refinement_cases())
def test_refinement_batches_round_as_single_points(
    monkeypatch, data, parameterization, min_shrinks
):
    batches = []
    profile_points = estimation._profile_points

    def recorded(prep, param, criterion, a, b):
        results = list(profile_points(prep, param, criterion, a, b))
        batches.append((list(zip(a, b)), results))
        return results

    monkeypatch.setattr(estimation, "_profile_points", recorded)
    lc.fit(data, parameterization)
    monkeypatch.undo()
    prep = _Prepared(data)
    # After the scan: the initial simplex, single points, the shrinks (two
    # points each) and the refined point.
    sizes = [len(points) for points, _ in batches[1:]]
    assert sizes[0] == 3 and sizes[-1] == 1 and set(sizes[1:]) <= {1, 2}
    assert sizes.count(2) >= min_shrinks
    for points, results in batches[1:]:
        assert outcomes(results) == outcomes(
            per_point_scan(prep, parameterization, "ml", points))


def test_logit_box_maps_as_the_closures_it_replaced():
    margin = 1e-8
    for lo, hi in [(0.0, 0.99), (-0.99, 0.99), (0.0, 0.5), (-0.3, 0.7)]:
        # The two maps that fit used to define for each scaled-logit axis.
        def old_to(u):
            return lo + (hi - lo) * estimation._expit(u)

        def old_from(v):
            width = hi - lo
            v = min(max(v, lo + margin * width), hi - margin * width)
            return estimation._logit((v - lo) / width)

        to_box, from_box = estimation._logit_box(lo, hi, margin)
        for u in [-800.0, -40.0, -3.0, -1e-9, 0.0, 0.1, 2.5, 37.0, 800.0]:
            assert to_box(u).hex() == old_to(u).hex()
        width = hi - lo
        inside = [lo + f * width for f in (1e-6, 0.1, 0.3, 0.5, 0.65, 0.9, 0.999)]
        for v in inside + [lo - 1.0, lo, hi, hi + 1.0, lo + 0.5 * margin * width]:
            assert from_box(v).hex() == old_from(v).hex()
        # Round trip inside the box; the ends clamp to margin * width inside.
        for v in inside:
            assert to_box(from_box(v)) == pytest.approx(v, rel=1e-12, abs=1e-15)
        assert from_box(lo - 1.0) == from_box(lo) == from_box(lo + margin * width)
        assert from_box(hi + 1.0) == from_box(hi) == from_box(hi - margin * width)
        assert math.isfinite(from_box(lo)) and math.isfinite(from_box(hi))


def test_fit_rejects_zero_distance_range():
    data = lc.RepeatedMeasuresData(
        (subject([1, 2], [0.4, 0.6]), subject([1, 2], [0.2, 0.9]))
    )
    with pytest.raises(lc.DegenerateRange):
        lc.fit(data)


def test_fit_arma11_requires_eligible_grid():
    data = simulated_dataset(10, [1.0, 2.0, 4.0], seed=13)
    with pytest.raises(lc.NotSpecialCase):
        lc.fit(data, parameterization="arma11")


def test_fit_fails_when_every_point_is_singular():
    # all-zero responses give beta_hat = 0 and residuals exactly 0 at every
    # theta, so each grid point reports a zero variance estimate
    data = lc.RepeatedMeasuresData(
        (subject([1, 2, 3], [0.0, 0.0, 0.0]), subject([1, 2, 3], [0.0, 0.0, 0.0]))
    )
    with pytest.raises(lc.FitFailed):
        lc.fit(data)


def test_fit_options_are_validated():
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(grid_points=1)
    # The scan keeps grid_points ** 2 results, so the grid is bounded.
    assert lc.FitOptions(grid_points=201).grid_points == 201
    for too_many in (202, 10 ** 8):
        with pytest.raises(lc.InvalidParams, match=r"must be in \[2, 201\]"):
            lc.FitOptions(grid_points=too_many)
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(rho_cap=1.0)
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(delta_cap_factor=0.0)
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(tolerance=0.0)
    # Each field checks its type, by the type of its default.
    for field, value in [
        ("grid_points", 2.5), ("grid_points", True), ("grid_points", "21"),
        ("max_iterations", 2.5), ("max_iterations", np.bool_(True)),
        ("rho_cap", "0.5"), ("rho_cap", None), ("tolerance", True),
        ("delta_cap_factor", math.inf), ("boundary_tol", math.nan),
        ("allow_negative", 1), ("allow_negative", "yes"),
    ]:
        with pytest.raises(lc.InvalidParams, match=f"^{field} must be"):
            lc.FitOptions(**{field: value})
    with pytest.raises(lc.InvalidParams, match="^rho_cap must be a finite real"):
        lc.FitOptions(rho_cap=10 ** 400)
    # numpy scalars are accepted and kept as the field's own type.
    opts = lc.FitOptions(grid_points=np.int64(5), max_iterations=np.int32(50),
                         rho_cap=np.float64(0.9), delta_cap_factor=4,
                         allow_negative=np.bool_(True))
    assert opts == lc.FitOptions(grid_points=5, max_iterations=50, rho_cap=0.9,
                                 delta_cap_factor=4.0, allow_negative=True)
    assert [type(getattr(opts, f.name)) for f in fields(lc.FitOptions)] == [
        type(f.default) for f in fields(lc.FitOptions)
    ]


@pytest.mark.parametrize("factor", [1e308, math.inf])
def test_an_overflowing_delta_cap_is_invalid_params(monkeypatch, factor):
    data = simulated_dataset(20, [1, 2, 3, 4], seed=5)  # distance range 2
    with monkeypatch.context() as patch:
        # Refused before the workspace is built: the data are not at fault.
        patch.setattr(estimation, "_Prepared", None)
        with pytest.raises(lc.InvalidParams, match="delta_cap_factor"):
            lc.fit(data, options=lc.FitOptions(delta_cap_factor=factor))


@pytest.mark.parametrize("parameterization, options, name", [
    ("lear", {"delta_cap_factor": 1e-320}, "delta_cap_factor"),
    ("lear", {"rho_cap": 1e-320}, "rho_cap"),
    ("arma11", {"rho_cap": 1e-320}, "rho_cap"),
    ("arma11", {"rho_cap": 1e-320, "allow_negative": True}, "rho_cap"),
])
def test_a_box_too_narrow_to_refine_is_invalid_params(
    monkeypatch, parameterization, options, name
):
    # The refinement clamps to 1e-8 of the box width inside its edges; a
    # subnormal width leaves nothing to clamp to (it was a math domain error).
    data = simulated_dataset(20, [1, 2, 3, 4], seed=5)
    monkeypatch.setattr(estimation, "_Prepared", None)
    with pytest.raises(lc.InvalidParams, match=f"^{name} .* outside the normal"):
        lc.fit(data, parameterization, options=lc.FitOptions(**options))


def test_the_arma11_box_ignores_the_delta_cap():
    data = simulated_dataset(20, [1, 2, 3, 4], seed=5)
    huge = lc.fit(data, "arma11", options=lc.FitOptions(delta_cap_factor=1e308))
    assert huge.to_dict() == lc.fit(data, "arma11").to_dict()


RECORD_DATA = simulated_dataset(20, [1, 2, 3, 4], seed=5)


@pytest.mark.parametrize("build", [
    lambda: lc.build_grid([[1.0, 2.0, 3.0]]),
    lambda: lc.SubjectData([1.0, 2.0], [0.5, 0.7], [[1.0], [1.0]]),
    lambda: lc.RepeatedMeasuresData(RECORD_DATA.subjects),
    lambda: lc.SimSpec(n_subjects=2, times=(np.arange(1.0, 4.0),),
                       beta=np.array([1.0]), covariance=lc.LearParams(1.0, 0.5, 1.0),
                       seed=1),
    lambda: lc.profile_estimates(RECORD_DATA, (0.5, 1.0)),
    lambda: lc.fit(RECORD_DATA),
    lambda: lc.compare_parameterizations(RECORD_DATA),
], ids=["MeasurementGrid", "SubjectData", "RepeatedMeasuresData", "SimSpec",
        "ProfileEstimates", "FitResult", "ComparisonReport"])
def test_records_holding_arrays_compare_and_hash_by_identity(build):
    # Field by field, == would take the truth value of an array.
    a, b = build(), build()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_fit_is_deterministic():
    data = simulated_dataset(40, [1, 2, 3, 4], seed=17)
    a = lc.fit(data)
    b = lc.fit(data)
    assert a.estimates == b.estimates
    assert a.max_loglik == b.max_loglik
    assert a.boundary_flags == b.boundary_flags


def test_fit_result_to_dict_is_json_friendly():
    data = simulated_dataset(30, [1, 2, 3, 4], seed=19)
    d = lc.fit(data).to_dict()
    assert d["parameterization"] == "lear"
    assert list(d["estimates"]) == ["sigma2", "rho_l", "delta"]
    assert isinstance(d["boundary_flags"], list)
    assert isinstance(d["beta_hat"][0], float)


# --------------------------------------------------------------------------
# numerics ported from scipy, with scipy as the oracle


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


def bowl_on_a_half_plane(x):
    # Infinite wherever x0 + x1 > 1, like a fit point that fails to factor;
    # the bowl's centre lies there, so the simplex keeps stepping into it.
    if x[0] + x[1] > 1.0:
        return math.inf
    return float((x[0] - 0.8) ** 2 + 3.0 * (x[1] - 0.7) ** 2)


def rippled_bowl(x):
    # Ripples finer than the simplex make contractions fail, so it shrinks.
    return float(x[0] ** 2 + x[1] ** 2
                 + 0.3 * math.sin(200.0 * x[0]) * math.cos(150.0 * x[1]))


@pytest.mark.parametrize("func, x0, maxiter", [
    (rosenbrock, [-1.2, 1.0], 400),
    (bowl_on_a_half_plane, [0.2, 0.3], 400),
    (rosenbrock, [0.0, 2.0], 400),
    (rippled_bowl, [0.2, 0.3], 400),
    (rosenbrock, [-1.2, 1.0], 5),
], ids=["rosenbrock", "inf-half-plane", "zero-start", "shrinks", "maxiter-5"])
def test_nelder_mead_takes_scipys_steps(func, x0, maxiter):
    from scipy.optimize import minimize
    from learcov.estimation import _nelder_mead

    want = minimize(func, np.array(x0), method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
    refinement = _nelder_mead(np.array(x0), maxiter, xatol=1e-8, fatol=1e-10)
    values, shapes, sent = [], [], None
    try:
        while True:
            batch = refinement.send(sent)
            shapes.append(batch.shape)
            sent = [func(x) for x in batch]
            values.extend(sent)
    except StopIteration as stop:
        x, nit, success = stop.value
    assert np.array_equal(x, want.x)
    assert (nit, success) == (want.nit, want.success)
    assert len(values) == want.nfev
    assert success == (maxiter == 400)
    # The initial simplex, then single points and shrinks of N points.
    assert shapes[0] == (3, 2) and set(shapes[1:]) <= {(1, 2), (2, 2)}
    if func is rippled_bowl:
        assert shapes.count((2, 2)) >= 1
    if func is bowl_on_a_half_plane:
        assert values.count(math.inf) > 10


def test_fma_rounds_once():
    from fractions import Fraction
    from learcov.estimation import _fma

    rng = np.random.default_rng(8)
    a, b, c = rng.standard_normal((3, 2000)) * 10.0 ** rng.integers(-20, 21, (3, 2000))
    for x, y, z in zip(a.tolist(), b.tolist(), c.tolist()):
        assert _fma(x, y, z) == float(Fraction(x) * Fraction(y) + Fraction(z))
    # One rounding, where the product rounded first would lose everything.
    e = 2.0 ** -30
    assert _fma(1.0 + e, 1.0 - e, -1.0) == -(e * e)


def assert_solution_close(got, want):
    """Equal to 1e-13 relative to the largest entry of the solution."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("q", range(1, 7))
def test_substitution_solves_match_scipy(q):
    from scipy.linalg import cho_solve, solve_triangular
    from learcov.estimation import _cho_solve, _forward_solve, _fused_solve

    rng = np.random.default_rng(q)
    for _ in range(200):
        A = rng.standard_normal((q + 3, q))
        A = (A.T @ A + 0.1 * np.eye(q)) * 10.0 ** rng.uniform(-3, 3)
        L = np.linalg.cholesky(A)
        b = rng.standard_normal(q) * 10.0 ** rng.uniform(-3, 3)
        assert_solution_close(_forward_solve(L, b),
                              solve_triangular(L, b, lower=True))
        assert_solution_close(_fused_solve(L, b, transpose=True),
                              solve_triangular(L.T, b, lower=False))
        assert_solution_close(_cho_solve(L, b), cho_solve((L, True), b))


@pytest.mark.parametrize("q", range(1, 8))
def test_stacked_forward_solve_matches_the_row_by_row_solve(q):
    # Each slice of a stack, and a single (q, q) system, gives the bits of
    # the row loop over 1-d dot products.
    rng = np.random.default_rng(100 + q)
    A = rng.standard_normal((3000, q + 3, q))
    A = np.swapaxes(A, 1, 2) @ A + 0.1 * np.eye(q)
    L = np.linalg.cholesky(A * 10.0 ** rng.uniform(-3, 3, (3000, 1, 1)))
    b = rng.standard_normal((3000, q)) * 10.0 ** rng.uniform(-3, 3, (3000, 1))
    want = np.array([per_row_forward_solve(Lk, bk) for Lk, bk in zip(L, b)])
    assert estimation._forward_solve(L, b).tobytes() == want.tobytes()
    for k in range(0, 3000, 97):
        assert estimation._forward_solve(L[k], b[k]).tobytes() == want[k].tobytes()


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_expit_and_logit_give_scipys_bits():
    from scipy.special import expit, logit
    from learcov.estimation import _expit, _logit

    rng = np.random.default_rng(9)
    u = np.concatenate([
        rng.uniform(-40.0, 40.0, 500_000), rng.uniform(-800.0, 800.0, 500_000),
        [800.0, -800.0, 0.0, -0.0, -709.78, -709.79, 745.2],
    ])
    got = [_expit(v) for v in u.tolist()]
    assert np.array_equal(bits(got), bits(expit(u)))
    assert _expit(-800.0) == 0.0 and _expit(800.0) == 1.0

    x = np.concatenate([
        rng.random(1_000_000),
        [0.3, 0.65, 1e-8, 1.0 - 1e-8, 0.5,
         np.nextafter(0.3, 0.0), np.nextafter(0.65, 1.0)],
    ])
    x = x[x > 0.0]
    got = [_logit(v) for v in x.tolist()]
    assert np.array_equal(bits(got), bits(logit(x)))


# --------------------------------------------------------------------------
# dual-parameterization comparison


def test_compare_parameterizations_agree_on_simulated_data():
    data = simulated_dataset(120, [1, 2, 3, 4, 5], seed=23)
    report = lc.compare_parameterizations(data)
    assert report.loglik_difference < 1e-4
    assert report.max_covariance_difference < 1e-3
    assert report.spacing == 1.0
    assert report.reference_subject == 0
    assert report.lear_covariance.shape == (5, 5)
    assert report.arma_mapped_to_lear is not None
    assert abs(report.arma_mapped_to_lear.rho_l - report.lear.estimates.rho_l) < 0.1


def test_compare_handles_rescaled_grids():
    # delta = raw range makes the truth AR(1), which sits well inside the
    # parameter box after the grid is normalized to unit gaps
    spec = lc.SimSpec(
        n_subjects=150,
        times=(np.array([2.0, 4.0, 6.0, 8.0]),),
        beta=np.array([1.0]),
        covariance=lc.LearParams(1.0, 0.8, 4.0),
        seed=29,
    )
    report = lc.compare_parameterizations(lc.simulate(spec))
    assert report.spacing == 2.0
    assert report.loglik_difference < 1e-4
    assert report.max_covariance_difference < 1e-3


def test_compare_notes_an_arma_fit_outside_the_lear_image():
    data = arma11_dataset(100, [1, 2, 3, 4, 5], seed=3, tau=-0.3, rho_a=0.5)
    report = lc.compare_parameterizations(
        data, options=lc.FitOptions(allow_negative=True)
    )
    assert report.arma11.estimates.tau < 0.0
    assert report.arma_mapped_to_lear is None
    assert report.mapping_note.startswith("E_OUTSIDE_LEAR_IMAGE: ")
    d = report.to_dict()
    assert d["arma_mapped_to_lear"] is None
    assert d["mapping_note"] == report.mapping_note


def test_compare_requires_eligible_grid():
    data = simulated_dataset(10, [1.0, 2.0, 4.0], seed=37)
    with pytest.raises(lc.NotSpecialCase):
        lc.compare_parameterizations(data)


def test_compare_report_to_dict_round_trips_fields():
    data = simulated_dataset(50, [1, 2, 3], seed=41)
    d = lc.compare_parameterizations(data).to_dict()
    assert set(d) >= {
        "criterion", "spacing", "lear", "arma11", "loglik_difference",
        "reference_subject", "max_covariance_difference",
    }
    assert isinstance(d["lear_covariance"], list)


def scaled_y(data, factor):
    return lc.RepeatedMeasuresData(
        lc.SubjectData(s.times, factor * s.y, s.X) for s in data.subjects)


COMPARE_CASES = {
    "unit": pattern_dataset(UNIT_PATTERNS, 2),
    # Offsets below the gap merge patterns once the times are normalized.
    "gap 2 with sub-gap offsets": pattern_dataset((
        ((2.3, 4.3, 6.3, 8.3), 20), ((2.0, 4.0, 6.0, 8.0), 12),
        ((10.9, 12.9, 14.9), 10), ((-3.0, -1.0, 1.0), 10), ((7.1,), 3),
    ), 1, seed=1),
    "mixed lengths": pattern_dataset((
        ((1, 2, 3, 4, 5, 6), 30), ((2, 3, 4, 5), 10), ((2, 3), 5), ((3,), 4),
    ), 2, seed=2),
    "signed zeros": pattern_dataset((
        ((-0.0, 1.0, 2.0), 10), ((0.0, 1.0, 2.0), 10), ((-1.0, 0.0), 5),
        ((-1.0, -0.0), 5), ((-0.0,), 3), ((0.0,), 3),
    ), 1, seed=3),
    # Under allow_negative the ARMA(1,1) fit leaves the LEAR image.
    "outside the LEAR image": arma11_dataset(100, [1, 2, 3, 4, 5], seed=3,
                                             tau=-0.3, rho_a=0.5),
    "irregular": pattern_dataset(IRREGULAR_PATTERNS, 1),
    "singletons": singleton_dataset([1.0, 2.0, 3.0]),
    "equal distances": pattern_dataset((((1, 2), 5), ((4, 5), 5)), 1),
    "overflowing y": scaled_y(pattern_dataset(UNIT_PATTERNS, 1), 1e300),
    # A gap 5e-10 short of 1 sets h; the later anchor, above 2**53,
    # swallows its unit step.
    "huge anchor": pattern_dataset(
        (((0.0, 1 - 5e-10), 2), ((2.0 ** 53 - 4, 2.0 ** 53 - 3), 3)), 1),
    # round(1e10 / 1e-300) is infinite.
    "anchor beyond the float range": lc.RepeatedMeasuresData(
        subject(t, np.sin(np.arange(len(t)) + i)) for i, t in
        enumerate([(0.0, 1e-300, 2e-300)] * 4 + [(1e10,)] * 2)),
}


def compare_outcome(compare, data, criterion, options):
    """compare's JSON document, or the error it raises."""
    try:
        return _jsonio.dumps(compare(data, criterion, options).to_dict())
    except lc.LearcovError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("allow_negative", [False, True])
@pytest.mark.parametrize("criterion", ["ml", "reml"])
@pytest.mark.parametrize("name", list(COMPARE_CASES))
def test_compare_matches_the_per_subject_flow(monkeypatch, name, criterion,
                                              allow_negative):
    data = COMPARE_CASES[name]
    options = lc.FitOptions(allow_negative=allow_negative)
    fitted = []
    fit = estimation.fit

    def recording_fit(data_n, *args):
        fitted.append(data_n)
        return fit(data_n, *args)

    with monkeypatch.context() as patch:
        patch.setattr(estimation, "fit", recording_fit)
        got = compare_outcome(lc.compare_parameterizations, data, criterion, options)
    assert got == compare_outcome(per_subject_compare, data, criterion, options)
    if isinstance(got, str):
        assert len(fitted) == 2
    if name == "outside the LEAR image" and allow_negative:
        assert json.loads(got)["mapping_note"].startswith("E_OUTSIDE_LEAR_IMAGE: ")
    # The fits share one dataset: the normalized times, and the responses,
    # design and offsets as they were.
    if fitted:
        data_n = fitted[0]
        assert all(d is data_n for d in fitted)
        normalized = per_subject_normalize_grid(data.grid).subject_times
        assert data_n.times.tobytes() == np.concatenate(normalized).tobytes()
        for column in ("y", "X", "offsets"):
            assert getattr(data_n, column).tobytes() == getattr(data, column).tobytes()
