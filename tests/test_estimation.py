import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import learcov as lc
from learcov.estimation import _Prepared
from conftest import (
    per_subject_prepared_groups,
    per_subject_with_subject_times,
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


def test_dataset_rejects_rank_deficient_stacked_design():
    X = np.column_stack([np.ones(3), 2.0 * np.ones(3)])
    s1 = subject([1, 2, 3], [0.1, 0.2, 0.3], X=X)
    s2 = subject([1, 2, 3], [0.4, 0.5, 0.6], X=X)
    with pytest.raises(lc.RankDeficient):
        lc.RepeatedMeasuresData((s1, s2))


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


def test_with_subject_times_keeps_responses():
    data = lc.RepeatedMeasuresData((subject([2, 4], [0.5, 0.7]),))
    moved = data.with_subject_times([np.array([1.0, 2.0])])
    np.testing.assert_array_equal(moved.subjects[0].y, [0.5, 0.7])
    np.testing.assert_array_equal(moved.subjects[0].times, [1.0, 2.0])


def column_bytes(data):
    return [(name, getattr(data, name).shape, getattr(data, name).tobytes())
            for name in ("times", "y", "X", "offsets")]


def moved_times_cases(data):
    normalized = lc.normalize_grid(data.grid).subject_times
    yield normalized
    yield [t.tolist() for t in normalized]
    yield [np.array(t) + 0.25 for t in data.grid.subject_times]


def test_with_subject_times_matches_the_per_subject_build():
    spec = lc.SimSpec(
        n_subjects=23,
        times=(np.array([2.0, 4.0, 6.0]), np.array([4.0]), np.array([0.0, 2.0])),
        beta=np.array([1.0, -0.5]),
        covariance=lc.LearParams(1.0, 0.5, 2.0),
        seed=3,
        design="intercept-time",
    )
    data = lc.simulate(spec)
    for new_times in moved_times_cases(data):
        got = data.with_subject_times(new_times)
        want = per_subject_with_subject_times(data, new_times)
        assert column_bytes(got) == column_bytes(want)
        assert (got.grid.d_min, got.grid.d_max) == (want.grid.d_min, want.grid.d_max)


def test_with_subject_times_names_what_is_wrong():
    data = lc.RepeatedMeasuresData((
        subject([1, 2], [0.1, 0.2]), subject([1, 2, 3], [0.3, 0.4, 0.5]),
        subject([5, 6], [0.6, 0.7]),
    ))
    shared = np.array([2.0, 1.0])
    cases = [
        [[1.0, 2.0], [1.0, 2.0, 3.0]],
        [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]],
        [shared, [1.0, 2.0, 3.0], shared],
        [[1.0, 2.0], "abc", [1.0, 2.0]],
        [[1.0, 2.0], [1.0, 2.0, np.inf], [1.0, 2.0]],
    ]
    for new_times in cases:
        with pytest.raises(lc.LearcovError) as got:
            data.with_subject_times(new_times)
        with pytest.raises(lc.LearcovError) as want:
            per_subject_with_subject_times(data, new_times)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


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
    beta = np.array([1.0, 0.5, -0.25])[:q]
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


def without_rank_check(subjects):
    """Dataset that skips the constructor's rank check, to reach the one of
    the likelihood's identity-weight fit (``_Prepared``). The rank check on
    the GLS normal equations after it can only fail by rounding, since
    G^-1 is positive definite."""
    subjects = tuple(subjects)
    data = object.__new__(lc.RepeatedMeasuresData)
    columns = {
        "times": np.concatenate([s.times for s in subjects]),
        "y": np.concatenate([s.y for s in subjects]),
        "X": np.vstack([s.X for s in subjects]),
        "offsets": np.cumsum([0, *(s.p for s in subjects)]),
    }
    for name, column in columns.items():
        object.__setattr__(data, name, column)
    object.__setattr__(data, "_grid", lc.build_grid([s.times for s in subjects]))
    return data


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
    zero_column = without_rank_check(
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


@pytest.mark.parametrize("m", [1, 2, 3, 1365, 4097])
def test_exact_gram_rounds_every_entry_once(m):
    # Columns mix magnitudes so that a plain floating-point sum of the
    # products differs from the exactly rounded one; m = 1365 splits the
    # products over several math.fsum batches with a short last one.
    from learcov.estimation import _exact_gram

    rng = np.random.default_rng(m)
    A = rng.standard_normal((4, m)) * 10.0 ** rng.integers(-8, 9, (4, m))
    B = rng.standard_normal((2, m))
    want = np.array([[math.fsum((a * b).tolist()) for b in A] for a in A])
    assert np.array_equal(_exact_gram(A), want)
    want = np.array([[math.fsum((a * b).tolist()) for b in B] for a in A])
    assert np.array_equal(_exact_gram(A, B), want)


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


def test_loglik_surface_is_finite_on_interior_smoke_grid():
    data = simulated_dataset(10, [1, 2, 3, 4], seed=31)
    r = data.grid.d_max - data.grid.d_min
    for rho in np.linspace(0.05, 0.9, 5):
        for delta in np.linspace(0.1, 2.0, 5) * r:
            assert math.isfinite(lc.profile_loglik(data, (rho, delta)))


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
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(rho_cap=1.0)
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(delta_cap_factor=0.0)
    with pytest.raises(lc.InvalidParams):
        lc.FitOptions(tolerance=0.0)


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

    values = []

    def recorded(x):
        values.append(func(x))
        return values[-1]

    want = minimize(func, np.array(x0), method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
    x, nit, success = _nelder_mead(recorded, np.array(x0), maxiter,
                                   xatol=1e-8, fatol=1e-10)
    assert np.array_equal(x, want.x)
    assert (nit, success) == (want.nit, want.success)
    assert len(values) == want.nfev
    assert success == (maxiter == 400)
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
