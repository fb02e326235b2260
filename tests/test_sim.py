import math

import numpy as np
import pytest
from scipy.special import ndtri

import learcov as lc
from learcov import sim
from conftest import per_subject_simulate, simulated_dataset

TIMES = np.array([1.0, 2.0, 3.0, 4.0, 5.0])


def spec_of(**overrides) -> lc.SimSpec:
    kwargs = dict(
        n_subjects=6,
        times=(TIMES,),
        beta=np.array([1.0]),
        covariance=lc.LearParams(1.0, 0.5, 3.0),
        seed=42,
    )
    kwargs.update(overrides)
    return lc.SimSpec(**kwargs)


def dataset_bytes(data: lc.RepeatedMeasuresData) -> bytes:
    return b"".join(s.y.tobytes() for s in data.subjects)


# --------------------------------------------------------------------------
# normal stream


def test_standard_normals_is_reproducible():
    a = lc.standard_normals(42, 0, 5)
    b = lc.standard_normals(42, 0, 5)
    assert np.array_equal(a, b)
    assert a.shape == (5,)
    assert np.all(np.isfinite(a))


def test_standard_normals_streams_are_keyed_by_seed_and_subject():
    base = lc.standard_normals(42, 0, 5)
    assert not np.array_equal(base, lc.standard_normals(42, 1, 5))
    assert not np.array_equal(base, lc.standard_normals(43, 0, 5))


def test_standard_normals_is_prefix_stable():
    # counter-based generator: longer requests extend, never reshuffle
    short = lc.standard_normals(7, 3, 5)
    long = lc.standard_normals(7, 3, 8)
    assert np.array_equal(long[:5], short)


def test_uniform_map_stays_inside_the_open_interval():
    raw = np.array([0, 2**64 - 1, 2**64 - 2**11, 2**64 - 2**12], dtype=np.uint64)
    u = sim._uniforms(raw)
    # The top word's ((w >> 11) + 0.5) * 2**-53 rounds to 1.0, where the
    # normal inverse CDF is infinite; it goes to the largest double below 1.
    naive = ((raw[1:3] >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53
    assert naive.tolist() == [1.0, 1.0]
    # The next word down already maps below 1 and is left alone.
    assert u.tolist() == [2.0**-54, 1.0 - 2.0**-53, 1.0 - 2.0**-53,
                          1.0 - 2.0**-52]
    assert np.isfinite(ndtri(u)).all()


def test_standard_normals_moments_are_plausible():
    z = lc.standard_normals(123, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def numpy_philox(seed, index, n):
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n)


@pytest.mark.parametrize("seed, first, count, n", [
    (0, 0, 50, 9),
    (2**64 - 1, 0, 300, 13),
    (123456789, 2**64 - 40, 40, 6),
    (7, 5, 3, 0),
    (11, 0, 4, 1),
    (11, 0, 4, 2),
    (11, 0, 4, 3),
    (11, 0, 4, 4),
])
def test_philox_words_match_numpy_philox(seed, first, count, n):
    subjects = np.arange(first, first + count, dtype=np.uint64)
    got = sim._philox_words(seed, subjects, n)
    assert got.shape == (count, n) and got.dtype == np.uint64
    for row, i in zip(got, subjects.tolist()):
        assert np.array_equal(row, numpy_philox(seed, i, n))


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def test_ndtri_matches_scipy_on_a_million_draws():
    words = sim._philox_words(2024, np.arange(2**18, dtype=np.uint64), 4)
    u = sim._uniforms(words.ravel())
    assert u.size >= 10**6
    tails = np.minimum(u, 1.0 - u) <= math.exp(-2.0)
    assert 0.2 < tails.mean() < 0.35
    assert_same_bits(sim._ndtri(u), ndtri(u))


def around(values, steps):
    """Each value and its neighbours up to ``steps`` doubles either way."""
    out = []
    for v in values:
        lo = hi = v
        out.append(v)
        for _ in range(steps):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, 1.0)
            out += [lo, hi]
    return np.array(out)


def test_ndtri_matches_scipy_at_the_branch_edges():
    e2 = math.exp(-2.0)
    u = around([2.0**-54, 1.0 - 2.0**-53, e2, 1.0 - e2, 0.5], 3)
    u = u[(u > 0.0) & (u < 1.0)]
    assert 2.0**-54 in u and 1.0 - 2.0**-53 in u
    assert_same_bits(sim._ndtri(u), ndtri(u))


def test_ndtri_matches_scipy_where_the_tail_polynomials_switch():
    # cephes moves from P1/Q1 to P2/Q2 at x = sqrt(-2 log y) = 8, that is
    # at y = exp(-32). Take every uniform within 300 lattice steps of an
    # end of (0, 1), which holds all ~230 that reach P2/Q2, and the doubles
    # next to exp(-32).
    k = np.arange(300, dtype=np.uint64)
    words = np.concatenate([k, np.uint64(2**53 - 1) - k]) << np.uint64(11)
    for u in (sim._uniforms(words), around([math.exp(-32.0)], 40)):
        y = np.minimum(u, 1.0 - u)
        x = np.sqrt(-2.0 * np.log(y))
        assert (x < 8.0).any() and (x >= 8.0).any()
        assert_same_bits(sim._ndtri(u), ndtri(u))


@pytest.mark.parametrize("seed, index, n", [
    (42, 0, 5), (0, 2**64 - 1, 9), (2**64 - 1, 2**64 - 1, 3), (5, 3, 0),
])
def test_standard_normals_follow_the_documented_contract(seed, index, n):
    u = ((numpy_philox(seed, index, n) >> np.uint64(11)).astype(float) + 0.5)
    expected = ndtri(np.minimum(u * 2.0**-53, 1.0 - 2.0**-53))
    assert_same_bits(lc.standard_normals(seed, index, n), expected)


@pytest.mark.parametrize("seed, index", [
    (1.5, 0), (0, 1.5), (-1, 0), (0, -1), (2**64, 0), (0, 2**64),
    (True, 0), (0, False), ("7", 0),
])
def test_standard_normals_rejects_bad_keys(seed, index):
    # A float seed used to be truncated to another seed's stream, and an
    # out-of-range word raised a bare OverflowError.
    with pytest.raises(lc.InvalidParams):
        lc.standard_normals(seed, index, 3)


@pytest.mark.parametrize("n", [-1, 2.5, True])
def test_standard_normals_rejects_bad_counts(n):
    with pytest.raises(lc.InvalidSize):
        lc.standard_normals(0, 0, n)


# --------------------------------------------------------------------------
# spec validation


def test_spec_wraps_a_single_template_array():
    spec = lc.SimSpec(
        n_subjects=2,
        times=TIMES,
        beta=np.array([1.0]),
        covariance=lc.LearParams(1.0, 0.5, 3.0),
        seed=0,
    )
    assert isinstance(spec.times, tuple)
    assert np.array_equal(spec.times[0], TIMES)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, 10 ** 6 + 1, 2 ** 63, 10 ** 30])
def test_spec_rejects_bad_subject_counts(bad):
    with pytest.raises(lc.InvalidSize):
        spec_of(n_subjects=bad)


@pytest.mark.parametrize(
    "bad",
    [
        (), (np.array([]),), (np.array([2.0, 1.0]),), (np.array([1.0, np.nan]),),
        3.0, "abc",
    ],
)
def test_spec_rejects_bad_time_templates(bad):
    with pytest.raises(lc.InvalidGrid):
        spec_of(times=bad)


@pytest.mark.parametrize("bad", [np.array([]), np.array([[1.0]]), np.array([np.inf])])
def test_spec_rejects_bad_beta(bad):
    with pytest.raises(lc.InvalidSize):
        spec_of(beta=bad)


def test_spec_rejects_beta_design_mismatch():
    with pytest.raises(lc.InvalidSize):
        spec_of(beta=np.array([1.0, 2.0]))  # intercept design has one column
    with pytest.raises(lc.InvalidSize):
        spec_of(beta=np.array([1.0]), design="intercept-time")


def test_spec_freezes_copies_not_the_callers_arrays():
    times, beta, design = TIMES.copy(), np.array([1.0, 0.5]), np.ones((5, 2))
    spec = spec_of(times=(times,), beta=beta, design=(design,))
    for stored in (spec.times[0], spec.beta, spec.design[0]):
        assert not stored.flags.writeable
    times[0], beta[0], design[0, 0] = -1.0, 9.0, 9.0
    assert spec.times[0][0] == 1.0
    assert spec.beta[0] == 1.0
    assert spec.design[0][0, 0] == 1.0


def test_spec_rejects_non_parameter_covariance():
    with pytest.raises(lc.InvalidParams):
        spec_of(covariance=np.eye(5))


@pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5, True, "7"])
def test_spec_rejects_bad_seeds(bad):
    with pytest.raises(lc.InvalidParams):
        spec_of(seed=bad)


def test_spec_rejects_unknown_design_rule():
    with pytest.raises(lc.InvalidParams):
        spec_of(design="quadratic")


def test_spec_rejects_malformed_explicit_designs():
    good = np.ones((5, 1))
    with pytest.raises(lc.InvalidSize):
        spec_of(design=(good, good))  # one template, two matrices
    with pytest.raises(lc.InvalidSize):
        spec_of(design=(np.ones((4, 1)),))  # row count disagrees with times
    with pytest.raises(lc.InvalidSize):
        spec_of(design=(np.ones((5, 0)),))
    with pytest.raises(lc.InvalidSize, match="non-finite"):
        spec_of(design=(np.full((5, 1), np.nan),))
    with pytest.raises(lc.InvalidSize):
        spec_of(
            times=(TIMES, TIMES[:3]),
            design=(np.ones((5, 1)), np.ones((3, 2))),
        )


def test_design_matrix_follows_the_rule():
    assert np.array_equal(spec_of().design_matrix(0), np.ones((5, 1)))
    with_time = spec_of(design="intercept-time", beta=np.array([1.0, 0.5]))
    assert np.array_equal(
        with_time.design_matrix(0), np.column_stack([np.ones(5), TIMES])
    )
    explicit = np.column_stack([np.ones(5), TIMES ** 2])
    spec = spec_of(design=(explicit,), beta=np.array([1.0, 0.5]))
    assert np.array_equal(spec.design_matrix(0), explicit)


# --------------------------------------------------------------------------
# simulation output


TEMPLATES = {
    "unit": (TIMES,),
    "mixed-length": (TIMES, np.array([1.0, 2.0]), np.arange(2.0, 9.0)),
    "irregular": (np.array([0.0, 0.5, 2.0, 3.7]), np.array([1.0, 1.3, 4.0])),
    "single-visit": (np.array([3.0]),),
    "20-point": (1.0 + np.cumsum(np.linspace(0.5, 1.5, 20)),),
}
COVARIANCES = {
    "lear": lc.LearParams(1.3, 0.6, 2.0),
    "arma": lc.Arma11Params(1.5, 0.5, 0.7),
    "lear-indefinite": lc.LearParams(1.0, 0.9, 60.0),
}
DESIGNS = ("intercept", "intercept-time", "explicit-q3")


def outcome(draw, spec):
    try:
        return draw(spec)
    except lc.LearcovError as exc:
        return type(exc).token


def assert_same_dataset(got, expected):
    """The same token, or the same flat columns and subject offsets, bit
    for bit."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    for name in ("times", "y", "X", "offsets"):
        x, y = getattr(got, name), getattr(expected, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("covariance", COVARIANCES)
@pytest.mark.parametrize("templates", TEMPLATES)
def test_simulate_matches_the_per_subject_draws(templates, covariance, design):
    times = TEMPLATES[templates]
    if design == "explicit-q3":
        design = tuple(np.column_stack([np.ones(t.size), t, t**2]) for t in times)
        beta = np.array([1.0, -0.5, 0.25])
    else:
        beta = np.array([1.0, -0.5][: 1 + (design == "intercept-time")])
    for n in (1, 7, 4099, 9000):
        for seed in (0, 123456789, 2**64 - 1):
            spec = lc.SimSpec(n, times, beta, COVARIANCES[covariance], seed, design)
            assert_same_dataset(
                outcome(lc.simulate, spec), outcome(per_subject_simulate, spec)
            )


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_simulate_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    spec = spec_of(n_subjects=50, times=TEMPLATES["mixed-length"])
    whole = lc.simulate(spec)
    monkeypatch.setattr(sim, "_DRAW_CHUNK", chunk)
    assert_same_dataset(lc.simulate(spec), whole)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_refuses_responses_that_overflow():
    spec = lc.SimSpec(
        n_subjects=3,
        times=(np.array([1.0, 2.0]),),
        beta=np.array([1e10]),
        covariance=lc.Arma11Params(1.0, 0.5, 0.5),
        seed=0,
        design=(np.full((2, 1), 1e300),),
    )
    for draw in (lc.simulate, per_subject_simulate):
        with pytest.raises(lc.InvalidSize, match="^y and X must be finite$"):
            draw(spec)


def test_simulate_is_deterministic():
    spec = spec_of()
    assert dataset_bytes(lc.simulate(spec)) == dataset_bytes(lc.simulate(spec))


def test_simulate_depends_on_the_seed():
    assert dataset_bytes(lc.simulate(spec_of(seed=1))) != dataset_bytes(
        lc.simulate(spec_of(seed=2))
    )


def test_simulate_subject_streams_ignore_cohort_size():
    # subject i's data is keyed by (seed, i), not by how many others exist
    small = lc.simulate(spec_of(n_subjects=3))
    large = lc.simulate(spec_of(n_subjects=6))
    for i in range(3):
        assert np.array_equal(small.subjects[i].y, large.subjects[i].y)


def test_simulate_ignores_a_leftover_threads_variable(monkeypatch, tmp_path):
    # A LEARCOV_THREADS value left in an environment must neither fail nor
    # change the output: simulation is sequential and reads no variable.
    spec = spec_of(n_subjects=17, times=(TIMES, TIMES[:2]))

    def csv_bytes(name):
        lc.write_long_csv(tmp_path / name, lc.simulate(spec))
        return (tmp_path / name).read_bytes()

    monkeypatch.delenv("LEARCOV_THREADS", raising=False)
    unset = csv_bytes("unset.csv")
    for leftover in ("4", "four"):
        monkeypatch.setenv("LEARCOV_THREADS", leftover)
        assert csv_bytes(f"{leftover}.csv") == unset


def test_simulate_cycles_through_templates():
    short = np.array([1.0, 3.0])
    data = lc.simulate(spec_of(n_subjects=5, times=(TIMES, short)))
    for i, subject in enumerate(data.subjects):
        expected = TIMES if i % 2 == 0 else short
        assert np.array_equal(subject.times, expected)


def test_simulate_mean_structure_tracks_the_design():
    spec = spec_of(
        n_subjects=4000,
        beta=np.array([2.0, -0.5]),
        design="intercept-time",
    )
    data = lc.simulate(spec)
    ys = np.array([s.y for s in data.subjects])
    expected = spec.design_matrix(0) @ spec.beta
    assert np.max(np.abs(ys.mean(axis=0) - expected)) < 0.05


def test_simulate_matches_target_covariance():
    data = simulated_dataset(4000, TIMES, seed=99, rho_l=0.5, delta=3.0)
    resid = np.array([s.y for s in data.subjects]) - 1.0
    sample = resid.T @ resid / len(data.subjects)
    target = lc.lear_covariance(lc.LearParams(1.0, 0.5, 3.0), data.grid, 0)
    assert np.max(np.abs(sample - target)) < 0.05


def test_simulate_matches_arma_target_covariance():
    params = lc.Arma11Params(1.0, 0.6, 0.4)
    data = lc.simulate(spec_of(n_subjects=4000, covariance=params, seed=5))
    resid = np.array([s.y for s in data.subjects]) - 1.0
    sample = resid.T @ resid / len(data.subjects)
    assert np.max(np.abs(sample - lc.arma11_covariance(params, 5))) < 0.05


def test_simulate_pools_distance_extremes_across_templates():
    # LEAR matrices use the pooled d_min/d_max, so adding a wider template
    # changes every subject's covariance, not just the wide one's
    narrow = lc.simulate(spec_of(seed=3))
    pooled = lc.simulate(
        spec_of(seed=3, times=(TIMES, np.array([1.0, 9.0])))
    )
    assert not np.array_equal(narrow.subjects[0].y, pooled.subjects[0].y)


def test_simulate_propagates_indefinite_covariances():
    # rho 0.9 with delta five times the range is not factorable on this grid
    with pytest.raises(lc.NotPositiveDefinite):
        lc.simulate(spec_of(covariance=lc.LearParams(1.0, 0.9, 15.0)))


def test_simulated_dataset_round_trips_through_fit():
    data = simulated_dataset(400, TIMES, seed=11, rho_l=0.5, delta=3.0)
    result = lc.fit(data, parameterization="lear")
    est = result.estimates
    assert abs(est.sigma2 - 1.0) < 0.2
    assert abs(est.rho_l - 0.5) < 0.15
    assert abs(est.delta - 3.0) < 1.0
