import numpy as np
import pytest

import learcov as lc
from conftest import simulated_dataset

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
    from scipy.special import ndtri
    from learcov.sim import _uniforms

    raw = np.array([0, 2**64 - 1, 2**64 - 2**11, 2**64 - 2**12], dtype=np.uint64)
    u = _uniforms(raw)
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


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
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
