import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learcov as lc
from learcov.estimation import _Prepared
from learcov.reparam import _special_case
from conftest import (
    per_subject_extremes,
    per_subject_normalize_grid,
    per_subject_patterns,
    per_subject_prepared_groups,
    per_subject_special_case,
)


def grid_of(*times_lists):
    return lc.build_grid([np.asarray(t, dtype=float) for t in times_lists])


# --------------------------------------------------------------------------
# special-case detection


def test_unit_grid_is_eligible():
    report = lc.check_special_case(grid_of([1, 2, 3, 4]))
    assert report.eligible
    assert report.equally_spaced
    assert report.integer_distances
    assert report.dmin_is_one
    assert report.spacing == 1.0


def test_common_gap_grid_is_eligible_with_recorded_spacing():
    report = lc.check_special_case(grid_of([2, 4, 6], [10, 12]))
    assert report.eligible
    assert report.spacing == 2.0


def test_irregular_grid_is_not_eligible():
    report = lc.check_special_case(grid_of([1, 2, 4]))
    assert not report.eligible
    assert not report.equally_spaced
    assert report.spacing is None
    # distances 1, 2, 3 are still integers with unit minimum
    assert report.integer_distances
    assert report.dmin_is_one


def test_mismatched_gaps_across_subjects_are_not_eligible():
    report = lc.check_special_case(grid_of([1, 2, 3], [1, 3, 5]))
    assert not report.eligible


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.01, 250.0, allow_nan=False, allow_infinity=False),
    st.integers(2, 10),
)
def test_eligibility_is_scale_invariant(c, p):
    base = np.arange(1.0, p + 1.0)
    assert lc.check_special_case(grid_of(base)).eligible
    assert lc.check_special_case(grid_of(c * base)).eligible


def _shuffled(patterns, copies, seed):
    subjects = [p for p in patterns for _ in range(copies)]
    order = np.random.default_rng(seed).permutation(len(subjects))
    return [subjects[i] for i in order]


# h1 is within the default relative tolerance of 1 but not equal to it.
_H1 = 1.0 + 4e-10

PATTERN_CASES = {
    **{
        f"repeats shuffled, seed {seed}": _shuffled(
            [[1, 2, 3, 4], [2, 3, 4], [1, 2, 3, 4, 5, 6]], 20, seed)
        for seed in range(3)
    },
    "gap-2 repeats shuffled": _shuffled([[2, 4, 6], [10, 12], [4, 6, 8, 10]], 15, 7),
    "non-integer distance only in a late repeated pattern":
        [[0, 1, 3]] * 40 + [[0, 1, 2.5], [0, 1, 3]] * 3,
    "gap within tolerance first": [[0, _H1, 2 * _H1], [0, 1, 2]] * 10,
    "exact gap first": [[0, 1, 2], [0, _H1, 2 * _H1]] * 10,
    "single measurements mixed in":
        [[5.0], [1, 2, 3], [7.0], [2, 3], [9.0], [1, 2, 3], [7.0]] * 4,
    "irregular": _shuffled([[1, 2, 4, 7.5], [1, 2, 4], [2, 4, 7.5]], 10, 3),
    "gap within tolerance first, longer pattern next":
        [[0, _H1], [0, 1, 2], [0, _H1]] * 10,
}


@pytest.mark.parametrize("name", list(PATTERN_CASES))
def test_pattern_checks_match_the_per_subject_checks(name):
    subjects = PATTERN_CASES[name]
    grid = grid_of(*subjects)
    assert grid.n_subjects == len(subjects)
    assert (grid.d_min, grid.d_max) == per_subject_extremes(grid.subject_times)
    for rel_tol in (1e-9, 1e-12):
        report = lc.check_special_case(grid, rel_tol)
        reference = per_subject_special_case(grid, rel_tol)
        assert report == reference
        if reference.spacing is not None:
            assert report.spacing.hex() == reference.spacing.hex()


def test_first_subject_with_two_times_fixes_the_spacing():
    late = lc.check_special_case(grid_of(*PATTERN_CASES["exact gap first"]))
    early = lc.check_special_case(
        grid_of(*PATTERN_CASES["gap within tolerance first"])
    )
    assert late.eligible and early.eligible
    assert late.spacing == 1.0
    assert early.spacing == _H1
    flags = lc.check_special_case(
        grid_of(*PATTERN_CASES["non-integer distance only in a late repeated pattern"])
    )
    assert not flags.equally_spaced and not flags.integer_distances


def test_normalize_grid_rescales_to_unit_gaps():
    g = lc.normalize_grid(grid_of([2, 4, 6], [10, 12]))
    np.testing.assert_array_equal(g.subject_times[0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(g.subject_times[1], [5.0, 6.0])
    assert g.spacing == 2.0
    assert (g.d_min, g.d_max) == (1.0, 2.0)


def test_normalize_grid_is_identity_on_unit_grids():
    g = lc.normalize_grid(grid_of([1, 2, 3]))
    np.testing.assert_array_equal(g.subject_times[0], [1.0, 2.0, 3.0])
    assert g.spacing == 1.0


NORMALIZE_CASES = {
    **PATTERN_CASES,
    "sub-gap offsets shuffled": _shuffled(
        [[2.3, 4.3, 6.3], [10.9, 12.9], [-3.0, -1.0, 1.0, 3.0], [7.1]], 12, 11),
    # A gap 5e-10 short of 1 sets h; the third subject's anchor, above
    # 2**53, swallows its unit step.
    "huge anchor after a repeated pattern":
        [[0, 1 - 5e-10]] * 2 + [[2.0 ** 53 - 4, 2.0 ** 53 - 3]],
}


def outcome(f, grid):
    """A grid's times, spacing and extremes, or the error ``f`` raises."""
    try:
        g = f(grid)
    except lc.LearcovError as exc:
        return type(exc), str(exc)
    return ([t.tobytes() for t in g.subject_times], g.spacing.hex(),
            g.d_min.hex(), g.d_max.hex())


@pytest.mark.parametrize("name", list(NORMALIZE_CASES))
def test_normalize_grid_matches_the_per_subject_rescaling(name):
    grid = grid_of(*NORMALIZE_CASES[name])
    got = outcome(lc.normalize_grid, grid)
    assert got == outcome(per_subject_normalize_grid, grid)
    if not isinstance(got[0], type):
        assert all(not t.flags.writeable
                   for t in lc.normalize_grid(grid).subject_times)


# Times from which a pattern is drawn: -0.0 and 0.0 are distinct patterns
# when they lead the same times, a gap of 1e-300 gives a spacing that no
# unit grid can hold.
PATTERN_TIMES = st.lists(
    st.sampled_from([-0.0, 0.0, 1e-300, 0.5, 1.0, 2.0, 3.0, 4.0, 6.5]),
    min_size=1, max_size=5, unique=True,
).map(sorted)


@st.composite
def shared_patterns(draw):
    """Subjects' times drawn, repeated and shuffled, from a few patterns of
    one or more times and of mixed lengths; every subject its own array."""
    pool = draw(st.lists(PATTERN_TIMES, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    return [np.array(pool[k], dtype=float) for k in picks]


@settings(max_examples=300, deadline=None)
@given(shared_patterns())
def test_the_pattern_table_matches_the_per_subject_scan(vectors):
    data = lc.RepeatedMeasuresData(
        lc.SubjectData(t, np.sin(np.arange(t.size) + i), np.ones((t.size, 1)))
        for i, t in enumerate(vectors)
    )
    table = data._patterns
    patterns, ids = per_subject_patterns(vectors)
    assert [t.tobytes() for t in table.times] == [t.tobytes() for t in patterns]
    assert table.ids.tolist() == ids
    assert table.first.tolist() == [ids.index(n) for n in range(len(patterns))]
    for p, (numbers, stack) in table.stacks.items():
        assert stack.shape == (numbers.size, p)
        rows = [patterns[n].tobytes() for n in numbers.tolist()]
        assert [row.tobytes() for row in stack] == rows == sorted(rows)
    groups = _Prepared(data).groups
    want = per_subject_prepared_groups(data)
    assert [[a.tobytes() for a in g] for g in groups] == [
        [a.tobytes() for a in g] for g in want]

    if all(t.size == 1 for t in vectors):
        assert table.extremes is None
        with pytest.raises(lc.DegenerateGrid):
            data.grid
        return
    assert table.extremes == per_subject_extremes(vectors)
    eager = lc.build_grid(vectors)
    grid = data.grid
    assert grid is data.grid
    assert [t.tobytes() for t in grid.subject_times] == [
        t.tobytes() for t in eager.subject_times]
    assert all(np.shares_memory(t, data.times) for t in grid.subject_times)
    assert (grid.d_min.hex(), grid.d_max.hex(), grid.spacing) == (
        eager.d_min.hex(), eager.d_max.hex(), None)
    reference = per_subject_special_case(eager)
    assert lc.check_special_case(grid) == reference
    assert _special_case(table, table.defined_extremes()[0]) == reference
    assert outcome(lc.normalize_grid, grid) == outcome(
        per_subject_normalize_grid, eager)


def test_normalize_grid_rejects_irregular_spacing():
    with pytest.raises(lc.NotSpecialCase):
        lc.normalize_grid(grid_of([1, 2, 4]))


# --------------------------------------------------------------------------
# parameter maps


def test_forward_map_examples():
    assert lc.map_lear_to_arma11(0.6, 2.0, 2.0) == (0.6, 0.6)
    assert lc.map_lear_to_arma11(0.5, 0.0, 3.0) == (0.5, 1.0)
    tau, rho_a = lc.map_lear_to_arma11(0.5, 3.0, 3.0)
    assert (tau, rho_a) == (0.5, 0.5)
    tau, rho_a = lc.map_lear_to_arma11(0.5, 15.0, 3.0)
    assert rho_a == 0.5 ** 5


def test_inverse_map_examples():
    assert lc.map_arma11_to_lear(0.6, 0.6, 2.0) == (0.6, 2.0)
    rho_l, delta = lc.map_arma11_to_lear(0.5, 1.0, 2.0)
    assert rho_l == 0.5 and delta == 0.0


def test_inverse_map_rejects_values_without_preimage():
    with pytest.raises(lc.OutsideLearImage):
        lc.map_arma11_to_lear(0.5, -0.3, 2.0)
    with pytest.raises(lc.OutsideLearImage):
        lc.map_arma11_to_lear(-0.2, 0.5, 2.0)
    with pytest.raises(lc.OutsideLearImage):
        lc.map_arma11_to_lear(1.0, 0.5, 2.0)
    with pytest.raises(lc.OutsideLearImage):
        lc.map_arma11_to_lear(0.5, 0.0, 2.0)


def test_tau_zero_is_unidentifiable():
    with pytest.raises(lc.Unidentifiable):
        lc.map_arma11_to_lear(0.0, 0.5, 2.0)


def test_rho_zero_maps_with_warning():
    with pytest.warns(lc.UnidentifiableWarning):
        assert lc.map_lear_to_arma11(0.0, 2.0, 3.0) == (0.0, 0.0)


def test_zero_range_is_degenerate():
    with pytest.raises(lc.DegenerateRange):
        lc.map_lear_to_arma11(0.5, 1.0, 0.0)
    with pytest.raises(lc.DegenerateRange):
        lc.map_arma11_to_lear(0.5, 0.5, 0.0)


@pytest.mark.parametrize("d_range", [math.inf, -math.inf, math.nan])
def test_a_non_finite_range_is_named_as_such(d_range):
    for mapping in (lc.map_lear_to_arma11, lc.map_arma11_to_lear):
        with pytest.raises(lc.DegenerateRange, match="must be finite and positive"):
            mapping(0.5, 0.5, d_range)


def test_two_point_grid_has_no_usable_range():
    g = grid_of([1, 2])
    with pytest.raises(lc.DegenerateRange):
        lc.lear_to_arma(lc.LearParams(1.0, 0.5, 1.0), g)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 1.0, exclude_max=True), st.floats(0.0, 8.0),
       st.floats(0.25, 20.0))
def test_forward_map_stays_in_image(rho_l, dfac, d_range):
    # dfac bounded so rho_l ** dfac stays above the underflow threshold;
    # mathematically the image never touches 0 but doubles do
    tau, rho_a = lc.map_lear_to_arma11(rho_l, dfac * d_range, d_range)
    assert 0.0 < tau < 1.0
    assert 0.0 < rho_a <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(0.01, 8.0), st.floats(0.25, 20.0))
def test_round_trip_recovers_parameters(rho_l, dfac, d_range):
    delta = dfac * d_range
    tau, rho_a = lc.map_lear_to_arma11(rho_l, delta, d_range)
    rho_back, delta_back = lc.map_arma11_to_lear(tau, rho_a, d_range)
    assert rho_back == rho_l
    assert delta_back == pytest.approx(delta, rel=1e-10)


# --------------------------------------------------------------------------
# grid-level wrappers


def test_lear_to_arma_yields_equal_covariance_on_normalized_grid():
    g = grid_of([1, 2, 3, 4, 5, 6])
    th = lc.LearParams(2.0, 0.6, 3.0)
    mapped = lc.lear_to_arma(th, g)
    cov_l = lc.lear_covariance(th, g, 0)
    cov_a = lc.arma11_covariance(mapped, 6)
    assert np.max(np.abs(cov_l - cov_a)) < 1e-12


def test_wrappers_interpret_parameters_in_spacing_units():
    # gap h=2: the normalized grid is 1..4, so delta counts gap multiples
    g = grid_of([2, 4, 6, 8])
    th = lc.LearParams(1.0, 0.5, 2.0)
    mapped = lc.lear_to_arma(th, g)
    norm = lc.normalize_grid(g)
    cov_l = lc.lear_covariance(th, norm, 0)
    cov_a = lc.arma11_covariance(mapped, 4)
    assert np.max(np.abs(cov_l - cov_a)) < 1e-12
    back = lc.arma_to_lear(mapped, g)
    assert back.rho_l == th.rho_l
    assert back.delta == pytest.approx(th.delta, rel=1e-12)


def test_wrappers_reject_irregular_grids():
    g = grid_of([1, 2, 4])
    with pytest.raises(lc.NotSpecialCase):
        lc.lear_to_arma(lc.LearParams(1.0, 0.5, 1.0), g)
    with pytest.raises(lc.NotSpecialCase):
        lc.arma_to_lear(lc.Arma11Params(1.0, 0.5, 0.5), g)


# --------------------------------------------------------------------------
# correlation readout


def test_correlation_at_distance_matches_matrix_entries():
    g = grid_of([1, 2, 3, 4, 5])
    for rho_l in (0.6, 0.0):
        th = lc.LearParams(1.0, rho_l, 4.0)
        corr = lc.lear_correlation(th, g, 0)
        for d in (1.0, 2.0, 3.0, 4.0):
            assert lc.correlation_at_distance(th, g, d) == corr[0, int(d)]


def test_correlation_at_distance_uses_original_scale_after_normalization():
    norm = lc.normalize_grid(grid_of([2, 4, 6]))
    th = lc.LearParams(1.0, 0.5, 1.0)
    # raw distance 4 is two gaps; on the normalized grid that separation has
    # exponent 1 + 1*(2-1)/(2-1) = 2
    assert lc.correlation_at_distance(th, norm, 4.0) == 0.25


def test_correlation_at_distance_rejects_sub_minimum_separation():
    g = grid_of([1, 2, 3])
    with pytest.raises(lc.InvalidParams):
        lc.correlation_at_distance(lc.LearParams(1.0, 0.5, 1.0), g, 0.5)
