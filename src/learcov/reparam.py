"""Exact maps between LEAR and ARMA(1,1) parameterizations.

The two structures coincide on grids in canonical form: a single common gap
between consecutive measurements for every subject, integer distances after
dividing by that gap, and a unit minimum distance. On such grids, with
R = d_max - d_min and delta_d = delta / R,

    tau   = rho_l
    rho_a = rho_l ** delta_d

reproduces the LEAR covariance entry for entry exactly, and the inverse is

    rho_l = tau
    delta = R * ln(rho_a) / ln(tau).

Both maps measure distances in spacing units (the canonical form). A grid
with common gap h is first normalized, which rescales distances by 1/h; the
returned parameters describe correlations at integer lags on that normalized
grid. Fitted values on differently scaled grids are therefore not directly
comparable; use :func:`correlation_at_distance` to read off correlations on
the original scale instead of comparing raw parameters. On a grid of the
original times, and on its normalized grid at a separation of two of its
times, it equals the entry of ``lear_correlation`` for that pair bit for
bit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Arma11Params,
    LearParams,
    MeasurementGrid,
    _lear_power,
    _Patterns,
    _pooled_grid,
    validate_lear_values,
    validated_times,
)
from .errors import (
    DegenerateRange,
    InvalidParams,
    NotSpecialCase,
    OutsideLearImage,
    Unidentifiable,
    UnidentifiableWarning,
)
from .plain import DEFAULT_REL_TOL, _whole

__all__ = [
    "SpecialCaseReport",
    "check_special_case",
    "normalize_grid",
    "map_lear_to_arma11",
    "map_arma11_to_lear",
    "lear_to_arma",
    "arma_to_lear",
    "correlation_at_distance",
]


@dataclass(frozen=True)
class SpecialCaseReport:
    """Eligibility flags for the ARMA(1,1) reparameterization.

    ``spacing`` is the common consecutive gap h when one exists, else None.
    ``integer_distances`` and ``dmin_is_one`` are judged after dividing by h
    when spacing exists, otherwise on the raw distances. ``eligible`` is the
    conjunction of the three flags. The fields are plain.FLAGS, in order.
    """

    equally_spaced: bool
    integer_distances: bool
    dmin_is_one: bool
    spacing: float | None
    eligible: bool


def check_special_case(
    grid: MeasurementGrid, rel_tol: float = DEFAULT_REL_TOL
) -> SpecialCaseReport:
    """Report whether the grid admits the exact ARMA(1,1) reparameterization.

    The flags depend only on the distinct time patterns, so each pattern is
    checked once however many subjects share it. The first subject with two
    measurements fixes the gap h that every other gap is compared with.
    """
    return SpecialCaseReport(*_special_case(grid._patterns, grid.d_min, rel_tol))


# Patterns whose distances are checked at once: bounds the temporaries
# whatever the number of patterns.
_CHECK_CHUNK = 1 << 12


@np.errstate(over="ignore", invalid="ignore")  # a span beyond floats is inf
def _special_case(
    patterns: _Patterns, d_min: float, rel_tol: float = DEFAULT_REL_TOL
) -> tuple:
    """The flags of check_special_case, in plain.FLAGS order, of a grid with
    pattern table ``patterns``.

    plain._special_case is its port to Python floats.
    """
    stacks = [stack for p, stack in patterns.stacks.items() if p > 1]
    # The first subject with two times has the lowest-numbered such pattern.
    numbers, stack = min(stacks, key=lambda s: s[0].min())
    first = stack[numbers.argmin()]
    h = float(first[1] - first[0])
    gaps = np.concatenate([np.diff(stack, axis=1).ravel() for _, stack in stacks])
    equally_spaced = bool(np.all(np.abs(gaps - h) <= rel_tol * abs(h)))

    scale = h if equally_spaced else 1.0
    integer_distances = all(
        _whole_distances(stack[lo:lo + _CHECK_CHUNK], scale, rel_tol)
        for _, stack in stacks
        for lo in range(0, len(stack), _CHECK_CHUNK)
    )
    scaled_dmin = d_min / scale
    dmin_is_one = abs(scaled_dmin - 1.0) <= rel_tol

    return (equally_spaced, integer_distances, dmin_is_one,
            h if equally_spaced else None,
            equally_spaced and integer_distances and dmin_is_one)


def _whole_distances(stack: np.ndarray, scale: float, rel_tol: float) -> bool:
    """Whether every within-row distance of ``stack`` is a whole number of
    ``scale``."""
    j, k = np.triu_indices(stack.shape[1], k=1)
    s = (stack[:, k] - stack[:, j]) / scale
    return bool(np.all(np.abs(s - np.round(s)) <= rel_tol * np.maximum(1.0, np.abs(s))))


def normalize_grid(
    grid: MeasurementGrid, rel_tol: float = DEFAULT_REL_TOL
) -> MeasurementGrid:
    """Rescale an equally spaced grid to exact unit gaps.

    Each subject's times become consecutive integers anchored at
    round(t_0 / h), which preserves every within-subject distance (now an
    exact integer count of gaps) while dropping sub-gap offsets that no
    distance depends on. The common gap is recorded on the result's
    ``spacing`` field. Each distinct time vector is rescaled once, and
    subjects that share it share the read-only result.

    Raises NotSpecialCase when the grid has no common gap.
    """
    report = check_special_case(grid, rel_tol)
    if not report.equally_spaced:
        raise NotSpecialCase("consecutive gaps differ; no common spacing exists")
    h = report.spacing
    patterns = grid._patterns
    unit = _unit_times(patterns, h)
    return replace(_pooled_grid([unit[n] for n in patterns.ids.tolist()]), spacing=h)


def _unit_times(patterns: _Patterns, h: float) -> list[np.ndarray]:
    """Each pattern's times on the unit grid of normalize_grid, read-only.

    Validated as build_grid would: a huge anchor can swallow the unit steps
    or overflow. Patterns go in order of first appearance, so the first
    subject that fails is named.
    """
    with np.errstate(over="ignore"):
        return [
            validated_times(float(np.round(t[0] / h)) + np.arange(t.size, dtype=float),
                            f"subject {i}: times")
            for i, t in zip(patterns.first.tolist(), patterns.times)
        ]


def _canonical_range(grid: MeasurementGrid) -> float:
    """Distance range of the grid in spacing units, validated for the maps."""
    report = check_special_case(grid)
    if not report.eligible:
        raise NotSpecialCase(
            "grid is not reducible to unit-spaced integer distances: "
            f"equally_spaced={report.equally_spaced}, "
            f"integer_distances={report.integer_distances}, "
            f"dmin_is_one={report.dmin_is_one}"
        )
    d_min, d_max = _Patterns.of(_unit_times(grid._patterns, report.spacing)).extremes
    return d_max - d_min


def _check_range(d_range: float) -> None:
    """DegenerateRange unless the range both maps divide by is usable."""
    if not (math.isfinite(d_range) and d_range > 0.0):
        raise DegenerateRange(
            f"distance range must be finite and positive (got {d_range!r})")


def map_lear_to_arma11(rho_l: float, delta: float, d_range: float) -> tuple[float, float]:
    """Forward map on raw values: (rho_l, delta) to (tau, rho_a).

    ``d_range`` is d_max - d_min in spacing units, finite and positive;
    ``rho_l`` and ``delta`` are held to the constraints of LearParams.
    """
    _check_range(d_range)
    violations = validate_lear_values(1.0, rho_l, delta)  # names no sigma2
    if violations:
        raise InvalidParams("; ".join(violations))
    if rho_l == 0.0:
        warnings.warn(
            "rho_l = 0 gives the identity correlation; rho_a is unidentifiable "
            "and returned as 0 by convention",
            UnidentifiableWarning,
            stacklevel=2,
        )
        return 0.0, 0.0
    return rho_l, rho_l ** (delta / d_range)


def map_arma11_to_lear(tau: float, rho_a: float, d_range: float) -> tuple[float, float]:
    """Inverse map on raw values: (tau, rho_a) to (rho_l, delta)."""
    _check_range(d_range)
    if tau == 0.0:
        raise Unidentifiable(
            "tau = 0 gives the identity correlation; rho_l is 0 but delta "
            "is unidentifiable"
        )
    if not (0.0 < tau < 1.0) or not (0.0 < rho_a <= 1.0):
        raise OutsideLearImage(
            f"(tau={tau!r}, rho_a={rho_a!r}) is outside the image "
            "0 < tau < 1, 0 < rho_a <= 1 of the forward map"
        )
    return tau, d_range * math.log(rho_a) / math.log(tau)


def lear_to_arma(params: LearParams, grid: MeasurementGrid) -> Arma11Params:
    """Map LEAR parameters to the ARMA(1,1) parameters with equal covariance.

    The grid must be eligible (see :func:`check_special_case`); parameters
    are interpreted on its normalized form, where the returned parameters
    satisfy arma11_covariance == lear_covariance entry for entry.
    """
    d_range = _canonical_range(grid)
    tau, rho_a = map_lear_to_arma11(params.rho_l, params.delta, d_range)
    return Arma11Params(params.sigma2, tau, rho_a)


def arma_to_lear(params: Arma11Params, grid: MeasurementGrid) -> LearParams:
    """Inverse of :func:`lear_to_arma` on the same grid."""
    d_range = _canonical_range(grid)
    rho_l, delta = map_arma11_to_lear(params.tau, params.rho_a, d_range)
    return LearParams(params.sigma2, rho_l, delta)


def correlation_at_distance(
    params: LearParams, grid: MeasurementGrid, distance: float
) -> float:
    """Model correlation at a separation given on the grid's original scale.

    For a normalized grid the recorded spacing converts the requested
    distance into spacing units first, so parameters fitted after
    normalization can be read out against original-scale separations.
    There a distance within DEFAULT_REL_TOL of a whole number of spacings is
    taken as that number, as normalize_grid rounds each time, so the
    separation of two times of the data gives its matrix entry.
    The distance must be at least one minimum distance; below that the
    exponent is extrapolated outside the model's domain.
    """
    h = grid.spacing if grid.spacing is not None else 1.0
    d = distance / h
    if grid.spacing is not None and _whole(d, DEFAULT_REL_TOL):
        d = float(round(d))
    if not (math.isfinite(d) and d >= grid.d_min):
        raise InvalidParams(
            f"distance {distance!r} is below the minimum distance "
            f"{grid.d_min * h!r} on the original scale"
        )
    # lear_correlation's formula and overflow rule: rho_l ** inf is 0.
    with np.errstate(over="ignore"):
        return float(_lear_power(params.rho_l, params.delta, np.array([d]),
                                 grid.d_min, grid.d_max)[0])
