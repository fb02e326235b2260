"""Core types and matrix builders for the LEAR correlation family.

The linear exponent autoregressive (LEAR) model assigns measurements j and k
on the same subject, separated by distance d = |t_j - t_k|, the correlation

    rho_l ** (d_min + delta * (d - d_min) / (d_max - d_min))

where d_min and d_max are the smallest and largest distances pooled over all
subjects. The exponent interpolates linearly between d_min (at d = d_min) and
d_min + delta (at d = d_max), so delta controls how fast correlation decays
relative to the continuous-time AR(1) structure rho_l ** d:

    delta = 0                 compound symmetry, every off-diagonal rho_l ** d_min
    delta = d_max - d_min     AR(1), entry rho_l ** d
    delta -> infinity         MA(1)-like, only d = d_min entries survive

The companion ARMA(1,1) covariance uses measurement positions rather than
distances: entry (j, k) is sigma2 * tau * rho_a ** (|j - k| - 1) off the
diagonal and sigma2 on it.

Matrices returned here are dense, freshly allocated numpy arrays; callers may
mutate them freely. Positive definiteness is never silently repaired: a
Cholesky attempt either succeeds or raises NotPositiveDefinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateGrid,
    InvalidGrid,
    InvalidParams,
    InvalidSize,
    NotPositiveDefinite,
)

__all__ = [
    "MeasurementGrid",
    "LearParams",
    "Arma11Params",
    "build_grid",
    "validated_times",
    "lear_correlation",
    "lear_covariance",
    "arma11_covariance",
    "cholesky_lower",
    "validate_lear_values",
    "validate_arma11_values",
]


@dataclass(frozen=True, eq=False)
class MeasurementGrid:
    """Per-subject measurement times plus pooled distance extremes.

    ``subject_times`` holds one strictly increasing float vector per subject.
    ``d_min`` and ``d_max`` are the smallest and largest within-subject
    pairwise distances pooled over every subject (possibly widened by an
    explicit override at construction). ``spacing`` is populated by
    ``reparam.normalize_grid`` and records the common gap of the original
    grid; it is None for grids built directly from data.

    Use :func:`build_grid` to construct instances; it performs validation.
    """

    subject_times: tuple[np.ndarray, ...]
    d_min: float
    d_max: float
    spacing: float | None = None

    def __post_init__(self) -> None:
        # A writable input is copied before freezing, so the caller's array
        # stays writable; a read-only one is kept, so a grid can share the
        # validated times of the subjects it describes.
        frozen = []
        for t in self.subject_times:
            if t.flags.writeable:
                t = t.copy()
                t.setflags(write=False)
            frozen.append(t)
        object.__setattr__(self, "subject_times", tuple(frozen))

    @property
    def n_subjects(self) -> int:
        return len(self.subject_times)

    def n_measurements(self, subject_index: int) -> int:
        return len(self.subject_times[subject_index])

    @cached_property
    def _patterns(self) -> _Patterns:
        """The distinct time patterns of the subjects (see _Patterns)."""
        return _Patterns.of(self.subject_times)


def validated_times(seq, label: str = "times") -> np.ndarray:
    """Read-only float copy of one measurement-time vector.

    The copy leaves the caller's array writable. ``label`` names the vector
    in the error message.

    Raises:
        InvalidGrid: the times are not a nonempty, finite, strictly
            increasing 1-d sequence of numbers.
    """
    try:
        t = np.array(seq, dtype=float)
    except (TypeError, ValueError):
        raise InvalidGrid(f"{label} must be numbers") from None
    if t.ndim != 1 or t.size == 0:
        raise InvalidGrid(f"{label} must be a nonempty 1-d sequence")
    # Method forms and slices: numpy's function wrappers cost more than
    # the work on vectors this short.
    if not np.isfinite(t).all():
        raise InvalidGrid(f"{label} must be finite")
    if t.size > 1 and not (t[1:] > t[:-1]).all():
        raise InvalidGrid(f"{label} must be strictly increasing")
    t.setflags(write=False)
    return t


def build_grid(
    times_per_subject,
    d_min: float | None = None,
    d_max: float | None = None,
) -> MeasurementGrid:
    """Validate per-subject time vectors and pool the distance extremes.

    Args:
        times_per_subject: iterable of per-subject sequences of measurement
            times. Each must be finite and strictly increasing.
        d_min, d_max: optional overrides for the pooled extremes, for designs
            where the distance range is fixed a priori. An override must
            bracket the observed extremes (d_min at or below the observed
            minimum, d_max at or above the observed maximum) and be positive.

    Raises:
        InvalidGrid: empty input, non-finite or non-increasing times, or an
            override that fails its constraints.
        DegenerateGrid: no subject has two or more measurements, so no
            distance exists.
    """
    vectors = [
        validated_times(seq, f"subject {i}: times")
        for i, seq in enumerate(times_per_subject)
    ]
    if not vectors:
        raise InvalidGrid("grid needs at least one subject")
    return _pooled_grid(vectors, d_min, d_max)


class _Patterns:
    """The distinct time vectors of a set of subjects, found once with numpy.

    Built from flat times and subject offsets, as a dataset stores them.
    Subjects share a pattern when their times have the same bytes, so 0.0
    and -0.0 differ. Patterns are numbered by first appearance: ``first[n]``
    is the first subject with pattern n and ``ids[i]`` the pattern of
    subject i. ``stacks`` maps each length p, ascending, to the numbers
    (P,) and read-only times (P, p) of the patterns of that length, in the
    byte order of their times. ``extremes`` is the smallest gap and the
    largest span over the patterns with two or more times, or None when
    there is none.
    """

    def __init__(self, times: np.ndarray, offsets: np.ndarray) -> None:
        sizes = np.diff(offsets)
        found, firsts = [], []
        for p in np.flatnonzero(np.bincount(sizes)).tolist():
            members = np.flatnonzero(sizes == p)
            rows = times[offsets[members, None] + np.arange(p)]
            # np.unique sorts the rows as bytes. Asked for no index, it would
            # also import numpy.ma.
            _, at, inverse = np.unique(
                rows.view(np.dtype((np.void, rows.itemsize * p)))[:, 0],
                return_index=True, return_inverse=True,
            )
            found.append((p, members, rows[at], inverse))
            firsts.append(members[at])
        first = np.concatenate(firsts)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        self.first = first[order]
        self.ids = np.empty(sizes.size, dtype=np.intp)
        self.stacks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        start = 0
        for p, members, stack, inverse in found:
            numbers = number[start:start + len(stack)]
            start += len(stack)
            self.ids[members] = numbers[inverse]
            stack.setflags(write=False)
            self.stacks[p] = (numbers, stack)

    @classmethod
    def of(cls, vectors) -> "_Patterns":
        """The table of a sequence of 1-d float time vectors."""
        return cls(np.concatenate(vectors), np.cumsum([0, *map(len, vectors)]))

    @cached_property
    def times(self) -> tuple[np.ndarray, ...]:
        """Each pattern's times, in order of first appearance."""
        out = [None] * self.first.size
        for numbers, stack in self.stacks.values():
            for n, t in zip(numbers.tolist(), stack):
                out[n] = t
        return tuple(out)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # a span beyond floats is inf
    def extremes(self) -> tuple[float, float] | None:
        multi = [stack for p, (_, stack) in self.stacks.items() if p > 1]
        if not multi:
            return None
        return (float(min(np.diff(stack, axis=1).min() for stack in multi)),
                float(max((stack[:, -1] - stack[:, 0]).max() for stack in multi)))

    def defined_extremes(self) -> tuple[float, float]:
        """``extremes``, or DegenerateGrid when no distance is defined."""
        if self.extremes is None:
            raise DegenerateGrid(
                "every subject has a single measurement; no distance is defined"
            )
        return self.extremes


def _pooled_grid(
    vectors,
    d_min: float | None = None,
    d_max: float | None = None,
    patterns: _Patterns | None = None,
) -> MeasurementGrid:
    """Grid over already validated read-only time vectors, kept uncopied.

    Pools the distance extremes and checks the overrides as
    :func:`build_grid` documents; the vectors must come from
    :func:`validated_times` or an equivalent check. ``patterns`` is the
    vectors' pattern table when the caller has it, and becomes the grid's.
    """
    if patterns is None:
        patterns = _Patterns.of(vectors)
    observed_min, observed_max = patterns.defined_extremes()

    if d_min is None:
        d_min = observed_min
    elif not (0.0 < d_min <= observed_min):
        raise InvalidGrid(
            f"d_min override {d_min!r} must be positive and at most the "
            f"observed minimum distance {observed_min!r}"
        )
    if d_max is None:
        d_max = observed_max
    elif d_max < observed_max:
        raise InvalidGrid(
            f"d_max override {d_max!r} must be at least the observed "
            f"maximum distance {observed_max!r}"
        )
    grid = MeasurementGrid(tuple(vectors), float(d_min), float(d_max))
    grid.__dict__["_patterns"] = patterns  # the cached property, found already
    return grid


def validate_lear_values(sigma2: float, rho_l: float, delta: float) -> list[str]:
    """Return the list of constraint violations, empty when all hold."""
    violations = []
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        violations.append(f"sigma2 must be finite and positive (got {sigma2!r})")
    if not (math.isfinite(rho_l) and 0.0 <= rho_l < 1.0):
        violations.append(f"rho_l must satisfy 0 <= rho_l < 1 (got {rho_l!r})")
    if not (math.isfinite(delta) and delta >= 0.0):
        violations.append(f"delta must be finite and nonnegative (got {delta!r})")
    return violations


def validate_arma11_values(sigma2: float, tau: float, rho_a: float) -> list[str]:
    """Return constraint violations for the (wider) ARMA(1,1) space.

    Negative tau or rho_a values are representable so that fitting can search
    the full box, but such points lie outside the image of the LEAR map; see
    ``reparam.arma_to_lear``.
    """
    violations = []
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        violations.append(f"sigma2 must be finite and positive (got {sigma2!r})")
    if not (math.isfinite(tau) and -1.0 < tau < 1.0):
        violations.append(f"tau must satisfy -1 < tau < 1 (got {tau!r})")
    if not (math.isfinite(rho_a) and -1.0 <= rho_a <= 1.0):
        violations.append(f"rho_a must satisfy -1 <= rho_a <= 1 (got {rho_a!r})")
    return violations


def _coerce(params, validate) -> None:
    """Make each field of frozen ``params`` a float, then raise InvalidParams
    naming every violation ``validate`` finds."""
    for name in params.__dataclass_fields__:
        try:
            object.__setattr__(params, name, float(getattr(params, name)))
        except (TypeError, ValueError):
            raise InvalidParams(f"{name} must be a real number") from None
    violations = validate(*vars(params).values())
    if violations:
        raise InvalidParams("; ".join(violations))


@dataclass(frozen=True)
class LearParams:
    """Equal-variance LEAR parameters (sigma2, rho_l, delta).

    Constraints: sigma2 > 0, 0 <= rho_l < 1, delta >= 0. Negative delta
    would make correlation grow with distance; it is excluded.
    """

    sigma2: float
    rho_l: float
    delta: float

    def __post_init__(self) -> None:
        _coerce(self, validate_lear_values)


@dataclass(frozen=True)
class Arma11Params:
    """Equal-variance ARMA(1,1) parameters (sigma2, tau, rho_a).

    The image of the LEAR map has 0 <= tau < 1 and 0 < rho_a <= 1; the wider
    box (-1, 1) x [-1, 1] is accepted so general ARMA fits are representable.
    """

    sigma2: float
    tau: float
    rho_a: float

    def __post_init__(self) -> None:
        _coerce(self, validate_arma11_values)

    @property
    def in_lear_image(self) -> bool:
        # tau == 0 is the identity matrix; rho_a is then a convention.
        return self.tau == 0.0 or (0.0 <= self.tau and 0.0 < self.rho_a <= 1.0)


def _lear_corr(
    rho_l, delta, times: np.ndarray, d_min: float, d_max: float
) -> np.ndarray:
    """Unit-diagonal LEAR correlation matrices from raw values (no validation).

    ``times`` may carry leading batch dimensions: times of shape (..., p)
    give matrices of shape (..., p, p), each entry computed as for one
    vector alone. ``rho_l`` and ``delta`` are numbers, or K-vectors of
    parameter points that add a leading axis: shape (K, ..., p, p).
    """
    t = np.asarray(times, dtype=float)
    d = np.abs(t[..., :, None] - t[..., None, :])
    diag = np.arange(t.shape[-1])
    # Diagonal distances are patched to d_min so the exponent stays benign
    # there; the diagonal is overwritten with 1 afterwards.
    d[..., diag, diag] = d_min
    corr = _lear_power(rho_l, delta, d, d_min, d_max)
    corr[..., diag, diag] = 1.0
    return corr


def _lear_power(rho_l, delta, d: np.ndarray, d_min: float, d_max: float):
    """The LEAR correlation at each distance (at least d_min) of array ``d``.

    ``rho_l`` and ``delta`` are numbers, or K-vectors of parameter points
    that add a leading axis: shape (K, *d.shape).
    """
    point = (...,) + (None,) * d.ndim
    delta = np.asarray(delta, dtype=float)[point]
    if d_max > d_min:
        exponent = d_min + delta * (d - d_min) / (d_max - d_min)
    else:
        # Zero range: every distance equals d_min and delta has no effect.
        exponent = np.full(np.broadcast_shapes(delta.shape, d.shape), d_min)
    # Every exponent is at least d_min > 0, so rho_l = 0 gives 0. Each
    # point's rho_l is broadcast, not copied, so power reads its base with
    # stride 0 as for a single number: a contiguous base may take another
    # SIMD loop, whose last bits can differ.
    return np.power(np.asarray(rho_l, dtype=float)[point], exponent)


def _arma11_corr(tau, rho_a, p: int) -> np.ndarray:
    """Unit-diagonal ARMA(1,1) correlation matrix from raw values.

    ``tau`` and ``rho_a`` are numbers, or K-vectors of parameter points
    giving matrices of shape (K, p, p).
    """
    lag = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    np.fill_diagonal(lag, 1)
    corr = _arma11_power(tau, rho_a, lag)
    diag = np.arange(p)
    corr[..., diag, diag] = 1.0
    return corr


def _arma11_power(tau, rho_a, lag: np.ndarray) -> np.ndarray:
    """tau * rho_a ** (lag - 1) at each lag (at least 1) of array ``lag``,
    with parameter points as in _lear_power."""
    point = (...,) + (None,) * lag.ndim
    tau = np.asarray(tau, dtype=float)[point]
    rho_a = np.asarray(rho_a, dtype=float)[point]
    # Whole exponents keep negative rho_a well defined. They are passed as
    # floats, so no cast buffers (and copies) the broadcast base.
    return tau * np.power(rho_a, (lag - 1).astype(float))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def lear_correlation(
    params: LearParams, grid: MeasurementGrid, subject_index: int = 0
) -> np.ndarray:
    """LEAR correlation matrix for one subject of the grid.

    Entry (j, k) is rho_l ** (d_min + delta * (d - d_min) / (d_max - d_min))
    with d = |t_j - t_k|, and 1 on the diagonal. When d_max equals d_min the
    interpolation fraction is taken as zero, so every off-diagonal entry is
    rho_l ** d_min and delta is inert.
    """
    if not _is_integer(subject_index):
        raise InvalidSize(
            f"subject_index must be an integer (got {subject_index!r})"
        )
    if not (0 <= subject_index < grid.n_subjects):
        raise InvalidSize(
            f"subject_index {subject_index} out of range for "
            f"{grid.n_subjects} subjects"
        )
    times = grid.subject_times[subject_index]
    # A delta near the float limit can overflow the exponent to inf, and
    # rho_l ** inf is 0, the entry's limit.
    with np.errstate(over="ignore"):
        return _lear_corr(params.rho_l, params.delta, times, grid.d_min, grid.d_max)


def lear_covariance(
    params: LearParams, grid: MeasurementGrid, subject_index: int = 0
) -> np.ndarray:
    """Equal-variance LEAR covariance: sigma2 times the correlation matrix."""
    return params.sigma2 * lear_correlation(params, grid, subject_index)


def arma11_covariance(params: Arma11Params, p: int) -> np.ndarray:
    """ARMA(1,1) covariance for p measurements indexed by position.

    Entry (j, k) is sigma2 * tau * rho_a ** (|j - k| - 1) for j != k and
    sigma2 on the diagonal. Positions, not times, define the lag, so this
    structure is meaningful when measurements sit on a unit-spaced grid.
    """
    if not _is_integer(p) or p < 1:
        raise InvalidSize(f"matrix size must be a positive integer (got {p!r})")
    return params.sigma2 * _arma11_corr(params.tau, params.rho_a, p)


def cholesky_lower(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, raising NotPositiveDefinite on failure.

    No regularization is applied: a failed factorization means the input is
    not positive definite at working precision, which signals out-of-space
    parameters or a bug rather than something to paper over.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidSize(f"expected a square matrix, got shape {a.shape}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
