"""The types a command names before any numerics run.

The dataset (SubjectData, RepeatedMeasuresData), the fit settings
(FitOptions) and the choices a command offers (PARAMETERIZATIONS, CRITERIA,
and the design rules DESIGN_RULES with rule_design) live here, apart from
the estimation and simulation code that uses them. Reading a CSV, writing
one or checking its grid thus loads neither: this module needs only numpy,
core and errors. estimation and sim import these names back, so they also
resolve there. A dataset keeps its estimation workspace once it is built
(``RepeatedMeasuresData._prepared``); estimation is imported only then.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import pairwise

import numpy as np

from .core import MeasurementGrid, _Patterns, _pooled_grid, validated_times
from .errors import InvalidParams, InvalidSize

__all__ = [
    "SubjectData",
    "RepeatedMeasuresData",
    "FitOptions",
    "PARAMETERIZATIONS",
    "CRITERIA",
    "DESIGN_RULES",
    "rule_design",
]

PARAMETERIZATIONS = ("lear", "arma11")
CRITERIA = ("ml", "reml")

DESIGN_RULES = ("intercept", "intercept-time")


def rule_design(rule: str, times: np.ndarray) -> np.ndarray:
    """Design matrix that the named rule in DESIGN_RULES gives at ``times``.

    "intercept" is one constant column; "intercept-time" adds the times.
    """
    if rule == "intercept":
        return np.ones((times.size, 1))
    if rule == "intercept-time":
        return np.column_stack([np.ones(times.size), times])
    raise InvalidParams(f"design must be one of {DESIGN_RULES} (got {rule!r})")


@dataclass(frozen=True, eq=False)
class SubjectData:
    """One subject's measurement times, responses, and design rows."""

    times: np.ndarray
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self) -> None:
        t = validated_times(self.times)
        # Private copies, so freezing them leaves the caller's arrays alone.
        y = np.array(self.y, dtype=float)
        X = np.array(self.X, dtype=float)
        if y.shape != t.shape:
            raise InvalidSize(f"y has shape {y.shape}, expected {t.shape}")
        if X.ndim != 2 or X.shape[0] != t.size:
            raise InvalidSize(f"X has shape {X.shape}, expected ({t.size}, q)")
        if not (np.isfinite(y).all() and np.isfinite(X).all()):
            raise InvalidSize("y and X must be finite")
        for name, arr in (("times", t), ("y", y), ("X", X)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.times.size

    @classmethod
    def _view(cls, times, y, X) -> "SubjectData":
        """Subject over already validated read-only arrays, kept uncopied."""
        s = cls.__new__(cls)
        for name, arr in (("times", times), ("y", y), ("X", X)):
            object.__setattr__(s, name, arr)
        return s


@dataclass(frozen=True, init=False, eq=False)
class RepeatedMeasuresData:
    """Independent subjects with a common fixed-effects design width.

    Stored by column: every subject's measurement times, responses and
    design rows lie end to end in the read-only arrays ``times`` (n_obs,),
    ``y`` (n_obs,) and ``X`` (n_obs, q), and subject i owns the rows
    offsets[i]:offsets[i + 1]. ``subjects`` gives the same data as one
    SubjectData per subject, and ``grid`` the times as a MeasurementGrid;
    both are views of these arrays built on first access.

    Subjects may have different numbers of measurements; missing visits
    simply shorten a subject's rows (no imputation happens anywhere). The
    design's rank is left to estimation, the one step that needs it full.
    """

    times: np.ndarray
    y: np.ndarray
    X: np.ndarray
    offsets: np.ndarray

    def __init__(self, subjects) -> None:
        subjects = tuple(subjects)
        if not subjects:
            raise InvalidSize("data needs at least one subject")
        q = subjects[0].X.shape[1]
        if q == 0:
            raise InvalidSize("design matrix needs at least one column")
        for i, s in enumerate(subjects):
            if s.X.shape[1] != q:
                raise InvalidSize(
                    f"subject {i} has {s.X.shape[1]} design columns, expected {q}"
                )
        self._fill(
            np.concatenate([s.times for s in subjects]),
            np.concatenate([s.y for s in subjects]),
            np.vstack([s.X for s in subjects]),
            np.cumsum([0, *(s.p for s in subjects)]),
        )

    @classmethod
    def _from_columns(cls, times, y, X, offsets) -> "RepeatedMeasuresData":
        """Dataset over flat columns, with no per-subject objects.

        The caller vouches for what SubjectData would check: each subject's
        times are finite and strictly increasing, y and X are finite floats
        of matching lengths, and X has at least one column. The arrays are
        frozen in place, not copied.
        """
        data = cls.__new__(cls)
        data._fill(times, y, X, offsets)
        return data

    def _fill(self, times, y, X, offsets) -> None:
        for name, arr in (("times", times), ("y", y), ("X", X), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @cached_property
    def subjects(self) -> tuple[SubjectData, ...]:
        """One SubjectData per subject, views of the columns."""
        return tuple(
            SubjectData._view(self.times[a:b], self.y[a:b], self.X[a:b])
            for a, b in pairwise(self.offsets.tolist())
        )

    @cached_property
    def _patterns(self) -> _Patterns:
        """The subjects' distinct time patterns, found once per dataset."""
        return _Patterns(self.times, self.offsets)

    @cached_property
    def _prepared(self):
        """The estimation workspace, shared by every fit of the dataset."""
        from .estimation import _Prepared

        return _Prepared(self)

    @cached_property
    def grid(self) -> MeasurementGrid:
        """The measurement grid, built on first access.

        Its times are views of the frozen flat times, so it copies nothing.
        """
        times = [self.times[a:b] for a, b in pairwise(self.offsets.tolist())]
        return _pooled_grid(times, patterns=self._patterns)

    @property
    def n_subjects(self) -> int:
        return self.offsets.size - 1

    @property
    def n_obs(self) -> int:
        return int(self.offsets[-1])

    @property
    def q(self) -> int:
        return self.X.shape[1]


# The values a FitOptions field of each type accepts, and their name.
_FIELD_TYPES = {
    bool: ((bool, np.bool_), "a bool"),
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a finite real number"),
}


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the grid scan and the Nelder-Mead refinement.

    ``rho_cap`` bounds rho-type parameters away from 1. ``delta_cap_factor``
    times the distance range caps delta; the likelihood flattens as delta
    grows, so the cap ends the search and is reported through boundary flags
    instead of being treated as an interior optimum. ``allow_negative``
    widens the ARMA(1,1) box to (-rho_cap, rho_cap) for both parameters and
    is ignored for the LEAR parameterization. ``boundary_tol`` is relative to
    each box width. Each field takes values of its default's type, numpy
    scalars included, and keeps them as that type; floats must be finite.
    ``grid_points`` is at most 201, which bounds the scan at 40 401
    evaluations.
    """

    grid_points: int = 21
    rho_cap: float = 0.99
    delta_cap_factor: float = 5.0
    max_iterations: int = 400
    tolerance: float = 1e-10
    allow_negative: bool = False
    boundary_tol: float = 1e-6

    def __post_init__(self) -> None:
        # Types first, so the ranges below compare numbers.
        problems = []
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            accepts, name = _FIELD_TYPES[kind]
            try:
                # bool is an int to Python, but not a number here.
                ok = (isinstance(value, accepts) and math.isfinite(value)
                      and isinstance(value, (bool, np.bool_)) == (kind is bool))
            except OverflowError:  # an integer beyond the float range
                ok = False
            if ok:
                object.__setattr__(self, f.name, kind(value))
            else:
                problems.append(f"{f.name} must be {name} (got {value!r})")
        if problems:
            raise InvalidParams("; ".join(problems))
        if not (2 <= self.grid_points <= 201):
            problems.append("grid_points must be in [2, 201]")
        if not (0.0 < self.rho_cap < 1.0):
            problems.append("rho_cap must be in (0, 1)")
        if not (self.delta_cap_factor > 0.0):
            problems.append("delta_cap_factor must be positive")
        if self.max_iterations < 1:
            problems.append("max_iterations must be at least 1")
        if not (self.tolerance > 0.0):
            problems.append("tolerance must be positive")
        if not (0.0 < self.boundary_tol < 0.5):
            problems.append("boundary_tol must be in (0, 0.5)")
        if problems:
            raise InvalidParams("; ".join(problems))
