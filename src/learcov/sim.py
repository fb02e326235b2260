"""Deterministic Gaussian repeated-measures simulation.

Each subject's response is y_i = X_i beta + L_i z_i with L_i the lower
Cholesky factor of the subject's covariance matrix and z_i independent
standard normals.

Reproducibility contract: subject i's normals come from a Philox4x64-10
counter generator keyed by the two 64-bit words (seed, i). Each raw 64-bit
word w becomes the uniform ((w >> 11) + 0.5) * 2**-53 as rounded in double
precision, except that the one value w >> 11 == 2**53 - 1, which rounds to
1.0, becomes 1 - 2**-53, the largest double below 1. Every uniform is thus
strictly inside (0, 1), and the standard normal inverse CDF maps it to a
finite draw. The stream therefore depends only on (seed, subject index),
never on how many subjects exist or in what order they are generated, so
identical specs give bit-identical datasets on any platform.

The inverse CDF is scipy.special.ndtri, imported inside standard_normals:
the data classes of this module are imported by every command, and only
simulation needs scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Arma11Params,
    LearParams,
    arma11_covariance,
    build_grid,
    cholesky_lower,
    lear_covariance,
    validated_times,
)
from .errors import InvalidGrid, InvalidParams, InvalidSize
from .estimation import RepeatedMeasuresData, SubjectData

__all__ = ["SimSpec", "simulate", "standard_normals"]

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


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words to uniforms strictly inside (0, 1).

    ((w >> 11) + 0.5) * 2**-53, with the top word, which rounds to 1.0,
    sent to 1 - 2**-53 instead; see the module reproducibility note.
    """
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


def standard_normals(seed: int, subject_index: int, n: int) -> np.ndarray:
    """Subject's standard normal draws; see the module reproducibility note."""
    from scipy.special import ndtri

    key = np.array([seed, subject_index], dtype=np.uint64)
    return ndtri(_uniforms(np.random.Philox(key=key).random_raw(n)))


@dataclass(frozen=True)
class SimSpec:
    """What to simulate.

    ``times`` holds one or more time templates; subject i uses template
    i mod len(times), so unbalanced designs cycle through the templates.
    ``design`` is "intercept", "intercept-time", or a sequence of explicit
    design matrices aligned with the templates. ``covariance`` decides the
    generating structure: LearParams builds distance-based matrices on the
    pooled grid of the realized subjects; Arma11Params builds position-based
    matrices.
    """

    n_subjects: int
    times: tuple
    beta: np.ndarray
    covariance: LearParams | Arma11Params
    seed: int
    design: str | tuple = "intercept"

    def __post_init__(self) -> None:
        if not isinstance(self.n_subjects, (int, np.integer)) or isinstance(
            self.n_subjects, bool
        ):
            raise InvalidSize("n_subjects must be an integer")
        if self.n_subjects < 1:
            raise InvalidSize("n_subjects must be at least 1")
        raw_times = self.times
        if isinstance(raw_times, np.ndarray) and raw_times.ndim == 1:
            raw_times = (raw_times,)
        try:
            templates = tuple(
                validated_times(t, f"time template {i}")
                for i, t in enumerate(raw_times)
            )
        except TypeError as exc:
            raise InvalidGrid("times must be a sequence of time templates") from exc
        if not templates:
            raise InvalidGrid("need at least one time template")
        object.__setattr__(self, "times", templates)
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size == 0 or not np.all(np.isfinite(beta)):
            raise InvalidSize("beta must be a nonempty finite 1-d array")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if not isinstance(self.covariance, (LearParams, Arma11Params)):
            raise InvalidParams(
                "covariance must be a LearParams or Arma11Params instance"
            )
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise InvalidParams("seed must be an integer")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise InvalidParams("seed must lie in [0, 2**64)")
        object.__setattr__(self, "seed", int(self.seed))
        design = self.design
        if isinstance(design, str):
            q = rule_design(design, templates[0]).shape[1]
        else:
            mats = tuple(np.array(m, dtype=float) for m in design)
            if len(mats) != len(templates):
                raise InvalidSize(
                    f"got {len(mats)} design matrices for {len(templates)} "
                    f"time templates"
                )
            q = None
            for i, (m, t) in enumerate(zip(mats, templates)):
                if m.ndim != 2 or m.shape[0] != t.size:
                    raise InvalidSize(
                        f"design matrix {i} has shape {m.shape}, expected "
                        f"({t.size}, q)"
                    )
                if not np.all(np.isfinite(m)):
                    raise InvalidSize(f"design matrix {i} contains non-finite values")
                if q is None:
                    q = m.shape[1]
                elif m.shape[1] != q:
                    raise InvalidSize("design matrices must share a column count")
                m.setflags(write=False)
            if q == 0:
                raise InvalidSize("design matrices need at least one column")
            object.__setattr__(self, "design", mats)
        if beta.size != q:
            raise InvalidSize(
                f"beta has length {beta.size} but the design has {q} columns"
            )

    def design_matrix(self, template_index: int) -> np.ndarray:
        if isinstance(self.design, str):
            return rule_design(self.design, self.times[template_index])
        return self.design[template_index]


def simulate(spec: SimSpec) -> RepeatedMeasuresData:
    """Draw a dataset from ``spec``; same spec, same bytes, every time."""
    n_templates = len(spec.times)
    subject_template = [i % n_templates for i in range(spec.n_subjects)]

    used = sorted(set(subject_template))
    factors: dict[int, np.ndarray] = {}
    if isinstance(spec.covariance, LearParams):
        grid = build_grid([spec.times[k] for k in used])
        for pos, k in enumerate(used):
            factors[k] = cholesky_lower(lear_covariance(spec.covariance, grid, pos))
    else:
        for k in used:
            factors[k] = cholesky_lower(
                arma11_covariance(spec.covariance, spec.times[k].size)
            )
    designs = {k: spec.design_matrix(k) for k in used}

    subjects = []
    for i, k in enumerate(subject_template):
        t = spec.times[k]
        X = designs[k]
        z = standard_normals(spec.seed, i, t.size)
        y = X @ spec.beta + factors[k] @ z
        subjects.append(SubjectData(t, y, X))
    return RepeatedMeasuresData(tuple(subjects))
