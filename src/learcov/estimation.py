"""Profile likelihood estimation for LEAR and ARMA(1,1) covariance models.

Model: y_i = X_i beta + e_i with e_i ~ N(0, sigma2 * Gamma_i(theta)), subjects
independent, Gamma_i a unit-diagonal correlation matrix built either from the
LEAR structure (theta = (rho_l, delta), distances from the measurement grid)
or from the ARMA(1,1) structure (theta = (tau, rho_a), integer position lags).

For fixed theta both beta and sigma2 profile out in closed form:

    beta_hat   = (sum_i X_i' G_i^-1 X_i)^-1 sum_i X_i' G_i^-1 y_i
    sigma2_hat = sum_i r_i' G_i^-1 r_i / M,   r_i = y_i - X_i beta_hat

with M = sum_i p_i for ML and M - q for REML. The REML objective additionally
subtracts 0.5 * log det(sum_i X_i' (sigma2_hat G_i)^-1 X_i). Every solve goes
through a Cholesky factor of G_i; log determinants come from the factor's
diagonal. Failure to factor raises NotPositiveDefinite rather than being
repaired.

Numerical policy: subjects sharing a time pattern share one correlation
matrix G, so with Z_i = [X_i | y_i] their whole contribution is

    sum_i Z_i' G^-1 Z_i = sum_jk (G^-1)_jk C_jk,   C = sum_i Z_i (x) Z_i

(the pattern grouping of Jennrich and Schluchter, 1986). The per-pattern
tensor C is built once per dataset, each entry an exactly rounded sum
(math.fsum) of per-subject products. One evaluation factors one G per
pattern, batched over the patterns of equal length, so its cost grows with
the number of distinct time patterns, not with the number of subjects; with
per-subject times every subject is its own pattern. Pattern terms and log
determinants are again summed exactly across patterns, so results are
bit-identical under any reordering of the subjects. The responses are
centred on an identity-weight least-squares fit beta0 before C is built: the
residual quadratic form is then a difference of small numbers rather than
of two large ones, which keeps it accurate near a perfect fit.

Optimization is a coarse grid scan over the (rho-type, second-parameter) box
followed by Nelder-Mead refinement on transformed coordinates (logit for
rho-type parameters, log for delta). The refined point is only accepted if it
does not fall below the best grid point, so the scan provides a floor.

This module does not use scipy: loading scipy.optimize, scipy.special and
scipy.linalg took about half the wall time of a CLI fit on 3000 subjects,
for about a hundred simplex steps and a few q x q solves. The refinement is
a port of scipy's default Nelder-Mead (_nelder_mead), the solves are
substitutions that round as the BLAS kernels behind scipy.linalg do, and
expit/logit use libm through math, so fits take the same steps and give
the same bits as with scipy (for designs of up to 7 columns).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from .core import (
    Arma11Params,
    LearParams,
    MeasurementGrid,
    _arma11_corr,
    _lear_corr,
    arma11_covariance,
    _pooled_grid,
    lear_covariance,
    validate_arma11_values,
    validate_lear_values,
    validated_times,
)
from .errors import (
    DegenerateGrid,
    DegenerateRange,
    FitFailed,
    InvalidParams,
    InvalidSize,
    NotPositiveDefinite,
    NotSpecialCase,
    OutsideLearImage,
    RankDeficient,
    SingularFit,
    Unidentifiable,
)
from . import reparam

__all__ = [
    "SubjectData",
    "RepeatedMeasuresData",
    "ProfileEstimates",
    "profile_estimates",
    "profile_loglik",
    "FitOptions",
    "FitResult",
    "fit",
    "ComparisonReport",
    "compare_parameterizations",
]

PARAMETERIZATIONS = ("lear", "arma11")
CRITERIA = ("ml", "reml")


@dataclass(frozen=True)
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
    SubjectData per subject, views of these arrays built on first access.

    The stacked design matrix must have full column rank q. Subjects may have
    different numbers of measurements; missing visits simply shorten a
    subject's rows (no imputation happens anywhere).
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
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise RankDeficient(
                f"stacked design matrix has rank below its {X.shape[1]} columns"
            )
        if (np.diff(offsets) > 1).any():
            # Views of the frozen flat times; the grid copies nothing.
            g = _pooled_grid([times[a:b] for a, b in self._bounds()])
        else:
            g = None
        object.__setattr__(self, "_grid", g)

    def _bounds(self) -> list[tuple[int, int]]:
        """(start, stop) of each subject's rows, in subject order."""
        return list(pairwise(self.offsets.tolist()))

    @cached_property
    def subjects(self) -> tuple[SubjectData, ...]:
        """One SubjectData per subject, views of the columns."""
        return tuple(
            SubjectData._view(self.times[a:b], self.y[a:b], self.X[a:b])
            for a, b in self._bounds()
        )

    @property
    def grid(self) -> MeasurementGrid:
        if self._grid is None:
            raise DegenerateGrid(
                "every subject has a single measurement; no distance is defined"
            )
        return self._grid

    @property
    def n_subjects(self) -> int:
        return self.offsets.size - 1

    @property
    def n_obs(self) -> int:
        return int(self.offsets[-1])

    @property
    def q(self) -> int:
        return self.X.shape[1]

    def with_subject_times(self, new_times) -> "RepeatedMeasuresData":
        """Copy of the data with replaced measurement times, y and X intact.

        Each distinct vector object is validated once, however many
        subjects share it.
        """
        new_times = tuple(new_times)
        if len(new_times) != self.n_subjects:
            raise InvalidSize("need one time vector per subject")
        checked: dict[int, np.ndarray] = {}
        columns = []
        for (a, b), t in zip(self._bounds(), new_times):
            if id(t) not in checked:
                checked[id(t)] = validated_times(t)
            t = checked[id(t)]
            if t.size != b - a:
                raise InvalidSize(f"y has shape {(b - a,)}, expected {t.shape}")
            columns.append(t)
        return RepeatedMeasuresData._from_columns(
            np.concatenate(columns), self.y, self.X, self.offsets
        )


# --------------------------------------------------------------------------
# profile likelihood


class _Prepared:
    """Per-dataset workspace: sufficient statistics per time pattern.

    Subjects are grouped by their time vector (a pattern), and patterns by
    their length p. ``groups`` holds, for each length, the patterns' times
    stacked as (P, p), their subject counts m as (P,), and their
    cross-product tensors C as (P, p * p, (q+1) * (q+1)), where
    C[n, j*p + k, a*(q+1) + b] = sum_i Z_i[j, a] Z_i[k, b] over the subjects
    of pattern n, with Z_i = [X_i | y_i - X_i beta0]. Every entry of C is
    an exactly rounded sum, and ``beta0`` solves the exactly summed
    identity-weight normal equations, so the workspace does not depend on
    subject order. Patterns are kept sorted by their times for the same
    reason. Nothing per subject is kept.

    C holds (p(q+1))^2 numbers per pattern against m p(q+1) for the
    [X | y] of its m subjects: it is the smaller of the two when m > p(q+1),
    and p(q+1) times the larger when every subject has its own times.
    """

    def __init__(self, data: RepeatedMeasuresData):
        q = self.q = data.q
        self.M = data.n_obs
        Xt = data.X.T
        self.beta0 = _cho_solve(
            _normal_factor(_exact_gram(Xt), "the design is rank deficient"),
            _exact_gram(Xt, data.y[None, :])[:, 0],
        )

        # Each pattern's subjects by the first row they own.
        by_pattern: dict[tuple[int, bytes], list[int]] = {}
        for a, b in data._bounds():
            by_pattern.setdefault((b - a, data.times[a:b].tobytes()), []).append(a)
        by_length: dict[int, list[list[int]]] = {}
        for (p, _), starts in sorted(by_pattern.items()):
            by_length.setdefault(p, []).append(starts)

        ZY = np.column_stack([data.X, data.y])
        self.groups = []
        for p, patterns in sorted(by_length.items()):
            C = np.empty((len(patterns), p, p, q + 1, q + 1))
            for n, starts in enumerate(patterns):
                m = len(starts)
                # Z[i] = [X_i | y_i] of the pattern's i-th subject.
                Z = ZY[np.add.outer(starts, np.arange(p))]
                # Elementwise, so each residual is rounded the same way
                # wherever its subject sits in the data.
                for a in range(q):
                    Z[:, :, q] -= Z[:, :, a] * self.beta0[a]
                gram = _exact_gram(np.ascontiguousarray(Z.reshape(m, -1).T))
                C[n] = gram.reshape(p, q + 1, p, q + 1).transpose(0, 2, 1, 3)
            self.groups.append((
                np.array([data.times[s[0]:s[0] + p] for s in patterns]),
                np.array([len(starts) for starts in patterns]),
                C.reshape(len(patterns), p * p, (q + 1) ** 2),
            ))
        if data._grid is not None:
            self.d_min, self.d_max = data._grid.d_min, data._grid.d_max
        else:
            # Never consulted: every pattern is a single measurement.
            self.d_min = self.d_max = 1.0


# Products summed per math.fsum batch; bounds the temporaries of
# _exact_gram whatever the number of subjects.
_SUM_CHUNK = 1 << 12


def _exact_gram(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """A @ B.T with every entry an exactly rounded sum (math.fsum).

    A and B hold one variable per row and one observation per column.
    Without B the result is A @ A.T, and only its upper triangle is summed.
    """
    symmetric = B is None
    if symmetric:
        B = A
    m = A.shape[1]
    if m <= 2:
        # One product, or one rounded sum of two: exactly rounded already.
        return (A[:, None, :] * B[None, :, :]).sum(axis=-1)
    if symmetric:
        r, c = np.triu_indices(A.shape[0])
    else:
        r, c = (idx.ravel() for idx in np.indices((A.shape[0], B.shape[0])))
    sums = np.empty(r.size)
    step = max(1, _SUM_CHUNK // m)
    for lo in range(0, r.size, step):
        products = A[r[lo:lo + step]] * B[c[lo:lo + step]]
        sums[lo:lo + step] = [math.fsum(row) for row in products.tolist()]
    out = np.empty((A.shape[0], B.shape[0]))
    out[r, c] = sums
    if symmetric:
        out[c, r] = sums
    return out


def _normal_factor(A: np.ndarray, what: str) -> np.ndarray:
    """Cholesky factor of a normal-equations matrix, RankDeficient if singular."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"normal equations are singular; {what}") from exc


# Solves with the q x q factor L of a normal-equations matrix. Each rounds
# as the OpenBLAS kernels behind the scipy.linalg call it replaces do on a
# machine with fused multiply-add: bit-equal for q = 1..7 (q = 8 differs in
# the last bits). test_estimation.py checks them against scipy.

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c with one rounding, for operands whose product is normal.

    Dekker's two-product gives p + e == a * b exactly; math.fsum then rounds
    the exact sum p + e + c once.
    """
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return math.fsum((p, e, c))


def _forward_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b row by row: x_i = (b_i - L[i, :i] . x[:i]) / L_ii.

    Rounds as scipy.linalg.solve_triangular(L, b, lower=True).
    """
    x = np.empty(b.size)
    for i in range(b.size):
        x[i] = (b[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def _fused_solve(
    L: np.ndarray, b: np.ndarray, transpose: bool, blocked: bool = False
) -> np.ndarray:
    """Solve L x = b, or L' x = b, with fused multiply-add updates.

    Unblocked, it goes column by column: x_i = b_i / L_ii, then one fused
    update of every unsolved entry, as scipy.linalg.solve_triangular(L.T, b)
    rounds. ``blocked`` rounds as the matrix kernels behind cho_solve: rows
    are solved in blocks of 4, 2 and 1 (smallest first when transposed),
    dividing is multiplying by 1 / L_ii, and a block first subtracts from
    each of its rows that row's dot product with the solved entries, a chain
    of fused multiply-adds.
    """
    q = b.size
    rows = L.tolist()
    x = b.tolist()

    def entry(i: int, k: int) -> float:
        return rows[k][i] if transpose else rows[i][k]

    order = list(range(q - 1, -1, -1)) if transpose else list(range(q))
    if blocked:
        sizes = [4] * (q // 4) + [s for s in (2, 1) if q & s]
        if transpose:
            sizes.reverse()
    else:
        sizes = [q]
    solved = []
    for size in sizes:
        block, order = order[:size], order[size:]
        if solved:
            for i in block:
                dot = entry(i, solved[0]) * x[solved[0]]
                for k in solved[1:]:
                    dot = _fma(entry(i, k), x[k], dot)
                x[i] -= dot
        for n, i in enumerate(block):
            x[i] = x[i] * (1.0 / rows[i][i]) if blocked else x[i] / rows[i][i]
            for k in block[n + 1:]:
                x[k] = _fma(-x[i], entry(k, i), x[k])
        solved = sorted(solved + block)
    return np.array(x)


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b; rounds as scipy.linalg.cho_solve((L, True), b)."""
    return _fused_solve(
        L, _fused_solve(L, b, False, blocked=True), True, blocked=True
    )


def _profile_parts(prep: _Prepared, corr_builder, criterion: str):
    """Profiled log-likelihood plus the profiled beta_hat and sigma2_hat."""
    q, M = prep.q, prep.M
    if criterion == "reml" and M <= q:
        raise InvalidSize(
            f"REML needs more observations ({M}) than design columns ({q})"
        )
    terms = []
    logdets = []
    for times, counts, C in prep.groups:
        P, p = times.shape
        try:
            # (P, p, p), or one (p, p) shared by every pattern of the group.
            L = np.linalg.cholesky(corr_builder(times))
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"correlation matrix for a {p}-measurement pattern is not "
                f"positive definite"
            ) from exc
        diag = np.broadcast_to(np.diagonal(L, axis1=-2, axis2=-1), (P, p))
        logs = list(map(math.log, diag.ravel().tolist()))
        logdets.extend(
            m * (2.0 * math.fsum(logs[n * p:(n + 1) * p]))
            for n, m in enumerate(counts.tolist())
        )
        L_inv = np.linalg.inv(L)
        G_inv = np.broadcast_to(np.swapaxes(L_inv, -1, -2) @ L_inv, (P, p, p))
        terms.append((G_inv.reshape(P, 1, p * p) @ C)[:, 0])

    # Exactly rounded sums across patterns: results do not depend on the
    # order subjects were supplied in.
    S = np.array(
        [math.fsum(col) for col in np.concatenate(terms).T.tolist()]
    ).reshape(q + 1, q + 1)
    La = _normal_factor(
        S[:q, :q], "the design is rank deficient under this correlation"
    )
    u = _forward_solve(La, S[:q, q])
    beta = prep.beta0 + _fused_solve(La, u, transpose=True)
    # Residual quadratic form of the centred responses after the GLS
    # correction: c - b' A^-1 b with A = La La'.
    quad = S[q, q] - math.fsum((u * u).tolist())
    sum_logdet = math.fsum(logdets)

    denom = M if criterion == "ml" else M - q
    sigma2 = quad / denom
    if sigma2 <= 0.0:
        raise SingularFit("residual quadratic form is zero; sigma2_hat = 0")
    if criterion == "ml":
        loglik = -0.5 * (M * math.log(2.0 * math.pi * sigma2) + sum_logdet + M)
    else:
        adjustment = 2.0 * math.fsum(map(math.log, np.diag(La))) - q * math.log(sigma2)
        loglik = -0.5 * (
            M * math.log(2.0 * math.pi * sigma2)
            + sum_logdet
            + (M - q)
            + adjustment
        )
    return loglik, beta, sigma2


def _corr_builder(parameterization: str, a: float, b: float, prep: _Prepared):
    """Correlation matrices for stacked pattern times of shape (P, p)."""
    if parameterization == "lear":
        d_min, d_max = prep.d_min, prep.d_max
        return lambda times: _lear_corr(a, b, times, d_min, d_max)
    return lambda times: _arma11_corr(a, b, times.shape[-1])


def _check_choices(criterion: str, parameterization: str) -> None:
    if criterion not in CRITERIA:
        raise InvalidParams(f"criterion must be one of {CRITERIA} (got {criterion!r})")
    if parameterization not in PARAMETERIZATIONS:
        raise InvalidParams(
            f"parameterization must be one of {PARAMETERIZATIONS} "
            f"(got {parameterization!r})"
        )


@dataclass(frozen=True)
class ProfileEstimates:
    """Log-likelihood and the profiled-out nuisance optima at fixed theta."""

    loglik: float
    beta_hat: np.ndarray
    sigma2_hat: float


def profile_estimates(
    data: RepeatedMeasuresData,
    corr_params,
    criterion: str = "ml",
    parameterization: str = "lear",
) -> ProfileEstimates:
    """Profiled Gaussian log-likelihood at fixed correlation parameters.

    Args:
        data: subjects to evaluate.
        corr_params: pair (rho_l, delta) or (tau, rho_a) depending on
            ``parameterization``.
        criterion: "ml" or "reml".
        parameterization: "lear" (distance based) or "arma11" (position
            based; sensible on unit-spaced grids).

    beta and sigma2 are profiled out at their closed-form optima, so the
    log-likelihood is a function of the correlation parameters alone.
    """
    _check_choices(criterion, parameterization)
    a, b = (float(v) for v in corr_params)
    if parameterization == "lear":
        violations = validate_lear_values(1.0, a, b)
    else:
        violations = validate_arma11_values(1.0, a, b)
    if violations:
        raise InvalidParams("; ".join(violations))
    prep = _Prepared(data)
    loglik, beta, sigma2 = _profile_parts(
        prep, _corr_builder(parameterization, a, b, prep), criterion
    )
    return ProfileEstimates(loglik, beta, sigma2)


def profile_loglik(
    data: RepeatedMeasuresData,
    corr_params,
    criterion: str = "ml",
    parameterization: str = "lear",
) -> float:
    """Value-only convenience wrapper around :func:`profile_estimates`."""
    return profile_estimates(data, corr_params, criterion, parameterization).loglik


# --------------------------------------------------------------------------
# fitting


@dataclass(frozen=True)
class FitOptions:
    """Knobs for the grid scan and the Nelder-Mead refinement.

    ``rho_cap`` bounds rho-type parameters away from 1. ``delta_cap_factor``
    times the distance range caps delta; the likelihood flattens as delta
    grows, so the cap ends the search and is reported through boundary flags
    instead of being treated as an interior optimum. ``allow_negative``
    widens the ARMA(1,1) box to (-rho_cap, rho_cap) for both parameters and
    is ignored for the LEAR parameterization. ``boundary_tol`` is relative to
    each box width.
    """

    grid_points: int = 21
    rho_cap: float = 0.99
    delta_cap_factor: float = 5.0
    max_iterations: int = 400
    tolerance: float = 1e-10
    allow_negative: bool = False
    boundary_tol: float = 1e-6

    def __post_init__(self) -> None:
        problems = []
        if self.grid_points < 2:
            problems.append("grid_points must be at least 2")
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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a covariance model fit.

    ``boundary_flags`` uses rho_* for the first box dimension (rho_l or tau)
    and delta_* for the second (delta or rho_a). ``converged`` reflects the
    Nelder-Mead refinement; when the refinement cannot improve on the grid
    scan the scan's best point is returned and the flag still reports the
    refinement's status. ``scan_max_loglik`` is the grid-scan floor, so
    ``max_loglik >= scan_max_loglik`` always holds.
    """

    parameterization: str
    criterion: str
    estimates: LearParams | Arma11Params
    beta_hat: np.ndarray
    max_loglik: float
    converged: bool
    iterations: int
    boundary_flags: frozenset[str]
    scan_max_loglik: float
    n_scan_failures: int

    def to_dict(self) -> dict:
        return {
            "parameterization": self.parameterization,
            "criterion": self.criterion,
            "estimates": asdict(self.estimates),
            "beta_hat": [float(v) for v in self.beta_hat],
            "max_loglik": self.max_loglik,
            "converged": self.converged,
            "iterations": self.iterations,
            "boundary_flags": sorted(self.boundary_flags),
            "scan_max_loglik": self.scan_max_loglik,
            "n_scan_failures": self.n_scan_failures,
        }


def _expit(u: float) -> float:
    """Logistic function 1 / (1 + exp(-u)), 0.0 where exp(-u) overflows.

    libm through math, so it gives the bits of scipy.special.expit.
    """
    try:
        return 1.0 / (1.0 + math.exp(-u))
    except OverflowError:
        return 0.0


def _logit(x: float) -> float:
    """Inverse of _expit on (0, 1), with scipy.special.logit's two branches.

    log(x / (1 - x)) loses precision near x = 0.5, so the middle of the
    interval uses log1p(s) - log1p(-s) with s = 2 (x - 0.5) instead.
    """
    if x < 0.3 or x > 0.65:
        return math.log(x / (1.0 - x))
    s = 2.0 * (x - 0.5)
    return math.log1p(s) - math.log1p(-s)


def _nelder_mead(func, x0, maxiter: int, xatol: float, fatol: float):
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex method.

    A port of the default path of scipy.optimize.minimize(method=
    "Nelder-Mead") in scipy 1.17: the same initial simplex, coefficients,
    orderings and stopping test, with no cap on evaluations. It visits the
    same points and returns the same (x, nit, success); success is False
    when the iteration count reaches ``maxiter``. ``func`` must not modify
    its argument.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    x0 = np.asarray(x0, dtype=float).ravel()
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y

    fsim = np.full((N + 1,), np.inf)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    # Sorted twice, as scipy does: numpy's argsort need not keep ties in order.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break

        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = func(xr)
        doshrink = False

        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                # Outside contraction.
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                else:
                    doshrink = True
            else:
                # Inside contraction.
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return sim[0], iterations, iterations < maxiter


def _scan(axis1, axis2, loglik_at):
    """Grid scan; ties broken by the smaller second then first parameter."""
    best = None
    failures = 0
    for a in axis1:
        for b in axis2:
            try:
                ll = loglik_at(float(a), float(b))
            except (NotPositiveDefinite, SingularFit):
                failures += 1
                continue
            key = (ll, -float(b), -float(a))
            if best is None or key > best:
                best = key
    return best, failures


def fit(
    data: RepeatedMeasuresData,
    parameterization: str = "lear",
    criterion: str = "ml",
    options: FitOptions | None = None,
) -> FitResult:
    """Maximize the profiled log-likelihood over the correlation parameters.

    The LEAR parameterization works on any grid. The ARMA(1,1)
    parameterization requires an eligible grid (common gap, integer
    distances, unit minimum; see reparam.check_special_case) because its
    lags are measurement positions.

    Raises:
        DegenerateRange: the pooled distance range is zero, leaving the
            second correlation parameter with nothing to act on.
        NotSpecialCase: ARMA(1,1) requested on an ineligible grid.
        FitFailed: every grid point failed to evaluate.
    """
    _check_choices(criterion, parameterization)
    opts = options or FitOptions()
    grid = data.grid
    d_range = grid.d_max - grid.d_min
    if d_range <= 0.0:
        which = "delta" if parameterization == "lear" else "rho_a"
        raise DegenerateRange(
            f"all pairwise distances are equal, so {which} is unidentifiable; "
            "refusing to estimate it"
        )
    if parameterization == "arma11":
        report = reparam.check_special_case(grid)
        if not report.eligible:
            raise NotSpecialCase(
                "ARMA(1,1) fitting needs a grid reducible to unit-spaced "
                "integer distances"
            )

    prep = _Prepared(data)

    def loglik_at(a: float, b: float) -> float:
        return _profile_parts(
            prep, _corr_builder(parameterization, a, b, prep), criterion
        )[0]

    widen = opts.allow_negative and parameterization == "arma11"
    lo1 = -opts.rho_cap if widen else 0.0
    if parameterization == "lear":
        lo2, cap2 = 0.0, opts.delta_cap_factor * d_range
    else:
        lo2, cap2 = (-opts.rho_cap if widen else 0.0), opts.rho_cap
    axis1 = np.linspace(lo1, opts.rho_cap, opts.grid_points)
    axis2 = np.linspace(lo2, cap2, opts.grid_points)

    best, n_failures = _scan(axis1, axis2, loglik_at)
    if best is None:
        raise FitFailed(
            f"all {opts.grid_points ** 2} grid points failed "
            f"(not positive definite or singular)"
        )
    scan_ll, scan_b, scan_a = best[0], -best[1], -best[2]

    # Transform to unconstrained coordinates so the simplex stays interior:
    # scaled logit for rho-type parameters, log for delta. The delta cap is
    # enforced by clamping inside the objective.
    margin = 1e-8

    def to_box1(u: float) -> float:
        return lo1 + (opts.rho_cap - lo1) * _expit(u)

    def from_box1(v: float) -> float:
        width = opts.rho_cap - lo1
        v = min(max(v, lo1 + margin * width), opts.rho_cap - margin * width)
        return _logit((v - lo1) / width)

    if parameterization == "lear":
        log_cap2 = math.log(cap2)

        def to_box2(u: float) -> float:
            return cap2 if u >= log_cap2 else math.exp(u)

        def from_box2(v: float) -> float:
            return math.log(min(max(v, cap2 * margin), cap2))
    else:
        def to_box2(u: float) -> float:
            return lo2 + (cap2 - lo2) * _expit(u)

        def from_box2(v: float) -> float:
            width = cap2 - lo2
            v = min(max(v, lo2 + margin * width), cap2 - margin * width)
            return _logit((v - lo2) / width)

    def negative(u) -> float:
        a = to_box1(u[0])
        b = to_box2(u[1])
        try:
            return -loglik_at(a, b)
        except (NotPositiveDefinite, SingularFit):
            return math.inf

    start = np.array([from_box1(scan_a), from_box2(scan_b)])
    x, iterations, converged = _nelder_mead(
        negative, start, opts.max_iterations, xatol=1e-8, fatol=opts.tolerance
    )
    refined_a = to_box1(x[0])
    refined_b = to_box2(x[1])
    try:
        refined_ll = loglik_at(refined_a, refined_b)
    except (NotPositiveDefinite, SingularFit):
        refined_ll = -math.inf

    # The refinement never wins with a worse value than the scan floor.
    if refined_ll >= scan_ll:
        final_a, final_b = refined_a, refined_b
    else:
        final_a, final_b = scan_a, scan_b
    final_ll, beta_hat, sigma2_hat = _profile_parts(
        prep, _corr_builder(parameterization, final_a, final_b, prep), criterion
    )

    flags = set()
    tol1 = opts.boundary_tol * (opts.rho_cap - lo1)
    tol2 = opts.boundary_tol * (cap2 - lo2)
    if final_a <= lo1 + tol1:
        flags.add("rho_at_lower")
    if final_a >= opts.rho_cap - tol1:
        flags.add("rho_at_upper_cap")
    if final_b <= lo2 + tol2:
        flags.add("delta_at_lower")
    if final_b >= cap2 - tol2:
        flags.add("delta_at_upper_cap")

    if parameterization == "lear":
        estimates = LearParams(sigma2_hat, final_a, final_b)
    else:
        estimates = Arma11Params(sigma2_hat, final_a, final_b)
    return FitResult(
        parameterization=parameterization,
        criterion=criterion,
        estimates=estimates,
        beta_hat=beta_hat,
        max_loglik=final_ll,
        converged=converged,
        iterations=iterations,
        boundary_flags=frozenset(flags),
        scan_max_loglik=scan_ll,
        n_scan_failures=n_failures,
    )


# --------------------------------------------------------------------------
# dual-parameterization comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Both fits on the same data plus an agreement summary.

    Fitting happens on the normalized (unit gap) grid so the LEAR parameters
    are in spacing units, comparable with the position-based ARMA(1,1) ones.
    The implied covariance matrices are evaluated for ``reference_subject``
    (the first subject with the most measurements). Optimizer outcomes can
    differ between parameterizations; this report surfaces both honestly
    rather than assuming they agree.
    """

    criterion: str
    spacing: float
    lear: FitResult
    arma11: FitResult
    loglik_difference: float
    reference_subject: int
    lear_covariance: np.ndarray
    arma11_covariance: np.ndarray
    max_covariance_difference: float
    arma_mapped_to_lear: LearParams | None
    mapping_note: str | None

    def to_dict(self) -> dict:
        mapped = self.arma_mapped_to_lear
        return {
            "criterion": self.criterion,
            "spacing": self.spacing,
            "lear": self.lear.to_dict(),
            "arma11": self.arma11.to_dict(),
            "loglik_difference": self.loglik_difference,
            "reference_subject": self.reference_subject,
            "lear_covariance": self.lear_covariance.tolist(),
            "arma11_covariance": self.arma11_covariance.tolist(),
            "max_covariance_difference": self.max_covariance_difference,
            "arma_mapped_to_lear": None if mapped is None else asdict(mapped),
            "mapping_note": self.mapping_note,
        }


def compare_parameterizations(
    data: RepeatedMeasuresData,
    criterion: str = "ml",
    options: FitOptions | None = None,
) -> ComparisonReport:
    """Fit both parameterizations on eligible data and report agreement.

    The two likelihood surfaces describe the same model family, but the
    optimizer may end up at different points, so equality of the estimated
    covariances is checked, not assumed.
    """
    report = reparam.check_special_case(data.grid)
    if not report.eligible:
        raise NotSpecialCase(
            "comparison needs a grid reducible to unit-spaced integer distances"
        )
    normalized = reparam.normalize_grid(data.grid)
    data_n = data.with_subject_times(normalized.subject_times)

    lear_fit = fit(data_n, "lear", criterion, options)
    arma_fit = fit(data_n, "arma11", criterion, options)

    sizes = np.diff(data_n.offsets)
    reference = int(np.argmax(sizes))
    p_ref = int(sizes[reference])
    cov_lear = lear_covariance(lear_fit.estimates, data_n.grid, reference)
    cov_arma = arma11_covariance(arma_fit.estimates, p_ref)
    max_diff = float(np.max(np.abs(cov_lear - cov_arma)))

    mapped = None
    note = None
    try:
        mapped = reparam.arma_to_lear(arma_fit.estimates, data_n.grid)
    except (OutsideLearImage, Unidentifiable, DegenerateRange) as exc:
        note = f"{type(exc).token}: {exc}"

    return ComparisonReport(
        criterion=criterion,
        spacing=float(report.spacing),
        lear=lear_fit,
        arma11=arma_fit,
        loglik_difference=abs(lear_fit.max_loglik - arma_fit.max_loglik),
        reference_subject=reference,
        lear_covariance=cov_lear,
        arma11_covariance=cov_arma,
        max_covariance_difference=max_diff,
        arma_mapped_to_lear=mapped,
        mapping_note=note,
    )
