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
tensor C is built once per dataset, each entry an exactly rounded sum of
per-subject products: the value math.fsum gives, computed by exponent bins
(_exact_row_sums). An evaluation has two stages: the factor stage factors
one G per pattern, batched over the patterns of equal length, and the q x q
tail solves for the profiled optima. Its cost grows with the number of
distinct time patterns, not of subjects; with per-subject times every
subject is its own pattern. The grid scan evaluates its points in stacked
chunks and keeps only the best one. Pattern terms and log determinants are
again summed exactly (math.fsum) across patterns, so results are
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

The dataset types, FitOptions, PARAMETERIZATIONS and CRITERIA are defined
in learcov.model and imported here, so they also resolve from this module.
reparam is imported only where it is used, by ARMA(1,1) fits and by
compare_parameterizations, so a LEAR fit never loads it.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import (
    Arma11Params,
    LearParams,
    _arma11_corr,
    _lear_corr,
    arma11_covariance,
    lear_covariance,
    validate_arma11_values,
    validate_lear_values,
)
from .errors import (
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
from .model import (
    CRITERIA,
    PARAMETERIZATIONS,
    FitOptions,
    RepeatedMeasuresData,
    SubjectData,
)

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
    subject order. The patterns of a length are kept in the byte order of
    their times, as the dataset's pattern table holds them, for the same
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

        # Each pattern's subjects by the first row they own, in subject order.
        patterns = data._patterns
        counts = np.bincount(patterns.ids)
        starts = np.split(data.offsets[np.argsort(patterns.ids, kind="stable")],
                          np.cumsum(counts)[:-1])

        ZY = np.column_stack([data.X, data.y])
        self.groups = []
        for p, (numbers, times) in patterns.stacks.items():
            C = np.empty((len(numbers), p, p, q + 1, q + 1))
            for n, first_rows in enumerate(starts[k] for k in numbers.tolist()):
                m = len(first_rows)
                # Z[i] = [X_i | y_i] of the pattern's i-th subject.
                Z = ZY[np.add.outer(first_rows, np.arange(p))]
                # Elementwise, so each residual is rounded the same way
                # wherever its subject sits in the data.
                for a in range(q):
                    Z[:, :, q] -= Z[:, :, a] * self.beta0[a]
                gram = _exact_gram(np.ascontiguousarray(Z.reshape(m, -1).T))
                C[n] = gram.reshape(p, q + 1, p, q + 1).transpose(0, 2, 1, 3)
            self.groups.append((
                times,
                counts[numbers],
                C.reshape(len(numbers), p * p, (q + 1) ** 2),
            ))
        # Never consulted when every pattern is a single measurement.
        self.d_min, self.d_max = patterns.extremes or (1.0, 1.0)


# Products summed per _exact_row_sums call; bounds the temporaries of
# _exact_gram whatever the number of subjects.
_SUM_CHUNK = 1 << 14
# Rows whose products all have binary exponents (np.frexp) within +-960 are
# summed by exponent bins: the bins' scaled pieces then stay normal and
# finite. Others, subnormal or near overflow, go to math.fsum.
_BIN_RANGE = 960


def _overflow() -> InvalidSize:
    return InvalidSize(
        "cross products of y and X overflow float64; rescale the data"
    )


def _exact_gram(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """A @ B.T with every entry an exactly rounded sum (math.fsum).

    A and B hold one variable per row and one observation per column.
    Without B the result is A @ A.T, and only its upper triangle is summed;
    rows of A that hold one value throughout take the shortcut of
    _gram_with_constant_rows. Raises InvalidSize when a product or a sum
    overflows.
    """
    symmetric = B is None
    if symmetric:
        B = A
    m = A.shape[1]
    # Products that overflow are refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        if m <= 2:
            # One product, or one rounded sum of two: exactly rounded already.
            out = (A[:, None, :] * B[None, :, :]).sum(axis=-1)
            if not np.isfinite(out).all():
                raise _overflow()
            return out
        if symmetric:
            constant = _constant_rows(A)
            if constant.any():
                return _gram_with_constant_rows(A, constant)
            r, c = np.triu_indices(A.shape[0])
        else:
            r, c = (idx.ravel() for idx in np.indices((A.shape[0], B.shape[0])))
        sums = _pair_sums(A, B, r, c)
    out = np.empty((A.shape[0], B.shape[0]))
    out[r, c] = sums
    if symmetric:
        out[c, r] = sums
    return out


def _constant_rows(A: np.ndarray) -> np.ndarray:
    """Which rows of A hold one value throughout, bit for bit."""
    bits = A.view(np.uint64)
    # Only the rows whose ends agree are read whole.
    constant = bits[:, 0] == bits[:, -1]
    if constant.any():
        constant[constant] = (bits[constant] == bits[constant, :1]).all(axis=1)
    return constant


def _gram_with_constant_rows(A: np.ndarray, constant: np.ndarray) -> np.ndarray:
    """A @ A.T as _exact_gram sums it, for an A with ``constant`` rows.

    Constant rows with equal bits have equal entries, so each such value is
    kept once. The entry of two constant rows, v and w, is m * (v * w): the
    m equal products, summed exactly and rounded once. A rule design's
    columns are such rows within a time pattern. A zero, whose sign
    math.fsum decides, or a sum near or past overflow is summed term by
    term, as is every entry of a varying row. Call under the errstate of
    _exact_gram.
    """
    m = A.shape[1]
    first: dict[int, int] = {}
    rows = np.array([first.setdefault(v, i) if same else i for i, (v, same)
                     in enumerate(zip(A[:, 0].view(np.uint64).tolist(),
                                      constant.tolist()))])
    kept = np.flatnonzero(rows == np.arange(rows.size))
    r, c = (kept[idx] for idx in np.triu_indices(kept.size))
    sums = np.where(constant[r] & constant[c], m * (A[r, 0] * A[c, 0]), 0.0)
    size = np.abs(sums)
    summed = np.flatnonzero(~((size > 0.0) & (size < 2.0 ** 1023)))
    sums[summed] = _pair_sums(A, A, r[summed], c[summed])
    out = np.empty((A.shape[0], A.shape[0]))
    out[r, c] = sums
    out[c, r] = sums
    return out[np.ix_(rows, rows)]


def _pair_sums(A: np.ndarray, B: np.ndarray, r: np.ndarray, c: np.ndarray):
    """Exactly rounded sum of A[r[n]] * B[c[n]] for each n."""
    m = A.shape[1]
    sums = np.empty(r.size)
    step = max(1, _SUM_CHUNK // m)
    for lo in range(0, r.size, step):
        sums[lo:lo + step] = _exact_row_sums(A[r[lo:lo + step]] * B[c[lo:lo + step]])
    return sums


def _exact_row_sums(products: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a 2-d array, bit for bit.

    Each product is x = v * 2**(e - 53) with (x / 2**e, e) = np.frexp(x), so
    v is an integer below 2**53 in magnitude. Split into 27-bit halves,
    v = hi * 2**27 + lo (hi = floor(v / 2**27), 0 <= lo < 2**27), and sum
    each half over the products of a row that share an exponent e: the bin
    sums are integers below 2**53, so float addition keeps them exact while
    a row has fewer than 2**26 products. Scaled back by their exponents, the
    bins are at most 2 * span exact floats whose sum is the row's exact sum,
    and math.fsum rounds that exact sum once, as it rounds the products.

    Rows with an exponent beyond +-_BIN_RANGE, rows of 2**26 products or
    more, and rows that sum to zero (math.fsum decides the sign of zero) are
    passed to math.fsum directly. Raises InvalidSize when a product is not
    finite or a sum overflows.
    """
    rows, m = products.shape
    if not np.isfinite(products).all():
        raise _overflow()
    if m >= 1 << 26:
        return np.array([_fsum(row) for row in products])
    mant, e = np.frexp(products)
    # Zeros have e = 0 and add nothing, so the range always holds 0.
    e_lo, e_hi = int(e.min()), int(e.max())
    if e_lo < -_BIN_RANGE or e_hi > _BIN_RANGE:
        binned = (np.abs(e) <= _BIN_RANGE).all(axis=1)
        sums = np.empty(rows)
        if binned.any():
            sums[binned] = _exact_row_sums(products[binned])
        for i in np.flatnonzero(~binned).tolist():
            sums[i] = _fsum(products[i])
        return sums
    span = e_hi - e_lo + 1
    bins = (e - e_lo).astype(np.intp)
    if rows > 1:
        bins += np.arange(0, rows * span, span)[:, None]
    # hi and lo of v, as exact floats: scaling by powers of two and taking
    # the integer part round nothing.
    scaled = mant * 2.0 ** 26
    hi = np.floor(scaled)
    lo = (scaled - hi) * 2.0 ** 27
    shift = np.arange(e_lo, e_hi + 1)
    pieces = np.concatenate([
        np.ldexp(np.bincount(bins.ravel(), hi.ravel(), rows * span)
                 .reshape(rows, span), shift - 26),
        np.ldexp(np.bincount(bins.ravel(), lo.ravel(), rows * span)
                 .reshape(rows, span), shift - 53),
    ], axis=1)
    sums = np.array([math.fsum(row) for row in pieces.tolist()])
    for i in np.flatnonzero(sums == 0.0).tolist():
        sums[i] = _fsum(products[i])
    return sums


def _fsum(values: np.ndarray) -> float:
    """math.fsum of a 1-d array, InvalidSize on intermediate overflow."""
    try:
        return math.fsum(values.tolist())
    except OverflowError:
        raise _overflow() from None


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

    L may be a stack (..., q, q) and b a stack (..., q). Rounds as
    scipy.linalg.solve_triangular(L, b, lower=True), each slice as it would
    alone: a (1, i) @ (i, 1) matmul gives the bits of the 1-d dot product.
    """
    x = np.empty(b.shape)
    # b_0 - 0.0 is b_0, so the first row has no dot product.
    x[..., 0] = b[..., 0] / L[..., 0, 0]
    for i in range(1, b.shape[-1]):
        dot = (L[..., i, None, :i] @ x[..., :i, None])[..., 0, 0]
        x[..., i] = (b[..., i] - dot) / L[..., i, i]
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


# Correlation-matrix entries per stacked evaluation: bounds the temporaries
# of _profile_points on data with many time patterns.
_STACK_CHUNK = 1 << 17


def _profile_points(prep: _Prepared, parameterization: str, criterion: str,
                    a, b) -> Iterator:
    """Profiled log-likelihood at each parameter point (a[k], b[k]), in order.

    Yields one entry per point: the (loglik, sigma2_hat, La, u) of _tail,
    or the NotPositiveDefinite or SingularFit that the point fails with.
    RankDeficient and InvalidSize are raised at the first point, in order,
    that meets them. A chunk of points goes through _factor_stage as one
    stack per pattern length; its inverses are contracted with the pattern
    tensors C, and _tail finishes the chunk's points as one stack. Chunks
    are evaluated as they are consumed, so a scan holds one chunk's results
    at a time.
    """
    q, M = prep.q, prep.M
    if criterion == "reml" and M <= q:
        raise InvalidSize(
            f"REML needs more observations ({M}) than design columns ({q})"
        )
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    per_point = sum(times.size * times.shape[1] for times, _, _ in prep.groups)
    step = max(1, _STACK_CHUNK // per_point)
    for lo in range(0, a.size, step):
        # The failures first, then each None filled by the tail.
        alive, inverses, logdets, chunk = _factor_stage(
            prep, parameterization, a[lo:lo + step], b[lo:lo + step]
        )
        if alive:
            # A shared G^-1 is broadcast over the patterns by matmul itself.
            # A term that overflows is refused by _tail.
            with np.errstate(over="ignore", invalid="ignore"):
                T = np.concatenate([
                    (G_inv.reshape(len(alive), -1, 1, C.shape[1]) @ C)[:, :, 0]
                    for G_inv, (_, _, C) in zip(inverses, prep.groups)
                ], axis=1).transpose(0, 2, 1)  # (points, (q+1)^2 sums, patterns)
            for k, result in zip(alive, _tail(prep, criterion, T, logdets)):
                chunk[k] = result
        yield from chunk


def _factor_stage(prep: _Prepared, parameterization: str, a, b):
    """First stage of an evaluation: G built and factored per pattern length.

    At each length G is built at the points still alive as one stack,
    (points, P, p, p), or (points, p, p) shared by the P patterns for
    ARMA(1,1), and each slice is factored once, rounding as it would alone.
    A point drops out with the NotPositiveDefinite of its first failing
    length. Returns (alive, inverses, logdets, failed): the points that
    factor at every length; G^-1 of each length at them; per alive point,
    m log det G of each pattern; per point, its failure or None.
    """
    alive = list(range(a.size))
    failed = [None] * a.size
    inverses = []
    logdets: list[list[float]] = [[] for _ in alive]
    for times, counts, _ in prep.groups:
        P, p = times.shape
        # a and b hold the parameters of the points in alive.
        if parameterization == "lear":
            G = _lear_corr(a, b, times, prep.d_min, prep.d_max)
        else:
            G = _arma11_corr(a, b, p)
        # The kernel of np.linalg.cholesky without its error callback: a
        # slice that does not factor comes back as NaNs instead of raising
        # for the whole stack.
        with np.errstate(all="ignore"):
            L = _umath_linalg.cholesky_lo(G, signature="d->d")
        if np.isnan(L[..., 0, 0]).any():
            bad = np.isnan(L[..., 0, 0]).reshape(len(alive), -1).any(axis=1)
            for n in np.flatnonzero(bad).tolist():
                failed[alive[n]] = NotPositiveDefinite(
                    f"correlation matrix for a {p}-measurement pattern is "
                    f"not positive definite"
                )
            keep = np.flatnonzero(~bad)
            if not keep.size:
                return [], [], [], failed
            alive = [alive[n] for n in keep.tolist()]
            logdets = [logdets[n] for n in keep.tolist()]
            inverses = [G_inv[keep] for G_inv in inverses]
            a, b, L = a[keep], b[keep], L[keep]
        shared = L.ndim == 3
        diag = np.diagonal(L, axis1=-2, axis2=-1)
        for point, rows in zip(logdets, diag.tolist()):
            for m, row in zip(counts.tolist(), [rows] * P if shared else rows):
                point.append(m * (2.0 * math.fsum(map(math.log, row))))
        L_inv = np.linalg.inv(L)
        inverses.append(np.swapaxes(L_inv, -1, -2) @ L_inv)
    return alive, inverses, logdets, failed


def _tail(prep: _Prepared, criterion: str, T: np.ndarray, logdets) -> list:
    """Second stage of an evaluation: the q x q tail at a stack of points.

    ``T`` holds, per point, the per-pattern terms of each entry of
    sum_i Z_i' G_i^-1 Z_i, as (points, (q+1)^2, patterns), and ``logdets``
    per point the m log det G of each pattern. Returns per point
    (loglik, sigma2_hat, La, u), with La La' = X' G^-1 X and
    u = La^-1 X' G^-1 (y - X beta0) (see _beta), or SingularFit. Raises
    InvalidSize or RankDeficient at the first point, in order, that meets
    one. Each point's sums, factor and logs round as they would alone.
    """
    q, M = prep.q, prep.M
    width = (q + 1) ** 2
    # Exactly rounded sums across patterns: results do not depend on the
    # order subjects were supplied in. A term or sum that overflows makes
    # its entry inf or NaN.
    sums = _fsums(T.tolist())
    S = np.array(sums).reshape(-1, q + 1, q + 1)
    # The kernel of np.linalg.cholesky, as in _factor_stage: a point whose
    # normal equations do not factor comes back as NaNs. Such points, and
    # points that overflow, raise below before their u is read.
    with np.errstate(all="ignore"):
        La = _umath_linalg.cholesky_lo(S[:, :q, :q], signature="d->d")
        u = _forward_solve(La, S[:, :q, q])
        squares = (u * u).tolist()
    denom = M if criterion == "ml" else M - q
    out = []
    for k, (diagonal, c, uu, point_logdets) in enumerate(zip(
            np.diagonal(La, axis1=1, axis2=2).tolist(), S[:, q, q].tolist(),
            squares, logdets)):
        if not all(map(math.isfinite, sums[k * width:(k + 1) * width])):
            raise _overflow()
        if math.isnan(diagonal[0]):
            raise RankDeficient(
                "normal equations are singular; the design is rank deficient "
                "under this correlation"
            )
        # Residual quadratic form of the centred responses after the GLS
        # correction: c - b' A^-1 b with A = La La'.
        sigma2 = (c - math.fsum(uu)) / denom
        if sigma2 <= 0.0:
            out.append(SingularFit("residual quadratic form is zero; sigma2_hat = 0"))
            continue
        total = M * math.log(2.0 * math.pi * sigma2) + math.fsum(point_logdets) + denom
        if criterion == "reml":
            total += 2.0 * math.fsum(map(math.log, diagonal)) - q * math.log(sigma2)
        out.append((-0.5 * total, sigma2, La[k], u[k]))
    return out


def _fsums(points: list) -> list:
    """math.fsum of each row of each point, NaN where it overflows or meets
    terms inf and -inf."""
    try:
        return [math.fsum(row) for rows in points for row in rows]
    except (OverflowError, ValueError):
        return [_fsum_or_nan(row) for rows in points for row in rows]


def _fsum_or_nan(row: list) -> float:
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return math.nan


def _beta(prep: _Prepared, La: np.ndarray, u: np.ndarray) -> np.ndarray:
    """beta_hat from the La and u of a _tail result."""
    return prep.beta0 + _fused_solve(La, u, transpose=True)


def _check_choices(criterion: str, parameterization: str) -> None:
    if criterion not in CRITERIA:
        raise InvalidParams(f"criterion must be one of {CRITERIA} (got {criterion!r})")
    if parameterization not in PARAMETERIZATIONS:
        raise InvalidParams(
            f"parameterization must be one of {PARAMETERIZATIONS} "
            f"(got {parameterization!r})"
        )


@dataclass(frozen=True, eq=False)
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
    try:
        a, b = (float(v) for v in corr_params)
    except (TypeError, ValueError):
        raise InvalidParams(
            f"corr_params must be a pair of numbers (got {corr_params!r})"
        ) from None
    if parameterization == "lear":
        violations = validate_lear_values(1.0, a, b)
    else:
        violations = validate_arma11_values(1.0, a, b)
    if violations:
        raise InvalidParams("; ".join(violations))
    prep = _Prepared(data)
    (result,) = _profile_points(prep, parameterization, criterion, [a], [b])
    if isinstance(result, Exception):
        raise result
    loglik, sigma2, La, u = result
    return ProfileEstimates(loglik, _beta(prep, La, u), sigma2)


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


def _plain_dict(items) -> dict:
    """asdict's dict_factory for to_dict: arrays as lists, flag sets sorted."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray)
        else sorted(value) if isinstance(value, frozenset) else value
        for key, value in items
    }


@dataclass(frozen=True, eq=False)
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
        return asdict(self, dict_factory=_plain_dict)


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


def _logit_box(lo: float, hi: float, margin: float):
    """(to_box, from_box): u -> lo + (hi - lo) expit(u), and its inverse,
    which clamps v to margin * (hi - lo) inside the ends first."""
    width = hi - lo

    def to_box(u: float) -> float:
        return lo + width * _expit(u)

    def from_box(v: float) -> float:
        v = min(max(v, lo + margin * width), hi - margin * width)
        return _logit((v - lo) / width)

    return to_box, from_box


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
        # Where fsim holds inf, inf - inf is a quiet NaN that fails the
        # test, as in scipy.
        with np.errstate(invalid="ignore"):
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
    d_min, d_max = data._patterns.defined_extremes()
    d_range = d_max - d_min
    if d_range <= 0.0:
        which = "delta" if parameterization == "lear" else "rho_a"
        raise DegenerateRange(
            f"all pairwise distances are equal, so {which} is unidentifiable; "
            "refusing to estimate it"
        )
    if parameterization == "arma11":
        from . import reparam

        report = reparam._special_case(data._patterns, d_min)
        if not report.eligible:
            raise NotSpecialCase(
                "ARMA(1,1) fitting needs a grid reducible to unit-spaced "
                "integer distances"
            )

    widen = opts.allow_negative and parameterization == "arma11"
    lo1 = -opts.rho_cap if widen else 0.0
    if parameterization == "lear":
        lo2, cap2 = 0.0, opts.delta_cap_factor * d_range
        second = (f"delta_cap_factor {opts.delta_cap_factor!r} times the "
                  f"distance range {d_range!r}")
    else:
        lo2, cap2 = lo1, opts.rho_cap
        second = f"rho_cap {opts.rho_cap!r}"
    # The refinement keeps each coordinate margin * width inside its box, so
    # each width must be a finite, normal float64.
    for name, width in ((f"rho_cap {opts.rho_cap!r}", opts.rho_cap - lo1),
                        (second, cap2 - lo2)):
        if not sys.float_info.min <= width < math.inf:
            raise InvalidParams(
                f"{name} gives a box of width {width!r}, outside the normal "
                "range of float64"
            )

    prep = _Prepared(data)

    def profile_at(a: float, b: float):  # a _tail tuple, or the failure
        (result,) = _profile_points(prep, parameterization, criterion, [a], [b])
        return result

    axis1 = np.linspace(lo1, opts.rho_cap, opts.grid_points)
    axis2 = np.linspace(lo2, cap2, opts.grid_points)

    # The whole scan, first parameter outermost, keeping only the best point;
    # ties are broken by the smaller second then first parameter.
    grid_a, grid_b = (
        v.ravel().tolist() for v in np.meshgrid(axis1, axis2, indexing="ij")
    )
    best = None
    n_failures = 0
    for a, b, result in zip(grid_a, grid_b, _profile_points(
            prep, parameterization, criterion, grid_a, grid_b)):
        if isinstance(result, Exception):
            n_failures += 1
        elif best is None or (result[0], -b, -a) > best:
            best = (result[0], -b, -a)
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
    to_box1, from_box1 = _logit_box(lo1, opts.rho_cap, margin)
    if parameterization == "lear":
        log_cap2 = math.log(cap2)

        def to_box2(u: float) -> float:
            return cap2 if u >= log_cap2 else math.exp(u)

        def from_box2(v: float) -> float:
            return math.log(min(max(v, cap2 * margin), cap2))
    else:
        to_box2, from_box2 = _logit_box(lo2, cap2, margin)

    def negative(u) -> float:
        result = profile_at(to_box1(u[0]), to_box2(u[1]))
        return math.inf if isinstance(result, Exception) else -result[0]

    start = np.array([from_box1(scan_a), from_box2(scan_b)])
    x, iterations, converged = _nelder_mead(
        negative, start, opts.max_iterations, xatol=1e-8, fatol=opts.tolerance
    )
    final_a, final_b = to_box1(x[0]), to_box2(x[1])
    final = profile_at(final_a, final_b)
    refined_ll = -math.inf if isinstance(final, Exception) else final[0]
    # The refinement never wins with a worse value than the scan floor, or NaN.
    if not refined_ll >= scan_ll:
        final_a, final_b = scan_a, scan_b
        final = profile_at(final_a, final_b)
    if isinstance(final, Exception):
        raise final
    final_ll, sigma2_hat, La, u = final
    beta_hat = _beta(prep, La, u)

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

    params = LearParams if parameterization == "lear" else Arma11Params
    return FitResult(
        parameterization=parameterization,
        criterion=criterion,
        estimates=params(sigma2_hat, final_a, final_b),
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


@dataclass(frozen=True, eq=False)
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
        return asdict(self, dict_factory=_plain_dict)


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
    from . import reparam

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
