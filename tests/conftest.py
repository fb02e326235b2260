"""Shared fixtures, naive reference implementations, and the acceptance log.

The naive builders below recompute matrices entry by entry with explicit
loops so vectorized production code is checked against something written a
different way.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtri

import learcov as lc

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def record_criterion(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[criterion {number}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def naive_lear_matrix(sigma2, rho_l, delta, times, d_min, d_max) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    p = times.size
    out = np.empty((p, p))
    for j in range(p):
        for k in range(p):
            if j == k:
                out[j, k] = sigma2
                continue
            d = abs(times[j] - times[k])
            if d_max > d_min:
                expo = d_min + delta * (d - d_min) / (d_max - d_min)
            else:
                expo = d_min
            out[j, k] = sigma2 * rho_l ** expo
    return out


def naive_arma11_matrix(sigma2, tau, rho_a, p: int) -> np.ndarray:
    out = np.empty((p, p))
    for j in range(p):
        for k in range(p):
            if j == k:
                out[j, k] = sigma2
            else:
                out[j, k] = sigma2 * tau * rho_a ** (abs(j - k) - 1)
    return out


def simulated_dataset(
    n_subjects: int,
    times,
    seed: int,
    sigma2: float = 1.0,
    rho_l: float = 0.5,
    delta: float = 3.0,
    beta=(1.0,),
    design: str = "intercept",
) -> lc.RepeatedMeasuresData:
    spec = lc.SimSpec(
        n_subjects=n_subjects,
        times=(np.asarray(times, dtype=float),),
        beta=np.asarray(beta, dtype=float),
        covariance=lc.LearParams(sigma2, rho_l, delta),
        seed=seed,
        design=design,
    )
    return lc.simulate(spec)


def whitened_profile_parts(data, corr_params, criterion="ml", parameterization="lear"):
    """Profiled (loglik, beta_hat, sigma2_hat) by whitening every subject.

    The direct formula the per-pattern statistics replace: each subject's
    [X_i | y_i] is whitened by the Cholesky factor of its own correlation
    matrix, and the whitened normal equations and residuals are summed
    exactly (math.fsum) over subjects. Raises the same error types as
    ``profile_estimates``.
    """
    a, b = (float(v) for v in corr_params)
    q, M = data.q, data.n_obs
    logdets, xtx, xty, whitened = [], [], [], []
    for i, s in enumerate(data.subjects):
        if s.p == 1:
            corr = np.ones((1, 1))
        elif parameterization == "lear":
            corr = lc.lear_correlation(lc.LearParams(1.0, a, b), data.grid, i)
        else:
            corr = lc.arma11_covariance(lc.Arma11Params(1.0, a, b), s.p)
        L = lc.cholesky_lower(corr)
        Xw = solve_triangular(L, s.X, lower=True)
        yw = solve_triangular(L, s.y, lower=True)
        logdets.append(2.0 * math.fsum(map(math.log, np.diag(L))))
        xtx.append(Xw.T @ Xw)
        xty.append(Xw.T @ yw)
        whitened.append((Xw, yw))
    A = np.array([[math.fsum(t[i, j] for t in xtx) for j in range(q)]
                  for i in range(q)])
    rhs = np.array([math.fsum(t[i] for t in xty) for i in range(q)])
    try:
        La = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise lc.RankDeficient("whitened normal equations are singular") from exc
    beta = solve_triangular(La.T, solve_triangular(La, rhs, lower=True), lower=False)
    quad = math.fsum(
        float(r @ r) for r in (yw - Xw @ beta for Xw, yw in whitened)
    )
    sigma2 = quad / (M if criterion == "ml" else M - q)
    if sigma2 <= 0.0:
        raise lc.SingularFit("residual quadratic form is zero")
    sum_logdet = math.fsum(logdets)
    if criterion == "ml":
        loglik = -0.5 * (M * math.log(2.0 * math.pi * sigma2) + sum_logdet + M)
    else:
        adjustment = 2.0 * math.fsum(map(math.log, np.diag(La))) - q * math.log(sigma2)
        loglik = -0.5 * (
            M * math.log(2.0 * math.pi * sigma2) + sum_logdet + (M - q) + adjustment
        )
    return loglik, beta, sigma2


def per_subject_special_case(grid, rel_tol=1e-9) -> lc.SpecialCaseReport:
    """``check_special_case`` with every subject's gaps and distances checked.

    The direct form that the once-per-pattern check replaces: it visits the
    subjects in order, whether or not their times repeat an earlier subject.
    """
    gaps = np.concatenate(
        [np.diff(t) for t in grid.subject_times if t.size > 1]
    )
    h = float(gaps[0])
    equally_spaced = bool(np.all(np.abs(gaps - h) <= rel_tol * abs(h)))
    scale = h if equally_spaced else 1.0
    integer_distances = True
    for t in grid.subject_times:
        if t.size < 2:
            continue
        d = np.abs(t[:, None] - t[None, :])[np.triu_indices(t.size, k=1)]
        s = d / scale
        if not np.all(np.abs(s - np.round(s)) <= rel_tol * np.maximum(1.0, np.abs(s))):
            integer_distances = False
            break
    dmin_is_one = abs(grid.d_min / scale - 1.0) <= rel_tol
    return lc.SpecialCaseReport(
        equally_spaced=equally_spaced,
        integer_distances=integer_distances,
        dmin_is_one=dmin_is_one,
        spacing=h if equally_spaced else None,
        eligible=equally_spaced and integer_distances and dmin_is_one,
    )


def per_subject_extremes(vectors) -> tuple[float, float]:
    """Smallest gap and largest span over every subject with two times."""
    observed_min, observed_max = math.inf, -math.inf
    for t in vectors:
        if t.size < 2:
            continue
        observed_min = min(observed_min, float(np.min(np.diff(t))))
        observed_max = max(observed_max, float(t[-1] - t[0]))
    return observed_min, observed_max


def per_subject_normalize_grid(grid, rel_tol=1e-9) -> lc.MeasurementGrid:
    """``normalize_grid`` with every subject's times rescaled and validated.

    The direct form that the once-per-pattern rescaling replaces: each
    subject gets its own unit-gap vector, and ``build_grid`` validates them
    all again.
    """
    report = lc.check_special_case(grid, rel_tol)
    if not report.equally_spaced:
        raise lc.NotSpecialCase("consecutive gaps differ; no common spacing exists")
    h = report.spacing
    new_times = [
        float(np.round(t[0] / h)) + np.arange(t.size, dtype=float)
        for t in grid.subject_times
    ]
    return dataclasses.replace(lc.build_grid(new_times), spacing=h)


def per_subject_simulate(spec) -> lc.RepeatedMeasuresData:
    """``simulate`` with one generator and one draw per subject.

    The direct form that the per-template draws replace: numpy's own
    Philox keyed by (seed, i), the documented uniform map,
    ``scipy.special.ndtri`` and one ``L @ z`` for each subject in turn.
    """
    n_templates = len(spec.times)
    subject_template = [i % n_templates for i in range(spec.n_subjects)]

    used = sorted(set(subject_template))
    factors: dict[int, np.ndarray] = {}
    if isinstance(spec.covariance, lc.LearParams):
        grid = lc.build_grid([spec.times[k] for k in used])
        for pos, k in enumerate(used):
            factors[k] = lc.cholesky_lower(
                lc.lear_covariance(spec.covariance, grid, pos)
            )
    else:
        for k in used:
            factors[k] = lc.cholesky_lower(
                lc.arma11_covariance(spec.covariance, spec.times[k].size)
            )
    designs = {k: spec.design_matrix(k) for k in used}

    subjects = []
    for i, k in enumerate(subject_template):
        t = spec.times[k]
        X = designs[k]
        key = np.array([spec.seed, i], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(t.size)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
        z = ndtri(np.minimum(u, 1.0 - 2.0 ** -53))
        y = X @ spec.beta + factors[k] @ z
        subjects.append(lc.SubjectData(t, y, X))
    return lc.RepeatedMeasuresData(tuple(subjects))
