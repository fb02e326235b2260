"""Shared fixtures, naive reference implementations, and the acceptance log.

The naive builders below recompute matrices entry by entry with explicit
loops so vectorized production code is checked against something written a
different way.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
from typing import NamedTuple

import numpy as np
from hypothesis import settings
from scipy.linalg import solve_triangular
from scipy.special import ndtri

import learcov as lc
from learcov import cli, dataio, estimation, plain
from learcov.sim import rule_design

ACCEPTANCE_LINES: list[str] = []

# The hypothesis profile under which test_cli_fuzz.py draws new examples on
# each run; tier-1 draws the same ones. Registered here, where pytest's
# --hypothesis-profile option can find it.
FUZZ_EXPLORE = "fuzz-explore"
settings.register_profile(FUZZ_EXPLORE, max_examples=5000)


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


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args) -> CliResult:
    """``learcov args`` in this process: ``cli.main`` with stdout and stderr
    captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        exit_code = cli.main(list(args))
    return CliResult(exit_code, out.getvalue(), err.getvalue())


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


def per_subject_patterns(vectors) -> tuple[list[np.ndarray], list[int]]:
    """The distinct time vectors in first-appearance order, and the pattern
    number of each vector, found vector by vector with ``tobytes``: the
    per-subject scan that the dataset's pattern table replaces.
    """
    numbers: dict[bytes, int] = {}
    patterns, ids = [], []
    for t in vectors:
        if t.tobytes() not in numbers:
            numbers[t.tobytes()] = len(patterns)
            patterns.append(t)
        ids.append(numbers[t.tobytes()])
    return patterns, ids


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
    # An anchor beyond the float range fails build_grid's finite check.
    with np.errstate(over="ignore"):
        new_times = [
            float(np.round(t[0] / h)) + np.arange(t.size, dtype=float)
            for t in grid.subject_times
        ]
    return dataclasses.replace(lc.build_grid(new_times), spacing=h)


# Each subject's normals, by (templates, n, seed): the nine (covariance,
# design) pairs of test_sim.py's comparison draw the same ones.
_NORMALS: dict[tuple, list[np.ndarray]] = {}


def per_subject_normals(spec) -> list[np.ndarray]:
    """Subject i's standard normals, drawn one subject at a time.

    numpy's own Philox keyed by (seed, i), the documented uniform map and
    ``scipy.special.ndtri``; memoised per (templates, n, seed).
    """
    key = (tuple(t.tobytes() for t in spec.times), spec.n_subjects, spec.seed)
    if key not in _NORMALS:
        normals = []
        for i in range(spec.n_subjects):
            size = spec.times[i % len(spec.times)].size
            key_words = np.array([spec.seed, i], dtype=np.uint64)
            raw = np.random.Philox(key=key_words).random_raw(size)
            u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
            normals.append(ndtri(np.minimum(u, 1.0 - 2.0 ** -53)))
        _NORMALS[key] = normals
    return _NORMALS[key]


def per_subject_simulate(spec) -> lc.RepeatedMeasuresData:
    """``simulate`` with one generator and one draw per subject.

    The direct form that the per-template draws replace: the normals of
    ``per_subject_normals`` and one ``L @ z`` for each subject in turn. The
    dataset is built from the concatenated columns once y and X are checked
    finite, as SubjectData checks them.
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

    normals = per_subject_normals(spec)
    y = np.concatenate([designs[k] @ spec.beta + factors[k] @ z
                        for k, z in zip(subject_template, normals)])
    X = np.concatenate([designs[k] for k in subject_template])
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise lc.InvalidSize("y and X must be finite")
    sizes = [spec.times[k].size for k in subject_template]
    return lc.RepeatedMeasuresData._from_columns(
        np.concatenate([spec.times[k] for k in subject_template]), y, X,
        np.concatenate(([0], np.cumsum(sizes))),
    )


def per_row_read_long_csv(
    path, subject_col="subject", time_col="time", y_col="y", design="intercept"
) -> lc.RepeatedMeasuresData:
    """``read_long_csv`` as one parse and one check per row, then per subject.

    The direct form that numpy's reader and the sort by columns replace:
    every row is parsed and checked in file order, so the first bad row
    raises; then each subject's rows are sorted by time and built into a
    SubjectData. A leading byte-order mark is skipped, as the reader does.
    """
    rule, covariate_cols = dataio._design_columns(design)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise lc.ParseError("empty file: a header row is required") from None
        positions = {}
        for name in [subject_col, time_col, y_col, *covariate_cols]:
            if name not in header:
                raise lc.ParseError(f"missing required column {name!r} in header")
            positions[name] = header.index(name)
        needed = max(positions.values()) + 1

        order: list[str] = []
        rows_by_subject: dict[str, list[tuple]] = {}
        seen: set[tuple[str, float]] = set()
        n_rows = 0
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < needed:
                raise lc.ParseError(
                    f"row {row_num}: expected at least {needed} fields, "
                    f"got {len(row)}"
                )
            sid = row[positions[subject_col]]
            t = plain._parse_number(row[positions[time_col]], row_num, time_col)
            yv = plain._parse_number(row[positions[y_col]], row_num, y_col)
            covs = tuple(
                plain._parse_number(row[positions[c]], row_num, c)
                for c in covariate_cols
            )
            if (sid, t) in seen:
                raise lc.DuplicateMeasurement(
                    f"row {row_num}: duplicate measurement for subject "
                    f"{sid!r} at time {t!r}"
                )
            seen.add((sid, t))
            if sid not in rows_by_subject:
                rows_by_subject[sid] = []
                order.append(sid)
            rows_by_subject[sid].append((t, yv, covs))
            n_rows += 1

    if n_rows == 0:
        raise lc.ParseError("no data rows after the header")
    if n_rows == 1:
        raise lc.DegenerateGrid(
            "a single measurement defines no distances; need at least two rows"
        )

    subjects = []
    for sid in order:
        rows = sorted(rows_by_subject[sid], key=lambda r: r[0])
        t = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        if covariate_cols:
            X = np.array([r[2] for r in rows])
        else:
            X = rule_design(rule, t)
        subjects.append(lc.SubjectData(t, y, X))
    return lc.RepeatedMeasuresData(tuple(subjects))


def per_subject_with_subject_times(data, new_times) -> lc.RepeatedMeasuresData:
    """``data`` with each subject's times replaced, y and X kept, built from
    one validated SubjectData per subject."""
    new_times = tuple(new_times)
    if len(new_times) != data.n_subjects:
        raise lc.InvalidSize("need one time vector per subject")
    return lc.RepeatedMeasuresData(tuple(
        lc.SubjectData(t, s.y, s.X) for s, t in zip(data.subjects, new_times)
    ))


def per_subject_compare(data, criterion="ml", options=None) -> lc.ComparisonReport:
    """``compare_parameterizations`` through the per-subject grid.

    The direct form that the pattern-table flow replaces: the dataset's
    grid is checked, normalized subject by subject and moved into a dataset
    of one SubjectData per subject, which both fits read; the reference
    covariance and the mapping read the normalized grid.
    """
    grid = data.grid
    if not lc.check_special_case(grid).eligible:
        raise lc.NotSpecialCase(
            "comparison needs a grid reducible to unit-spaced integer distances"
        )
    normalized = per_subject_normalize_grid(grid)
    data_n = per_subject_with_subject_times(data, normalized.subject_times)
    lear_fit = lc.fit(data_n, "lear", criterion, options)
    arma_fit = lc.fit(data_n, "arma11", criterion, options)
    sizes = np.diff(data_n.offsets)
    reference = int(np.argmax(sizes))
    cov_lear = lc.lear_covariance(lear_fit.estimates, data_n.grid, reference)
    cov_arma = lc.arma11_covariance(arma_fit.estimates, int(sizes[reference]))
    mapped = note = None
    try:
        mapped = lc.arma_to_lear(arma_fit.estimates, data_n.grid)
    except (lc.OutsideLearImage, lc.Unidentifiable, lc.DegenerateRange) as exc:
        note = f"{type(exc).token}: {exc}"
    return lc.ComparisonReport(
        criterion=criterion,
        spacing=float(normalized.spacing),
        lear=lear_fit,
        arma11=arma_fit,
        loglik_difference=abs(lear_fit.max_loglik - arma_fit.max_loglik),
        reference_subject=reference,
        lear_covariance=cov_lear,
        arma11_covariance=cov_arma,
        max_covariance_difference=float(np.max(np.abs(cov_lear - cov_arma))),
        arma_mapped_to_lear=mapped,
        mapping_note=note,
    )


def fsum_gram(A, B=None) -> np.ndarray:
    """A @ B.T (A @ A.T without B) with one math.fsum per entry."""
    B = A if B is None else B
    return np.array([[math.fsum((a * b).tolist()) for b in B] for a in A])


def per_subject_prepared_groups(data) -> list[tuple]:
    """``_Prepared.groups`` with each pattern's Z filled subject by subject.

    beta0 and every tensor entry are summed by one math.fsum per entry, the
    path the exponent-bin sums replace; the q x q solve is the likelihood's.
    """
    q = data.q
    Xt = data.X.T
    beta0 = estimation._cho_solve(
        np.linalg.cholesky(fsum_gram(Xt)), fsum_gram(Xt, data.y[None, :])[:, 0]
    )
    by_times: dict[bytes, list] = {}
    for s in data.subjects:
        by_times.setdefault(s.times.tobytes(), []).append(s)
    by_length: dict[int, list] = {}
    for _, members in sorted(by_times.items()):
        by_length.setdefault(members[0].p, []).append(members)
    groups = []
    for p, patterns in sorted(by_length.items()):
        C = np.empty((len(patterns), p, p, q + 1, q + 1))
        for n, members in enumerate(patterns):
            m = len(members)
            Z = np.empty((m, p, q + 1))
            for i, s in enumerate(members):
                Z[i, :, :q] = s.X
                Z[i, :, q] = s.y
            for a in range(q):
                Z[:, :, q] -= Z[:, :, a] * beta0[a]
            gram = fsum_gram(Z.reshape(m, -1).T)
            C[n] = gram.reshape(p, q + 1, p, q + 1).transpose(0, 2, 1, 3)
        groups.append((
            np.array([members[0].times for members in patterns]),
            np.array([len(members) for members in patterns]),
            C.reshape(len(patterns), p * p, (q + 1) ** 2),
        ))
    return groups


def _per_point_lear_corr(rho_l, delta, times, d_min, d_max):
    t = np.asarray(times, dtype=float)
    d = np.abs(t[..., :, None] - t[..., None, :])
    diag = np.arange(t.shape[-1])
    d[..., diag, diag] = d_min
    if d_max > d_min:
        exponent = d_min + delta * (d - d_min) / (d_max - d_min)
    else:
        exponent = np.full(d.shape, d_min)
    corr = np.power(rho_l, exponent) if rho_l > 0.0 else np.zeros(d.shape)
    corr[..., diag, diag] = 1.0
    return corr


def _per_point_arma11_corr(tau, rho_a, p):
    lag = np.abs(np.arange(p)[:, None] - np.arange(p)[None, :])
    np.fill_diagonal(lag, 1)
    corr = tau * np.power(float(rho_a), lag - 1)
    np.fill_diagonal(corr, 1.0)
    return corr


def per_row_forward_solve(L, b) -> np.ndarray:
    """Solve L x = b for one (q, q) L, one row at a time:
    x_i = (b_i - L[i, :i] . x[:i]) / L_ii, the dot product of 1-d slices."""
    x = np.empty(b.size)
    for i in range(b.size):
        x[i] = (b[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def per_point_profile(prep, parameterization, criterion, a, b):
    """(loglik, beta_hat, sigma2_hat) at one point, factoring point by point.

    The evaluation the stacked one replaces: one correlation stack per
    pattern length for this point alone, and the exactly rounded sums and
    q x q solves after it. Raises what the point fails with.
    """
    q, M = prep.q, prep.M
    if criterion == "reml" and M <= q:
        raise lc.InvalidSize("REML needs more observations than design columns")
    terms, logdets = [], []
    for times, counts, C in prep.groups:
        P, p = times.shape
        if parameterization == "lear":
            G = _per_point_lear_corr(a, b, times, prep.d_min, prep.d_max)
        else:
            G = _per_point_arma11_corr(a, b, p)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise lc.NotPositiveDefinite(
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
    S = np.array(
        [math.fsum(col) for col in np.concatenate(terms).T.tolist()]
    ).reshape(q + 1, q + 1)
    La = estimation._normal_factor(S[:q, :q], "rank deficient")
    u = per_row_forward_solve(La, S[:q, q])
    beta = prep.beta0 + estimation._fused_solve(La, u, transpose=True)
    quad = S[q, q] - math.fsum((u * u).tolist())
    sum_logdet = math.fsum(logdets)
    sigma2 = quad / (M if criterion == "ml" else M - q)
    if sigma2 <= 0.0:
        raise lc.SingularFit("residual quadratic form is zero; sigma2_hat = 0")
    if criterion == "ml":
        loglik = -0.5 * (M * math.log(2.0 * math.pi * sigma2) + sum_logdet + M)
    else:
        adjustment = 2.0 * math.fsum(map(math.log, np.diag(La))) - q * math.log(sigma2)
        loglik = -0.5 * (
            M * math.log(2.0 * math.pi * sigma2) + sum_logdet + (M - q) + adjustment
        )
    return loglik, beta, sigma2


def per_point_scan(prep, parameterization, criterion, points) -> list:
    """``per_point_profile`` at each point in turn: its log-likelihood, or
    the NotPositiveDefinite or SingularFit it fails with. Other errors
    propagate from the first point that raises them."""
    out = []
    for a, b in points:
        try:
            out.append(per_point_profile(prep, parameterization, criterion, a, b)[0])
        except (lc.NotPositiveDefinite, lc.SingularFit) as exc:
            out.append(exc)
    return out


def csv_writer_write_long_csv(path, data, subject_ids) -> None:
    """``write_long_csv`` through csv.writer, one row per measurement."""
    ids = np.repeat(np.array([str(s) for s in subject_ids], dtype=object),
                    np.diff(data.offsets))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject", "time", "y"])
        writer.writerows(zip(
            ids.tolist(),
            (format(v, ".17g") for v in data.times.tolist()),
            (format(v, ".17g") for v in data.y.tolist()),
        ))
