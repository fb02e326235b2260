"""Independent dense GLS log-likelihood and the benchmark's output checks.

Written from the model in learcov's documentation with numpy only: every
subject's correlation matrix is built densely, inverted with ``np.linalg.inv``
and its log determinant taken with ``slogdet``. It shares no code with
learcov's Cholesky/whitening path, so agreement is evidence, not tautology.

Conventions follow learcov's estimation module: the ML criterion is the
Gaussian log-likelihood; REML uses M log(2 pi sigma2) and subtracts
0.5 log det(sum_i X_i' (sigma2 G_i)^-1 X_i).
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import statistics

import numpy as np

REL_TOL = 1e-9
NEIGHBOUR_STEP = 1e-4
RHO_CAP = 0.99
DELTA_CAP_FACTOR = 5.0
GRID_POINTS = 21


class Dataset:
    """Subjects grouped by identical time vector, with dense design blocks."""

    def __init__(self, subjects):
        """``subjects``: iterable of (times, y, X) array triples."""
        groups = {}
        n_obs = 0
        q = None
        for t, y, X in subjects:
            t = np.asarray(t, dtype=float)
            X = np.asarray(X, dtype=float)
            q = X.shape[1]
            groups.setdefault(t.tobytes(), (t, [], []))
            groups[t.tobytes()][1].append(np.asarray(y, dtype=float))
            groups[t.tobytes()][2].append(X)
            n_obs += t.size
        self.groups = [(t, np.array(ys), np.array(Xs))
                       for t, ys, Xs in groups.values()]
        self.n_obs = n_obs
        self.q = q
        multi = [t for t, _, _ in self.groups if t.size > 1]
        self.d_min = min(float(np.min(np.diff(t))) for t in multi)
        self.d_max = max(float(t[-1] - t[0]) for t in multi)
        self.max_p = max(t.size for t, _, _ in self.groups)

    @property
    def d_range(self) -> float:
        return self.d_max - self.d_min


def read_csv(path, design) -> Dataset:
    """Long-format CSV reader (subject, time, y), independent of learcov."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        si, ti, yi = (header.index(c) for c in ("subject", "time", "y"))
        for row in reader:
            rows.setdefault(row[si], []).append((float(row[ti]), float(row[yi])))
    subjects = []
    for visits in rows.values():
        visits.sort()
        t = np.array([v[0] for v in visits])
        y = np.array([v[1] for v in visits])
        subjects.append((t, y, design_matrix(t, design)))
    return Dataset(subjects)


def design_matrix(t, design):
    if design == "intercept":
        return np.ones((t.size, 1))
    return np.column_stack([np.ones(t.size), t])


def correlation(data: Dataset, t, parameterization, a, b):
    p = t.size
    if parameterization == "lear":
        d = np.abs(t[:, None] - t[None, :])
        exponent = data.d_min + b * (d - data.d_min) / data.d_range
        corr = a ** exponent if a > 0 else np.zeros((p, p))
    else:
        lag = np.abs(np.arange(p)[:, None] - np.arange(p)[None, :])
        corr = a * float(b) ** np.maximum(lag - 1, 0)
    np.fill_diagonal(corr, 1.0)
    return corr


def _pieces(data, parameterization, a, b):
    """Per-pattern G^-1 X, G^-1 y and log det G, or None if G is not PD."""
    out = []
    for t, ys, Xs in data.groups:
        G = correlation(data, t, parameterization, a, b)
        if not np.all(np.linalg.eigvalsh(G) > 0):
            return None
        logdet = np.linalg.slogdet(G)[1]
        Ginv = np.linalg.inv(G)
        out.append((ys, Xs, Ginv, logdet))
    return out


def loglik(data, parameterization, criterion, a, b, sigma2, beta):
    """Full log-likelihood at given (a, b, sigma2, beta); None if not PD."""
    pieces = _pieces(data, parameterization, a, b)
    if pieces is None:
        return None
    beta = np.asarray(beta, dtype=float)
    M, q = data.n_obs, data.q
    quad = 0.0
    sum_logdet = 0.0
    A = np.zeros((q, q))
    for ys, Xs, Ginv, logdet in pieces:
        r = ys - Xs @ beta
        quad += float(np.einsum("mi,ij,mj->", r, Ginv, r))
        sum_logdet += ys.shape[0] * logdet
        A += np.einsum("mia,ij,mjb->ab", Xs, Ginv, Xs)
    ll = -0.5 * (M * math.log(2.0 * math.pi * sigma2) + sum_logdet + quad / sigma2)
    if criterion == "reml":
        ll -= 0.5 * np.linalg.slogdet(A / sigma2)[1]
    return float(ll)


def profile(data, parameterization, criterion, a, b):
    """Profiled criterion at (a, b): beta and sigma2 at their GLS optima."""
    pieces = _pieces(data, parameterization, a, b)
    if pieces is None:
        return None
    q = data.q
    A = np.zeros((q, q))
    c = np.zeros(q)
    for ys, Xs, Ginv, _ in pieces:
        A += np.einsum("mia,ij,mjb->ab", Xs, Ginv, Xs)
        c += np.einsum("mia,ij,mj->a", Xs, Ginv, ys)
    beta = np.linalg.solve(A, c)
    quad = 0.0
    for ys, Xs, Ginv, _ in pieces:
        r = ys - Xs @ beta
        quad += float(np.einsum("mi,ij,mj->", r, Ginv, r))
    denom = data.n_obs if criterion == "ml" else data.n_obs - q
    return loglik(data, parameterization, criterion, a, b, quad / denom, beta)


def _close(x, ref):
    return abs(x - ref) <= REL_TOL * abs(ref)


def _malformed_is_problem(check):
    """A document missing a key or holding a value of the wrong type is a
    problem with that op, not a crash of the benchmark."""
    @functools.wraps(check)
    def guarded(doc, *args):
        try:
            return check(doc, *args)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            return [f"malformed {check.__name__[6:]} document: {exc!r}"]
    return guarded


@_malformed_is_problem
def check_fit(doc, data: Dataset, parameterization, criterion):
    """Problems with one FitResult document (empty list when it is right)."""
    problems = []
    if doc.get("parameterization") != parameterization or doc.get("criterion") != criterion:
        return [f"fit reports {doc.get('parameterization')}/{doc.get('criterion')}"]
    names = ("rho_l", "delta") if parameterization == "lear" else ("tau", "rho_a")
    est = doc["estimates"]
    a, b, sigma2 = est[names[0]], est[names[1]], est["sigma2"]
    ll = doc["max_loglik"]
    if not (isinstance(ll, float) and math.isfinite(ll)):
        return [f"max_loglik is {ll!r}"]
    ref = loglik(data, parameterization, criterion, a, b, sigma2, doc["beta_hat"])
    if ref is None or not _close(ll, ref):
        problems.append(f"max_loglik {ll!r} differs from dense GLS {ref!r}")
    if not ll >= doc["scan_max_loglik"]:
        problems.append("max_loglik below scan_max_loglik")
    if not 0 <= doc["n_scan_failures"] < GRID_POINTS ** 2:
        problems.append(f"n_scan_failures {doc['n_scan_failures']} out of range")
    cap_b = DELTA_CAP_FACTOR * data.d_range if parameterization == "lear" else RHO_CAP
    for da, db in ((NEIGHBOUR_STEP, 0), (-NEIGHBOUR_STEP, 0),
                   (0, NEIGHBOUR_STEP), (0, -NEIGHBOUR_STEP)):
        na, nb = a + da, b + db
        if not (0.0 <= na <= RHO_CAP and 0.0 <= nb <= cap_b):
            continue
        value = profile(data, parameterization, criterion, na, nb)
        if value is not None and value > ll + REL_TOL * abs(ll):
            problems.append(f"neighbour ({na!r}, {nb!r}) beats max_loglik: {value!r}")
    return problems


@_malformed_is_problem
def check_compare(doc, data: Dataset, criterion):
    problems = []
    for key in ("lear", "arma11"):
        problems += [f"{key}: {p}" for p in check_fit(doc[key], data, key, criterion)]
    if doc["loglik_difference"] != abs(doc["lear"]["max_loglik"] - doc["arma11"]["max_loglik"]):
        problems.append("loglik_difference is not |lear - arma11|")
    lear_cov = np.array(doc["lear_covariance"])
    arma_cov = np.array(doc["arma11_covariance"])
    if lear_cov.shape != (data.max_p, data.max_p) or arma_cov.shape != lear_cov.shape:
        problems.append(f"covariance shape {lear_cov.shape}, expected p={data.max_p}")
    elif doc["max_covariance_difference"] != float(np.max(np.abs(lear_cov - arma_cov))):
        problems.append("max_covariance_difference disagrees with the matrices")
    return problems


@_malformed_is_problem
def check_special_case_doc(doc):
    wanted = {"eligible": True, "equally_spaced": True, "integer_distances": True,
              "dmin_is_one": True, "spacing": 1.0}
    return [f"{k} is {doc.get(k)!r}, expected {v!r}"
            for k, v in wanted.items() if doc.get(k) != v]


def simulated_subject(spec, i):
    """Subject i of an ARMA(1,1), intercept-design spec, drawn by the
    documented contract: Philox4x64-10 keyed by (seed, i), each raw word w
    mapped to ((w >> 11) + 0.5) * 2**-53 and through the normal inverse CDF
    (here the standard library's, not scipy's)."""
    templates = spec["times"]
    t = np.array(templates[i % len(templates)], dtype=float)
    cov = spec["covariance"]
    G = correlation(None, t, "arma11", cov["tau"], cov["rho_a"])
    L = np.linalg.cholesky(cov["sigma2"] * G)
    key = np.array([spec["seed"], i], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(t.size)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    z = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in u])
    return t, spec["beta"][0] + L @ z


def check_simulated_csv(path, spec, n_exact=20):
    """Layout, the first ``n_exact`` subjects' values and the first two
    moments of a simulated CSV against its spec."""
    templates = [np.array(t) for t in spec["times"]]
    n = spec["n_subjects"]
    data = read_csv(path, spec["design"])
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(itertools.islice(csv.reader(fh), 1, 1 + n_exact * 8))
    for i in range(n_exact):
        t, y = simulated_subject(spec, i)
        got = [r for r in rows if r[0] == f"s{i + 1}"]
        got_t = np.array([float(r[1]) for r in got])
        got_y = np.array([float(r[2]) for r in got])
        if (got_t.shape != t.shape or not np.array_equal(got_t, t)
                or not np.allclose(got_y, y, rtol=REL_TOL, atol=0.0)):
            problems.append(f"subject s{i + 1} differs from the documented draw")
            break
        if any(format(float(r[2]), ".17g") != r[2] for r in got):
            problems.append(f"subject s{i + 1}: y not written at 17 significant digits")
            break
    expected_obs = sum(templates[i % len(templates)].size for i in range(n))
    if data.n_obs != expected_obs:
        problems.append(f"CSV has {data.n_obs} rows, expected {expected_obs}")
    y = np.concatenate([ys.ravel() for _, ys, _ in data.groups])
    sigma2 = spec["covariance"]["sigma2"]
    if abs(float(np.mean(y)) - spec["beta"][0]) > 0.05:
        problems.append(f"mean of y {np.mean(y)!r} far from beta {spec['beta'][0]!r}")
    if abs(float(np.var(y)) / sigma2 - 1.0) > 0.05:
        problems.append(f"variance of y {np.var(y)!r} far from sigma2 {sigma2!r}")
    return problems
