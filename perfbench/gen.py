"""Seeded input generator for the learcov benchmark.

Uses numpy only, never learcov, so a parent commit and a change read
byte-identical inputs for the same seed. Responses are drawn as
y = X beta + L z with L the numpy Cholesky factor of the LEAR covariance
on the workload's pooled grid; ``z`` comes from ``default_rng(seed)``.

Every generator writes into a work directory and returns a manifest: the
workload's parameters plus the size and sha256 of each file written.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Sizes per workload. Kept here so the doc, the tests and the run agree.
FIT_LARGE = {"n_subjects": 3000, "visits": 8}
SIMULATE = {"n_subjects": 5000, "templates": [[1, 5], [2, 7], [1, 8]]}

# True generating parameters (sigma2, rho_l, delta in units of the range).
LEAR_TRUTH = {"sigma2": 2.0, "rho_l": 0.6, "delta_over_range": 1.5}
ARMA_TRUTH = {"sigma2": 1.5, "tau": 0.5, "rho_a": 0.7}


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def lear_corr(t, rho_l, delta, d_min, d_max):
    """LEAR correlation on one time vector, written from the model formula."""
    t = np.asarray(t, dtype=float)
    d = np.abs(t[:, None] - t[None, :])
    exponent = d_min + delta * (d - d_min) / (d_max - d_min)
    corr = rho_l ** exponent
    np.fill_diagonal(corr, 1.0)
    return corr


def pooled_range(templates):
    d_min = min(float(np.min(np.diff(t))) for t in templates if len(t) > 1)
    d_max = max(float(t[-1] - t[0]) for t in templates if len(t) > 1)
    return d_min, d_max


def _write_long_csv(path, templates, beta, design, sigma2, rho_l, delta,
                    n_subjects, rng):
    """Subject i uses template i mod len(templates); one CSV row per visit."""
    templates = [np.asarray(t, dtype=float) for t in templates]
    d_min, d_max = pooled_range(templates)
    factors = [np.linalg.cholesky(sigma2 * lear_corr(t, rho_l, delta, d_min, d_max))
               for t in templates]
    k = len(templates)
    lines = ["subject,time,y"]
    for i in range(n_subjects):
        t = templates[i % k]
        mean = beta[0] + (beta[1] * t if design == "intercept-time" else 0.0)
        y = mean + factors[i % k] @ rng.standard_normal(t.size)
        sid = f"s{i + 1}"
        lines.extend(f"{sid},{tv:.17g},{yv:.17g}" for tv, yv in zip(t, y))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return sum(templates[i % k].size for i in range(n_subjects))


def _spec_doc(n_subjects, templates, beta, design, covariance, seed):
    return {
        "schema_version": 1,
        "n_subjects": n_subjects,
        "times": [[float(v) for v in t] for t in templates],
        "beta": [float(b) for b in beta],
        "design": design,
        "seed": int(seed),
        "covariance": covariance,
    }


def _lear_cov_doc(d_range):
    return {"parameterization": "lear", "sigma2": LEAR_TRUTH["sigma2"],
            "rho_l": LEAR_TRUTH["rho_l"],
            "delta": LEAR_TRUTH["delta_over_range"] * d_range}


def _unit_templates(spans):
    return [np.arange(a, b + 1, dtype=float) for a, b in spans]


def _dump(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def generate(workload: str, seed: int, workdir) -> dict:
    """Write the inputs of ``workload`` for ``seed`` and return the manifest.

    The manifest's "files" maps a role to {"path", "bytes", "sha256"};
    "spec" is the learcov simulation spec (sim-spec schema 1) whose shape
    matches the workload's data, used for the simulation layer.
    """
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])
    files = {}
    manifest = {"workload": workload, "seed": seed}

    if workload == "fit-large":
        templates = [np.arange(1.0, FIT_LARGE["visits"] + 1)]
        beta, design = [1.0, 0.3], "intercept-time"
        d_min, d_max = pooled_range(templates)
        cov = _lear_cov_doc(d_max - d_min)
        path = os.path.join(workdir, "data.csv")
        rows = _write_long_csv(path, templates, beta, design, cov["sigma2"],
                               cov["rho_l"], cov["delta"],
                               FIT_LARGE["n_subjects"], rng)
        files["data"] = path
        manifest.update(rows=rows, design=design, criterion="ml",
                        n_subjects=FIT_LARGE["n_subjects"])
        spec = _spec_doc(FIT_LARGE["n_subjects"], templates, beta, design, cov,
                         int(rng.integers(2 ** 32)))

    elif workload == "simulate-check":
        templates = _unit_templates(SIMULATE["templates"])
        beta, design = [2.0], "intercept"
        cov = {"parameterization": "arma11", **ARMA_TRUTH}
        spec = _spec_doc(SIMULATE["n_subjects"], templates, beta, design, cov,
                         int(rng.integers(2 ** 32)))
        manifest.update(
            design=design, criterion="ml", n_subjects=SIMULATE["n_subjects"],
            rows=sum(templates[i % 3].size for i in range(SIMULATE["n_subjects"])),
        )

    else:
        raise ValueError(f"unknown workload {workload!r}")

    spec_path = os.path.join(workdir, "spec.json")
    _dump(spec_path, spec)
    files["spec"] = spec_path
    manifest["spec"] = spec
    manifest["files"] = {
        role: {"path": os.path.relpath(p, workdir),
               "bytes": os.path.getsize(p), "sha256": sha256_file(p)}
        for role, p in files.items()
    }
    _dump(os.path.join(workdir, "manifest.json"), manifest)
    return manifest


# Distinct generator streams per workload for the same seed.
_WORKLOAD_KEYS = {"fit-large": 1, "simulate-check": 2}
WORKLOADS = tuple(_WORKLOAD_KEYS)
