"""Pinned outputs of ``learcov fit`` and ``learcov compare`` on small inputs.

The inputs are built here with numpy only (seeded ``default_rng``, Cholesky
factors of AR(1) or MA(1) correlations): a unit grid, jittered times, mixed
pattern lengths on a unit grid, and data whose fits end on a box edge.
``fit_outputs.json`` holds, for each case, its arguments, exit status,
stdout and stderr as ``cli.main`` gave them in process, the sha256 of each
input CSV, and the platform they were recorded on: numpy, BLAS, libc (whose
libm rounds the ``math`` calls) and machine.

``tests/test_fit_outputs.py`` replays every case. On the recorded platform
it asserts the same bytes. On any other platform it compares the parsed
JSON, floats at ``REL_TOL``/``ABS_TOL`` and everything else exactly, and
warns that it did so.

A change that alters an output on purpose rewrites the file with

    PYTHONPATH=src python3 tests/fit_outputs.py --record

and names each changed case where the change is described.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from conftest import run_cli

PIN_FILE = Path(__file__).with_name("fit_outputs.json")
REL_TOL, ABS_TOL = 1e-6, 1e-9


def _ar1(rng, t, rho):
    """One draw of unit-variance AR(1) noise at times t."""
    corr = rho ** np.abs(np.subtract.outer(t, t))
    return np.linalg.cholesky(corr) @ rng.standard_normal(t.size)


def _ma1(rng, t, theta):
    """One draw of MA(1) noise on consecutive integer positions t."""
    lag = np.abs(np.subtract.outer(t, t))
    corr = np.where(lag == 0, 1.0,
                    np.where(lag == 1, theta / (1.0 + theta * theta), 0.0))
    return np.linalg.cholesky(corr) @ rng.standard_normal(t.size)


def _csv(rows) -> str:
    lines = ["subject,time,y,dose"]
    for subject, times, y, dose in rows:
        lines.extend(f"s{subject},{t!r},{v!r},{dose!r}"
                     for t, v in zip(times.tolist(), y.tolist()))
    return "\n".join(lines) + "\n"


def _inputs() -> dict:
    """Name -> CSV text of each input, the same text on every run."""
    out = {}
    rng = np.random.default_rng(11)
    t = np.arange(1.0, 7.0)
    out["unit.csv"] = _csv((i, t, 1.0 + 0.5 * t + _ar1(rng, t, 0.6), float(i % 3))
                           for i in range(40))
    rng = np.random.default_rng(12)
    rows = []
    for i in range(30):
        times = np.arange(1.0, 6.0) + rng.uniform(-0.25, 0.25, 5)
        rows.append((i, times, 2.0 - 0.3 * times + _ar1(rng, times, 0.5), float(i % 2)))
    out["jittered.csv"] = _csv(rows)
    rng = np.random.default_rng(13)
    rows = []
    for i in range(36):
        start = int(rng.integers(1, 6))
        times = np.arange(float(start), float(rng.integers(start, 7)) + 1.0)
        rows.append((i, times, 1.0 + _ar1(rng, times, 0.7), float(i % 4)))
    out["mixed.csv"] = _csv(rows)
    rng = np.random.default_rng(14)
    out["boundary.csv"] = _csv((i, t, 0.5 + _ma1(rng, t, -0.5), float(i % 2))
                               for i in range(80))
    return out


def _cases() -> list:
    """The argument lists, each naming one input in the working directory."""
    cases = []
    for name in ("unit.csv", "mixed.csv", "boundary.csv"):
        for criterion in ("ml", "reml"):
            for param in ("lear", "arma11"):
                cases.append(["fit", "--input", name, "--param", param,
                              "--criterion", criterion])
            cases.append(["compare", "--input", name, "--criterion", criterion])
    for criterion in ("ml", "reml"):
        cases.append(["fit", "--input", "jittered.csv", "--criterion", criterion])
    return cases + [
        ["fit", "--input", "jittered.csv", "--param", "arma11"],
        ["fit", "--input", "jittered.csv", "--design", "intercept-time"],
        ["fit", "--input", "mixed.csv", "--design", "dose",
         "--criterion", "reml"],
        ["fit", "--input", "boundary.csv", "--param", "arma11", "--allow-negative"],
        ["fit", "--input", "boundary.csv", "--param", "arma11", "--allow-negative",
         "--criterion", "reml"],
        ["compare", "--input", "boundary.csv", "--allow-negative"],
        ["fit", "--input", "unit.csv", "--max-iterations", "5"],
        ["compare", "--input", "mixed.csv", "--max-iterations", "3"],
        ["fit", "--input", "unit.csv", "--grid-points", "5", "--tolerance", "1e-4"],
    ]


INPUTS = _inputs()
CASES = _cases()


def platform_info() -> dict:
    """What the bytes of a fit depend on besides the program."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "libc": " ".join(platform.libc_ver()), "machine": platform.machine()}


def write_inputs(directory: Path) -> dict:
    """Write every input into ``directory``; name -> sha256 of its bytes."""
    digests = {}
    for name, text in INPUTS.items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def run_case(args) -> dict:
    """``learcov args`` in this process, as the pin file holds its outcome."""
    return dict(zip(("exit", "stdout", "stderr"), run_cli(args)))


def mismatches(got, want, path="") -> list:
    """Where the parsed JSON ``got`` differs from ``want``: floats beyond
    REL_TOL and ABS_TOL, anything else by value."""
    if isinstance(want, float) and isinstance(got, float):
        close = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{k}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def record() -> None:
    """Run every case in a fresh directory and rewrite PIN_FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [{"args": args, **run_case(args)} for args in CASES]
        finally:
            os.chdir(here)
    pins = {"platform": platform_info(), "inputs": digests, "cases": cases}
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {PIN_FILE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
