"""Pinned outputs of every ``learcov`` command.

The inputs are built here with numpy only (seeded ``default_rng``, Cholesky
factors of AR(1) or MA(1) correlations): a unit grid, jittered times, mixed
pattern lengths on a unit grid, data whose fits end on a box edge, and a
covariate that is zero throughout, for ``fit`` and ``compare``; one small
file written in each form that takes its own route through the CSV read,
for ``check-special-case`` and ``fit``; one small file in each form that
takes its own route through the check of a small file, or meets one of its
faults, for ``check-special-case``; two simulation specs with time
templates of mixed lengths, and one of a single visit whose design is rank
deficient. ``build-matrix`` and ``reparam`` take their inputs as flags.

``command_outputs.json`` holds, for each case, its arguments, exit status,
stdout and stderr as ``cli.main`` gave them in process, and the sha256 of
the CSV a ``simulate`` case writes; the sha256 of each input; and the
platform they were recorded on: numpy, BLAS, libc (whose libm rounds the
``math`` calls) and machine. Its ``usage`` block is data, not a record: the
argument lists, and the config and CSV files they name, of the usage cases
first recorded while the CLI was built on click. They cover every kind of
usage error, values that start with a dash, ``--flag=value``, the config
file under and over the flags, its switch spellings, ``--version``,
unknown commands and options before the command. They run after the cases
built here, in the same directory.

``tests/test_command_outputs.py`` replays every case. On the recorded
platform it asserts the same bytes. On any other platform a case whose
output differs is compared parsed, floats at ``REL_TOL``/``ABS_TOL`` and
everything else exactly, leaving out the written CSV's digest, with a
warning that it did so.

A change that alters an output on purpose rewrites the file with

    PYTHONPATH=src python3 tests/command_outputs.py --record

which prints each case whose pinned output changed, to be named where the
change is described.
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

PIN_FILE = Path(__file__).with_name("command_outputs.json")
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
    # A covariate that is 0 throughout: the design `dose` has rank 0.
    rng = np.random.default_rng(17)
    out["zero_dose.csv"] = _csv((i, t, 1.0 + _ar1(rng, t, 0.5), 0.0)
                                for i in range(10))
    return {**out, **_read_routes(), **_check_routes(), **_specs()}


def _read_routes() -> dict:
    """Name -> text of one small file in each form that takes its own route
    through the CSV read (see learcov.plain)."""
    rng = np.random.default_rng(15)
    t = np.arange(1.0, 5.0)
    rows = [[f"s{i}", repr(a), repr(b), ""] for i in range(12)
            for a, b in zip(t.tolist(), (1.0 + _ar1(rng, t, 0.5)).tolist())]

    def text(rows, end="\n"):
        return end.join(["subject,time,y,note", *map(",".join, rows)]) + end

    def edited(at, column, value):
        return [row if k != at else [*row[:column], value, *row[column + 1:]]
                for k, row in enumerate(rows)]

    # The last subject at 7, 8, 9 and 1_0, which float() reads as 10 and
    # numpy's reader refuses.
    last = [[*row[:1], repr(7.0 + k), *row[2:]] for k, row in enumerate(rows[-4:])]
    last[-1][1] = "1_0"
    # A (subject, time) pair repeated in row 8, before a bad number in row 11.
    repeated = rows[:6] + [rows[1]] + edited(8, 2, "0.5x")[6:]
    return {
        "crlf.csv": text(rows, "\r\n"),
        "bom.csv": "\ufeff" + text(rows),
        "quoted_newline.csv": text([['"s0\nfirst"', *row[1:]] if row[0] == "s0"
                                    else row for row in rows]),
        "underscore.csv": text(rows[:-4] + last),
        # A note over the csv module's field size limit (131072 characters).
        "long_field.csv": text(edited(5, 3, "x" * 200_000)),
        "repeat_then_bad.csv": text(repeated),
    }


READ_ROUTES = tuple(_read_routes())


def _check_routes() -> dict:
    """Name -> text of one small file in each form that takes its own route
    through the check of a small file, or one of its faults (see
    learcov.plain._check_small)."""
    rng = np.random.default_rng(16)
    t = np.arange(0.0, 4.0)
    rows = [[f"s{i}", repr(a), repr(b)] for i in range(10)
            for a, b in zip(t.tolist(), (1.0 + _ar1(rng, t, 0.5)).tolist())]

    def text(rows, end="\n", header="subject,time,y"):
        return end.join([header, *map(",".join, rows)]) + end

    def edited(at, column, value):
        return [row if k != at else [*row[:column], value, *row[column + 1:]]
                for k, row in enumerate(rows)]

    # Odd subjects start at -0.0, even ones at 0.0: equal as floats.
    zeros = [[sid, "-0.0", y] if time == "0.0" and int(sid[1:]) % 2 else [sid, time, y]
             for sid, time, y in rows]
    return {
        "lf.csv": text(rows),
        "crlf_check.csv": text(rows, "\r\n"),
        "by_time.csv": text(sorted(rows, key=lambda row: float(row[1]))),
        "r_quoted.csv": text([[f'"{sid}"', *rest] for sid, *rest in rows],
                             header='"subject","time","y"'),
        "lone_cr.csv": text(rows, "\r"),
        "extra_field.csv": text(edited(9, 3, "x")),
        "blank_line.csv": text(rows[:7] + [[""]] + rows[7:]),
        "space_line.csv": text(rows[:7] + [[" "]] + rows[7:]),
        "signed_zeros.csv": text(zeros),
        # s1 at -0.0, then at 0.
        "signed_zero_repeat.csv": text(zeros[:8] + [["s1", "0", "1.5"]] + zeros[8:]),
        "single_visits.csv": text(rows[::4]),
        # s2 at 1.0, then at 1.
        "repeat_1_and_1.0.csv": text(rows[:12] + [["s2", "1", "0.5"]] + rows[12:]),
        "nan_time.csv": text(edited(13, 1, "nan")),
        # A byte that is not UTF-8 past the first blocks a text stream
        # decodes, which is placed by its offset in the file all the same.
        "not_utf8.csv": text([[f"s{i}", f"{k}.0", "1\udcff" if i == 400 else "1"]
                              for i in range(1000) for k in range(4)]),
    }


CHECK_ROUTES = tuple(_check_routes())


def _specs() -> dict:
    """Name -> text of the simulation specs, each with time templates of
    mixed lengths."""
    lear = {"schema_version": 1, "n_subjects": 25,
            "times": [[0, 0.5, 1.5, 3], [0, 1, 2], [0.25, 2.0]],
            "beta": [1.0, 0.5], "design": "intercept-time", "seed": 2024,
            "covariance": {"parameterization": "lear", "sigma2": 1.5,
                           "rho_l": 0.6, "delta": 2.5}}
    arma = {"schema_version": 1, "n_subjects": 20,
            "times": [[1, 2, 3, 4, 5], [1, 2, 3]], "beta": [2.0], "seed": 7,
            "covariance": {"parameterization": "arma11", "sigma2": 1.0,
                           "tau": 0.5, "rho_a": 0.8}}
    # One visit at time 1: the intercept-time design is rank deficient, which
    # simulating accepts and only a fit would refuse.
    single = {**arma, "n_subjects": 4, "times": [[1.0]], "beta": [2.0, 0.5],
              "design": "intercept-time"}
    return {"lear_spec.json": json.dumps(lear), "arma11_spec.json": json.dumps(arma),
            "single_visit_spec.json": json.dumps(single)}


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
        *(["check-special-case", "--input", name] for name in
          ("unit.csv", "jittered.csv", "mixed.csv", "boundary.csv", *READ_ROUTES,
           *CHECK_ROUTES)),
        *(["fit", "--input", name] for name in READ_ROUTES),
        ["fit", "--input", "zero_dose.csv", "--design", "dose"],
        *(["simulate", "--spec", f"{kind}_spec.json", "--out", f"{kind}_sim.csv"]
          for kind in ("lear", "arma11", "single_visit")),
        ["build-matrix", "--times", "1", "--rho-l", "0.5", "--delta", "1"],
        *(["build-matrix", "--times", times, "--sigma2", "2", "--rho-l", "0.6",
           "--delta", "1.5", "--format", fmt]
          for times in ("0,0.5,2,3.25", "1,2") for fmt in ("json", "text")),
        *(["reparam", "--direction", "lear2arma", "--sigma2", "2", "--rho-l", "0.6",
           "--delta", "2.5", *grid] for grid in _REPARAM_GRIDS),
        *(["reparam", "--direction", "arma2lear", "--sigma2", "2", "--tau", "0.6",
           "--rho-a", "0.7", *grid] for grid in _REPARAM_GRIDS),
        ["reparam", "--direction", "lear2arma", "--rho-l", "0", "--delta", "1",
         "--range", "2"],
    ]


# The grids reparam is given: a range, with and without --verify at R = 1, 7
# and 100000, and times that normalize to range 3, with and without it.
_REPARAM_GRIDS = (
    ["--range", "3"],
    *(["--range", r, "--verify"] for r in ("1", "7", "100000")),
    ["--times", "0,2,4,6,8"],
    ["--times", "0,2,4,6,8", "--verify"],
)


PINS = json.loads(PIN_FILE.read_text(encoding="utf-8"))
INPUTS = {**_inputs(), **PINS["usage"]["files"]}
CASES = _cases() + PINS["usage"]["args"]


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
        data = text.encode("utf-8", "surrogateescape")
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def run_case(args) -> dict:
    """``learcov args`` in this process, as the pin file holds its outcome:
    with the sha256 of the CSV that a ``simulate`` case writes."""
    outcome = dict(zip(("exit", "stdout", "stderr"), run_cli(args)))
    if args[:1] == ["simulate"] and outcome["exit"] == 0:
        out = Path(args[args.index("--out") + 1])
        outcome["out_sha256"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return outcome


def parsed(stdout: str):
    """A command's stdout as data: JSON, or build-matrix's rows of numbers."""
    try:
        return json.loads(stdout)
    except ValueError:
        return [list(map(float, line.split())) for line in stdout.splitlines()]


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
    """Run every case in a fresh directory, rewrite PIN_FILE and print each
    case whose pinned outcome changed or is new."""
    with tempfile.TemporaryDirectory() as tmp:
        digests = write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [{"args": args, **run_case(args)} for args in CASES]
        finally:
            os.chdir(here)
    old = {tuple(case["args"]): case for case in PINS["cases"]}
    changed = [case for case in cases if old.get(tuple(case["args"])) != case]
    for case in changed:
        state = "changed" if tuple(case["args"]) in old else "new"
        print(f"{state}: {' '.join(case['args'])}")
    if not changed:
        print("no pinned output changed")
    pins = {"platform": platform_info(), "inputs": digests,
            "usage": PINS["usage"], "cases": cases}
    PIN_FILE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {PIN_FILE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
