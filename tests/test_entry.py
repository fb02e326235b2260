"""The learcov program's exit, in child processes.

``learcov.cli.run`` ends the process with ``os._exit`` once the output is
flushed, skipping the interpreter's teardown; ``learcov.__main__.main``
turns the garbage collector off and runs it. Each case here runs
``python -m learcov`` and, as the reference, ``sys.exit(cli.main())``: the
same program left to the interpreter's exit. The two must give the same
stdout bytes, the same stderr once each traceback's frames are set aside
(the frames name ``run``), and the same exit status, which is also pinned.
"""
import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import learcov as lc
from conftest import run_cli, simulated_dataset

ROOT = Path(__file__).resolve().parents[1]
# Children run with the checkout's src first on the path and, unless a case
# asks for unbuffered streams, with Python's default buffering.
ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)
UNBUFFERED = dict(ENV, PYTHONUNBUFFERED="1")
PROGRAM = [sys.executable, "-m", "learcov"]
REFERENCE = [sys.executable, "-c",
             "import sys; from learcov.cli import main; sys.exit(main())"]


def frames_set_aside(stderr: bytes) -> str:
    """``stderr`` without traceback frames and object addresses."""
    text = re.sub(r"(Traceback \(most recent call last\):\n)(?:[ \t].*\n)*",
                  r"\1", stderr.decode())
    return re.sub(r" at 0x[0-9a-f]+", " at 0x", text)


def outcome(command, args, stdout=subprocess.PIPE, close=None, cwd=None, env=ENV):
    """(exit status, stdout bytes, stderr with frames set aside).

    ``close`` names a descriptor, 1 or 2, that the child starts without.
    """
    argv = [*command, *args]
    if close is not None:
        argv = ["sh", "-c", f'exec "$@" {close}>&-', "sh", *argv]
    proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE,
                          env=env, cwd=cwd, timeout=300)
    return proc.returncode, proc.stdout or b"", frames_set_aside(proc.stderr)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    lc.write_long_csv(root / "data.csv",
                      simulated_dataset(40, [1.0, 2.0, 3.0, 4.0], seed=5))
    (root / "spec.json").write_text(json.dumps({
        "schema_version": 1,
        "n_subjects": 20,
        "times": [[1.0, 2.0, 3.0]],
        "beta": [1.0],
        "design": "intercept",
        "seed": 3,
        "covariance": {"parameterization": "arma11", "sigma2": 1.0,
                       "tau": 0.5, "rho_a": 0.5},
    }), encoding="utf-8")
    return root


BUILD = ["build-matrix", "--rho-l", "0.6", "--delta", "2", "--times", "1,2,3"]

# (id, arguments, exit status, how stdout is given), with paths relative to
# the files fixture.
CASES = [
    ("build-matrix", BUILD, 0, None),
    ("reparam", ["reparam", "--direction", "lear2arma", "--rho-l", "0.6",
                 "--delta", "2", "--range", "2", "--verify"], 0, None),
    ("check-special-case", ["check-special-case", "--input", "data.csv"], 0, None),
    ("simulate", ["simulate", "--spec", "spec.json", "--out", "sim.csv"], 0, None),
    ("fit", ["fit", "--input", "data.csv", "--param", "arma11"], 0, None),
    ("compare", ["compare", "--input", "data.csv", "--criterion", "reml"], 0, None),
    ("parse-error", ["fit", "--input", "missing.csv"], 20, None),
    ("bogus-group-flag", ["--bogus"], 12, None),
    ("help", ["--help"], 0, None),
    ("version", ["--version"], 0, None),
    ("bare", [], 2, None),
    ("stdout-closed", BUILD, 0, "closed"),
    ("stdout-closed-error", ["--bogus"], 12, "closed"),
    ("stderr-closed-error", ["--bogus"], 12, "stderr-closed"),
    # The write of the output fails; the token is not written, its message
    # goes to stderr, and then the interpreter's flush of what is left fails.
    ("stdout-full", BUILD, 120, "/dev/full"),
    ("stdout-full-error", ["--bogus"], 120, "/dev/full"),
]
# Unbuffered, a write to a full device leaves nothing to flush: the process
# exits with the error's own code.
UNBUFFERED_STATUS = {"stdout-full": 20, "stdout-full-error": 12}


def text_matrix(n_times):
    """build-matrix arguments for an n_times x n_times matrix as text."""
    return ["build-matrix", "--rho-l", "0.6", "--delta", "2", "--format", "text",
            "--times", ",".join(str(t) for t in range(1, n_times + 1))]


@pytest.mark.parametrize("args, status, stdout, env", [
    *(pytest.param(*case[1:], ENV, id=case[0]) for case in CASES),
    # The cases at the edges of stdout once more with unbuffered streams.
    *(pytest.param(case[1], UNBUFFERED_STATUS.get(case[0], case[2]), case[3],
                   UNBUFFERED, id=case[0] + "-unbuffered")
      for case in CASES if case[3] is not None),
])
def test_the_program_exits_as_main_does(files, args, status, stdout, env):
    def result(command):
        if stdout == "/dev/full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                return outcome(command, args, stdout=full, cwd=files, env=env)
        if stdout in ("closed", "stderr-closed"):
            if os.name != "posix":
                pytest.skip("needs a POSIX shell")
            return outcome(command, args, close=1 if stdout == "closed" else 2,
                           cwd=files, env=env)
        got = outcome(command, args, cwd=files, env=env)
        csv = files / "sim.csv"  # simulate's CSV is output too
        written = csv.read_bytes() if csv.exists() else None
        csv.unlink(missing_ok=True)
        return (*got, written)

    got = result(PROGRAM)
    assert got == result(REFERENCE)
    assert got[0] == status
    if status == 0 and stdout is None:
        assert got[1]  # a document, not an empty run on both sides
    if stdout == "/dev/full":
        # One line for the error, not two chained tracebacks.
        assert got[2].startswith(("ParseError: [Errno 28] No space left on device\n",
                                  "InvalidParams: No such option '--bogus'.\n"))
        assert "During handling" not in got[2]


def early_closed_pipe(command):
    """(exit status, first 20 bytes, stderr) of a 399 x 399 text matrix
    whose reader stops after 20 bytes."""
    proc = subprocess.Popen([*command, *text_matrix(399)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    head = proc.stdout.read(20)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=300), head, frames_set_aside(stderr)


def test_a_reader_that_stops_early_ends_the_program_as_before():
    # Megabytes of text against a 64 KiB pipe: the program is still writing
    # when the reader goes.
    got = early_closed_pipe(PROGRAM)
    assert got == early_closed_pipe(REFERENCE)
    assert got == (1, b"1 0.5999999999999999", "")


def test_a_refinement_from_infinite_values_writes_nothing_to_stderr(tmp_path):
    # Gaps of 1e-300 and 8.9e-16 fail 420 of the 441 scan points and the
    # whole start simplex, so the refinement compares inf with inf for all
    # 400 of its iterations, and must do so without numpy's RuntimeWarning.
    path = tmp_path / "tiny_gaps.csv"
    path.write_text("subject,time,y\na,0,1.0\na,1e-300,2.0\nb,0,0.5\n"
                    "b,8.9e-16,1.5\n", encoding="utf-8")
    status, stdout, stderr = outcome(PROGRAM, ["fit", "--input", str(path)])
    assert (status, stderr) == (0, "")
    result = json.loads(stdout)
    assert (result["iterations"], result["converged"]) == (400, False)
    assert (result["n_scan_failures"], result["max_loglik"]) == (420, -3.3494525132073294)


def test_output_larger_than_a_pipe_arrives_whole():
    args = text_matrix(120)
    status, stdout, stderr = outcome(PROGRAM, args)
    want = run_cli(args).stdout.encode()
    assert len(want) > 4 * 65536
    assert (status, stderr) == (0, "")
    assert stdout == want


# Registers an atexit handler that prints to stdout, and fails after that
# if asked to, then runs the program with the JSON argument list given as
# the child's first argument.
ATEXIT_CHILD = """
import atexit, json, sys
def handler():
    print("atexit handler ran")
    if {fails}:
        raise RuntimeError("the handler failed")
atexit.register(handler)
from learcov.cli import {entry}
sys.argv = ["learcov", *json.loads(sys.argv[1])]
{call}
"""


def with_atexit_handler(entry, args, fails=False, stdout=subprocess.PIPE):
    call = "sys.exit(main())" if entry == "main" else "run()"
    child = ATEXIT_CHILD.format(entry=entry, call=call, fails=fails)
    return outcome([sys.executable, "-c", child], [json.dumps(args)], stdout=stdout)


@pytest.mark.parametrize("args, status", [
    (["--version"], 0), (["--bogus"], 12), (BUILD[:-2], 12),
])
@pytest.mark.parametrize("fails", [False, True])
def test_atexit_handlers_run_before_the_output_is_flushed(args, status, fails):
    got = with_atexit_handler("run", args, fails)
    assert got == with_atexit_handler("main", args, fails)
    assert got[0] == status
    assert got[1].endswith(b"\natexit handler ran\n")
    assert got[2].endswith("RuntimeError: the handler failed\n") == fails


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_flush_that_fails_at_exit_is_left_to_the_interpreter():
    # A bare learcov writes its help to stderr. The handler's line is still
    # buffered when run flushes stdout, which fails; the interpreter then
    # reports the failed flush and exits 120.
    with open("/dev/full", "wb") as full:
        got = with_atexit_handler("run", [], stdout=full)
    with open("/dev/full", "wb") as full:
        assert got == with_atexit_handler("main", [], stdout=full)
    assert got[0] == 120
    assert got[2].endswith("OSError: [Errno 28] No space left on device\n")


def test_a_profiler_still_writes_its_report():
    status, stdout, _ = outcome([sys.executable, "-m", "cProfile", "-m", "learcov"],
                                ["--version"])
    assert status == 0
    assert stdout.startswith(b"learcov, version ")
    assert b"function calls" in stdout


def test_the_console_script_runs_what_python_m_learcov_runs():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["learcov"]
    module, _, name = target.partition(":")
    script_entry = getattr(importlib.import_module(module), name)
    # The function __main__ calls under ``if __name__ == "__main__":``.
    source = (ROOT / "src" / "learcov" / "__main__.py").read_text()
    guard = next(node for node in ast.parse(source).body if isinstance(node, ast.If))
    called = guard.body[0].value.func.id
    main_module = importlib.import_module("learcov.__main__")
    assert getattr(main_module, called) is script_entry is main_module.main


# Registers an atexit handler that prints the collector's state and what a
# collection then finds, then runs the program as the console script does.
GC_CHILD = """
import atexit, gc, json, sys
from learcov.__main__ import main

def report():
    print(json.dumps([gc.isenabled(), gc.get_freeze_count(), gc.collect()]))

atexit.register(report)
sys.argv = ["learcov", *json.loads(sys.argv[1])]
main()
"""


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """Simulation specs and the CSVs they draw: 30 subjects on one grid,
    and 300 subjects each on its own grid, the unit grid shifted or jittered
    (300 time patterns, many profile evaluations)."""
    root = tmp_path_factory.mktemp("sized")
    rng = np.random.default_rng(11)
    grid = np.arange(1.0, 5.0)
    inputs = {
        "unit-30": (30, [grid]),
        "shifted-300": (300, grid + rng.uniform(0, 1, (300, 1))),
        "jittered-300": (300, grid + rng.uniform(-0.3, 0.3, (300, grid.size))),
    }
    for name, (n_subjects, times) in inputs.items():
        spec = root / f"{name}.json"
        spec.write_text(json.dumps({
            "schema_version": 1,
            "n_subjects": n_subjects,
            "times": [list(t) for t in times],
            "beta": [1.0],
            "seed": 5,
            "covariance": {"parameterization": "lear", "sigma2": 1.0,
                           "rho_l": 0.5, "delta": 2.0},
        }), encoding="utf-8")
        lc.write_long_csv(root / f"{name}.csv", lc.simulate(lc.load_sim_spec(spec)))
    return root


@pytest.mark.parametrize("command, inputs", [
    ("fit", ["unit-30", "shifted-300", "jittered-300"]),
    # A comparison needs a grid of whole distances.
    ("compare", ["unit-30", "shifted-300"]),
    ("simulate", ["unit-30", "shifted-300", "jittered-300"]),
    ("check-special-case", ["unit-30", "shifted-300", "jittered-300"]),
])
def test_the_program_runs_with_the_collector_off(sized_inputs, command, inputs):
    collected = []
    for name in inputs:
        args = ([command, "--spec", f"{name}.json", "--out", "out.csv"]
                if command == "simulate" else [command, "--input", f"{name}.csv"])
        status, stdout, stderr = outcome([sys.executable, "-c", GC_CHILD],
                                         [json.dumps(args)], cwd=sized_inputs)
        assert (status, stderr) == (0, "")
        enabled, frozen, found = json.loads(stdout.splitlines()[-1])
        assert not enabled and frozen == 0
        collected.append(found)
    # Ten times the subjects, each with its own times, leave the same cyclic
    # garbage: none is made per row, subject, pattern or evaluation.
    assert len(set(collected)) == 1, collected


@pytest.mark.parametrize("args", [
    BUILD, ["fit", "--input", "data.csv"], ["check-special-case", "--input", "data.csv"],
], ids=["build-matrix", "fit", "check-special-case"])
def test_main_in_process_leaves_the_collector_alone(files, args):
    frozen = gc.get_freeze_count()
    result = run_cli([str(files / a) if a == "data.csv" else a for a in args])
    assert result.exit_code == 0
    assert gc.get_freeze_count() == frozen
    assert gc.isenabled()
