"""Which modules each entry point loads, in fresh interpreters.

Importing scipy takes longer than most commands take to run, and no command
needs it: scipy is a test-only dependency, the oracle the ports are checked
against. No command loads click either: the CLI is built on the standard
library. Nor does a command load learcov modules it does not run: simulate
never loads the estimation code, check-special-case neither that nor the
simulator, and check-special-case and build-matrix not learcov.model.
``import learcov`` itself loads no module until a name is used. Of the
standard library, a check of a small file loads neither dataclasses (and
with it inspect) nor json, and of the commands run here only simulate,
which reads a JSON spec, loads json. These tests read ``sys.modules``
after the import or the command, never a wall-clock time, and run every
command once more with scipy unimportable.
"""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import learcov as lc
from learcov import model
from conftest import simulated_dataset

ROOT = Path(__file__).resolve().parents[1]

# Imports learcov, then runs the command given by its arguments (if any)
# through cli.main with its output captured, fails if numpy.ma was loaded,
# and prints the repr of its exit code and the names of the modules loaded.
# It imports neither json nor ast, so that what the command loads shows.
CHILD = """
import contextlib, io, sys
import learcov
args = sys.argv[1:]
exit_code = None
if args:
    from learcov.cli import main
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exit_code = main(args)
    if exit_code != 0:
        sys.stderr.write(output.getvalue())
# numpy.ma costs a command about 10 ms; a bare np.unique(x) imports it.
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
print(repr((exit_code, sorted(sys.modules))))
"""


def child_env():
    """This environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def loaded_by(args, *packages):
    """(exit code, modules of ``packages`` loaded) of ``args`` in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, modules = ast.literal_eval(proc.stdout.splitlines()[-1])
    return exit_code, {m for m in modules if m.split(".")[0] in packages}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    csv_path = root / "data.csv"
    lc.write_long_csv(
        csv_path, simulated_dataset(40, [1.0, 2.0, 3.0, 4.0], seed=5)
    )
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps({
        "schema_version": 1,
        "n_subjects": 20,
        "times": [[1.0, 2.0, 3.0]],
        "beta": [1.0],
        "design": "intercept",
        "seed": 3,
        "covariance": {"parameterization": "arma11", "sigma2": 1.0,
                       "tau": 0.5, "rho_a": 0.5},
    }), encoding="utf-8")
    text = csv_path.read_text(encoding="utf-8")
    long_path = root / "long.csv"
    long_path.write_text(text + "s1,9,\"" + "1" * 200_000 + "\"\n", encoding="utf-8")
    # The same rows with CRLF line ends, and with the ids quoted as R quotes
    # them: each takes its own route through the check of a small file.
    crlf_path = root / "crlf.csv"
    crlf_path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    quoted_path = root / "quoted.csv"
    quoted_path.write_text(re.sub(r"^(s\d+),", r'"\1",', text, flags=re.M),
                           encoding="utf-8")
    # The rows with a note column, one note over the csv module's field limit.
    note_path = root / "note.csv"
    header, *rows = text.splitlines()
    note_path.write_text("\n".join([f"{header},note", f"{rows[0]},{'n' * 200_000}",
                                    *(f"{row},n" for row in rows[1:])]) + "\n",
                         encoding="utf-8")
    return {"csv": str(csv_path), "spec": str(spec_path), "long": str(long_path),
            "crlf": str(crlf_path), "quoted": str(quoted_path),
            "note": str(note_path), "out": str(root / "sim.csv")}


def test_import_learcov_loads_no_scipy():
    assert loaded_by([], "scipy") == (None, set())


@pytest.mark.parametrize("args", [
    ["--version"],
    ["check-special-case", "--input", "{csv}"],
    ["build-matrix", "--times", "1,2,3", "--rho-l", "0.5", "--delta", "1"],
    ["reparam", "--direction", "lear2arma", "--times", "1,2,3",
     "--rho-l", "0.6", "--delta", "2"],
], ids=lambda args: args[0])
def test_commands_that_never_fit_load_no_scipy(files, args):
    args = [a.format(**files) for a in args]
    assert loaded_by(args, "scipy") == (0, set())


def test_simulate_loads_no_scipy(files):
    assert loaded_by(
        ["simulate", "--spec", files["spec"], "--out", files["out"]], "scipy"
    ) == (0, set())


@pytest.mark.parametrize("args", [
    ["fit", "--input", "{csv}"],
    ["fit", "--input", "{csv}", "--param", "arma11", "--criterion", "reml"],
    ["compare", "--input", "{csv}"],
], ids=["fit", "fit-arma11-reml", "compare"])
def test_fit_and_compare_load_no_scipy(files, args):
    args = [a.format(**files) for a in args]
    assert loaded_by(args, "scipy") == (0, set())


REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

CLI_MAIN = """
import sys
from learcov.cli import main
sys.exit(main(sys.argv[1:]))
"""


def cli_run(args, refuse_scipy, out=None):
    """(exit code, stdout, bytes of ``out`` if given) of one CLI run."""
    code = (REFUSE_SCIPY if refuse_scipy else "") + CLI_MAIN
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, env=child_env(), timeout=300,
    )
    return proc.returncode, proc.stdout, out and Path(out).read_bytes()


def test_the_finder_refuses_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_SCIPY + "import scipy.special"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "ModuleNotFoundError: scipy is blocked" in proc.stderr


@pytest.mark.parametrize("args", [
    ["simulate", "--spec", "{spec}", "--out", "{out}"],
    ["fit", "--input", "{csv}"],
    ["compare", "--input", "{csv}"],
    ["check-special-case", "--input", "{csv}"],
    ["build-matrix", "--times", "1,2,3", "--rho-l", "0.5", "--delta", "1"],
    ["reparam", "--direction", "lear2arma", "--times", "1,2,3",
     "--rho-l", "0.6", "--delta", "2"],
], ids=lambda args: args[0])
def test_commands_run_without_scipy(files, args):
    args = [a.format(**files) for a in args]
    out = files["out"] if args[0] == "simulate" else None
    blocked = cli_run(args, refuse_scipy=True, out=out)
    assert blocked[0] == 0
    assert blocked == cli_run(args, refuse_scipy=False, out=out)


# --------------------------------------------------------------------------
# check-special-case of a small file, without numpy

REFUSE_NUMPY = """
import sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, RefuseNumpy())
"""

# Small files that reach each outcome of the check: verdicts and errors.
SMALL_CHECKS = {
    "irregular": "subject,time\na,1\na,2\na,4.5\nb,2,\nb,3\n",
    "gap-two": "subject,time\r\na,0\r\na,4\r\nb,2\r\nb,6\r\n",
    "bad-time": "subject,time,y\na,1,x\na,2,1\nb,t,1\nb,3,1\n",
    "duplicate": "subject,time\na,1\nb,1\na,1.0\nb,x\n",
    "single-visits": "\ufeffsubject,time\na,1\nb,2\nc,3\n",
    "one-row": "subject,time\na,1\n",
    "no-rows": "subject,time\n\n",
    "no-time-column": "subject,y\na,1\n",
}


@pytest.mark.parametrize("name", ["csv", "crlf", "quoted", "note"])
def test_check_special_case_of_a_small_file_loads_no_numpy_json_or_dataclasses(
        files, name):
    # dataclasses loads inspect, and that ast, dis and tokenize.
    assert loaded_by(["check-special-case", "--input", files[name]],
                     "numpy", "json", "dataclasses", "inspect") == (0, set())


@pytest.mark.parametrize("args", [
    ["fit", "--input", "{csv}"],
    ["compare", "--input", "{csv}"],
    ["build-matrix", "--times", "1,2,3", "--rho-l", "0.5", "--delta", "1"],
    ["reparam", "--direction", "lear2arma", "--times", "1,2,3",
     "--rho-l", "0.6", "--delta", "2"],
    ["check-special-case", "--input", "{long}"],
], ids=["fit", "compare", "build-matrix", "reparam", "check-special-case-long-field"])
def test_commands_that_read_no_json_load_no_json(files, args):
    # Their documents hold only strings that _jsonio quotes itself.
    args = [a.format(**files) for a in args]
    assert loaded_by(args, "json") == (0, set())


def test_simulate_loads_json_to_read_its_spec(files):
    _, loaded = loaded_by(["simulate", "--spec", files["spec"], "--out", files["out"]],
                          "json", "dataclasses", "inspect", "numpy")
    assert {"json", "json.decoder", "dataclasses", "inspect", "numpy"} <= loaded


def test_the_finder_refuses_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_NUMPY + "import numpy"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert "ModuleNotFoundError: numpy is blocked" in proc.stderr


@pytest.mark.parametrize("name", ["csv", *SMALL_CHECKS])
def test_check_special_case_of_a_small_file_runs_without_numpy(files, tmp_path, name):
    if name in SMALL_CHECKS:
        path = tmp_path / f"{name}.csv"
        path.write_text(SMALL_CHECKS[name], encoding="utf-8")
    else:
        path = files[name]
    args = ["check-special-case", "--input", str(path)]
    outcomes = [
        subprocess.run([sys.executable, "-c", code + CLI_MAIN, *args],
                       capture_output=True, env=child_env(), timeout=300)
        for code in (REFUSE_NUMPY, "")
    ]
    blocked, present = ((p.returncode, p.stdout, p.stderr) for p in outcomes)
    assert blocked == present


# --------------------------------------------------------------------------
# learcov's own modules

# What every subcommand loads besides the package: the CLI and what the CLI
# names before a command runs, none of which imports numpy. A fit or compare
# also loads learcov.model to build its flags from FitOptions.
CLI_MODULES = {"cli", "_jsonio", "errors"}
# What reading a CSV into a dataset loads: dataio, and plain for the read.
READ = {"core", "dataio", "plain"}


@pytest.mark.parametrize("args, runs", [
    (["build-matrix", "--times", "1,2,3", "--rho-l", "0.5", "--delta", "1"],
     {"core"}),
    (["reparam", "--direction", "lear2arma", "--times", "1,2,3",
      "--rho-l", "0.6", "--delta", "2"], {"core", "plain", "reparam"}),
    (["check-special-case", "--input", "{csv}"], {"plain"}),
    # A row over the csv module's field limit sends the check to numpy's
    # reader and reparam.
    (["check-special-case", "--input", "{long}"], {"core", "plain", "reparam"}),
    # Writing a CSV needs no learcov.plain.
    (["simulate", "--spec", "{spec}", "--out", "{out}"],
     {"core", "dataio", "model", "sim"}),
    (["fit", "--input", "{csv}"], READ | {"estimation", "model"}),
    (["fit", "--input", "{csv}", "--param", "arma11"],
     READ | {"estimation", "model", "reparam"}),
    (["compare", "--input", "{csv}"],
     READ | {"estimation", "model", "reparam"}),
], ids=["build-matrix", "reparam", "check-special-case",
        "check-special-case-long-field", "simulate", "fit", "fit-arma11",
        "compare"])
def test_each_command_loads_only_the_modules_it_runs(files, args, runs):
    # So simulate loads neither estimation nor reparam, check-special-case
    # neither estimation, sim nor model, and fit no sim.
    args = [a.format(**files) for a in args]
    expected = {"learcov", *(f"learcov.{m}" for m in CLI_MODULES | runs)}
    # And no click module.
    assert loaded_by(args, "learcov", "click") == (0, expected)


def test_import_learcov_loads_no_module_of_its_own_and_no_numpy():
    assert loaded_by([], "learcov") == (None, {"learcov"})
    assert loaded_by([], "numpy") == (None, set())


def test_every_public_name_is_its_defining_modules_object():
    assert lc.__all__ == ["__version__", *lc._MODULE_OF]
    for name, module in lc._MODULE_OF.items():
        value = getattr(lc, name)
        assert value.__module__ == f"learcov.{module}", name
        assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_gives_the_public_names():
    namespace = {}
    exec("from learcov import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lc.__all__)
    assert all(namespace[name] is getattr(lc, name) for name in namespace)


def test_unknown_names_are_attribute_errors():
    assert not hasattr(lc, "no_such_name")
    assert set(lc._MODULE_OF) <= set(dir(lc))


@pytest.mark.parametrize("old, name", [
    ("estimation", "SubjectData"),
    ("estimation", "RepeatedMeasuresData"),
    ("estimation", "FitOptions"),
    ("estimation", "CRITERIA"),
    ("estimation", "PARAMETERIZATIONS"),
    ("sim", "DESIGN_RULES"),
    ("sim", "rule_design"),
])
def test_moved_names_resolve_at_their_old_paths(old, name):
    module = importlib.import_module(f"learcov.{old}")
    assert getattr(module, name) is getattr(model, name)
