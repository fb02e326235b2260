"""Which scipy modules each entry point loads, in fresh interpreters.

Importing scipy takes longer than most commands take to run, and no command
needs it: scipy is a test-only dependency, the oracle the ports are checked
against. These tests read ``sys.modules`` after the import or the command,
never a wall-clock time, and run every command once more with scipy
unimportable.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import learcov as lc
from conftest import simulated_dataset

ROOT = Path(__file__).resolve().parents[1]

# Imports learcov, then runs the command given as a JSON argument list (if
# any) through CliRunner, and prints its exit code and the scipy modules
# loaded.
CHILD = """
import json, sys
import learcov
args = json.loads(sys.argv[1])
exit_code = None
if args:
    from click.testing import CliRunner
    from learcov.cli import main
    result = CliRunner().invoke(main, args)
    exit_code = result.exit_code
    if exit_code != 0:
        sys.stderr.write(result.output)
print(json.dumps({
    "exit_code": exit_code,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def child_env():
    """This environment with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def scipy_loaded_by(args):
    """(exit code, scipy modules loaded) of ``args`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(args)],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["exit_code"], set(out["scipy"])


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
    return {"csv": str(csv_path), "spec": str(spec_path),
            "out": str(root / "sim.csv")}


def test_import_learcov_loads_no_scipy():
    assert scipy_loaded_by([]) == (None, set())


@pytest.mark.parametrize("args", [
    ["--version"],
    ["check-special-case", "--input", "{csv}"],
    ["build-matrix", "--times", "1,2,3", "--rho-l", "0.5", "--delta", "1"],
    ["reparam", "--direction", "lear2arma", "--times", "1,2,3",
     "--rho-l", "0.6", "--delta", "2"],
], ids=lambda args: args[0])
def test_commands_that_never_fit_load_no_scipy(files, args):
    args = [a.format(**files) for a in args]
    assert scipy_loaded_by(args) == (0, set())


def test_simulate_loads_no_scipy(files):
    assert scipy_loaded_by(
        ["simulate", "--spec", files["spec"], "--out", files["out"]]
    ) == (0, set())


@pytest.mark.parametrize("args", [
    ["fit", "--input", "{csv}"],
    ["fit", "--input", "{csv}", "--param", "arma11", "--criterion", "reml"],
    ["compare", "--input", "{csv}"],
], ids=["fit", "fit-arma11-reml", "compare"])
def test_fit_and_compare_load_no_scipy(files, args):
    args = [a.format(**files) for a in args]
    assert scipy_loaded_by(args) == (0, set())


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
main(args=sys.argv[1:], prog_name="learcov")
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
