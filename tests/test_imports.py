"""Which scipy modules each entry point loads, in fresh interpreters.

Importing scipy takes longer than most commands take to run, so only
simulation, which calls scipy.special.ndtri, loads it. These tests read
``sys.modules`` after the import or the command, never a wall-clock time.
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


def scipy_loaded_by(args):
    """(exit code, scipy modules loaded) of ``args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(args)],
        capture_output=True, text=True, env=env, timeout=300,
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


def test_simulate_loads_only_scipy_special(files):
    code, loaded = scipy_loaded_by(
        ["simulate", "--spec", files["spec"], "--out", files["out"]]
    )
    assert code == 0
    assert "scipy.special" in loaded
    assert not any(
        m.startswith(("scipy.optimize", "scipy.linalg")) for m in loaded
    )


@pytest.mark.parametrize("args", [
    ["fit", "--input", "{csv}"],
    ["fit", "--input", "{csv}", "--param", "arma11", "--criterion", "reml"],
    ["compare", "--input", "{csv}"],
], ids=["fit", "fit-arma11-reml", "compare"])
def test_fit_and_compare_load_no_scipy(files, args):
    args = [a.format(**files) for a in args]
    assert scipy_loaded_by(args) == (0, set())
