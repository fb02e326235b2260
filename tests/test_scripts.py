"""Smoke tests for the Monte Carlo scripts under scripts/.

Each script runs as a subprocess on a tiny study and must exit cleanly and
print its summary.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name),
         "--replicates", "2", "--n-subjects", "40"],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("name, summary", [
    ("parameter_recovery.py",
     r"median absolute errors\n  \|sigma2 - truth\|  \d+\.\d{4}\n"
     r"  \|rho_l - truth\|   \d+\.\d{4}\n  \|delta/R - 1\|     \d+\.\d{4}\n$"),
    ("dual_fit_comparison.py",
     r"\n[0-2]/2 replicates agree at loglik<0\.0001, covariance<0\.001\n$"),
])
def test_script_runs_and_prints_its_summary(name, summary):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^ +1 ", proc.stdout, re.M), proc.stdout  # both replicates ran
    assert re.search(summary, proc.stdout), proc.stdout
