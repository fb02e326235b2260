"""Self-tests of the benchmark: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = gen.generate(workload, 3, tmp_path / "a")
    again = gen.generate(workload, 3, tmp_path / "b")
    other = gen.generate(workload, 4, tmp_path / "c")
    assert first["files"] == again["files"]
    assert first["spec"] == again["spec"]
    assert (first["files"], first["spec"]) != (other["files"], other["spec"])


def _tiny_data(lc):
    rng = np.random.default_rng(5)
    templates = [np.arange(1.0, 6.0), np.arange(2.0, 5.0)]
    subjects = []
    for i in range(12):
        t = templates[i % 2]
        subjects.append(lc.SubjectData(t, 1.0 + 0.2 * t + rng.standard_normal(t.size),
                                       np.column_stack([np.ones(t.size), t])))
    return lc.RepeatedMeasuresData(tuple(subjects))


@pytest.mark.parametrize("criterion", ["ml", "reml"])
@pytest.mark.parametrize("parameterization,point", [
    ("lear", (0.4, 2.5)), ("lear", (0.7, 0.0)), ("arma11", (0.5, 0.6)),
])
def test_dense_oracle_equals_profile_loglik(criterion, parameterization, point):
    import learcov as lc

    data = _tiny_data(lc)
    expected = lc.profile_loglik(data, point, criterion, parameterization)
    dense = oracle.profile(oracle.Dataset((s.times, s.y, s.X) for s in data.subjects),
                           parameterization, criterion, *point)
    assert dense == pytest.approx(expected, rel=1e-12)


def test_fit_check_accepts_fit_and_rejects_perturbed_loglik():
    import learcov as lc

    data = _tiny_data(lc)
    doc = lc.fit(data, "lear", "reml").to_dict()
    dataset = oracle.Dataset((s.times, s.y, s.X) for s in data.subjects)
    assert oracle.check_fit(doc, dataset, "lear", "reml") == []
    doc["max_loglik"] *= 1 + 1e-7
    assert oracle.check_fit(doc, dataset, "lear", "reml")


@pytest.mark.parametrize("key", ["estimates", "beta_hat", "scan_max_loglik",
                                 "n_scan_failures"])
def test_fit_check_reports_malformed_document_as_problem(key):
    import learcov as lc

    data = _tiny_data(lc)
    doc = lc.fit(data, "lear", "reml").to_dict()
    dataset = oracle.Dataset((s.times, s.y, s.X) for s in data.subjects)
    missing = {k: v for k, v in doc.items() if k != key}
    assert oracle.check_fit(missing, dataset, "lear", "reml")
    assert oracle.check_fit({**doc, key: "x"}, dataset, "lear", "reml")
    assert oracle.check_compare({"lear": missing}, dataset, "reml")


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for name in [*end_to_end, *per_layer]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


COUNTS = """
import json, sys
import learcov
r = learcov.fit(learcov.read_long_csv(sys.argv[1], design="intercept-time"))
print(json.dumps([r.iterations, r.n_scan_failures]))
"""


def test_counts_repeat_across_runs(tmp_path):
    gen.generate("fit-large", 9, tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LEARCOV_THREADS", None)
    runs = [
        subprocess.run([sys.executable, "-c", COUNTS, str(tmp_path / "data.csv")],
                       env=env, capture_output=True, text=True, check=True, timeout=120)
        for _ in range(2)
    ]
    counts = [json.loads(r.stdout) for r in runs]
    assert counts[0] == counts[1]
