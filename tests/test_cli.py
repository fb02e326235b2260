import json

import numpy as np
import pytest
from click.testing import CliRunner

import learcov as lc
from learcov.cli import main
from conftest import simulated_dataset

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def payload_of(result):
    assert result.exit_code == 0, result.stderr or result.stdout
    return json.loads(result.stdout)


def dataset_csv(tmp_path, n_subjects=60, times=(1.0, 2.0, 3.0, 4.0), seed=17):
    path = tmp_path / "data.csv"
    lc.write_long_csv(path, simulated_dataset(n_subjects, times, seed=seed))
    return str(path)


# --------------------------------------------------------------------------
# basics


def test_version_flag():
    result = invoke("--version")
    assert result.exit_code == 0
    assert "learcov" in result.stdout


def test_reparam_forward_example():
    out = payload_of(
        invoke("reparam", "--direction", "lear2arma",
               "--rho-l", "0.6", "--delta", "2", "--range", "2")
    )
    assert out["schema_version"] == 1
    assert list(out["input"]) == ["sigma2", "rho_l", "delta"]
    assert list(out["output"]) == ["sigma2", "tau", "rho_a"]
    assert out["output"]["tau"] == 0.6
    assert out["output"]["rho_a"] == 0.6
    assert out["warnings"] == []


def test_reparam_inverse_example():
    out = payload_of(
        invoke("reparam", "--direction", "arma2lear",
               "--tau", "0.6", "--rho-a", "0.6", "--range", "2")
    )
    assert list(out["input"]) == ["sigma2", "tau", "rho_a"]
    assert list(out["output"]) == ["sigma2", "rho_l", "delta"]
    assert out["output"]["rho_l"] == 0.6
    assert out["output"]["delta"] == pytest.approx(2.0, rel=1e-15)


def test_reparam_derives_range_from_times():
    out = payload_of(
        invoke("reparam", "--direction", "lear2arma",
               "--rho-l", "0.5", "--delta", "3", "--times", "2,4,6,8")
    )
    # spacing 2 normalizes [2,4,6,8] to distances 1..3
    assert out["range"] == 2.0


def test_reparam_refuses_times_without_a_common_gap():
    result = invoke("reparam", "--direction", "lear2arma",
                    "--rho-l", "0.5", "--delta", "3", "--times", "1,2,4.5")
    assert result.exit_code == 15
    assert result.stdout.strip() == "E_NOT_SPECIAL_CASE"


def test_reparam_needs_exactly_one_range_source():
    both = invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.5",
                  "--delta", "1", "--range", "2", "--times", "1,2,3")
    neither = invoke("reparam", "--direction", "lear2arma",
                     "--rho-l", "0.5", "--delta", "1")
    for result in (both, neither):
        assert result.exit_code == 12
        assert result.stdout.strip() == "E_INVALID_PARAMS"
        assert "InvalidParams" in result.stderr


def test_reparam_requires_source_parameters():
    result = invoke("reparam", "--direction", "lear2arma", "--range", "2")
    assert result.exit_code == 12
    assert result.stdout.strip() == "E_INVALID_PARAMS"


def test_reparam_rejects_points_outside_the_image():
    result = invoke("reparam", "--direction", "arma2lear",
                    "--tau", "-0.5", "--rho-a", "0.5", "--range", "2")
    assert result.exit_code == 17
    assert result.stdout.strip() == "E_OUTSIDE_LEAR_IMAGE"


def test_reparam_verify_reports_matrix_agreement():
    out = payload_of(
        invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.6",
               "--delta", "2", "--times", "1,2,3,4", "--verify")
    )
    assert out["max_matrix_difference"] < 1e-15


def test_reparam_verify_accepts_integer_ranges_only():
    ok = payload_of(
        invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.6",
               "--delta", "2", "--range", "3", "--verify")
    )
    assert ok["max_matrix_difference"] < 1e-15
    bad = invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.6",
                 "--delta", "2", "--range", "2.5", "--verify")
    assert bad.exit_code == 12


def test_reparam_surfaces_warnings():
    result = invoke("reparam", "--direction", "lear2arma",
                    "--rho-l", "0", "--delta", "1", "--range", "2")
    out = json.loads(result.stdout)
    assert result.exit_code == 0
    assert len(out["warnings"]) == 1
    assert "warning:" in result.stderr
    assert out["output"]["tau"] == 0.0


def test_build_matrix_json_output():
    out = payload_of(
        invoke("build-matrix", "--rho-l", "0.5", "--delta", "0",
               "--times", "1,2,3", "--sigma2", "2")
    )
    cov = np.array(out["covariance"])
    # delta 0 collapses to compound symmetry
    assert np.allclose(cov, np.where(np.eye(3), 2.0, 1.0), atol=0, rtol=0)


def test_build_matrix_text_output():
    result = invoke("build-matrix", "--rho-l", "0.5", "--delta", "1",
                    "--times", "1,2,3", "--format", "text")
    assert result.exit_code == 0
    rows = [[float(v) for v in line.split()] for line in result.stdout.splitlines()]
    mat = np.array(rows)
    assert mat.shape == (3, 3)
    assert np.array_equal(mat, mat.T)
    assert mat[0, 1] == 0.5


def test_build_matrix_requires_parameters():
    result = invoke("build-matrix", "--times", "1,2,3")
    assert result.exit_code == 12
    assert "--rho-l" in result.stderr


def test_build_matrix_rejects_bad_times():
    result = invoke("build-matrix", "--rho-l", "0.5", "--delta", "1",
                    "--times", "1,two,3")
    assert result.exit_code == 20
    assert result.stdout.strip() == "E_PARSE_ERROR"


def test_check_special_case_reports_eligibility(tmp_path):
    out = payload_of(invoke("check-special-case", "--input",
                            dataset_csv(tmp_path)))
    assert out["eligible"] is True
    assert out["spacing"] == 1.0
    irregular = tmp_path / "irr.csv"
    lc.write_long_csv(irregular, simulated_dataset(4, [1.0, 2.0, 4.5], seed=3))
    out = payload_of(invoke("check-special-case", "--input", str(irregular)))
    assert out["eligible"] is False


# --------------------------------------------------------------------------
# simulate / fit / compare over files


def spec_file(tmp_path, n_subjects=50, times=((1.0, 2.0, 3.0, 4.0),)):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "n_subjects": n_subjects,
        "times": times,
        "beta": [1.0],
        "design": "intercept",
        "seed": 9,
        "covariance": {"parameterization": "lear", "sigma2": 1.0,
                       "rho_l": 0.5, "delta": 2.0},
    }), encoding="utf-8")
    return str(path)


def test_simulate_writes_reproducible_csv(tmp_path):
    spec = spec_file(tmp_path)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    report = payload_of(invoke("simulate", "--spec", spec, "--out", out1))
    assert report["n_subjects"] == 50
    assert report["n_obs"] == 200
    payload_of(invoke("simulate", "--spec", spec, "--out", out2))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_commands_build_no_per_subject_objects(tmp_path, monkeypatch):
    built = {"SubjectData": 0, "subjects": 0}
    post_init = lc.SubjectData.__post_init__
    subjects = lc.RepeatedMeasuresData.__dict__["subjects"].func

    def counting_post_init(self):
        built["SubjectData"] += 1
        post_init(self)

    def counting_subjects(self):
        built["subjects"] += 1
        return subjects(self)

    monkeypatch.setattr(lc.SubjectData, "__post_init__", counting_post_init)
    monkeypatch.setattr(lc.RepeatedMeasuresData, "subjects", property(counting_subjects))
    spec = spec_file(tmp_path, times=((1.0, 2.0, 3.0, 4.0), (2.0, 3.0)))
    csv_path = str(tmp_path / "data.csv")
    payload_of(invoke("simulate", "--spec", spec, "--out", csv_path))
    for command in ("fit", "compare", "check-special-case"):
        payload_of(invoke(command, "--input", csv_path))
    payload_of(invoke("fit", "--input", csv_path, "--param", "arma11"))
    assert built == {"SubjectData": 0, "subjects": 0}
    # The counters see what they count.
    lc.read_long_csv(csv_path).subjects
    lc.SubjectData([1.0], [0.0], [[1.0]])
    assert built == {"SubjectData": 1, "subjects": 1}


def test_simulate_reports_a_non_numeric_spec_field(tmp_path):
    spec = spec_file(tmp_path, times="abc")
    result = invoke("simulate", "--spec", spec, "--out", str(tmp_path / "a.csv"))
    assert result.exit_code == 20
    assert result.stdout.strip() == "E_PARSE_ERROR"
    assert "'times'" in result.stderr


def test_fit_reports_estimates(tmp_path):
    out = payload_of(invoke("fit", "--input", dataset_csv(tmp_path, 120)))
    assert out["command"] == "fit"
    assert out["parameterization"] == "lear"
    est = out["estimates"]
    assert list(est) == ["sigma2", "rho_l", "delta"]
    assert abs(est["rho_l"] - 0.5) < 0.2
    assert out["max_loglik"] >= out["scan_max_loglik"]
    assert isinstance(out["boundary_flags"], list)
    assert out["converged"] is True


def test_fit_supports_the_position_form(tmp_path):
    out = payload_of(invoke("fit", "--input", dataset_csv(tmp_path, 80),
                            "--param", "arma11", "--criterion", "reml"))
    assert out["criterion"] == "reml"
    assert list(out["estimates"]) == ["sigma2", "tau", "rho_a"]


def test_fit_output_is_byte_identical(tmp_path):
    csv_path = dataset_csv(tmp_path, 40)
    a = invoke("fit", "--input", csv_path)
    b = invoke("fit", "--input", csv_path)
    assert a.exit_code == b.exit_code == 0
    assert a.stdout == b.stdout


def test_compare_reports_agreement(tmp_path):
    out = payload_of(invoke("compare", "--input", dataset_csv(tmp_path, 120)))
    assert out["command"] == "compare"
    assert out["spacing"] == 1.0
    assert out["loglik_difference"] < 1e-4
    assert out["max_covariance_difference"] < 1e-3
    assert list(out["arma_mapped_to_lear"]) == ["sigma2", "rho_l", "delta"]


def test_compare_rejects_irregular_grids(tmp_path):
    path = tmp_path / "irr.csv"
    lc.write_long_csv(path, simulated_dataset(30, [1.0, 2.0, 4.5], seed=3))
    result = invoke("compare", "--input", str(path))
    assert result.exit_code == 15
    assert result.stdout.strip() == "E_NOT_SPECIAL_CASE"


def test_fit_errors_map_to_exit_codes(tmp_path):
    missing = invoke("fit")
    assert missing.exit_code == 12
    absent = invoke("fit", "--input", str(tmp_path / "nope.csv"))
    assert absent.exit_code == 20
    dup = tmp_path / "dup.csv"
    dup.write_text("subject,time,y\na,1,0.5\na,1,0.6\n", encoding="utf-8")
    dup_result = invoke("fit", "--input", str(dup))
    assert dup_result.exit_code == 19
    assert dup_result.stdout.strip() == "E_DUPLICATE_MEASUREMENT"


# --------------------------------------------------------------------------
# config files


def test_config_fills_unset_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nrho-l = 0.5\ndelta = 1\nsigma2 = 3\n",
                   encoding="utf-8")
    out = payload_of(invoke("build-matrix", "--times", "1,2,3",
                            "--config", str(cfg)))
    assert out["rho_l"] == 0.5
    assert out["delta"] == 1.0
    assert out["sigma2"] == 3.0


def test_flags_beat_config_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho-l=0.5\ndelta=1\n", encoding="utf-8")
    out = payload_of(invoke("build-matrix", "--times", "1,2,3",
                            "--delta", "2", "--config", str(cfg)))
    assert out["delta"] == 2.0  # flag wins
    assert out["rho_l"] == 0.5  # config fills the gap
    assert out["sigma2"] == 1.0  # built-in default survives


def test_config_keys_for_other_commands_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho-l=0.5\ndelta=1\ngrid-points=31\n", encoding="utf-8")
    out = payload_of(invoke("build-matrix", "--times", "1,2,3",
                            "--config", str(cfg)))
    assert out["rho_l"] == 0.5


def test_config_supplies_required_like_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input={dataset_csv(tmp_path, 30)}\ncriterion=reml\n",
                   encoding="utf-8")
    out = payload_of(invoke("fit", "--config", str(cfg)))
    assert out["criterion"] == "reml"


def test_config_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho-l 0.5\n", encoding="utf-8")
    result = invoke("build-matrix", "--times", "1,2,3", "--config", str(cfg))
    assert result.exit_code == 20
    assert result.stdout.strip() == "E_PARSE_ERROR"


def test_config_file_must_exist(tmp_path):
    result = invoke("build-matrix", "--times", "1,2,3",
                    "--config", str(tmp_path / "missing.cfg"))
    assert result.exit_code == 20
