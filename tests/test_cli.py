import json
from dataclasses import fields
from inspect import signature

import numpy as np
import pytest

import learcov as lc
from learcov import cli, estimation
from conftest import run_cli, simulated_dataset


def invoke(*args):
    return run_cli(args)


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


@pytest.mark.parametrize("args", [
    ["--bogus"], ["-x", "fit"], ["--version=1"], ["--help=yes"], ["no-such-command"],
])
def test_malformed_group_flags_are_invalid_params(args):
    result = invoke(*args)
    assert (result.exit_code, result.stdout) == (12, "E_INVALID_PARAMS\n")
    assert result.stderr.startswith("InvalidParams: ")


def test_help_lists_the_commands():
    result = invoke("--help")
    assert result.exit_code == 0 and result.stdout.startswith("usage: learcov ")
    for name, command in cli._COMMANDS.items():
        assert f"\n  {name} " in result.stdout
        assert command.summary in result.stdout
    # A bare learcov shows the same help on stderr, and exits 2.
    assert invoke() == (2, "", result.stdout)


@pytest.mark.parametrize("command", ["build-matrix", "reparam", "check-special-case",
                                     "simulate", "fit", "compare"])
def test_help_of_a_command_names_its_flags(command):
    # --help comes before the values are converted.
    result = invoke(command, "--sigma2", "x", "--help") if command in (
        "build-matrix", "reparam") else invoke(command, "--help")
    assert (result.exit_code, result.stderr) == (0, "")
    assert result.stdout.startswith(f"usage: learcov {command} [OPTIONS]")
    for option in cli._options(command):
        assert option.flag in result.stdout


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
    for direction, needs in (("lear2arma", "--rho-l and --delta"),
                             ("arma2lear", "--tau and --rho-a")):
        result = invoke("reparam", "--direction", direction, "--range", "3")
        assert result.exit_code == 12
        assert result.stdout.strip() == "E_INVALID_PARAMS"
        assert result.stderr == f"InvalidParams: {direction} needs {needs}\n"


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


def test_reparam_verify_checks_the_inverse_map_too():
    for source in (["--range", "3"], ["--times", "2,4,6,8"]):
        out = payload_of(
            invoke("reparam", "--direction", "arma2lear", "--tau", "0.6",
                   "--rho-a", "0.5", "--verify", *source)
        )
        assert list(out["output"]) == ["sigma2", "rho_l", "delta"]
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


def matrix_difference(lear, arma, R):
    """What reparam --verify reported before it went lag by lag: the largest
    entry of |LEAR - ARMA(1,1)| covariance on the unit grid of range R."""
    grid = lc.normalize_grid(lc.build_grid([np.arange(1.0, R + 3.0)]))
    return float(np.max(np.abs(
        lc.lear_covariance(lear, grid, 0)
        - lc.arma11_covariance(arma, grid.subject_times[0].size)
    )))


@pytest.mark.parametrize("R", [1, 2, 3, 7, 30, 257])
def test_reparam_verify_keeps_the_matrix_bits(R):
    for rho, second in [(0.0, 0.0), (0.05, 0.5), (0.3, 2.5), (0.6, 1.0),
                        (0.97, 7.0), (0.6, 1e3)]:
        lear = lc.LearParams(1.7, rho, second)
        # rho_l = 0 maps to (0, 0), with a warning the CLI reports.
        mapped = lc.map_lear_to_arma11(rho, second, R) if rho > 0 else (0.0, 0.0)
        pairs = [(lear, lc.Arma11Params(1.7, *mapped))]
        if rho > 0:
            arma = lc.Arma11Params(0.9, rho, min(0.999, second / 8 + 0.01))
            pairs.append((lc.LearParams(0.9, *lc.map_arma11_to_lear(
                arma.tau, arma.rho_a, R)), arma))
        # And a pair the maps do not relate, whose difference is large.
        pairs.append((lear, lc.Arma11Params(1.7, 0.5, 0.3)))
        for lear_p, arma_p in pairs:
            got = cli._max_lag_difference(lear_p, arma_p, float(R))
            assert got.hex() == matrix_difference(lear_p, arma_p, R).hex()


@pytest.mark.parametrize("R", ["1e300", str(cli._VERIFY_MAX_RANGE + 1)])
def test_reparam_verify_refuses_ranges_beyond_its_bound(R):
    result = invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.5",
                    "--delta", "1", "--range", R, "--verify")
    assert (result.exit_code, result.stdout) == (12, "E_INVALID_PARAMS\n")
    assert str(cli._VERIFY_MAX_RANGE) in result.stderr
    largest = payload_of(invoke(
        "reparam", "--direction", "lear2arma", "--rho-l", "0.5", "--delta", "1",
        "--range", str(cli._VERIFY_MAX_RANGE), "--verify"))
    # Rounding only, though the powers reach lag 100001.
    assert largest["max_matrix_difference"] < 1e-11


@pytest.mark.parametrize("R", ["inf", "nan"])
def test_reparam_names_a_non_finite_range(R):
    result = invoke("reparam", "--direction", "lear2arma", "--rho-l", "0.5",
                    "--delta", "1", "--range", R)
    assert (result.exit_code, result.stdout) == (16, "E_DEGENERATE_RANGE\n")
    assert "must be finite and positive" in result.stderr


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


# Times a: 1, 2, 3 and b: 2, 3, an eligible grid; the checks below spoil
# each file in a column other than the subject and time.
CHECK_ROWS = [("a", "1"), ("a", "2"), ("b", "2"), ("a", "3"), ("b", "3")]


def check_csv(tmp_path, header, cells):
    rows = [",".join([*key, *extra]) for key, extra in zip(CHECK_ROWS, cells)]
    path = tmp_path / "check.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("header, cells", [
    ("subject,time", [[]] * 5),
    ("subject,time,y", [["0.5"], ["x"], ["1"], ["2"], ["3"]]),
    ("subject,time,y", [["0.5"], ["inf"], ["1"], ["nan"], ["3"]]),
    ("subject,time,y", [["0.5"], [], ["1"], [], ["3"]]),
    ("subject,time,y", [["0.5"], ["1" * 200_000], ["1"], ["2"], ["3"]]),
], ids=["no-y", "unparsable-y", "non-finite-y", "short-rows", "long-y"])
def test_check_special_case_reads_only_the_subject_and_time(tmp_path, header, cells):
    out = payload_of(invoke("check-special-case", "--input",
                            check_csv(tmp_path, header, cells)))
    assert out == {
        "schema_version": 1, "command": "check-special-case", "eligible": True,
        "equally_spaced": True, "integer_distances": True, "dmin_is_one": True,
        "spacing": 1.0,
    }


@pytest.mark.parametrize("config, fit_token", [
    # A constant covariate makes the fit's design rank-deficient.
    ("design=dose\n", "E_RANK_DEFICIENT"),
    ("y_col=weight\n", "E_PARSE_ERROR"),
], ids=["design", "y-col"])
def test_check_special_case_ignores_the_fit_keys_of_a_config(tmp_path, config,
                                                             fit_token):
    path = check_csv(tmp_path, "subject,time,y,dose", [["1", "0"]] * 5)
    config_path = tmp_path / "check.cfg"
    config_path.write_text(config, encoding="utf-8")
    fit = invoke("fit", "--input", path, "--config", str(config_path))
    assert fit.stdout == fit_token + "\n"
    out = payload_of(invoke("check-special-case", "--input", path,
                            "--config", str(config_path)))
    assert out["eligible"] is True


def test_check_special_case_names_the_first_bad_time(tmp_path):
    # The bad y of row 2 is not read; the bad time of row 4 is named.
    path = tmp_path / "check.csv"
    path.write_text("subject,time,y\na,1,x\na,2,1\nb,t,1\nb,3,1\n", encoding="utf-8")
    result = invoke("check-special-case", "--input", str(path))
    assert (result.exit_code, result.stdout) == (20, "E_PARSE_ERROR\n")
    assert result.stderr == "ParseError: row 4: cannot parse time='t' as a number\n"


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


def test_simulate_refuses_a_spec_that_is_not_a_json_object(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("[1, 2]", encoding="utf-8")
    result = invoke("simulate", "--spec", str(spec), "--out", str(tmp_path / "out.csv"))
    assert (result.exit_code, result.stdout) == (20, "E_PARSE_ERROR\n")
    assert result.stderr == "ParseError: simulation spec must be a JSON object\n"


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


def test_check_and_fit_build_no_per_subject_grid(tmp_path, monkeypatch):
    # Grids by their number of subjects, counted as MeasurementGrid's
    # __post_init__ runs, and workspaces as _Prepared's __init__ runs.
    grids = []
    workspaces = []
    post_init = lc.MeasurementGrid.__post_init__
    prepare = estimation._Prepared.__init__

    def counting_post_init(self):
        grids.append(len(self.subject_times))
        post_init(self)

    def counting_prepare(self, data):
        workspaces.append(data)
        prepare(self, data)

    monkeypatch.setattr(lc.MeasurementGrid, "__post_init__", counting_post_init)
    monkeypatch.setattr(estimation._Prepared, "__init__", counting_prepare)
    data = lc.simulate(lc.SimSpec(
        n_subjects=30, times=(np.arange(1.0, 5.0), np.arange(2.0, 4.0)),
        beta=np.array([1.0]), covariance=lc.Arma11Params(1.0, 0.5, 0.5), seed=3,
    ))
    lc.write_long_csv(tmp_path / "arma.csv", data)
    assert grids == []
    # A LEAR spec's simulator pools its two templates in one grid.
    spec = spec_file(tmp_path, times=((1.0, 2.0, 3.0, 4.0), (2.0, 3.0)))
    csv_path = str(tmp_path / "data.csv")
    payload_of(invoke("simulate", "--spec", spec, "--out", csv_path))
    assert grids == [2]
    grids.clear()
    payload_of(invoke("check-special-case", "--input", csv_path))
    assert (grids, workspaces) == ([], [])
    for args in (["fit"], ["fit", "--param", "arma11"], ["fit", "--criterion", "reml"]):
        payload_of(invoke(*args, "--input", csv_path))
        assert (grids, len(workspaces)) == ([], 1)
        workspaces.clear()
    # compare's two fits share one workspace; its one grid holds the
    # reference subject alone.
    for criterion in ("ml", "reml"):
        payload_of(invoke("compare", "--criterion", criterion, "--input", csv_path))
        assert (grids, len(workspaces)) == ([1], 1)
        grids.clear()
        workspaces.clear()
    # The counter sees the grid a caller asks for.
    lc.read_long_csv(csv_path).grid
    assert grids == [50]


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


@pytest.mark.parametrize("scale", [1e160, 1.5e154])
@pytest.mark.parametrize("command", ["fit", "compare"])
def test_overflowing_cross_products_map_to_invalid_size(tmp_path, command, scale):
    # Squares of y beyond the largest double (1e160), or finite squares whose
    # sums overflow (1.5e154), used to end in a traceback with empty stdout.
    rng = np.random.default_rng(0)
    path = tmp_path / "big.csv"
    path.write_text("subject,time,y\n" + "".join(
        f"s{i},{t},{scale * rng.standard_normal():.17g}\n"
        for i in range(6) for t in range(1, 5)
    ), encoding="utf-8")
    result = invoke(command, "--input", str(path))
    assert result.exit_code == 13
    assert result.stdout == "E_INVALID_SIZE\n"
    assert result.stderr == (
        "InvalidSize: cross products of y and X overflow float64; "
        "rescale the data\n"
    )


@pytest.mark.parametrize("factor", ["1e308", "inf"])
def test_an_overflowing_delta_cap_is_refused_as_a_parameter(tmp_path, factor):
    # The scan axis linspace(0, factor * range) overflows; the data are fine.
    result = invoke("fit", "--input", dataset_csv(tmp_path, 20),
                    "--delta-cap-factor", factor)
    assert result.exit_code == 12
    assert result.stdout == "E_INVALID_PARAMS\n"
    assert result.stderr.startswith("InvalidParams: delta_cap_factor ")


INPUT_FLAGS = {"input_path", "subject_col", "time_col", "y_col", "design"}


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_fit_flags_mirror_fit_options(command):
    params = {option.dest: option for option in cli._options(command)}
    own = set(params) - INPUT_FLAGS - {"config", "parameterization"}
    assert own == {"criterion", *(f.name for f in fields(lc.FitOptions))}
    assert params["criterion"].default == signature(lc.fit).parameters["criterion"].default
    for f in fields(lc.FitOptions):
        flag = params[f.name]
        assert flag.flag == "--" + f.name.replace("_", "-")
        assert flag.default == f.default and type(flag.default) is type(f.default)
        assert (flag.convert is cli._bool) == isinstance(f.default, bool)
    if command == "fit":
        assert params["parameterization"].default == (
            signature(lc.fit).parameters["parameterization"].default
        )


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


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # The mark used to become part of the first key, which was then ignored.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffrho-l=0.5\ndelta=1\n", encoding="utf-8")
    out = payload_of(invoke("build-matrix", "--times", "1,2,3",
                            "--config", str(cfg)))
    assert (out["rho_l"], out["delta"]) == (0.5, 1.0)


@pytest.mark.parametrize("flag", ["--config", "--input"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, flag):
    # Both used to end in a UnicodeDecodeError traceback.
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"subject,time,y\na,1,\xe9\n")
    args = ["--input", str(path)] if flag == "--input" else [
        "--input", dataset_csv(tmp_path, 10), "--config", str(path)]
    result = invoke("fit", *args)
    assert (result.exit_code, result.stdout) == (20, "E_PARSE_ERROR\n")
    assert result.stderr.startswith("ParseError: 'utf-8' codec can't decode byte 0xe9")


def test_a_config_path_with_a_nul_byte_is_invalid_params(tmp_path):
    # It used to end in a ValueError traceback.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("input=data\x00.csv\n", encoding="utf-8")
    result = invoke("fit", "--config", str(cfg))
    assert (result.exit_code, result.stdout) == (12, "E_INVALID_PARAMS\n")
    assert result.stderr == "InvalidParams: Invalid value for '--input': embedded null byte\n"


def test_an_existing_path_that_cannot_be_read_is_invalid_params(tmp_path, monkeypatch):
    # As click's Path type refused it, before the file is opened.
    path = dataset_csv(tmp_path, 10)
    monkeypatch.setattr(cli.os, "access", lambda p, mode: False)
    result = invoke("check-special-case", "--input", path)
    assert (result.exit_code, result.stdout) == (12, "E_INVALID_PARAMS\n")
    assert result.stderr == (f"InvalidParams: Invalid value for '--input': "
                             f"Path {path!r} is not readable.\n")
    # A path that does not exist is the reader's to report.
    missing = invoke("check-special-case", "--input", str(tmp_path / "none.csv"))
    assert missing.exit_code == 20


def test_an_interrupt_ends_in_aborted(monkeypatch):
    def interrupted(p):
        raise KeyboardInterrupt

    command = cli._COMMANDS["build-matrix"]._replace(body=interrupted)
    monkeypatch.setitem(cli._COMMANDS, "build-matrix", command)
    assert invoke("build-matrix") == (1, "", "\nAborted!\n")
