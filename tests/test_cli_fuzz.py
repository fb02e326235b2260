"""The CLI contract under edge-valued flags.

Every run of a subcommand either exits 0 and prints one JSON document, or
prints one error token on stdout and exits with that token's code (10-23),
and never ends in a traceback. All six subcommands run in this process
through click's CliRunner. Flag values come from an edge vocabulary: zeros
of both signs, NaN, infinities, 1e308, 2**63, huge and negative integers,
non-numeric strings, and empty or malformed files, one of them with a field
over csv's field size limit. Malformed options of the command group itself
may come before the subcommand. Sizes stay small: no drawn value asks for
more than a few MB.
"""
import itertools
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import learcov as lc
from learcov import errors
from learcov.cli import main
from conftest import simulated_dataset

EDGE_NUMBERS = [
    "0", "-0.0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320",
    str(2 ** 63), str(-2 ** 63), str(10 ** 30), "-1", "-7", "abc", "", " ",
    "0x10", "1_0", "0.5", "0.99", "1", "2", "3",
]
EDGE_TIMES = [
    "", ",", "abc", "1", "1,2", "1,2,3", "1,1,2", "3,2,1", "1,2,4.5",
    "1,nan,3", "1,inf", "-inf,0", "1e308,-1e308", "0,1e308", "1e-320,2e-320",
    "0,1e15,2e15", "2,4,6,8", "1,2,3,4,5,6",
]
# Options given to the command group, before the subcommand. --help and
# --version are left out: they print no JSON, and stop before the subcommand.
GROUP_FLAGS = ["--bogus", "-x", "--", "-", "--version=1", "--help=yes", "fit"]
# Every token's exit code.
TOKENS = {
    cls.token: cls.exit_code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.LearcovError)
    and 10 <= cls.exit_code <= 23
}

runner = CliRunner()


@st.composite
def invocation(draw, name, flags, switches=()):
    """``name`` with a usual value, or none, for each flag, except that up
    to two flags take an edge value. ``flags`` maps a flag to its strategies
    of usual and of edge values."""
    edgy = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    args = [name]
    for flag, (usual, edge) in flags.items():
        value = draw(edge if flag in edgy else st.one_of(st.none(), usual))
        if value is not None:
            args += [flag, value]
    return args + [flag for flag in switches if draw(st.booleans())]


def numbers(*usual):
    return st.sampled_from(usual), st.sampled_from(EDGE_NUMBERS)


def words(usual, edge):
    return st.sampled_from(usual), st.sampled_from(edge)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"missing": str(root / "missing.csv"), "directory": str(root)}
    contents = {
        "empty": "",
        "header": "subject,time,y\n",
        "text": "not a csv \x00 at all\n",
        "no-y": "subject,time\na,1\n",
        "nan": "subject,time,y\na,1,nan\na,2,1\nb,1,2\nb,2,3\n",
        "inf": "subject,time,y\na,1,inf\na,2,1\nb,1,2\nb,2,3\n",
        "huge": "subject,time,y\na,1,1e308\na,2,-1e308\nb,1,1e308\nb,2,2\n",
        "one": "subject,time,y\na,1,0.5\n",
        "flat": "subject,time,y\na,1,1\na,2,1\nb,1,1\nb,2,1\nc,1,1\nc,2,1\n",
        "duplicate": "subject,time,y\na,1,1\na,1,2\n",
        "long-field": "subject,time,y\na,1,1\na,2," + "1" * 200_000 + "\n",
        "config": "grid-points=abc\nrho-cap=nan\n",
        "bad-config": "no equals sign\n",
    }
    for name, text in contents.items():
        path = root / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    for name, times in (("unit", (1.0, 2.0, 3.0, 4.0)), ("irregular", (1.0, 2.0, 4.5))):
        path = root / f"{name}.csv"
        lc.write_long_csv(path, simulated_dataset(12, times, seed=3))
        paths[name] = str(path)
    paths["out"] = str(root / "out.csv")
    return paths


def edge_files(files):
    return st.sampled_from(sorted(set(files) - {"unit", "irregular", "out"})).map(
        lambda k: files[k]
    )


def spec_files(files, tmp):
    """A usual simulation spec, and specs with edge-valued fields."""
    usual = {
        "schema_version": 1, "n_subjects": 4, "times": [[1, 2, 3], [2, 4]],
        "beta": [1.0, 0.5], "design": "intercept-time", "seed": 7,
        "covariance": {"parameterization": "lear", "sigma2": 1.0,
                       "rho_l": 0.5, "delta": 1.0},
    }
    edge_value = st.sampled_from([
        0, -1, 2 ** 63, -2 ** 63, 10 ** 30, 0.5, float("inf"), float("nan"),
        1e308, -0.0, "abc", "", None, [], {}, [1e308, -1e308], [[]], [1, 1],
        [[1, 2], 5], [1, 2, 10 ** 30],
        {"parameterization": "arma11", "sigma2": 1.5, "tau": 0.5, "rho_a": 0.7},
        {"parameterization": "arma11", "sigma2": 1.5, "tau": -1.0, "rho_a": 2.0},
        {"parameterization": "lear", "sigma2": 1e308, "rho_l": 0.99, "delta": 1e308},
        {"parameterization": "lear", "sigma2": 1.0, "rho_l": 1.0, "delta": 0.0},
        {"parameterization": "other"},
    ])
    counter = itertools.count()

    def write(doc):
        path = tmp / f"spec{next(counter)}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    edited = st.dictionaries(st.sampled_from(sorted(usual)), edge_value, max_size=2)
    return (
        st.just(usual).map(write),
        st.one_of(edited.map(lambda edits: write({**usual, **edits})), edge_files(files)),
    )


def commands(files, tmp):
    times = words(["1,2,3", "2,4,6,8", "1,2,4.5"], EDGE_TIMES)
    data = {
        "--input": (st.sampled_from([files["unit"], files["irregular"]]), edge_files(files)),
        "--design": words(["intercept", "intercept-time"], ["time", "y", "abc", "", ","]),
        "--config": (st.nothing(), edge_files(files)),
    }
    fitting = {
        **data,
        "--criterion": words(["ml", "reml"], ["abc", ""]),
        "--grid-points": numbers("2", "3", "5"),
        "--rho-cap": numbers("0.9", "0.99"),
        "--delta-cap-factor": numbers("1", "5"),
        "--max-iterations": numbers("5", "50"),
        "--tolerance": numbers("1e-6", "1e-10"),
        "--boundary-tol": numbers("1e-6", "0.1"),
    }
    subcommand = st.one_of(
        invocation("build-matrix", {
            "--sigma2": numbers("1", "2.5"), "--rho-l": numbers("0.3", "0.6"),
            "--delta": numbers("0", "2"), "--times": times,
        }),
        invocation("reparam", {
            "--direction": words(["lear2arma", "arma2lear"], ["abc"]),
            "--sigma2": numbers("1"), "--rho-l": numbers("0.3", "0.6"),
            "--delta": numbers("0", "2"), "--tau": numbers("0.6"),
            "--rho-a": numbers("0.5"), "--range": numbers("2", "3"),
            "--times": times,
        }, switches=["--verify"]),
        invocation("check-special-case",
                   {flag: data[flag] for flag in ("--input", "--config")}),
        invocation("simulate", {
            "--spec": spec_files(files, tmp),
            "--out": (st.just(files["out"]), st.sampled_from([files["directory"], ""])),
        }),
        invocation("fit", {
            **fitting, "--param": words(["lear", "arma11"], ["abc"]),
        }, switches=["--allow-negative"]),
        invocation("compare", fitting, switches=["--allow-negative"]),
    )
    # Half the runs put group options first.
    group_flags = st.one_of(
        st.just([]), st.lists(st.sampled_from(GROUP_FLAGS), min_size=1, max_size=2)
    )
    return st.tuples(group_flags, subcommand).map(lambda parts: parts[0] + parts[1])


def check_contract(args):
    """Run ``learcov args`` and assert the contract; return the result."""
    result = runner.invoke(main, args)
    where = f"learcov {' '.join(map(repr, args))}"
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{where} raised {result.exception!r}"
    )
    assert "Traceback" not in result.stderr, where
    if result.exit_code == 0:
        json.loads(result.stdout)
        return result
    token = result.stdout.strip()
    assert token in TOKENS, f"{where}: stdout {result.stdout!r}, exit {result.exit_code}"
    assert result.exit_code == TOKENS[token], where
    assert result.stderr.strip(), where
    return result


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


def test_every_run_ends_in_json_or_a_token(files, spec_dir):
    @settings(max_examples=1000, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(commands(files, spec_dir))
    # Random draws seldom reach these, once faults of their own.
    @example(["check-special-case", "--input", files["long-field"]])
    @example(["--bogus", "fit", "--input", files["unit"]])
    @example(["build-matrix", "--rho-l", "0", "--delta", "1e308", "--times", "2,4,6,8"])
    def run(args):
        check_contract(args)

    run()


@pytest.mark.parametrize("args", [
    ["reparam", "--direction", "lear2arma", "--rho-l", "0.5", "--delta", "1",
     "--range", "1e300", "--verify"],
    ["fit", "--input", "{unit}", "--grid-points", "100000000"],
    ["fit", "--input", "{unit}", "--grid-points", "abc"],
    ["build-matrix", "--rho-l", "x", "--delta", "1", "--times", "1,2"],
    ["fit", "--input", "{unit}", "--no-such-flag"],
    ["--bogus", "fit", "--input", "{unit}"],
    # Flags of a fit that the check does not read.
    ["check-special-case", "--input", "{unit}", "--design", "intercept"],
    ["check-special-case", "--input", "{unit}", "--y-col", "y"],
])
def test_resource_and_flag_errors_are_invalid_params(files, args):
    result = check_contract([a.format(**files) for a in args])
    assert (result.exit_code, result.stdout) == (12, "E_INVALID_PARAMS\n")
