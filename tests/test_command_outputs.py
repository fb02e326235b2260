"""Every command gives the outputs pinned in ``command_outputs.json``.

The cases, their inputs and the comparison are defined in
``command_outputs.py``, which also rewrites the pin file (``--record``). On
the platform the file was recorded on, every case must give the same bytes,
and a ``simulate`` case must write a CSV of the pinned sha256; elsewhere a
case whose output differs has its numbers compared at that module's stated
tolerance, and not the written CSV, and a warning says so.
"""
import warnings

import pytest

import command_outputs

PINS = command_outputs.PINS
SAME_PLATFORM = command_outputs.platform_info() == PINS["platform"]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("command_outputs")
    digests = command_outputs.write_inputs(directory)
    if SAME_PLATFORM:
        assert digests == PINS["inputs"]
    return directory


def test_the_pins_cover_every_case():
    assert [case["args"] for case in PINS["cases"]] == command_outputs.CASES


@pytest.mark.parametrize("case", PINS["cases"],
                         ids=lambda case: " ".join(case["args"]) or "empty-command")
def test_each_case_gives_its_pinned_output(case, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    got = command_outputs.run_case(case["args"])
    want = {key: value for key, value in case.items() if key != "args"}
    if SAME_PLATFORM or got == want:
        assert got == want
        return
    warnings.warn(
        f"command_outputs.json was recorded on {PINS['platform']}, not on "
        f"{command_outputs.platform_info()}: comparing numbers at rel_tol "
        f"{command_outputs.REL_TOL} and abs_tol {command_outputs.ABS_TOL}, "
        "not by bytes"
    )
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    if want["exit"] == 0:
        assert command_outputs.mismatches(command_outputs.parsed(got["stdout"]),
                                          command_outputs.parsed(want["stdout"])) == []
    else:
        assert got["stdout"] == want["stdout"]
