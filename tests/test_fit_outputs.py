"""Every command gives the outputs pinned in ``fit_outputs.json``.

The cases, their inputs and the comparison are defined in ``fit_outputs.py``,
which also rewrites the pin file (``--record``). On the platform the file
was recorded on, every case must give the same bytes, and a ``simulate``
case must write a CSV of the pinned sha256; elsewhere numbers are compared
at that module's stated tolerance, the written CSV is not, and a warning
says so.
"""
import json
import warnings

import pytest

import fit_outputs

PINS = json.loads(fit_outputs.PIN_FILE.read_text(encoding="utf-8"))
SAME_PLATFORM = fit_outputs.platform_info() == PINS["platform"]


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fit_outputs")
    digests = fit_outputs.write_inputs(directory)
    if SAME_PLATFORM:
        assert digests == PINS["inputs"]
    return directory


def test_the_pins_cover_every_case():
    assert [case["args"] for case in PINS["cases"]] == fit_outputs.CASES


@pytest.mark.parametrize("case", PINS["cases"], ids=lambda case: " ".join(case["args"]))
def test_each_case_gives_its_pinned_output(case, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    got = fit_outputs.run_case(case["args"])
    want = {key: value for key, value in case.items() if key != "args"}
    if SAME_PLATFORM:
        assert got == want
        return
    warnings.warn(
        f"fit_outputs.json was recorded on {PINS['platform']}, not on "
        f"{fit_outputs.platform_info()}: comparing numbers at rel_tol "
        f"{fit_outputs.REL_TOL} and abs_tol {fit_outputs.ABS_TOL}, not by bytes"
    )
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    if want["exit"] == 0:
        assert fit_outputs.mismatches(fit_outputs.parsed(got["stdout"]),
                                      fit_outputs.parsed(want["stdout"])) == []
    else:
        assert got["stdout"] == want["stdout"]
