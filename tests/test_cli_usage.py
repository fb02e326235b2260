"""The CLI's grammar and messages, pinned case by case.

``cli_usage_cases.json`` holds argument lists with the exit code, stdout and
stderr that learcov gave for each while its CLI was built on click, recorded
in child processes. They cover every kind of usage error, values that start
with a dash, ``--flag=value``, the config file under and over the flags,
its switch spellings, ``--version``, unknown commands and options before
the command. No outcome prints a number that depends on the platform. Each
case runs in this process, in a fresh directory holding the table's files.
"""
import json
from pathlib import Path

import pytest

from conftest import run_cli

TABLE = json.loads(Path(__file__).with_name("cli_usage_cases.json")
                   .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", TABLE["cases"],
                         ids=lambda case: " ".join(case["args"]) or "empty-command")
def test_each_usage_gives_its_recorded_outcome(case, tmp_path, monkeypatch):
    for name, text in TABLE["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(case["args"]) == (case["exit"], case["stdout"], case["stderr"])
