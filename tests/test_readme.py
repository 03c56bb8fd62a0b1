"""The README's examples are run as written: the `>>>` session with doctest,
and every `$ mediant ...` command through cli.main, byte for byte."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from mediant.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# Timings differ from run to run; everything else must match exactly.
_ELAPSED = re.compile(r'"elapsed_s": [0-9.e+-]+')


def _cli_examples():
    """(argv, expected stdout) for each `$ mediant` line: the output is the
    lines after it up to a blank line or the closing code fence."""
    lines = README.read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("$ mediant "):
            out = []
            for text in lines[i + 1:]:
                if not text or text.startswith("```"):
                    break
                out.append(text + "\n")
            argv = shlex.split(line)[2:]
            examples.append(pytest.param(argv, "".join(out), id=" ".join(argv)))
    return examples


def test_library_session_runs_as_written():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("argv, expected", _cli_examples())
def test_cli_example_prints_what_the_readme_shows(argv, expected, capsys):
    assert main(argv) == 0
    assert _ELAPSED.sub("elapsed", capsys.readouterr().out) == _ELAPSED.sub("elapsed", expected)
