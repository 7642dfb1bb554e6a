"""README.md's examples run as written: every ```python block, and every
`nlk3 ...` line of the ```sh blocks."""

import re
import shlex
from pathlib import Path

import pytest

from nlk3 import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]
# a line that reads a user's own table file names no file shipped here
NLK3_LINES = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("nlk3 ") and "--table my_table.tbl" not in line
]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert len(NLK3_LINES) == 16


@pytest.mark.parametrize("body", PYTHON_BLOCKS)
def test_readme_python_block_runs(body):
    exec(compile(body, "README.md", "exec"), {})


@pytest.mark.parametrize("line", NLK3_LINES)
def test_readme_cli_line_exits_zero(capsys, line):
    code = cli.main(shlex.split(line, comments=True)[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out and not err
