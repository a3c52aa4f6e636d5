"""The README's examples print what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from seifert_orbifolds.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first fenced `language` block after the `## heading` line."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % language, 1)[1].split("```", 1)[0]


def test_library_example():
    """Run the example with each commented expression printed: its output
    is the example's comments, in order."""
    program, expected = [], []
    for line in _block("Library example", "python").splitlines():
        comment = re.fullmatch(r"# (.*)", line)
        commented = re.fullmatch(r"(\S.*?)\s+# (.*)", line)
        if comment:
            expected.append(comment.group(1))
        elif commented:
            program.append("print(%s)" % commented.group(1))
            expected.append(commented.group(2))
        else:
            program.append(line)
    assert len(expected) >= 6
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec("\n".join(program), {})
    assert out.getvalue().splitlines() == expected


_EXAMPLES = [
    re.fullmatch(r"seifert\s+(.*?)\s+# (.*)", line).groups()
    for line in _block("Command line", "sh").splitlines()
    if line.startswith("seifert") and " # " in line
]


@pytest.mark.parametrize("argv, comment", _EXAMPLES)
def test_command_line_example(argv, comment):
    """A comment `exit N` gives the exit code, any other the literal
    output of a command that succeeds."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run_command(shlex.split(argv))
    exit_code = re.fullmatch(r"exit (\d+)", comment)
    if exit_code:
        assert code == int(exit_code.group(1))
    else:
        assert (code, out.getvalue()) == (0, comment + "\n")


def test_command_line_examples_are_found():
    assert len(_EXAMPLES) >= 5


def test_python_floor_has_the_digit_limit():
    """`requires-python` admits no interpreter without
    `sys.get_int_max_str_digits`, which the expression commands read: it
    came with CPython 3.10.7.  The README's install section names the same
    floor.  The file is read as text, since `tomllib` needs 3.11."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    spec = re.search(r'^requires-python\s*=\s*"([^"]*)"$', pyproject, re.M)[1]
    floor = re.fullmatch(r">=([0-9]+(?:\.[0-9]+)*)", spec)
    assert floor, spec
    assert tuple(int(n) for n in floor[1].split(".")) >= (3, 10, 7), spec
    install = README.split("\n## Install and test\n", 1)[1].split("\n## ", 1)[0]
    assert "Python %s or later" % floor[1] in install
