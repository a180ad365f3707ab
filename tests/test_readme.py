"""The README's examples, run as written.

The Library block runs as a doctest.  Each ``$ eigenperm ...`` line of the
Command line block runs through ``cli.run`` and is compared with the lines
printed under it: trailing whitespace is ignored, ``| head -N`` keeps the
first N lines of output, and a final ``...`` matches any remaining lines.
"""

from __future__ import annotations

import doctest
import os
import re
import shlex

from eigenperm.cli import run

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _command_examples() -> list[tuple[str, list[str]]]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ eigenperm "), command
        examples.append((command[len("$ eigenperm "):], [line.rstrip() for line in expected]))
    return examples


def test_library_examples():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def test_command_line_examples(capsys):
    examples = _command_examples()
    assert examples
    for command, expected in examples:
        command, _, head = command.partition(" | head -")
        assert run(shlex.split(command, comments=True)) == 0, command
        lines = [line.rstrip() for line in capsys.readouterr().out.splitlines()]
        if head:
            lines = lines[: int(head)]
        if expected[-1:] == ["..."]:
            expected = expected[:-1]
            lines = lines[: len(expected)]
        assert lines == expected, command
