"""Malformed text through every CLI parser ends in a documented exit code.

Each template is a well-formed command with one slot; each fragment breaks
it in one way.  Every call must return 2 (invalid input) or 3 (limit
exceeded) with a single diagnostic line on stderr, and raise nothing.
"""

from __future__ import annotations

import pytest

from eigenperm.cli import run

TEMPLATES = {
    "eigen decompose": ("eigen", "decompose", "--input", "1 {}"),
    "eigen compose": ("eigen", "compose", "--input", "1 ; {} / 1"),
    "biject forward": ("biject", "forward", "--input", "1 {}"),
    "biject inverse": ("biject", "inverse", "--input", "1 / {}"),
    "count --pattern": ("count", "--n", "3", "--pattern", "3(5)24{}"),
}

FRAGMENTS = {
    "superscript digit": "²",
    "5000 digits": "9" * 5000,
    "zero": "0",
    "repeated entry": "2 2",
    "stray ;": ";",
    "stray /": "/",
    "stray ^": "^",
    "stray *": "*",
}


@pytest.mark.parametrize("fragment", list(FRAGMENTS.values()), ids=list(FRAGMENTS))
@pytest.mark.parametrize("template", list(TEMPLATES.values()), ids=list(TEMPLATES))
def test_malformed_text_exits_with_one_diagnostic(capsys, template, fragment):
    code = run([arg.replace("{}", fragment) for arg in template])
    captured = capsys.readouterr()
    assert code in (2, 3)
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(("invalid input: ", "limit exceeded: "))


LONG_INPUTS = {
    "bad token after 2000 entries": ("eigen", "decompose", "--input", " ".join(map(str, range(2000, 0, -1))) + " x"),
    "non-member of length 3000": ("eigen", "decompose", "--input", "3 2 4 1 " + " ".join(map(str, range(5, 3001)))),
    "pattern with 5000 nines": ("count", "--n", "5", "--pattern", "3(5)24" + "9" * 5000),
}


@pytest.mark.parametrize("argv", list(LONG_INPUTS.values()), ids=list(LONG_INPUTS))
def test_long_input_gets_a_short_diagnostic(capsys, argv):
    # A diagnostic quotes at most a short slice of the caller's input.
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1
    assert len(captured.err.encode()) < 300
    assert captured.err.rstrip("\n").endswith("...")
