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
