"""Malformed text through every CLI parser ends in a documented exit code.

Each template is a well-formed command with one slot; each fragment breaks
it in one way.  Every call must return 2 (invalid input) or 3 (limit
exceeded) with a single diagnostic line on stderr, and raise nothing.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eigenperm import (
    MarkedPermutation,
    eigen_decompose,
    fast_35241ok,
    format_perm,
    format_perm_list,
    lit_entries,
    marked_to_list,
    verify,
)
from eigenperm.cli import _SEQUENCES, run
from eigenperm.perms import CENSUS_LIMIT

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


# The seeded grammar fuzz: generated text through every subcommand.  Sizes
# are at most 8 or past the command's ceiling (verify stays at 6 or less,
# where all its suites take under 0.25 s; bijection and fourpatterns cap
# their own sizes rather than refuse).  Values go after "=", so that text
# starting with "-" reaches the program rather than argparse.
CEILINGS = {
    **{f"seq {name}": ceiling for name, (_, ceiling) in _SEQUENCES.items()},
    "count --brute": CENSUS_LIMIT,
    "count --fast": _SEQUENCES["a"][1],
    "classify4": CENSUS_LIMIT,
    "verify recurrences": verify.RECURRENCES_LIMIT,
    "verify all": verify.RECURRENCES_LIMIT,
}
DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")
TOKENS = ("1", "2", "3", "7", "10", "200", "0", "-3", "9" * 30, ";", "/", "^", "*", "(", ")", "(5)", "٣", "３", "²", "")


def _numeral(value, digits):
    text = str(abs(value)).translate(str.maketrans("0123456789", digits))
    return "-" + text if value < 0 else text


def sizes(ceiling, small=8):
    values = st.integers(-5, small) if ceiling is None else st.integers(-5, small) | st.integers(ceiling + 1, 10**40)
    return st.builds(_numeral, values, st.sampled_from(DIGIT_SETS))


fragments = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)


@st.composite
def members(draw):
    # A 3(5)241 member of length up to 200: two increasing runs, interleaved,
    # avoid 321 and so 3241.  Sometimes one transposition makes a non-member.
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(0, 200))
    firsts = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
    runs = [iter(sorted(firsts)), iter(sorted(set(range(1, n + 1)) - firsts))]
    at = set(rng.sample(range(n), len(firsts)))
    p = [next(runs[i not in at]) for i in range(n)]
    if n > 1 and draw(st.booleans()):
        i, j = rng.sample(range(n), 2)
        p[i], p[j] = p[j], p[i]
    return tuple(p)


@st.composite
def inputs(draw, kind):
    # Text for one --input grammar: a member's form, fuzz fragments, or a
    # member's form with a fragment spliced in.
    p = draw(members())
    if kind == "eigen decompose":
        text = format_perm(p)
    elif kind == "biject forward":
        lit = sorted(set(lit_entries(p)) - {len(p)})
        pool = lit if draw(st.booleans()) else p
        marks = set(draw(st.lists(st.sampled_from(pool), max_size=4))) if pool else set()
        text = " ".join(f"{v}^" if v in marks else str(v) for v in p)
    elif fast_35241ok(p) and p:
        if kind == "eigen compose":
            rho, items = eigen_decompose(p)
            text = f"{format_perm(rho)} ; {format_perm_list(items)}"
        else:
            text = format_perm_list(marked_to_list(MarkedPermutation(p, frozenset())))
    else:
        text = " / ".join(format_perm(p[i::3]) for i in range(3))
    how = draw(st.sampled_from(("as is", "fragments", "spliced")))
    if how == "fragments":
        return draw(fragments)
    if how == "spliced":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(fragments) + text[cut:]
    return text


@st.composite
def commands(draw):
    kind = draw(st.sampled_from(
        ("seq", "count", "classify4", "biject forward", "biject inverse", "eigen decompose", "eigen compose", "verify")
    ))
    if kind == "seq":
        name = draw(st.sampled_from(sorted(_SEQUENCES)))
        flags = draw(st.sampled_from(((), ("--bfile",), ("--json",), ("--bfile", "--json"))))
        return ["seq", name, f"--n={draw(sizes(CEILINGS['seq ' + name]))}", *flags]
    if kind == "count":
        route = draw(st.sampled_from(("--brute", "--fast")))
        k = draw(st.integers(1, 9))
        full = draw(st.permutations(range(1, k + 1)))
        mark = draw(st.integers(1, k))
        pattern = "".join(f"({v})" if i == mark else str(v) for i, v in enumerate(full, 1))
        pattern = draw(st.sampled_from((pattern, "3(5)241"))) if draw(st.booleans()) else draw(fragments)
        return ["count", f"--pattern={pattern}", f"--n={draw(sizes(CEILINGS['count ' + route]))}", route]
    if kind == "classify4":
        return ["classify4", f"--max-n={draw(sizes(CEILINGS['classify4']))}", *draw(st.sampled_from(((), ("--json",))))]
    if kind == "verify":
        suite = draw(st.sampled_from(verify.SUITES))
        return ["verify", f"--suite={suite}", f"--max-n={draw(sizes(CEILINGS.get('verify ' + suite), small=6))}"]
    return [*kind.split(), f"--input={draw(inputs(kind))}"]


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_generated_commands_exit_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    if code:
        assert out.getvalue() == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith({2: "invalid input: ", 3: "limit exceeded: "}[code]), err
    else:
        assert err == ""
