from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest

import eigenperm
from eigenperm import (
    InvalidInputError,
    bijection,
    eigen_compose,
    eigen_decompose,
    fast_35241ok,
    four_patterns,
    parse_pattern,
    parse_perm_list,
    perms,
    recurrences,
    series,
    verify,
)
from eigenperm import _lanes
from eigenperm.cli import main, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_eigen_plain(capsys):
    code, out, err = invoke(capsys, "seq", "eigen", "--n", "7")
    assert (code, err) == (0, "")
    assert out == "1 1 2 6 23 104 531\n"


def test_seq_variants(capsys):
    expected = {
        "a": "1 2 6 23 104",
        "catalan": "1 2 5 14 42",
        "bell": "1 2 5 15 52",
        "a051295": "1 2 5 15 54",
        "new4": "1 2 5 15 55",
    }
    for name, line in expected.items():
        code, out, err = invoke(capsys, "seq", name, "--n", "5")
        assert (code, out, err) == (0, line + "\n", "")


def test_seq_catalan_uses_the_closed_form(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("seq catalan enumerated compositions")

    monkeypatch.setattr(recurrences, "compositions", refuse)
    code, out, err = invoke(capsys, "seq", "catalan", "--n", "30")
    assert (code, err) == (0, "")
    assert out.split() == [str(math.comb(2 * i, i) // (i + 1)) for i in range(1, 31)]


def test_seq_bfile_format(capsys):
    code, out, _ = invoke(capsys, "seq", "eigen", "--n", "4", "--bfile")
    assert code == 0
    assert out == "1 1\n2 1\n3 2\n4 6\n"


def test_seq_json_records(capsys):
    code, out, _ = invoke(capsys, "seq", "bell", "--n", "3", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"n": 1, "value": 1}, {"n": 2, "value": 2}, {"n": 3, "value": 5},
    ]


def test_seq_prints_terms_past_the_int_digit_limit(capsys):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    code, bfile, err = invoke(capsys, "seq", "bell", "--n", "2000", "--bfile")
    assert (code, err) == (0, "")
    code, records, err = invoke(capsys, "seq", "bell", "--n", "2000", "--json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == saved
    last = recurrences.bell_numbers(2000)[-1]
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(last)) > saved
        assert bfile.splitlines()[-1] == f"2000 {last}"
        assert json.loads(records)[-1] == {"n": 2000, "value": last}
    finally:
        sys.set_int_max_str_digits(saved)


def test_seq_rejects_bad_n(capsys):
    code, out, err = invoke(capsys, "seq", "eigen", "--n", "0")
    assert code == 2 and out == "" and "invalid input" in err


def test_seq_refuses_n_past_its_ceiling(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("seq computed terms past its ceiling")

    for module, name in (
        (series, "eigensequence"),
        (recurrences, "recurrence_tables"),
        (recurrences, "counts_via_dominance"),
        (recurrences, "catalan_numbers"),
        (recurrences, "bell_numbers"),
        (four_patterns, "a051295_terms"),
        (four_patterns, "new4_terms"),
    ):
        monkeypatch.setattr(module, name, refuse)
    ceilings = {"eigen": 400, "a": 400, "catalan": 5000, "bell": 4000, "a051295": 1000, "new4": 300}
    for name, ceiling in ceilings.items():
        code, out, err = invoke(capsys, "seq", name, "--n", str(ceiling + 1))
        assert (code, out) == (3, ""), name
        assert err.startswith("limit exceeded: ") and str(ceiling) in err
    # count --fast runs seq a's route, under the same ceiling, and names itself.
    code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "401", "--fast")
    assert (code, out) == (3, "")
    assert err.startswith("limit exceeded: count ") and "400" in err and "seq" not in err


SEQ_A_300_SHA256 = "50ea6dade00ce7404591556eb01143fa69f37dcbc0d512cbc30321463d181bc7"


def test_seq_a_at_300_is_pinned(capsys):
    # The digest of the output that the recurrence triangle gave; count
    # --fast prints its last term.
    code, out, err = invoke(capsys, "seq", "a", "--n", "300")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_A_300_SHA256
    code, count, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "300", "--fast")
    assert (code, count, err) == (0, out.split()[-1] + "\n", "")


def test_the_counting_routes_run_in_one_process(capsys, monkeypatch):
    def refuse():
        raise AssertionError("a counting route forked")

    monkeypatch.setattr(os, "fork", refuse)
    counts = recurrences.counts_via_dominance(150)
    assert list(recurrences.recurrence_tables(150).a) == counts
    code, out, err = invoke(capsys, "seq", "a", "--n", "150")
    assert (code, out, err) == (0, " ".join(map(str, counts[1:])) + "\n", "")
    code, out, err = invoke(capsys, "verify", "--suite", "recurrences", "--max-n", "150")
    assert (code, err) == (0, "")
    assert out and all(line.startswith("PASS") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--pattern", "3(5)241", "--n", "٣"),
        ("count", "--pattern", "3(5)241", "--n", "1_0"),
        ("seq", "eigen", "--n", " ３ "),
        ("seq", "eigen", "--n", "+3"),
        ("seq", "eigen", "--n", "abc"),
        ("classify4", "--max-n", "٥"),
        ("verify", "--suite", "all", "--max-n", " 6"),
    ],
    ids=["arabic-indic", "underscore", "fullwidth-blanks", "plus", "letters", "max-n arabic-indic", "max-n blank"],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    # --n and --max-n follow the text forms' rule: ASCII digits after an
    # optional "-", refused through run's one diagnostic line, not argparse.
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: bad --") and err.count("\n") == 1


def test_integer_flags_keep_their_ascii_messages(capsys):
    code, out, err = invoke(capsys, "seq", "a", "--n", "-3")
    assert (code, out, err) == (2, "", "invalid input: --n must be a positive integer, got -3\n")
    code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "007")
    assert (code, out, err) == (0, "2982\n", "")


def test_count_brute_and_fast_agree(capsys):
    expected = [1, 1, 2, 6, 23, 104, 531, 2982, 18109, 117545]
    for n, count in enumerate(expected):
        for route in ("--brute", "--fast"):
            code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", str(n), route)
            assert (code, out, err) == (0, f"{count}\n", ""), (n, route)
    code, out, _ = invoke(
        capsys, "count", "--pattern", "32(4)1", "--n", "5", "--brute"
    )
    assert (code, out) == (0, "52\n")


def test_count_fast_needs_supported_pattern(capsys):
    code, out, err = invoke(
        capsys, "count", "--pattern", "32(4)1", "--n", "5", "--fast"
    )
    assert code == 2 and out == ""
    assert "no fast counting route" in err


def test_count_census_limit(capsys):
    code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "12")
    assert code == 3 and out == ""
    assert "limit exceeded" in err
    # Refused before any counting, one past the limit.
    code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "11")
    assert (code, out, err) == (3, "", "limit exceeded: census at n=11 exceeds the limit 10\n")


def test_count_at_the_census_limit_finishes_in_bounded_time(capsys):
    # All 10! permutations, within the ~15 s that the command ceilings aim for.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "count", "--pattern", "3(5)241", "--n", "10")
    assert (code, out, err) == (0, "808764\n", "")
    assert time.perf_counter() - start < 15


def test_count_malformed_pattern(capsys):
    code, out, err = invoke(capsys, "count", "--pattern", "34(2)", "--n", "3")
    assert code == 2 and "invalid input" in err


def test_classify4_json_round_trips(capsys):
    code, out, err = invoke(capsys, "classify4", "--max-n", "5", "--json")
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert len(records) == 16
    assert sum(len(r["members"]) for r in records) == 96
    for r in records:
        parse_pattern(r["representative"])
        assert r["label"] in {"catalan", "bell", "a051295", "new4"}
        assert isinstance(r["trivial"], bool)
        assert len(r["counts"]) == 6
        for member in r["members"]:
            parse_pattern(member)


def test_classify4_table(capsys):
    code, out, err = invoke(capsys, "classify4", "--max-n", "5")
    assert code == 0
    assert "16 orbits" in out and "64 trivial" in out


def test_classify4_refuses_depths_past_the_census_limit(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("classify4 counted past the limit")

    monkeypatch.setattr(perms, "census", refuse)
    monkeypatch.setattr(_lanes, "census", refuse)
    code, out, err = invoke(capsys, "classify4", "--max-n", "11")
    assert code == 3 and out == ""
    # classify checks its own depth before it counts, so the refusal names
    # it, not census.
    assert err == "limit exceeded: classify at n=11 exceeds the limit 10\n"
    assert "census" not in err


def test_classify4_json_at_depth_8_is_pinned(capsys):
    # The digest of the output that the brute census gave before the tree.
    code, out, err = invoke(capsys, "classify4", "--max-n", "8", "--json")
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "44c4e519bf9428071a9687f2193b7849e85d0608bc31dc7337f57a657f75d0c6"


def test_classify4_refuses_depths_where_references_agree(capsys):
    # bell, a051295 and new4 all read 1, 1, 2, 5, 15 through n = 4.
    code, out, err = invoke(capsys, "classify4", "--max-n", "4")
    assert code == 2 and out == "" and "invalid input" in err
    code, out, err = invoke(capsys, "verify", "--suite", "fourpatterns", "--max-n", "4")
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_classify4_help_does_not_describe_a_census(capsys):
    # --max-n is described as the depth of the classification, not of a census.
    with pytest.raises(SystemExit) as exc:
        run(["classify4", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and "--max-n" in out
    assert "census" not in out


def test_biject_round_trip(capsys):
    code, out, _ = invoke(
        capsys, "biject", "forward", "--input", "5 1 2 8^ 3 6 4 9^ 7 10"
    )
    assert code == 0
    items = parse_perm_list(out.strip())
    assert len(items) == 3
    code, back, _ = invoke(capsys, "biject", "inverse", "--input", out.strip())
    assert code == 0
    assert back.strip() == "5 1 2 8^ 3 6 4 9^ 7 10"


def test_biject_rejects_bad_text(capsys):
    code, _, err = invoke(capsys, "biject", "forward", "--input", "1 2 x")
    assert code == 2 and "invalid input" in err
    code, _, err = invoke(capsys, "biject", "inverse", "--input", "2 1 /")
    assert code == 2 and "invalid input" in err


def test_eigen_round_trip(capsys):
    code, out, _ = invoke(capsys, "eigen", "decompose", "--input", "4 1 3 2 5 7 6")
    assert code == 0
    code, back, _ = invoke(capsys, "eigen", "compose", "--input", out.strip())
    assert code == 0
    assert back.strip() == "4 1 3 2 5 7 6"


def test_eigen_compose_needs_semicolon(capsys):
    code, _, err = invoke(capsys, "eigen", "compose", "--input", "1 2 3")
    assert code == 2 and "invalid input" in err


def test_verify_suite_passes(capsys):
    code, out, err = invoke(capsys, "verify", "--suite", "recurrences", "--max-n", "6")
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


VERIFY_ALL_6 = """\
PASS a_n equals shifted eigensequence (n <= 6)
PASS dominance sum equals recurrence tables (n <= 6)
PASS first-entry rows sum to a_n (n <= 7)
PASS census equals eigensequence (n <= 6)
PASS self-composition shifts left (order 8)
PASS eigen decompose/compose round trip (n <= 6)
PASS marked list round trip (n <= 6)
PASS orbit structure 64 + (8,8,8,4,4) (n <= 6)
PASS nontrivial labels (a051295, a051295, bell, bell, new4)
PASS partition bijection round trip (n <= 6)
"""


def test_verify_prints_its_checks_exactly(capsys):
    assert invoke(capsys, "verify", "--suite", "all", "--max-n", "6") == (0, VERIFY_ALL_6, "")
    assert invoke(capsys, "verify", "--suite", "bijection", "--max-n", "8") == (
        0,
        "PASS eigen decompose/compose round trip (n <= 8)\nPASS marked list round trip (n <= 7)\n",
        "",
    )


def test_verify_fails_a_stage_that_emits_a_non_member(capsys, monkeypatch):
    # (3, 2, 4, 1) is not in the class.  The stage's output is checked before
    # the inverse reads it, so the checks fail rather than refuse input.
    to_list = bijection._to_list
    monkeypatch.setattr(
        bijection,
        "_to_list",
        lambda p, marks: tuple((3, 2, 4, 1) if len(it) == 4 else it for it in to_list(p, marks)),
    )
    code, out, err = invoke(capsys, "verify", "--suite", "bijection", "--max-n", "5")
    assert (code, err) == (1, "2 check(s) failed\n")
    assert out == (
        "FAIL eigen decompose/compose round trip (failed at (1, 2, 3, 4, 5))\n"
        "FAIL marked list round trip (failed at (1, 2, 3, 4) marks ())\n"
    )


def test_verify_fails_a_partition_map_that_refuses_a_member(capsys, monkeypatch):
    to_partition = four_patterns.to_partition_increasing

    def refuse(p):
        if p == (2, 1, 3):
            raise InvalidInputError("refused")
        return to_partition(p)

    monkeypatch.setattr(four_patterns, "to_partition_increasing", refuse)
    code, out, err = invoke(capsys, "verify", "--suite", "fourpatterns", "--max-n", "5")
    assert (code, err) == (1, "1 check(s) failed\n")
    assert out.splitlines()[-1] == "FAIL partition bijection round trip (failed at (2, 1, 3): refused)"


def test_verify_rejects_negative_max_n(capsys):
    for suite in verify.SUITES:
        code, out, err = invoke(capsys, "verify", "--suite", suite, "--max-n", "-1")
        assert (code, out) == (2, ""), suite
        assert err.startswith("invalid input: ")


def test_verify_refuses_max_n_past_its_ceiling(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("verify computed past its ceiling")

    for module, name in (
        (series, "eigensequence"),
        (series, "verify_shift"),
        (recurrences, "recurrence_tables"),
        (recurrences, "counts_via_dominance"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for suite in ("recurrences", "all"):
        code, out, err = invoke(
            capsys, "verify", "--suite", suite, "--max-n", str(verify.RECURRENCES_LIMIT + 1)
        )
        assert (code, out) == (3, ""), suite
        assert err.startswith("limit exceeded: ")


def test_verify_offers_the_suites_in_order(capsys):
    # The parser names the suites without importing verify; its refusal
    # lists them as verify.SUITES does.
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"invalid choice: 'nope' (choose from {', '.join(map(repr, verify.SUITES))})\n")


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["seq", "eigen", "--n", "3", "--frobnicate"])
    assert exc.value.code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_a_repeated_command_leaves_no_cyclic_garbage(capsys):
    # The parser is built once, so a call frees what it made without the
    # collector.
    argv = ["count", "--pattern", "3(5)241", "--n", "4"]
    assert run(argv) == 0
    gc.collect()
    assert run(argv) == 0
    assert gc.collect() == 0
    assert capsys.readouterr().out == "23\n23\n"


def test_main_wraps_run(capsys):
    assert main(["seq", "eigen", "--n", "1"]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_main_ends_quietly_when_the_reader_goes_away():
    # ``eigenperm seq bell --n 2000 | head -c 10``: the reader takes 10 of
    # about 4 MB and closes the pipe while the writer still has more.
    src = os.path.dirname(os.path.dirname(os.path.abspath(eigenperm.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "eigenperm.cli", "seq", "bell", "--n", "2000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b"1 2 5 15 5"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, -signal.SIGPIPE)
    assert b"Traceback" not in err, err



def test_deep_nesting_needs_no_recursion(capsys):
    # The decreasing permutation nests one LRmax factor inside the next,
    # 2000 deep: far past the interpreter's recursion limit.
    p = tuple(range(2000, 0, -1))
    assert fast_35241ok(p)
    rho, items = eigen_decompose(p)
    assert eigen_compose(rho, items) == p
    code, out, err = invoke(capsys, "eigen", "decompose", "--input", " ".join(map(str, p)))
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(map(str, p[1:])) + " ; ")


def test_deep_inputs_of_length_50000_finish_in_bounded_time(capsys):
    # Both round trips took about 2 s together on a 2-vCPU host; a pass
    # that re-scans nested tails or the whole window per step takes minutes.
    n = 50000
    decreasing = " ".join(map(str, range(n, 0, -1)))
    marked_identity = " ".join([f"{v}^" for v in range(1, n)] + [str(n)])
    start = time.perf_counter()
    for command, forward, inverse, text in (
        ("eigen", "decompose", "compose", decreasing),
        ("biject", "forward", "inverse", marked_identity),
    ):
        code, out, err = invoke(capsys, command, forward, "--input", text)
        assert (code, err) == (0, "")
        code, back, err = invoke(capsys, command, inverse, "--input", out.strip())
        assert (code, err, back.strip()) == (0, "", text)
    assert time.perf_counter() - start < 50
