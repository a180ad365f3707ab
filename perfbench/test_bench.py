"""Tests of the benchmark's own parts: the member generator, the enumerator
and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time

import pytest

import eigenperm
from eigenperm import perms

import members
import reference
import worker
import workloads
from members import Shape
from tracer import Tracer

PATTERN = perms.parse_pattern(workloads.PATTERN)
SHAPES = [Shape(fan, loosen) for fan in (0.0, 0.2, 0.4, 0.6, 1.0) for loosen in (0.0, 0.5, 1.0)]


def test_enumerator_counts_the_class():
    table = members.all_members(8)
    assert [len(ps) for ps in table] == [1, 1, 2, 6, 23, 104, 531, 2982, 18109]
    for n, ps in enumerate(table):
        assert len(set(ps)) == len(ps)
        assert all(sorted(p) == list(range(1, n + 1)) for p in ps)


def test_enumerator_matches_the_definition():
    for n in range(7):
        by_definition = {p for p in itertools.permutations(range(1, n + 1)) if perms.satisfies(p, PATTERN)}
        assert set(members.all_members(n)[n]) == by_definition


def test_recogniser_matches_the_definition():
    for n in range(8):
        for p in itertools.permutations(range(1, n + 1)):
            assert members.is_member(p) == perms.satisfies(p, PATTERN), p


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_generated_members_satisfy_the_pattern(shape):
    rng = random.Random(7)
    for n in range(11):
        for _ in range(30):
            m = members.build(n, shape, rng)
            assert sorted(m.perm) == list(range(1, n + 1))
            assert perms.satisfies(m.perm, PATTERN), m.perm
            assert m.factors == members.factor_count(m.perm)


def test_deep_members_nest_past_the_recursion_limit():
    m = members.build(1200, Shape(0.3, chain=True), random.Random(3))
    assert m.depth > sys.getrecursionlimit() + 50
    assert m.max_first and members.is_member(m.perm)


def test_neighbours_are_every_transposition_once():
    p = (3, 1, 2, 4)
    got = list(members.neighbours(p, random.Random(0)))
    assert len(got) == len(set(got)) == 6
    assert all(sum(a != b for a, b in zip(p, q)) == 2 for q in got)


def _small(name: str, ops: int) -> workloads.Workload:
    w = workloads.BY_NAME[name](5)
    w.ops = w.ops[:ops]
    return w


def test_tracer_counts_repeat_and_are_uninstalled():
    original, init = perms.as_perm, eigenperm.MarkedPermutation.__init__
    w = _small("class_small", 300)
    first = worker.trace(w)["per_layer"]
    second = worker.trace(w)["per_layer"]
    calls = {k: v for k, v in first.items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in second.items() if k.endswith(".calls")}
    assert calls["perms.as_perm.calls"][0] > 0
    assert perms.as_perm is original and eigenperm.bijection.as_perm is original
    assert eigenperm.MarkedPermutation.__init__ is init


def test_self_times_add_up_to_root_spans():
    tracer = Tracer(["perms.reduce_word", "perms.as_perm", "bijection.eigen_decompose"])
    tracer.install()
    try:
        for p in members.all_members(6)[6]:
            eigenperm.bijection.eigen_decompose(p)
    finally:
        tracer.uninstall()
    calls, self_s, _ = tracer.summary()
    roots = sum(e - s for s, e, parent in zip(tracer.start, tracer.end, tracer.parent) if parent < 0)
    assert calls["bijection.eigen_decompose"] == 531
    assert sum(self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert all(t >= 0 for t in self_s.values())


def test_every_workload_passes_its_own_checks():
    for name in workloads.BY_NAME:
        w = _small(name, 40 if name != "census" else 8)
        if name == "census":
            w.ops = [op for op in w.ops if op.kind == "stream" or op.metric == "verify_s"]
        if name == "sequences":
            w.ops = [op for op in w.ops if op.metric in ("seq_catalan_s", "seq_bell_s", "seq_a051295_s")]
        _, _, results, _ = worker.run_pass(w)
        tally, verdicts = worker.judge_pass(w, results)
        assert tally["failed"] == 0, verdicts


def test_reference_speed_weighs_each_gap_and_skips_the_handler():
    ref = reference.Reference()
    # Samples (handler spans) at 0-1, 10-11 and 20-21; loops of 2, 2 and 0.5 LOOP_S.
    ref.begins.extend([0.0, 10.0, 20.0])
    ref.ends.extend([1.0, 11.0, 21.0])
    ref.loops.extend([2 * reference.LOOP_S, 2 * reference.LOOP_S, 0.5 * reference.LOOP_S])
    ref.weigh()
    # Gap 1 (1-10) at the median of 2, 2, 0.5 loops; gap 2 (11-20) likewise.
    assert ref.at_ref(2.0, 4.0) == pytest.approx(2.0 / 2)
    assert ref.at_ref(1.0, 20.0) == pytest.approx(18.0 / 2)
    assert ref.at_ref(10.2, 10.8) == 0.0


def test_ticks_near_the_recursion_limit_are_skipped_without_harm():
    def depth() -> int:
        frame, d = sys._getframe(), 0
        while frame is not None:
            frame, d = frame.f_back, d + 1
        return d

    def down(left: int, until: float) -> None:
        if left:
            return down(left - 1, until)
        while time.perf_counter() < until:
            pass

    ref = reference.Reference()
    ref.start()
    try:
        # Ten frames below the limit: too shallow for the loop's own calls.
        down(sys.getrecursionlimit() - depth() - 10, time.perf_counter() + 0.3)
        mark = time.perf_counter()
        while time.perf_counter() < mark + 0.2:
            pass
    finally:
        ref.stop()
    assert sum(t > mark for t in ref.ends[:-1]) >= 3


def test_a_pass_at_reference_speed_tracks_its_wall_time():
    w = _small("class_small", 400)
    ref = reference.Reference()
    ref.warm()
    wall, latency, _, at_ref = worker.run_pass(w, ref=ref)
    assert len(at_ref) == len(latency) and all(t > 0 for t in at_ref)
    # Against the loops sampled during the pass; the host may drift within it.
    expected = wall * reference.LOOP_S / statistics.median(ref.loops)
    assert 0.5 < sum(at_ref) / expected < 2.0


def test_a_wrong_result_is_counted():
    w = _small("class_small", 10)
    op = next(op for op in w.ops if op.kind == "roundtrip")
    assert workloads.judge(w, op, ("1 ; ", "2 1"), None) != "ok"
    reject = workloads.Op("reject", "2 1")
    assert workloads.judge(w, reject, ("", ""), None) == "accepted an invalid input"
    deep = workloads.Op("roundtrip", (1,), known=RecursionError)
    assert workloads.judge(w, deep, None, RecursionError()) == "known"
    assert workloads.judge(w, deep, None, ValueError("x")) != "ok"


def test_tail_percentile_keeps_ten_samples_beyond():
    assert worker.tail_percentile(6) is None
    assert worker.tail_percentile(90) == 75.0
    assert worker.tail_percentile(203) == 95.0
    assert worker.tail_percentile(22631) == 99.9
