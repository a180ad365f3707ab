from __future__ import annotations

import pytest

from eigenperm import InvalidInputError, bijection, run_suite
from eigenperm.verify import SUITES


def test_each_suite_passes_at_small_size():
    for suite in ("recurrences", "bijection", "fourpatterns"):
        results = run_suite(suite, 5)
        assert results
        assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_failed_check_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(bijection, "_from_list", lambda items: None)
    marked = {r.name: r for r in run_suite("bijection", 4)}["marked list round trip"]
    assert not marked.ok
    assert marked.detail == "failed at (1,) marks ()"


def test_failed_eigen_check_reports_the_first_counterexample(monkeypatch):
    monkeypatch.setattr(bijection, "_compose", lambda rho, items: None)
    eigen = {r.name: r for r in run_suite("bijection", 4)}["eigen decompose/compose round trip"]
    assert not eigen.ok
    assert eigen.detail == "failed at (1,)"


def test_a_map_that_raises_on_a_member_fails_its_check(monkeypatch):
    def boom(q):
        raise RuntimeError("boom")

    monkeypatch.setattr(bijection, "_decompose", boom)
    eigen = {r.name: r for r in run_suite("bijection", 4)}["eigen decompose/compose round trip"]
    assert (eigen.ok, eigen.detail) == (False, "failed at (1,): boom")


def test_all_suite_is_the_union():
    combined = run_suite("all", 5)
    parts = [
        r for s in ("recurrences", "bijection", "fourpatterns")
        for r in run_suite(s, 5)
    ]
    assert [r.name for r in combined] == [r.name for r in parts]


def test_unknown_suite_rejected():
    assert set(SUITES) == {"recurrences", "bijection", "fourpatterns", "all"}
    for name in ("everything", [1]):
        with pytest.raises(InvalidInputError):
            run_suite(name, 4)


def test_negative_max_n_rejected():
    for suite in SUITES:
        with pytest.raises(InvalidInputError):
            run_suite(suite, -1)
