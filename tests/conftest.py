from __future__ import annotations

import itertools

import pytest

from eigenperm import all_underlined4, parse_pattern, satisfies


@pytest.fixture(scope="session")
def ok_perms():
    """All 3-5-241-OK permutations keyed by length, for n = 0..7.

    Taken from the definition, so the recogniser is not its own oracle.
    """
    up = parse_pattern("3(5)241")
    return {
        n: [p for p in itertools.permutations(range(1, n + 1)) if satisfies(p, up)]
        for n in range(8)
    }


@pytest.fixture(scope="session")
def pattern_census_table():
    """census counts (n = 0..6) for every marked 4-pattern, brute force."""
    patterns = all_underlined4()
    table = {up: [1] for up in patterns}
    for n in range(1, 7):
        perms = list(itertools.permutations(range(1, n + 1)))
        for up in patterns:
            table[up].append(sum(1 for p in perms if satisfies(p, up)))
    return {up: tuple(counts) for up, counts in table.items()}
