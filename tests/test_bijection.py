from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from eigenperm import (
    InvalidInputError,
    MarkedPermutation,
    StarredPermutation,
    all_underlined4,
    apply_pattern_symmetry,
    apply_symmetry,
    collapse_stars,
    complement,
    eigen_compose,
    eigen_decompose,
    expand_stars,
    fast_35241ok,
    is_avoider,
    lit_entries,
    list_to_marked,
    marked_to_list,
    occurrences,
    parse_pattern,
    reduce_word,
    reverse,
    satisfies,
    sort_factor_tails,
    split_at_max_ok,
    star_decode,
    star_encode,
    window_forward,
    window_inverse,
    window_plan,
)
from eigenperm.bijection import _avoids_321, _window_pass
from eigenperm.perms import _fast_ok, _reduce

# Length-15 class member whose post-maximum part has support {9, 10, 12, 14}.
P15 = (2, 8, 3, 1, 11, 4, 6, 5, 13, 7, 15, 9, 10, 14, 12)
P15_RHO = (1, 2, 4, 3)
P15_STARRED = StarredPermutation(
    (2, 8, 3, 1, 9, 4, 6, 5, 10, 7),
    (0, 0, 0, 0, 2, 0, 0, 0, 1, 0),
    after_max=1,
)
P15_MARKS = frozenset({9})
P15_BITS = (0, 1, 0, 1, 0)

# Length-30 321-avoiding member driving the moving-window rearrangement.
P30 = (
    3, 1, 5, 2, 8, 4, 6, 12, 7, 15, 9, 17, 10, 11, 20,
    25, 26, 13, 27, 28, 14, 29, 16, 30, 18, 19, 21, 22, 23, 24,
)
P30_MARKS = frozenset({26, 28, 29})
P30_LIST = (
    (2, 1, 4, 5, 3),
    (2, 3, 1),
    (3, 1, 5, 2, 7, 4, 6, 9, 8, 11, 10),
    (3, 1, 2, 6, 11, 4, 5, 7, 8, 9, 10),
)


def all_marked(p):
    """Every legal mark set on p, as MarkedPermutation objects."""
    free = sorted(set(lit_entries(p)) - {len(p)})
    for r in range(len(free) + 1):
        for marks in itertools.combinations(free, r):
            yield MarkedPermutation(p, frozenset(marks))


def test_split_at_max_ok_spot_checks():
    assert split_at_max_ok((1, 2), ())
    assert split_at_max_ok((), (1, 2))
    assert split_at_max_ok(P15[:10], P15[11:])
    assert not split_at_max_ok((3, 2, 4, 1), ())


def test_split_at_max_ok_matches_whole_permutation_check():
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            i = p.index(n)
            assert split_at_max_ok(p[:i], p[i + 1:]) == fast_35241ok(p)


def test_split_at_max_ok_requires_partition():
    with pytest.raises(InvalidInputError):
        split_at_max_ok((1, 2), (2, 3))


def test_recogniser_compares_values_only():
    # The recogniser reads only the order of the values, so a word with
    # gaps and entries up to 10**9 gets the verdict of its reduction: its
    # bottom sentinel must exceed every entry, not just len(w) + 1.
    rng = random.Random(10**9)
    seen = set()
    for _ in range(40):
        p = _random_member(rng.randint(2, 60), rng)
        for word in (p, _transposed(p, rng)):
            values = sorted(rng.sample(range(1, 10**9 + 1), len(word)))
            w = tuple(values[v - 1] for v in word)
            assert _fast_ok(w) == _fast_ok(_reduce(w)) == _fast_ok(word)
            seen.add(_fast_ok(w))
    assert seen == {False, True}


def test_split_at_max_ok_agrees_on_every_split_of_long_members():
    # The halves reach split_at_max_ok unreduced: sigma's entries run up to
    # n - 1, past len(sigma) + 1 whenever tau holds smaller ones.
    rng = random.Random(100300)
    seen = set()
    for _ in range(4):
        q = _random_member(rng.randint(100, 300), rng)
        n = len(q) + 1
        for i in range(n):
            ok = split_at_max_ok(q[:i], q[i:])
            assert ok == fast_35241ok((*q[:i], n, *q[i:])), (q, i)
            seen.add(ok)
    assert seen == {False, True}


def test_star_encode_worked_example():
    rho, starred = star_encode(P15)
    assert rho == P15_RHO
    assert starred == P15_STARRED
    assert star_decode(rho, starred) == P15


def test_star_round_trip_exhaustive(ok_perms):
    for n in range(1, 7):
        for p in ok_perms[n]:
            rho, starred = star_encode(p)
            assert star_decode(rho, starred) == p


def test_star_decode_validates():
    with pytest.raises(InvalidInputError):
        star_decode((2, 1), P15_STARRED)  # rho size disagrees with stars
    with pytest.raises(InvalidInputError):
        star_decode((3, 2, 4, 1, 5), StarredPermutation((1,), (0,), after_max=5))


def test_collapse_stars_worked_example():
    marked, bits = collapse_stars(P15_STARRED)
    assert marked == MarkedPermutation(P15_STARRED.base, P15_MARKS)
    assert bits == P15_BITS
    assert expand_stars(marked, bits) == P15_STARRED


def test_collapse_expand_round_trip_exhaustive(ok_perms):
    for n in range(1, 5):
        for p in ok_perms[n]:
            lit = lit_entries(p)
            spots = [p.index(v) for v in lit]
            for counts in itertools.product(range(3), repeat=len(spots)):
                for after in range(3):
                    before = [0] * n
                    for s, cnt in zip(spots, counts):
                        before[s] = cnt
                    sp = StarredPermutation(p, tuple(before), after_max=after)
                    marked, bits = collapse_stars(sp)
                    assert sum(bits) == len(marked.marks) + 1
                    assert len(bits) == sp.star_count + 1
                    assert expand_stars(marked, bits) == sp


def _long_starred(rng):
    # A base of length 100-800 built from a list of members, so it has one
    # LIT entry per item at least, with 0-50 stars before some of them and
    # after the maximum.
    n = rng.randint(100, 800)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, 30)))
    sizes = [b - a for a, b in itertools.pairwise((0, *cuts, n))]
    base = list_to_marked([_random_member(s, rng) for s in sizes]).perm
    lit = lit_entries(base)
    before = [0] * n
    for v in rng.sample(lit, rng.randint(1, len(lit))):
        before[base.index(v)] = rng.randint(0, 50)
    return StarredPermutation(base, before, after_max=rng.randint(0, 50))


def test_star_maps_round_trip_on_long_star_runs():
    rng = random.Random(800)
    starred = [_long_starred(rng) for _ in range(12)]
    starred.append(StarredPermutation((), (), after_max=37))  # all from tau
    for sp in starred:
        rho = _random_member(sp.star_count, rng)
        p = star_decode(rho, sp)
        assert star_encode(p) == (rho, sp)
        assert star_decode(*star_encode(p)) == p
        if sp.base:
            marked, bits = collapse_stars(sp)
            assert len(bits) == sp.star_count + 1
            assert expand_stars(marked, bits) == sp


def test_collapse_stars_needs_entries():
    with pytest.raises(InvalidInputError):
        collapse_stars(StarredPermutation((), (), after_max=2))


def test_expand_stars_validates_bits():
    marked = MarkedPermutation((1, 2), frozenset())
    with pytest.raises(InvalidInputError):
        expand_stars(marked, (0, 0))  # needs exactly one 1 per mark plus max
    with pytest.raises(InvalidInputError):
        expand_stars(marked, (2,))
    # Bits follow the int rule of marks and star counts: 1.0 and True equal
    # 1 but are not bits.
    unmarked = MarkedPermutation((1, 2, 3))
    for bits in ((1.0,), (True,), (0.0, 1)):
        with pytest.raises(InvalidInputError, match="bits must be 0 or 1"):
            expand_stars(unmarked, bits)


def test_marked_permutation_validates_marks():
    with pytest.raises(InvalidInputError):
        MarkedPermutation((1, 3, 2), frozenset({1}))  # 1 is not LIT in 132
    with pytest.raises(InvalidInputError):
        MarkedPermutation((1, 2, 3), frozenset({3}))  # the max cannot be marked


def test_marked_permutation_rejects_marks_that_are_not_integers():
    with pytest.raises(InvalidInputError, match="marks must be integers"):
        MarkedPermutation((1, 2, 3), frozenset({"a", 1}))  # unorderable
    with pytest.raises(InvalidInputError, match="marks must be integers"):
        MarkedPermutation((1, 2, 3), [[1]])  # unhashable
    with pytest.raises(InvalidInputError, match="marks must be integers"):
        MarkedPermutation((1, 2), {True})  # a bool, though it equals 1
    with pytest.raises(InvalidInputError, match=r"marks \[5\] are not non-maximal LIT entries of \(1, 2, 3\)"):
        MarkedPermutation((1, 2, 3), {5})


def test_sort_factor_tails():
    marked, factors = sort_factor_tails((3, 2, 1, 4), marks=())
    assert marked.perm == (3, 1, 2, 4)
    assert factors == ((3, (2, 1)), (4, ()))
    sorted_marked, _ = sort_factor_tails(P30, P30_MARKS)
    assert sorted_marked.perm == P30  # already 321-avoiding
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            q = sort_factor_tails(p)[0].perm
            assert lit_entries(q) == lit_entries(p)
            if fast_35241ok(p):
                assert is_avoider(q, (3, 2, 1))


def test_window_plan_worked_example():
    plan = window_plan(P30, P30_MARKS)
    assert plan.initial_starts == (15, 18, 21, 23)
    assert plan.associations == (17, 15, None, 12, None, 8, None, 3, None)
    assert plan.insertion == (
        None, 3, None, 8, None, 12, None, 15, 17, 25, 27, 29, 30,
    )
    assert plan.rows == ((12, 25), (27,), (3, 8, 15, 29), (17, 30))
    spans = sorted(plan.pane_spans)
    assert spans[0] == (0, 4)
    assert [s for s, _ in spans] == [0, 4, 7, 9, 11, 15, 18, 21, 23]
    assert spans[-1] == (23, 30)


def test_every_small_window_plan_is_pinned():
    # Every marked 321-avoider of length 1..8 (8,788 plans), hashed.
    digest = hashlib.sha256()
    for n in range(1, 9):
        for p in itertools.permutations(range(1, n + 1)):
            if not _avoids_321(p):
                continue
            free = sorted(set(lit_entries(p)) - {n})
            for r in range(len(free) + 1):
                for marks in itertools.combinations(free, r):
                    pl = window_plan(p, marks)
                    digest.update(repr((
                        p, marks, pl.pane_spans, pl.initial_starts,
                        pl.associations, pl.insertion, pl.rows,
                    )).encode())
    assert digest.hexdigest() == (
        "02c75d10467966a899c38036129be069a2e618796018a4d6eb02fd87045d7841"
    )


def test_window_plan_ignores_factor_tail_order(ok_perms):
    # The list maps run the window on the class member itself, which is
    # sound because sorting the factor tails leaves the pass unchanged; the
    # plan is a function of the pass and of the heads, which sorting keeps.
    for n in range(1, 8):
        for p in ok_perms[n]:
            q = sort_factor_tails(p)[0].perm
            free = sorted(set(lit_entries(p)) - {n})
            for r in range(len(free) + 1):
                for marks in itertools.combinations(free, r):
                    assert _window_pass(p, marks) == _window_pass(q, marks)


def test_window_forward_worked_example():
    got = window_forward(MarkedPermutation(P30, P30_MARKS))
    assert got == P30_LIST


def test_window_inverse_worked_example():
    assert window_inverse(P30_LIST) == MarkedPermutation(P30, P30_MARKS)


def test_window_identity_edge_case():
    # The initial window covers everything only for the identity.
    for n in range(1, 6):
        ident = tuple(range(1, n + 1))
        for marked in all_marked(ident):
            items = window_forward(marked)
            assert window_inverse(items) == marked


def test_window_round_trip_and_image_exhaustive():
    for n in range(1, 7):
        avoiders = [
            p
            for p in itertools.permutations(range(1, n + 1))
            if is_avoider(p, (3, 2, 1))
        ]
        image = {}
        for p in avoiders:
            for marked in all_marked(p):
                items = window_forward(marked)
                k = len(marked.marks) + 1
                assert len(items) == k
                assert all(it and is_avoider(it, (3, 2, 1)) for it in items)
                assert sum(len(it) for it in items) == n
                assert window_inverse(items) == marked
                image.setdefault(k, set()).add(items)
        for k, got in image.items():
            expected = set()
            for cuts in itertools.combinations(range(1, n), k - 1):
                sizes = [
                    b - a
                    for a, b in itertools.pairwise((0, *cuts, n))
                ]
                pools = [
                    [
                        q
                        for q in itertools.permutations(range(1, s + 1))
                        if is_avoider(q, (3, 2, 1))
                    ]
                    for s in sizes
                ]
                expected.update(itertools.product(*pools))
            assert got == expected


def test_window_plan_rejects_non_avoider():
    with pytest.raises(InvalidInputError):
        window_plan((3, 2, 1), ())


def test_window_maps_reject_non_avoiders():
    # 321 is in the class, so only the 321 check tells these names apart
    # from marked_to_list and list_to_marked.
    with pytest.raises(InvalidInputError):
        window_forward(MarkedPermutation((3, 2, 1)))
    with pytest.raises(InvalidInputError):
        window_inverse(((1,), (3, 2, 1)))


def test_linear_321_check_matches_pattern_search():
    for n in range(9):
        for p in itertools.permutations(range(1, n + 1)):
            assert _avoids_321(p) == is_avoider(p, (3, 2, 1))


def test_marked_to_list_requires_class_member():
    with pytest.raises(InvalidInputError):
        marked_to_list(MarkedPermutation((3, 2, 4, 1), frozenset()))


def test_marked_to_list_sorts_and_restores_tails():
    # 4 2 1 5 3 has a decreasing factor tail.  The window reads it as if
    # sorted, the items keep it, and each must still reduce to a member.
    marked = MarkedPermutation((4, 2, 1, 5, 3), frozenset({4}))
    items = marked_to_list(marked)
    assert all(fast_35241ok(it) for it in items)
    assert list_to_marked(items) == marked


def test_marked_list_round_trip_exhaustive(ok_perms):
    for n in range(1, 6):
        seen = set()
        for p in ok_perms[n]:
            for marked in all_marked(p):
                items = marked_to_list(marked)
                assert all(it and fast_35241ok(it) for it in items)
                assert sum(len(it) for it in items) == n
                assert list_to_marked(items) == marked
                assert items not in seen
                seen.add(items)


def test_every_small_marked_to_list_image_is_pinned(ok_perms):
    # Round trips pass when both maps change together; this pins the
    # images themselves: every marked member of length 1..7 (7,204 pairs).
    digest = hashlib.sha256()
    for n in range(1, 8):
        for p in ok_perms[n]:
            free = sorted(set(lit_entries(p)) - {n})
            for r in range(len(free) + 1):
                for marks in itertools.combinations(free, r):
                    items = marked_to_list(MarkedPermutation(p, frozenset(marks)))
                    digest.update(repr((p, marks, items)).encode())
    assert digest.hexdigest() == (
        "dd41a0f942d371e0fceeb9cee6d4966d97cb6d98e1d83e8d2a9ebc2ff4d46905"
    )


def _slot_lists(total, k, ok_perms, least=0):
    # Every k-tuple of class members of size >= least, sizes summing to total.
    if k == 0:
        if total == 0:
            yield ()
        return
    for size in range(least, total + 1):
        for head in ok_perms[size]:
            for rest in _slot_lists(total - size, k - 1, ok_perms, least):
                yield (head, *rest)


def test_list_to_marked_is_onto_small_lists(ok_perms):
    # Every list of nonempty class members of total size <= 7 comes back.
    count = 0
    for total in range(1, 8):
        for k in range(1, total + 1):
            for items in _slot_lists(total, k, ok_perms, least=1):
                assert marked_to_list(list_to_marked(items)) == items
                count += 1
    assert count == 7204


def test_eigen_compose_is_onto_the_class(ok_perms):
    # Every (rho, slots) pair of composed size n <= 7 decomposes back, and
    # the images cover each ok_perms[n] exactly.
    count = 0
    for n in range(1, 8):
        image = set()
        for k in range(1, n + 1):
            for rho in ok_perms[k - 1]:
                for slots in _slot_lists(n - k, k, ok_perms):
                    p = eigen_compose(rho, slots)
                    assert eigen_decompose(p) == (rho, slots)
                    image.add(p)
                    count += 1
        assert image == set(ok_perms[n])
    assert count == 3649


def _random_member(n, rng):
    # A class member of length n composed from random smaller members.
    if n == 0:
        return ()
    k = rng.randint(1, n)
    cuts = sorted(rng.randint(0, n - k) for _ in range(k - 1))
    sizes = [b - a for a, b in itertools.pairwise((0, *cuts, n - k))]
    return eigen_compose(_random_member(k - 1, rng), [_random_member(s, rng) for s in sizes])


@pytest.mark.parametrize("n", [50, 100, 200, 300])
def test_round_trips_on_large_composed_members(n):
    # A random member seldom has a free LIT entry, so p is built from a list
    # of two or more members, which gives it one per item but the last, and
    # at least one of them is marked.
    rng = random.Random(n)
    for _ in range(10):
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 10)))
        sizes = [b - a for a, b in itertools.pairwise((0, *cuts, n))]
        p = list_to_marked([_random_member(s, rng) for s in sizes]).perm
        assert len(p) == n and fast_35241ok(p)
        assert eigen_compose(*eigen_decompose(p)) == p
        free = sorted(set(lit_entries(p)) - {n})
        marked = MarkedPermutation(p, frozenset(rng.sample(free, rng.randint(1, len(free)))))
        assert list_to_marked(marked_to_list(marked)) == marked


def _items_from_plan(p, marks):
    # The items cut from p by the window plan of its tail-sorted form: the
    # reference that marked_to_list must match.
    plan = window_plan(sort_factor_tails(p)[0].perm, marks)
    span_of = {p[a]: (a, b) for a, b in plan.pane_spans}
    return tuple(
        reduce_word([v for head in row for v in p[slice(*span_of[head])]])
        for row in plan.rows
    )


def test_window_plan_and_marked_to_list_agree_on_long_members():
    # One pass feeds both views: the items cut from p by the plan of its
    # tail-sorted form are the items marked_to_list returns.  A random
    # member has few LIT entries, so p is built from a list of members,
    # which gives it one LIT entry per item at least.  Every third draw
    # leaves p unmarked, where marked_to_list skips the pass.
    rng = random.Random(21)
    for i in range(30):
        n = rng.randint(100, 800)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, 40)))
        sizes = [b - a for a, b in itertools.pairwise((0, *cuts, n))]
        p = list_to_marked([_random_member(s, rng) for s in sizes]).perm
        free = sorted(set(lit_entries(p)) - {n})
        marks = [] if i % 3 == 0 else rng.sample(free, rng.randint(0, len(free)))
        items = _items_from_plan(p, marks)
        assert items == marked_to_list(MarkedPermutation(p, frozenset(marks)))


def test_an_unmarked_member_is_its_own_one_item_list():
    # Both maps skip the window pass without marks or with one item; the
    # plan, which always runs it, is the reference.  Every member of
    # length 1..8.
    count = 0
    for n in range(1, 9):
        for q in itertools.permutations(range(1, n + 1)):
            if not _fast_ok(q):
                continue
            assert marked_to_list(MarkedPermutation(q)) == (q,) == _items_from_plan(q, ())
            assert list_to_marked((q,)) == MarkedPermutation(q)
            count += 1
    assert count == 1 + 2 + 6 + 23 + 104 + 531 + 2982 + 18109


def test_recogniser_matches_definition_past_exhaustive_range():
    # Members of length 10..30 and one random transposition of each, most
    # of which leave the class.
    rng = random.Random(35241)
    up = parse_pattern("3(5)241")
    for _ in range(60):
        n = rng.randint(10, 30)
        p = _random_member(n, rng)
        i, j = rng.sample(range(n), 2)
        q = list(p)
        q[i], q[j] = q[j], q[i]
        for word in (p, tuple(q)):
            assert fast_35241ok(word) == satisfies(word, up)



def test_recogniser_matches_definition_at_lengths_100_to_150():
    rng = random.Random(100150)
    up = parse_pattern("3(5)241")
    seen = set()
    for _ in range(12):
        p = _random_member(rng.randint(100, 150), rng)
        for word in (p, _transposed(p, rng)):
            ok = satisfies(word, up)
            assert fast_35241ok(word) == ok, word
            seen.add(ok)
    assert seen == {False, True}


def test_recogniser_matches_definition_at_lengths_400_to_800():
    rng = random.Random(400800)
    up = parse_pattern("3(5)241")
    seen = set()
    for _ in range(6):
        p = _random_member(rng.randint(400, 800), rng)
        for word in (p, _transposed(p, rng)):
            ok = satisfies(word, up)
            assert fast_35241ok(word) == ok, word
            seen.add(ok)
    assert seen == {False, True}


def test_satisfies_on_a_member_of_length_2000_is_quadratic():
    # A cubic search over partial 324 occurrences takes minutes on this
    # member; the one-query step for the last two base letters, about a
    # second.
    rng = random.Random(1)
    up = parse_pattern("3(5)241")
    p = _random_member(2000, rng)
    words = (p, _transposed(p, rng))
    start = time.perf_counter()
    got = [satisfies(word, up) for word in words]
    assert time.perf_counter() - start < 5.0
    assert got == [fast_35241ok(word) for word in words] == [True, False]


def _occurrence_satisfies(p, up):
    """satisfies by its definition, read off the listed base occurrences.

    Each occurrence needs an entry between its letters on either side of
    the mark and between its values just below and just above the marked
    letter's value.
    """
    w = up.full[up.mark - 1]
    rest = up.full[: up.mark - 1] + up.full[up.mark:]
    for occ in occurrences(p, up.base):
        pos = [q - 1 for q in occ]
        a = pos[up.mark - 2] + 1 if up.mark > 1 else 0
        b = pos[up.mark - 1] if up.mark <= len(pos) else len(p)
        lo = max((p[q] for q, v in zip(pos, rest) if v < w), default=0)
        hi = min((p[q] for q, v in zip(pos, rest) if v > w), default=len(p) + 1)
        if not any(lo < p[x] < hi for x in range(a, b)):
            return False
    return True


def _box_fixed_early(up):
    # True when the letters that bound the marked letter's box all come
    # before the last base letter, so no search needs to place that letter.
    w = up.full[up.mark - 1]
    rest = up.full[: up.mark - 1] + up.full[up.mark:]
    around = {up.mark - 2, up.mark - 1} | {t for t, v in enumerate(rest) if v in (w - 1, w + 1)}
    return max(around & set(range(len(rest))), default=-1) < len(rest) - 1


def _transposed(p, rng):
    i, j = rng.sample(range(len(p)), 2)
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def test_satisfies_matches_its_occurrence_definition():
    # Random permutations for every marked 4-pattern and the mark first,
    # inside and last in longer ones; then members of 3(5)241 and their
    # reverses, members of 142(5)3, with one transposition of each.  Both
    # outcomes are seen with the box fixed before and at the last letter.
    rng = random.Random(3241)
    extra = ["3(5)241", "(1)", "(1)2", "2(1)", "21(6)534", "41(5)7263"]
    seen = set()
    for up in all_underlined4() + [parse_pattern(s) for s in extra]:
        for _ in range(2):
            n = rng.randint(10, 40)
            p = tuple(rng.sample(range(1, n + 1), n))
            got = satisfies(p, up)
            assert got == _occurrence_satisfies(p, up), (str(up), p)
            seen.add((_box_fixed_early(up), got))
    ups = (parse_pattern("3(5)241"), parse_pattern("142(5)3"))
    for _ in range(12):
        p = _random_member(rng.randint(20, 60), rng)
        for up, member in zip(ups, (p, reverse(p))):
            for word in (member, _transposed(member, rng)):
                got = satisfies(word, up)
                assert got == _occurrence_satisfies(word, up), (str(up), word)
                seen.add((_box_fixed_early(up), got))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _last_two_in_one_query(up):
    # True when the letter before the last is the last to bound the box,
    # and bounds only its values, and it is not among the earlier letters
    # nearest in value to the last letter: then satisfies decides the last
    # two letters with one query.
    w = up.full[up.mark - 1]
    rest = up.full[: up.mark - 1] + up.full[up.mark:]
    m = len(rest)
    by_position = {up.mark - 2, up.mark - 1} & set(range(m))
    by_value = {t for t, v in enumerate(rest) if v in (w - 1, w + 1)}
    below = max((v for v in rest[:-1] if v < rest[-1]), default=0)
    above = min((v for v in rest[:-1] if v > rest[-1]), default=0)
    fixed_by_value = max(by_position | by_value, default=-1) == m - 2 and m - 2 not in by_position
    return fixed_by_value and rest[m - 2] not in (below, above)


def _random_231_avoider(values, rng):
    # The largest value, with the smaller values before it than after it.
    if not values:
        return ()
    k = rng.randint(0, len(values) - 1)
    return _random_231_avoider(values[:k], rng) + (values[-1],) + _random_231_avoider(values[k:-1], rng)


def test_one_query_serves_four_marked_4_patterns_and_3_5_241():
    ups = all_underlined4() + [parse_pattern("3(5)241")]
    served = [str(up) for up in ups if _last_two_in_one_query(up)]
    assert served == ["(1)324", "(2)314", "(3)241", "(4)231", "3(5)241"]
    # satisfies takes the step, find before fix, for exactly these patterns.
    for up in ups + [parse_pattern(s) for s in ("(1)", "(1)2", "2(1)", "1(3)2", "21(6)534", "41(5)7263")]:
        *_, fix, find = up._plan
        assert (find < fix) == _last_two_in_one_query(up), str(up)


def _leading_one(n, rng):
    return (1, *(v + 1 for v in rng.sample(range(1, n), n - 1)))


def _avoider(n, rng):
    return _random_231_avoider(tuple(range(1, n + 1)), rng)


# A random member of length n of each one-query pattern's class: a leading
# 1, a 231-avoider or a composed member, or a complement.
ONE_QUERY_MEMBERS = {
    "(1)324": _leading_one,
    "(4)231": lambda n, rng: complement(_leading_one(n, rng)),
    "(3)241": _avoider,
    "(2)314": lambda n, rng: complement(_avoider(n, rng)),
    "3(5)241": _random_member,
}

# The seven symmetries other than the identity, as generator words.
SYMMETRY_WORDS = (
    "complement", "reverse", "inverse", "complement reverse",
    "reverse inverse", "inverse reverse", "complement reverse inverse",
)


def test_one_query_patterns_match_their_occurrence_definition():
    # For each pattern: random words of length 10-80, members of its class,
    # 3(5)241 members of length 40-100, and one transposition of each.
    rng = random.Random(2314)
    for text, member in ONE_QUERY_MEMBERS.items():
        up = parse_pattern(text)
        seen = set()
        for _ in range(4):
            n = rng.randint(10, 80)
            words = (tuple(rng.sample(range(1, n + 1), n)), member(n, rng), _random_member(rng.randint(40, 100), rng))
            for word in (*words, *(_transposed(w, rng) for w in words)):
                got = satisfies(word, up)
                assert got == _occurrence_satisfies(word, up), (text, word)
                seen.add(got)
        assert seen == {False, True}, text


def test_satisfies_is_invariant_under_every_symmetry():
    # Each one-query pattern's orbit mixes patterns that satisfies decides
    # with the one query and patterns, such as 142(5)3, that it walks in
    # full, with the floor and ceiling in mirrored places.  So the two
    # searches check each other on class members of length 30-80, one
    # transposition of each and a random word of its length.
    probe = (2, 4, 1, 3, 5)
    assert len({probe} | {apply_symmetry(probe, w) for w in SYMMETRY_WORDS}) == 8
    rng = random.Random(53241)
    for text, member in ONE_QUERY_MEMBERS.items():
        up = parse_pattern(text)
        images = [apply_pattern_symmetry(up, w) for w in SYMMETRY_WORDS]
        assert {_last_two_in_one_query(im) for im in images} == {False, True}, text
        seen = set()
        for _ in range(3):
            n = rng.randint(30, 80)
            p = member(n, rng)
            for word in (p, _transposed(p, rng), tuple(rng.sample(range(1, n + 1), n))):
                got = satisfies(word, up)
                for w, image in zip(SYMMETRY_WORDS, images):
                    assert satisfies(apply_symmetry(word, w), image) == got, (text, w, word)
                seen.add(got)
        assert seen == {False, True}, text


def test_list_to_marked_validates():
    with pytest.raises(InvalidInputError):
        list_to_marked(((1, 2), ()))  # empty item
    with pytest.raises(InvalidInputError):
        list_to_marked(((3, 2, 4, 1),))  # item outside the class
    with pytest.raises(InvalidInputError):
        list_to_marked(())


def test_eigen_decompose_worked_example():
    rho, v = eigen_decompose(P15)
    assert rho == P15_RHO
    assert len(v) == 5
    assert [bool(it) for it in v] == [bool(b) for b in P15_BITS]
    assert sum(len(it) for it in v) == 10
    assert eigen_compose(rho, v) == P15


def test_eigen_degenerate_cases():
    assert eigen_decompose((1,)) == ((), ((),))
    assert eigen_compose((), ((),)) == (1,)
    assert eigen_decompose((3, 1, 2)) == ((1, 2), ((), (), ()))
    assert eigen_compose((1, 2), ((), (), ())) == (3, 1, 2)
    assert eigen_compose((1, 2), ((), (), (1,))) == (3, 4, 1, 2)


def test_eigen_round_trip_exhaustive(ok_perms):
    for n in range(1, 7):
        for p in ok_perms[n]:
            rho, v = eigen_decompose(p)
            assert fast_35241ok(rho)
            assert len(rho) == len(v) - 1
            assert sum(len(it) for it in v) == n - len(v)
            assert eigen_compose(rho, v) == p


def test_every_small_eigen_decomposition_is_pinned():
    # Every member of length 1..8 (21,758), hashed with its image.
    digest = hashlib.sha256()
    for n in range(1, 9):
        for p in itertools.permutations(range(1, n + 1)):
            if fast_35241ok(p):
                digest.update(repr((p, eigen_decompose(p))).encode())
    assert digest.hexdigest() == (
        "88ef6c90d5b0b074d54d8db88de3f5c5a12c3bd58fc86252acb929a1805e7f74"
    )


def test_eigen_round_trip_with_many_marks_is_linear():
    # A member of about 10**5 entries with about 20,000 marks: the slots
    # after rho's 40,000 entries hold small members about half the time.
    # Each stage is linear, and the two calls take well under a second; a
    # mark lookup that searched the member from its start each time would
    # be quadratic and overrun the bound.
    rng = random.Random(40001)
    rho = tuple(range(1, 40001))
    items = [_random_member(rng.randint(1, 5), rng) if rng.random() < 0.5 else () for _ in range(40001)]
    start = time.perf_counter()
    p = eigen_compose(rho, items)
    assert eigen_decompose(p) == (rho, tuple(items))
    assert time.perf_counter() - start < 5.0
    assert len(p) > 95_000 and sum(map(bool, items)) > 19_000


def test_eigen_compose_is_injective_onto_class(ok_perms):
    # every (rho, v) pair with |rho| = k-1 arises from exactly one member
    produced = {}
    for n in range(1, 7):
        for p in ok_perms[n]:
            key = eigen_decompose(p)
            assert key not in produced
            produced[key] = p


def test_eigen_validation():
    with pytest.raises(InvalidInputError):
        eigen_decompose((3, 2, 4, 1))
    with pytest.raises(InvalidInputError):
        eigen_decompose(())
    with pytest.raises(InvalidInputError):
        eigen_compose((1,), ((1,),))  # rho too long for one slot
    with pytest.raises(InvalidInputError):
        eigen_compose((3, 2, 4, 1, 5), ((), (), (), (), (), ()))
    with pytest.raises(InvalidInputError):
        eigen_compose((), ())
    with pytest.raises(InvalidInputError):
        eigen_compose((1,), ((3, 2, 4, 1), ()))  # a slot outside the class
