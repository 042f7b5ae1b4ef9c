import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_family
from upfam.automata import Nfa
from upfam.errors import InputError
from upfam.family import ReferenceSet, family_accepts, up_membership
from upfam.oracle import (_canonical_table, _word_pool,
                          brute_almost_saturation, brute_saturation,
                          enumerate_normalized, nba_lasso_accepts)
from upfam.words import (Representation, canonical_pair, up_equal,
                         words_up_to)

from fixtures import (ba_star_fdfa, eventually_ab_fdfa, mod2_leading,
                      odd_a_fdfa, universal_fdfa)

NORM = ReferenceSet.NORMALIZED
ALL = ReferenceSet.ALL


def test_enumerate_normalized_trivial():
    out = enumerate_normalized(odd_a_fdfa(), 1, 1)
    assert out == [Representation("", "a"), Representation("a", "a")]


def test_enumerate_normalized_mod2():
    from upfam.family import FDFA, Family
    from fixtures import empty_fdfa
    f = Family(FDFA, mod2_leading("a"), [empty_fdfa("a").progress[0]] * 2)
    assert enumerate_normalized(f, 0, 2) == [Representation("", "aa")]


def test_enumerate_normalized_count_matches_direct():
    rng = random.Random(3)
    from upfam.family import is_normalized
    from upfam.words import words_up_to
    for _ in range(10):
        f = random_family(rng)
        out = enumerate_normalized(f, 3, 3)
        direct = [Representation(u, x)
                  for u in words_up_to("ab", 3)
                  for x in words_up_to("ab", 3, 1)
                  if is_normalized(f, Representation(u, x))]
        assert out == direct


def test_brute_saturation_ba_star():
    cx = brute_saturation(ba_star_fdfa(), NORM, 4, 4)
    assert cx is not None
    # least mixed class is b^omega: b in ba*, bb not
    assert cx.left == Representation("", "b")
    assert cx.right == Representation("", "bb")
    assert cx.left_accepted and not cx.right_accepted


def test_brute_saturation_odd_a():
    cx = brute_saturation(odd_a_fdfa(), NORM, 2, 2)
    assert cx.left == Representation("", "a")
    assert cx.right == Representation("", "aa")


def test_brute_saturation_saturated_fixture():
    assert brute_saturation(eventually_ab_fdfa(), NORM, 6, 6) is None
    assert brute_saturation(eventually_ab_fdfa(), ALL, 6, 6) is None
    assert brute_saturation(universal_fdfa(), ALL, 5, 5) is None


def test_brute_saturation_counterexamples_replay():
    rng = random.Random(77)
    found = 0
    for _ in range(60):
        f = random_family(rng)
        cx = brute_saturation(f, NORM, 5, 5)
        if cx is None:
            continue
        found += 1
        assert up_equal(cx.left, cx.right)
        assert family_accepts(f, cx.left, NORM)
        assert not family_accepts(f, cx.right, NORM)
    assert found > 10  # random tiny families are mostly unsaturated


def test_brute_saturation_all_supersedes_normalized():
    rng = random.Random(13)
    for _ in range(40):
        f = random_family(rng)
        if brute_saturation(f, NORM, 4, 4) is not None:
            assert brute_saturation(f, ALL, 4, 4) is not None


def test_canonical_table_covers_only_the_bounds():
    """The table holds |u| <= max_u and 1 <= |x| <= max_x, not every pair
    of the pool up to the larger bound: 3 spokes by 14 loops here, where
    the whole pool up to length 3 would give 15 by 14."""
    table = _canonical_table(("a", "b"), 1, 3)
    assert len(table) == 3 * 14
    words = _word_pool(("a", "b"), 3)[0]
    for (ui, xi), (cu, cx) in table.items():
        assert len(words[ui]) <= 1 and 1 <= len(words[xi]) <= 3
        assert (words[cu], words[cx]) == canonical_pair(words[ui], words[xi])


def test_brute_almost_saturation_examples():
    assert brute_almost_saturation(odd_a_fdfa(), 3, 4) == ((), ("a",), 2)
    assert brute_almost_saturation(ba_star_fdfa(), 3, 4) == ((), ("b",), 2)
    assert brute_almost_saturation(universal_fdfa(), 4, 4) is None


def test_brute_almost_saturation_witness_replays():
    rng = random.Random(21)
    found = 0
    for _ in range(60):
        f = random_family(rng)
        w = brute_almost_saturation(f, 4, 4)
        if w is None:
            continue
        found += 1
        u, x, i = w
        assert i >= 2
        assert family_accepts(f, Representation(u, x), NORM)
        assert not family_accepts(f, Representation(u, x * i), NORM)
    assert found >= 10


def infinitely_many_a_nba():
    # Buchi: accepting state visited on every a
    return Nfa("ab", 2, {(0, "a"): [1], (0, "b"): [0],
                         (1, "a"): [1], (1, "b"): [0]}, [0], [1])


def test_nba_lasso_examples():
    univ = Nfa("ab", 1, {(0, "a"): [0], (0, "b"): [0]}, [0], [0])
    assert nba_lasso_accepts(univ, (), ("a",))
    empty = Nfa("ab", 1, {}, [0], [])
    assert not nba_lasso_accepts(empty, (), ("a", "b"))
    inf_a = infinitely_many_a_nba()
    assert nba_lasso_accepts(inf_a, (), ("a", "b"))
    assert not nba_lasso_accepts(inf_a, (), ("b",))
    assert nba_lasso_accepts(inf_a, ("b", "b"), ("a",))


def test_nba_lasso_requires_loop():
    with pytest.raises(InputError):
        nba_lasso_accepts(infinitely_many_a_nba(), ("a",), ())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.text("ab", max_size=3),
       st.text("ab", min_size=1, max_size=3))
def test_nba_lasso_invariances(seed, u, x):
    from helpers import random_nfa
    rng = random.Random(seed)
    a = random_nfa(rng, "ab", 4)
    u, x = tuple(u), tuple(x)
    base = nba_lasso_accepts(a, u, x)
    assert nba_lasso_accepts(a, u + x, x) == base
    assert nba_lasso_accepts(a, u, x + x) == base


def test_oracle_agrees_with_up_membership_on_saturated_family():
    ev = eventually_ab_fdfa()
    assert brute_saturation(ev, ALL, 5, 5) is None
    for r in enumerate_normalized(ev, 3, 3):
        assert family_accepts(ev, r, NORM) == up_membership(ev, r)


def _pair_key(r):
    """Total length, then u and then x in llex order (alphabet ab)."""
    return len(r.u) + len(r.x), (len(r.u), r.u), (len(r.x), r.x)


@pytest.mark.parametrize("index", [213, 313])
def test_brute_saturation_reports_the_least_members(index):
    """Family `index` of a seeded sample has a mixed group whose first
    member met in u-major order is not its least: (ε, aaa) comes before
    (a, a) on one side.  Each side of the counterexample is the least member of
    its group by the documented order."""
    rng = random.Random(5)
    for _ in range(index + 1):
        F = random_family(rng, max_leading=2, max_progress=3)
    cx = brute_saturation(F, ALL, 2, 3)
    group = canonical_pair(cx.left.u, cx.left.x)
    members = [Representation(u, x) for u in words_up_to("ab", 2)
               for x in words_up_to("ab", 3, 1)
               if canonical_pair(u, x) == group]
    assert cx.left == min((r for r in members if family_accepts(F, r, ALL)),
                          key=_pair_key)
    assert cx.right == min((r for r in members
                            if not family_accepts(F, r, ALL)), key=_pair_key)
