"""Regularity decision tests.

Verdicts and witness words below were derived by hand on the profile graphs
of the small fixtures and double-checked against the primitive-terminal-word
enumeration before being frozen.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfam.automata import Dfa, intersect_dfa
from upfam.errors import CapExceededError, InputError
from upfam.family import (FDFA, FDWA, FNFA, Family, ReferenceSet,
                          family_accepts)
from upfam.fixtures import (all_fixture_families, ba_star_fdfa, empty_fdfa,
                            exactly_one_a_fdfa, mod2_leading, odd_a_fdfa,
                            one_b_some_a_fdfa, some_a_fdwa, trivial_leading,
                            universal_fdfa)
from upfam.regularity import (CASE_DISTINCT_ROOTS, CASE_FIRST_VISITORS,
                              TERMINAL, GoodWitness, ProfileClass,
                              RegularityVerdict, TransitionProfile,
                              brute_ter_roots, check_regular,
                              classify_profile, find_good_witness,
                              gen_ter_hardness, label_by_leading, profile_of,
                              stabilize)
from upfam.words import Representation, root, words_up_to

from helpers import random_family

NORM = ReferenceSet.NORMALIZED


def rotations_accept(F, u, x):
    """Whether some rotation of the loop (slid into the spoke) is accepted."""
    return any(
        family_accepts(F, Representation(u + x[:k], x[k:] + x[:k]), NORM)
        for k in range(len(x)))


def assert_same_up_language(F, S, max_x=4):
    """S and F agree on every normalized loop up to the length bound, once
    acceptance is read modulo loop rotation."""
    T = F.leading
    for q in range(T.n):
        u = T.access_word(q)
        for x in words_up_to(F.alphabet, max_x, min_len=1):
            if T.after(q, x) != q:
                continue
            want = rotations_accept(F, u, x)
            got = family_accepts(S, Representation(u, x), NORM)
            assert got == want, (q, x)


# ---------------------------------------------------------------- profiles


def test_profile_of_rejects_empty_word():
    D = odd_a_fdfa().progress[0]
    with pytest.raises(InputError):
        profile_of(D, ())


def test_profile_composition_is_a_homomorphism():
    D = exactly_one_a_fdfa().progress[0]
    words = list(words_up_to("ab", 3, min_len=1))
    for x in words:
        for y in words:
            assert profile_of(D, x + y) == \
                profile_of(D, x).compose(profile_of(D, y))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("ab"), min_size=1, max_size=5),
       st.lists(st.sampled_from("ab"), min_size=1, max_size=5))
def test_profile_composition_on_an_nfa(x, y):
    F = label_by_leading(stabilize(one_b_some_a_fdfa()))
    N = F.progress[0]
    toks = N.alphabet
    xs = tuple(toks[0] if a == "a" else toks[1] for a in x)
    ys = tuple(toks[0] if a == "a" else toks[1] for a in y)
    assert profile_of(N, xs + ys) == \
        profile_of(N, xs).compose(profile_of(N, ys))


def test_profile_images():
    D = odd_a_fdfa().progress[0]
    tau = profile_of(D, "a")
    assert tau.image(0) == {1} and tau.image(1) == {0}
    assert tau.compose(tau).image(0) == {0}


def test_classify_odd_a():
    D = odd_a_fdfa().progress[0]
    c = classify_profile(D, profile_of(D, "a"))
    assert c == ProfileClass(TERMINAL, 2)  # aa and all its powers rejected
    assert classify_profile(D, profile_of(D, "aa")).classification == \
        "Rejecting"


def test_classify_exactly_one_a():
    D = exactly_one_a_fdfa().progress[0]
    assert classify_profile(D, profile_of(D, "abab")).classification == \
        "Rejecting"
    c = classify_profile(D, profile_of(D, "ab"))
    assert c.classification == TERMINAL and c.power == 2
    # no power of b ever sees an a, so its profile is rejecting outright
    assert classify_profile(D, profile_of(D, "b")) == \
        ProfileClass("Rejecting")


def test_classify_universal_progress_never_terminal():
    D = universal_fdfa("ab").progress[0]
    for x in words_up_to("ab", 3, min_len=1):
        c = classify_profile(D, profile_of(D, x))
        assert c.classification == "Accepting"


# --------------------------------------------------------------- stabilize


def test_stabilize_rejects_fdwa():
    with pytest.raises(InputError):
        stabilize(some_a_fdwa())


def test_stabilize_ba_star_closes_rotations():
    F = ba_star_fdfa()
    S = stabilize(F)
    assert S.kind == FNFA
    N = S.progress[0]
    # the original accepts only b a^i; the closure adds every rotation
    assert N.accepts(("b", "a"))
    assert N.accepts(("a", "b"))
    assert N.accepts(("a", "b", "a"))
    assert not N.accepts(("a", "a"))
    assert not N.accepts(())
    assert_same_up_language(F, S)


def test_stabilize_is_loopshift_stable_on_fixtures():
    for name, F in all_fixture_families().items():
        if F.kind != FDFA:
            continue
        S = stabilize(F)
        T = S.leading
        for q in range(T.n):
            u = T.access_word(q)
            for x in words_up_to(F.alphabet, 5, min_len=1):
                if T.after(q, x) != q:
                    continue
                base = family_accepts(S, Representation(u, x), NORM)
                for k in range(1, len(x)):
                    r = Representation(u + x[:k], x[k:] + x[:k])
                    assert family_accepts(S, r, NORM) == base, (name, x, k)


def test_stabilize_preserves_language_on_random_families():
    rng = random.Random(11)
    for _ in range(60):
        F = random_family(rng, FDFA, max_leading=2, max_progress=3)
        assert_same_up_language(F, stabilize(F))


# -------------------------------------------------------- label_by_leading


def test_label_requires_fnfa():
    with pytest.raises(InputError):
        label_by_leading(ba_star_fdfa())


def mod2_family():
    T = mod2_leading("ab")
    pa = Dfa.from_parts("ab", 3, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 2,
                                  (1, "b"): 2, (2, "a"): 2, (2, "b"): 2},
                        accepting=(1,))
    paa = Dfa.from_parts("ab", 4, {(0, "a"): 1, (0, "b"): 3, (1, "a"): 2,
                                   (1, "b"): 3, (2, "a"): 3, (2, "b"): 3,
                                   (3, "a"): 3, (3, "b"): 3}, accepting=(2,))
    return Family(FDFA, T, [pa, paa])


def test_label_by_leading_mirrors_the_mod2_example():
    F = mod2_family()
    S = stabilize(F)
    L = label_by_leading(S)
    assert L.leading.n == 1
    assert L.alphabet == ("0:a", "0:b", "1:a", "1:b")
    N = L.progress[0]
    T = F.leading

    def tokenize(q, x):
        out, r = [], q
        for a in x:
            out.append(f"{r}:{a}")
            r = T.after(r, (a,))
        return tuple(out), r

    for q in range(2):
        for x in words_up_to("ab", 4, min_len=1):
            toks, end = tokenize(q, x)
            if end != q:
                assert not N.accepts(toks), (q, x)
                continue
            want = family_accepts(S, Representation(T.access_word(q), x),
                                  NORM)
            assert N.accepts(toks) == want, (q, x)


def test_label_by_leading_drops_improper_token_loops():
    L = label_by_leading(stabilize(mod2_family()))
    N = L.progress[0]
    # tokens that contradict the leading transitions are never accepted
    assert not N.accepts(("0:a", "0:a"))  # second token should be 1-tagged
    assert not N.accepts(("1:a", "1:a"))  # second token should be 0-tagged
    assert not N.accepts(("0:a",))        # does not cycle back to state 0
    assert N.accepts(("0:a", "1:a"))      # proper "aa" cycle anchored at 0
    assert N.accepts(("1:a", "0:a"))      # the same loop anchored at 1


# ------------------------------------------------------------ good witness


def expect_witness(F, case, words):
    v = check_regular(F)
    assert v.status == "NotRegular"
    assert not v.ok
    w = v.evidence
    assert isinstance(w, GoodWitness)
    assert (w.case, w.words) == (case, words)
    return w


def profile_path_hits(N, word, tau):
    """Indices i such that the profile of word[:i] equals tau."""
    hits = []
    for i in range(1, len(word) + 1):
        if profile_of(N, word[:i]) == tau:
            hits.append(i)
    return hits


def test_ba_star_not_regular():
    w = expect_witness(ba_star_fdfa(), CASE_DISTINCT_ROOTS,
                       (("0:a", "0:b"), ("0:a",)))
    N = label_by_leading(stabilize(ba_star_fdfa())).progress[0]
    x, u = w.words
    assert root(x) != root(u)
    assert profile_of(N, x) == w.profile
    assert profile_path_hits(N, x, w.profile) == [len(x)]  # first visit
    for k in (1, 2, 3):  # u loops on the profile, so x u^k stays terminal
        assert profile_of(N, x + u * k) == w.profile
    assert classify_profile(N, w.profile).classification == TERMINAL


def test_one_b_some_a_not_regular():
    stem, cycle, tail = expect_witness(
        one_b_some_a_fdfa(), CASE_FIRST_VISITORS,
        (("0:a", "0:a"), ("0:a",), ("0:b",))).words
    N = label_by_leading(stabilize(one_b_some_a_fdfa())).progress[0]
    g = profile_of(N, stem + tail)
    assert classify_profile(N, g).classification == TERMINAL
    for k in range(3):  # pumping the cycle keeps producing first visitors
        word = stem + cycle * k + tail
        assert profile_path_hits(N, word, g) == [len(word)]


def test_exactly_one_a_not_regular():
    expect_witness(exactly_one_a_fdfa(), CASE_DISTINCT_ROOTS,
                   (("0:a",), ("0:b",)))


def test_regular_fixtures():
    fams = all_fixture_families()
    for name in ("odd-a", "eventually-ab"):
        v = check_regular(fams[name])
        assert v.status == "Regular" and v.ok and v.evidence is None, name
    assert check_regular(universal_fdfa("ab")).ok
    assert check_regular(empty_fdfa("ab")).ok


def test_fdwa_short_circuits_to_regular():
    assert check_regular(some_a_fdwa()) == RegularityVerdict("Regular")
    bad = Family(FDWA, odd_a_fdfa().leading, odd_a_fdfa().progress)
    with pytest.raises(InputError):
        check_regular(bad)  # not weak, so not a valid fdwa


def test_cap_exceeded_verdict():
    v = check_regular(one_b_some_a_fdfa(), cap=2)
    assert v.status == "CapExceeded" and v.evidence is None
    N = label_by_leading(stabilize(one_b_some_a_fdfa())).progress[0]
    with pytest.raises(CapExceededError):
        find_good_witness(N, cap=2)
    with pytest.raises(InputError):
        check_regular(one_b_some_a_fdfa(), cap=0)


def test_random_verdicts_match_terminal_root_growth():
    # Infinitely many primitive terminal words show up as growth of the
    # bounded enumeration; finitely many as stagnation.  The windows are
    # generous for the tiny machines sampled here.
    rng = random.Random(12)
    seen = {"Regular": 0, "NotRegular": 0}
    for _ in range(120):
        F = random_family(rng, FDFA, max_leading=1, max_progress=3)
        v = check_regular(F)
        seen[v.status] += 1
        N = label_by_leading(stabilize(F)).progress[0]
        lo, hi = len(brute_ter_roots(N, 8)), len(brute_ter_roots(N, 12))
        if v.status == "NotRegular":
            assert hi > lo
        else:
            assert v.status == "Regular" and hi == lo
    assert seen["NotRegular"] >= 10
    rng = random.Random(13)
    for _ in range(40):
        F = random_family(rng, FDFA, max_leading=2, max_progress=2)
        v = check_regular(F)
        N = label_by_leading(stabilize(F)).progress[0]
        lo, hi = len(brute_ter_roots(N, 5)), len(brute_ter_roots(N, 8))
        assert (hi > lo) == (v.status == "NotRegular")


# ------------------------------------------------------------- enumeration


def test_brute_ter_roots_on_fixtures():
    assert brute_ter_roots(odd_a_fdfa().progress[0], 6) == {("a",)}
    roots = brute_ter_roots(exactly_one_a_fdfa().progress[0], 4)
    assert ("a", "b") in roots  # ab accepted, every higher power rejected
    assert ("a", "b", "a", "b") not in roots
    assert all(root(r) == r for r in roots)
    assert brute_ter_roots(universal_fdfa("ab").progress[0], 5) == set()


def test_brute_ter_roots_grows_on_the_not_regular_fixtures():
    fams = all_fixture_families()
    for name in ("ba-star", "one-b-some-a", "exactly-one-a"):
        N = label_by_leading(stabilize(fams[name])).progress[0]
        assert len(brute_ter_roots(N, 8)) > len(brute_ter_roots(N, 4)) > 0, \
            name


def test_root_lemma():
    # x y^(p-1) is primitive for distinct equal-length words and the first
    # prime p beyond twice their length
    for ell, p in ((1, 3), (2, 5), (3, 7)):
        for x in words_up_to("ab", ell, min_len=ell):
            for y in words_up_to("ab", ell, min_len=ell):
                if x == y:
                    continue
                w = x + y * (p - 1)
                assert root(w) == w, (x, y)


# ---------------------------------------------------------------- hardness


def a_plus():
    return Dfa.from_parts("ab", 3, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1,
                                    (1, "b"): 2, (2, "a"): 2, (2, "b"): 2},
                          accepting=(1,))


def b_plus():
    return Dfa.from_parts("ab", 3, {(0, "b"): 1, (0, "a"): 2, (1, "b"): 1,
                                    (1, "a"): 2, (2, "a"): 2, (2, "b"): 2},
                          accepting=(1,))


def test_hardness_single_automaton_has_growing_roots():
    D = gen_ter_hardness([a_plus()])
    roots4 = brute_ter_roots(D, 4)
    assert ("#", "a") in roots4 and ("#", "a", "a") in roots4
    roots8 = brute_ter_roots(D, 8)
    assert len(roots8) >= 5
    assert len(roots8) > len(roots4)


def test_hardness_empty_intersection_has_no_roots():
    D = gen_ter_hardness([a_plus(), b_plus()])
    assert brute_ter_roots(D, 8) == set()


def test_hardness_language_shape():
    # With inputs [a+, b+] (prime p = 2) a word is accepted iff it is a
    # #-chain that either contains a block failing its automaton or consists
    # of an odd number of blocks all in a+.
    D = gen_ter_hardness([a_plus(), b_plus()])
    assert D.alphabet == ("a", "b", "#")
    langs = [a_plus(), b_plus()]
    for w in words_up_to(D.alphabet, 5):
        if not w or w[0] != "#":
            assert not D.accepts(w), w
            continue
        blocks, cur = [], []
        for t in w[1:]:
            if t == "#":
                blocks.append(tuple(cur))
                cur = []
            else:
                cur.append(t)
        blocks.append(tuple(cur))
        defect = any(not langs[i % 2].accepts(b)
                     for i, b in enumerate(blocks))
        all_first = all(langs[0].accepts(b) for b in blocks)
        want = defect or (all_first and len(blocks) % 2 == 1)
        assert D.accepts(w) == want, w


def test_hardness_input_validation():
    with pytest.raises(InputError):
        gen_ter_hardness([])
    eps = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0}, accepting=(0,))
    with pytest.raises(InputError):
        gen_ter_hardness([eps])  # accepts the empty word
    sharp = Dfa.from_parts(("a", "#"), 2, {(0, "a"): 1, (0, "#"): 1,
                                           (1, "a"): 1, (1, "#"): 1},
                           accepting=(1,))
    with pytest.raises(InputError):
        gen_ter_hardness([sharp])
    with pytest.raises(InputError):
        gen_ter_hardness([a_plus(), Dfa.from_parts("ac", 1, {(0, "a"): 0,
                                                             (0, "c"): 0})])


def sample_dfa(rng):
    n = rng.randint(1, 3)
    delta = {(s, a): rng.randrange(n) for s in range(n) for a in "ab"}
    acc = [s for s in range(1, n) if rng.random() < 0.5]
    return Dfa.from_parts("ab", n, delta, accepting=acc)


def test_hardness_matches_intersection_emptiness():
    rng = random.Random(7)
    nonempty_seen = empty_seen = 0
    for _ in range(200):
        ds = [sample_dfa(rng) for _ in range(rng.randint(1, 2))]
        inter = ds[0]
        for d in ds[1:]:
            inter = intersect_dfa(inter, d)
        nonempty = bool(inter.accepting)
        assert bool(brute_ter_roots(gen_ter_hardness(ds), 8)) == nonempty
        nonempty_seen += nonempty
        empty_seen += not nonempty
    assert nonempty_seen >= 30 and empty_seen >= 30
