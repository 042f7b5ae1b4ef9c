"""Regularity decision tests.

Verdicts and witness words below were derived by hand on the profile graphs
of the small fixtures and double-checked against the primitive-terminal-word
enumeration before being frozen.
"""

import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upfam import regularity
from upfam.almost import check_almost_saturated
from upfam.automata import Dfa, Nfa
from upfam.errors import CapExceededError, InputError, Verdict
from upfam.faf import parse_faf
from upfam.family import (FDFA, FDWA, FNFA, Family, ReferenceSet,
                          family_accepts, trivial_leading)
from upfam.regularity import (CASE_DISTINCT_ROOTS, CASE_FIRST_VISITORS,
                              DEFAULT_PROFILE_CAP, TERMINAL, GoodWitness,
                              _least_words, _profile_graph, check_regular,
                              find_good_witness, gen_ter_hardness,
                              label_by_leading, stabilize)
from upfam.translate import gen_family
from upfam.words import Representation, root

from fixtures import (all_fixture_families, ba_star_fdfa, empty_fdfa,
                      exactly_one_a_fdfa, mod2_leading, odd_a_fdfa,
                      one_b_some_a_fdfa, some_a_fdwa, universal_fdfa)
from helpers import (as_nfa, brute_ter_roots, classify, classify_by_powers,
                     co_reachable, compose, first_profiles, intersect_dfa,
                     least_words_by_enumeration,
                     profile_graph_by_composition, profile_of, random_dfa,
                     random_family, random_nfa, words_up_to)

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
    N = as_nfa(odd_a_fdfa().progress[0])
    with pytest.raises(InputError):
        profile_of(N, ())


def test_profile_composition_is_a_homomorphism():
    N = as_nfa(exactly_one_a_fdfa().progress[0])
    words = list(words_up_to("ab", 3, min_len=1))
    for x in words:
        for y in words:
            assert profile_of(N, x + y) == \
                compose(profile_of(N, x), profile_of(N, y))


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
        compose(profile_of(N, xs), profile_of(N, ys))


def test_profile_images():
    N = as_nfa(odd_a_fdfa().progress[0])
    tau = profile_of(N, "a")
    assert tau == (0b10, 0b01)  # a swaps the two states
    assert compose(tau, tau) == (0b01, 0b10)


def test_classify_odd_a():
    N = as_nfa(odd_a_fdfa().progress[0])
    tau = profile_of(N, "a")
    assert classify(N, tau) == TERMINAL
    assert classify_by_powers(N, tau) == (TERMINAL, 2)  # aa never accepted
    assert classify(N, profile_of(N, "aa")) == "Rejecting"
    with pytest.raises(InputError):
        classify(N, (0b10,))  # one mask for two states


def test_classify_exactly_one_a():
    N = as_nfa(exactly_one_a_fdfa().progress[0])
    assert classify(N, profile_of(N, "abab")) == "Rejecting"
    tau = profile_of(N, "ab")
    assert classify(N, tau) == TERMINAL
    assert classify_by_powers(N, tau) == (TERMINAL, 2)
    # no power of b ever sees an a, so its profile is rejecting outright
    assert classify(N, profile_of(N, "b")) == "Rejecting"


def test_classify_universal_progress_never_terminal():
    N = as_nfa(universal_fdfa("ab").progress[0])
    for x in words_up_to("ab", 3, min_len=1):
        assert classify(N, profile_of(N, x)) == "Accepting"


def _permutation_dfa(rng, n):
    """A DFA on which a permutes every state and b permutes or maps them,
    so that powers of a profile have long periods."""
    perm = list(range(n))
    rng.shuffle(perm)
    other = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(other)
    else:
        other = [rng.randrange(n) for _ in range(n)]
    acc = [s for s in range(n) if rng.random() < 0.4]
    return Dfa("ab", [[perm[s], other[s]] for s in range(n)], acc)


def test_orbit_classifier_matches_matrix_powers():
    rng = random.Random(2024)
    seen = {}
    for k in range(4000):
        kind = k % 4
        if kind == 0:
            N = as_nfa(random_dfa(rng, "ab", 6))
        elif kind == 1:
            N = random_nfa(rng, "ab", 6)
        else:
            N = as_nfa(_permutation_dfa(rng, rng.randint(2, 12)))
        if rng.random() < 0.25:  # any relation, not only a word's
            tau = tuple(rng.getrandbits(N.n) for _ in range(N.n))
        else:
            x = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            tau = profile_of(N, x)
        c, power = classify_by_powers(N, tau)
        assert classify(N, tau) == c, (N.delta, tau)
        seen[c] = max(seen.get(c, 0), power or 0)
    assert seen.keys() == {"Accepting", "Rejecting", TERMINAL}
    assert seen[TERMINAL] >= 6


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
    w = v.witness
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
    tau = profile_of(N, x)
    assert profile_path_hits(N, x, tau) == [len(x)]  # first visit
    for k in (1, 2, 3):  # u loops on the profile, so x u^k stays terminal
        assert profile_of(N, x + u * k) == tau
    assert classify(N, tau) == TERMINAL


def test_one_b_some_a_not_regular():
    stem, cycle, tail = expect_witness(
        one_b_some_a_fdfa(), CASE_FIRST_VISITORS,
        (("0:a", "0:a"), ("0:a",), ("0:b",))).words
    N = label_by_leading(stabilize(one_b_some_a_fdfa())).progress[0]
    g = profile_of(N, stem + tail)
    assert classify(N, g) == TERMINAL
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
        assert v.status == "Regular" and v.ok and v.witness is None, name
    assert check_regular(universal_fdfa("ab")).ok
    assert check_regular(empty_fdfa("ab")).ok


def test_fdwa_short_circuits_to_regular():
    assert check_regular(some_a_fdwa()) == Verdict("Regular")
    bad = Family(FDWA, odd_a_fdfa().leading, odd_a_fdfa().progress)
    with pytest.raises(InputError):
        check_regular(bad)  # not weak, so not a valid fdwa


def test_cap_exceeded_verdict():
    v = check_regular(one_b_some_a_fdfa(), cap=2)
    assert v.status == "CapExceeded" and v.witness is None
    N = label_by_leading(stabilize(one_b_some_a_fdfa())).progress[0]
    with pytest.raises(CapExceededError):
        find_good_witness(N, cap=2)
    with pytest.raises(InputError):
        check_regular(one_b_some_a_fdfa(), cap=0)


def test_cap_counts_profiles_not_orbit_steps():
    # a cycles 0 -> 1 -> 2 -> 0, b = a^2 and c is the identity, so the three
    # one-letter profiles already form the whole monoid, and the cap, which
    # does not count them, never fires.  Classifying a walks an orbit of
    # three values, which the cap does not bound either.
    N = as_nfa(Dfa("abc", [[1, 2, 0], [2, 0, 1], [0, 1, 2]], [0]))
    for cap in (1, 2, 3, 4):
        assert find_good_witness(N, cap=cap) is None
    assert classify(N, profile_of(N, "a")) == "Accepting"


def test_no_symbols_no_profiles():
    # The empty word has no profile, so there is nothing to search.
    N = as_nfa(Dfa((), [()], [0]))
    assert profile_graph(N, 1) == ([], [], [])
    assert find_good_witness(N, cap=1) is None


def profile_graph(N, cap):
    """(profiles, succ, letters) of _profile_graph, each profile as the
    tuple of its masks."""
    space, succ, keys, letters = _profile_graph(N, cap)
    return [space.rows(key) for key in keys], succ, letters


def _graph_or_capped(explore, N, cap):
    try:
        return explore(N, cap)
    except CapExceededError:
        return "capped"


def _profiles_and_successors(N, cap):
    return profile_graph(N, cap)[:2]


def test_profile_graph_matches_plain_composition():
    # The outcome at a cap below the graph size is the outcome at size - 1:
    # a smaller cap can only raise earlier.  It is "capped" unless every
    # profile is a one-letter profile, which the cap does not count.
    rng = random.Random("profile-graph")
    nfas = [random_nfa(rng, "ab", 4) for _ in range(300)]
    nfas += [label_by_leading(stabilize(random_family(
        rng, FDFA, max_leading=2, max_progress=2))).progress[0]
        for _ in range(250)]
    capped = 0
    for N in nfas:
        graph = profile_graph_by_composition(N, DEFAULT_PROFILE_CAP)
        size = len(graph[0])
        below = _graph_or_capped(profile_graph_by_composition, N, size - 1)
        capped += below == "capped"
        for cap in range(1, size + 1):
            expected = graph if cap == size else below
            assert _graph_or_capped(_profiles_and_successors, N,
                                    cap) == expected
        profiles, _, letters = profile_graph(N, size)
        assert [profiles[v] for v in letters] == [profile_of(N, (a,))
                                                  for a in N.alphabet]
    assert capped >= 300


def test_nfas_of_at_most_one_state_match_plain_composition():
    # A profile of one state is a key of one row id, and itemgetter of a
    # single index returns the item, not a tuple, so these take their own
    # getter.  Every choice of transitions, initial and accepting states.
    nfas = [Nfa("ab", 0, {}, [], [])]
    for ta, tb, init, acc in itertools.product(([], [0]), repeat=4):
        nfas.append(Nfa("ab", 1, {(0, "a"): ta, (0, "b"): tb}, init, acc))
    for N in nfas:
        size = len(profile_graph_by_composition(N, DEFAULT_PROFILE_CAP)[0])
        for cap in range(1, size + 2):
            assert (_graph_or_capped(_profiles_and_successors, N, cap)
                    == _graph_or_capped(profile_graph_by_composition, N,
                                        cap))
        profiles, _, letters = profile_graph(N, size)
        assert [profiles[v] for v in letters] == [profile_of(N, (a,))
                                                  for a in "ab"]
        assert all(type(m) is tuple and len(m) == N.n for m in profiles)


def test_zero_u_zero_profile_graph_is_pinned():
    # The numbers the module docstring quotes: the labelled NFA of
    # zero-u-zero-fdfa n=5 has 91 states, and its 7,726 profiles hold 568
    # distinct rows.
    N = label_by_leading(stabilize(gen_family("zero-u-zero-fdfa",
                                              5))).progress[0]
    space, _, keys, _ = _profile_graph(N, 7726)
    assert (N.n, len(keys)) == (91, 7726)
    assert len({row for key in keys for row in space.rows(key)}) == 568
    assert len(space.masks) == 568  # no row outside the profiles
    with pytest.raises(CapExceededError):
        _profile_graph(N, 7725)


CAPPED_284 = Path(__file__).parent / "files" / "capped_3x7_284.faf"


def test_row_images_stay_inside_the_cap(monkeypatch):
    # capped_3x7_284.faf labels to a 50-state NFA whose profile graph
    # exceeds every cap here; its rows close to 465 distinct rows.  The
    # graph computes the image of a row once per symbol, and only for rows
    # of profiles it numbered before the cap fired, so the row work stays
    # within what the cap admits.  Closing the row set under the symbols
    # would compute images of rows that no numbered profile holds.
    N = label_by_leading(stabilize(parse_faf(
        CAPPED_284.read_text()))).progress[0]
    sources = []
    apply = regularity._apply

    def counting(masks, source):
        sources.append(source)
        return apply(masks, source)

    monkeypatch.setattr(regularity, "_apply", counting)
    for cap in (50, 200, 1000):
        sources.clear()
        with pytest.raises(CapExceededError):
            _profile_graph(N, cap)
        rows = {row for m in first_profiles(N, cap) for row in m}
        assert set(sources) <= rows
        assert len(sources) == len(N.alphabet) * len(set(sources))


def test_least_words_match_enumeration():
    # The search gives each node at most k entries, so if k admissible
    # words exist, the k least are at most k * n letters long.  Where the
    # enumeration reaches that length the comparison is complete; below
    # it, the words the search returns up to the bound must still be the
    # enumeration's.  Entries made only at the nodes that can reach the
    # target must give the same words as entries at every node.
    rng = random.Random("least-words")
    complete = found = 0
    for i in range(600):
        n, nsym, k = rng.randint(1, 8), rng.randint(1, 3), 1 + i % 3
        succ = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
        starts = [rng.randrange(n) for _ in range(nsym)]
        target = rng.randrange(n)
        avoid = None if i % 2 else rng.randrange(n)
        max_len = min(k * n, {1: 24, 2: 11, 3: 7}[nsym])
        got = _least_words(starts, target, succ, k, set(range(n)) - {avoid})
        assert _least_words(starts, target, succ, k,
                            co_reachable(succ, target, avoid)) == got, i
        want = least_words_by_enumeration(starts, target, succ, k, avoid,
                                          max_len)
        assert [w for w in got if len(w) <= max_len] == want, i
        assert got == sorted(got, key=lambda w: (len(w), w)) and \
            len(got) <= k, i
        complete += max_len == k * n
        found += len(got) == k
    assert complete >= 400 and found >= 250


FILES = Path(__file__).parent / "files"


def labelled(name):
    return label_by_leading(stabilize(parse_faf(
        (FILES / name).read_text()))).progress[0]


@pytest.mark.parametrize("name, case, terminals, nth", [
    ("rand_2x5_0755.faf", CASE_DISTINCT_ROOTS, 248, 7),
    ("rand_2x5_0686.faf", CASE_FIRST_VISITORS, 41, 10),
])
def test_classification_stops_at_the_witness(monkeypatch, name, case,
                                             terminals, nth):
    # The witness comes from the nth terminal profile g in discovery
    # order, and g is the last profile classified.  g is the profile of
    # x for DistinctRoots and of stem tail for InfinitelyManyFirstVisitors.
    N = labelled(name)
    profiles, succ, letters = profile_graph(N, DEFAULT_PROFILE_CAP)
    terminal = [i for i, m in enumerate(profiles)
                if classify_by_powers(N, m)[0] == TERMINAL]
    calls = count_calls(monkeypatch, "classify_profile")
    w = find_good_witness(N)
    assert w.case == case and len(terminal) == terminals
    word = w.words[0] + (w.words[2] if case == CASE_FIRST_VISITORS else ())
    g = letters[N.alphabet.index(word[0])]
    for a in word[1:]:
        g = succ[g][N.alphabet.index(a)]
    assert g == terminal[nth - 1]
    assert len(calls) == g + 1 < len(profiles)


def test_regular_input_classifies_every_profile_once(monkeypatch):
    N = labelled("odd_a.faf")
    calls = count_calls(monkeypatch, "classify_profile")
    assert find_good_witness(N) is None
    assert len(calls) == len(_profile_graph(N, DEFAULT_PROFILE_CAP)[2])


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


def _pinned_families(name):
    """The ladder `name` at its pinned sizes, or 120 seeded random FDFAs."""
    if name == "random":
        rng = random.Random("regularity-pin")
        return [random_family(rng, FDFA, max_leading=2, max_progress=4)
                for _ in range(120)]
    sizes = {"zero-u-zero-fdfa": (3, 4), "syntactic-gap": (1, 2)}[name]
    return [gen_family(name, n) for n in sizes]


# sha256 of the (status, case, words) reprs of check_regular at cap 8000 on
# each family in turn, recorded when profiles were classified by their
# matrix powers.  Profile masks are left out: they depend on how the
# labelled NFA numbers its states.
REGULARITY_DIGESTS = {
    "random":
    "39cfccd8c73f0c4399825bd9fb3e65e83cbf4a7d79b07525ac1988e5ec88160b",
    "syntactic-gap":
    "a6b9382f26012c22f0736c86483bbf320216ad365fc7f9344871b6b471187620",
    "zero-u-zero-fdfa":
    "a6b9382f26012c22f0736c86483bbf320216ad365fc7f9344871b6b471187620",
}


@pytest.mark.parametrize("name", sorted(REGULARITY_DIGESTS))
def test_regularity_outcomes_are_pinned(name):
    digest = hashlib.sha256()
    for F in _pinned_families(name):
        v = check_regular(F, cap=8000)
        w = v.witness
        digest.update(repr((v.status, w and w.case, w and w.words)).encode())
    assert digest.hexdigest() == REGULARITY_DIGESTS[name]


@pytest.mark.parametrize("name, n", [("syntactic-gap", 3),
                                     ("zero-u-zero-fdfa", 6)])
def test_large_ladders_are_regular(name, n):
    F = gen_family(name, n)
    assert check_regular(F) == Verdict("Regular")
    # check_regular answers these almost-saturated ladders without the
    # profile graph, so the profile analysis runs on them here.
    assert find_good_witness(label_by_leading(stabilize(F)).progress[0]) \
        is None


# ------------------------------------------------ almost-saturation short-cut


def profile_path(F, cap=DEFAULT_PROFILE_CAP):
    """The verdict of the profile analysis alone, as check_regular gives it
    when the almost-saturation short-cut does not answer."""
    try:
        w = find_good_witness(label_by_leading(stabilize(F)).progress[0], cap)
    except CapExceededError:
        return Verdict("CapExceeded")
    return Verdict("Regular") if w is None else Verdict("NotRegular", w)


def count_calls(monkeypatch, name):
    """Wrap regularity.<name> so that each call appends to the returned
    list."""
    calls = []
    real = getattr(regularity, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(regularity, name, counted)
    return calls


def refuse(*args, **kwargs):
    raise AssertionError("this route must not be taken")


def test_almost_saturated_families_have_no_witness():
    # The short-cut is sound only if the profile analysis finds nothing on
    # an almost-saturated FDFA.  It runs here on the stages themselves, not
    # through check_regular, so the short-cut cannot hide a counterexample.
    rng = random.Random("almost-saturated-gate")
    almost = 0
    for i in range(1000):
        F = random_family(rng, FDFA, alphabet=("ab", "abc")[i % 2],
                          max_leading=3, max_progress=3)
        if check_almost_saturated(F).status != "AlmostSaturated":
            continue
        almost += 1
        N = label_by_leading(stabilize(F)).progress[0]
        assert find_good_witness(N) is None, i
    assert almost >= 600


@pytest.mark.parametrize("name, n", [("zero-u-zero-fdfa", 8),
                                     ("syntactic-gap", 5)])
def test_almost_saturated_fdfa_skips_the_profile_graph(monkeypatch, name, n):
    monkeypatch.setattr(regularity, "stabilize", refuse)
    assert check_regular(gen_family(name, n)) == Verdict("Regular")


@pytest.mark.parametrize("make, case, words", [
    (ba_star_fdfa, CASE_DISTINCT_ROOTS, (("0:a", "0:b"), ("0:a",))),
    (one_b_some_a_fdfa, CASE_FIRST_VISITORS,
     (("0:a", "0:a"), ("0:a",), ("0:b",))),
])
def test_other_fdfas_take_the_profile_path(monkeypatch, make, case, words):
    assert check_almost_saturated(make()).status == "NotAlmostSaturated"
    calls = count_calls(monkeypatch, "find_good_witness")
    expect_witness(make(), case, words)
    assert calls == ["find_good_witness"]


def test_fnfa_and_fdwa_skip_the_almost_saturation_check(monkeypatch):
    F = ba_star_fdfa()
    N = Family(FNFA, F.leading, [as_nfa(d) for d in F.progress])
    with pytest.raises(InputError):
        check_almost_saturated(N)
    monkeypatch.setattr(regularity, "check_almost_saturated", refuse)
    v = check_regular(N)
    assert (v.status, v.witness.case, v.witness.words) == (
        "NotRegular", CASE_DISTINCT_ROOTS, (("0:a", "0:b"), ("0:a",)))
    assert check_regular(some_a_fdwa()) == Verdict("Regular")


def test_capped_walk_gets_the_profile_verdict(monkeypatch):
    # Accepts only the empty loop, so no pair at all: the walk meets two
    # nodes, the two states of the minimal progress DFA, and both letters
    # have one profile, which the cap of the profile graph does not count.
    F = Family(FDFA, trivial_leading("ab"), [Dfa("ab", [[1, 1], [1, 1]],
                                                 [0])])
    assert check_almost_saturated(F, cap=1).status == "CapExceeded"
    assert check_almost_saturated(F, cap=2).status == "AlmostSaturated"
    calls = count_calls(monkeypatch, "stabilize")
    assert check_regular(F, cap=1) == Verdict("Regular")
    assert calls == ["stabilize"]
    assert profile_path(F, cap=1) == Verdict("Regular")
    # syntactic-gap n=3 is almost saturated: its walk meets 144 nodes, its
    # profile graph holds 1,623 profiles.
    G = gen_family("syntactic-gap", 3)
    assert check_almost_saturated(G, cap=143).status == "CapExceeded"
    assert check_regular(G, cap=143) == profile_path(G, cap=143) \
        == Verdict("CapExceeded")
    # A walk within the cap decides where the profile graph alone cannot.
    assert check_regular(G, cap=144) == Verdict("Regular")
    assert profile_path(G, cap=144) == Verdict("CapExceeded")


# ------------------------------------------------------------- enumeration


def test_brute_ter_roots_on_fixtures():
    assert brute_ter_roots(as_nfa(odd_a_fdfa().progress[0]), 6) == {("a",)}
    roots = brute_ter_roots(as_nfa(exactly_one_a_fdfa().progress[0]), 4)
    assert ("a", "b") in roots  # ab accepted, every higher power rejected
    assert ("a", "b", "a", "b") not in roots
    assert all(root(r) == r for r in roots)
    assert brute_ter_roots(as_nfa(universal_fdfa("ab").progress[0]), 5) == \
        set()


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
    D = as_nfa(gen_ter_hardness([a_plus()]))
    roots4 = brute_ter_roots(D, 4)
    assert ("#", "a") in roots4 and ("#", "a", "a") in roots4
    roots8 = brute_ter_roots(D, 8)
    assert len(roots8) >= 5
    assert len(roots8) > len(roots4)


def test_hardness_empty_intersection_has_no_roots():
    D = as_nfa(gen_ter_hardness([a_plus(), b_plus()]))
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
        D = as_nfa(gen_ter_hardness(ds))
        assert bool(brute_ter_roots(D, 8)) == nonempty
        nonempty_seen += nonempty
        empty_seen += not nonempty
    assert nonempty_seen >= 30 and empty_seen >= 30
