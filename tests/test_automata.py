import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_weak, random_dfa
from upfam.automata import (Dfa, Nfa, TransitionSystem, combine_dfa,
                            complement_dfa, dfa_equivalent, dfa_sccs,
                            intersect_dfa, is_weak, llex_bfs, minimize_dfa,
                            weak_loop_accepts)
from upfam.errors import InputError
from upfam.words import as_word, words_up_to


def ba_star_dfa():
    return Dfa.from_parts(
        "ab", 3,
        {(0, "b"): 1, (0, "a"): 2, (1, "a"): 1, (1, "b"): 2,
         (2, "a"): 2, (2, "b"): 2},
        accepting={1})


def test_run_and_after():
    d = ba_star_dfa()
    assert d.run("") == d.initial == 0
    assert d.run("ba") in d.accepting
    assert d.accepts("ba") and d.accepts("b") and d.accepts("baaa")
    assert not d.accepts("ab") and not d.accepts("")


def test_run_rejects_unknown_symbol():
    d = ba_star_dfa()
    with pytest.raises(InputError):
        d.run("bc")


def test_canonical_numbering_and_access_words():
    d = ba_star_dfa()
    # BFS in alphabet order: state 0 first, then its a-successor, then b
    assert d.access_word(0) == ()
    assert d.access_word(1) == ("a",)
    assert d.access_word(2) == ("b",)
    assert d.accepting == {2}


def test_completion_adds_sink():
    d = Dfa.from_parts("ab", 1, {(0, "a"): 0}, accepting={0})
    assert d.n == 2  # sink appended for the missing b-edge
    assert d.accepts("aaa") and not d.accepts("ab")
    assert not d.accepts("aba")


def test_unreachable_states_dropped():
    d = Dfa.from_parts("a", 3, {(0, "a"): 0, (1, "a"): 2, (2, "a"): 1},
                       accepting={0, 2})
    assert d.n == 1
    assert d.accepting == {0}


def test_minimize_merges_duplicate_accepting_state():
    # b a* with the accepting state split in two
    d = Dfa.from_parts(
        "ab", 4,
        {(0, "b"): 1, (0, "a"): 3, (1, "a"): 2, (1, "b"): 3,
         (2, "a"): 1, (2, "b"): 3, (3, "a"): 3, (3, "b"): 3},
        accepting={1, 2})
    m = minimize_dfa(d)
    assert m.n == 3
    assert m == minimize_dfa(ba_star_dfa())


def test_minimize_already_minimal():
    d = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0}, accepting={1})
    assert minimize_dfa(d) == d


def test_minimize_empty_language_collapses():
    d = Dfa.from_parts("a", 4, {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3,
                                (3, "a"): 3})
    m = minimize_dfa(d)
    assert m.n == 1 and not m.accepting


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_minimize_preserves_language(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, "ab", 6)
    m = minimize_dfa(d)
    assert m.n <= d.n
    for w in words_up_to("ab", 7):
        assert d.accepts(w) == m.accepts(w)
    # canonical form is a fixpoint
    assert minimize_dfa(m) == m


def test_structural_equality_is_isomorphism():
    d1 = Dfa.from_parts("ab", 2, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1,
                                  (1, "b"): 0}, accepting={1})
    # same machine with states swapped
    d2 = Dfa.from_parts("ab", 2, {(1, "a"): 0, (1, "b"): 1, (0, "a"): 0,
                                  (0, "b"): 1}, initial=1, accepting={0})
    assert d1 == d2


def test_combine_and_complement():
    aplus = Dfa.from_parts("ab", 2, {(0, "a"): 1, (1, "a"): 1},
                           accepting={1})
    bplus = Dfa.from_parts("ab", 2, {(0, "b"): 1, (1, "b"): 1},
                           accepting={1})
    inter = intersect_dfa(aplus, bplus)
    assert inter.is_empty()
    union = combine_dfa(aplus, bplus, lambda x, y: x or y)
    assert union.accepts("aa") and union.accepts("b") and \
        not union.accepts("ab")
    assert dfa_equivalent(complement_dfa(complement_dfa(aplus)), aplus)
    assert not dfa_equivalent(aplus, bplus)


def test_scc_and_weakness():
    d = ba_star_dfa()
    comps = {frozenset(c) for c in dfa_sccs(d)}
    assert frozenset([0]) in comps  # transient initial state
    assert is_weak(d)
    mixed = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0},
                           accepting={1})
    assert not is_weak(mixed)  # 2-cycle with one accepting state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_make_weak_produces_weak(seed):
    rng = random.Random(seed)
    assert is_weak(make_weak(rng, random_dfa(rng, "ab", 5)))


def test_weak_loop_accepts():
    universal = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0},
                               accepting={0})
    assert weak_loop_accepts(universal, as_word("ab"))
    dead = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0})
    assert not weak_loop_accepts(dead, as_word("b"))
    with pytest.raises(InputError):
        weak_loop_accepts(universal, ())


def test_weak_loop_power_invariance():
    rng = random.Random(7)
    for _ in range(50):
        d = make_weak(rng, random_dfa(rng, "ab", 5))
        for x in ["a", "ab", "ba", "abb"]:
            w = as_word(x)
            base = weak_loop_accepts(d, w)
            for k in range(2, 5):
                assert weak_loop_accepts(d, w * k) == base


def _least_words_by_brute_force(root, successors, nsym, min_len, max_len):
    """Llex-least word of length min_len..max_len reaching each node."""
    least = {}
    for w in words_up_to(range(nsym), max_len, min_len):
        node = root
        for si in w:
            node = successors(node)[si]
            if node is None:
                break
        if node is not None and node not in least:
            least[node] = w
    return least


@pytest.mark.parametrize("nonempty", [False, True])
@pytest.mark.parametrize("seed", range(12))
def test_llex_bfs_matches_brute_force(seed, nonempty):
    """One DFA over abc (even seeds) or a product of two DFAs over ab (odd
    seeds), with about a fifth of the edges blocked."""
    rng = random.Random(seed)
    if seed % 2:
        A, B = (random_dfa(rng, "ab", 3, total=False) for _ in range(2))
        nodes = list(product(range(A.n), range(B.n)))
        root = (A.initial, B.initial)
        edges = lambda n: zip(A.delta[n[0]], B.delta[n[1]])
    else:
        A = random_dfa(rng, "abc", 6, total=False)
        nodes = list(range(A.n))
        root = A.initial
        edges = lambda n: A.delta[n]
    nsym = len(A.alphabet)
    blocked = {(n, si) for n in nodes for si in range(nsym)
               if rng.random() < 0.2}

    def successors(n):
        return [None if (n, si) in blocked else t
                for si, t in enumerate(edges(n))]

    if nonempty:
        starts = [(t, (si,)) for si, t in enumerate(successors(root))
                  if t is not None]
    else:
        starts = [(root, ())]
    found = list(llex_bfs(starts, successors))
    least = _least_words_by_brute_force(root, successors, nsym,
                                        int(nonempty), len(nodes))
    assert len({n for n, _ in found}) == len(found)
    assert dict(found) == least
    keys = [(len(w), w) for _, w in found]
    assert keys == sorted(keys)


def test_nfa_basics():
    # (a|b)*a — nondeterministic guess of the final a
    n = Nfa("ab", 2, {(0, "a"): [0, 1], (0, "b"): [0]}, [0], [1])
    assert n.accepts("a") and n.accepts("bba") and not n.accepts("ab")
    assert not n.accepts("")
    t = n.trim()
    assert t.n == 2 and t.accepts("ba")


def test_nfa_trim_drops_unreachable():
    n = Nfa("a", 3, {(0, "a"): [0], (2, "a"): [1]}, [0], [1])
    t = n.trim()
    assert t.n == 1 and not t.accepting


def test_transition_system_from_parts_validation():
    with pytest.raises(InputError):
        TransitionSystem.from_parts("a", 1, {(0, "b"): 0})
    with pytest.raises(InputError):
        TransitionSystem.from_parts("a", 1, {(0, "a"): 5})
    with pytest.raises(InputError):
        TransitionSystem.from_parts("aa", 1, {})  # duplicate symbol
