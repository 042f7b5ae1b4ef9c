"""Almost-saturation checker and hardness-instance tests.

Expected witnesses were derived with the bounded oracle first and frozen.
"""

import random

import pytest

from upfam.almost import (ALMOST_SATURATED, CAP_EXCEEDED, DEFAULT_CAP,
                          NOT_ALMOST_SATURATED, check_almost_saturated,
                          gen_intersection_fdfa)
from upfam.automata import Dfa, TransitionSystem
from upfam.errors import InputError
from upfam.family import (FDFA, Family, ReferenceSet, family_accepts,
                          is_normalized, trivial_leading)
from upfam.oracle import brute_almost_saturation
from upfam.saturation import check_saturated
from upfam.translate import gen_family
from upfam.words import Representation, words_up_to

from fixtures import (ba_star_fdfa, eventually_ab_fdfa, exactly_one_a_fdfa,
                      odd_a_fdfa, one_b_some_a_fdfa, some_a_fdwa)
from helpers import almost_by_transformations, intersect_dfa, random_family

NORM = ReferenceSet.NORMALIZED


def assert_replays(F, witness):
    u, x, i = witness
    assert i >= 2
    left, right = Representation(u, x), Representation(u, x * i)
    assert is_normalized(F, left) and is_normalized(F, right)
    assert family_accepts(F, left, NORM)
    assert not family_accepts(F, right, NORM)


def a_plus():
    return Dfa.from_parts(
        "ab", 3, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 2,
                  (2, "a"): 2, (2, "b"): 2}, accepting={1})


def b_plus():
    return Dfa.from_parts(
        "ab", 3, {(0, "b"): 1, (0, "a"): 2, (1, "b"): 1, (1, "a"): 2,
                  (2, "a"): 2, (2, "b"): 2}, accepting={1})


def zero_u_zero(n=2):
    """Progress accepting 0 u 0 Sigma^* with |u| = n-1, size n+3."""
    trans = {(0, "0"): 1, (0, "1"): n + 2}
    for i in range(1, n):
        trans[(i, "0")] = i + 1
        trans[(i, "1")] = i + 1
    trans[(n, "0")] = n + 1
    trans[(n, "1")] = n + 2
    for a in "01":
        trans[(n + 1, a)] = n + 1
        trans[(n + 2, a)] = n + 2
    d = Dfa.from_parts("01", n + 3, trans, accepting={n + 1})
    return Family(FDFA, trivial_leading("01"), [d])


def test_fixture_witnesses():
    cases = [
        (ba_star_fdfa(), ((), ("b",), 2)),
        (odd_a_fdfa(), ((), ("a",), 2)),
        (one_b_some_a_fdfa(), ((), ("a", "b"), 2)),
        (exactly_one_a_fdfa(), ((), ("a",), 2)),
    ]
    for F, expected in cases:
        v = check_almost_saturated(F)
        assert v.status == NOT_ALMOST_SATURATED
        assert v.witness == expected
        assert_replays(F, v.witness)


def test_saturated_family_is_almost_saturated():
    assert check_almost_saturated(eventually_ab_fdfa()).ok


def test_zero_u_zero_separates_almost_from_saturated():
    F = zero_u_zero(2)
    assert F.progress[0].n == 5
    assert check_almost_saturated(F).ok
    assert not check_saturated(F).ok


def test_cap_contract():
    with pytest.raises(InputError):
        check_almost_saturated(ba_star_fdfa(), cap=0)
    # a violation reachable inside the budget is still reported
    v = check_almost_saturated(ba_star_fdfa(), cap=3)
    assert v.status == NOT_ALMOST_SATURATED
    # too small to finish a saturated family: distinct verdict, not a pass
    v = check_almost_saturated(eventually_ab_fdfa(), cap=2)
    assert v.status == CAP_EXCEEDED
    assert v.witness is None


def test_kind_validation():
    with pytest.raises(InputError):
        check_almost_saturated(some_a_fdwa())


def mod_counter(n, b_map, accepting):
    """Progress DFA over ab: a counts up modulo n and b maps s to b_map(s);
    accepting one state, it is minimal with n states."""
    trans = {}
    for s in range(n):
        trans[(s, "a")] = (s + 1) % n
        trans[(s, "b")] = b_map(s)
    return Family(FDFA, trivial_leading("ab"),
                  [Dfa.from_parts("ab", n, trans, 0, accepting)])


def counter_under_cycle(n, m, accepting):
    """An n-state mod counter like `mod_counter` (b resets it) as the
    progress DFA of leading state 0 of an m-state cycle on a; the other
    leading states own a one-state DFA."""
    T = TransitionSystem("ab", [[(t + 1) % m, t] for t in range(m)])
    counter = mod_counter(n, lambda s: 0, accepting).progress[0]
    one = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0}, 0, [0])
    return Family(FDFA, T, [counter] + [one] * (m - 1))


def outcome(v):
    return v.status, v.witness


def test_matches_transformation_search_at_every_cap():
    """The byte-string monoid walk gives the reference's (status, witness)
    at caps 1-50 and at the default, so the node count and the exact
    CapExceeded boundary are the reference's."""
    rng = random.Random("almost-differential")
    families = [random_family(rng, FDFA, max_leading=3, max_progress=6)
                for _ in range(150)]
    families += [zero_u_zero(2), eventually_ab_fdfa(), ba_star_fdfa()]
    statuses = set()
    for F in families:
        for cap in list(range(1, 51)) + [DEFAULT_CAP]:
            v = check_almost_saturated(F, cap=cap)
            assert outcome(v) == outcome(almost_by_transformations(F, cap))
            statuses.add(v.status)
    assert len(statuses) == 3


def test_large_progress_automata_take_the_tuple_path():
    """A node holds the minimized progress states and one leading slot,
    so it is a byte string only while D.n + T.n <= 256; the tuple walk
    beyond matches the reference too."""
    saturated = mod_counter(300, lambda s: 0, [0])
    refuted = mod_counter(300, lambda s: 0, [299])
    squares = mod_counter(300, lambda s: s * s % 300, [7])
    assert saturated.progress[0].n == 300
    for F in (saturated, refuted, squares):
        for cap in (1, 300, 598, 599, 600, DEFAULT_CAP):
            v = check_almost_saturated(F, cap=cap)
            assert outcome(v) == outcome(almost_by_transformations(F, cap))
    # 300 rotations and 300 constant maps
    assert check_almost_saturated(saturated, cap=599).status == CAP_EXCEEDED
    assert check_almost_saturated(saturated, cap=600).ok
    assert check_almost_saturated(refuted).witness == ((), ("a",) * 299, 2)
    # not a palindrome: composing the maps in the wrong order shows
    assert check_almost_saturated(squares).witness == (
        (), tuple("aabaaa"), 2)
    # a 250-state counter under a 6-state leading cycle sits on the bound,
    # under a 7-state one just past it; each decides at `count` nodes
    for m, accepting, count in ((6, [0], 2280), (7, [0], 3542),
                                (7, [249], 2500)):
        F = counter_under_cycle(250, m, accepting)
        assert F.progress[0].n + F.leading.n == 250 + m
        for cap in (count - 1, count, count + 1):
            v = check_almost_saturated(F, cap=cap)
            assert outcome(v) == outcome(almost_by_transformations(F, cap))
            assert (v.status == CAP_EXCEEDED) == (cap < count)


@pytest.mark.parametrize("name,n,count", [
    ("fixpoint-alsat", 3, 52), ("fixpoint-alsat", 4, 321),
    ("fixpoint-alsat", 5, 3286), ("syntactic-gap", 4, 1264)])
def test_least_deciding_caps_are_pinned(name, n, count):
    """Absolute node counts, independent of the reference search: each
    family is decided AlmostSaturated at `count` nodes and not one
    fewer."""
    F = gen_family(name, n)
    assert check_almost_saturated(F, cap=count).status == ALMOST_SATURATED
    assert check_almost_saturated(F, cap=count - 1).status == CAP_EXCEEDED


def exact_length(k):
    """Progress over ab accepting exactly the words of length k."""
    return Dfa.from_table(
        "ab", [[s + 1, s + 1] for s in range(k + 1)] + [[k + 1, k + 1]],
        accepting=[k])


def test_walks_after_a_violation_stop_past_its_length():
    """Leading state 0 is refuted by aaa after a few nodes; the 7-state
    group automaton of state 1 (a a 7-cycle, b swapping 0 and 1) has no
    violation, as every power of a permutation fixing 0 fixes 0, but a
    monoid of thousands of nodes; state 2, reached by bb, is refuted by
    aa.  The walk of state 1 stops past length 3, so from cap 25 on the
    witness is the least one, (bb, aa, 2), where an unlimited walk spent
    every cap below 100,000 on state 1 and answered (ε, aaa, 2)."""
    T = TransitionSystem("ab", [[0, 1], [1, 2], [2, 0]])
    group = Dfa.from_table(
        "ab", [[(s + 1) % 7, {0: 1, 1: 0}.get(s, s)] for s in range(7)],
        accepting=[0])
    F = Family(FDFA, T, [exact_length(3), group, exact_length(2)])
    least = (("b", "b"), ("a", "a"), 2)
    expected = {6: None, 7: ((), ("a",) * 3, 2), 24: ((), ("a",) * 3, 2)}
    for cap in (25, 1_000, 10_000, 100_000, 1_000_000, DEFAULT_CAP):
        expected[cap] = least
    for cap, witness in expected.items():
        v = check_almost_saturated(F, cap=cap)
        assert v.witness == witness
        assert v.status == (CAP_EXCEEDED if witness is None
                            else NOT_ALMOST_SATURATED)
        assert outcome(v) == outcome(almost_by_transformations(F, cap))
        if witness is not None:
            assert_replays(F, witness)


def test_agrees_with_oracle_on_random_families():
    rng = random.Random(5)
    positive = 0
    for _ in range(250):
        F = random_family(rng, kind=FDFA, max_leading=2, max_progress=3)
        v = check_almost_saturated(F)
        found = brute_almost_saturation(F, 6, 4)
        assert v.status != CAP_EXCEEDED
        if v.ok:
            assert found is None
        else:
            assert_replays(F, v.witness)
            positive += 1
        if found is not None:
            assert not v.ok
    assert positive > 30


def test_intersection_instance_examples():
    G = gen_intersection_fdfa([a_plus(), a_plus()])
    v = check_almost_saturated(G)
    assert v.status == NOT_ALMOST_SATURATED
    assert v.witness == ((), ("#", "a"), 2)
    assert_replays(G, v.witness)

    assert check_almost_saturated(gen_intersection_fdfa(
        [a_plus(), b_plus()])).ok

    # a single DFA is padded with a nonempty-universal one to p = 2
    v = check_almost_saturated(gen_intersection_fdfa([a_plus()]))
    assert v.status == NOT_ALMOST_SATURATED


def test_intersection_instance_shape():
    dfas = [a_plus(), b_plus()]
    G = gen_intersection_fdfa(dfas)
    assert G.kind == FDFA
    assert G.leading.n == 1
    assert G.alphabet == ("a", "b", "#")
    assert G.progress[0].n <= 2 + sum(d.n for d in dfas)
    # three inputs pad to p = 5 with two 2-state universal blocks
    G5 = gen_intersection_fdfa([a_plus(), a_plus(), a_plus()])
    assert G5.progress[0].n <= 2 + 3 * a_plus().n + 2 * 2


def test_intersection_instance_rejects_exactly_the_chain_words():
    prog = gen_intersection_fdfa([a_plus(), a_plus()]).progress[0]
    for w in words_up_to(("a", "b", "#"), 6, min_len=1):
        chain = False
        if w[0] == "#" and w.count("#") == 2:
            second = w.index("#", 1)
            u1, u2 = w[1:second], w[second + 1:]
            chain = (len(u1) > 0 and len(u2) > 0
                     and set(u1) == {"a"} and set(u2) == {"a"})
        assert prog.accepts(w) == (not chain), w
    assert not prog.accepts(())


def test_intersection_input_validation():
    with pytest.raises(InputError):
        gen_intersection_fdfa([])
    eps = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0}, accepting={0})
    with pytest.raises(InputError):
        gen_intersection_fdfa([eps])
    hashy = Dfa.from_parts("a#", 1, {(0, "a"): 0, (0, "#"): 0})
    with pytest.raises(InputError):
        gen_intersection_fdfa([hashy])
    uni = Dfa.from_parts("abc", 1, {(0, c): 0 for c in "abc"})
    with pytest.raises(InputError):
        gen_intersection_fdfa([a_plus(), uni])


def sample_dfa(rng):
    """Uniform small DFA over ab with a non-accepting initial state."""
    n = rng.randint(1, 3)
    trans = {(s, a): rng.randrange(n) for s in range(n) for a in "ab"}
    acc = {s for s in range(1, n) if rng.random() < 0.5}
    return Dfa.from_parts("ab", n, trans, 0, acc)


def test_hardness_matches_product_emptiness():
    rng = random.Random(3)
    nonempty_seen = empty_seen = 0
    for _ in range(200):
        dfas = [sample_dfa(rng) for _ in range(rng.randint(1, 2))]
        inter = dfas[0]
        for d in dfas[1:]:
            inter = intersect_dfa(inter, d)
        nonempty = bool(inter.accepting)
        v = check_almost_saturated(gen_intersection_fdfa(dfas))
        assert v.status != CAP_EXCEEDED
        assert (v.status == NOT_ALMOST_SATURATED) == nonempty
        if nonempty:
            assert_replays(gen_intersection_fdfa(dfas), v.witness)
            nonempty_seen += 1
        else:
            empty_seen += 1
    assert nonempty_seen >= 30 and empty_seen >= 30
