"""Saturation checker tests.

Expected witnesses were derived independently with the bounded oracle and
by hand-simulating the progress automata, then frozen here.
"""

import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from test_cli import run
from upfam import saturation
from upfam.automata import Dfa, TransitionSystem, minimize_dfa, orbit
from upfam.errors import InputError
from upfam.faf import parse_faf, serialize_faf
from upfam.family import (FDFA, FDWA, Family, ReferenceSet, family_accepts,
                          refine_family)
from upfam.oracle import brute_saturation
from upfam.saturation import (STAGE_FDWA, STAGE_LOOPSHIFT, STAGE_POWER,
                              check_fdwa_saturated, check_loopshift_stable,
                              check_power_stable, check_saturated)
from upfam.translate import gen_family
from upfam.words import Representation, up_equal, words_up_to

from fixtures import (all_fixture_families, ba_star_fdfa, eventually_ab_fdfa,
                      exactly_one_a_fdfa, first_a_fdwa, odd_a_fdfa,
                      some_a_fdwa, universal_fdfa)
from helpers import (displacement_map, least_fdwa_witness_by_symbol,
                     loopshift_on_refined, make_weak, padded,
                     power_on_refined, random_family, random_ts,
                     saturation_on_minimized)

NORM = ReferenceSet.NORMALIZED
ALL = ReferenceSet.ALL


def rep_pair(cx):
    return ((cx.left.u, cx.left.x), (cx.right.u, cx.right.x))


def assert_replays(F, cx, ref):
    """A reported counterexample must be two representations of one word
    whose recorded acceptance bits match the family and disagree."""
    assert up_equal(cx.left, cx.right)
    assert family_accepts(F, cx.left, ref) == cx.left_accepted
    assert family_accepts(F, cx.right, ref) == cx.right_accepted
    assert cx.left_accepted != cx.right_accepted


def test_ba_star_loopshift_witness():
    v = check_saturated(ba_star_fdfa(), ReferenceSet.NORMALIZED)
    assert v.status == "NotSaturated"
    assert v.stage == STAGE_LOOPSHIFT
    cx = v.witness
    assert cx.variant == "loopshift"
    assert rep_pair(cx) == (((), ("b", "a")), (("b",), ("a", "b")))
    assert cx.left_accepted and not cx.right_accepted
    assert_replays(ba_star_fdfa(), cx, NORM)


def test_odd_a_power_witness():
    v = check_saturated(odd_a_fdfa(), ReferenceSet.NORMALIZED)
    assert v.status == "NotSaturated"
    assert v.stage == STAGE_POWER
    cx = v.witness
    assert cx.variant == "power"
    assert rep_pair(cx) == (((), ("a",)), ((), ("a", "a")))
    assert cx.left_accepted and not cx.right_accepted
    assert_replays(odd_a_fdfa(), cx, NORM)


def test_power_stage_stops_at_the_least_witness(monkeypatch):
    """The one-letter loop a flips at leading state 0 (odd numbers of a),
    so the power stage follows that one orbit and stops: it walks no node
    of the 40-state progress automaton of leading state 1, nor any longer
    loop word of state 0."""
    lead = TransitionSystem("ab", [[0, 1], [1, 1]])
    odd = Dfa("ab", [[1, 0], [0, 1]], [1])
    big = Dfa("ab", [[(i + 1) % 40, i] for i in range(40)], [0])
    F = Family(FDFA, lead, [odd, big])
    starts = []

    def counting(start, step):
        starts.append(start)
        return orbit(start, step)

    monkeypatch.setattr(saturation, "orbit", counting)
    for ref in (NORM, ALL):
        starts.clear()
        v = check_power_stable(F, ref)
        assert rep_pair(v.witness) == (((), ("a",)), ((), ("a", "a")))
        assert starts == [1]


def test_power_least_key_can_come_from_a_later_leading_state():
    """a swaps the two leading states and b keeps them.  The progress
    automaton of state 0 counts b modulo 2 and that of state 1 counts a:
    at length 1, state 0 first flips on b and state 1 on a, so with every
    pair admitted the least key is (a, 1), met in the later search.
    Normalized, a is no loop of state 1 and the key is (b, 0)."""
    lead = TransitionSystem("ab", [[1, 0], [0, 1]])
    odd_b = Dfa("ab", [[0, 1], [1, 0]], [1])
    odd_a = Dfa("ab", [[1, 0], [0, 1]], [1])
    F = Family(FDFA, lead, [odd_b, odd_a])
    assert rep_pair(check_power_stable(F, ALL).witness) == (
        (("a",), ("a",)), (("a",), ("a", "a")))
    assert rep_pair(check_power_stable(F, NORM).witness) == (
        ((), ("b",)), ((), ("b", "b")))


def test_one_b_power_witness():
    from fixtures import one_b_some_a_fdfa
    v = check_saturated(one_b_some_a_fdfa(), ReferenceSet.NORMALIZED)
    assert v.stage == STAGE_POWER
    assert rep_pair(v.witness) == (((), ("a", "b")),
                                   ((), ("a", "b", "a", "b")))


def test_exactly_one_a_power_witness():
    v = check_saturated(exactly_one_a_fdfa(), ReferenceSet.NORMALIZED)
    assert v.stage == STAGE_POWER
    assert rep_pair(v.witness) == (((), ("a",)), ((), ("a", "a")))


def test_eventually_ab_saturated_both_modes():
    F = eventually_ab_fdfa()
    assert check_saturated(F, ReferenceSet.NORMALIZED).ok
    assert check_saturated(F, ReferenceSet.ALL).ok


def test_universal_fully_saturated():
    assert check_saturated(universal_fdfa(), ReferenceSet.ALL).ok


def test_asymmetric_leading_reachability_is_saturated():
    """Leading system where state 0 is left forever on the first a; the
    progress languages (ba)^+ and (ab)^+ are tied to the two live states.
    A shift comparison that ignores which loops actually return to the
    slot's own state flags a spurious violation here."""
    from upfam.automata import Dfa, TransitionSystem
    lead = TransitionSystem.from_parts(
        "ab", 3, {(0, "a"): 2, (1, "a"): 2, (2, "a"): 2,
                  (0, "b"): 0, (1, "b"): 1, (2, "b"): 1})
    empty = Dfa.build("ab", 0, lambda s, a: 0, accepting=lambda s: False)
    ab_plus = Dfa.from_parts(
        "ab", 6, {(0, "a"): 1, (0, "b"): 5, (1, "b"): 3, (1, "a"): 5,
                  (3, "a"): 1, (3, "b"): 5, (5, "a"): 5, (5, "b"): 5},
        accepting={3})
    ba_plus = Dfa.from_parts(
        "ab", 6, {(0, "b"): 2, (0, "a"): 5, (2, "a"): 4, (2, "b"): 5,
                  (4, "b"): 2, (4, "a"): 5, (5, "a"): 5, (5, "b"): 5},
        accepting={4})
    # canonical leading order: 0 = initial, 1 = after a, 2 = after ab
    F = Family(FDFA, lead, [empty, ba_plus, ab_plus])
    assert check_saturated(F, ReferenceSet.NORMALIZED).ok
    assert brute_saturation(F, NORM, 6, 6) is None


def test_stage_order_loopshift_before_power():
    # ba-star fails both stages; the loopshift stage must report first.
    v = check_saturated(ba_star_fdfa(), ReferenceSet.ALL)
    assert v.stage == STAGE_LOOPSHIFT


def test_mode_validation():
    with pytest.raises(InputError):
        check_saturated(ba_star_fdfa(), "Sideways")
    with pytest.raises(InputError):
        check_saturated(some_a_fdwa(), ReferenceSet.NORMALIZED)


def test_stage_checks_match_refined_family():
    """The stages carry the leading state in their search nodes, so on any
    FDFA they give what the stages on the refined family gave: the same
    verdict, stage and witness.  The mod-2 family is not refined (both
    progress states are reached with both leading displacements); a third
    of the random families are minimized first."""
    from fixtures import mod2_leading
    lead = mod2_leading("ab")
    odd = Dfa.from_parts("ab", 2, {(0, "a"): 1, (0, "b"): 0,
                                   (1, "a"): 0, (1, "b"): 1},
                         accepting={1})
    families = [Family(FDFA, lead, [odd, odd])]
    assert displacement_map(families[0], 0) is None
    rng = random.Random("stages-on-unrefined")
    for k in range(600):
        F = random_family(rng, FDFA, alphabet=rng.choice(["ab", "abc"]),
                          max_leading=rng.randint(1, 4),
                          max_progress=rng.randint(2, 6))
        if k % 3 == 0:
            F = Family(FDFA, F.leading,
                       [minimize_dfa(p) for p in F.progress])
        families.append(F)
    refuted = 0
    for F in families:
        refined = refine_family(F)
        for ref in (NORM, ALL):
            for stage, reference in (
                    (check_loopshift_stable, loopshift_on_refined),
                    (check_power_stable, power_on_refined)):
                v = stage(F, ref)
                assert v == reference(refined, ref), (F, ref, stage)
                refuted += not v.ok
    assert refuted > 800


def test_saturation_matches_the_minimized_pipeline():
    """check_saturated runs its stages on the family as given, and gives
    the status, stage and witness of the stages run on the minimized
    family: on random FDFAs, a good share of them with progress automata
    that are not minimal, and on families whose progress states are all
    copied two and three times."""
    rng = random.Random("as-given")
    families = [random_family(rng, FDFA, alphabet=rng.choice(["ab", "abc"]),
                              max_leading=rng.randint(1, 4),
                              max_progress=rng.randint(2, 8))
                for _ in range(1500)]
    assert sum(any(minimize_dfa(D).n < D.n for D in F.progress)
               for F in families) > 450
    bases = [gen_family("syntactic-gap", n) for n in (4, 8)]
    bases += all_fixture_families().values()
    for F in bases:
        families.append(F)
        families += [Family(FDFA, F.leading, [padded(D, k)
                                              for D in F.progress])
                     for k in (2, 3)]
    refuted = 0
    for F in families:
        for ref in (NORM, ALL):
            v = check_saturated(F, ref)
            assert v == saturation_on_minimized(F, ref), (F, ref)
            refuted += not v.ok
    assert refuted > 1800


def test_saturation_stages_get_the_callers_family(monkeypatch):
    """No copy of the family is made for the stages: both receive the
    object the caller passed."""
    received = []
    for name in ("check_loopshift_stable", "check_power_stable"):
        def spy(F, ref, stage=getattr(saturation, name)):
            received.append(F)
            return stage(F, ref)
        monkeypatch.setattr(saturation, name, spy)
    F = Family(FDFA, eventually_ab_fdfa().leading,
               [padded(eventually_ab_fdfa().progress[0], 2)])
    assert check_saturated(F, NORM).ok
    assert len(received) == 2
    assert all(G is F for G in received)


def loopshift_goals_by_enumeration(F, ref, w):
    """The slots (q, a index) of the loopshift goals of the word w, in
    key order: (u, a*w) and (u*a, w*a) lie in the reference set, u the
    access word of q, and exactly one of them is accepted."""
    T = F.leading
    out = []
    for q in range(T.n):
        u = T.access_word(q)
        for ai, a in enumerate(T.alphabet):
            left = Representation(u, (a,) + w)
            right = Representation(u + (a,), w + (a,))
            if (ref.contains(F, left) and ref.contains(F, right)
                    and family_accepts(F, left) != family_accepts(F, right)):
                out.append((q, ai))
    return out


def power_goals_by_enumeration(F, ref, w, seen):
    """(q, flip) of the power goals of the nonempty word w, in key order:
    w is the least word to reach its pair (D_q after w, T after w from
    q), which `seen` (one set per q, filled in llex order) tells; (u, w)
    lies in the reference set; and (u, w^flip) is the first power whose
    acceptance differs from that of (u, w)."""
    T = F.leading
    out = []
    for q in range(T.n):
        D = F.progress[q]
        node = (D.run(w), T.after(q, w))
        if node in seen[q]:
            continue
        seen[q].add(node)
        u = T.access_word(q)
        if not ref.contains(F, Representation(u, w)):
            continue
        base = D.accepts(w)
        flip = next((i for i in range(2, D.n + 2)
                     if D.accepts(w * i) != base), None)
        if flip is not None:
            out.append((q, flip))
    return out


def test_stage_witnesses_are_the_least_keys_by_enumeration():
    """Each FDFA stage reports the least key over all its searches,
    ((len w, w), q, a) for loopshift and ((len w, w), q, flip) for power,
    found here by enumerating the words up to length 5 in llex order, with
    no search: a stage whose witness is that short gives that key, and a
    stage with no witness or a longer one has no goal among these words.
    Many least keys come from a later search than the first one with a
    goal at that length, where a smaller word wins."""
    rng = random.Random("least-keys")
    max_len = 5
    found = Counter()
    later = Counter()
    for _ in range(400):
        F = random_family(rng, FDFA, alphabet=rng.choice(["ab", "abc"]),
                          max_leading=rng.randint(1, 4),
                          max_progress=rng.randint(1, 4))
        T = F.leading
        for ref in (NORM, ALL):
            goals = {"loopshift": [], "power": []}  # (w, search key, ...)
            seen = [set() for _ in range(T.n)]
            for w in words_up_to(T.alphabet, max_len):
                goals["loopshift"] += [
                    (w, slot) for slot in loopshift_goals_by_enumeration(
                        F, ref, w)]
                if w:
                    goals["power"] += [
                        (w, q, flip) for q, flip
                        in power_goals_by_enumeration(F, ref, w, seen)]
            for stage, check in (("loopshift", check_loopshift_stable),
                                 ("power", check_power_stable)):
                v = check(F, ref)
                if not goals[stage]:
                    # the loopshift loop is a*w, the power loop w
                    assert v.ok or (len(v.witness.left.x)
                                    - (stage == "loopshift") > max_len)
                    continue
                w, k, *rest = goals[stage][0]
                if stage == "loopshift":
                    q, ai = k
                    u, a = T.access_word(q), T.alphabet[ai]
                    pair = (Representation(u, (a,) + w),
                            Representation(u + (a,), w + (a,)))
                else:
                    u = T.access_word(k)
                    pair = (Representation(u, w),
                            Representation(u, w * rest[0]))
                assert not v.ok
                assert (v.witness.left, v.witness.right) == pair, (F, ref)
                found[stage] += 1
                later[stage] += any(len(g[0]) == len(w) and g[1] < k
                                    for g in goals[stage])
    assert found["loopshift"] > 250 and found["power"] > 100, found
    assert later["loopshift"] > 100 and later["power"] > 2, later


def test_checker_agrees_with_oracle_on_random_families():
    rng = random.Random(7)
    unsat = 0
    for _ in range(150):
        F = random_family(rng, kind=FDFA, max_leading=2, max_progress=3)
        for mode, ref in ((ReferenceSet.NORMALIZED, NORM),
                          (ReferenceSet.ALL, ALL)):
            v = check_saturated(F, mode)
            found = brute_saturation(F, ref, 5, 4)
            if v.ok:
                assert found is None
            else:
                assert_replays(F, v.witness, ref)
                unsat += 1
    assert unsat > 50


def test_witness_size_bounds():
    """Loopshift witnesses stay within the quadratic loop bound and power
    witnesses use exponents at most the largest progress size."""
    rng = random.Random(19)
    checked = 0
    for _ in range(200):
        F = random_family(rng, kind=FDFA, max_leading=3, max_progress=4)
        v = check_saturated(F, ReferenceSet.NORMALIZED)
        if v.ok:
            continue
        checked += 1
        nl = F.leading.n
        md = max(p.n for p in F.progress)
        cx = v.witness
        assert len(cx.left.u) <= nl
        if v.stage == STAGE_LOOPSHIFT:
            assert len(cx.left.x) <= (nl * md) ** 2 + 1
        else:
            exp = len(cx.right.x) // len(cx.left.x)
            assert 2 <= exp <= md
    assert checked > 40


def test_fdwa_fixture_verdicts():
    assert check_fdwa_saturated(some_a_fdwa()).ok
    W = Family(FDWA, ba_star_fdfa().leading, list(ba_star_fdfa().progress))
    assert check_fdwa_saturated(W).ok

    v = check_fdwa_saturated(first_a_fdwa())
    assert v.status == "NotSaturated"
    assert v.stage == STAGE_FDWA
    cx = v.witness
    assert rep_pair(cx) == (((), ("a", "b")), (("a",), ("b", "a")))
    assert cx.left_accepted and not cx.right_accepted
    assert_replays(first_a_fdwa(), cx, NORM)


def test_fdwa_check_refines_progress_with_unreachable_states():
    # Progress state 2 is unreachable, so it has no displacement: the
    # family is not refined and the checker must refine it first.
    W = Family(FDWA, TransitionSystem("ab", [[0, 0]]),
               [Dfa("ab", [[0, 0], [1, 1], [2, 1]], [0, 1], 0)])
    assert displacement_map(W, 0) is None
    assert check_fdwa_saturated(W).status == "Saturated"


def test_fdwa_checker_input_contracts():
    with pytest.raises(InputError):
        check_fdwa_saturated(ba_star_fdfa())
    with pytest.raises(InputError):
        check_fdwa_saturated(odd_a_fdfa(kind=FDWA))  # mixed cycle, not weak


def test_fdwa_checker_agrees_with_oracle_on_random_families():
    rng = random.Random(11)
    unsat = 0
    for _ in range(150):
        W = random_family(rng, kind=FDWA, max_leading=2, max_progress=3)
        v = check_fdwa_saturated(W)
        found = brute_saturation(W, NORM, 5, 4)
        if v.ok:
            assert found is None
        else:
            assert_replays(W, v.witness, NORM)
            unsat += 1
    assert unsat > 15


def fdwa_tuples(W, disps, z):
    """The tuples (u, p, q, r) for which some split z = x*y meets the five
    conditions in the refined weak family W with displacement maps disps,
    found with Dfa.after calls alone: u and x fix p, y then fixes q and, in
    the automaton owned by the displacement v of p, also r."""
    found = set()
    for k in range(len(z) + 1):
        x, y = z[:k], z[k:]
        for u, Bu in enumerate(W.progress):
            p = Bu.after(Bu.initial, x)
            q = Bu.after(p, y)
            if Bu.after(q, x) != p:
                continue
            if (p in Bu.accepting) != (q in Bu.accepting):
                continue
            v = disps[u][p]
            Bv = W.progress[v]
            r = Bv.after(Bv.initial, y)
            if (Bv.after(r, z) == r and disps[v][r] == u
                    and (r in Bv.accepting) != (p in Bu.accepting)):
                found.add((u, p, q, r))
    return found


def sink_weak_family(rng):
    """One leading state and a weak progress DFA of 3 to 6 states whose
    missing transitions (30%) go to a sink; about a fifth of these
    families are not saturated."""
    n = rng.randint(3, 6)
    trans = {(s, a): rng.randrange(n)
             for s in range(n) for a in "ab" if rng.random() < 0.7}
    return Family(FDWA, random_ts(rng, "ab", 1),
                  [make_weak(rng, Dfa.from_parts("ab", n, trans))])


def assert_fdwa_witness_is_llex_least(W, bound):
    """Checked without the witness search: the reported loop z meets the
    five conditions and no nonempty word llex-smaller than z does; for a
    saturated family, no nonempty word up to length `bound` does.  Returns
    the verdict."""
    v = check_fdwa_saturated(W)
    work = refine_family(W)
    disps = [displacement_map(work, u) for u in range(work.leading.n)]
    z = None
    if not v.ok:
        z = v.witness.left.x
        assert fdwa_tuples(work, disps, z)
        bound = len(z)
    for w in words_up_to(W.alphabet, bound, 1):
        if w == z:
            break
        assert not fdwa_tuples(work, disps, w), (v, w)
    return v


def test_fdwa_witness_is_llex_least():
    """A search that leaves llex order where one word reaches an x-node and
    a y-node together goes wrong rarely (on about one sink family in three
    thousand), hence the size of the sweep; the families with several
    leading states exercise the displacement maps."""
    rng = random.Random(2)
    families = [sink_weak_family(rng) for _ in range(6000)]
    families += [random_family(rng, kind=FDWA, max_leading=3, max_progress=4)
                 for _ in range(400)]
    unsat = sum(not assert_fdwa_witness_is_llex_least(W, 4).ok
                for W in families)
    assert unsat > 1000


def copied_column_family(rng):
    """A weak family over abcd, 1 to 3 leading states and 1 to 5 progress
    states, in which one letter's column is a copy of another's: in every
    automaton, or in the progress automata of some leading states only.
    Equal columns give product nodes several symbols to the same child, in
    either order of the two letters, which a search that keeps one symbol
    per distinct child must resolve to the least."""
    W = random_family(rng, kind=FDWA, alphabet="abcd", max_leading=3,
                      max_progress=5)
    src, dst = rng.sample(range(4), 2)
    everywhere = rng.random() < 0.5

    def copy(delta):
        return [row[:dst] + (row[src],) + row[dst + 1:] for row in delta]

    progress = [Dfa(B.alphabet, copy(B.delta), B.accepting, B.initial)
                if everywhere or rng.random() < 0.5 else B
                for B in W.progress]
    if not everywhere:
        return Family(FDWA, W.leading, progress)
    # The copy drops the edges of the overwritten letter, so a leading state
    # may become unreachable: keep the reachable ones with their progress
    # automata.  Components can only split, so the progress stays weak.
    delta = copy(W.leading.delta)
    lead = TransitionSystem.build(
        W.alphabet, W.leading.initial,
        lambda t, a: delta[t][W.leading.sym_index[a]])
    return Family(FDWA, lead, [progress[t] for t in lead.keys])


def test_fdwa_witness_is_llex_least_with_shared_columns():
    """The sweep above on four letters, two of which share a column, so
    that a product node reaches one child by several symbols.  Families
    with several leading states, and groups of several nodes whose lists
    are merged, show up here and not over ab."""
    rng = random.Random(12)
    families = [copied_column_family(rng) for _ in range(600)]
    unsat = sum(not assert_fdwa_witness_is_llex_least(W, 3).ok
                for W in families)
    assert unsat > 150
    assert sum(W.leading.n > 1 for W in families) > 250


def test_fdwa_group_is_expanded_in_symbol_order():
    """One progress automaton where the word a reaches an x-node and a
    y-node together: their lists must be merged by symbol.  Taking the
    x-node's list before the y-node's reaches the target first by abb,
    which is not llex-least; aba is."""
    D = Dfa("ab", [[1, 2], [1, 1], [2, 3], [2, 2]], [0, 1])
    W = Family(FDWA, TransitionSystem("ab", [[0, 0]]), [D])
    v = assert_fdwa_witness_is_llex_least(W, 3)
    assert rep_pair(v.witness) == (((), ("a", "b", "a")),
                                   (("a",), ("b", "a", "a")))
    assert_replays(W, v.witness, NORM)


def test_fdwa_search_matches_the_per_symbol_reference(monkeypatch):
    """Status, stage and witness agree with the check whose searches are
    run by the reference of helpers, which tries every symbol on every
    node, switches at every p of a class and counts its own nodes.  The
    caps fall on both sides of the node counts: the distinct-successor
    lists must store the same nodes, so that --cap is exceeded at the same
    point."""
    rng = random.Random(13)
    families = [gen_family("subset-occurrence", n) for n in (2, 3, 4)]
    families += [random_family(rng, kind=FDWA, alphabet=alphabet,
                               max_leading=4, max_progress=8)
                 for alphabet in ("ab", "abc", "abcd") for _ in range(50)]
    statuses = Counter()
    for W in families:
        for cap in (None, 3, 30, 300, 3000):
            v = check_fdwa_saturated(W, cap)
            with monkeypatch.context() as m:
                m.setattr(saturation, "_least_fdwa_witness",
                          lambda work, cap: least_fdwa_witness_by_symbol(
                              work, cap, by_class=True))
                ref = check_fdwa_saturated(W, cap)
            assert (v.status, v.stage, v.witness) == (
                ref.status, ref.stage, ref.witness), cap
            statuses[v.status] += 1
    assert min(statuses.values()) > 50, statuses


def test_fdwa_witness_matches_the_per_tuple_reference(monkeypatch):
    """Searching the p of a class together finds the witness that one
    search per tuple (u, p, q, r) finds: without a cap, status, stage and
    witness agree with the per-symbol reference run tuple by tuple, on
    1,000 seeded weak families in the <=4/<=10 and <=6/<=16 bands over ab
    and a <=3/<=6 band over abc, and on the ladders."""
    rng = random.Random(14)
    families = [random_family(rng, kind=FDWA, max_leading=4,
                              max_progress=10) for _ in range(500)]
    families += [random_family(rng, kind=FDWA, max_leading=6,
                               max_progress=16) for _ in range(40)]
    families += [random_family(rng, kind=FDWA, alphabet="abc",
                               max_leading=3, max_progress=6)
                 for _ in range(460)]
    families += [gen_family(name, n) for name in ("fixpoint-fdwa",
                                                  "zero-u-zero-fdwa")
                 for n in (2, 3, 4)]
    unsat = 0
    for W in families:
        v = check_fdwa_saturated(W)
        with monkeypatch.context() as m:
            m.setattr(saturation, "_least_fdwa_witness",
                      least_fdwa_witness_by_symbol)
            ref = check_fdwa_saturated(W)
        assert (v.status, v.stage, v.witness) == (
            ref.status, ref.stage, ref.witness)
        unsat += not v.ok
    assert unsat > 300, unsat


# The least cap at which the check decides, from counts of the search
# nodes stored; one less gives CapExceeded.
CAP_BOUNDARY = [
    ("first_a_fdwa", first_a_fdwa(), 12),
    ("subset-occurrence 3", gen_family("subset-occurrence", 3), 378),
    ("subset-occurrence 4", gen_family("subset-occurrence", 4), 792),
    ("subset-occurrence 5", gen_family("subset-occurrence", 5), 1430),
    ("fixpoint-fdwa 3", gen_family("fixpoint-fdwa", 3), 125),
    ("fixpoint-fdwa 6", gen_family("fixpoint-fdwa", 6), 422),
    ("zero-u-zero-fdwa 4", gen_family("zero-u-zero-fdwa", 4), 76),
    ("zero-u-zero-fdwa 6", gen_family("zero-u-zero-fdwa", 6), 132),
]


@pytest.mark.parametrize("label,W,k", CAP_BOUNDARY,
                         ids=[c[0] for c in CAP_BOUNDARY])
def test_fdwa_cap_boundary_is_pinned(label, W, k):
    decided = check_fdwa_saturated(W, k)
    assert decided.status != "CapExceeded"
    assert decided == check_fdwa_saturated(W)
    assert check_fdwa_saturated(W, k - 1).status == "CapExceeded"


def test_fdwa_budget_is_tested_before_the_target():
    """The search settles the batch of nodes that one symbol stores by
    testing the node count against the budget before it looks for a
    target.  On first_a_fdwa the batch that holds the target is the
    twelfth node alone, so at cap 11 the nodes before it fit and the
    target's batch crosses the cap: CapExceeded, where looking for the
    target first would give the witness.  One more node gives it."""
    W = first_a_fdwa()
    assert check_fdwa_saturated(W, 11).status == "CapExceeded"
    v = check_fdwa_saturated(W, 12)
    assert v == check_fdwa_saturated(W)
    assert rep_pair(v.witness) == (((), ("a", "b")), (("a",), ("b", "a")))


FILES = Path(__file__).parent / "files"
# file, least deciding cap, nodes stored before the witness's batch, and
# the witness pair
BAND_PINS = [
    ("band_6_16_40_29.faf", 60172, 58133,
     ((("a", "b"), ("b",) * 4), (("a", "b", "b"), ("b",) * 4))),
    ("band_8_24_20_2.faf", 39757, 33181,
     ((("a",) * 3, ("b", "b")), (("a",) * 3 + ("b",), ("b", "b")))),
]


def test_band_family_fits_its_pinned_cap():
    """Weak families drawn by bench.corpus.random_fdwa from the seeds
    band:6:16:40:29 (six leading states, progress automata of 4 to 11
    states) and band:8:24:20:2 (eight leading states, 3 to 21).  The one
    search over all tuples stores `cap` nodes up to the batch that holds
    the least witness, which is the one that one search per tuple
    (p, q, r) reports; that batch starts after `before` nodes, so every
    cap from there to one below `cap` ends in CapExceeded."""
    for name, cap, before, pair in BAND_PINS:
        W = parse_faf((FILES / name).read_text())
        v = check_fdwa_saturated(W, cap)
        assert v == check_fdwa_saturated(W)
        assert v.stage == STAGE_FDWA
        assert rep_pair(v.witness) == pair
        assert_replays(W, v.witness, NORM)
        for below in (before, cap - 1):
            assert check_fdwa_saturated(W, below).status == "CapExceeded"


def test_fdwa_successor_lists_are_built_once_per_pair_and_node(
        monkeypatch):
    """On subset-occurrence n=4 (255 symbols, 16 searches on one pair, 792
    stored nodes) every (pair, node) list is built at most once in the
    whole check, so no search and no symbol repeats the work of another."""
    built = Counter()
    build = saturation._SuccessorLists.__missing__

    def counting(lists, code):
        built[id(lists), code] += 1
        return build(lists, code)

    monkeypatch.setattr(saturation._SuccessorLists, "__missing__", counting)
    assert check_fdwa_saturated(gen_family("subset-occurrence", 4)).ok
    assert built and max(built.values()) == 1
    assert len(built) < 792


def test_saturated_fixture_survives_progress_noise():
    """Duplicating progress states must not change any verdict: the checks
    are language-level, not structure-level."""
    from upfam.automata import Dfa, TransitionSystem
    base = eventually_ab_fdfa()
    d = base.progress[0]
    # duplicate state 0 as an extra initial layer feeding the old one
    trans = {}
    for s in range(d.n):
        for si, a in enumerate(d.alphabet):
            trans[(s + 1, a)] = d.delta[s][si] + 1
    for si, a in enumerate(d.alphabet):
        trans[(0, a)] = d.delta[d.initial][si] + 1
    fat = Dfa.from_parts(d.alphabet, d.n + 1, trans,
                         accepting={q + 1 for q in d.accepting})
    F = Family(FDFA, base.leading, [fat])
    assert check_saturated(F, ReferenceSet.NORMALIZED).ok
    assert check_saturated(F, ReferenceSet.ALL).ok


def _pinned_families():
    for n in (4, 8, 16):
        yield "syntactic-gap %d" % n, gen_family("syntactic-gap", n)
    for n in range(3, 7):
        yield "fixpoint-alsat %d" % n, gen_family("fixpoint-alsat", n)
    rng = random.Random("pinned-saturation")
    for k in range(100):
        yield "random %d" % k, random_family(rng, FDFA, max_leading=6,
                                             max_progress=12)


# sha256 over every family's output, in the order of _pinned_families
PINNED = {
    "refined":
        "9b81707c6eb61fa15645d1c05c9416055bfd1276bf8f02a53ffcd3662870fe1e",
    "saturation":
        "39553fd414fcfffb906119e458e55490ed9cbaf724225db2e0bb3223fff58ba1",
    "full-saturation":
        "b73316c94db9d12dc8a9b2fa0cda40108319ff8b77b44854fa43fcdf2ec13e43",
    "almost-saturation":
        "9de3d60890d0142730d13355cd3ebe524ca8e6e268a8744aaaaccd6b51410817",
}


def test_saturation_outcomes_are_pinned():
    """The refined family of the minimized progress automata, and the
    --json output and exit code of the three FDFA saturation checks, are
    byte-identical to the ones recorded when this test was written."""
    digests = {name: hashlib.sha256() for name in PINNED}
    for label, F in _pinned_families():
        slim = Family(FDFA, F.leading,
                      [minimize_dfa(p) for p in F.progress])
        digests["refined"].update(
            serialize_faf(refine_family(slim)).encode())
        text = serialize_faf(F)
        for check in ("saturation", "full-saturation", "almost-saturation"):
            code, out = run(["check", check, "-", "--json", "--cap",
                             "20000"], text)
            digests[check].update(("%s %d %s" % (label, code, out)).encode())
    assert {name: h.hexdigest() for name, h in digests.items()} == PINNED
