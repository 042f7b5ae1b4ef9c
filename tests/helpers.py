"""Shared builders for randomized tests."""

import random

from upfam.automata import Dfa, Nfa, TransitionSystem, dfa_sccs
from upfam.family import FDFA, FDWA, FNFA, Family
from upfam.fixtures import (empty_fdfa, eventually_ab_fdfa, some_a_fdwa,
                            universal_fdfa)
from upfam.regularity import ACCEPTING, REJECTING, TERMINAL, ProfileClass


def random_ts(rng: random.Random, alphabet, max_states) -> TransitionSystem:
    n = rng.randint(1, max_states)
    trans = {(s, a): rng.randrange(n)
             for s in range(n) for a in alphabet}
    return TransitionSystem.from_parts(alphabet, n, trans)


def random_dfa(rng: random.Random, alphabet, max_states,
               total=True) -> Dfa:
    n = rng.randint(1, max_states)
    trans = {}
    for s in range(n):
        for a in alphabet:
            if total or rng.random() < 0.9:
                trans[(s, a)] = rng.randrange(n)
    acc = {s for s in range(n) if rng.random() < 0.5}
    return Dfa.from_parts(alphabet, n, trans, accepting=acc)


def make_weak(rng: random.Random, dfa: Dfa) -> Dfa:
    """Reassign acceptance uniformly per strongly connected component."""
    acc = set()
    for comp in dfa_sccs(dfa):
        if rng.random() < 0.5:
            acc.update(comp)
    return Dfa(dfa.alphabet, dfa.delta, acc, dfa.initial, dfa._access)


def random_weak_dfa(rng, alphabet, max_states) -> Dfa:
    return make_weak(rng, random_dfa(rng, alphabet, max_states))


def random_nfa(rng: random.Random, alphabet, max_states) -> Nfa:
    n = rng.randint(1, max_states)
    delta = {}
    for s in range(n):
        for a in alphabet:
            ts = [t for t in range(n) if rng.random() < 0.4]
            if ts:
                delta[(s, a)] = ts
    acc = [s for s in range(n) if rng.random() < 0.4]
    return Nfa(alphabet, n, delta, [0], acc)


def random_family(rng: random.Random, kind=FDFA, alphabet="ab",
                  max_leading=2, max_progress=3) -> Family:
    lead = random_ts(rng, alphabet, max_leading)
    progs = []
    for _ in range(lead.n):
        if kind == FNFA:
            progs.append(random_nfa(rng, alphabet, max_progress))
        elif kind == FDWA:
            progs.append(random_weak_dfa(rng, alphabet, max_progress))
        else:
            progs.append(random_dfa(rng, alphabet, max_progress, total=False))
    return Family(kind, lead, progs)


AB = ("a", "b")


def _one_state(alphabet):
    return TransitionSystem(alphabet, [[0] * len(alphabet)])


def fully_saturated_targets():
    """name -> (family, predicate on pairs) for ten fully saturated
    languages; acceptance of each depends on the word u*x^omega alone."""
    out = {}
    out["empty"] = (empty_fdfa("ab"), lambda u, x: False)
    out["universal"] = (universal_fdfa("ab"), lambda u, x: True)
    out["inf-a"] = (some_a_fdwa(FDFA), lambda u, x: "a" in x)
    out["inf-b"] = (Family(FDFA, _one_state(AB),
                           [Dfa(AB, [[0, 1], [1, 1]], {1})]),
                    lambda u, x: "b" in x)
    out["tail-a"] = (Family(FDFA, _one_state(AB),
                            [Dfa(AB, [[1, 2], [1, 2], [2, 2]], {1})]),
                     lambda u, x: set(x) == {"a"})
    out["tail-b"] = (Family(FDFA, _one_state(AB),
                            [Dfa(AB, [[2, 1], [2, 1], [2, 2]], {1})]),
                     lambda u, x: set(x) == {"b"})
    out["inf-both"] = (Family(FDFA, _one_state(AB),
                              [Dfa(AB, [[1, 2], [1, 3], [3, 2], [3, 3]],
                                   {3})]),
                       lambda u, x: "a" in x and "b" in x)
    out["tail-const"] = (Family(FDFA, _one_state(AB),
                                [Dfa(AB, [[1, 2], [1, 3], [3, 2], [3, 3]],
                                     {1, 2})]),
                         lambda u, x: len(set(x)) == 1)
    out["only-a"] = (Family(FDFA, TransitionSystem(AB, [[0, 1], [1, 1]]),
                            [Dfa(AB, [[1, 2], [1, 2], [2, 2]], {1}),
                             Dfa(AB, [[0, 0]], ())]),
                     lambda u, x: set(u) <= {"a"} and set(x) == {"a"})
    out["only-b"] = (Family(FDFA, TransitionSystem(AB, [[1, 0], [1, 1]]),
                            [Dfa(AB, [[2, 1], [2, 1], [2, 2]], {1}),
                             Dfa(AB, [[0, 0]], ())]),
                     lambda u, x: set(u) <= {"b"} and set(x) == {"b"})
    return out


def syntactic_targets():
    """name -> (family, word predicate) where the family is in syntactic
    form: minimal leading system, progress DFAs with pairwise separable
    states, and canonical-looking acceptance.  All are saturated."""
    def tail_ab(u, x):
        r = _canonical_loop(u, x)
        return r in (("a", "b"), ("b", "a"))

    out = {}
    out["empty"] = (empty_fdfa("ab"), lambda u, x: False)
    out["universal"] = (Family(FDFA, _one_state(AB),
                               [Dfa(AB, [[1, 1], [1, 1]], {1})]),
                        lambda u, x: True)
    out["inf-a"] = (some_a_fdwa(FDFA), lambda u, x: "a" in x)
    out["eventually-ab"] = (eventually_ab_fdfa(), tail_ab)
    lead = TransitionSystem(AB, [[1, 2], [1, 1], [2, 2]])
    out["starts-a"] = (Family(FDFA, lead,
                              [Dfa(AB, [[1, 2], [1, 1], [2, 2]], ()),
                               Dfa(AB, [[1, 1], [1, 1]], {1}),
                               Dfa(AB, [[0, 0]], ())]),
                       lambda u, x: (u + x)[0] == "a")
    out["only-a"] = fully_saturated_targets()["only-a"]
    return out


def _canonical_loop(u, x):
    from upfam.words import Representation
    return Representation(u, x).canonical().x


def canonical_family(F: Family) -> Family:
    """The same family with every machine renumbered in canonical
    breadth-first order, so that isomorphic families compare equal."""
    old = F.leading
    lead = TransitionSystem.build(
        F.alphabet, old.initial,
        lambda s, a: old.delta[s][old.sym_index[a]])
    progs = []
    for q in range(lead.n):
        D = F.progress[lead.keys[q]]
        progs.append(Dfa.build(F.alphabet, D.initial,
                               lambda s, a, D=D: D.delta[s][D.sym_index[a]],
                               accepting=lambda s, D=D: s in D.accepting))
    return Family(F.kind, lead, progs)


def same_family(F: Family, G: Family) -> bool:
    return canonical_family(F) == canonical_family(G)


def _image(masks, source: int) -> int:
    """States reached from the state set `source` under a profile."""
    out = 0
    for s in range(len(masks)):
        if source >> s & 1:
            out |= masks[s]
    return out


def classify_by_powers(A, tau):
    """Reference for regularity.classify_profile: the classifier that built
    the table of distinct matrix powers tau^1 .. tau^(j+c-1), with
    tau^(j+c) == tau^j, and tested acceptance of every power."""
    if isinstance(A, Nfa):
        init = sum(1 << s for s in A.initials)
    else:
        init = 1 << A.initial
    acc = sum(1 << s for s in A.accepting)
    masks = tau.masks
    powers = [masks]
    seen = {masks: 1}
    while True:
        nxt = tuple(_image(masks, m) for m in powers[-1])
        if nxt in seen:
            j = seen[nxt]
            c = len(powers) + 1 - j
            break
        seen[nxt] = len(powers) + 1
        powers.append(nxt)

    def hit(e: int) -> bool:
        if e > len(powers):
            e = j + (e - j) % c
        return bool(_image(powers[e - 1], init) & acc)

    hits = [hit(e) for e in range(1, len(powers) + 1)]
    if not any(hits):
        return ProfileClass(REJECTING)
    for i in range(1, len(powers) + 1):
        if all(not hit(i * m) for m in range(1, j + c + 1)):
            return ProfileClass(TERMINAL, i)
    return ProfileClass(ACCEPTING, hits.index(True) + 1)
