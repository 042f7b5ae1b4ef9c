"""Shared builders for randomized tests."""

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

from upfam import regularity
from upfam.automata import (Dfa, Nfa, TransitionSystem, dfa_sccs,
                            minimize_dfa)
from upfam.errors import (CAP_EXCEEDED, CapExceededError, InputError,
                          PreconditionError, Verdict)
from upfam.family import (FDFA, FDWA, FNFA, Counterexample, Family,
                          ReferenceSet, loop_search, up_membership)
from upfam.learning import Sample, _leading_separator, _state_words
from upfam.regularity import ACCEPTING, REJECTING, TERMINAL, _apply
from upfam.saturation import (check_loopshift_stable, check_power_stable,
                              check_saturated)
from upfam.words import Representation, as_word, root

from fixtures import (empty_fdfa, eventually_ab_fdfa, some_a_fdwa,
                      universal_fdfa)


def words_up_to(alphabet, max_len: int, min_len: int = 0):
    """All words of length min_len..max_len in llex order (alphabet order
    as given)."""
    for n in range(min_len, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


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
    return Dfa(dfa.alphabet, dfa.delta, acc, dfa.initial)


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


def as_nfa(D: Dfa) -> Nfa:
    """D with the same states as an NFA, for the profile code, which reads
    NFAs only."""
    return Nfa(D.alphabet, D.n, {(s, a): [t] for s, row in enumerate(D.delta)
                                 for a, t in zip(D.alphabet, row)},
               [D.initial], D.accepting)


def _symbol_masks(N: Nfa):
    return [tuple(sum(1 << t for t in N.delta[s][si]) for s in range(N.n))
            for si in range(len(N.alphabet))]


def compose(first, second):
    """Masks of xy from the masks of x and of y (apply x, then y)."""
    return tuple(_apply(second, m) for m in first)


def profile_of(N: Nfa, x) -> tuple:
    """Masks of the transition profile of the nonempty word x on N: entry s
    is the bitmask of the states x leads to from s."""
    x = as_word(x)
    if not x:
        raise InputError("the empty word has no transition profile")
    sym = _symbol_masks(N)
    masks = sym[N.sym_index[x[0]]]
    for t in x[1:]:
        masks = compose(masks, sym[N.sym_index[t]])
    return masks


def classify(N: Nfa, masks) -> str:
    """regularity.classify_profile on the profile of N with these masks,
    through a profile space of its own."""
    space = regularity._Profiles(N)
    return regularity.classify_profile(space, space.key(masks))


def brute_ter_roots(N: Nfa, len_bound: int) -> set:
    """All primitive words up to len_bound whose profile on N is terminal,
    enumerated word by word.  Profiles are classified by the matrix-power
    reference classify_by_powers, not by the checker's classify_profile."""
    sym = _symbol_masks(N)
    terminal = {}
    out = set()
    layer = [((), None)]
    for _ in range(len_bound):
        nxt = []
        for w, masks in layer:
            for si, a in enumerate(N.alphabet):
                m2 = sym[si] if masks is None else compose(masks, sym[si])
                w2 = w + (a,)
                nxt.append((w2, m2))
                if m2 not in terminal:
                    terminal[m2] = classify_by_powers(N, m2)[0] == TERMINAL
                if terminal[m2] and root(w2) == w2:
                    out.add(w2)
        layer = nxt
    return out


def classify_by_powers(N: Nfa, masks) -> tuple:
    """Reference for regularity.classify_profile: the classifier that built
    the table of distinct matrix powers tau^1 .. tau^(j+c-1), with
    tau^(j+c) == tau^j, and tested acceptance of every power.  Returns
    (classification, power): for Accepting the least i with tau^i accepted,
    for Terminal-Accepting the least i with no accepted power of tau^i, and
    None for Rejecting."""
    init = sum(1 << s for s in N.initials)
    acc = sum(1 << s for s in N.accepting)
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
        return REJECTING, None
    for i in range(1, len(powers) + 1):
        if all(not hit(i * m) for m in range(1, j + c + 1)):
            return TERMINAL, i
    return ACCEPTING, hits.index(True) + 1


def minimize_by_signatures(dfa: Dfa) -> Dfa:
    """Reference for automata.minimize_dfa: Moore refinement on whole
    signature tuples, one state at a time, until the numbering repeats."""
    blocks = [0 if q in dfa.accepting else 1 for q in range(dfa.n)]
    while True:
        sigs = {}
        new = []
        for q in range(dfa.n):
            sig = (blocks[q], tuple(blocks[t] for t in dfa.delta[q]))
            new.append(sigs.setdefault(sig, len(sigs)))
        if new == blocks:
            break
        blocks = new
    rep = {}
    for q in range(dfa.n):
        rep.setdefault(blocks[q], q)
    return Dfa.build(
        dfa.alphabet, blocks[dfa.initial],
        lambda b, a: blocks[dfa.delta[rep[b]][dfa.sym_index[a]]],
        accepting=lambda b: rep[b] in dfa.accepting)


@dataclass(frozen=True)
class Transformation:
    """Effect of a word on one progress automaton: the state map it induces,
    plus the leading state its reading displaces the anchor to."""

    mapping: tuple
    displacement: int


def words_in_llex_order(starts, successors):
    """(node, least word) for every node reachable from the starts, in
    llex order of the words, by a plain breadth-first search that stores
    each node's word.  `starts` are (node, word) pairs of one length in
    llex order; `successors(node)` gives one successor per symbol, None
    for a blocked edge.  Words are tuples of symbol indices."""
    words = {}
    todo = deque()
    for node, w in starts:
        if node not in words:
            words[node] = w
            todo.append(node)
            yield node, w
    while todo:
        node = todo.popleft()
        for si, child in enumerate(successors(node)):
            if child is not None and child not in words:
                words[child] = words[node] + (si,)
                todo.append(child)
                yield child, words[child]


def almost_by_transformations(F: Family, cap: int) -> Verdict:
    """Reference for almost.check_almost_saturated: the same capped monoid
    walk with Transformation nodes, each composed one state at a time, on
    progress automata minimized by minimize_by_signatures.  After the
    first violation a walk stops at its first word longer than the best
    one, measured on the rebuilt word, not on a depth map."""
    T = F.leading
    total = 0
    capped = False
    best = None
    for q in range(T.n):
        if capped:
            break
        D = minimize_by_signatures(F.progress[q])
        sym_maps = list(zip(*D.delta))
        acc = D.accepting

        def bad_power(m):
            s = m[D.initial]
            if s not in acc:
                return None
            seen = {s}
            i = 1
            while True:
                s = m[s]
                i += 1
                if s not in acc:
                    return i
                if s in seen:
                    return None
                seen.add(s)

        def successors(node):
            m, row = node.mapping, T.delta[node.displacement]
            return [Transformation(tuple(sm[v] for v in m), row[si])
                    for si, sm in enumerate(sym_maps)]

        search = words_in_llex_order(
            [(Transformation(tuple(range(D.n)), q), ())], successors)
        next(search)
        total += 1
        for node, w in search:
            # once a violation is known, a longer word cannot win
            if best is not None and len(w) > best[0]:
                break
            total += 1
            if total > cap:
                capped = True
                break
            if node.displacement == q:
                i = bad_power(node.mapping)
                if i is not None:
                    key = (len(w), w, q, i)
                    if best is None or key < best:
                        best = key
                    break
    if best is not None:
        _, w, q, i = best
        x = tuple(T.alphabet[si] for si in w)
        return Verdict("NotAlmostSaturated", (T.access_word(q), x, i))
    if capped:
        return Verdict(CAP_EXCEEDED)
    return Verdict("AlmostSaturated")


def profile_graph_by_composition(N: Nfa, cap: int):
    """Reference for regularity._profile_graph: every successor profile
    composed row by row with _image, nothing cached."""
    nsym = len(N.alphabet)
    sym = _symbol_masks(N)
    profiles = []
    index = {}
    succ = []
    for m in sym:
        if m not in index:
            index[m] = len(profiles)
            profiles.append(m)
            succ.append([None] * nsym)
    for i, mi in enumerate(profiles):
        for si in range(nsym):
            m = tuple(_image(sym[si], r) for r in mi)
            j = index.get(m)
            if j is None:
                if len(profiles) >= cap:
                    raise CapExceededError(
                        f"profile graph exceeded cap {cap}")
                j = index[m] = len(profiles)
                profiles.append(m)
                succ.append([None] * nsym)
            succ[i][si] = j
    return profiles, succ


def least_words_by_enumeration(starts, target, succ, k, avoid, max_len):
    """Reference for regularity._least_words: the first k words of length at
    most max_len, in llex order, as tuples of symbol indices.  Symbol si
    leads to starts[si] and from v to succ[v][si]; a word is kept when its
    run enters target only at its last letter and never enters avoid."""
    out = []
    for n in range(1, max_len + 1):
        for w in itertools.product(range(len(starts)), repeat=n):
            run = [starts[w[0]]]
            for si in w[1:]:
                run.append(succ[run[-1]][si])
            if target in run and run.index(target) == n - 1 \
                    and avoid not in run:
                out.append(w)
                if len(out) == k:
                    return out
    return out


def co_reachable(succ, target, avoid):
    """The nodes with a path to target that never enters avoid, target
    itself included unless it is avoid, as a fixpoint over all nodes."""
    live = {target} - {avoid}
    while True:
        more = {v for v, row in enumerate(succ)
                if v != avoid and v not in live and live.intersection(row)}
        if not more:
            return live
        live |= more


def first_profiles(N: Nfa, k: int) -> list:
    """The first k profiles of N in the order of profile_graph_by_composition
    (all of them when there are fewer), for graphs too large to build."""
    sym = _symbol_masks(N)
    profiles = list(dict.fromkeys(sym))
    known = set(profiles)
    for mi in profiles:
        for m in sym:
            if len(profiles) >= k:
                return profiles[:k]
            m = tuple(_image(m, r) for r in mi)
            if m not in known:
                known.add(m)
                profiles.append(m)
    return profiles[:k]


def intersect_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    """Product DFA of L(d1) and L(d2) over their shared alphabet."""
    return Dfa.build(
        d1.alphabet, (d1.initial, d2.initial),
        lambda pq, a: (d1.delta[pq[0]][d1.sym_index[a]],
                       d2.delta[pq[1]][d2.sym_index[a]]),
        accepting=lambda pq: pq[0] in d1.accepting and pq[1] in d2.accepting)


def displacement_map(F: Family, q: int):
    """The leading state implied by each progress state of the automaton
    owned by q, walked from its initial state; None if some progress state
    is reached with two different leading displacements, or not at all.
    Reference for the keys that family.refine_family gives each state."""
    D = F.progress[q]
    T = F.leading
    disp = [None] * D.n
    disp[D.initial] = q
    todo = [D.initial]
    while todo:
        d = todo.pop()
        for d2, t2 in zip(D.delta[d], T.delta[disp[d]]):
            if disp[d2] is None:
                disp[d2] = t2
                todo.append(d2)
            elif disp[d2] != t2:
                return None
    return None if None in disp else disp


def _refined_displacements(F: Family) -> list[list[int]]:
    disps = [displacement_map(F, q) for q in range(F.leading.n)]
    if None in disps:
        raise PreconditionError(
            "family must be refined; apply refine_family first")
    return disps


def loopshift_on_refined(F: Family, ref_set: ReferenceSet) -> Verdict:
    """Reference for saturation.check_loopshift_stable: the stage as it
    ran on the refined family, where a node is a pair of progress states
    and each progress state fixes its leading displacement."""
    disps = _refined_displacements(F)
    T = F.leading
    alphabet = T.alphabet
    normalized = ref_set is ReferenceSet.NORMALIZED
    best = None
    for q in range(T.n):
        Dq = F.progress[q]
        disp_q = disps[q]
        acc_q = Dq.accepting
        for ai, a in enumerate(alphabet):
            Dq2 = F.progress[T.delta[q][ai]]
            acc_q2 = Dq2.accepting

            def violates(d1, d2):
                if normalized and disp_q[d1] != q:
                    return False
                return (d1 in acc_q) != (Dq2.delta[d2][ai] in acc_q2)

            start = (Dq.delta[Dq.initial][ai], Dq2.initial)
            search = words_in_llex_order(
                [(start, ())],
                lambda n: zip(Dq.delta[n[0]], Dq2.delta[n[1]]))
            for (d1, d2), w in search:
                if violates(d1, d2):
                    key = ((len(w), w), q, ai)
                    if best is None or key < best[0]:
                        best = (key, q, a, w, d1 in acc_q)
                    break
    if best is None:
        return Verdict("Saturated", stage="Loopshift")
    _, q, a, w, left_acc = best
    u = T.access_word(q)
    w = tuple(alphabet[si] for si in w)
    cx = Counterexample(
        "loopshift", Representation(u, (a,) + w),
        Representation(u + (a,), w + (a,)), left_acc, not left_acc)
    return Verdict("NotSaturated", cx, "Loopshift")


def power_on_refined(F: Family, ref_set: ReferenceSet) -> Verdict:
    """Reference for saturation.check_power_stable: the stage as it ran on
    the refined family, one representative per refined progress state and
    the power orbit followed on refined states."""
    disps = _refined_displacements(F)
    T = F.leading
    best = None
    normalized = ref_set is ReferenceSet.NORMALIZED
    for q in range(T.n):
        D = F.progress[q]
        disp = disps[q]
        reps = dict(words_in_llex_order(
            [(t, (si,)) for si, t in enumerate(D.delta[D.initial])],
            D.delta.__getitem__))
        for d, w in sorted(reps.items()):
            if normalized and disp[d] != q:
                continue
            rep = tuple(T.alphabet[si] for si in w)
            s = D.after(D.initial, rep)
            base = s in D.accepting
            seen = {s}
            i = 1
            flip = None
            while True:
                s = D.after(s, rep)
                i += 1
                if (s in D.accepting) != base:
                    flip = i
                    break
                if s in seen:
                    break
                seen.add(s)
            if flip is None:
                continue
            key = ((len(w), w), q, flip)
            if best is None or key < best[0]:
                best = (key, q, rep, flip, base)
    if best is None:
        return Verdict("Saturated", stage="Power")
    _, q, rep, flip, base = best
    u = T.access_word(q)
    cx = Counterexample("power", Representation(u, rep),
                        Representation(u, rep * flip), base, not base)
    return Verdict("NotSaturated", cx, "Power")


def saturation_on_minimized(F: Family, ref_set: ReferenceSet) -> Verdict:
    """Reference for saturation.check_saturated: the pipeline that first
    minimized every progress automaton and then ran the loopshift and the
    power stage on the minimized family."""
    slim = Family(FDFA, F.leading, [minimize_dfa(p) for p in F.progress])
    verdict = check_loopshift_stable(slim, ref_set)
    if not verdict.ok:
        return verdict
    return check_power_stable(slim, ref_set)


def padded(D: Dfa, k: int) -> Dfa:
    """D with each state copied k times: copy j of a state moves to copy
    j + 1 mod k of its successor.  The copies of a state are equivalent,
    so the language is that of D; where two of them are reached, the
    automaton is not minimal."""
    return Dfa.build(D.alphabet, (D.initial, 0),
                     lambda s, a: (D.delta[s[0]][D.sym_index[a]],
                                   (s[1] + 1) % k),
                     accepting=lambda s: s[0] in D.accepting)


def _components(D):
    """(component of each state, states on a cycle) of a DFA."""
    comp = [0] * D.n
    cyclic = set()
    for k, states in enumerate(dfa_sccs(D)):
        for s in states:
            comp[s] = k
        if len(states) > 1 or any(s in D.delta[s] for s in states):
            cyclic.update(states)
    return comp, cyclic


def fdwa_witness_by_symbol(searches, limit, budget):
    """(z, hits): z is the llex-least nonempty word x*y, as symbol indices,
    satisfying the five structural conditions for (p, q, r), for some
    search (Bu, Bv, ps, q, r) of `searches` and some p in its ps, and hits
    lists the indices of the searches whose conditions z satisfies; (None,
    []) when no word of at most `limit` letters does.  More than `budget`
    search nodes stored over all searches raise CapExceededError.

    Reference for the one search of saturation._least_fdwa_witness: each
    queue entry is a word w with, for each search that w reaches, the group
    of nodes that w first reaches in it (see the saturation module
    docstring), entries leave the queue in llex order of their words, and
    one pass over the whole alphabet applies every symbol to every node of
    every group.  It counts the nodes it stores independently, so the two
    agree on the --cap boundary only if they store the same nodes.

    An x-node (a, b, c) runs Bu from its initial state and from q and Bv
    from r over x; a y-node (a, b, c) runs Bu from p, Bv from its initial
    state and Bv on from the x-node's c over y, and x-nodes (p, p, c) with
    p in ps switch to (p, v0, c).  Each search keeps its own nodes."""
    # per search: the two delta tables, v0, ps, the x-nodes and y-nodes
    # stored, and the target
    state = [(Bu.delta, Bv.delta, Bv.initial, ps, set(), set(), (q, r, r))
             for Bu, Bv, ps, q, r in searches]
    first = [(i, [(Bu.initial, q, r)],
              [(q, Bv.initial, r)] if Bu.initial == q and q in ps else [])
             for i, (Bu, Bv, ps, q, r) in enumerate(searches)]
    nsym = len(searches[0][0].alphabet) if searches else 0
    nodes = 0
    queue = deque([((), first)])
    while queue:
        w, groups = queue.popleft()
        if len(w) + 1 == limit:
            # Children at the limit are never expanded: only the targets
            # matter, so they are tested and not stored.
            for si in range(nsym):
                hits = []
                for i, xs, ys in groups:
                    du, dv, v0, ps, _, _, (q, r, _) = state[i]
                    if (any(du[a][si] == q and dv[b][si] == r == dv[c][si]
                            for a, b, c in ys)
                            or q in ps and v0 == r and any(
                                du[a][si] == q == du[b][si]
                                and dv[c][si] == r for a, b, c in xs)):
                        hits.append(i)
                if hits:
                    return w + (si,), hits
            continue
        for si in range(nsym):
            batch = []
            hits = []
            for i, xs, ys in groups:
                du, dv, v0, ps, seen_x, seen_y, target = state[i]
                new_xs, new_ys = [], []
                for a, b, c in xs:
                    a, b, c = du[a][si], du[b][si], dv[c][si]
                    if (a, b, c) in seen_x:
                        continue
                    seen_x.add((a, b, c))
                    new_xs.append((a, b, c))
                    if a == b and a in ps and (a, v0, c) not in seen_y:
                        seen_y.add((a, v0, c))
                        new_ys.append((a, v0, c))
                for a, b, c in ys:
                    node = (du[a][si], dv[b][si], dv[c][si])
                    if node not in seen_y:
                        seen_y.add(node)
                        new_ys.append(node)
                if new_xs or new_ys:
                    nodes += len(new_xs) + len(new_ys)
                    batch.append((i, new_xs, new_ys))
                    if target in seen_y:  # stored by this symbol
                        hits.append(i)
            if batch:
                if nodes > budget:
                    raise CapExceededError("FDWA witness search exceeded cap")
                if hits:
                    return w + (si,), hits
                queue.append((w + (si,), batch))
    return None, []


def fdwa_split_exists(Bu, Bv, p, q, r, z):
    """Whether some split z = x*y meets the five conditions for (p, q, r),
    z given as symbol indices, found with Dfa.after calls alone."""
    z = tuple(Bu.alphabet[si] for si in z)
    return Bv.after(r, z) == r and any(
        Bu.after(Bu.initial, z[:k]) == Bu.after(q, z[:k]) == p
        and Bu.after(p, z[k:]) == q and Bv.after(Bv.initial, z[k:]) == r
        for k in range(len(z) + 1))


def least_fdwa_witness_by_symbol(work, cap, by_class=False):
    """Reference for saturation._least_fdwa_witness, its searches run by
    fdwa_witness_by_symbol: the least key ((len z, z), u, p, q, r) over
    all admissible tuples, as (key, v), or None.  `work` is refined, so
    the key of each progress state is its displacement.

    Without `by_class`, every tuple (u, p, q, r) is searched on its own,
    one after another, each search bounded by the length of the best
    witness so far, and without a cap.  With it, the p of one u that share
    component, acceptance and displacement are searched together for each
    (q, r), the class at its least p; all these searches run as one, under
    one node budget of `cap`, and the least p of the class for which the
    word found splits completes the key."""
    progress = work.progress
    disps = [B.keys for B in progress]
    comps = [_components(B) for B in progress]
    tuples = []  # (u, v, ps, q, r)
    for u, Bu in enumerate(progress):
        acc_u = Bu.accepting
        comp_u = comps[u][0]
        for p in range(Bu.n):
            v = disps[u][p]
            Bv = progress[v]
            acc_v = Bv.accepting
            cyc_v = comps[v][1]
            ps = [p]
            if by_class:
                ps = [s for s in range(Bu.n)
                      if comp_u[s] == comp_u[p] and disps[u][s] == v
                      and (s in acc_u) == (p in acc_u)]
                if ps[0] != p:
                    continue
            for q in range(Bu.n):
                if (p in acc_u) != (q in acc_u):
                    continue
                if comp_u[p] != comp_u[q]:
                    continue
                for r in range(Bv.n):
                    if disps[v][r] != u:
                        continue
                    if (p in acc_u) == (r in acc_v):
                        continue
                    # Every state of a refined family is reachable, so r
                    # only has to lie on a cycle.
                    if r not in cyc_v:
                        continue
                    tuples.append((u, v, ps, q, r))
    searches = [(progress[u], progress[v], ps, q, r)
                for u, v, ps, q, r in tuples]
    if by_class:
        budget = math.inf if cap is None else cap
        z, hits = fdwa_witness_by_symbol(searches, math.inf, budget)
    else:
        assert cap is None, "the per-tuple reference takes no cap"
        z, hits, limit = None, [], math.inf
        for i, search in enumerate(searches):
            w, _ = fdwa_witness_by_symbol([search], limit, math.inf)
            if w is None or z is not None and (len(w), w) > (len(z), z):
                continue
            if w != z:
                z, hits, limit = w, [], len(w)
            hits.append(i)
    best = None
    for i in hits:
        u, v, ps, q, r = tuples[i]
        found = next(s for s in ps if fdwa_split_exists(
            progress[u], progress[v], s, q, r, z))
        key = ((len(z), z), u, found, q, r)
        if best is None or key < best[0]:
            best = (key, v)
    return best


def char_sample_by_scan(target: Family) -> Sample:
    """`gen_char_sample` with each progress separator found by scanning
    every word up to length n + 2 in llex order, two UP-membership
    queries per word and pair of states: the reference for the
    transformation search."""
    if target.kind != FDFA:
        raise InputError("characteristic samples are defined for fdfa"
                         " families")
    if not check_saturated(target).ok:
        raise PreconditionError(
            "characteristic samples need a saturated target")
    T = target.leading
    positive, negative = [], []
    emitted = set()

    def emit(u, x):
        if (u, x) not in emitted:
            emitted.add((u, x))
            r = Representation(u, x)
            (positive if up_membership(target, r) else negative).append(r)

    search = loop_search(target)
    loops = {node[:2]: search.word(node)
             for node in itertools.islice(search, T.n, None)
             if node[0] == node[2]}
    lead_sep = {(q, p): _leading_separator(target, q, p)
                for p in range(T.n) for q in range(p)}
    for w, t in _state_words(T):
        for j in range(T.n):
            if j != t:
                v, x = lead_sep[(t, j) if t < j else (j, t)]
                emit(w + v, x)
    for q in range(T.n):
        D = target.progress[q]
        u = T.access_word(q)

        def verdict(w):
            return bool(w) and up_membership(target, Representation(u, w))

        seps = {}
        for s2 in range(D.n):
            for s1 in range(s2):
                x1, x2 = D.access_word(s1), D.access_word(s2)
                for z in words_up_to(D.alphabet, D.n + 2):
                    if verdict(x1 + z) != verdict(x2 + z):
                        seps[(s1, s2)] = z
                        break
                else:
                    raise PreconditionError(
                        "progress states %d and %d of leading state %d admit"
                        " no separating extension" % (s1, s2, q))
        for w, t in _state_words(D):
            for j in range(D.n):
                if j != t:
                    x = w + seps[(t, j) if t < j else (j, t)]
                    if x:
                        emit(u, x)
        for s in sorted(D.accepting):
            if (q, s) not in loops:
                raise PreconditionError(
                    "accepting progress state %d of leading state %d has no"
                    " normalized loop" % (s, q))
            emit(u, tuple(T.alphabet[i] for i in loops[q, s]))
        for a in T.alphabet:
            emit(u, (a,))
    return Sample(positive, negative)
