"""Deciding whether the language of a family is expressible with a single
deterministic weak automaton per leading state.

The decision runs on transition profiles: the profile of a nonempty word maps
each state of an NFA to the set of states reachable by reading the word.
Profiles compose, so the finitely many profiles of an automaton form a monoid
whose structure determines how acceptance behaves under taking powers of
words.  A word is classified by its profile:

* accepting  -- some power of the word is accepted;
* rejecting  -- no power is accepted;
* terminal   -- some power is accepted, but there is a power all of whose
  further powers are rejected.

Expressibility fails exactly when the terminal words contain infinitely many
primitive ("root") words.  The search for that situation works on the profile
graph, looking per terminal profile at the words that first reach it and the
words that loop on it.

Before the profile analysis, the family is normalised in two steps:
``stabilize`` closes acceptance under rotating loop words between leading
states, and ``label_by_leading`` folds the leading structure into the
alphabet, producing a single NFA whose properly labelled loops mirror the
original family.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Union

from .automata import Dfa, Nfa
from .errors import CAP_EXCEEDED, CapExceededError, InputError
from .family import FDFA, FDWA, FNFA, Family
from .fixtures import HASH, next_prime, sigma_plus_dfa, trivial_leading
from .words import Word, as_word, root

REGULAR = "Regular"
NOT_REGULAR = "NotRegular"

ACCEPTING = "Accepting"
REJECTING = "Rejecting"
TERMINAL = "Terminal-Accepting"

CASE_FIRST_VISITORS = "InfinitelyManyFirstVisitors"
CASE_DISTINCT_ROOTS = "DistinctRoots"

DEFAULT_PROFILE_CAP = 100_000


@dataclass(frozen=True)
class TransitionProfile:
    """State-to-state-set summary of a nonempty word.

    ``masks[s]`` is the bitmask of states reachable from s by the word."""

    masks: tuple

    def image(self, state: int) -> frozenset:
        return frozenset(_bits(self.masks[state]))

    def compose(self, other: "TransitionProfile") -> "TransitionProfile":
        """Profile of xy from the profiles of x (self) and y (other)."""
        return TransitionProfile(_compose(self.masks, other.masks))

    @property
    def n(self) -> int:
        return len(self.masks)


@dataclass(frozen=True)
class ProfileClass:
    """Classification of a profile together with the interesting power.

    For Accepting, ``power`` is the least i with tau^i accepted; for
    Terminal-Accepting it is the least i such that tau^i is rejecting."""

    classification: str
    power: Optional[int] = None


@dataclass(frozen=True)
class GoodWitness:
    """Evidence that a terminal profile spawns infinitely many roots.

    ``words`` is (stem, cycle, tail) for InfinitelyManyFirstVisitors -- every
    stem cycle^k tail first reaches the profile -- and (x, u) for
    DistinctRoots, where x first reaches the profile, u loops on it, and the
    two have different primitive roots."""

    profile: TransitionProfile
    case: str
    words: tuple


@dataclass(frozen=True)
class RegularityVerdict:
    status: str
    evidence: Optional[GoodWitness] = None

    @property
    def ok(self) -> bool:
        return self.status == REGULAR


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _compose(first, second):
    """Masks of xy from masks of x and y (apply x, then y)."""
    return tuple(_apply(second, m) for m in first)


def _apply(masks, source: int) -> int:
    out = 0
    for s in _bits(source):
        out |= masks[s]
    return out


def _automaton_parts(A):
    """(symbol profiles, initial mask, accepting mask) for a Dfa or Nfa."""
    if isinstance(A, Nfa):
        sym = [tuple(_mask(A.delta[s][i]) for s in range(A.n))
               for i in range(len(A.alphabet))]
        init = _mask(A.initials)
        acc = _mask(A.accepting)
    elif isinstance(A, Dfa):
        sym = [tuple(1 << A.delta[s][i] for s in range(A.n))
               for i in range(len(A.alphabet))]
        init = 1 << A.initial
        acc = _mask(A.accepting)
    else:
        raise InputError("profiles need a DFA or an NFA")
    return sym, init, acc


def _mask(states) -> int:
    out = 0
    for s in states:
        out |= 1 << s
    return out


def profile_of(A, x) -> TransitionProfile:
    """Transition profile of the nonempty word x on automaton A."""
    x = as_word(x)
    if not x:
        raise InputError("the empty word has no transition profile")
    sym, _, _ = _automaton_parts(A)
    idx = A.sym_index
    try:
        masks = sym[idx[x[0]]]
        for t in x[1:]:
            masks = _compose(masks, sym[idx[t]])
    except KeyError as e:
        raise InputError(f"unknown symbol {e.args[0]!r}") from None
    return TransitionProfile(masks)


def _power_table(masks, cap):
    """All distinct powers of a profile: (powers, preperiod j, period c).

    powers[e-1] = tau^e for e = 1..j+c-1, with tau^(j+c) == tau^j."""
    powers = [masks]
    seen = {masks: 1}
    while True:
        if len(powers) > cap:
            raise CapExceededError("profile power iteration exceeded cap")
        nxt = _compose(powers[-1], masks)
        if nxt in seen:
            j = seen[nxt]
            c = len(powers) + 1 - j
            return powers, j, c
        seen[nxt] = len(powers) + 1
        powers.append(nxt)


def classify_profile(A, tau: TransitionProfile,
                     cap: int = DEFAULT_PROFILE_CAP) -> ProfileClass:
    """Classify a profile of A as Accepting, Rejecting or Terminal-Accepting.

    Powers of tau are iterated until the sequence repeats; acceptance of
    tau^e means its image of the initial set meets the accepting set."""
    sym, init, acc = _automaton_parts(A)
    if tau.n != A.n:
        raise InputError("profile does not match the automaton")
    powers, j, c = _power_table(tau.masks, cap)

    def hit(e: int) -> bool:
        if e > len(powers):
            e = j + (e - j) % c
        return bool(_apply(powers[e - 1], init) & acc)

    hits = [hit(e) for e in range(1, len(powers) + 1)]
    if not any(hits):
        return ProfileClass(REJECTING)
    first = hits.index(True) + 1
    # tau^i is rejecting when no multiple of i is a hit; multiples settle
    # into a residue cycle, so scanning m up to j+c is exhaustive.
    bound = j + c
    for i in range(1, len(powers) + 1):
        if all(not hit(i * m) for m in range(1, bound + 1)):
            return ProfileClass(TERMINAL, i)
    return ProfileClass(ACCEPTING, first)


def _to_sets(progress):
    """Uniform NFA view: (initials, accepting set, delta[s][si] -> frozenset)."""
    if isinstance(progress, Nfa):
        return frozenset(progress.initials), frozenset(progress.accepting), \
            progress.delta
    delta = tuple(tuple(frozenset((t,)) for t in row)
                  for row in progress.delta)
    return frozenset((progress.initial,)), frozenset(progress.accepting), \
        delta


def stabilize(F: Family) -> Family:
    """Close acceptance under rotating loop words, keeping the UP-language.

    The progress automaton built for leading state q accepts x whenever some
    split x = x1 x2 with x2 x1 accepted by the progress automaton of
    T(q, x1) exists.  Each split is simulated with a guessed automaton state
    p: first x1 is read from p (tracking the leading state from q), then,
    after an internal jump at an accepting state, x2 is read from the initial
    states and must end exactly at p."""
    if F.kind == FDWA:
        raise InputError("stabilization applies to fdfa and fnfa families")
    T = F.leading
    syms = range(len(T.alphabet))
    parts = [_to_sets(p) for p in F.progress]
    out = []
    for q in range(T.n):
        # Phase-1 nodes (q2, p, r, s): reading x1 from guessed state p while
        # the leading component runs from q; phase-2 nodes (q2, p, s).
        states = {}
        order = []

        def node(key):
            if key not in states:
                states[key] = len(order)
                order.append(key)
            return states[key]

        initials = set()
        edges = {}

        def close(key):
            """The internal jump: an accepting phase-1 node also counts as
            the matching phase-2 start."""
            keys = [key]
            if key[0] == 1:
                _, q2, p, r, s = key
                inits2, acc2, _ = parts[q2]
                if s in acc2 and r == q2:
                    keys.extend((2, q2, p, i2) for i2 in inits2)
            return [node(k) for k in keys]

        for q2 in range(T.n):
            inits2, acc2, delta2 = parts[q2]
            for p in range(len(delta2)):
                for i in close((1, q2, p, q, p)):
                    initials.add(i)
        frontier = list(range(len(order)))
        while frontier:
            i = frontier.pop()
            key = order[i]
            before = len(order)
            if key[0] == 1:
                _, q2, p, r, s = key
                _, _, delta2 = parts[q2]
                for si in syms:
                    r2 = T.delta[r][si]
                    succs = set()
                    for s2 in delta2[s][si]:
                        succs.update(close((1, q2, p, r2, s2)))
                    edges[i, si] = succs
            else:
                _, q2, p, s = key
                _, _, delta2 = parts[q2]
                for si in syms:
                    edges[i, si] = {node((2, q2, p, s2))
                                    for s2 in delta2[s][si]}
            frontier.extend(range(before, len(order)))
        accepting = [i for i, key in enumerate(order)
                     if key[0] == 2 and key[3] == key[2]]
        delta = {(i, T.alphabet[si]): ts for (i, si), ts in edges.items()}
        out.append(Nfa(T.alphabet, len(order), delta, initials,
                       accepting).trim())
    return Family(FNFA, T, out)


def label_by_leading(F: Family) -> Family:
    """Fold the leading structure into the alphabet.

    Symbols of the output are "q:a" tokens; a loop is accepted when its
    tokens follow the leading transitions of F, close back to their starting
    state, and the projected word is accepted by that state's progress
    automaton.  The input must already be stable under loop rotation (apply
    stabilize first); the output has a single leading state, so every pair
    is normalized."""
    if F.kind != FNFA:
        raise InputError("labelling expects an fnfa (stabilize first)")
    T = F.leading
    tokens = tuple(f"{q}:{a}" for q in range(T.n) for a in T.alphabet)
    nsym = len(T.alphabet)
    parts = [_to_sets(p) for p in F.progress]
    # States (q, r, s): progress run s of automaton q, leading tracker r.
    states = {}
    order = []

    def node(key):
        if key not in states:
            states[key] = len(order)
            order.append(key)
        return states[key]

    initials = set()
    for q in range(T.n):
        inits, _, _ = parts[q]
        for s0 in inits:
            initials.add(node((q, q, s0)))
    delta = {}
    frontier = list(range(len(order)))
    while frontier:
        i = frontier.pop()
        q, r, s = order[i]
        _, _, dq = parts[q]
        before = len(order)
        for si in range(nsym):
            succs = dq[s][si]
            if not succs:
                continue
            tok = tokens[r * nsym + si]
            r2 = T.delta[r][si]
            delta[i, tok] = {node((q, r2, s2)) for s2 in succs}
        frontier.extend(range(before, len(order)))
    accepting = [i for i, (q, r, s) in enumerate(order)
                 if r == q and s in parts[q][1]]
    union = Nfa(tokens, len(order), delta, initials, accepting).trim()
    return Family(FNFA, trivial_leading(tokens), [union])


def _least_words(starts, target: int, succ, nsym: int, k: int,
                 block: Optional[int] = None):
    """Up to k llex-least words reaching target, never passing through the
    blocked node; starts is a list of (node, word-as-index-tuple) seeds.
    Reaching the target ends a word, so it is never crossed either."""
    heap = [(len(w), w, v) for v, w in starts]
    heapq.heapify(heap)
    pops = {}
    out = []
    while heap and len(out) < k:
        l, w, v = heapq.heappop(heap)
        if v == block or pops.get(v, 0) >= k:
            continue
        pops[v] = pops.get(v, 0) + 1
        if v == target:
            out.append(w)
            continue
        for si in range(nsym):
            heapq.heappush(heap, (l + 1, w + (si,), succ[v][si]))
    return out


def find_good_witness(N: Nfa, cap: int = DEFAULT_PROFILE_CAP
                      ) -> Optional[GoodWitness]:
    """Search the profile graph of N for a terminal profile generating
    infinitely many primitive words.

    N is the progress NFA of a rotation-stable family folded to a single
    leading state.  Terminal profiles are tried in order of their least
    generating word; the first one whose first-visitor/recurrence structure
    is rich enough yields the witness."""
    nsym = len(N.alphabet)
    if nsym == 0:
        return None
    sym, init, acc = _automaton_parts(N)

    profiles = []          # masks in discovery order
    index = {}
    words = []             # llex-least generating word (index tuple)
    succ = []              # succ[i][si] -> profile id
    queue = []
    for si in range(nsym):
        m = tuple(sym[si])
        if m not in index:
            index[m] = len(profiles)
            profiles.append(m)
            words.append((si,))
            succ.append([None] * nsym)
            queue.append(index[m])
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for si in range(nsym):
            m = _compose(profiles[i], sym[si])
            j = index.get(m)
            if j is None:
                if len(profiles) >= cap:
                    raise CapExceededError(
                        f"profile graph exceeded cap {cap}")
                j = index[m] = len(profiles)
                profiles.append(m)
                words.append(words[i] + (si,))
                succ.append([None] * nsym)
                queue.append(j)
            succ[i][si] = j

    classes = {}

    def cls(i: int) -> ProfileClass:
        if i not in classes:
            classes[i] = classify_profile(N, TransitionProfile(profiles[i]),
                                          cap)
        return classes[i]

    def to_word(idxs) -> Word:
        return tuple(N.alphabet[si] for si in idxs)

    terminals = [i for i in range(len(profiles))
                 if cls(i).classification == TERMINAL]
    preds = {}
    for i in range(len(profiles)):
        for si in range(nsym):
            preds.setdefault(succ[i][si], []).append(i)
    for g in terminals:
        # Region of profiles lying on a first-visit path to g.
        seed_ids = [index[tuple(sym[si])] for si in range(nsym)]
        reach = set()
        todo = [i for i in seed_ids if i != g]
        reach.update(todo)
        while todo:
            i = todo.pop()
            for j in succ[i]:
                if j != g and j not in reach:
                    reach.add(j)
                    todo.append(j)
        coreach = set()
        todo = [i for i in preds.get(g, []) if i != g]
        coreach.update(todo)
        while todo:
            i = todo.pop()
            for j in preds.get(i, []):
                if j != g and j not in coreach:
                    coreach.add(j)
                    todo.append(j)
        region = reach & coreach

        def cycles_back(i: int) -> bool:
            seen = set()
            todo = [j for j in succ[i] if j in region]
            while todo:
                j = todo.pop()
                if j == i:
                    return True
                if j in seen:
                    continue
                seen.add(j)
                todo.extend(t for t in succ[j] if t in region)
            return False

        rho = next((i for i in sorted(region) if cycles_back(i)), None)
        if rho is not None:
            seeds = [(i, (si,)) for si, i in enumerate(seed_ids) if i != g]
            stem = _least_words(seeds, rho, succ, nsym, 1, block=g)[0]
            cyc_seeds = [(succ[rho][si], (si,)) for si in range(nsym)]
            cycle = _least_words(cyc_seeds, rho, succ, nsym, 1, block=g)[0]
            tail = _least_words(cyc_seeds, g, succ, nsym, 1)[0]
            return GoodWitness(TransitionProfile(profiles[g]),
                               CASE_FIRST_VISITORS,
                               (to_word(stem), to_word(cycle),
                                to_word(tail)))

        seeds = [(i, (si,)) for si, i in enumerate(seed_ids)]
        fvs = _least_words(seeds, g, succ, nsym, 2)
        rec_seeds = [(succ[g][si], (si,)) for si in range(nsym)]
        recs = _least_words(rec_seeds, g, succ, nsym, 2)
        if not recs:
            continue
        if len(fvs) >= 2:
            u = to_word(recs[0])
            x = next(to_word(w) for w in fvs
                     if root(to_word(w)) != root(u))
            return GoodWitness(TransitionProfile(profiles[g]),
                               CASE_DISTINCT_ROOTS, (x, u))
        x = to_word(fvs[0])
        if len(recs) >= 2:
            u = next(to_word(w) for w in recs
                     if root(to_word(w)) != root(x))
            return GoodWitness(TransitionProfile(profiles[g]),
                               CASE_DISTINCT_ROOTS, (x, u))
        u = to_word(recs[0])
        # Unique first visitor and unique recurrence: all terminal words of
        # this profile are x u^k, which have finitely many primitive members
        # exactly when some reachable profile has two distinct powers equal
        # to the terminal one (a joint root).
        gm = profiles[g]
        shared = False
        for i in range(len(profiles)):
            powers, _, _ = _power_table(profiles[i], cap)
            if sum(1 for pm in powers if pm == gm) >= 2:
                shared = True
                break
        if shared or root(x) == root(u):
            continue
        return GoodWitness(TransitionProfile(profiles[g]),
                           CASE_DISTINCT_ROOTS, (x, u))
    return None


def check_regular(F: Family,
                  cap: int = DEFAULT_PROFILE_CAP) -> RegularityVerdict:
    """Decide whether the family's UP-language is expressible with weak
    deterministic progress automata."""
    if cap < 1:
        raise InputError("cap must be positive")
    if F.kind == FDWA:
        F.require_weak()
        return RegularityVerdict(REGULAR)
    stable = stabilize(F)
    labeled = label_by_leading(stable)
    try:
        witness = find_good_witness(labeled.progress[0], cap)
    except CapExceededError:
        return RegularityVerdict(CAP_EXCEEDED)
    if witness is None:
        return RegularityVerdict(REGULAR)
    return RegularityVerdict(NOT_REGULAR, witness)


def gen_ter_hardness(dfas) -> Dfa:
    """Reduce DFA intersection emptiness to terminal-root scarcity.

    The result reads #-separated blocks; block i is matched against
    D_{(i-1 mod p)+1}, where the input list is padded with all-accepting
    automata to the next prime length p.  A word is accepted when some block
    fails its automaton, or when every block is in L(D_1) and the block
    count is not divisible by p.  Terminal primitive words are then exactly
    the aperiodic block sequences drawn from the intersection, so roots
    exist (and, for infinite intersections, grow) precisely when the
    intersection is nonempty."""
    dfas = list(dfas)
    if not dfas:
        raise InputError("need at least one input automaton")
    alphabet = dfas[0].alphabet
    if HASH in alphabet:
        raise InputError(f"input alphabet may not contain {HASH!r}")
    for d in dfas:
        if d.alphabet != alphabet:
            raise InputError("input automata must share one alphabet")
        if d.initial in d.accepting:
            raise InputError("input automata must not accept the empty word")
    p = next_prime(len(dfas))
    while len(dfas) < p:
        dfas.append(sigma_plus_dfa(alphabet))
    full = tuple(alphabet) + (HASH,)
    d1 = dfas[0]

    def step(key, a):
        tag = key[0]
        if tag in ("dead", "defect"):
            return key
        if tag == "init":
            return ("track", 0, d1.initial, d1.initial, True) \
                if a == HASH else ("dead",)
        _, i, q1, qi, ok = key
        di = dfas[i]
        if a != HASH:
            return ("track", i, d1.delta[q1][d1.sym_index[a]],
                    di.delta[qi][di.sym_index[a]], ok)
        if qi not in di.accepting:
            return ("defect",)
        i2 = (i + 1) % p
        return ("track", i2, d1.initial, dfas[i2].initial,
                ok and q1 in d1.accepting)

    def accepting(key):
        tag = key[0]
        if tag == "defect":
            return True
        if tag != "track":
            return False
        _, i, q1, qi, ok = key
        if qi not in dfas[i].accepting:
            return True
        return ok and q1 in d1.accepting and i != p - 1

    return Dfa.build(full, ("init",), step, accepting=accepting)


def brute_ter_roots(A, len_bound: int) -> set:
    """All primitive words up to len_bound whose profile is terminal."""
    if len_bound < 0:
        raise InputError("length bound must be nonnegative")
    sym, _, _ = _automaton_parts(A)
    classes = {}

    def terminal(masks) -> bool:
        if masks not in classes:
            c = classify_profile(A, TransitionProfile(masks))
            classes[masks] = c.classification == TERMINAL
        return classes[masks]

    out = set()
    layer = [((), None)]
    for _ in range(len_bound):
        nxt = []
        for w, masks in layer:
            for si, a in enumerate(A.alphabet):
                m2 = sym[si] if masks is None else _compose(masks, sym[si])
                w2 = w + (a,)
                nxt.append((w2, m2))
                if terminal(m2) and root(w2) == w2:
                    out.add(w2)
        layer = nxt
    return out
