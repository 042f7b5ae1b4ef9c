"""Deciding whether the UP-language of a family is regular.

The UP-language of a family F is the set of ultimately periodic words with
an accepted normalized representation: the words that ``stabilize`` keeps
and that ``oracle.normalized_word_accepts`` decides.  F is Regular when
that set is the set of UP-words of an omega-regular language, that is, when
it is expressible with a single deterministic weak automaton per leading
state.

The decision runs on transition profiles: the profile of a nonempty word maps
each state of an NFA to the set of states reachable by reading the word, its
row for that state, a bitmask of states.  Profiles compose, so the finitely
many profiles of an automaton form a monoid whose structure determines how
acceptance behaves under taking powers of words.  A word is classified by
its profile:

* accepting  -- some power of the word is accepted;
* rejecting  -- no power is accepted;
* terminal   -- some power is accepted, but there is a power all of whose
  further powers are rejected.

Expressibility fails exactly when the terminal words contain infinitely many
primitive ("root") words.  The search for that situation works on the profile
graph, looking per terminal profile at the words that first reach it and the
words that loop on it.

The profile graph is numbered by `automata.canonical_bfs`, with the
one-letter profiles as its starts.  A successor is composed row by row:
row s of the profile of xa is the image under a of row s of the profile
of x, the set of states that a leads to from the states x reaches from
s.  That image depends only on the row mask, not on x or s.  Rows repeat
heavily across profiles (the 7,726 profiles of `zero-u-zero-fdfa` n=5,
91 rows each, hold 568 distinct rows), so each distinct row mask gets a
small row id, and a profile is known only by its key, the tuple of its
row ids: two profiles are equal exactly when their keys are, and the
graph numbers keys.  One profile space per NFA holds the row ids, the
keys of the one-letter profiles and the masks of the initial and
accepting sets.  Each symbol keeps a column from row id to the id of the
row's image, so a successor is one itemgetter of the key's row ids
applied to the column; a big-int mask is hashed only when a row's image
is first computed.  The columns are filled lazily: when a profile is
expanded, its rows that have no image yet get theirs under every symbol.
So every row whose image is computed is a row of a profile the cap
admitted.  Closing the set of rows under the symbols instead would
compute the rows of profiles the cap never admits, and that closure can
be exponential where the cap stops the graph.

A profile is classified on its key, by its orbit: tau^e is accepted
exactly when the image of the initial set under tau^e meets the
accepting set, so it is enough to follow that image, one step per power,
until it repeats; the matrix powers themselves are never formed.  Each
step is the union of the rows, looked up by the key's row ids, of the
states in the image.  Every element of a finite monoid has an idempotent
power, so a profile is terminal exactly when some power of it is
accepted and its idempotent power is rejected: one lookup on the orbit.
For a terminal profile g, the profiles that a first-visit path to g can
pass form a region (reachable from the one-letter profiles and
co-reachable to g, with g avoided).  The least region profile on a cycle
inside the region, found through the strongly connected components of
the subgraph the region induces, gives infinitely many first visitors
stem cycle^k tail.

The words of a witness come from one search for the k least words that
reach a profile, the unit-weight case of k shortest walks.  It is a FIFO
of entries (profile, parent entry, symbol), seeded with the one-letter
words in symbol order, and each profile gets at most k entries, counted
when an entry is made.  Entries are made in llex order of their words,
by induction: the seeds are, and entries leave the FIFO in the order they
were made, so the children of an entry, made in symbol order as it
leaves, come after those of every smaller entry and before those of every
larger one.  A prefix of
one of the k least words to a profile is one of the k least words to its
own profile (k smaller words there would give k smaller words with the
same suffix), so the count drops none of them, and a profile's first k
entries are its k least words: the order in which a heap of words would
pop them, without the heap.  Only the words that reach the target are
rebuilt from the parent links.  The first visitors and the recurrences of
a terminal profile take k = 2, and the stem, cycle and tail take k = 1.
Entries are made only at profiles that can reach the target (without
entering g, for the stem and the cycle): the profiles below an entry
that cannot reach it cannot either, so no hit is lost and the other
entries keep their order and counts.

Classification is lazy: keys are classified one at a time in discovery
order, and the search stops at the first terminal profile that yields a
witness.  A Regular input still classifies every profile once.  No key is
turned into masks beyond the rows its own classification reads.

Before the profile analysis, the family is normalised in two steps:
``stabilize`` closes acceptance under rotating loop words between leading
states, and ``label_by_leading`` folds the leading structure into the
alphabet, producing a single NFA whose properly labelled loops mirror the
original family.

An almost-saturated FDFA is Regular, and ``check_regular`` answers it with
``almost.check_almost_saturated`` before any of the steps above.  Let A be
the Buchi automaton that ``translate.fdwa_to_nba`` builds, run on the
progress DFAs D_q of F (the construction reads only their transitions and
accepting sets).  A reads a spoke to a leading state q, guesses an accepting
state p of D_q, and then reads blocks that loop the leading system on q,
lead D_q from its initial state to p and lead p to p.

* A accepts only words with an accepted normalized representation: take
  two block boundaries at the same phase of the period.  The blocks between
  them merge into one loop on q; its first block leads the initial state of
  D_q to p and every further block leads p to p, so the loop is accepted.
* Conversely, let (u, x) be normalized and accepted, and let k be the
  idempotent power of x on D_q, so x^k and x^2k move every state of D_q
  alike.  Almost saturation keeps (u, x^k) accepted, so p = init.x^k is
  accepting and p.x^k = init.x^2k = p: after u, A reads x^k, x^k, ... as
  blocks.

So the UP-words of A are exactly the UP-language of F, which is therefore
omega-regular.  The profile criterion agrees without a cap.  A word w^i
that the labelled NFA accepts spells a loop x1 x2 on a leading state q
whose rotation x2 x1 F accepts on T(q, x1).  Almost saturation keeps every
(x2 x1)^j accepted there, and their rotations by x1 spell the w^ij.  So
every multiple of an accepted power of w is accepted; if w^e is the
idempotent power, w^ie is one of them and has the profile of w^e, so w^e is
accepted: no profile is terminal.  The short-cut only ever answers
Regular, so a NotRegular witness, and the outcome of every input that is
not almost saturated, are those of the profile analysis.  An
almost-saturated input whose monoid walk fits the cap is decided even
where its profile graph would exceed that cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .almost import (ALMOST_SATURATED, HASH, check_almost_saturated,
                     padded_chain)
from .automata import (Dfa, Nfa, canonical_bfs, on_cycle, orbit, reachable,
                       strongly_connected_components)
from .errors import CAP_EXCEEDED, CapExceededError, InputError, Verdict
from .family import FDFA, FDWA, FNFA, Family, trivial_leading
from .words import Word, root

REGULAR = "Regular"
NOT_REGULAR = "NotRegular"

ACCEPTING = "Accepting"
REJECTING = "Rejecting"
TERMINAL = "Terminal-Accepting"

CASE_FIRST_VISITORS = "InfinitelyManyFirstVisitors"
CASE_DISTINCT_ROOTS = "DistinctRoots"

DEFAULT_PROFILE_CAP = 100_000


@dataclass(frozen=True)
class GoodWitness:
    """Evidence that a terminal profile spawns infinitely many roots.

    ``words`` is (stem, cycle, tail) for InfinitelyManyFirstVisitors -- every
    stem cycle^k tail first reaches the profile -- and (x, u) for
    DistinctRoots, where x first reaches the profile, u loops on it, and the
    two have different primitive roots."""

    case: str
    words: tuple


def _apply(masks, source: int) -> int:
    out = 0
    while source:
        low = source & -source
        out |= masks[low.bit_length() - 1]
        source ^= low
    return out


def _mask(states) -> int:
    return sum(1 << s for s in set(states))


def classify_profile(space: _Profiles, key: tuple) -> str:
    """Classify the profile tau with this key in the space as Accepting,
    Rejecting or Terminal-Accepting.

    tau^e is accepted when v_e = init.tau^e meets the accepting set, so
    only this orbit (e >= 1) matters.  It is followed until a value
    repeats, v_(j+c) = v_j.  When no v_e meets the accepting set, tau is
    Rejecting.

    Otherwise let P be the least multiple of c that is at least j.  For
    every m >= 1, mP >= j and c divides mP, so v_mP = v_P.  So P is a power
    with no accepted power exactly when v_P misses the accepting set.
    Conversely, any power i with no accepted power has the power i.P,
    whose image is v_P.  So tau is Terminal-Accepting exactly when v_P
    misses the accepting set; v_P is init under tau's idempotent power."""
    rows, acc = space.rows(key), space.acc
    values, k = orbit(_apply(rows, space.init), lambda v: _apply(rows, v))
    if not any(v & acc for v in values):
        return REJECTING
    c = len(values) - k  # values[e - 1] is v_e, and j = k + 1
    P = (k // c + 1) * c  # the least multiple of c that is at least j
    return ACCEPTING if values[P - 1] & acc else TERMINAL


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

    # Phase-1 keys (1, q2, p, r, s) read x1 from the guessed state p while
    # the leading component r runs on; phase-2 keys (2, q2, p, s) read x2.
    def close(key):
        """The key, and for an accepting phase-1 key also the matching
        phase-2 starts: the internal jump."""
        yield key
        _, q2, p, r, s = key
        inits2, acc2, _ = parts[q2]
        if s in acc2 and r == q2:
            yield from ((2, q2, p, i2) for i2 in inits2)

    def edges(key):
        delta2 = parts[key[1]][2]
        if key[0] == 1:
            _, q2, p, r, s = key
            for si in syms:
                r2 = T.delta[r][si]
                yield T.alphabet[si], [k for s2 in delta2[s][si]
                                       for k in close((1, q2, p, r2, s2))]
        else:
            _, q2, p, s = key
            for si in syms:
                yield T.alphabet[si], [(2, q2, p, s2)
                                       for s2 in delta2[s][si]]

    def accepting(key):
        return key[0] == 2 and key[3] == key[2]

    out = []
    for q in range(T.n):
        starts = [k for q2 in range(T.n) for p in range(len(parts[q2][2]))
                  for k in close((1, q2, p, q, p))]
        out.append(Nfa.build(T.alphabet, starts, edges, accepting))
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

    # Keys (q, r, s): progress run s of automaton q, leading tracker r.
    def edges(key):
        q, r, s = key
        dq = parts[q][2]
        for si in range(nsym):
            r2 = T.delta[r][si]
            yield tokens[r * nsym + si], [(q, r2, s2) for s2 in dq[s][si]]

    starts = [(q, q, s0) for q in range(T.n) for s0 in parts[q][0]]
    union = Nfa.build(tokens, starts, edges,
                      lambda key: key[1] == key[0]
                      and key[2] in parts[key[0]][1])
    return Family(FNFA, trivial_leading(tokens), [union])


def _least_words(starts, target: int, succ, k: int, live) -> list:
    """Up to k llex-least nonempty words that reach target and stay in
    live, as tuples of symbol indices: symbol si leads to starts[si] and
    from v to succ[v][si].  Reaching target ends a word, so it is never
    crossed.  A FIFO holds entries (node, parent entry, symbol), made only
    at nodes of live, which must hold target, and each node gets at most
    k entries, counted when one is made.  Callers pass as live the nodes
    that can reach target; the words are then those a search on every
    node would give (see the module docstring)."""
    entries: list = []  # (node, index of the parent entry or -1, symbol)
    hits: list = []  # (parent, symbol) of the entries made for target
    made: dict = {}
    parent, row = -1, starts
    while len(hits) < k:
        for si, v in enumerate(row):
            n = made.get(v, 0)
            if n < k and v in live:
                made[v] = n + 1
                if v == target:
                    hits.append((parent, si))
                else:
                    entries.append((v, parent, si))
        parent += 1
        if parent == len(entries):
            break
        row = succ[entries[parent][0]]
    words = []
    for e, si in hits:
        word = [si]
        while e >= 0:
            _, e, si = entries[e]
            word.append(si)
        words.append(tuple(reversed(word)))
    return words


def _least_on_cycle(region: set, succ) -> Optional[int]:
    """The least node of region on a cycle of the subgraph region
    induces."""
    nodes = sorted(region)
    pos = {v: k for k, v in enumerate(nodes)}
    sub = [[pos[t] for t in succ[v] if t in pos] for v in nodes]
    cyclic = [k for comp in strongly_connected_components(len(nodes), sub)
              if on_cycle(comp, sub) for k in comp]
    return nodes[min(cyclic)] if cyclic else None


class _Profiles:
    """The profiles of N as keys, the tuples of their row ids (see the
    module docstring).  masks[r] is the mask of row id r, and cols[si][r]
    the id of its image under symbol si, None until a key holding r is
    expanded; filled counts the rows whose images are in the columns.
    letters[si] is the key of symbol si, and init and acc are the masks
    of N's initial and accepting sets.  itemgetter of a single index
    returns the item, not a tuple, so an NFA of at most one state takes
    its own getter."""

    def __init__(self, N: Nfa):
        self.n = N.n
        self.sym = [tuple(_mask(N.delta[s][i]) for s in range(N.n))
                    for i in range(len(N.alphabet))]
        self.masks, self.ids, self.filled = [], {}, 0
        self.cols: list = [[] for _ in self.sym]
        self.getter = itemgetter if N.n > 1 else \
            lambda *rows: lambda seq: tuple(map(seq.__getitem__, rows))
        self.init, self.acc = _mask(N.initials), _mask(N.accepting)
        self.letters = [self.key(m) for m in self.sym]

    def key(self, masks) -> tuple:
        """The key of the profile with these masks, one per state."""
        if len(masks) != self.n:
            raise InputError("profile does not match the automaton")
        return tuple(map(self.row_id, masks))

    def row_id(self, mask: int) -> int:
        r = self.ids.get(mask)
        if r is None:
            r = self.ids[mask] = len(self.masks)
            self.masks.append(mask)
            for col in self.cols:
                col.append(None)
        return r

    def rows(self, key) -> tuple:
        """The masks of the profile with this key."""
        return self.getter(*key)(self.masks)

    def successors(self, key) -> list:
        """The keys of the successors of this key, one per symbol.  The
        rows of the key that have no images yet get them under every
        symbol."""
        get, cols = self.getter(*key), self.cols
        out = [get(col) for col in cols]
        if self.filled < len(self.masks) and None in out[0]:
            for r in key:
                if cols[0][r] is None:
                    self.filled += 1
                    for m, col in zip(self.sym, cols):
                        col[r] = self.row_id(_apply(m, self.masks[r]))
            out = [get(col) for col in cols]
        return out


def _profile_graph(N: Nfa, cap: int):
    """(space, succ, keys, letters) of N: its profile space; succ[i][si],
    the id of the profile of x followed by symbol si for any word x with
    profile i; the keys in discovery order, the one-letter profiles
    first; and letters[si], the id of the profile of symbol si.  The
    one-letter profiles are the starts of `canonical_bfs`, so they are
    admitted whatever `cap` is; discovering any other profile while `cap`
    profiles are numbered raises CapExceededError."""
    space = _Profiles(N)
    succ, keys = canonical_bfs(space.letters, space.successors, cap)
    return space, succ, keys, [keys.index(k) for k in space.letters]


def find_good_witness(N: Nfa, cap: int = DEFAULT_PROFILE_CAP
                      ) -> Optional[GoodWitness]:
    """Search the profile graph of N for a terminal profile generating
    infinitely many primitive words.

    N is the progress NFA of a rotation-stable family folded to a single
    leading state.  Terminal profiles are tried in order of their least
    generating word; the first one whose first-visitor/recurrence structure
    is rich enough yields the witness."""
    space, succ, keys, letters = _profile_graph(N, cap)

    def to_word(idxs) -> Word:
        return tuple(N.alphabet[si] for si in idxs)

    preds = [[] for _ in keys]
    for i, row in enumerate(succ):
        for j in row:
            preds[j].append(i)
    for g, key in enumerate(keys):
        if classify_profile(space, key) != TERMINAL:
            continue
        # Profiles on a first-visit path to g, and the least one of them
        # that such a path can pass twice.
        to_g = reachable(preds[g], preds.__getitem__, g)
        region = reachable(letters, succ.__getitem__, g) & to_g
        to_g.add(g)
        rho = _least_on_cycle(region, succ)
        if rho is not None:
            to_rho = reachable(preds[rho], preds.__getitem__, g)
            to_rho.add(rho)
            stem, = _least_words(letters, rho, succ, 1, to_rho)
            cycle, = _least_words(succ[rho], rho, succ, 1, to_rho)
            tail, = _least_words(succ[rho], g, succ, 1, to_g)
            return GoodWitness(CASE_FIRST_VISITORS,
                               (to_word(stem), to_word(cycle), to_word(tail)))

        fvs = _least_words(letters, g, succ, 2, to_g)
        recs = _least_words(succ[g], g, succ, 2, to_g)
        if not recs:
            continue
        # With two first visitors, pair each with the least recurrence;
        # otherwise pair the one first visitor with each recurrence.  A
        # unique first visitor x and a unique recurrence u make every word
        # with profile g some x u^k.  These have finitely many roots when
        # x and u commute, that is share a root; otherwise all but finitely
        # many x u^k are primitive (Lyndon-Schutzenberger).
        pairs = ([(x, recs[0]) for x in fvs] if len(fvs) >= 2
                 else [(fvs[0], u) for u in recs])
        for x, u in pairs:
            x, u = to_word(x), to_word(u)
            if root(x) != root(u):
                return GoodWitness(CASE_DISTINCT_ROOTS, (x, u))
    return None


def check_regular(F: Family, cap: int = DEFAULT_PROFILE_CAP) -> Verdict:
    """Decide whether the family's UP-language is expressible with weak
    deterministic progress automata.

    An FDFA that `check_almost_saturated` finds almost saturated within
    `cap` monoid nodes is Regular at once; any other FDFA or FNFA goes
    through the profile graph, which `cap` bounds separately."""
    if cap < 1:
        raise InputError("cap must be positive")
    if F.kind == FDWA:
        F.require_weak()
        return Verdict(REGULAR)
    if F.kind == FDFA and \
            check_almost_saturated(F, cap=cap).status == ALMOST_SATURATED:
        return Verdict(REGULAR)
    labeled = label_by_leading(stabilize(F)).progress[0]
    try:
        witness = find_good_witness(labeled, cap)
    except CapExceededError:
        return Verdict(CAP_EXCEEDED)
    return Verdict(REGULAR if witness is None else NOT_REGULAR, witness)


def gen_ter_hardness(dfas) -> Dfa:
    """Reduce DFA intersection emptiness to terminal-root scarcity.

    The result reads #-separated blocks; block i is matched against
    D_{(i-1 mod p)+1}, where `padded_chain` pads the input list to prime
    length p.  A word is accepted when some block
    fails its automaton, or when every block is in L(D_1) and the block
    count is not divisible by p.  Terminal primitive words are then exactly
    the aperiodic block sequences drawn from the intersection, so roots
    exist (and, for infinite intersections, grow) precisely when the
    intersection is nonempty."""
    dfas = padded_chain(dfas)
    p = len(dfas)
    full = tuple(dfas[0].alphabet) + (HASH,)
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

