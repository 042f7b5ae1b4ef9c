"""Translations between acceptor models, plus generators for the
parameterized benchmark families.

fdwa_to_nba folds a family of weak automata into one Buchi automaton with
the same normalized UP-language.  complement_saturated_fdwa flips the
acceptance sets of a saturated family.  fdwa_to_duo and duo_to_fdwa move
between the omega reading of a structure and its doubling-stable finite
reading.  gen_family builds the named benchmark families used by the test
suites and the command line.
"""

from __future__ import annotations

from .automata import Dfa, Nba, TransitionSystem, dfa_sccs, llex_bfs
from .errors import InputError, PreconditionError
from .family import FDFA, FDWA, Family
from .fixtures import trivial_leading
from .saturation import check_fdwa_saturated
from .words import Representation

GEN_FAMILY_NAMES = ("fixpoint-fdwa", "fixpoint-alsat", "subset-occurrence",
                    "zero-u-zero-fdfa", "zero-u-zero-fdwa", "syntactic-gap")


def fdwa_to_nba(W: Family) -> Nba:
    """Buchi automaton whose UP-words are exactly the words with an
    accepted normalized representation in W.

    The automaton reads a spoke, then guesses an accepting progress state
    p of the current leading state's progress automaton and checks that
    the rest of the word splits into blocks that loop on the leading
    state and that each reach p from the progress initial state and loop
    on p.  Block boundaries are the Buchi states: a word with infinitely
    many of them has an accepted representation obtained by merging
    blocks between two boundaries with equal suffixes, and conversely an
    accepted (u, x) yields uniform blocks x^k for a suitable k.
    """
    if W.kind != FDWA:
        raise InputError("fdwa_to_nba expects an fdwa")
    W.require_weak()
    T = W.leading
    alphabet = T.alphabet

    index: dict = {}
    order: list = []
    work: list = []

    def sid(key):
        s = index.get(key)
        if s is None:
            s = len(order)
            index[key] = s
            order.append(key)
            work.append(key)
        return s

    def starts(q):
        return [sid(("start", q, p)) for p in sorted(W.progress[q].accepting)]

    initials = {sid(("spoke", T.initial))}
    initials.update(starts(T.initial))

    delta: dict = {}
    while work:
        key = work.pop()
        s = index[key]
        if key[0] == "spoke":
            t = key[1]
            for ai, a in enumerate(alphabet):
                t2 = T.delta[t][ai]
                targets = {sid(("spoke", t2))}
                targets.update(starts(t2))
                delta[(s, a)] = targets
            continue
        # "start" states carry the coordinates of a fresh block but keep a
        # separate identity: a visit then certifies that a block closed,
        # while a running block that merely drifts through the same
        # coordinates stays in an ordinary (and rejecting) "block" state.
        if key[0] == "start":
            _, q, p = key
            B = W.progress[q]
            t, b1, b2 = q, B.initial, p
        else:
            _, q, p, t, b1, b2 = key
            B = W.progress[q]
        for ai, a in enumerate(alphabet):
            t2 = T.delta[t][ai]
            c1 = B.delta[b1][ai]
            c2 = B.delta[b2][ai]
            targets = {sid(("block", q, p, t2, c1, c2))}
            if t2 == q and c1 == p and c2 == p:
                targets.add(sid(("start", q, p)))
            delta[(s, a)] = targets

    accepting = [index[k] for k in order if k[0] == "start"]
    return Nba(alphabet, len(order), delta, initials, accepting)


def complement_saturated_fdwa(W: Family) -> Family:
    """Same structure with every acceptance set complemented.

    Requires a saturated input; the result is again a saturated fdwa and
    its normalized UP-language is the complement of the input's.
    """
    if W.kind != FDWA:
        raise InputError("complement_saturated_fdwa expects an fdwa")
    if not check_fdwa_saturated(W).ok:
        raise PreconditionError("complement requires a saturated fdwa")
    progress = []
    for B in W.progress:
        acc = frozenset(range(B.n)) - B.accepting
        progress.append(Dfa(B.alphabet, B.delta, acc, B.initial,
                            B._access, B.keys))
    return Family(FDWA, W.leading, progress)


def fdwa_to_duo(W: Family) -> Family:
    """Reinterpret a saturated fdwa as an fdfa under the doubling-stable
    reading: structure is preserved bit-exactly, only the semantics tag
    changes.  Pairs are then judged with duo_accepts."""
    if W.kind != FDWA:
        raise InputError("fdwa_to_duo expects an fdwa")
    if not check_fdwa_saturated(W).ok:
        raise PreconditionError("duo reading requires a saturated fdwa")
    return Family(FDFA, W.leading, W.progress)


def is_duo_normalized(F: Family, r: Representation) -> bool:
    """Normalized in the leading system and the progress state reached by
    the loop is stable under doubling: D_u(x) = D_u(x*x)."""
    T = F.leading
    q = T.run(r.u)
    if T.after(q, r.x) != q:
        return False
    D = F.progress[q]
    s = D.run(r.x)
    return D.after(s, r.x) == s


def duo_accepts(F: Family, r: Representation) -> bool:
    """Pair acceptance under the doubling-stable reading: the pair must be
    duo-normalized and its loop accepted as a finite word."""
    if not is_duo_normalized(F, r):
        return False
    D = F.progress[F.leading.run(r.u)]
    return D.run(r.x) in D.accepting


def _duo_reachable(T: TransitionSystem, q: int, D: Dfa, s: int) -> bool:
    """Is there a nonempty x looping on leading state q with D(x) = s and
    s stable under a further x?  Searched on the product of the leading
    system with two copies of the progress automaton."""
    def successors(node):
        t, d1, d2 = node
        return zip(T.delta[t], D.delta[d1], D.delta[d2])

    starts = [(node, (i,))
              for i, node in enumerate(successors((q, D.initial, s)))]
    return any(node == (q, s, s) for node, _ in llex_bfs(starts, successors))


def duo_to_fdwa(F: Family) -> Family:
    """Turn a duo-saturated fdfa back into an fdwa on the same structure.

    In each progress automaton, the states reachable by a duo-normalized
    pair carry the acceptance verdicts of the represented words; marking
    the full component of each such accepting state yields a weak
    automaton with the same normalized UP-language.  If one component
    contains duo-reachable states with both verdicts, no weak marking
    exists and the input was not duo-saturated.
    """
    if F.kind != FDFA:
        raise InputError("duo_to_fdwa expects an fdfa")
    T = F.leading
    progress = []
    for q in range(T.n):
        D = F.progress[q]
        reach_acc, reach_rej = set(), set()
        for s in range(D.n):
            if _duo_reachable(T, q, D, s):
                (reach_acc if s in D.accepting else reach_rej).add(s)
        acc: set = set()
        for comp in dfa_sccs(D):
            cs = set(comp)
            if cs & reach_acc:
                if cs & reach_rej:
                    raise PreconditionError(
                        f"input was not duo-saturated: progress automaton "
                        f"{q} needs a mixed component")
                acc |= cs
        progress.append(Dfa(D.alphabet, D.delta, acc, D.initial,
                            D._access, D.keys))
    return Family(FDWA, T, progress)


# ---------------------------------------------------------------------------
# benchmark family generators

def _apply_map(v: int, sym: str, n: int) -> int:
    """One generator step of the transformations on {1..n}: s is the
    cyclic successor, t transposes 1 and 2, g merges 2 into 1."""
    if sym == "s":
        return v % n + 1
    if sym == "t":
        if v == 1:
            return 2 if n >= 2 else 1
        return 1 if v == 2 else v
    if sym == "g":
        return 1 if v == 2 else v
    raise InputError(f"not a mapping symbol: {sym!r}")


_MAP_ALPHABET = ("s", "t", "g", "#")


def _fixpoint_family(n: int, kind: str) -> Family:
    """Accepts the words with a block #u# whose mapping fixes 1.  The
    progress automaton waits for the first #, then tracks the value that
    1 is mapped to; a # seen at value 1 closes a fixpoint block and moves
    to the accepting sink."""
    wait, top = "wait", "top"

    def step(key, sym):
        if key == top:
            return top
        if key == wait:
            return 1 if sym == "#" else wait
        if sym == "#":
            return top if key == 1 else 1
        return _apply_map(key, sym, n)

    prog = Dfa.build(_MAP_ALPHABET, wait, step,
                     accepting=lambda k: k == top)
    return Family(kind, trivial_leading(_MAP_ALPHABET), [prog])


def _subset_occurrence(n: int) -> Family:
    """Accepts the loops missing some number from {1..2n}.  Symbols are
    nonempty subsets encoded as decimal bitmasks.  The chain waits for
    each number in turn; a number that never shows up strands the run in
    an accepting wait state, while seeing all of them ends in the
    rejecting sink."""
    m = 2 * n
    alphabet = tuple(str(bits) for bits in range(1, 1 << m))

    def step(key, sym):
        if key == "bottom":
            return "bottom"
        if (int(sym) >> (key - 1)) & 1:
            return key + 1 if key < m else "bottom"
        return key

    prog = Dfa.build(alphabet, 1, step,
                     accepting=lambda k: k != "bottom")
    return Family(FDWA, trivial_leading(alphabet), [prog])


def _zero_u_zero(n: int, kind: str) -> Family:
    """Progress automaton for 0 Sigma^{n-1} 0 Sigma^*: two zeros exactly
    n apart, anchored at the start of the loop."""
    top, bottom = "top", "bottom"

    def step(key, sym):
        if key in (top, bottom):
            return key
        if key == "start":
            return 1 if sym == "0" else bottom
        if key < n:
            return key + 1
        return top if sym == "0" else bottom

    prog = Dfa.build(("0", "1"), "start", step,
                     accepting=lambda k: k == top)
    return Family(kind, trivial_leading(("0", "1")), [prog])


def _syntactic_gap(n: int) -> Family:
    """Saturated fdfa for the fixpoint language: the leading system
    tracks the value 1 is mapped to since the last #, and the progress
    automaton of value i accepts the loops that close a fixpoint block,
    seen from i."""

    def lead_step(v, sym):
        return 1 if sym == "#" else _apply_map(v, sym, n)

    leading = TransitionSystem.build(_MAP_ALPHABET, 1, lead_step)
    progress = []
    for q in range(leading.n):
        anchor = leading.keys[q]

        def step(key, sym, _n=n):
            v, seen = key
            if sym == "#":
                return (1, seen or v == 1)
            return (_apply_map(v, sym, _n), seen)

        progress.append(Dfa.build(_MAP_ALPHABET, (anchor, False), step,
                                  accepting=lambda k: k[1]))
    return Family(FDFA, leading, progress)


def gen_family(name: str, n: int) -> Family:
    """Build one of the named benchmark families at parameter n."""
    if n < 1:
        raise InputError("family parameter must be at least 1")
    if name == "fixpoint-fdwa":
        return _fixpoint_family(n, FDWA)
    if name == "fixpoint-alsat":
        return _fixpoint_family(n, FDFA)
    if name == "subset-occurrence":
        return _subset_occurrence(n)
    if name == "zero-u-zero-fdfa":
        return _zero_u_zero(n, FDFA)
    if name == "zero-u-zero-fdwa":
        return _zero_u_zero(n, FDWA)
    if name == "syntactic-gap":
        return _syntactic_gap(n)
    raise InputError(f"unknown family name {name!r}")
