"""Almost-saturation: exact decision and the intersection hardness instances.

A family is almost saturated when every accepted normalized pair stays
accepted after raising its loop to any power.  The decision procedure walks,
per leading state, the monoid of transformations that words induce on the
progress automaton, paired with the leading displacement of the word; a
transformation m generated by a loop word whose iterates m^i walk the
initial state from an accepting to a rejecting state is exactly a violation.
The monoid can be exponential, so the walk is capped; hitting the cap is
reported as its own verdict, never as a pass.  Unlike the saturation
stages, the walk keeps minimizing each progress automaton first: the cap
counts monoid nodes of the minimal automaton, and the monoid of a larger
automaton for the same language maps onto that one, so it can only be
larger and the CapExceeded boundary would move.

A node of the walk is one sequence of n + 1 entries, n the state count
of the minimized progress automaton D: entry s < n is the state the word
leads s to, and the last entry is n plus the leading state it leads q to,
so the start node is 0, 1, ..., n-1, n+q.  Each symbol has one column,
mapping s < n to its D-successor and n+t to n plus the leading successor
of t, and the child of a node is the node read through the column.  When
n plus the leading state count is at most 256, the node is a byte string
and a child is one `bytes.translate`; otherwise it is a tuple and a child
is `operator.itemgetter(*node)` applied to the column.  Both are plain
values whose equality is equality of the (mapping, displacement) pairs,
so the walk meets the same nodes, in the same llex order, as a walk on
any other exact encoding of the pairs: the node count, and with it the
CapExceeded boundary and the witness, do not depend on the encoding.
The walk is a `LeastWords` search that stores its start.  It keeps one
parent link per node, not words, and rebuilds the word of a violation
when it is found.  It reads each layer from `advance`, not through
the search's iterator, which costs a few percent more per node.  Nodes
are counted one at a time, in llex order: the start without a cap
check, every other node before its violation test.  A layer is found
node by node as the walk counts it, so the walk stores no node past the
one where it stops.

The leading states are walked in order, and the witness is the least key
(len w, w, q, i) over all of them.  Each walk stops at its first
violation, the llex-least of its monoid.  Until one is found the walks
run to their end, so the node count and the CapExceeded boundary of an
almost-saturated family are those of the whole monoid.  Once one is
found the verdict is NotAlmostSaturated at any cap, and a later walk
stops after the length of the best word so far: a longer word loses on
the first component of the key, and one of equal length is still met
and compared.  So the cap is not spent on words that cannot win; only
when it cuts one of these short walks is the witness the least among
the walks that ran.
"""

from __future__ import annotations

from operator import itemgetter

from .automata import Dfa, LeastWords, minimize_dfa, orbit
from .errors import CAP_EXCEEDED, InputError, Verdict
from .family import FDFA, Family, trivial_leading

ALMOST_SATURATED = "AlmostSaturated"
NOT_ALMOST_SATURATED = "NotAlmostSaturated"

DEFAULT_CAP = 2_000_000

HASH = "#"  # block separator of both hardness instances


def check_almost_saturated(F: Family, cap: int = DEFAULT_CAP) -> Verdict:
    """Decide almost saturation of an FDFA exactly, exploring at most `cap`
    distinct (transformation, displacement) nodes overall.  The search runs
    on the minimized progress automata; the witness (u, x, i) of a
    refutation is word-level, (u, x) accepted and (u, x^i) rejected, and
    replays against the family as given.  It has the least key
    (len x, x, q, i), q the leading state u reaches: after the first
    violation, later walks stop past the best length (see the module
    docstring), and a cap that cuts one of them short leaves the verdict
    and the least witness of the walks that ran."""
    if cap <= 0:
        raise InputError("cap must be positive")
    if F.kind != FDFA:
        raise InputError("almost-saturation is defined for FDFAs")
    T = F.leading
    total = 0
    capped = False
    best = None
    for q in range(T.n):
        if capped:
            break
        D = minimize_dfa(F.progress[q])
        n = D.n
        # per symbol, the map it induces on states and leading slots
        cols = [col + tuple(n + t for t in lcol)
                for col, lcol in zip(zip(*D.delta), zip(*T.delta))]
        acc = D.accepting
        s0 = D.initial
        goal = n + q
        start = tuple(range(n)) + (goal,)
        if n + T.n <= 256:
            tables = [bytes(col) + bytes(256 - len(col)) for col in cols]
            start = bytes(start)

            def successors(node):
                return map(node.translate, tables)
        else:
            def successors(node):
                return map(itemgetter(*node), cols)

        search = LeastWords([start], successors)
        total += 1  # the start counts without a cap check
        w = None
        # after a violation, a walk stops past the length of its word
        while (w is None and not capped and search.layer
               and (best is None or search.length < best[0])):
            for m in search.advance():
                total += 1
                if total > cap:
                    capped = True
                    break
                if m[-1] == goal and m[s0] in acc:
                    # the states that m, m^2, m^3, ... send the initial
                    # state to
                    states, _ = orbit(m[s0], m.__getitem__)
                    i = next((i for i, s in enumerate(states, 1)
                              if s not in acc), None)
                    if i is not None:
                        w = search.word(m)
                        key = (len(w), w, q, i)
                        if best is None or key < best:
                            best = key
                        break
    if best is not None:
        _, w, q, i = best
        x = tuple(T.alphabet[si] for si in w)
        return Verdict(NOT_ALMOST_SATURATED, (T.access_word(q), x, i))
    if capped:
        return Verdict(CAP_EXCEEDED)
    return Verdict(ALMOST_SATURATED)


def padded_chain(dfas) -> list:
    """The input DFAs of a hardness reduction, checked and padded to prime
    length with DFAs universal on nonempty words, which leave the
    intersection unchanged.  There must be at least one input; they share
    one alphabet without '#', and none accepts the empty word."""
    chain = list(dfas)
    if not chain:
        raise InputError("need at least one input DFA")
    alphabet = chain[0].alphabet
    if HASH in alphabet:
        raise InputError(f"input alphabet may not contain {HASH!r}")
    for d in chain:
        if d.alphabet != alphabet:
            raise InputError("input DFAs must share one alphabet")
        if d.initial in d.accepting:
            raise InputError("input DFA accepts the empty word")
    p = max(len(chain), 2)
    while any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
        p += 1
    sigma_plus = Dfa.from_table(alphabet, [[1] * len(alphabet)] * 2,
                                accepting=(1,))
    return chain + [sigma_plus] * (p - len(chain))


def gen_intersection_fdfa(dfas) -> Family:
    """Hardness instance: an FDFA over the input alphabet plus '#' that is
    almost saturated exactly when the input DFAs have empty intersection.

    The single progress automaton accepts every nonempty word except those
    of the form #u_1#u_2...#u_p with u_j in L(D_j), where the list is padded
    with nonempty-universal DFAs to prime length p.  A word w in the
    intersection then gives the violation ((#w) accepted, (#w)^p rejected),
    and primality of p rules out any other way a power can fall into the
    chain shape.
    """
    chain = padded_chain(dfas)
    p = len(chain)
    full = tuple(chain[0].alphabet) + (HASH,)
    offsets = []
    n = 1  # 0 is the fresh initial state
    for d in chain:
        offsets.append(n)
        n += d.n
    top = n  # fresh accepting sink
    n += 1

    trans = {}
    for a in full:
        trans[(top, a)] = top
        trans[(0, a)] = offsets[0] if a == HASH else top
    for i, d in enumerate(chain):
        base = offsets[i]
        for s in range(d.n):
            for si, a in enumerate(d.alphabet):
                trans[(base + s, a)] = base + d.delta[s][si]
            if s in d.accepting and i + 1 < p:
                trans[(base + s, HASH)] = offsets[i + 1]
            else:
                trans[(base + s, HASH)] = top
    last = chain[-1]
    accepting = set(range(1, n)) - {offsets[-1] + s for s in last.accepting}
    prog = Dfa.from_parts(full, n, trans, accepting=accepting)
    return Family(FDFA, trivial_leading(full), [prog])
