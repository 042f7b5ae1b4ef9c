"""Almost-saturation: exact decision and the intersection hardness instances.

A family is almost saturated when every accepted normalized pair stays
accepted after raising its loop to any power.  The decision procedure walks,
per leading state, the monoid of transformations that words induce on the
progress automaton, paired with the leading displacement of the word; a
transformation m generated by a loop word whose iterates m^i walk the
initial state from an accepting to a rejecting state is exactly a violation.
The monoid can be exponential, so the walk is capped; hitting the cap is
reported as its own verdict, never as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import Dfa, llex_bfs, minimize_dfa
from .errors import CAP_EXCEEDED, InputError
from .family import FDFA, Family
from .fixtures import HASH, next_prime, sigma_plus_dfa, trivial_leading

ALMOST_SATURATED = "AlmostSaturated"
NOT_ALMOST_SATURATED = "NotAlmostSaturated"

DEFAULT_CAP = 2_000_000


@dataclass(frozen=True)
class Transformation:
    """Effect of a word on one progress automaton: the state map it induces,
    plus the leading state its reading displaces the anchor to."""

    mapping: tuple
    displacement: int

    @classmethod
    def identity(cls, n: int, anchor: int) -> "Transformation":
        return cls(tuple(range(n)), anchor)

    def apply(self, state: int) -> int:
        return self.mapping[state]


@dataclass(frozen=True)
class AlmostVerdict:
    status: str
    witness: Optional[tuple] = None  # (u, x, i)

    @property
    def ok(self) -> bool:
        return self.status == ALMOST_SATURATED


def check_almost_saturated(F: Family, cap: int = DEFAULT_CAP
                           ) -> AlmostVerdict:
    """Decide almost saturation of an FDFA exactly, exploring at most `cap`
    distinct (transformation, displacement) nodes overall.  The search runs
    on the minimized progress automata; witnesses are word-level and replay
    against the family as given."""
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
        sym_maps = list(zip(*D.delta))  # per symbol, the map it induces
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

        search = llex_bfs([(Transformation.identity(D.n, q), ())],
                          successors)
        next(search)  # the start node counts without a cap check
        total += 1
        for node, w in search:
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
        return AlmostVerdict(NOT_ALMOST_SATURATED, (T.access_word(q), x, i))
    if capped:
        return AlmostVerdict(CAP_EXCEEDED)
    return AlmostVerdict(ALMOST_SATURATED)


def gen_intersection_fdfa(dfas: list) -> Family:
    """Hardness instance: an FDFA over the input alphabet plus '#' that is
    almost saturated exactly when the input DFAs have empty intersection.

    The single progress automaton accepts every nonempty word except those
    of the form #u_1#u_2...#u_p with u_j in L(D_j), where the list is padded
    with nonempty-universal DFAs to prime length p.  A word w in the
    intersection then gives the violation ((#w) accepted, (#w)^p rejected),
    and primality of p rules out any other way a power can fall into the
    chain shape.
    """
    if not dfas:
        raise InputError("need at least one DFA")
    alphabet = dfas[0].alphabet
    for d in dfas:
        if d.alphabet != alphabet:
            raise InputError("intersection inputs must share an alphabet")
        if d.initial in d.accepting:
            raise InputError("input DFA accepts the empty word")
    if HASH in alphabet:
        raise InputError(f"alphabet already contains {HASH!r}")
    p = next_prime(len(dfas))
    chain = list(dfas) + [sigma_plus_dfa(alphabet)] * (p - len(dfas))

    full = tuple(alphabet) + (HASH,)
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
