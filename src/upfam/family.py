"""Families of automata: a deterministic leading transition system plus one
progress automaton per leading state.

A family is interpreted according to its kind:

* ``fdfa`` -- progress automata are DFAs; a pair (u, x) is accepted when the
  progress automaton of the leading state reached by u accepts x as a finite
  word.
* ``fdwa`` -- progress automata are deterministic Buchi automata, weak in
  every intended use; a pair is accepted when x^omega is accepted.
  Operations whose correctness needs weakness (the FDWA saturation check,
  complementation, the NBA translation) validate it themselves, so that a
  non-weak input yields a clean error rather than a construction failure.
* ``fnfa`` -- progress automata are NFAs, finite-word acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add

from .automata import (Dfa, LeastWords, Nfa, TransitionSystem, canonical_bfs,
                       is_weak, orbit, product_search, reachable,
                       weak_loop_accepts)
from .errors import InputError, PreconditionError
from .words import Representation

FDFA = "fdfa"
FDWA = "fdwa"
FNFA = "fnfa"

KINDS = (FDFA, FDWA, FNFA)


class Family:
    """Leading transition system with one progress automaton per state."""

    def __init__(self, kind: str, leading: TransitionSystem, progress):
        if kind not in KINDS:
            raise InputError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.leading = leading
        self.progress = tuple(progress)
        if len(self.progress) != leading.n:
            raise InputError("need exactly one progress automaton per "
                             "leading state")
        live = reachable([leading.initial], leading.delta.__getitem__)
        if len(live) != leading.n:
            k = min(set(range(leading.n)) - live)
            raise InputError(f"leading state {k} is unreachable")
        for i, p in enumerate(self.progress):
            if p.alphabet != leading.alphabet:
                raise InputError(f"progress automaton {i} has a different "
                                 "alphabet than the leading system")
            if kind == FNFA:
                if not isinstance(p, Nfa):
                    raise InputError("fnfa progress automata must be NFAs")
            else:
                if not isinstance(p, Dfa):
                    raise InputError(f"{kind} progress automata must be DFAs")

    def require_weak(self):
        """Raise unless every progress automaton is weak (fdwa operations)."""
        for i, p in enumerate(self.progress):
            if not is_weak(p):
                raise InputError(f"progress automaton {i} is not weak")

    @property
    def alphabet(self):
        return self.leading.alphabet

    def progress_sizes(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.progress)

    def _signature(self):
        def key(p):
            if isinstance(p, Nfa):
                return (p.alphabet, p.n, p.delta, p.initials, p.accepting)
            return (p.alphabet, p.delta, p.initial, p.accepting)
        return (self.kind, self.leading._signature(),
                tuple(key(p) for p in self.progress))

    def __eq__(self, other):
        return isinstance(other, Family) and \
            self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        return (f"<Family {self.kind} leading={self.leading.n} "
                f"progress={self.progress_sizes()}>")


def trivial_leading(alphabet) -> TransitionSystem:
    """The one-state leading system over the alphabet."""
    return TransitionSystem.build(alphabet, 0, lambda s, a: 0)


class ReferenceSet(Enum):
    """The universe of pairs a saturation notion quantifies over."""

    NORMALIZED = "normalized"
    ALL = "all"

    def contains(self, family: Family, r: Representation) -> bool:
        if self is ReferenceSet.ALL:
            return True
        return is_normalized(family, r)


@dataclass(frozen=True)
class Counterexample:
    """Two representations exhibiting an acceptance discrepancy.

    For variant 'loopshift' and 'pair' the two sides denote the same
    ultimately periodic word; for 'power' they share the spoke and the right
    loop is a power of the left one's root."""

    variant: str  # loopshift | power | pair
    left: Representation
    right: Representation
    left_accepted: bool
    right_accepted: bool


def is_normalized(F: Family, r: Representation) -> bool:
    """True iff u and u*x reach the same leading state."""
    T = F.leading
    q = T.run(r.u)
    return T.after(q, r.x) == q


def family_accepts(F: Family, r: Representation,
                   ref_set: ReferenceSet = ReferenceSet.ALL) -> bool:
    """Pair acceptance: r must lie in the reference set and the loop must be
    accepted by the progress automaton of the leading state reached by the
    spoke (finite-word acceptance for fdfa/fnfa, omega for fdwa)."""
    if not ref_set.contains(F, r):
        return False
    prog = F.progress[F.leading.run(r.u)]
    if F.kind == FDWA:
        return weak_loop_accepts(prog, r.x)
    return prog.accepts(r.x)


def normalize(F: Family, r: Representation) -> Representation:
    """A normalized representation of the same ultimately periodic word,
    obtained by sliding whole loop copies into the spoke."""
    T = F.leading
    states, a = orbit(T.run(r.u), lambda q: T.after(q, r.x))
    return Representation(r.u + r.x * a, r.x * (len(states) - a))


def up_membership(F: Family, r: Representation) -> bool:
    """Membership of u*x^omega in the language of a saturated family:
    normalize the pair, then test acceptance.  Only well-defined when the
    family is saturated (caller-asserted)."""
    return family_accepts(F, normalize(F, r), ReferenceSet.NORMALIZED)


def loop_search(F: Family) -> LeastWords:
    """The searches of D_q x T from (D_q.initial, q), for every leading
    state q in order, where D_q is the progress automaton of q and T the
    leading system, run together on nodes (q, d, t) (`product_search`).
    The starts are not stored, so the nodes (q, d, t) of the layers past
    the first are those that nonempty words reach: (d, t) runs over the
    states of the refined automaton of q (`refine_family`), each with its
    llex-least loop word."""
    return product_search([((D.initial, q), (D.delta, F.leading.delta))
                           for q, D in enumerate(F.progress)])


def refine_family(F: Family) -> Family:
    """Product each progress automaton with the leading system started at the
    owning state, so that equal progress states imply equal leading
    displacement.  Normalized acceptance of every pair is unchanged.  A
    product state (d, t) is the integer d * T.n + t while it is built; the
    key of each refined state is its displacement t, the leading state its
    loop words lead the owner to."""
    if F.kind == FNFA:
        raise PreconditionError("refine_family applies to fdfa/fdwa only")
    T = F.leading
    m = T.n
    new = []
    for q in range(m):
        D = F.progress[q]
        scaled = [[d * m for d in row] for row in D.delta]

        def succ(key):
            d, t = divmod(key, m)
            return list(map(add, scaled[d], T.delta[t]))

        rows, keys = canonical_bfs([D.initial * m + q], succ)
        new.append(Dfa(D.alphabet, rows,
                       [i for i, key in enumerate(keys)
                        if key // m in D.accepting],
                       keys=[key % m for key in keys]))
    return Family(F.kind, T, new)
