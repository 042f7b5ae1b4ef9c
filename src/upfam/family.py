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
from typing import Optional, Union

from .automata import Dfa, Nfa, TransitionSystem, is_weak, weak_loop_accepts
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
        for i, p in enumerate(self.progress):
            if p.alphabet != leading.alphabet:
                raise InputError(f"progress automaton {i} has a different "
                                 "alphabet than the leading system")
            if kind == FNFA:
                if not isinstance(p, Nfa):
                    raise InputError("fnfa progress automata must be NFAs")
            else:
                if not isinstance(p, Dfa) or isinstance(p, Nfa):
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

    def size(self) -> tuple[int, int]:
        """(leading states, largest progress automaton)."""
        return (self.leading.n, max(self.progress_sizes()))

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


class ReferenceSet(Enum):
    """The universe of pairs a saturation notion quantifies over."""

    NORMALIZED = "normalized"
    ALL = "all"

    def contains(self, family: Family, r: Representation) -> bool:
        if self is ReferenceSet.ALL:
            return True
        return is_normalized(family, r)

    def loop_dfa(self, family: Family, q: int) -> Dfa:
        """DFA over the family alphabet accepting exactly the loop words x
        that keep (access(q), x) inside this reference set."""
        T = family.leading
        if self is ReferenceSet.ALL:
            return Dfa.build(T.alphabet, 0, lambda s, a: 0,
                             accepting=lambda s: True)
        return Dfa.build(T.alphabet, q,
                         lambda s, a: T.delta[s][T.sym_index[a]],
                         accepting=lambda s: s == q)


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
    seen = {}
    cur = T.run(r.u)
    k = 0
    while cur not in seen:
        seen[cur] = k
        cur = T.after(cur, r.x)
        k += 1
    a = seen[cur]
    b = k
    return Representation(r.u + r.x * a, r.x * (b - a))


def up_membership(F: Family, r: Representation) -> bool:
    """Membership of u*x^omega in the language of a saturated family:
    normalize the pair, then test acceptance.  Only well-defined when the
    family is saturated (caller-asserted)."""
    return family_accepts(F, normalize(F, r), ReferenceSet.NORMALIZED)


def refine_family(F: Family) -> Family:
    """Product each progress automaton with the leading system started at the
    owning state, so that equal progress states imply equal leading
    displacement.  Normalized acceptance of every pair is unchanged."""
    if F.kind == FNFA:
        raise PreconditionError("refine_family applies to fdfa/fdwa only")
    T = F.leading
    new = []
    for q in range(T.n):
        D = F.progress[q]

        def step(dt, a, D=D):
            return (D.delta[dt[0]][D.sym_index[a]],
                    T.delta[dt[1]][T.sym_index[a]])

        new.append(Dfa.build(D.alphabet, (D.initial, q), step,
                             accepting=lambda dt, D=D: dt[0] in D.accepting))
    return Family(F.kind, T, new)


def displacement_map(F: Family, q: int) -> Optional[list[int]]:
    """For a refined family, the leading state implied by each progress state
    of the automaton owned by q.  None if some progress state is reachable
    with two different leading displacements (family not refined)."""
    D = F.progress[q]
    if isinstance(D, Nfa):
        raise PreconditionError("displacement maps need deterministic "
                                "progress automata")
    T = F.leading
    disp: list[Optional[int]] = [None] * D.n
    disp[D.initial] = q
    todo = [D.initial]
    while todo:
        d = todo.pop()
        t = disp[d]
        for i in range(len(D.alphabet)):
            d2 = D.delta[d][i]
            t2 = T.delta[t][T.sym_index[D.alphabet[i]]]
            if disp[d2] is None:
                disp[d2] = t2
                todo.append(d2)
            elif disp[d2] != t2:
                return None
    return disp  # total: every progress state is reachable


def is_refined(F: Family) -> bool:
    return all(displacement_map(F, q) is not None
               for q in range(F.leading.n))
