"""Deterministic and nondeterministic finite automata.

Deterministic machines are kept in a canonical form: states are numbered
in breadth-first discovery order from the initial state with edges expanded
in alphabet order, every state is reachable, and the transition function is
total (missing edges are routed to an appended rejecting sink).  Under this
numbering two machines are isomorphic iff they are equal component-wise,
and the stored access word of each state is the length-lexicographically
least word reaching it.
"""

from __future__ import annotations

from typing import (Callable, Hashable, Iterable, Iterator, Optional,
                    Sequence)

from .errors import CapExceededError, InputError
from .words import Word

_SINK = object()  # placeholder key for the implicit rejecting sink


def llex_bfs(starts: Iterable[tuple[Hashable, tuple]],
             successors: Callable[[Hashable], Iterable[Optional[Hashable]]]
             ) -> Iterator[tuple[Hashable, tuple]]:
    """Breadth-first search of a deterministic graph in llex order.

    `starts` holds (node, word) pairs whose words have one length, listed
    in llex order.  `successors(node)` gives one successor per alphabet
    symbol, in alphabet order, with None marking a blocked edge.  Every
    reachable node is yielded exactly once, as (node, word), when it is
    first discovered; `word` is a tuple of symbol indices.  Discovery order
    is the llex order of the least words, so the first goal yielded carries
    the llex-least word reaching any goal, and a caller can stop there."""
    words: dict = {}
    queue = []
    for node, word in starts:
        if node not in words:
            words[node] = word
            queue.append(node)
            yield node, word
    for node in queue:  # the loop also visits nodes appended below
        word = words[node]
        for si, nxt in enumerate(successors(node)):
            if nxt is not None and nxt not in words:
                nxt_word = word + (si,)
                words[nxt] = nxt_word
                queue.append(nxt)
                yield nxt, nxt_word


class TransitionSystem:
    """A complete deterministic transition system over a fixed alphabet."""

    def __init__(self, alphabet: Sequence[str], delta: Sequence[Sequence[int]],
                 initial: int = 0, access: Optional[Sequence[Word]] = None,
                 keys: Optional[Sequence] = None):
        self.alphabet = tuple(alphabet)
        self.sym_index = {t: i for i, t in enumerate(self.alphabet)}
        if len(self.sym_index) != len(self.alphabet):
            raise InputError("duplicate symbol in alphabet")
        self.delta = tuple(tuple(row) for row in delta)
        self.initial = initial
        self.n = len(self.delta)
        for row in self.delta:
            if len(row) != len(self.alphabet) or any(
                    not 0 <= q < self.n for q in row):
                raise InputError("malformed transition table")
        self._access = tuple(access) if access is not None else None
        self.keys = tuple(keys) if keys is not None else None

    @classmethod
    def build(cls, alphabet: Sequence[str], start: Hashable,
              step: Callable[[Hashable, str], Optional[Hashable]],
              max_states: Optional[int] = None, **kw):
        """Construct canonically by BFS.  step(key, sym) returns the successor
        key, or None for the implicit rejecting sink."""
        alphabet = tuple(alphabet)
        index: dict = {start: 0}
        keys = [start]
        access: list[Word] = [()]
        rows: list[list[int]] = []
        i = 0
        while i < len(keys):
            key = keys[i]
            row = []
            for sym in alphabet:
                nxt = _SINK if key is _SINK else step(key, sym)
                if nxt is None:
                    nxt = _SINK
                j = index.get(nxt)
                if j is None:
                    j = len(keys)
                    index[nxt] = j
                    keys.append(nxt)
                    access.append(access[i] + (sym,))
                    if max_states is not None and len(keys) > max_states:
                        raise CapExceededError(
                            f"construction exceeded {max_states} states")
                row.append(j)
            rows.append(row)
            i += 1
        clean_keys = [None if k is _SINK else k for k in keys]
        return cls._finish(alphabet, rows, access, clean_keys, **kw)

    @classmethod
    def _finish(cls, alphabet, rows, access, keys):
        return cls(alphabet, rows, 0, access, keys)

    @classmethod
    def from_parts(cls, alphabet: Sequence[str], num_states: int,
                   transitions: dict, initial: int = 0, **kw):
        """From explicit parts; unreachable states are dropped and missing
        transitions are completed to a rejecting sink."""
        alphabet = tuple(alphabet)
        syms = set(alphabet)
        for (s, a), t in transitions.items():
            if a not in syms:
                raise InputError(f"transition on unknown symbol {a!r}")
            if not (0 <= s < num_states and 0 <= t < num_states):
                raise InputError(f"transition {s}-{a}->{t} out of range")
        if not 0 <= initial < num_states:
            raise InputError("initial state out of range")
        return cls.build(alphabet, initial,
                         lambda s, a: transitions.get((s, a)), **kw)

    def after(self, state: int, word: Iterable[str]) -> int:
        d = self.delta
        idx = self.sym_index
        try:
            for t in word:
                state = d[state][idx[t]]
        except KeyError as e:
            raise InputError(f"unknown symbol {e.args[0]!r}") from None
        return state

    def run(self, word: Iterable[str]) -> int:
        return self.after(self.initial, word)

    def access_word(self, state: int) -> Word:
        """Llex-least word reaching the state."""
        if self._access is None:
            access = [None] * self.n
            for q, w in llex_bfs([(self.initial, ())], self.delta.__getitem__):
                access[q] = tuple(self.alphabet[i] for i in w)
            self._access = tuple(access)
        word = self._access[state]
        if word is None:
            raise InputError(f"state {state} is unreachable")
        return word

    def _signature(self):
        return (self.alphabet, self.delta, self.initial)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._signature() == other._signature())

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} alphabet={self.alphabet}>"


class Dfa(TransitionSystem):
    """A transition system with an accepting-state set."""

    def __init__(self, alphabet, delta, accepting: Iterable[int],
                 initial: int = 0, access=None, keys=None):
        super().__init__(alphabet, delta, initial, access, keys)
        self.accepting = frozenset(accepting)
        if any(not 0 <= q < self.n for q in self.accepting):
            raise InputError("accepting state out of range")

    @classmethod
    def build(cls, alphabet, start, step, accepting=None, max_states=None):
        """accepting is a predicate on keys; the sink is never accepting."""
        pred = accepting or (lambda key: False)
        return super().build(alphabet, start, step, max_states, pred=pred)

    @classmethod
    def _finish(cls, alphabet, rows, access, keys, pred):
        acc = [i for i, k in enumerate(keys) if k is not None and pred(k)]
        return cls(alphabet, rows, acc, 0, access, keys)

    @classmethod
    def from_parts(cls, alphabet, num_states, transitions, initial=0,
                   accepting=()):
        acc = frozenset(accepting)
        if any(not 0 <= q < num_states for q in acc):
            raise InputError("accepting state out of range")
        return super().from_parts(alphabet, num_states, transitions, initial,
                                  accepting=lambda s: s in acc)

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.accepting

    def is_empty(self) -> bool:
        return not self.accepting  # all states are reachable

    def _signature(self):
        return (self.alphabet, self.delta, self.initial, self.accepting)


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Minimal complete DFA for the same language, in canonical form."""
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


def combine_dfa(d1: Dfa, d2: Dfa, keep: Callable[[bool, bool], bool]) -> Dfa:
    """Boolean product; both operands must share the alphabet."""
    if d1.alphabet != d2.alphabet:
        raise InputError("product of DFAs over different alphabets")
    i1, i2 = d1.sym_index, d2.sym_index
    return Dfa.build(
        d1.alphabet, (d1.initial, d2.initial),
        lambda pq, a: (d1.delta[pq[0]][i1[a]], d2.delta[pq[1]][i2[a]]),
        accepting=lambda pq: keep(pq[0] in d1.accepting, pq[1] in d2.accepting))


def intersect_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    return combine_dfa(d1, d2, lambda a, b: a and b)


def complement_dfa(d: Dfa) -> Dfa:
    return Dfa(d.alphabet, d.delta, frozenset(range(d.n)) - d.accepting,
               d.initial, d._access, d.keys)


def dfa_equivalent(d1: Dfa, d2: Dfa) -> bool:
    return combine_dfa(d1, d2, lambda a, b: a != b).is_empty()


def strongly_connected_components(n: int,
                                  succ: Sequence[Iterable[int]]
                                  ) -> list[list[int]]:
    """Tarjan, iterative.  Components come out in reverse topological order
    of the condensation."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def dfa_sccs(d: TransitionSystem) -> list[list[int]]:
    succ = [sorted(set(row)) for row in d.delta]
    return strongly_connected_components(d.n, succ)


def is_weak(d: Dfa) -> bool:
    """True iff every strongly connected component is uniformly accepting
    or uniformly rejecting."""
    for comp in dfa_sccs(d):
        marks = {q in d.accepting for q in comp}
        if len(marks) == 2:
            return False
    return True


def weak_loop_accepts(d: Dfa, x: Word, state: Optional[int] = None) -> bool:
    """Deterministic-Buchi acceptance of x^omega from the given state.

    The states visited infinitely often are exactly those on the cycle of
    whole-x iterates, including positions inside each application of x;
    accept iff one of them is accepting.  On weak automata this coincides
    with the SCC classification of the cycle."""
    if not x:
        raise InputError("loop acceptance needs a nonempty loop")
    s = d.initial if state is None else state
    seen: dict[int, int] = {}
    path = []
    while s not in seen:
        seen[s] = len(path)
        path.append(s)
        s = d.after(s, x)
    idx = d.sym_index
    for t in path[seen[s]:]:
        if t in d.accepting:
            return True
        for sym in x:
            t = d.delta[t][idx[sym]]
            if t in d.accepting:
                return True
    return False


class Nfa:
    """Nondeterministic finite automaton; also used with Buchi semantics
    by the translation and oracle modules."""

    def __init__(self, alphabet: Sequence[str], n: int,
                 delta: dict, initials: Iterable[int],
                 accepting: Iterable[int]):
        """delta maps (state, symbol) -> iterable of successor states."""
        self.alphabet = tuple(alphabet)
        self.sym_index = {t: i for i, t in enumerate(self.alphabet)}
        if len(self.sym_index) != len(self.alphabet):
            raise InputError("duplicate symbol in alphabet")
        self.n = n
        table = [[frozenset() for _ in self.alphabet] for _ in range(n)]
        for (s, a), ts in delta.items():
            if a not in self.sym_index:
                raise InputError(f"transition on unknown symbol {a!r}")
            ts = frozenset(ts)
            if not 0 <= s < n or any(not 0 <= t < n for t in ts):
                raise InputError("transition state out of range")
            table[s][self.sym_index[a]] |= ts
        self.delta = tuple(tuple(row) for row in table)
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        if any(not 0 <= q < n for q in self.initials | self.accepting):
            raise InputError("state out of range")

    def step_set(self, states: frozenset, sym: str) -> frozenset:
        i = self.sym_index[sym]
        out = set()
        for s in states:
            out |= self.delta[s][i]
        return frozenset(out)

    def run_set(self, word: Iterable[str]) -> frozenset:
        cur = self.initials
        for sym in word:
            cur = self.step_set(cur, sym)
        return cur

    def accepts(self, word: Iterable[str]) -> bool:
        return bool(self.run_set(word) & self.accepting)

    def trim(self) -> "Nfa":
        """Restrict to states reachable from the initial set."""
        seen = set(self.initials)
        frontier = list(self.initials)
        while frontier:
            s = frontier.pop()
            for row in self.delta[s]:
                for t in row:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        order = sorted(seen)
        remap = {s: i for i, s in enumerate(order)}
        delta = {}
        for s in order:
            for i, a in enumerate(self.alphabet):
                ts = [remap[t] for t in self.delta[s][i] if t in seen]
                if ts:
                    delta[(remap[s], a)] = ts
        return Nfa(self.alphabet, len(order), delta,
                   [remap[s] for s in self.initials],
                   [remap[s] for s in self.accepting if s in seen])

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} alphabet={self.alphabet}>"


class Nba(Nfa):
    """Nfa wrapper marking intended Buchi (omega) semantics."""
