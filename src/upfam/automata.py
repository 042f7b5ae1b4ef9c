"""Deterministic and nondeterministic finite automata.

Deterministic machines are kept in a canonical form: states are numbered
in breadth-first discovery order from the initial state with edges expanded
in alphabet order, every state is reachable, and the transition function is
total (missing edges are routed to an appended rejecting sink).  Under this
numbering two machines are isomorphic iff they are equal component-wise.

One breadth-first search, `canonical_bfs`, does the numbering for every
deterministic construction.  It asks a successor function for the whole
row of successor keys of a key at once, so a caller whose keys are plain
integers (the quotient of `minimize_dfa`, the product of
`family.refine_family`, the successor table of `from_table`, which
`from_parts` and the FAF parser fill) pays one list per state and no call
per edge.  It also numbers the regularity profile graph, from the
one-letter profiles and under a cap.  Access words are not stored while
building: `access_word` derives them on first use from a `LeastWords`
search, whose discovery order is the canonical numbering, so the word of
each state is the length-lexicographically least word reaching it.

`from_table` skips the search for a table already in canonical order
(`_as_written`): the initial state is 0, no transition is missing, and
reading the rows in order meets the states in increasing order, each
before its own row.  The search would expand the rows in that same
order and number each state where the reading meets it, so the table
kept as written is the machine the search builds, keys included.  Every
family file `serialize_faf` writes from a loaded or generated family is
in this order.  That reading also proves the table complete and in
range, so such a machine is not checked again; the public constructors
and every other way to build, the search included, check the table in
`TransitionSystem.__init__`.

`LeastWords`, the least-word search of a deterministic graph, advances
one word length at a time and stores one link per node it meets, the
node it was first reached from, and no symbol and no word.  A layer is
found as it is read, so a caller that stops at a node has looked at
nothing past it.  The words a caller asks for are rebuilt by
`LeastWords.word`, which reads each symbol back as the first index of
the child in its parent's successor row.  `product_search` runs several
searches of products of tables as one, with one start per search and
each node tagged with its search, so they advance one length together;
`least_goal` takes the least goal of such a run, the rule the loopshift
and power stages share.  `least_batches` runs several searches together
and hands out each word, in llex order, with the nodes it first reaches
in each; the FDWA witness search uses it, since one word can first
reach two nodes of one of its searches.

The other walks the checkers share live here too: `reachable`, the plain
reachability walk, and `strongly_connected_components` with `on_cycle`,
the one rule for which states lie on a cycle.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain, repeat
from operator import indexOf
from typing import (Callable, Hashable, Iterable, Iterator, Optional,
                    Sequence)

from .errors import CapExceededError, InputError
from .words import Word


class LeastWords:
    """A least-word search of a deterministic graph, one word length at a
    time, from one or more distinct start nodes.

    `successors(node)` gives one successor per alphabet symbol, in symbol
    order, with None marking a blocked edge; it must give the same row
    each time it is called on a node.  `layer` lists the nodes that words
    of length `length` reach first: it holds the starts, in order, at
    length 0, and `advance` finds the next layer.  `links` holds one link
    per node met, the node of the layer before it was first reached from.
    The starts are stored at once when `store_starts` is set, as the
    empty word reaches them; otherwise a nonempty word that reaches one
    again finds it new.  Each layer expands the nodes of the last in
    order, and each node its row in symbol order, so a node's first link
    comes from its llex-least word from the first start that reaches it,
    and a layer lists the nodes of each start in turn, in llex order of
    their words.  When no node is reachable from two starts, the search
    is one separate search per start, all of them advancing together."""

    __slots__ = ("successors", "links", "layer", "length")

    def __init__(self, starts, successors, store_starts=True):
        self.successors = successors
        self.layer = list(starts)
        # None, a blocked edge, is never a node; a stored start links to
        # nothing
        self.links = dict.fromkeys([None] + self.layer if store_starts
                                   else [None])
        self.length = 0

    def advance(self) -> Iterator:
        """Find the next layer: a generator that, once read, makes the
        next layer current, empty at first, and then finds its nodes in
        order, adds each to `layer` and gives it.  Nothing past the node
        just given is looked at: a caller that stops there leaves the
        layer cut, and must not advance the search again."""
        last, self.layer = self.layer, []
        self.length += 1
        links, successors, add = self.links, self.successors, self.layer.append
        for node in last:
            for child in successors(node):
                if child not in links:
                    links[child] = node
                    add(child)
                    yield child

    def __iter__(self) -> Iterator:
        """The nodes of the current layer and of every later one, in llex
        order of their words, as `advance` gives them; `word` holds for
        the node just given."""
        yield from self.layer
        while self.layer:
            yield from self.advance()

    def word(self, node: Hashable) -> tuple:
        """The least word of a node of the current layer, as symbol
        indices, rebuilt from its links, `length` of them.  The symbol of
        a link from p to c is the first index of c in the row
        `successors(p)`: a node's symbols are expanded in order, so the
        first symbol that reaches a new node is the one that linked it."""
        links, successors, w = self.links, self.successors, []
        for _ in range(self.length):
            parent = links[node]
            w.append(indexOf(successors(parent), node))
            node = parent
        return tuple(reversed(w))


def product_search(searches: Sequence[tuple]) -> LeastWords:
    """Several searches of products of two or three total deterministic
    tables, run as one `LeastWords` whose starts are not stored.
    `searches[k]` is (start, tables): `start` holds one state per table,
    and symbol i leads a node (s_1, ..., s_m) to (tables[0][s_1][i], ...,
    tables[m-1][s_m][i]).  A node of search k is tagged with k, as
    (k, s_1, ..., s_m), so no node is reachable from two starts.  The row
    of a node is written out for each width: built for any width, it
    costs twice as much."""
    rows = [(repeat(k),) + tables for k, (_, tables) in enumerate(searches)]
    if rows and len(rows[0]) == 4:
        def successors(node):
            k, a, b, c = node
            tags, x, y, z = rows[k]
            return zip(tags, x[a], y[b], z[c])
    else:
        def successors(node):
            k, a, b = node
            tags, x, y = rows[k]
            return zip(tags, x[a], y[b])
    return LeastWords([(k,) + start for k, (start, _) in enumerate(searches)],
                      successors, store_starts=False)


def least_goal(search: LeastWords, goals: Callable) -> Optional[tuple]:
    """The least (w, k, data) over the goals of the searches that
    `product_search` runs together, from the empty word on, or None when
    none of them meets one.  `goals(nodes)` reads the nodes of one layer
    and gives (node, data) for the goals among them; it may read
    `search.word(node)`, and may skip a goal whose word is not below one
    it gave before.  Each search is deterministic, so a word reaches one
    node of it, and a layer lists the nodes of each search in llex order
    of their words: the search stops after the first length at which any
    search meets a goal, and at once on a goal whose word is all first
    symbols, which no later search can beat."""
    best = None
    nodes = search.layer
    while best is None and nodes:
        for node, data in goals(nodes):
            w = search.word(node)
            if best is None or w < best[0]:
                best = (w, node[0], data)
                if not any(w):
                    break
        nodes = search.advance() if search.layer else ()
    return best


def least_batches(searches: Sequence[tuple]) -> Iterator[tuple]:
    """Several least-word searches run together, in llex order of words.

    `searches[k]` is (starts, expand, close): `starts` lists the nodes the
    empty word reaches, which are not stored, so a nonempty word that
    reaches one again finds it new; `expand(node)` gives (symbol index,
    child) pairs in symbol order; `close(child)`, unless close is None,
    gives a node that the word which reaches the child also reaches, or
    None, and is not applied to the nodes it gives.  Each search stores
    the nodes it reaches in its own set.

    Yields (w, batch) for each nonempty word w, in llex order, that some
    search first reaches nodes with: `batch` lists (k, the new nodes of
    search k), k ascending.  The nodes that one word first reaches in a
    search are expanded together, their pairs merged in symbol order, so
    a search whose `close` adds nodes stays in llex order."""
    stored = [set() for _ in searches]
    queue = deque([((), [(k, list(starts))
                         for k, (starts, _, _) in enumerate(searches)
                         if starts])])
    while queue:
        w, groups = queue.popleft()
        buckets: dict = {}  # symbol -> [(k, new nodes of search k), ...]
        for k, group in groups:
            _, expand, close = searches[k]
            seen = stored[k]
            if len(group) == 1:
                steps = expand(group[0])
            else:
                steps = sorted(chain.from_iterable(map(expand, group)))
            sym = None
            for si, child in steps:
                if child in seen:
                    continue
                seen.add(child)
                if si != sym:
                    sym = si
                    new = [child]
                    buckets.setdefault(si, []).append((k, new))
                else:
                    new.append(child)
                also = close and close(child)
                if also is not None and also not in seen:
                    seen.add(also)
                    new.append(also)
        for si in sorted(buckets):
            entry = (w + (si,), buckets[si])
            queue.append(entry)
            yield entry


def reachable(seeds: Iterable[Hashable],
              succ: Callable[[Hashable], Iterable[Hashable]],
              avoid: Optional[Hashable] = None) -> set:
    """The nodes reachable from `seeds` along `succ`, the seeds included,
    on paths that never enter `avoid`."""
    seen = {v for v in seeds if v != avoid}
    todo = list(seen)
    while todo:
        for t in succ(todo.pop()):
            if t != avoid and t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def orbit(start: Hashable, step: Callable[[Hashable], Hashable]
          ) -> tuple[list, int]:
    """(values, j): the values start, step(start), step(step(start)), ...
    in order, up to the last one before the first repeat.  The value after
    the last is values[j], so values[:j] is the tail of the rho shape and
    values[j:] its cycle."""
    index: dict = {}  # value -> its position; dicts keep insertion order
    v = start
    while v not in index:
        index[v] = len(index)
        v = step(v)
    return list(index), index[v]


def canonical_bfs(starts: Iterable[Hashable],
                  succ: Callable[[Hashable], Sequence[Optional[Hashable]]],
                  cap: float = math.inf) -> tuple[list[list[int]], list]:
    """Canonical numbering of the keys reachable from `starts`.

    `succ(key)` gives the row of successor keys, one per alphabet symbol in
    alphabet order, with None for the implicit rejecting sink.  The starts
    are numbered first, in order (a repeated start keeps its first
    number), then every other key in breadth-first discovery order.  The
    starts are numbered whatever `cap` is; discovering any other key while
    `cap` keys are already numbered raises CapExceededError.  Returns
    (rows, keys): rows[i] holds the successor numbers of state i, and
    keys[i] its key, None for the sink, whose row loops on itself."""
    index: dict = {}
    for key in starts:
        index.setdefault(key, len(index))
    keys = list(index)
    rows: list[list[int]] = []
    get = index.get
    for key in keys:  # the loop also visits keys appended below
        if key is None:
            rows.append([index[None]] * len(rows[0]))
            continue
        row = []
        for t in succ(key):
            j = get(t)
            if j is None:
                if len(keys) >= cap:
                    raise CapExceededError(f"numbering exceeded cap {cap}")
                j = index[t] = len(keys)
                keys.append(t)
            row.append(j)
        rows.append(row)
    return rows, keys


def _as_written(table: Sequence[Sequence[Optional[int]]], initial: int
                ) -> Optional[list]:
    """The rows of `table`, as a list, when `canonical_bfs` from `initial`
    would give every state its own number and add no sink, and every row
    is as long as row 0; else None.  Raises InputError on a row it reads
    with a negative entry, or on an entry past the last row.

    That is when the initial state is 0, no entry is None, and, reading
    row 0, row 1, ... in turn, every entry is a state met before or the
    next new number, and every state is met before its own row is read.
    The breadth-first search then expands the rows in this same order and
    numbers each state where this reading meets it.  The last condition
    turns away unreachable states that still come in order, like state 1
    in [[0], [1]].  So the rows given back form a complete table in range
    and in canonical order: `from_table` keeps them without a second
    check.  Rows are looked up one at a time and the reading stops at
    the first None, so a table that makes a row when it is first looked
    up makes at most one row here."""
    if initial != 0 or not table:
        return None
    rows = []
    new = 1  # the number of the next state not met yet
    width = len(table[0])
    try:
        for i, row in enumerate(map(table.__getitem__, range(len(table)))):
            if i >= new or len(row) != width:  # i never met, or ragged
                return None
            for t in row:
                if t >= new:
                    if t != new:
                        return None
                    new += 1
                elif t < 0:
                    raise InputError("malformed transition table")
            rows.append(row)
    except TypeError:  # a None entry, a missing transition
        return None
    if new > len(rows):
        raise InputError("malformed transition table")
    return rows


class TransitionSystem:
    """A complete deterministic transition system over a fixed alphabet."""

    def __init__(self, alphabet: Sequence[str], delta: Sequence[Sequence[int]],
                 initial: int = 0, keys: Optional[Sequence] = None):
        TransitionSystem._keep(self, alphabet, delta, initial, keys)
        cells = set().union(*self.delta)  # none when the alphabet is empty
        if (not set(map(len, self.delta)) <= {len(self.alphabet)}
                or cells and not (0 <= min(cells) and max(cells) < self.n)):
            raise InputError("malformed transition table")

    def _keep(self, alphabet, delta, initial, keys):
        """Store the parts.  `__init__` stores them so, whatever the
        class, and then checks the table; `from_table` calls the class's
        own `_keep` on a table that `_as_written` proved, which needs no
        second check."""
        self.alphabet = tuple(alphabet)
        self.sym_index = {t: i for i, t in enumerate(self.alphabet)}
        if len(self.sym_index) != len(self.alphabet):
            raise InputError("duplicate symbol in alphabet")
        self.delta = tuple(map(tuple, delta))
        self.initial = initial
        self.n = len(self.delta)
        self._access: Optional[tuple] = None  # filled by access_word
        self.keys = tuple(keys) if keys is not None else None

    @classmethod
    def build(cls, alphabet: Sequence[str], start: Hashable,
              step: Callable[[Hashable, str], Optional[Hashable]], **kw):
        """Construct canonically by BFS.  step(key, sym) returns the successor
        key, or None for the implicit rejecting sink."""
        alphabet = tuple(alphabet)
        rows, keys = canonical_bfs(
            [start], lambda key: [step(key, sym) for sym in alphabet])
        return cls._finish(alphabet, rows, keys, **kw)

    @classmethod
    def _finish(cls, alphabet, rows, keys):
        return cls(alphabet, rows, 0, keys)

    @classmethod
    def from_table(cls, alphabet: Sequence[str],
                   table: Sequence[Sequence[Optional[int]]], initial: int = 0,
                   **kw):
        """From a table of successor states, one row per state and one
        entry per symbol, None for a missing transition; every entry and
        the initial state must lie in range.  Unreachable states are
        dropped and missing transitions are completed to a rejecting
        sink, and the machine is checked as `__init__` checks it.  A table
        already in canonical order is kept as written (see `_as_written`),
        and is not checked again: that reading proved it."""
        alphabet = tuple(alphabet)
        rows = _as_written(table, initial)
        if rows is None or len(rows[0]) != len(alphabet):
            rows, keys = canonical_bfs([initial], table.__getitem__)
            return cls._finish(alphabet, rows, keys, **kw)
        machine = cls.__new__(cls)
        machine._keep(alphabet, rows, 0, range(len(rows)), **kw)
        return machine

    @classmethod
    def from_parts(cls, alphabet: Sequence[str], num_states: int,
                   transitions: dict, initial: int = 0, **kw):
        """From explicit parts, a dict from (state, symbol) to the
        successor state; see `from_table`."""
        alphabet = tuple(alphabet)
        sym_index = {a: i for i, a in enumerate(alphabet)}
        table = [[None] * len(alphabet) for _ in range(num_states)]
        for (s, a), t in transitions.items():
            if a not in sym_index:
                raise InputError(f"transition on unknown symbol {a!r}")
            if not (0 <= s < num_states and 0 <= t < num_states):
                raise InputError(f"transition {s}-{a}->{t} out of range")
            table[s][sym_index[a]] = t
        if not 0 <= initial < num_states:
            raise InputError("initial state out of range")
        return cls.from_table(alphabet, table, initial, **kw)

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
            search = LeastWords([self.initial], self.delta.__getitem__)
            for q in search:
                p = search.links[q]  # None for the initial state
                access[q] = () if p is None else access[p] + (
                    self.alphabet[self.delta[p].index(q)],)
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
                 initial: int = 0, keys=None):
        super().__init__(alphabet, delta, initial, keys)
        self.accepting = frozenset(accepting)
        if self.accepting and not (0 <= min(self.accepting)
                                   and max(self.accepting) < self.n):
            raise InputError("accepting state out of range")

    def _keep(self, alphabet, delta, initial, keys, accepting):
        """As `TransitionSystem._keep`, with accepting states already in
        range."""
        super()._keep(alphabet, delta, initial, keys)
        self.accepting = frozenset(accepting)

    @classmethod
    def build(cls, alphabet, start, step, accepting=None):
        """accepting is a predicate on keys; the sink is never accepting."""
        dfa = super().build(alphabet, start, step, accepting=())
        if accepting is not None:
            dfa.accepting = frozenset(i for i, k in enumerate(dfa.keys)
                                      if k is not None and accepting(k))
        return dfa

    @classmethod
    def _finish(cls, alphabet, rows, keys, accepting):
        """`accepting` holds the accepting keys."""
        acc = [i for i, k in enumerate(keys) if k in accepting]
        return cls(alphabet, rows, acc, 0, keys)

    @classmethod
    def from_table(cls, alphabet, table, initial=0, accepting=()):
        acc = frozenset(accepting)
        if acc and not (0 <= min(acc) and max(acc) < len(table)):
            raise InputError("accepting state out of range")
        return super().from_table(alphabet, table, initial, accepting=acc)

    @classmethod
    def from_parts(cls, alphabet, num_states, transitions, initial=0,
                   accepting=()):
        return super().from_parts(alphabet, num_states, transitions, initial,
                                  accepting=accepting)

    def accepts(self, word: Iterable[str]) -> bool:
        return self.run(word) in self.accepting

    def _signature(self):
        return (self.alphabet, self.delta, self.initial, self.accepting)


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Minimal complete DFA for the same language, in canonical form.

    Moore refinement on columns: a round gives each state the signature
    (block, block of each successor), read off one column per symbol, and
    numbers the distinct signatures.  Each round refines the last, so the
    partition is stable as soon as a round adds no block.

    A machine that ends with every state in its own block and is already
    in canonical order (`_as_written`) is returned itself: the rebuild
    would number its states as they are."""
    acc = dfa.accepting
    blocks = [q in acc for q in range(dfa.n)]
    count = len(set(blocks))
    cols = list(zip(*dfa.delta))
    while True:
        sigs = list(zip(blocks, *[map(blocks.__getitem__, col)
                                  for col in cols]))
        number = {sig: i for i, sig in enumerate(dict.fromkeys(sigs))}
        if len(number) == count:
            break
        blocks = list(map(number.__getitem__, sigs))
        count = len(number)
    if count == dfa.n and _as_written(dfa.delta, dfa.initial) is not None:
        return dfa
    rep = {}
    for q, b in enumerate(blocks):
        rep.setdefault(b, q)
    rows, keys = canonical_bfs(
        [blocks[dfa.initial]],
        lambda b: list(map(blocks.__getitem__, dfa.delta[rep[b]])))
    return Dfa(dfa.alphabet, rows,
               [i for i, b in enumerate(keys) if rep[b] in acc])


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


def on_cycle(comp: Sequence[int], succ: Sequence[Iterable[int]]) -> bool:
    """True when the states of a strongly connected component lie on a
    cycle: the component has several states, or its one state has a
    self-loop."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


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


def weak_loop_accepts(d: Dfa, x: Word) -> bool:
    """Deterministic-Buchi acceptance of x^omega from the initial state.

    The states visited infinitely often are exactly those on the cycle of
    whole-x iterates, including positions inside each application of x;
    accept iff one of them is accepting.  On weak automata this coincides
    with the SCC classification of the cycle."""
    if not x:
        raise InputError("loop acceptance needs a nonempty loop")
    path, j = orbit(d.initial, lambda t: d.after(t, x))
    idx = d.sym_index
    for t in path[j:]:
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
        """delta maps (state, symbol) -> iterable of successor states.
        Equal successor sets are checked and stored once, as one shared
        frozenset."""
        self.alphabet = tuple(alphabet)
        self.sym_index = {t: i for i, t in enumerate(self.alphabet)}
        if len(self.sym_index) != len(self.alphabet):
            raise InputError("duplicate symbol in alphabet")
        self.n = n
        empty = frozenset()
        shared = {empty: empty}
        table = [[empty] * len(self.alphabet) for _ in range(n)]
        for (s, a), ts in delta.items():
            if a not in self.sym_index:
                raise InputError(f"transition on unknown symbol {a!r}")
            ts = frozenset(ts)
            kept = shared.get(ts)
            if kept is None:
                if any(not 0 <= t < n for t in ts):
                    raise InputError("transition state out of range")
                kept = shared[ts] = ts
            if not 0 <= s < n:
                raise InputError("transition state out of range")
            table[s][self.sym_index[a]] = kept
        self.delta = tuple(tuple(row) for row in table)
        self.initials = frozenset(initials)
        self.accepting = frozenset(accepting)
        if any(not 0 <= q < n for q in self.initials | self.accepting):
            raise InputError("state out of range")

    @classmethod
    def build(cls, alphabet: Sequence[str], starts: Iterable[Hashable],
              edges: Callable[[Hashable], Iterable[tuple[str, Iterable]]],
              accepting: Callable[[Hashable], bool]):
        """Construct from the state keys reachable from `starts`, which are
        the initial states.  edges(key) yields (symbol, target keys) pairs,
        and accepting(key) tells whether a key is accepting.

        States are numbered in order of discovery: the starts first, then
        each target key when it is first met.  The discovered keys wait on
        a stack, so the last one discovered is expanded first.  Equal
        successor sets are stored once, as one shared frozenset, while the
        automaton is built."""
        index: dict = {}
        keys: list = []
        todo: list = []

        def ident(key):
            i = index.get(key)
            if i is None:
                i = index[key] = len(keys)
                keys.append(key)
                todo.append(key)
            return i

        initials = [ident(key) for key in starts]
        shared: dict = {}
        delta = {}
        while todo:
            key = todo.pop()
            s = index[key]
            for sym, targets in edges(key):
                ts = frozenset({ident(t) for t in targets})
                if ts:
                    delta[s, sym] = shared.setdefault(ts, ts)
        return cls(alphabet, len(keys), delta, initials,
                   [i for i, key in enumerate(keys) if accepting(key)])

    def step_set(self, states: frozenset, sym: str) -> frozenset:
        i = self.sym_index.get(sym)
        if i is None:
            raise InputError(f"unknown symbol {sym!r}")
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

    def __repr__(self):
        return f"<{type(self).__name__} n={self.n} alphabet={self.alphabet}>"


class Nba(Nfa):
    """Nfa wrapper marking intended Buchi (omega) semantics."""
