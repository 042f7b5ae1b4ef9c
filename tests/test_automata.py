import random
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import odd_a_fdfa, universal_fdfa
from helpers import make_weak, minimize_by_signatures, random_dfa
from upfam.automata import (Dfa, LeastWords, Nfa, TransitionSystem,
                            _as_written, canonical_bfs, dfa_sccs, is_weak,
                            least_batches, least_goal, minimize_dfa, on_cycle,
                            orbit, product_search, reachable,
                            strongly_connected_components, weak_loop_accepts)
from upfam.errors import CapExceededError, InputError
from upfam.family import loop_search
from upfam.faf import parse_sample
from upfam.learning import fdfa_to_dollar_dfa, learn_passive
from upfam.words import as_word, words_up_to


def ba_star_dfa():
    return Dfa.from_parts(
        "ab", 3,
        {(0, "b"): 1, (0, "a"): 2, (1, "a"): 1, (1, "b"): 2,
         (2, "a"): 2, (2, "b"): 2},
        accepting={1})


def test_run_and_after():
    d = ba_star_dfa()
    assert d.run("") == d.initial == 0
    assert d.run("ba") in d.accepting
    assert d.accepts("ba") and d.accepts("b") and d.accepts("baaa")
    assert not d.accepts("ab") and not d.accepts("")


def test_run_rejects_unknown_symbol():
    d = ba_star_dfa()
    with pytest.raises(InputError):
        d.run("bc")


def test_nfa_run_rejects_unknown_symbol():
    n = Nfa("ab", 2, {(0, "a"): [0, 1], (0, "b"): [0]}, [0], [1])
    with pytest.raises(InputError, match="unknown symbol 'c'"):
        n.accepts("ac")
    with pytest.raises(InputError):
        n.step_set(frozenset({0}), "c")


def test_canonical_numbering_and_access_words():
    d = ba_star_dfa()
    # BFS in alphabet order: state 0 first, then its a-successor, then b
    assert d.access_word(0) == ()
    assert d.access_word(1) == ("a",)
    assert d.access_word(2) == ("b",)
    assert d.accepting == {2}


def test_canonical_bfs_numbers_starts_first_and_caps_the_rest():
    # 3 -> 1 -> 0 -> 2 -> 2 on one symbol; starts 1 and 3, 1 repeated.
    table = [[2], [0], [2], [1]]
    rows, keys = canonical_bfs([1, 3, 1], table.__getitem__)
    assert keys == [1, 3, 0, 2]
    assert rows == [[2], [0], [3], [3]]
    assert canonical_bfs([1, 3, 1], table.__getitem__, cap=4) == (rows, keys)
    for cap in (1, 2, 3):
        with pytest.raises(CapExceededError):
            canonical_bfs([1, 3], table.__getitem__, cap=cap)
    # Two starts and no other key: the starts alone never exceed a cap.
    assert canonical_bfs([2, 0], table.__getitem__, cap=1) == \
        ([[0], [0]], [2, 0])


def _random_table(rng, i):
    """(table, initial) of one of six shapes, by i: a canonical complete
    table; the same with its states permuted (initial 0 kept, or moved);
    with unreachable states added; with missing transitions; with several
    rejecting sinks."""
    nsym = rng.randint(1, 3)
    n = rng.randint(1, 8)
    table = [[rng.randrange(n) for _ in range(nsym)] for _ in range(n)]
    if i % 6 == 5:  # rejecting sinks: rows that loop on themselves
        for q in rng.sample(range(n), rng.randint(1, n)):
            table[q] = [q] * nsym
    rows, _ = canonical_bfs([0], table.__getitem__)
    n = len(rows)
    shape = i % 6
    if shape in (1, 2):
        perm = list(range(n))
        rng.shuffle(perm)
        if shape == 1:
            perm.remove(0)
            perm.insert(0, 0)
        new = [None] * n
        for q, row in enumerate(rows):
            new[perm[q]] = [perm[t] for t in row]
        return new, perm[0]
    if shape == 3:
        extra = rng.randint(1, 3)
        rows += [[rng.randrange(n + extra) for _ in range(nsym)]
                 for _ in range(extra)]
    if shape == 4:
        for _ in range(rng.randint(1, n * nsym)):
            rows[rng.randrange(n)][rng.randrange(nsym)] = None
    return rows, 0


def test_table_kept_as_written_exactly_when_canonical():
    # The shortcut of from_table keeps a table exactly when the canonical
    # numbering would renumber nothing and add no sink, and then gives
    # the machine that numbering gives.  Appended unreachable states can
    # come in first-visit order ([[0], [1]]) and must still be dropped.
    rng = random.Random("as-written")
    kept = 0
    for i in range(1800):
        table, initial = _random_table(rng, i)
        n, nsym = len(table), len(table[0])
        rows, keys = canonical_bfs([initial], table.__getitem__)
        canonical = keys == list(range(n))
        assert (_as_written(table, initial) == rows) == canonical, i
        assert (_as_written(table, initial) is None) != canonical, i
        accepting = rng.sample(range(n), rng.randint(0, n))
        D = Dfa.from_table("abc"[:nsym], table, initial, accepting)
        assert D.delta == tuple(map(tuple, rows)), i
        assert D.keys == tuple(keys), i
        assert D.accepting == {j for j, key in enumerate(keys)
                               if key in accepting}, i
        kept += canonical
    assert 450 <= kept <= 900, kept
    assert _as_written([[0], [1]], 0) is None


def test_completion_adds_sink():
    d = Dfa.from_parts("ab", 1, {(0, "a"): 0}, accepting={0})
    assert d.n == 2  # sink appended for the missing b-edge
    assert d.accepts("aaa") and not d.accepts("ab")
    assert not d.accepts("aba")


def test_unreachable_states_dropped():
    d = Dfa.from_parts("a", 3, {(0, "a"): 0, (1, "a"): 2, (2, "a"): 1},
                       accepting={0, 2})
    assert d.n == 1
    assert d.accepting == {0}


def test_minimize_merges_duplicate_accepting_state():
    # b a* with the accepting state split in two
    d = Dfa.from_parts(
        "ab", 4,
        {(0, "b"): 1, (0, "a"): 3, (1, "a"): 2, (1, "b"): 3,
         (2, "a"): 1, (2, "b"): 3, (3, "a"): 3, (3, "b"): 3},
        accepting={1, 2})
    m = minimize_dfa(d)
    assert m.n == 3
    assert m == minimize_dfa(ba_star_dfa())


def test_minimize_already_minimal():
    d = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0}, accepting={1})
    assert minimize_dfa(d) == d


def test_minimize_empty_language_collapses():
    d = Dfa.from_parts("a", 4, {(0, "a"): 1, (1, "a"): 2, (2, "a"): 3,
                                (3, "a"): 3})
    m = minimize_dfa(d)
    assert m.n == 1 and not m.accepting


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_minimize_preserves_language(seed):
    rng = random.Random(seed)
    d = random_dfa(rng, "ab", 6)
    m = minimize_dfa(d)
    assert m.n <= d.n
    for w in words_up_to("ab", 7):
        assert d.accepts(w) == m.accepts(w)
    # canonical form is a fixpoint
    assert minimize_dfa(m) == m


def test_structural_equality_is_isomorphism():
    d1 = Dfa.from_parts("ab", 2, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 1,
                                  (1, "b"): 0}, accepting={1})
    # same machine with states swapped
    d2 = Dfa.from_parts("ab", 2, {(1, "a"): 0, (1, "b"): 1, (0, "a"): 0,
                                  (0, "b"): 1}, initial=1, accepting={0})
    assert d1 == d2


def test_scc_and_weakness():
    d = ba_star_dfa()
    comps = {frozenset(c) for c in dfa_sccs(d)}
    assert frozenset([0]) in comps  # transient initial state
    assert is_weak(d)
    mixed = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0},
                           accepting={1})
    assert not is_weak(mixed)  # 2-cycle with one accepting state


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_make_weak_produces_weak(seed):
    rng = random.Random(seed)
    assert is_weak(make_weak(rng, random_dfa(rng, "ab", 5)))


def test_weak_loop_accepts():
    universal = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0},
                               accepting={0})
    assert weak_loop_accepts(universal, as_word("ab"))
    dead = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0})
    assert not weak_loop_accepts(dead, as_word("b"))
    with pytest.raises(InputError):
        weak_loop_accepts(universal, ())


def test_weak_loop_power_invariance():
    rng = random.Random(7)
    for _ in range(50):
        d = make_weak(rng, random_dfa(rng, "ab", 5))
        for x in ["a", "ab", "ba", "abb"]:
            w = as_word(x)
            base = weak_loop_accepts(d, w)
            for k in range(2, 5):
                assert weak_loop_accepts(d, w * k) == base


def _least_words_by_brute_force(root, successors, nsym, min_len, max_len):
    """Llex-least word of length min_len..max_len reaching each node."""
    least = {}
    for w in words_up_to(range(nsym), max_len, min_len):
        node = root
        for si in w:
            node = successors(node)[si]
            if node is None:
                break
        if node is not None and node not in least:
            least[node] = w
    return least


@pytest.mark.parametrize("nonempty", [False, True])
@pytest.mark.parametrize("seed", range(24))
def test_llex_bfs_matches_brute_force(seed, nonempty):
    """`LeastWords`, the llex-order breadth-first search, on one DFA over
    abc (even seeds) or a product of two DFAs over ab (odd seeds), with
    about a fifth of the edges blocked.  Seeds 12-23 take the graphs of
    seeds 0-11 with the last symbol's column copying the first's, so a
    node is reached by two symbols and its least word must use the first
    of them, as `LeastWords.word` reads it.  The nonempty words come from
    a search whose start is not stored, read past its first layer."""
    rng = random.Random(seed % 12)
    if seed % 2:
        A, B = (random_dfa(rng, "ab", 3, total=False) for _ in range(2))
        nodes = list(product(range(A.n), range(B.n)))
        root = (A.initial, B.initial)
        edges = lambda n: zip(A.delta[n[0]], B.delta[n[1]])
    else:
        A = random_dfa(rng, "abc", 6, total=False)
        nodes = list(range(A.n))
        root = A.initial
        edges = lambda n: A.delta[n]
    nsym = len(A.alphabet)
    blocked = {(n, si) for n in nodes for si in range(nsym)
               if rng.random() < 0.2}

    def successors(n):
        row = [None if (n, si) in blocked else t
               for si, t in enumerate(edges(n))]
        if seed >= 12:
            row[-1] = row[0]
        return row

    search = LeastWords([root], successors, store_starts=not nonempty)
    # the start is left out when it is not stored
    found = [(n, search.word(n))
             for n in islice(search, int(nonempty), None)]
    least = _least_words_by_brute_force(root, successors, nsym,
                                        int(nonempty), len(nodes))
    assert len({n for n, _ in found}) == len(found)
    assert dict(found) == least
    keys = [(len(w), w) for _, w in found]
    assert keys == sorted(keys)


def layers_with_words(search):
    """Every layer of a search, as (node, rebuilt word) pairs, each layer
    found by running `advance` to its end."""
    layers = [[(v, search.word(v)) for v in search.layer]]
    while search.layer:
        layers.append([(v, search.word(v)) for v in search.advance()])
    return layers


def test_stored_start_is_not_found_again():
    """A search that stores its start, as the almost-saturation walk and
    `access_word` do: the cycle 0 -a-> 1 -a-> 0 returns to the start, and
    the nonempty word aa finds nothing new."""
    search = LeastWords([0], [[1, None], [0, 2], [2, 2]].__getitem__)
    assert layers_with_words(search) == [
        [(0, ())], [(1, (0,))], [(2, (0, 1))], []]
    assert search.length == 3
    d = TransitionSystem("a", [[1], [0]])
    assert [d.access_word(q) for q in range(2)] == [(), ("a",)]


def test_unstored_start_is_found_again():
    """A search that does not store its start, as the loop searches do:
    the cycle 0 -a-> 1 -a-> 0 reaches the start again with aa, which is
    listed in its layer, expanded once more without finding anything new,
    and has its word rebuilt; `least_batches` hands out the same nodes,
    and `loop_search` finds its start again the same way."""
    table = [[1, None], [0, 2], [2, 2]]
    search = LeastWords([0], table.__getitem__, store_starts=False)
    assert layers_with_words(search) == [
        [(0, ())], [(1, (0,))], [(0, (0, 0)), (2, (0, 1))], []]
    # the loop search of odd_a: aa leads the progress automaton back to
    # its initial state and the leading system back to 0
    loops = loop_search(odd_a_fdfa())
    assert [(v, loops.word(v)) for v in loops] == [
        ((0, 0, 0), ()), ((0, 1, 0), (0,)), ((0, 0, 0), (0, 0))]
    assert [w for w, _ in least_batches(
        [([0], lambda v: [(si, t) for si, t in enumerate(table[v])
                          if t is not None], None)])] == [(0,), (0, 0),
                                                          (0, 1)]


@pytest.mark.parametrize("seed", range(20))
def test_several_starts_advance_together(seed):
    """Two to four searches of products of two or three random total
    tables, run as one by `product_search`: each layer lists the layers
    of the single searches in turn, with the same words."""
    rng = random.Random(seed)
    nsym, width = rng.choice([2, 3]), rng.choice([2, 3])
    searches = []
    for _ in range(rng.randint(2, 4)):
        tables = tuple([[rng.randrange(n) for _ in range(nsym)]
                        for _ in range(n)]
                       for n in (rng.randint(1, 5) for _ in range(width)))
        searches.append((tuple(rng.randrange(len(t)) for t in tables),
                         tables))

    def alone(start, tables):
        return LeastWords([start], lambda v: zip(*(
            t[s] for t, s in zip(tables, v))), store_starts=False)

    together = product_search(searches)
    singles = [alone(*search) for search in searches]
    while together.layer:
        assert [(v, together.word(v)) for v in together.layer] == [
            ((k,) + v, search.word(v)) for k, search in enumerate(singles)
            for v in search.layer]
        list(together.advance())
        for search in singles:
            list(search.advance())
    assert not any(search.layer for search in singles)


def test_least_goal_takes_the_least_word_then_the_first_search():
    """Two copies of one cycle 0 -a-> 1 -a-> 2, b staying put, with the
    goal 2 in the first and 1 in the second: the second meets its goal
    first, with a.  With the goal 1 in both, the first search wins the
    tie on a, and the search stops there, as a is the least word of its
    length: the second search's node of a is not tested."""
    table, constant = [[1, 0], [2, 1], [2, 2]], [[0, 0]]
    searches = [((0, 0), (table, constant))] * 2
    tested = []

    def goals(targets):
        def given(nodes):
            for node in nodes:
                tested.append(node[:2])
                if node[1] == targets[node[0]]:
                    yield node, node[:2]
        return given

    assert least_goal(product_search(searches), goals([2, 1])) == (
        (0,), 1, (1, 1))
    tested.clear()
    assert least_goal(product_search(searches), goals([1, 1])) == (
        (0,), 0, (0, 1))
    assert tested == [(0, 0), (1, 0), (0, 1)]
    assert least_goal(product_search(searches), goals([3, 3])) is None


def test_a_layer_is_found_as_far_as_it_is_read():
    """`advance` starts the next layer when it is first read and expands a
    node's row only when the layer is read past the children of the nodes
    before it."""
    table = [[1, 2], [3, 3], [4, 4], [0, 0], [0, 0]]
    expanded = []

    def successors(v):
        expanded.append(v)
        return table[v]

    search = LeastWords([0], successors)
    assert list(search.advance()) == [1, 2]
    nodes = search.advance()
    assert expanded == [0] and search.layer == [1, 2]
    assert next(nodes) == 3
    assert expanded == [0, 1] and search.layer == [3]
    assert list(nodes) == [4]
    assert expanded == [0, 1, 2]
    assert [search.word(v) for v in search.layer] == [(0, 0), (1, 0)]


def _random_search(rng, nsym):
    """(starts, expand, close) of a random partial deterministic table on
    2 to 6 nodes.  `close` maps some nodes to nodes that it maps nowhere,
    as a search's switch does."""
    n = rng.randint(2, 6)
    table = [[t if rng.random() < 0.8 else None
              for t in (rng.randrange(n) for _ in range(nsym))]
             for _ in range(n)]
    sources = [v for v in range(n) if rng.random() < 0.5]
    images = [v for v in range(n) if v not in sources]
    switch = {v: rng.choice(images) for v in sources
              if images and rng.random() < 0.5}
    starts = rng.sample(range(n), rng.randint(1, 2))
    return (starts,
            lambda v: [(si, t) for si, t in enumerate(table[v])
                       if t is not None],
            switch.get if switch else None)


def _batches_by_brute_force(searches, nsym):
    """(w, [(k, nodes that w reaches in search k and no llex-smaller
    nonempty word does), ...]) for every nonempty word w that has any.  A
    word reaches the nodes its last letter leads to from the nodes its
    prefix reaches, and the nodes `close` gives for those.  A least word
    passes no node twice, so on at most six nodes it has at most five
    letters."""
    met = [set() for _ in searches]
    out = []
    for w in words_up_to(range(nsym), 6, 1):
        batch = []
        for k, (starts, expand, close) in enumerate(searches):
            nodes = set(starts)
            for si in w:
                nodes = {t for v in nodes for sj, t in expand(v) if sj == si}
                nodes |= {close(t) for t in nodes if close} - {None}
            new = nodes - met[k]
            met[k] |= nodes
            if new:
                batch.append((k, new))
        if batch:
            out.append((w, batch))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_least_batches_matches_brute_force(seed):
    """Two to four random searches over two or three symbols, each with one
    or two starts and, in about half of them, a `close` map: the batches
    come in llex order of words, search by search in ascending order, and
    hold exactly the nodes each word is the least nonempty word of; a
    start counts as new when a nonempty word reaches it."""
    rng = random.Random(seed)
    nsym = rng.choice([2, 3])
    searches = [_random_search(rng, nsym) for _ in range(rng.randint(2, 4))]
    found = [(w, [(k, sorted(new)) for k, new in batch])
             for w, batch in least_batches(searches)]
    for _, batch in found:
        for _, new in batch:
            assert len(set(new)) == len(new)
    assert found == [(w, [(k, sorted(new)) for k, new in batch])
                     for w, batch in _batches_by_brute_force(searches, nsym)]


def test_least_batches_cases_cover_the_contract():
    """The seeds above meet batches of several searches, starts reached
    again, and batches in which `close` adds a node beside its source."""
    shared = restarted = closed = 0
    for seed in range(40):
        rng = random.Random(seed)
        nsym = rng.choice([2, 3])
        searches = [_random_search(rng, nsym)
                    for _ in range(rng.randint(2, 4))]
        for _, batch in least_batches(searches):
            shared += len(batch) > 1
            for k, new in batch:
                starts, _, close = searches[k]
                restarted += any(v in starts for v in new)
                closed += close is not None and any(
                    close(v) in new for v in new)
    assert shared > 40 and restarted > 20 and closed > 10


def _closure(adj, seeds, avoid=None):
    """Nodes reachable from seeds without entering avoid, as the least
    fixed point of whole sweeps over the edges."""
    reach = {v for v in seeds if v != avoid}
    while True:
        more = reach | {t for v in reach for t in adj[v] if t != avoid}
        if more == reach:
            return reach
        reach = more


def _random_graph(rng):
    """Adjacency lists of 1 to 9 nodes, self-loops allowed."""
    n = rng.randint(1, 9)
    return [[t for t in range(n) if rng.random() < 0.2] for _ in range(n)]


@pytest.mark.parametrize("seed", range(40))
def test_reachable_matches_closure(seed):
    rng = random.Random(seed)
    adj = _random_graph(rng)
    seeds = rng.sample(range(len(adj)), rng.randint(1, min(3, len(adj))))
    # no avoided node, a random one, and one of the seeds
    for avoid in (None, rng.randrange(len(adj)), seeds[0]):
        assert (reachable(seeds, adj.__getitem__, avoid)
                == _closure(adj, seeds, avoid))


@pytest.mark.parametrize("seed", range(40))
def test_on_cycle_matches_closure(seed):
    """A node lies on a cycle when a nonempty path leads back to it."""
    adj = _random_graph(random.Random(seed))
    comps = strongly_connected_components(len(adj), adj)
    assert sorted(v for comp in comps for v in comp) == list(range(len(adj)))
    for comp in comps:
        for v in comp:
            assert on_cycle(comp, adj) == (v in _closure(adj, adj[v]))


def test_nfa_basics():
    # (a|b)*a — nondeterministic guess of the final a
    n = Nfa("ab", 2, {(0, "a"): [0, 1], (0, "b"): [0]}, [0], [1])
    assert n.accepts("a") and n.accepts("bba") and not n.accepts("ab")
    assert not n.accepts("")


@given(st.integers(0, 12), st.integers(1, 12))
def test_orbit_has_the_rho_shape(tail, cycle):
    # step walks 0, 1, ..., tail + cycle - 1 and then back to tail
    def step(v):
        return v + 1 if v + 1 < tail + cycle else tail

    values, j = orbit(0, step)
    assert values == list(range(tail + cycle)) and j == tail
    assert step(values[-1]) == values[j]


def test_transition_system_from_parts_validation():
    with pytest.raises(InputError):
        TransitionSystem.from_parts("a", 1, {(0, "b"): 0})
    with pytest.raises(InputError):
        TransitionSystem.from_parts("a", 1, {(0, "a"): 5})
    with pytest.raises(InputError):
        TransitionSystem.from_parts("aa", 1, {})  # duplicate symbol


def test_constructors_validate_the_table():
    for delta in ([[0, -1]], [[0, 1]], [[0]], [[0, 0], [1]]):
        with pytest.raises(InputError):
            TransitionSystem("ab", delta)
        with pytest.raises(InputError):
            Dfa("ab", delta, ())
    for accepting in ([1], [-1], [0, 2]):
        with pytest.raises(InputError):
            Dfa("ab", [[0, 0]], accepting)
    assert Dfa("ab", [[1, 0], [1, 1]], [0, 1]).n == 2


def test_tables_no_reading_proved_are_checked():
    # from_table keeps a table in canonical order as it is; every other
    # table, and every other way to build, is checked as the constructors
    # check it.
    for alphabet, table in (
            ("ab", [[1, None], [0]]),  # incomplete, with a short row
            ("ab", [[0, 2], [1], [1, 0]]),  # not in canonical order
            ("ab", [[1, 0], [1]]),  # in order, but with a short row
            ("abc", [[0, 0]]),  # in order, narrower than the alphabet
            ("ab", [[0, -1]]),  # in order, with a negative entry
            ("a", [[1]])):  # in order, with an entry past the last row
        with pytest.raises(InputError, match="^malformed transition table$"):
            TransitionSystem.from_table(alphabet, table)
    with pytest.raises(InputError, match="^accepting state out of range$"):
        Dfa.from_table("a", [[0]], 0, [1])
    with pytest.raises(InputError, match="^initial state out of range$"):
        Dfa.from_parts("a", 1, {(0, "a"): 0}, 1)
    # Family's reachability walk is pinned by test_family's
    # test_family_rejects_unreachable_leading_states.
    for delta, initials, accepting in (({(0, "a"): [1]}, [0], []),
                                       ({(1, "a"): [0]}, [0], []),
                                       ({}, [1], []),
                                       ({}, [0], [2]),
                                       ({}, [-1], [])):
        with pytest.raises(InputError, match="out of range"):
            Nfa("a", 1, delta, initials, accepting)


def test_a_proved_table_is_not_checked_again(monkeypatch):
    def check(*args):
        raise AssertionError("checked again")

    built = Dfa("ab", [[1, 0], [1, 1]], [1], 0, [0, 1])
    monkeypatch.setattr(TransitionSystem, "__init__", check)
    D = Dfa.from_table("ab", [[1, 0], [1, 1]], 0, [1])
    assert D == built and D.accepting == built.accepting
    assert (type(D.accepting), D.keys) == (frozenset, built.keys)
    with pytest.raises(AssertionError, match="checked again"):
        Dfa.from_table("ab", [[1, None], [1, 1]], 0, [1])


def test_zero_symbol_alphabet_builds():
    assert TransitionSystem((), [()]).n == 1
    assert Dfa((), [()], [0]).accepts(())
    F = learn_passive(parse_sample(""))
    assert F.alphabet == () and F.leading.delta == ((),)


def _minimize_case(rng):
    """A random DFA with 1-4 symbols and up to 40 states: partial tables
    completed by a sink, and a share with empty or universal languages."""
    alphabet = "abcd"[:rng.randint(1, 4)]
    n = rng.randint(1, 40)
    kind = rng.random()
    trans = {}
    for s in range(n):
        for a in alphabet:
            if kind < 0.1 or rng.random() < 0.85:
                # a few target blocks, so that many states are equivalent
                trans[(s, a)] = rng.randrange(min(n, rng.choice((3, 8, n))))
    if kind < 0.1:  # total and all accepting: universal
        acc = range(n)
    elif kind < 0.2:
        acc = ()
    else:
        acc = {s for s in range(n) if rng.random() < 0.4}
    return Dfa.from_parts(alphabet, n, trans, rng.randrange(n), acc)


def test_minimize_matches_signature_reference():
    rng = random.Random("minimize")
    sizes = set()
    for _ in range(3000):
        d = _minimize_case(rng)
        m = minimize_dfa(d)
        assert m == minimize_by_signatures(d)
        sizes.add(m.n)
    assert {1, 2} <= sizes and max(sizes) > 20


def _permuted(rng, d):
    """The machine d with its states renumbered at random, built with the
    constructor, so it is in canonical order only by chance."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    delta = [None] * d.n
    for q, row in enumerate(d.delta):
        delta[perm[q]] = [perm[t] for t in row]
    return Dfa(d.alphabet, delta, [perm[q] for q in d.accepting],
               perm[d.initial])


def test_minimize_returns_a_minimal_canonical_machine_itself():
    d = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0}, accepting={1})
    assert minimize_dfa(d) is d
    one = Dfa("ab", [[0, 0]], [])
    assert minimize_dfa(one) is one
    m = minimize_dfa(ba_star_dfa())
    assert minimize_dfa(m) is m


def test_minimize_renumbers_a_minimal_machine_out_of_canonical_order():
    # the dollar machine of the universal family is minimal, and the
    # constructor keeps its disjoint-union numbering
    A = fdfa_to_dollar_dfa(universal_fdfa())
    assert _as_written(A.delta, A.initial) is None
    assert minimize_by_signatures(A).n == A.n
    m = minimize_dfa(A)
    assert m is not A and m.n == A.n
    assert _as_written(m.delta, m.initial) is not None
    assert m == minimize_by_signatures(A)
    # a distinguishable state that nothing reaches is dropped
    d = Dfa("a", [[0], [1]], [1])
    assert minimize_dfa(d) == Dfa("a", [[0]], [])


def test_minimize_matches_the_reference_on_permuted_machines():
    rng = random.Random("minimize permuted")
    kept = renumbered = 0
    for _ in range(600):
        d = _minimize_case(rng)
        for e in (d, _permuted(rng, d), _permuted(rng, minimize_dfa(d))):
            m = minimize_dfa(e)
            assert m == minimize_by_signatures(e)
            assert _as_written(m.delta, m.initial) is not None
            if m is e:
                kept += 1
            else:
                renumbered += 1
    assert kept > 100 and renumbered > 100
