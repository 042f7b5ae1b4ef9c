"""Brute-force reference implementations.

These are deliberately simple bounded searches used to validate the real
decision procedures on small instances.  They enumerate representations
explicitly, group them by the ultimately periodic word they denote, and
look for acceptance discrepancies.

Pair enumeration order used for determinism everywhere below: first by
total length |u|+|x|, then llex on u, then llex on x.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .automata import Nfa, strongly_connected_components, weak_loop_accepts
from .errors import InputError
from .family import (FDFA, FDWA, FNFA, Counterexample, Family, ReferenceSet)
from .words import Representation, Word, canonical_pair


@lru_cache(maxsize=None)
def _word_pool(alphabet: tuple[str, ...], max_len: int):
    """All words up to max_len in llex order, with parent/symbol links so
    per-automaton state tables fill in one pass.  Index = llex rank."""
    words: list[Word] = [()]
    parent = [-1]
    sym = [-1]
    block_start = 0
    for _ in range(max_len):
        block_end = len(words)
        for p in range(block_start, block_end):
            for si, a in enumerate(alphabet):
                words.append(words[p] + (a,))
                parent.append(p)
                sym.append(si)
        block_start = block_end
    rank = {w: i for i, w in enumerate(words)}
    return words, parent, sym, rank


@lru_cache(maxsize=None)
def _canonical_table(alphabet: tuple[str, ...], max_u: int, max_x: int):
    """(u_rank, x_rank) -> (canonical u rank, canonical x rank) for every
    |u| <= max_u and 1 <= |x| <= max_x, keyed in llex order of u, then of
    x.  Canonical forms are never longer, so their ranks lie in the same
    pool."""
    words, _, _, rank = _word_pool(alphabet, max(max_u, max_x, 1))
    table = {}
    for ui, u in enumerate(words):
        if len(u) > max_u:
            break
        for xi, x in enumerate(words[1:], 1):
            if len(x) > max_x:
                break
            cu, cx = canonical_pair(u, x)
            table[(ui, xi)] = (rank[cu], rank[cx])
    return table


def _state_rows(n_states, delta, words_pack):
    """For each start state, the state reached by every pooled word."""
    words, parent, sym, _ = words_pack
    rows = []
    for s0 in range(n_states):
        row = [0] * len(words)
        row[0] = s0
        for i in range(1, len(words)):
            row[i] = delta[row[parent[i]]][sym[i]]
        rows.append(row)
    return rows


def enumerate_normalized(F: Family, max_u: int, max_x: int
                         ) -> list[Representation]:
    """All normalized pairs within the bounds, llex on u then on x."""
    pack = _word_pool(F.alphabet, max(max_u, max_x, 1))
    words = pack[0]
    T = F.leading
    rows = _state_rows(T.n, T.delta, pack)
    out = []
    for ui, u in enumerate(words):
        if len(u) > max_u:
            break
        tu = rows[T.initial][ui]
        for xi, x in enumerate(words):
            if len(x) > max_x:
                break
            if x and rows[tu][xi] == tu:
                out.append(Representation(u, x))
    return out


def _pair_acceptor(F: Family, pack):
    """Returns accepted(leading_state, x_rank, x_word) for pair acceptance
    of a pair whose spoke reaches the given leading state."""
    if F.kind == FDFA:
        init_rows = [_state_rows(p.n, p.delta, pack)[p.initial]
                     for p in F.progress]
        accs = [p.accepting for p in F.progress]
        return lambda tu, xi, x: init_rows[tu][xi] in accs[tu]
    if F.kind == FDWA:
        all_rows = [_state_rows(p.n, p.delta, pack) for p in F.progress]
        all_hits = [_hit_rows(p, rows, pack)
                    for p, rows in zip(F.progress, all_rows)]

        def buchi(tu, xi, x):
            rows, hits = all_rows[tu], all_hits[tu]
            s = F.progress[tu].initial
            seen = set()
            path = []
            while s not in seen:
                seen.add(s)
                path.append(s)
                s = rows[s][xi]
            start = path.index(s)
            return any(hits[t][xi] for t in path[start:])

        return buchi
    return lambda tu, xi, x: F.progress[tu].accepts(x)


def _hit_rows(dfa, state_rows, words_pack):
    """hits[s][w]: does the run of w from s visit an accepting state at any
    position before the final one?  (Position 0 counts, position |w| not.)"""
    words, parent, sym, _ = words_pack
    acc = dfa.accepting
    hits = []
    for s0 in range(dfa.n):
        row = [False] * len(words)
        srow = state_rows[s0]
        for i in range(1, len(words)):
            p = parent[i]
            row[i] = row[p] or srow[p] in acc
        hits.append(row)
    return hits


def brute_saturation(F: Family, ref_set: ReferenceSet, max_u: int,
                     max_x: int) -> Optional[Counterexample]:
    """Group reference-set pairs within the bounds by the ultimately periodic
    word they denote; report the least group with mixed acceptance as a
    Counterexample (least accepted member on the left, least rejected on the
    right), or None.  Sound but only complete up to the bounds."""
    alphabet = F.alphabet
    depth = max(max_u, max_x, 1)
    pack = _word_pool(alphabet, depth)
    words = pack[0]
    canon = _canonical_table(alphabet, max_u, max_x)
    T = F.leading
    t_rows = _state_rows(T.n, T.delta, pack)
    accepted_of = _pair_acceptor(F, pack)
    normalized_only = ref_set is ReferenceSet.NORMALIZED

    groups: dict = {}
    for (ui, xi), key in canon.items():
        tu = t_rows[T.initial][ui]
        if normalized_only and t_rows[tu][xi] != tu:
            continue
        slot = groups.setdefault(key, [None, None])
        side = 0 if accepted_of(tu, xi, words[xi]) else 1
        member = (len(words[ui]) + len(words[xi]), ui, xi)
        if slot[side] is None or member < slot[side]:
            slot[side] = member
    best_key = None
    for (cui, cxi), (acc, rej) in groups.items():
        if acc is None or rej is None:
            continue
        gkey = (len(words[cui]) + len(words[cxi]), cui, cxi)
        if best_key is None or gkey < best_key[0]:
            best_key = (gkey, acc, rej)
    if best_key is None:
        return None
    _, (_, aui, axi), (_, rui, rxi) = best_key
    return Counterexample(
        "pair",
        Representation(words[aui], words[axi]),
        Representation(words[rui], words[rxi]),
        True, False)


def brute_almost_saturation(F: Family, max_x: int, max_power: int
                            ) -> Optional[tuple[Word, Word, int]]:
    """First (leading state order, llex x, ascending power) witness of a
    normalized accepted loop whose i-th power is rejected, or None."""
    if F.kind != FDFA:
        raise InputError("almost saturation is defined for FDFAs")
    pack = _word_pool(F.alphabet, max(max_x, 1))
    words = pack[0]
    T = F.leading
    t_rows = _state_rows(T.n, T.delta, pack)
    for q in range(T.n):
        u = T.access_word(q)
        prog = F.progress[q]
        p_rows = _state_rows(prog.n, prog.delta, pack)
        for xi, x in enumerate(words):
            if len(x) > max_x:
                break
            if not x or t_rows[q][xi] != q:
                continue
            if p_rows[prog.initial][xi] not in prog.accepting:
                continue
            s = p_rows[prog.initial][xi]
            for i in range(2, max_power + 1):
                s = p_rows[s][xi]
                if s not in prog.accepting:
                    return (u, x, i)
    return None


def nba_lasso_accepts(A: Nfa, u, x) -> bool:
    """Buchi acceptance of u * x^omega: some run visits an accepting state
    infinitely often.  Decided on the product of automaton states with
    positions in x, by searching for a reachable cycle through an accepting
    product node."""
    x = tuple(x)
    if not x:
        raise InputError("lasso loop must be nonempty")
    start = A.run_set(u)
    if not start:
        return False
    L = len(x)
    sym = [A.sym_index[a] for a in x]
    nodes: dict = {}
    order: list = []

    def node_id(s, i):
        key = (s, i)
        nid = nodes.get(key)
        if nid is None:
            nid = len(order)
            nodes[key] = nid
            order.append(key)
        return nid

    for s in sorted(start):
        node_id(s, 0)
    succ: list[list[int]] = []
    k = 0
    while k < len(order):
        s, i = order[k]
        j = (i + 1) % L
        succ.append([node_id(t, j) for t in A.delta[s][sym[i]]])
        k += 1
    comps = strongly_connected_components(len(order), succ)
    acc_nodes = {nid for (s, i), nid in nodes.items() if s in A.accepting}
    for comp in comps:
        hit = [n for n in comp if n in acc_nodes]
        if not hit:
            continue
        if len(comp) > 1:
            return True
        n = comp[0]
        if n in succ[n]:
            return True
    return False


def _loop_power_accepted(F: Family, q: int, rho: Word) -> bool:
    """Is (u, rho^k) accepted for some k >= 1, where u reaches leading
    state q?  Scans the iteration of rho on the pair of leading state and
    progress configuration until it cycles."""
    T = F.leading
    prog = F.progress[q]
    if F.kind == FDWA:
        # omega acceptance of (rho^k)^omega does not depend on k; only
        # the existence of a leading loop does.
        t = T.after(q, rho)
        for _ in range(T.n):
            if t == q:
                return weak_loop_accepts(prog, rho)
            t = T.after(t, rho)
        return False

    nondet = F.kind == FNFA

    def advance(c):
        if nondet:
            for sym in rho:
                c = prog.step_set(c, sym)
            return c
        return prog.after(c, rho)

    def accepted(c):
        if nondet:
            return bool(c & prog.accepting)
        return c in prog.accepting

    t = q
    c = prog.initials if nondet else prog.initial
    seen = set()
    while True:
        t = T.after(t, rho)
        c = advance(c)
        if t == q and accepted(c):
            return True
        if (t, c) in seen:
            return False
        seen.add((t, c))


def normalized_word_accepts(F: Family, u, x) -> bool:
    """True iff some normalized representation of u * x^omega is accepted.

    Families that are not saturated can accept one normalized
    representation of a word and reject another; this oracle quantifies
    existentially over all of them.  Every representation of the word
    cuts the tail at some position p and loops on a power of the root
    rotated to p, so walking the tail until the (leading state, rotation
    phase) pair repeats covers all of them.
    """
    rep = Representation(u, x).canonical()
    r = rep.x
    T = F.leading
    q = T.run(rep.u)
    phase = 0
    seen = set()
    while (q, phase) not in seen:
        seen.add((q, phase))
        rho = r[phase:] + r[:phase]
        if _loop_power_accepted(F, q, rho):
            return True
        q = T.after(q, rho[:1])
        phase = (phase + 1) % len(r)
    return False
