"""Saturation checks for families of automata.

A family is saturated for a reference set X when any two X-representations
of the same ultimately periodic word are accepted or rejected together.
This decomposes into two polynomial checks on a refined family:

* loopshift stability: acceptance is invariant under moving the first loop
  symbol onto the spoke, among pairs of X;
* power stability: acceptance is invariant under raising the loop to a
  power.

Power stability is checked per progress state on the least X-loop-word
reaching it; loop rotations (sanctioned by loopshift stability) plus
determinism let that single representative stand in for every loop word
reaching the state, and its acceptance orbit is eventually periodic within
the automaton size, so the scan is complete.

The FDWA check searches for the five-condition witness (u, p, q, r, x, y):
x reaches p and maps q to p, y maps p to q and reaches r from the progress
automaton owned by the displacement of p, x*y loops on r, and the parity of
r disagrees with that of p and q.  Such a witness yields two normalized
representations of one word with opposite weak acceptance, and conversely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import llex_bfs, minimize_dfa
from .errors import InputError, PreconditionError
from .family import (FDFA, FDWA, FNFA, Counterexample, Family, ReferenceSet,
                     displacement_map, is_refined, refine_family)
from .words import Representation

SATURATED = "Saturated"
NOT_SATURATED = "NotSaturated"

STAGE_LOOPSHIFT = "Loopshift"
STAGE_POWER = "Power"
STAGE_FDWA = "FdwaWitness"

MODE_SATURATED = "Saturated"
MODE_FULLY_SATURATED = "FullySaturated"


@dataclass(frozen=True)
class SaturationVerdict:
    status: str
    stage: Optional[str] = None
    witness: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.status == SATURATED


def _displacements(F: Family) -> list[list[int]]:
    disps = []
    for q in range(F.leading.n):
        d = displacement_map(F, q)
        if d is None:
            raise PreconditionError(
                "family must be refined; apply refine_family first")
        disps.append(d)
    return disps


def _word_key(w, sym_index):
    return (len(w), tuple(sym_index[t] for t in w))


def check_loopshift_stable(F: Family, ref_set: ReferenceSet
                           ) -> SaturationVerdict:
    """Search, for every leading state and symbol a, for a word w such that
    (u, a*w) and (u*a, w*a) both lie in the reference set but only one is
    accepted.  The product of the two progress runs is deterministic, so a
    breadth-first search finds the least witness per slot."""
    if F.kind == FNFA:
        raise InputError("loopshift check needs deterministic progress")
    disps = _displacements(F)
    T = F.leading
    alphabet = T.alphabet
    normalized = ref_set is ReferenceSet.NORMALIZED
    best = None
    for q in range(T.n):
        Dq = F.progress[q]
        disp_q = disps[q]
        acc_q = Dq.accepting
        for ai, a in enumerate(alphabet):
            q2 = T.delta[q][ai]
            Dq2 = F.progress[q2]
            acc_q2 = Dq2.accepting

            def violates(d1, d2):
                if normalized and disp_q[d1] != q:
                    return False
                return (d1 in acc_q) != (Dq2.delta[d2][ai] in acc_q2)

            start = (Dq.delta[Dq.initial][ai], Dq2.initial)
            search = llex_bfs(
                [(start, ())],
                lambda n: zip(Dq.delta[n[0]], Dq2.delta[n[1]]))
            for (d1, d2), w in search:
                if violates(d1, d2):
                    key = ((len(w), w), q, ai)
                    if best is None or key < best[0]:
                        best = (key, q, a, w, d1 in acc_q)
                    break
    if best is None:
        return SaturationVerdict(SATURATED, STAGE_LOOPSHIFT)
    _, q, a, w, left_acc = best
    u = T.access_word(q)
    w = tuple(alphabet[si] for si in w)
    cx = Counterexample(
        "loopshift",
        Representation(u, (a,) + w),
        Representation(u + (a,), w + (a,)),
        left_acc, not left_acc)
    return SaturationVerdict(NOT_SATURATED, STAGE_LOOPSHIFT, cx)


def check_power_stable(F: Family, ref_set: ReferenceSet) -> SaturationVerdict:
    """For each progress state reachable by a reference-set loop word, scan
    the acceptance orbit of the least such representative under loop powers;
    a mixed orbit is a saturation violation."""
    if F.kind == FNFA:
        raise InputError("power check needs deterministic progress")
    disps = _displacements(F)
    T = F.leading
    best = None
    normalized = ref_set is ReferenceSet.NORMALIZED
    for q in range(T.n):
        D = F.progress[q]
        disp = disps[q]
        # llex-least nonempty word reaching each progress state
        reps = dict(llex_bfs(
            [(t, (si,)) for si, t in enumerate(D.delta[D.initial])],
            D.delta.__getitem__))
        for d, w in sorted(reps.items()):
            if normalized and disp[d] != q:
                continue
            rep = tuple(T.alphabet[si] for si in w)
            s = D.after(D.initial, rep)
            base = s in D.accepting
            seen = {s}
            i = 1
            flip = None
            while True:
                s = D.after(s, rep)
                i += 1
                if (s in D.accepting) != base:
                    flip = i
                    break
                if s in seen:
                    break
                seen.add(s)
            if flip is None:
                continue
            key = ((len(w), w), q, flip)
            if best is None or key < best[0]:
                best = (key, q, rep, flip, base)
    if best is None:
        return SaturationVerdict(SATURATED, STAGE_POWER)
    _, q, rep, flip, base = best
    u = T.access_word(q)
    cx = Counterexample(
        "power",
        Representation(u, rep),
        Representation(u, rep * flip),
        base, not base)
    return SaturationVerdict(NOT_SATURATED, STAGE_POWER, cx)


def check_saturated(F: Family, mode: str = MODE_SATURATED
                    ) -> SaturationVerdict:
    """Full pipeline: minimize progress automata, refine, then run the
    loopshift and power stages against the Normalized (mode Saturated) or
    All (mode FullySaturated) reference set.  Witnesses are word-level, so
    they replay against the original family unchanged."""
    if F.kind != FDFA:
        raise InputError("saturation pipeline applies to FDFAs; "
                         "use check_fdwa_saturated for FDWAs")
    if mode == MODE_SATURATED:
        ref = ReferenceSet.NORMALIZED
    elif mode == MODE_FULLY_SATURATED:
        ref = ReferenceSet.ALL
    else:
        raise InputError(f"unknown saturation mode {mode!r}")
    slim = Family(FDFA, F.leading, [minimize_dfa(p) for p in F.progress])
    work = refine_family(slim)
    verdict = check_loopshift_stable(work, ref)
    if not verdict.ok:
        return verdict
    return check_power_stable(work, ref)


def _reach_matrix(D):
    reach = []
    for s in range(D.n):
        seen = {s}
        todo = [s]
        while todo:
            t = todo.pop()
            for nxt in D.delta[t]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach.append(seen)
    return reach


def _on_cycle(D):
    out = set()
    for s in range(D.n):
        todo = list(set(D.delta[s]))
        seen = set(todo)
        while todo:
            t = todo.pop()
            if t == s:
                out.add(s)
                todo = []
                break
            for nxt in D.delta[t]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return out


def _fdwa_witness_word(work, u, p, q, r, v):
    """Llex-least nonempty word z = x*y satisfying the five structural
    conditions, or None.  Nodes carry the three runs of the current phase;
    the switch from the x-phase to the y-phase is a silent transition taken
    when the first two runs sit at p.  Words are tracked as symbol-index
    tuples so layer ordering follows the alphabet order."""
    Bu, Bv = work.progress[u], work.progress[v]
    alphabet = work.leading.alphabet
    target = ("y", q, r, r)

    def step(node, si):
        if node[0] == "x":
            return ("x", Bu.delta[node[1]][si], Bu.delta[node[2]][si],
                    Bv.delta[node[3]][si])
        return ("y", Bu.delta[node[1]][si], Bv.delta[node[2]][si],
                Bv.delta[node[3]][si])

    nsym = len(alphabet)
    seen: dict = {}

    def expand(cur):
        nxt: dict = {}

        def offer(node, w):
            if node in seen:
                return
            old = nxt.get(node)
            if old is None or w < old:
                nxt[node] = w
                if node[0] == "x" and node[1] == p and node[2] == p:
                    offer(("y", p, Bv.initial, node[3]), w)

        for node, w in cur.items():
            for si in range(nsym):
                offer(step(node, si), w + (si,))
        seen.update(nxt)
        return nxt

    # The empty word never counts as a witness, so length-0 nodes live in
    # their own table and do not shadow a later nonempty arrival.
    layer0: dict = {}

    def close0(node):
        if node in layer0:
            return
        layer0[node] = ()
        if node[0] == "x" and node[1] == p and node[2] == p:
            close0(("y", p, Bv.initial, node[3]))

    close0(("x", Bu.initial, q, r))
    cur = expand(layer0)
    while cur and target not in seen:
        cur = expand(cur)
    if target not in seen:
        return None
    return tuple(alphabet[si] for si in seen[target])


def check_fdwa_saturated(W: Family) -> SaturationVerdict:
    """Saturation of an FDWA via the five-condition witness search."""
    if W.kind != FDWA:
        raise InputError("check_fdwa_saturated expects an fdwa family")
    W.require_weak()
    work = W if is_refined(W) else refine_family(W)
    disps = _displacements(work)
    T = work.leading
    best = None
    for u in range(T.n):
        Bu = work.progress[u]
        acc_u = Bu.accepting
        reach_u = _reach_matrix(Bu)
        for p in range(Bu.n):
            v = disps[u][p]
            Bv = work.progress[v]
            acc_v = Bv.accepting
            reach_v = _reach_matrix(Bv)
            cyc_v = _on_cycle(Bv)
            for q in range(Bu.n):
                if (p in acc_u) != (q in acc_u):
                    continue
                if p not in reach_u[q] or q not in reach_u[p]:
                    continue
                for r in range(Bv.n):
                    if disps[v][r] != u:
                        continue
                    if (p in acc_u) == (r in acc_v):
                        continue
                    if r not in reach_v[Bv.initial]:
                        continue
                    if r not in cyc_v:
                        continue
                    z = _fdwa_witness_word(work, u, p, q, r, v)
                    if z is None:
                        continue
                    key = (_word_key(z, T.sym_index), u, p, q, r)
                    if best is None or key < best[0]:
                        best = (key, u, p, q, r, v, z)
    if best is None:
        return SaturationVerdict(SATURATED, STAGE_FDWA)
    _, u, p, q, r, v, z = best
    Bu, Bv = work.progress[u], work.progress[v]
    split = None
    for k in range(len(z) + 1):
        x, y = z[:k], z[k:]
        if (Bu.after(Bu.initial, x) == p and Bu.after(q, x) == p
                and Bu.after(p, y) == q and Bv.after(Bv.initial, y) == r
                and Bv.after(r, z) == r):
            split = k
            break
    assert split is not None
    x, y = z[:split], z[split:]
    U = T.access_word(u)
    cx = Counterexample(
        "pair",
        Representation(U, z),
        Representation(U + x, y + x),
        p in Bu.accepting,
        r in Bv.accepting)
    return SaturationVerdict(NOT_SATURATED, STAGE_FDWA, cx)
