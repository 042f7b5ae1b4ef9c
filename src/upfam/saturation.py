"""Saturation checks for families of automata.

A family is saturated for a reference set X when any two X-representations
of the same ultimately periodic word are accepted or rejected together.
This decomposes into two polynomial checks on the refined family:

* loopshift stability: acceptance is invariant under moving the first loop
  symbol onto the spoke, among pairs of X;
* power stability: acceptance is invariant under raising the loop to a
  power.

Power stability is checked per refined progress state on the least
X-loop-word reaching it; loop rotations (sanctioned by loopshift
stability) plus determinism let that single representative stand in for
every loop word reaching the state, and its acceptance orbit is eventually
periodic within the automaton size, so the scan is complete.

The refined automaton of leading state q is the product of its progress
automaton D_q with the leading system T started at q: a state (d, t) says
that a loop word leads D_q to d and T from q to t.  The two stages never
build it; their search nodes carry the leading state instead, and the
nodes they reach are the refined states:

* A loopshift node of the slot (q, a) after the word w is (d1, d2, t):
  D_q after a*w, D_q' after w with q' = T(q, a), and t = T(q, a*w) =
  T(q', w).  Both refined components carry t, so the node graph is
  isomorphic to their product, edge for edge in alphabet order, and the
  pair (u, a*w) is normalized exactly when t = q.
* Power representatives are the llex-least nonempty words reaching each
  node (d, t) of D_q x T from (initial, q), each refined state
  (`loop_search`).  Acceptance reads only d, so the orbit of a
  representative under its powers is followed on d alone: the d-orbit is
  eventually periodic, the first flip, if any, comes before d first
  repeats, and the refined orbit, whose pairs repeat no earlier, flips at
  the same index.

Each stage reports the least key over its searches, ((len w, w), q, a)
for loopshift and ((len w, w), q, flip) for power.  The searches, one
per slot k = (q, a) or one per q, run as one search with one start per
search, each node tagged with its k (`automata.product_search`), so all
of them advance one word length at a time, together.  Every search is
deterministic, so a word reaches one node of it, and a layer lists the
nodes of each search in turn, each in llex order of their words: the
first goal of a search in a layer is its least.  `automata.least_goal`
stops the stage after the first length at which any search meets a
goal, with the least (w, k) among the goals of that length, and at once
on a goal whose word is all first symbols, the least word of its
length, which no later search can beat.  Both searches keep one link
per node and rebuild a word only when asked: loopshift for its goals,
power for each node that passes the reference-set test, since its orbit
reads the word.  Power skips the orbit of a node whose word is not below
the least goal of the length so far.  A layer is found as it is read,
so the layer of the last length is not read past the point where the
stage stops.

Nor do the stages need minimal progress automata: on the family as given
they give the status, witness and stage they give on the minimized one.

* Loopshift.  The goal test of a slot (q, a) reads only whether (u, a*w)
  and (u*a, w*a) are accepted, and t; so the least w of each slot is
  fixed by the languages, not by the automata.
* Power.  The least word of a class of minimal states (with one t) is
  also the least word of the fine node (d, t) it reaches.  The words of
  the other fine nodes in that class are larger, and by the
  representative argument on the minimized automaton they flip only when
  the class's word flips.  The flip index is the first power whose
  acceptance differs, a fact about the language.  (The argument needs
  loopshift stability, which holds whenever `check_saturated` runs this
  stage.)

The FDWA check searches the refined family for the five-condition witness
(u, p, q, r, x, y): x reaches p and maps q to p, y maps p to q and reaches
r from the progress automaton owned by the displacement of p, x*y loops on
r, and the parity of r disagrees with that of p and q.  Such a witness
yields two normalized representations of one word with opposite weak
acceptance, and conversely.  `refine_family` keeps the displacement of
each state as its key, so it is never walked again.

The reported witness is the least key (len z, z, u, p, q, r) over all
admissible tuples, z = x*y.  The tuples are not searched one by one.  The
p of one u fall into classes by component, acceptance and displacement v,
and every p of a class admits the same q (its component and acceptance)
and the same r (on a cycle of Bv, displaced back to u, of the other
acceptance).  One search per class and (q, r) walks the x-graph from
(u0, q, r) and may switch at any x-node (p, p, c), p in the class, to the
y-node (p, v0, c).  A word reaches the target (q, r, r) exactly when it
splits as a witness for some p of the class, so the search's language is
the union of the tuples' languages and its least word z is the least
witness word of the class.  The key takes the least p of the class for
which z splits (`_fdwa_split`, the test that also rebuilds x and y for the
counterexample): z is then the least word of that p's own language, and
no smaller p's language holds it.  The x-graph is walked once for the
class instead of once per p, and where the runs of two p meet in the
y-graph the node is stored once.

The searches of all u, classes and pairs (q, r) run together in
`automata.least_batches`, in llex order of words, and the check stops at
the first word that reaches any target.  That word is the least witness
word z of all tuples, and the key is the least among the searches whose
target z reaches.  The switch from the x-phase to the y-phase reads no
symbol, so one word can first reach an x-node and a y-node together: the
switch is the search's `close` map, and the routine expands the nodes
that one word first reaches in a search as one group.  Each search keeps
its own set of stored nodes and stores the nodes its own search would,
up to z.  The nodes that one word stores over all searches form one
batch, and batches come in llex order of words: the node count `--cap`
bounds, summed over all searches, is tested before the batch is
searched for a target, so a cap that the witness's batch crosses gives
CapExceeded.  Saturated families have no witness, so every search runs
to its end, and the stored node sets of all searches are alive at once.

All searches of one pair (u, v), v the displacement of the class, walk
the same two product graphs, Bu x Bu x Bv over x and Bu x Bv x Bv over y,
so the pair keeps one distinct-successor list per product node
(`_SuccessorLists`): its distinct children, each with the least symbol
leading to it, in symbol order.  A group is expanded by merging its
nodes' lists in symbol order.  A symbol that a list leaves out leads its
node to a child that a smaller symbol already stored (or found stored), so
it stores nothing: the stored nodes, their words, the node count that
`--cap` bounds and the point where it is exceeded are those of a pass over
the whole alphabet.
"""

from __future__ import annotations

from typing import Optional

from .automata import (dfa_sccs, least_batches, least_goal, on_cycle, orbit,
                       product_search)
from .errors import CAP_EXCEEDED, CapExceededError, InputError, Verdict
from .family import (FDFA, FDWA, FNFA, Counterexample, Family, ReferenceSet,
                     loop_search, refine_family)
from .words import Representation

SATURATED = "Saturated"
NOT_SATURATED = "NotSaturated"

STAGE_LOOPSHIFT = "Loopshift"
STAGE_POWER = "Power"
STAGE_FDWA = "FdwaWitness"


def check_loopshift_stable(F: Family, ref_set: ReferenceSet) -> Verdict:
    """Search, for every leading state q and symbol a, for a word w such
    that (u, a*w) and (u*a, w*a) both lie in the reference set but only one
    is accepted.  A node (k, d1, d2, t) of the slot k = (q, a) holds the
    runs of the progress automata of q on a*w and of T(q, a) on w, and the
    leading state T(q, a*w).  The slots are searched together, from the
    empty word on."""
    if F.kind == FNFA:
        raise InputError("loopshift check needs deterministic progress")
    T = F.leading
    alphabet = T.alphabet
    normalized = ref_set is ReferenceSet.NORMALIZED
    slots = []  # q, the index of a, and the tables the goal test reads
    searches = []
    for q in range(T.n):
        Dq = F.progress[q]
        for ai in range(len(alphabet)):
            Dq2 = F.progress[T.delta[q][ai]]
            slots.append((q, ai, Dq.accepting, Dq2.delta, Dq2.accepting))
            searches.append(((Dq.delta[Dq.initial][ai], Dq2.initial,
                              T.delta[q][ai]), (Dq.delta, Dq2.delta, T.delta)))

    def goals(nodes):
        for node in nodes:
            k, d1, d2, t = node
            q, ai, acc_q, delta2, acc_q2 = slots[k]
            if ((not normalized or t == q)
                    and (d1 in acc_q) != (delta2[d2][ai] in acc_q2)):
                yield node, d1 in acc_q

    best = least_goal(product_search(searches), goals)
    if best is None:
        return Verdict(SATURATED, stage=STAGE_LOOPSHIFT)
    w, k, left_acc = best
    u = T.access_word(slots[k][0])
    aw = tuple(alphabet[si] for si in (slots[k][1],) + w)
    cx = Counterexample("loopshift", Representation(u, aw),
                        Representation(u + aw[:1], aw[1:] + aw[:1]),
                        left_acc, not left_acc)
    return Verdict(NOT_SATURATED, cx, STAGE_LOOPSHIFT)


def check_power_stable(F: Family, ref_set: ReferenceSet) -> Verdict:
    """For each pair (d, t) of a progress state and a leading state reached
    together by a reference-set loop word, scan the acceptance orbit of the
    least such representative under loop powers; a mixed orbit is a
    saturation violation.  The searches of all q run together."""
    if F.kind == FNFA:
        raise InputError("power check needs deterministic progress")
    T = F.leading
    normalized = ref_set is ReferenceSet.NORMALIZED
    search = loop_search(F)

    def goals(nodes):
        bound = (len(T.alphabet),)  # above every word of the layer
        for node in nodes:
            q, s, t = node
            if normalized and t != q or not search.length:
                continue  # the empty word is no loop
            D = F.progress[q]
            acc, delta, w = D.accepting, D.delta, search.word(node)
            if w >= bound:
                continue
            # the states that w, w^2, w^3, ... lead to
            states, _ = orbit(s, lambda d: _after(delta, d, w))
            flip = next((i for i, d in enumerate(states, 1)
                         if (d in acc) != (s in acc)), None)
            if flip is not None:
                bound = w
                yield node, (s in acc, flip)

    best = least_goal(search, goals)
    if best is None:
        return Verdict(SATURATED, stage=STAGE_POWER)
    w, q, (base, flip) = best
    rep = tuple(T.alphabet[si] for si in w)
    u = T.access_word(q)
    cx = Counterexample("power", Representation(u, rep),
                        Representation(u, rep * flip), base, not base)
    return Verdict(NOT_SATURATED, cx, STAGE_POWER)


def _after(delta, state: int, w: tuple) -> int:
    """The state a word of symbol indices leads to from state."""
    for si in w:
        state = delta[state][si]
    return state


def check_saturated(F: Family, ref: ReferenceSet = ReferenceSet.NORMALIZED
                    ) -> Verdict:
    """Full pipeline: the loopshift and then the power stage, on the family
    as given, against the reference set: Normalized for saturation, All for
    full saturation.  The progress automata are not minimized first; the
    module docstring shows why no verdict, stage or witness changes."""
    if F.kind != FDFA:
        raise InputError("saturation pipeline applies to FDFAs; "
                         "use check_fdwa_saturated for FDWAs")
    if not isinstance(ref, ReferenceSet):
        raise InputError(f"unknown reference set {ref!r}")
    verdict = check_loopshift_stable(F, ref)
    if not verdict.ok:
        return verdict
    return check_power_stable(F, ref)


def _components(D):
    """(component of each state, states on a cycle) of a DFA: p and q
    reach each other exactly when comp[p] == comp[q]."""
    comp = [0] * D.n
    cyclic = set()
    for k, states in enumerate(dfa_sccs(D)):
        for s in states:
            comp[s] = k
        if on_cycle(states, D.delta):
            cyclic.update(states)
    return comp, cyclic


class _SuccessorLists(dict):
    """Distinct-successor lists of the two product graphs of one pair (u, v)
    of refined progress automata: node code -> [(si, child code), ...],
    each distinct child once with the least symbol index reaching it, in
    symbol order.  An x-node (a, b, c) of Bu x Bu x Bv has the code
    (a * nu + b) * nv + c; a y-node (a, b, c) of Bu x Bv x Bv has the code
    y_base + (a * nv + b) * nv + c, so the two graphs share one code space.
    A list is built from the zipped `delta` rows when its node is first
    looked up, and every search on the pair reads the same list."""

    def __init__(self, Bu, Bv):
        super().__init__()
        self.nu, self.nv = Bu.n, Bv.n
        self.u0 = Bu.initial
        self.y_base = Bu.n * Bu.n * Bv.n
        self.du, self.dv = Bu.delta, Bv.delta

    def __missing__(self, code):
        nu, nv, y_base, dv = self.nu, self.nv, self.y_base, self.dv
        if code < y_base:
            a, bc = divmod(code, nu * nv)
            b, c = divmod(bc, nv)
            codes = [(a * nu + b) * nv + c
                     for a, b, c in zip(self.du[a], self.du[b], dv[c])]
        else:
            a, bc = divmod(code - y_base, nv * nv)
            b, c = divmod(bc, nv)
            codes = [y_base + (a * nv + b) * nv + c
                     for a, b, c in zip(self.du[a], dv[b], dv[c])]
        children = dict.fromkeys(codes)  # distinct, in order of first use
        if len(children) == len(codes):  # every symbol a different child
            row = list(enumerate(codes))
        else:
            row = []
            si = -1
            for child in children:
                si = codes.index(child, si + 1)  # the child's first use
                row.append((si, child))
        self[code] = row
        return row


def _fdwa_split(Bu, Bv, p, q, r, z):
    """The first split (x, y) of the word z = x*y meeting the five
    conditions for (p, q, r), or None: x leads the initial state of Bu and
    q to p, y leads p to q and the initial state of Bv to r, and z loops on
    r in Bv."""
    if Bv.after(r, z) != r:
        return None
    for k in range(len(z) + 1):
        x, y = z[:k], z[k:]
        if (Bu.after(Bu.initial, x) == Bu.after(q, x) == p
                and Bu.after(p, y) == q and Bv.after(Bv.initial, y) == r):
            return x, y
    return None


def _least_fdwa_witness(work, cap):
    """The least key ((len z, z), u, p, q, r) over all admissible tuples,
    as (key, v), or None.  `work` is refined, so the key of each progress
    state is its displacement.  The p of each u fall into classes by
    component, acceptance and displacement v; a class shares its q (same
    component and acceptance) and its r (displaced back to u, on a cycle,
    of the other acceptance), and the search of (u, class, q, r) switches
    at every p of the class.  All of these searches run as one llex-order
    search over their disjoint union, which stops at the first word z that
    reaches any target: the least witness word of all tuples.  The key
    takes, among the searches whose target z reaches, the least
    (u, p, q, r), p the least of its class for which `_fdwa_split` finds a
    split of z.  More than `cap` stored nodes in all raise
    CapExceededError.

    A search's x-node (a, b, c) runs Bu from its initial state and from q
    and Bv from r over x; a y-node (a, b, c) runs Bu from p, Bv from its
    initial state and Bv on from the x-node's c over y.  Its `switch` maps
    the code of each x-node (p, p, c), p in the class, to that of the
    y-node (p, v0, c); it is built once per class and is the search's
    `close` map in `least_batches`.  The searches of one pair (u, v)
    share its successor lists as their `expand`.  Each batch adds its
    nodes to the count before its targets are looked for."""
    progress = work.progress
    alphabet = work.leading.alphabet
    disps = [B.keys for B in progress]
    comps = [_components(B) for B in progress]
    searches = []  # (start group, expand, close) of each search
    targets = []  # the target node of each search
    tuples = []  # (u, v, class, q, r) of each search
    for u, Bu in enumerate(progress):
        acc_u = Bu.accepting
        comp_u = comps[u][0]
        parts = {}  # (component, acceptance) -> its states, the q
        classes = {}  # (component, acceptance, displacement) -> the p
        for p in range(Bu.n):
            k = (comp_u[p], p in acc_u)
            parts.setdefault(k, []).append(p)
            classes.setdefault(k + (disps[u][p],), []).append(p)
        ends = {}  # (v, acceptance of p) -> the r
        pair_lists = {}
        for (comp, p_acc, v), ps in classes.items():
            Bv = progress[v]
            if (v, p_acc) not in ends:
                ends[v, p_acc] = sorted(
                    r for r in comps[v][1]
                    if disps[v][r] == u and (r in Bv.accepting) != p_acc)
            rs = ends[v, p_acc]
            if not rs:
                continue
            if v not in pair_lists:
                pair_lists[v] = _SuccessorLists(Bu, Bv)
            lists = pair_lists[v]
            nu, nv, v0, y_base = Bu.n, Bv.n, Bv.initial, lists.y_base
            # x-node (p, p, c) -> y-node (p, v0, c)
            switch = {(p * nu + p) * nv + c: y_base + (p * nv + v0) * nv + c
                      for p in ps for c in range(nv)}
            for q in parts[comp, p_acc]:
                for r in rs:
                    # No x-node switches to the target (q, r, r): that
                    # needs p = q and c = r = v0, so v = u and x leads the
                    # initial state of Bu to p and to r, p = r, which the
                    # parity of r rules out.  The start is reached by the
                    # empty word, which is no witness.
                    start = (lists.u0 * nu + q) * nv + r
                    searches.append(([start, switch[start]]
                                     if start in switch else [start],
                                     lists.__getitem__, switch.get))
                    targets.append(y_base + (q * nv + r) * nv + r)
                    tuples.append((u, v, ps, q, r))
    stored = 0
    for z, batch in least_batches(searches):
        stored += sum([len(new) for _, new in batch])
        if cap is not None and stored > cap:
            raise CapExceededError("FDWA witness search exceeded cap")
        found = [tuples[k] for k, new in batch if targets[k] in new]
        if found:
            return _fdwa_key(progress, alphabet, z, found)
    return None


def _fdwa_key(progress, alphabet, z, found):
    """The least key ((len z, z), u, p, q, r), as (key, v), over the
    searches `found`, (u, v, class, q, r) each, whose target z reaches."""
    word = tuple(alphabet[si] for si in z)
    best = None
    for u, v, ps, q, r in found:
        p = next(p for p in ps if _fdwa_split(
            progress[u], progress[v], p, q, r, word) is not None)
        key = ((len(z), z), u, p, q, r)
        if best is None or key < best[0]:
            best = (key, v)
    return best


def check_fdwa_saturated(W: Family, cap: Optional[int] = None) -> Verdict:
    """Saturation of an FDWA via the five-condition witness search.  With a
    cap, the searches may store at most `cap` nodes in all; going over it
    gives a CapExceeded verdict."""
    if W.kind != FDWA:
        raise InputError("check_fdwa_saturated expects an fdwa family")
    if cap is not None and cap < 1:
        raise InputError("cap must be positive")
    W.require_weak()
    work = refine_family(W)
    try:
        best = _least_fdwa_witness(work, cap)
    except CapExceededError:
        return Verdict(CAP_EXCEEDED, stage=STAGE_FDWA)
    if best is None:
        return Verdict(SATURATED, stage=STAGE_FDWA)
    ((_, z), u, p, q, r), v = best
    T = work.leading
    z = tuple(T.alphabet[si] for si in z)
    Bu, Bv = work.progress[u], work.progress[v]
    x, y = _fdwa_split(Bu, Bv, p, q, r, z)
    U = T.access_word(u)
    cx = Counterexample("pair", Representation(U, z),
                        Representation(U + x, y + x),
                        p in Bu.accepting, r in Bv.accepting)
    return Verdict(NOT_SATURATED, cx, STAGE_FDWA)
