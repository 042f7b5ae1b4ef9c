"""Learning families of DFAs from membership/equivalence oracles or samples.

The bridge between families and classic DFA learning is the reserved marker
symbol ``$``: a pair (u, x) becomes the finite word u·$·x, and a family over
Sigma becomes an ordinary DFA over Sigma + {$} accepting exactly the encoded
pairs.  ``fdfa_to_dollar_dfa`` / ``dollar_dfa_to_fdfa`` convert back and
forth, ``make_teacher`` wraps a fully saturated target family as an oracle
pair, ``learn_active`` runs an observation-table learner against such a
teacher, and ``learn_passive`` / ``gen_char_sample`` / ``default_fdfa``
implement learning from labeled example sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Optional

from .automata import Dfa, LeastWords, TransitionSystem
from .errors import InputError, PreconditionError, ProtocolError
from .family import (FDFA, Family, ReferenceSet, family_accepts, loop_search,
                     up_membership)
from .saturation import check_saturated
from .words import (Representation, Word, canonical_pair, format_word,
                    llex_key, words_up_to)

DOLLAR = "$"


class Sample:
    """Labeled representations for passive learning.

    The two label sets may mention the same ultimately periodic word through
    different (u, x) pairs, but never with opposite labels.
    """

    def __init__(self, positive: Iterable[Representation] = (),
                 negative: Iterable[Representation] = ()):
        self.positive = tuple(sorted(set(positive), key=_rep_key))
        self.negative = tuple(sorted(set(negative), key=_rep_key))
        pos_words = {canonical_pair(r.u, r.x) for r in self.positive}
        neg_words = {canonical_pair(r.u, r.x) for r in self.negative}
        for u, x in sorted(pos_words & neg_words):
            raise InputError(
                "sample labels %s(%s)^w both positive and negative"
                % tuple(format_word(w, self.alphabet()) for w in (u, x)))

    def alphabet(self) -> tuple:
        seen = set()
        for r in chain(self.positive, self.negative):
            seen.update(r.u)
            seen.update(r.x)
        return tuple(sorted(seen))

    def __len__(self):
        return len(self.positive) + len(self.negative)

    def __repr__(self):
        return "<Sample +%d -%d>" % (len(self.positive), len(self.negative))


def _rep_key(r: Representation):
    return (len(r.u) + len(r.x), r.u, r.x)


@dataclass
class LearnLog:
    """Query counters reported by learn_active."""
    membership_queries: int = 0
    equivalence_queries: int = 0
    saturation_checks: int = 0
    rounds: int = 0
    max_counterexample: int = 0


class Teacher:
    """A membership/equivalence oracle pair with query counters.

    ``membership`` answers whether u·x^w belongs to the hidden language.
    ``equivalence`` takes a candidate family and returns None on success or
    some representation in the symmetric difference.
    """

    def __init__(self, alphabet, membership_fn: Callable[[Representation], bool],
                 equivalence_fn: Callable[[Family], Optional[Representation]]):
        self.alphabet = tuple(alphabet)
        self._membership = membership_fn
        self._equivalence = equivalence_fn
        self.membership_queries = 0
        self.equivalence_queries = 0

    def membership(self, r: Representation) -> bool:
        self.membership_queries += 1
        return self._membership(r)

    def equivalence(self, F: Family) -> Optional[Representation]:
        self.equivalence_queries += 1
        return self._equivalence(F)


def fdfa_to_dollar_dfa(F: Family) -> Dfa:
    """DFA over the alphabet extended with '$' accepting {u·$·x : F accepts
    (u, x)}.

    The construction is the disjoint union of the leading system and all
    progress DFAs: leading states are non-accepting, and the '$' edge out of
    leading state q enters the initial state of the q-th progress DFA.  When
    that initial state is accepting, the edge enters a fresh non-accepting
    copy of it instead, so that u·$ alone is never accepted.  All remaining
    '$' edges go to a rejecting sink.
    """
    if F.kind != FDFA:
        raise InputError("dollar encoding is defined for fdfa families")
    if DOLLAR in F.alphabet:
        raise InputError("family alphabet already contains '$'")
    T = F.leading
    # '$' may stand anywhere; it goes before a trailing '#', which an
    # alphabet line must list last (see `faf`).
    at = len(F.alphabet) - (F.alphabet[-1:] == ("#",))
    gamma = F.alphabet[:at] + (DOLLAR,) + F.alphabet[at:]
    base = []
    off = T.n
    for D in F.progress:
        base.append(off)
        off += D.n
    entry = {}
    for q, D in enumerate(F.progress):
        if D.initial in D.accepting:
            entry[q] = off
            off += 1
    sink = off
    delta = []
    for q in range(T.n):
        row = list(T.delta[q])
        row.append(entry.get(q, base[q] + F.progress[q].initial))
        delta.append(row)
    for q, D in enumerate(F.progress):
        for s in range(D.n):
            delta.append([base[q] + t for t in D.delta[s]] + [sink])
    for q in sorted(entry):
        D = F.progress[q]
        delta.append([base[q] + t for t in D.delta[D.initial]] + [sink])
    delta.append([sink] * len(gamma))
    if at < len(F.alphabet):  # the '$' column, built last, moves to `at`
        delta = [row[:at] + row[-1:] + row[at:-1] for row in delta]
    accepting = {base[q] + s
                 for q, D in enumerate(F.progress) for s in D.accepting}
    return Dfa(gamma, delta, accepting, initial=T.initial)


def dollar_dfa_to_fdfa(A: Dfa) -> Family:
    """Family whose pairs are the words u·$·x accepted by A.

    The leading system is A restricted to the '$'-free reachable part; the
    progress DFA of leading state q is A rooted at the '$'-successor of q.
    Words with zero or several '$'s are dropped by the shape of the
    construction itself.
    """
    if DOLLAR not in A.alphabet:
        raise InputError("expected a machine over an alphabet containing '$'")
    sigma = tuple(t for t in A.alphabet if t != DOLLAR)
    idx = A.sym_index
    di = idx[DOLLAR]

    def step(s, a):
        return A.delta[s][idx[a]]

    leading = TransitionSystem.build(sigma, A.initial, step)
    progress = []
    for q in range(leading.n):
        start = A.delta[leading.keys[q]][di]
        progress.append(Dfa.build(sigma, start, step,
                                  accepting=lambda s: s in A.accepting))
    return Family(FDFA, leading, progress)


def _least_dollar_difference(A: Dfa, B: Dfa) -> Optional[tuple[Word, Word]]:
    """Llex-least well-formed word u·$·x (x nonempty, single '$') accepted by
    exactly one of A and B, as the pair (u, x); None if they agree on all.

    Breadth-first product search; phases track how much of the u·$·x shape
    has been read, so ill-formed words are never explored.
    """
    if A.alphabet != B.alphabet:
        raise InputError("dollar machines over different alphabets")
    if DOLLAR not in A.sym_index:
        raise InputError("expected machines over an alphabet containing '$'")
    di = A.sym_index[DOLLAR]

    def successors(cfg):
        sa, sb, phase = cfg
        out = []
        for i, (ta, tb) in enumerate(zip(A.delta[sa], B.delta[sb])):
            if i == di:
                out.append(None if phase else (ta, tb, 1))
            else:
                out.append((ta, tb, 2 if phase else 0))
        return out

    search = LeastWords([(A.initial, B.initial, 0)], successors)
    for node in search:
        sa, sb, phase = node
        if phase == 2 and ((sa in A.accepting) != (sb in B.accepting)):
            w = tuple(A.alphabet[i] for i in search.word(node))
            cut = w.index(DOLLAR)
            return w[:cut], w[cut + 1:]
    return None


def make_teacher(target: Family) -> Teacher:
    """Oracle pair for a fully saturated target family.

    Membership answers pair acceptance, which for a fully saturated family
    is a property of the word u·x^w alone.  Equivalence compares the
    '$'-encodings of the candidate and the target and hands back the
    llex-least differing pair.
    """
    verdict = check_saturated(target, ReferenceSet.ALL)
    if not verdict.ok:
        raise PreconditionError(
            "teacher target must be fully saturated (stage %r failed)"
            % verdict.stage)
    encoded = fdfa_to_dollar_dfa(target)

    def mem(r: Representation) -> bool:
        return family_accepts(target, r, ReferenceSet.ALL)

    def eq(F: Family) -> Optional[Representation]:
        if F.alphabet != target.alphabet:
            raise InputError("candidate family over a different alphabet")
        diff = _least_dollar_difference(encoded, fdfa_to_dollar_dfa(F))
        if diff is None:
            return None
        return Representation(diff[0], diff[1])

    return Teacher(target.alphabet, mem, eq)


def learn_active(teacher: Teacher) -> tuple[Family, LearnLog]:
    """Learn a fully saturated family from a teacher.

    Runs an observation-table DFA learner for the '$'-encoded pair language.
    Every hypothesis DFA is decoded into a family and checked for full
    saturation first: an unsaturated hypothesis yields two pair spellings of
    one word on which it disagrees with itself, and a single membership query
    tells which spelling the table has wrong, so the teacher's equivalence
    oracle only ever sees fully saturated candidates.  Counterexample words
    are absorbed by adding all their suffixes as table columns.

    The table keeps one representative prefix per row: the empty word, and
    each llex-least one-letter extension whose row was new.  The hypothesis
    is built on the representatives by `Dfa.build`; its state numbering is
    never seen, since `dollar_dfa_to_fdfa` renumbers canonically and
    acceptance does not depend on numbering.
    """
    sigma = tuple(teacher.alphabet)
    if DOLLAR in sigma:
        raise InputError("teacher alphabet already contains '$'")
    gamma = sigma + (DOLLAR,)
    order = {a: i for i, a in enumerate(gamma)}
    log = LearnLog()
    cache: dict[Word, bool] = {}

    def mem(w: Word) -> bool:
        got = cache.get(w)
        if got is None:
            got = False
            if w.count(DOLLAR) == 1:
                i = w.index(DOLLAR)
                if i < len(w) - 1:
                    got = teacher.membership(Representation(w[:i], w[i + 1:]))
            cache[w] = got
        return got

    suffixes: list[Word] = [()]

    def row(w: Word):
        return tuple(mem(w + e) for e in suffixes)

    rep = {row(()): ()}
    while True:
        # close the table: add the llex-least one-letter extension with a
        # new row until every extension matches some representative
        while True:
            ext = sorted((s + (a,) for s in rep.values() for a in gamma),
                         key=lambda v: llex_key(v, order))
            missing = next((w for w in ext if row(w) not in rep), None)
            if missing is None:
                break
            rep[row(missing)] = missing
        hypothesis = Dfa.build(gamma, (), lambda s, a: rep[row(s + (a,))],
                               accepting=mem)

        log.rounds += 1
        candidate = dollar_dfa_to_fdfa(hypothesis)
        log.saturation_checks += 1
        verdict = check_saturated(candidate, ReferenceSet.ALL)
        if verdict.ok:
            cex = teacher.equivalence(candidate)
            if cex is None:
                log.membership_queries = teacher.membership_queries
                log.equivalence_queries = teacher.equivalence_queries
                return candidate, log
            word = cex.u + (DOLLAR,) + cex.x
        else:
            w = verdict.witness
            acc, rej = ((w.left, w.right) if w.left_accepted
                        else (w.right, w.left))
            picked = rej if teacher.membership(acc) else acc
            word = picked.u + (DOLLAR,) + picked.x
        if hypothesis.accepts(word) == mem(word):
            raise ProtocolError(
                "counterexample %r agrees with the hypothesis; the teacher's"
                " answers are inconsistent" % (format_word(word, gamma),))
        log.max_counterexample = max(log.max_counterexample, len(word))
        suffixes += [word[k:] for k in range(len(word) + 1)
                     if word[k:] not in suffixes]
        # new columns only split rows, so the representatives stay distinct
        rep = {row(s): s for s in rep.values()}


def default_fdfa(positives: Iterable[Representation],
                 alphabet: Optional[Iterable[str]] = None) -> Family:
    """Family accepting exactly the representations of the given words.

    Built as a product of one position tracker per distinct word w = u·x^w:
    a tracker follows w symbol by symbol, wrapping periodic positions back
    into the first loop copy, and collapses to a divergence marker on the
    first mismatch.  A progress DFA accepts precisely the loops that return
    to the anchored position of some still-live tracker, which makes every
    spelling of a listed word accepted and everything else rejected.
    """
    words = sorted({canonical_pair(r.u, r.x) for r in positives})
    if alphabet is None:
        syms = {t for u, x in words for t in chain(u, x)}
        alphabet = tuple(sorted(syms))
    else:
        alphabet = tuple(alphabet)
    for u, x in words:
        for t in chain(u, x):
            if t not in alphabet:
                raise InputError("word symbol %r outside the alphabet" % (t,))
    diverged = -1

    def advance(vec, a):
        out = []
        for i, p in enumerate(vec):
            if p == diverged:
                out.append(diverged)
                continue
            u, x = words[i]
            sym = u[p] if p < len(u) else x[p - len(u)]
            if sym != a:
                out.append(diverged)
                continue
            p += 1
            if p == len(u) + len(x):
                p = len(u)
            out.append(p)
        return tuple(out)

    start = tuple(0 for _ in words)
    leading = TransitionSystem.build(alphabet, start, advance)
    progress = []
    for q in range(leading.n):
        anchor = leading.keys[q]

        def looped(vec, anchor=anchor):
            return any(a != diverged and p == a
                       for a, p in zip(anchor, vec))

        progress.append(Dfa.build(alphabet, anchor, advance,
                                  accepting=looped))
    return Family(FDFA, leading, progress)


def learn_passive(sample: Sample) -> Family:
    """Learn a family consistent with a labeled sample.

    First infers a leading system and per-state progress DFAs by merging
    words that no sample evidence tells apart (preferring llex-least
    representatives throughout).  If the inferred family is saturated and
    reproduces every sample label, it is returned; otherwise the fallback is
    the default family of the positive words, which is always consistent.
    """
    alphabet = sample.alphabet()
    evidence = {(r.u, r.x): True for r in sample.positive}
    evidence.update(((r.u, r.x), False) for r in sample.negative)
    if evidence:
        order = {a: i for i, a in enumerate(alphabet)}
        leading = _infer_leading(evidence, alphabet, order)
        progress = [_infer_progress(evidence, leading, q, alphabet, order)
                    for q in range(leading.n)]
        guess = Family(FDFA, leading, progress)
        if check_saturated(guess).ok:
            replay = all(up_membership(guess, r) for r in sample.positive)
            replay = replay and not any(up_membership(guess, r)
                                        for r in sample.negative)
            if replay:
                return guess
    return default_fdfa(sample.positive, alphabet)


def _infer_leading(evidence, alphabet, order):
    """Leading system with one state per evidence-separable prefix class.

    Two prefix words are separated when gluing the same continuation pair
    onto both yields oppositely labeled examples.  The test runs on a
    prefix tree of the example prefixes tagged by their loop words: u1
    and u2 are separated when the subtrees under them hold opposite
    labels for one tag at the same relative position.  The states and
    transitions are the classes and moves of `_grow_classes`.
    """
    tree = _prefix_tree((w, x, lab) for (w, x), lab in evidence.items())
    moves = _grow_classes(tree, alphabet, order)
    return TransitionSystem.build(alphabet, (),
                                  lambda key, a: moves[(key, a)])


def _prefix_tree(entries):
    """Prefix tree of (word, tag, label) entries.  A node is a pair
    (children by symbol, {tag: label}); every prefix of an entry's word has
    a node, and a label of None marks the word without labeling it.  A
    later entry overrides an earlier one with the same word and tag."""
    root = ({}, {})
    for word, tag, lab in entries:
        node = root
        for a in word:
            node = node[0].setdefault(a, ({}, {}))
        if lab is not None:
            node[1][tag] = lab
    return root


def _separated(n1, n2) -> bool:
    """True when some continuation z and tag label the words at n1·z and
    n2·z oppositely.  The walk visits only positions present under both
    nodes, so it costs at most the smaller subtree; a missing node (None)
    labels nothing."""
    if n1 is None or n2 is None or n1 is n2:
        return False
    stack = [(n1, n2)]
    while stack:
        (kids1, labs1), (kids2, labs2) = stack.pop()
        if len(labs1) > len(labs2):
            labs1, labs2 = labs2, labs1
        for tag, lab in labs1.items():
            other = labs2.get(tag)
            if other is not None and other != lab:
                return True
        if len(kids1) > len(kids2):
            kids1, kids2 = kids2, kids1
        for a, c1 in kids1.items():
            c2 = kids2.get(a)
            if c2 is not None:
                stack.append((c1, c2))
    return False


def _grow_classes(tree, alphabet, order):
    """Moves {(rep, a): rep} between class representatives of the words
    in a prefix tree.  The classes grow from the empty word by adding, in
    llex order, each word of the tree separated from all representatives
    added before it.  One pass adds the same words as restarting the scan
    after each addition: representatives are only ever added, so a word
    that is not separated from one of them never becomes separated from
    all, and a word skipped once stays skipped.  A representative moves
    on a to the llex-least representative not separated from its
    extension by a."""
    nodes = [((), tree)]
    for word, (kids, _labs) in nodes:
        nodes.extend((word + (a,), child) for a, child in kids.items())
    nodes.sort(key=lambda item: llex_key(item[0], order))
    reps = nodes[:1]
    for v, node in nodes[1:]:
        if all(_separated(node, r) for _u, r in reps):
            reps.append((v, node))
    moves = {}
    for u, node in reps:
        for a in alphabet:
            child = node[0].get(a)
            moves[(u, a)] = next(v for v, r in reps
                                 if not _separated(child, r))
    return moves


def _infer_progress(evidence, leading, q, alphabet, order):
    """Progress DFA for leading state q inferred from pooled evidence.

    Pools every example whose prefix part reaches q, keyed by the loop part;
    examples whose loop parts collide with opposite labels are ignored.  The
    empty loop counts as a fixed negative.  Class construction mirrors the
    leading inference on a prefix tree of the pooled loops, all under one
    tag: two loops are separated when some continuation labels them
    oppositely.  A class is accepting when it contains a positively labeled
    loop that returns to q.
    """
    pooled: dict[Word, Optional[bool]] = {}
    for (w, x), lab in evidence.items():
        if leading.run(w) == q:
            old = pooled.get(x, lab)
            pooled[x] = lab if old == lab else None

    tree = _prefix_tree(chain(((x, None, lab) for x, lab in pooled.items()),
                              (((), None, False),)))
    moves = _grow_classes(tree, alphabet, order)
    accepting = set()
    for x, lab in pooled.items():
        if lab and x and leading.after(q, x) == q:
            cur = ()
            for a in x:
                cur = moves[(cur, a)]
            accepting.add(cur)
    return Dfa.build(alphabet, (), lambda key, a: moves[(key, a)],
                     accepting=lambda key: key in accepting)


def gen_char_sample(target: Family) -> Sample:
    """Characteristic sample for a saturated target family.

    Emits, all labeled by the target, the separation rule on every machine:
    each access word and each one-letter extension of one, w reaching state
    t, is followed by the separator of t against every other state j.  In
    the leading system the separator is a pair (v, x), emitted as (w·v, x);
    in the progress DFA of leading state q it is a loop extension z, emitted
    as (access word of q, w·z) unless w·z is empty.  It also emits a
    normalized positive loop for every accepting progress state, and one
    single-letter loop per leading state and symbol, which also pins down
    the alphabet.  Raises when the target is not saturated, when two
    leading states are equivalent (the leading system must be minimal), or
    when two progress states admit no separating extension.
    """
    if target.kind != FDFA:
        raise InputError("characteristic samples are defined for fdfa"
                         " families")
    if not check_saturated(target).ok:
        raise PreconditionError(
            "characteristic samples need a saturated target")
    T = target.leading
    positive: list[Representation] = []
    negative: list[Representation] = []
    emitted: set = set()

    def emit(u, x):
        # Sample dedupes anyway; skipping repeats saves the membership call.
        if (u, x) not in emitted:
            emitted.add((u, x))
            r = Representation(u, x)
            (positive if up_membership(target, r) else negative).append(r)

    # the llex-least nonempty loop word leading the progress automaton of q
    # to s and T from q back to q, for each (q, s)
    search = loop_search(target)
    loops = {node[:2]: search.word(node)
             for node in islice(search, T.n, None) if node[0] == node[2]}
    lead_sep = {(q, p): _leading_separator(target, q, p)
                for p in range(T.n) for q in range(p)}
    for w, t in _state_words(T):
        for j in range(T.n):
            if j != t:
                v, x = lead_sep[(t, j) if t < j else (j, t)]
                emit(w + v, x)

    for q in range(T.n):
        D = target.progress[q]
        u = T.access_word(q)

        def verdict(w):
            return bool(w) and up_membership(target, Representation(u, w))

        seps = {}
        for s2 in range(D.n):
            for s1 in range(s2):
                x1, x2 = D.access_word(s1), D.access_word(s2)
                for z in words_up_to(D.alphabet, D.n + 2):
                    if verdict(x1 + z) != verdict(x2 + z):
                        seps[(s1, s2)] = z
                        break
                else:
                    raise PreconditionError(
                        "progress states %d and %d of leading state %d admit"
                        " no separating extension" % (s1, s2, q))
        for w, t in _state_words(D):
            for j in range(D.n):
                if j != t:
                    x = w + seps[(t, j) if t < j else (j, t)]
                    if x:
                        emit(u, x)
        for s in sorted(D.accepting):
            if (q, s) not in loops:
                raise PreconditionError(
                    "accepting progress state %d of leading state %d has no"
                    " normalized loop" % (s, q))
            emit(u, tuple(T.alphabet[i] for i in loops[q, s]))
        for a in T.alphabet:
            emit(u, (a,))

    return Sample(positive, negative)


def _state_words(M: TransitionSystem):
    """(w, t) for the access word w of every state t of M, and for every
    one-letter extension w of an access word, t the state w reaches."""
    for s in range(M.n):
        w = M.access_word(s)
        yield w, s
        for a in M.alphabet:
            yield w + (a,), M.after(s, (a,))


def _leading_separator(F: Family, q: int, p: int) -> tuple[Word, Word]:
    """Pair (v, x) whose verdict tells leading states q and p apart: x loops
    on both v-successors and exactly one side accepts.  For a saturated
    family such a pair exists whenever the states are inequivalent."""
    T = F.leading
    search = LeastWords([(q, p)],
                        lambda n: zip(T.delta[n[0]], T.delta[n[1]]))
    for node in search:
        x = _loop_separator(F, *node)
        if x is not None:
            return tuple(T.alphabet[i] for i in search.word(node)), x
    raise PreconditionError(
        "leading states %d and %d are equivalent; the leading system is"
        " not minimal" % (q, p))


def _loop_separator(F: Family, t1: int, t2: int) -> Optional[Word]:
    """Llex-least nonempty x looping the leading system at both t1 and t2
    with the two progress DFAs disagreeing on it, or None."""
    T = F.leading
    D1, D2 = F.progress[t1], F.progress[t2]

    def successors(cfg):
        a1, a2, d1, d2 = cfg
        return zip(T.delta[a1], T.delta[a2], D1.delta[d1], D2.delta[d2])

    search = LeastWords([(t1, t2, D1.initial, D2.initial)], successors,
                        store_starts=False)
    for node in islice(search, 1, None):  # the empty word is no loop
        a1, a2, d1, d2 = node
        if a1 == t1 and a2 == t2 and ((d1 in D1.accepting)
                                      != (d2 in D2.accepting)):
            return tuple(T.alphabet[i] for i in search.word(node))
    return None
