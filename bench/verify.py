"""Output checks of the upfam benchmark, run after the timed passes.

Each operation's output is checked against its source family with checks
that do not share the checker's constructions:

* a refutation witness (saturation, full saturation, almost saturation,
  FDWA saturation) is replayed through ``upfam oracle replay``, which uses
  membership calls only;
* a positive verdict is checked by ``brute_saturation`` or
  ``brute_almost_saturation`` up to bounds that keep the check small;
* learned families and translations are compared with their source by
  bounded membership, and NBAs with ``oracle.nba_lasso_accepts``.

Regularity verdicts, ``CapExceeded`` results and positive verdicts on
alphabets too large for the brute-force bounds have no independent check
yet; they are counted as unchecked, never as passed.

Every operation's status is also compared with the status pinned in the
pool file.  The pin comes from the checker under test, so it only guards
against regressions.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

# Size budgets of the bounded checks: pairs enumerated, and pooled words
# times automaton states for the brute-force oracles.
PAIR_BUDGET = 1000
BRUTE_WORDS = 100
BRUTE_WORDS_ALMOST = 1000
BRUTE_CELLS = 200_000
MAX_POWER = 6

POSITIVE = {"Saturated", "AlmostSaturated"}
REFUTED = {"NotSaturated", "NotAlmostSaturated"}
CAP_EXCEEDED = "CapExceeded"
EXIT_OF = {"Saturated": 0, "AlmostSaturated": 0, "Regular": 0,
           "NotSaturated": 1, "NotAlmostSaturated": 1, "NotRegular": 1,
           CAP_EXCEEDED: 3}


def status_of(kind: str, code: int, stdout: str) -> str:
    """Exit code, plus the verdict status for `check` operations."""
    if kind.startswith("check:") and code in (0, 1, 3):
        try:
            return "%d:%s" % (code, json.loads(stdout)["status"])
        except (ValueError, KeyError, TypeError):
            return "%d:unparsable" % code
    return str(code)


class Checker:
    """Checks operation outputs; ``check`` returns (verdict, reason) with
    verdict one of "ok", "unchecked" or "failed"."""

    def __init__(self, mods):
        self.m = mods
        self._families = {}

    def family(self, path: str):
        if path not in self._families:
            self._families[path] = self.m.faf.parse_faf(
                Path(path).read_text(encoding="utf-8"))
        return self._families[path]

    def check(self, op, code: int, stdout: str, error) -> tuple:
        if error is not None:
            return "failed", "raised: " + error.strip().splitlines()[-1]
        if code == 2:
            return "failed", "exit 2"
        status = status_of(op.kind, code, stdout)
        if op.kind.startswith("check:"):
            return self._check_verdict(op, code, stdout, status)
        if code != 0:
            return "failed", "exit %d" % code
        return self._check_document(op, stdout)

    # ---------------------------------------------------------- verdicts

    def _check_verdict(self, op, code, stdout, status):
        word = status.split(":", 1)[1]
        if EXIT_OF.get(word) != code:
            return "failed", "status %s with exit %d" % (word, code)
        if word in REFUTED:
            return self._replay(op, stdout)
        if word not in POSITIVE:
            return "unchecked", word
        F = self.family(op.source)
        which = op.kind[6:]
        m = self.m
        if which == "almost-saturation":
            depth = self._depth(F, BRUTE_WORDS_ALMOST)
            if depth is None:
                return "unchecked", "alphabet too large for brute force"
            found = m.oracle.brute_almost_saturation(F, depth, MAX_POWER)
        else:
            depth = self._depth(F, BRUTE_WORDS)
            if depth is None:
                return "unchecked", "alphabet too large for brute force"
            ref = (m.family.ReferenceSet.ALL if which == "full-saturation"
                   else m.family.ReferenceSet.NORMALIZED)
            found = m.oracle.brute_saturation(F, ref, depth, depth)
        if found is not None:
            return "failed", "brute force refutes %s up to length %d" % (
                word, depth)
        return "ok", "brute force to length %d" % depth

    def _depth(self, F, max_words):
        """Largest word length whose pooled words stay inside the word and
        cell budgets, or None when not even length 1 does."""
        k = len(F.alphabet)
        states = F.leading.n + sum(F.progress_sizes())
        depth, words = 0, 1
        while True:
            more = words + k ** (depth + 1)
            if more > max_words or more * states > BRUTE_CELLS:
                return depth or None
            depth, words = depth + 1, more

    def _replay(self, op, stdout):
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdout)
        try:
            with redirect_stdout(out):
                code = self.m.cli.main(["oracle", "replay", op.source,
                                        "--witness", "-"])
        finally:
            sys.stdin = saved
        text = out.getvalue().strip()
        if code == 0 and text.startswith("WITNESS-REPLAYS"):
            return "ok", "witness replays"
        return "failed", "replay: " + (text or "exit %d" % code)

    # --------------------------------------------------------- documents

    def _check_document(self, op, stdout):
        m = self.m
        R = m.words.Representation
        src = self.family(op.source)
        kind = op.kind
        if kind == "translate:fdwa-to-nba":
            N = parse_nba(m, stdout)
            want = m.oracle.normalized_word_accepts
            return self._agree(op, src, lambda u, x: (
                m.oracle.nba_lasso_accepts(N, u, x) == want(src, u, x)))
        if kind == "translate:to-dollar":
            A = m.faf.parse_dfa_doc(stdout)
            return self._agree(op, src, lambda u, x: (
                A.accepts(u + ("$",) + x)
                == m.family.family_accepts(src, R(u, x))))
        out = m.faf.parse_faf(stdout)
        accepts = m.family.family_accepts
        if kind == "translate:complement":
            return self._agree(op, src, lambda u, x: (
                not m.family.is_normalized(src, R(u, x))
                or accepts(out, R(u, x)) != accepts(src, R(u, x))))
        if kind == "translate:fdwa-to-duo":
            def duo(u, x):
                r = R(u, x)
                if m.translate.is_duo_normalized(out, r):
                    return m.translate.duo_accepts(out, r) == accepts(src, r)
                return not m.translate.duo_accepts(out, r)
            return self._agree(op, src, duo)
        if kind == "translate:duo-to-fdwa":
            origin = self.family(op.origin)
            return self._agree(op, origin, lambda u, x: (
                not m.family.is_normalized(origin, R(u, x))
                or accepts(out, R(u, x)) == accepts(origin, R(u, x))))
        if kind == "learn-active":
            return self._agree(op, src, lambda u, x: (
                accepts(out, R(u, x)) == accepts(src, R(u, x))))
        if kind == "char-passive":
            member = m.family.up_membership
            return self._agree(op, src, lambda u, x: (
                member(out, R(u, x)) == member(src, R(u, x))))
        return "failed", "no check for " + kind

    def _agree(self, op, F, same):
        for u, x in pairs(F.alphabet, op.id):
            if not same(u, x):
                return "failed", "disagrees with the source on (%s, %s)" % (
                    " ".join(u) or "_", " ".join(x))
        return "ok", "bounded membership"


def pairs(alphabet, key: str, budget: int = PAIR_BUDGET) -> list:
    """Pairs (u, x), x nonempty: every pair up to the largest equal length
    bound inside the budget, or, when even length 1 is too many, a sample
    seeded by the operation id with |u| <= 2 and 1 <= |x| <= 3."""
    alphabet = tuple(alphabet)
    k = len(alphabet)
    layers = [[()]]
    while True:
        nxt = [w + (a,) for w in layers[-1] for a in alphabet]
        total = sum(map(len, layers)) + len(nxt)
        if total * (total - 1) > budget:
            break
        layers.append(nxt)
    if len(layers) > 1:
        words = [w for layer in layers for w in layer]
        return [(u, x) for u in words for x in words if x]
    rng = random.Random(key)

    def word(lo, hi):
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    return [(word(0, 2), word(1, 3)) for _ in range(budget)] if k else []


def parse_nba(m, text: str):
    """NBA from the ``nba 1`` document that ``serialize_nba`` writes."""
    alphabet, n, initials, accepting, delta = (), 0, [], [], {}
    for line in text.splitlines():
        t = line.split()
        if not t:
            continue
        if t[0] == "alphabet":
            alphabet = tuple(t[1:])
        elif t[0] == "states":
            n = int(t[1])
        elif t[0] == "initials":
            initials = [int(s) for s in t[1:]]
        elif t[0] == "accepting":
            accepting = [int(s) for s in t[1:]]
        elif t[0] == "trans":
            delta.setdefault((int(t[1]), t[2]), []).append(int(t[3]))
    return m.automata.Nba(alphabet, n, delta, initials, accepting)
