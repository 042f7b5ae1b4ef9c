"""Seeded corpus of the upfam benchmark.

Every workload is a list of operations.  An operation is one command line
handed to ``upfam.cli.main`` in-process; the program only ever sees the
generated ``.faf`` files (and, for passive learning, the sample text that
``gen_char_sample`` produces inside the timed operation).

A workload has two parts:

* fixed ladders from ``upfam gen``, the same at every seed;
* random groups drawn from a frozen pool (``pool.json``).  Pool member ``i``
  of a group is generated from ``random.Random("<group>:<i>")`` by the
  generators below, so a member is the same family on every machine.  The
  pool build (``pool.py``) ran every member once, pinned its statuses and
  output digests, and admitted the members the group's rule allows,
  sorted by their measured cost.  A seed picks one member from each of
  ``draws`` equal cost strata, so two seeds give different families with
  the same cost profile, and every drawn operation has a pin.

Generators here are the benchmark's own; they do not import the test
helpers, so a change to the tests cannot change the corpus.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

POOL_FILE = Path(__file__).with_name("pool.json")

AB = ("a", "b")
LETTERS = ("a", "b", "c", "d", "e")

# Checker budget passed as --cap to every `check` operation of a workload.
CAPS = {
    "regularity": 8000,
    "fdwa": 100_000,
    "saturation": 20_000,
    "learn-translate": 100_000,
}


@dataclass(frozen=True)
class Group:
    """A seeded random group: how members are built and admitted."""

    name: str           # "<workload>/<label>"
    make: str           # generator name in GENERATORS
    bounds: tuple       # generator arguments
    commands: tuple     # command kinds run on every member
    draws: int          # members drawn per seed (one per cost stratum)
    pool: int           # candidates the pool build tries
    max_cost_ms: float  # admission: total cost of the member's commands
    want_status: Optional[str] = None  # admission: required check status


@dataclass
class Op:
    """One timed operation.

    ``argv`` goes to ``upfam.cli.main``.  ``kind`` names the command for
    verification ("check:<which>", "translate:<which>", "learn-active",
    "char-passive"); ``source`` is the family file the output is checked
    against, and ``origin`` the original family where ``source`` is a
    derived one (the duo view)."""

    id: str
    kind: str
    argv: list
    source: str
    origin: Optional[str] = None


# --------------------------------------------------------------- generators

def _random_ts(rng, alphabet, n):
    from upfam.automata import TransitionSystem
    trans = {(s, a): rng.randrange(n) for s in range(n) for a in alphabet}
    return TransitionSystem.from_parts(alphabet, n, trans)


def _random_dfa(rng, alphabet, n, total):
    from upfam.automata import Dfa
    trans = {}
    for s in range(n):
        for a in alphabet:
            if total or rng.random() < 0.9:
                trans[(s, a)] = rng.randrange(n)
    acc = {s for s in range(n) if rng.random() < 0.5}
    return Dfa.from_parts(alphabet, n, trans, accepting=acc)


def _weak(rng, dfa):
    """Acceptance reassigned uniformly per strongly connected component."""
    from upfam.automata import Dfa, dfa_sccs
    acc = set()
    for comp in dfa_sccs(dfa):
        if rng.random() < 0.5:
            acc.update(comp)
    return Dfa(dfa.alphabet, dfa.delta, acc, dfa.initial)


def random_fdfa(rng, max_leading, max_progress):
    """FDFA over ab in the band: leading and progress sizes uniform in
    1..max, partial progress transitions completed to a rejecting sink."""
    from upfam.family import FDFA, Family
    lead = _random_ts(rng, AB, rng.randint(1, max_leading))
    progress = [_random_dfa(rng, AB, rng.randint(1, max_progress), False)
                for _ in range(lead.n)]
    return Family(FDFA, lead, progress)


def random_fdwa(rng, max_leading, max_progress):
    """Weak family over ab in the band, sizes as in random_fdfa."""
    from upfam.family import FDWA, Family
    lead = _random_ts(rng, AB, rng.randint(1, max_leading))
    progress = [_weak(rng, _random_dfa(rng, AB,
                                       rng.randint(1, max_progress), True))
                for _ in range(lead.n)]
    return Family(FDWA, lead, progress)


def letter_set_target(rng, min_letters, max_letters):
    """Fully saturated, syntactic FDFA: one leading state; the progress DFA
    tracks the set of letters read so far and accepts a random collection
    of nonempty sets, then is minimized.  Acceptance depends only on the
    letters that occur infinitely often, so every spelling of a word
    agrees."""
    from upfam.automata import Dfa, TransitionSystem, minimize_dfa
    from upfam.family import FDFA, Family
    k = rng.randint(min_letters, max_letters)
    sigma = LETTERS[:k]
    chosen = {m for m in range(1, 1 << k) if rng.random() < 0.5}
    if not chosen:
        chosen = {(1 << k) - 1}
    prog = Dfa.build(sigma, 0, lambda m, a: m | (1 << sigma.index(a)),
                     accepting=lambda m: m in chosen)
    lead = TransitionSystem.build(sigma, 0, lambda s, a: 0)
    return Family(FDFA, lead, [minimize_dfa(prog)])


GENERATORS = {
    "fdfa": random_fdfa,
    "fdwa": random_fdwa,
    "letter-set": letter_set_target,
}


def pool_member(group: Group, index: int):
    rng = random.Random("%s:%d" % (group.name, index))
    return GENERATORS[group.make](rng, *group.bounds)


# --------------------------------------------------------------- workloads

SAT3 = ("check:saturation", "check:full-saturation",
        "check:almost-saturation")
TRANSLATIONS = ("translate:fdwa-to-nba", "translate:complement",
                "translate:fdwa-to-duo", "translate:duo-to-fdwa")
LEARN3 = ("learn-active", "char-passive", "translate:to-dollar")

# Ladders: (generator name, sizes, command kinds).
LADDERS = {
    "regularity": [
        ("zero-u-zero-fdfa", (3, 4, 5), ("check:regularity",)),
        ("syntactic-gap", (1, 2), ("check:regularity",)),
    ],
    "fdwa": [
        ("fixpoint-fdwa", (1, 2, 3, 4, 5, 6), ("check:fdwa-saturation",)),
        ("zero-u-zero-fdwa", (1, 2, 3, 4, 5, 6), ("check:fdwa-saturation",)),
        ("subset-occurrence", (3, 4, 5), ("check:fdwa-saturation",)),
    ],
    "saturation": [
        ("syntactic-gap", (4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48),
         SAT3),
        ("fixpoint-alsat", (3, 4, 5, 6), SAT3),
    ],
    "learn-translate": [
        ("fixpoint-fdwa", (3, 4), TRANSLATIONS),
        ("subset-occurrence", (3, 4), TRANSLATIONS),
    ],
}

GROUPS = {
    "regularity": [
        Group("regularity/rand-2x5", "fdfa", (2, 5), ("check:regularity",),
              draws=150, pool=1500, max_cost_ms=40.0),
        Group("regularity/capped-3x7", "fdfa", (3, 7), ("check:regularity",),
              draws=2, pool=300, max_cost_ms=500.0,
              want_status="CapExceeded"),
    ],
    "fdwa": [
        Group("fdwa/rand-4x10", "fdwa", (4, 10), ("check:fdwa-saturation",),
              draws=150, pool=1000, max_cost_ms=500.0),
    ],
    "saturation": [
        Group("saturation/rand-32x120", "fdfa", (32, 120), SAT3,
              draws=30, pool=200, max_cost_ms=2000.0),
    ],
    # One group per alphabet size: the learners' cost grows steeply with
    # it, so every seed gets the same number of targets of each size.
    "learn-translate": [
        Group("learn-translate/letter-set-%d" % k, "letter-set", (k, k),
              LEARN3, draws=10, pool=160, max_cost_ms=1200.0)
        for k in (2, 3, 4, 5)
    ],
}

WORKLOADS = tuple(CAPS)

# Members a seed chooses from in each cost stratum.
WINDOW = 4


def load_pool() -> dict:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def member_label(group: Group, index: int) -> str:
    return "%s#%04d" % (group.name.split("/", 1)[1], index)


def draw(group: Group, admitted: list, pins: dict, seed: int,
         small: bool) -> list:
    """Member indices for one seed.

    Admitted members are split into outcome classes (the pinned statuses
    of their operations) and each class gets a fixed share of the draws,
    in proportion to its size, so the mix of verdicts does not depend on
    the seed.  Within a class the members are sorted by cost and cut into
    as many equal strata as the class has draws; the seed picks one of the
    WINDOW members nearest the middle of each stratum, so the cost of a
    draw varies little even where costs are sparse.  The small corpus
    takes the two cheapest members."""
    if small:
        return [i for i, _cost in sorted(admitted, key=lambda e: e[1])[:2]]
    workload = group.name.split("/", 1)[0]
    classes = {}
    for i, cost in admitted:
        outcome = tuple(pins["%s:%s:%s" % (workload, member_label(group, i),
                                           kind)][0]
                        for kind in group.commands)
        classes.setdefault(outcome, []).append((cost, i))
    total = len(admitted)
    k = min(group.draws, total)
    share = {c: k * len(m) // total for c, m in classes.items()}
    by_remainder = sorted(classes, key=lambda c: (
        -(k * len(classes[c]) % total), c))
    for c in by_remainder[:k - sum(share.values())]:
        share[c] += 1
    rng = random.Random("%s:%d" % (group.name, seed))
    picks = []
    for c in sorted(classes):
        ranked = [i for _cost, i in sorted(classes[c])]
        n = share[c]
        width = max(1, min(WINDOW, len(ranked) // max(n, 1)))
        for j in range(n):
            low = min(max(0, (2 * j + 1) * len(ranked) // (2 * n)
                          - width // 2), len(ranked) - width)
            picks.append(rng.choice(ranked[low:low + width]))
    return picks


def _argv(kind: str, path: str, cap: int) -> list:
    if kind.startswith("check:"):
        return ["check", kind[6:], path, "--cap", str(cap), "--json"]
    if kind.startswith("translate:"):
        return ["translate", kind[10:], path]
    if kind == "learn-active":
        return ["learn", "active", "--target", path]
    if kind == "char-passive":
        return ["learn", "passive", "--sample", "-"]
    raise ValueError(kind)


def family_ops(workload, label, family, kinds, workdir: Path) -> list:
    """Write the family (and its duo view if a duo-to-fdwa operation needs
    it) and return its operations."""
    from upfam.faf import serialize_faf
    from upfam.translate import fdwa_to_duo
    cap = CAPS[workload]
    path = workdir / (label.replace("/", "_") + ".faf")
    path.write_text(serialize_faf(family), encoding="utf-8")
    ops = []
    for kind in kinds:
        src, origin = str(path), None
        if kind == "translate:duo-to-fdwa":
            duo = path.with_name(path.stem + ".duo.faf")
            duo.write_text(serialize_faf(fdwa_to_duo(family)),
                           encoding="utf-8")
            src, origin = str(duo), str(path)
        ops.append(Op("%s:%s:%s" % (workload, label, kind), kind,
                      _argv(kind, src, cap), src, origin))
    return ops


def ladder_ops(workload: str, workdir: Path, small: bool) -> list:
    from upfam.translate import gen_family
    ops = []
    for name, sizes, kinds in LADDERS[workload]:
        for n in sizes[:1] if small else sizes:
            ops += family_ops(workload, "%s-%d" % (name, n),
                              gen_family(name, n), kinds, workdir)
    return ops


def build(workload: str, seed: int, workdir: Path, pool: dict,
          small: bool = False) -> list:
    """Generate and write the workload's corpus; return its operations in
    pass order (ladders first, then the random groups)."""
    ops = ladder_ops(workload, workdir, small)
    for group in GROUPS[workload]:
        admitted = pool["groups"][group.name]["admitted"]
        for i in draw(group, admitted, pool["pins"], seed, small):
            ops += family_ops(workload, member_label(group, i),
                              pool_member(group, i), group.commands,
                              workdir)
    return ops
