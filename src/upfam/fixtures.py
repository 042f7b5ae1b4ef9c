"""Small hand-built families used throughout the test suite and docs.

Each builder is named after the language of its progress automaton; all of
them use a trivial (single-state) leading transition system unless stated
otherwise.  The padding helpers at the top are shared by the two hardness
reductions (almost saturation and regularity).
"""

from __future__ import annotations

from .automata import Dfa, TransitionSystem
from .family import FDFA, FDWA, Family


HASH = "#"  # block separator of the hardness instances


def trivial_leading(alphabet) -> TransitionSystem:
    return TransitionSystem.build(alphabet, 0, lambda s, a: 0)


def next_prime(k: int) -> int:
    """Least prime p >= max(k, 2)."""
    p = max(k, 2)
    while True:
        if all(p % d for d in range(2, int(p ** 0.5) + 1)):
            return p
        p += 1


def sigma_plus_dfa(alphabet) -> Dfa:
    """Universal on nonempty words: pads a hardness instance to prime
    length without changing the intersection."""
    return Dfa.from_parts(alphabet, 2,
                          {(s, a): 1 for s in (0, 1) for a in alphabet},
                          accepting=(1,))


def ba_star_fdfa() -> Family:
    """Progress accepts b a*: the loops of words ending in (b a^i)^omega."""
    d = Dfa.from_parts(
        "ab", 3,
        {(0, "b"): 1, (0, "a"): 2,
         (1, "a"): 1, (1, "b"): 2,
         (2, "a"): 2, (2, "b"): 2},
        accepting={1})
    return Family(FDFA, trivial_leading("ab"), [d])


def odd_a_fdfa(kind: str = FDFA) -> Family:
    """Unary progress accepting a^i for odd i."""
    d = Dfa.from_parts("a", 2, {(0, "a"): 1, (1, "a"): 0}, accepting={1})
    return Family(kind, trivial_leading("a"), [d])


def one_b_some_a_fdfa() -> Family:
    """Progress accepts a^i b a^j with i+j >= 1 (exactly one b, at least
    one a)."""
    d = Dfa.from_parts(
        "ab", 5,
        {(0, "a"): 1, (0, "b"): 2,
         (1, "a"): 1, (1, "b"): 3,
         (2, "a"): 3, (2, "b"): 4,
         (3, "a"): 3, (3, "b"): 4,
         (4, "a"): 4, (4, "b"): 4},
        accepting={3})
    return Family(FDFA, trivial_leading("ab"), [d])


def exactly_one_a_fdfa() -> Family:
    """Progress accepts b^i a b^j (exactly one a)."""
    d = Dfa.from_parts(
        "ab", 3,
        {(0, "b"): 0, (0, "a"): 1,
         (1, "b"): 1, (1, "a"): 2,
         (2, "a"): 2, (2, "b"): 2},
        accepting={1})
    return Family(FDFA, trivial_leading("ab"), [d])


def eventually_ab_fdfa() -> Family:
    """Fully saturated family for the words with tail (ab)^omega: the
    progress automaton accepts (ab)^+ + (ba)^+, so pair acceptance depends
    only on the denoted word."""
    d = Dfa.from_parts(
        "ab", 6,
        {(0, "a"): 1, (0, "b"): 2,
         (1, "b"): 3, (1, "a"): 5,
         (2, "a"): 4, (2, "b"): 5,
         (3, "a"): 1, (3, "b"): 5,
         (4, "b"): 2, (4, "a"): 5,
         (5, "a"): 5, (5, "b"): 5},
        accepting={3, 4})
    return Family(FDFA, trivial_leading("ab"), [d])


def some_a_fdwa(kind: str = FDWA) -> Family:
    """Weak progress accepting the loops with at least one a; as an FDWA it
    captures the words with infinitely many a.  Saturated for every
    reference set."""
    d = Dfa.from_parts(
        "ab", 2,
        {(0, "b"): 0, (0, "a"): 1,
         (1, "a"): 1, (1, "b"): 1},
        accepting={1})
    return Family(kind, trivial_leading("ab"), [d])


def first_a_fdwa(kind: str = FDWA) -> Family:
    """Weak progress that commits on the first letter: loops starting with
    a are accepted.  Not saturated (rotating the loop changes the first
    letter)."""
    d = Dfa.from_parts(
        "ab", 3,
        {(0, "a"): 1, (0, "b"): 2,
         (1, "a"): 1, (1, "b"): 1,
         (2, "a"): 2, (2, "b"): 2},
        accepting={1})
    return Family(kind, trivial_leading("ab"), [d])


def empty_fdfa(alphabet="ab", kind: str = FDFA) -> Family:
    lead = trivial_leading(alphabet)
    d = Dfa.build(alphabet, 0, lambda s, a: 0, accepting=lambda s: False)
    return Family(kind, lead, [d])


def universal_fdfa(alphabet="ab", kind: str = FDFA) -> Family:
    lead = trivial_leading(alphabet)
    d = Dfa.build(alphabet, 0, lambda s, a: 0, accepting=lambda s: True)
    return Family(kind, lead, [d])


def mod2_leading(alphabet="a") -> TransitionSystem:
    """Leading system counting word length mod 2."""
    return TransitionSystem.build(alphabet, 0, lambda s, a: 1 - s)


def all_fixture_families() -> dict[str, Family]:
    return {
        "ba-star": ba_star_fdfa(),
        "odd-a": odd_a_fdfa(),
        "one-b-some-a": one_b_some_a_fdfa(),
        "exactly-one-a": exactly_one_a_fdfa(),
        "eventually-ab": eventually_ab_fdfa(),
    }
