"""Finite words, ultimately periodic words, and their canonical representations.

A word is a tuple of alphabet tokens.  Tokens are strings; for ordinary
alphabets they are single characters, but nothing below assumes that.
An ultimately periodic word u * x^omega is represented by a pair of finite
words (u, x) with x nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .errors import InputError

Word = tuple[str, ...]


def as_word(w) -> Word:
    """Coerce a str (one token per character) or an iterable of tokens."""
    if isinstance(w, tuple) and all(isinstance(t, str) for t in w):
        return w
    if isinstance(w, str):
        return tuple(w)
    return tuple(str(t) for t in w)


def format_word(w: Sequence[str], alphabet: Sequence[str]) -> str:
    """Render a word over `alphabet` as text: concatenated when every
    symbol of the alphabet is one character, space separated otherwise,
    so that `parse_word` reads it back.  The empty word renders as ''."""
    if not w or all(len(t) == 1 for t in alphabet):
        return "".join(w)
    return " ".join(w)


def parse_word(text: str, alphabet: Sequence[str]) -> Word:
    """Inverse of format_word.  '_' and '' both denote the empty word."""
    text = text.strip()
    if text in ("", "_"):
        return ()
    if any(c.isspace() for c in text):
        toks = tuple(text.split())
    elif all(len(t) == 1 for t in alphabet):
        toks = tuple(text)
    elif text in alphabet:
        toks = (text,)
    else:
        toks = tuple(text)
    bad = [t for t in toks if t not in alphabet]
    if bad:
        raise InputError(f"unknown symbol {bad[0]!r} in word {text!r}")
    return toks


def llex_key(w: Sequence[str], order: dict[str, int]):
    """Sort key for length-lexicographic order under the given symbol order."""
    return (len(w), tuple(order[t] for t in w))


def words_up_to(alphabet: Sequence[str], max_len: int,
                min_len: int = 0) -> Iterator[Word]:
    """All words of length min_len..max_len in llex order (alphabet order
    as given)."""
    for n in range(min_len, max_len + 1):
        for w in product(alphabet, repeat=n):
            yield w


def root(x: Sequence[str]) -> Word:
    """Shortest word r with x == r^k.  The root of the empty word is itself."""
    x = tuple(x)
    n = len(x)
    for d in range(1, n + 1):
        if n % d == 0 and x[:d] * (n // d) == x:
            return x[:d]
    return x


def canonical_pair(u: Sequence[str], x: Sequence[str]) -> tuple[Word, Word]:
    """Canonical form of u * x^omega: shift shared trailing symbols from the
    spoke into the loop, then reduce the loop to its root.  Two pairs denote
    the same ultimately periodic word iff their canonical forms are equal."""
    u, x = tuple(u), tuple(x)
    if not x:
        raise InputError("loop of an ultimately periodic word must be nonempty")
    while u and u[-1] == x[-1]:
        u = u[:-1]
        x = (x[-1],) + x[:-1]
    return u, root(x)


@dataclass(frozen=True)
class Representation:
    """A finite representation (u, x) of the ultimately periodic word
    u * x^omega.  The loop x must be nonempty."""

    u: Word
    x: Word

    def __post_init__(self):
        object.__setattr__(self, "u", as_word(self.u))
        object.__setattr__(self, "x", as_word(self.x))
        if not self.x:
            raise InputError("loop of a representation must be nonempty")

    def canonical(self) -> "Representation":
        u, x = canonical_pair(self.u, self.x)
        return Representation(u, x)


def up_equal(r1: Representation, r2: Representation) -> bool:
    """True iff r1 and r2 denote the same ultimately periodic word."""
    return canonical_pair(r1.u, r1.x) == canonical_pair(r2.u, r2.x)
