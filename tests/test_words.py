from itertools import product

import pytest
from hypothesis import given, strategies as st

from helpers import words_up_to
from upfam.errors import InputError
from upfam.words import (Representation, as_word, canonical_pair,
                         format_word, llex_key, parse_word, root, up_equal)


def binary_words(max_len, min_len=0):
    return list(words_up_to("ab", max_len, min_len))


def up_prefix(u, x, n):
    """The first n symbols of u * x^omega."""
    out = tuple(u)
    while len(out) < n:
        out += tuple(x)
    return out[:n]


def test_root_basic():
    assert root(as_word("abab")) == as_word("ab")
    assert root(as_word("aba")) == as_word("aba")  # period 2 does not divide 3
    assert root(as_word("aaaa")) == as_word("a")
    assert root(()) == ()


def test_root_of_mixed_power_is_whole_word():
    # x=ab, y=ba, p=5: x * y^(p-1) has no shorter period
    x, y = as_word("ab"), as_word("ba")
    w = x + y * 4
    assert len(w) == 10
    assert root(w) == w


def test_root_power_identity_exhaustive():
    for n in range(1, 13):
        for w in product("ab", repeat=n):
            r = root(w)
            assert n % len(r) == 0
            assert r * (n // len(r)) == w


def test_canonical_examples():
    assert canonical_pair(as_word("a"), as_word("ba")) == ((), as_word("ab"))
    assert canonical_pair((), as_word("abab")) == ((), as_word("ab"))
    assert canonical_pair(as_word("ab"), as_word("ba")) == \
        (as_word("ab"), as_word("ba"))


def test_canonical_rejects_empty_loop():
    with pytest.raises(InputError):
        canonical_pair(as_word("a"), ())
    with pytest.raises(InputError):
        Representation("a", "")


def test_up_equal_examples():
    assert up_equal(Representation("a", "ba"), Representation("", "ab"))
    assert up_equal(Representation("", "a"), Representation("", "aa"))
    assert not up_equal(Representation("", "ab"), Representation("", "ba"))


def test_canonical_matches_unrolling_exhaustive():
    """Two representations are canonically equal iff their unrollings agree;
    bounds |u|,|x| <= 4 over a binary alphabet make a 24-symbol prefix
    decisive (spokes <= 4 plus Fine and Wilf on periods <= 4)."""
    reps = [(u, x) for u in binary_words(4) for x in binary_words(4, 1)]
    by_prefix = {}
    by_canon = {}
    for u, x in reps:
        by_prefix.setdefault(up_prefix(u, x, 24), set()).add((u, x))
        by_canon.setdefault(canonical_pair(u, x), set()).add((u, x))
    assert set(map(frozenset, by_prefix.values())) == \
        set(map(frozenset, by_canon.values()))


@given(st.text("ab", min_size=0, max_size=8),
       st.text("ab", min_size=1, max_size=8))
def test_canonical_idempotent_and_preserves_word(u, x):
    r = Representation(u, x)
    c = r.canonical()
    assert c.canonical() == c
    n = len(u) + 8 * len(x)
    assert up_prefix(r.u, r.x, n) == up_prefix(c.u, c.x, n)


def test_llex_order_of_words_up_to():
    order = {"a": 0, "b": 1}
    ws = binary_words(3)
    keys = [llex_key(w, order) for w in ws]
    assert keys == sorted(keys)
    assert len(set(ws)) == len(ws) == 15


def test_format_parse_roundtrip_single_char():
    for w in binary_words(4):
        assert parse_word(format_word(w, "ab"), "ab") == w
    assert parse_word("_", "ab") == ()
    assert parse_word("", "ab") == ()


def test_format_parse_multichar_tokens():
    alpha = ["1", "2", "63"]
    w = ("63", "1", "2")
    text = format_word(w, alpha)
    assert text == "63 1 2"
    assert parse_word(text, alpha) == w
    assert parse_word("63", alpha) == ("63",)


def test_parse_word_rejects_unknown_symbol():
    with pytest.raises(InputError):
        parse_word("abc", "ab")

