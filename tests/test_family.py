import random

import pytest

from helpers import random_family
from upfam.automata import Dfa, weak_loop_accepts
from upfam.errors import InputError, PreconditionError
from upfam.family import (FDFA, FDWA, FNFA, Family, ReferenceSet,
                          displacement_map, family_accepts, is_normalized,
                          is_refined, normalize, refine_family,
                          up_membership)
from upfam.fixtures import (ba_star_fdfa, empty_fdfa, eventually_ab_fdfa,
                            exactly_one_a_fdfa, mod2_leading, odd_a_fdfa,
                            one_b_some_a_fdfa, trivial_leading,
                            universal_fdfa)
from upfam.oracle import enumerate_normalized
from upfam.words import Representation, words_up_to

NORM = ReferenceSet.NORMALIZED
ALL = ReferenceSet.ALL


def mod2_family(progress_langs):
    lead = mod2_leading("a")
    return Family(FDFA, lead, progress_langs)


def test_family_validation():
    lead = trivial_leading("ab")
    good = Dfa.from_parts("ab", 1, {(0, "a"): 0, (0, "b"): 0})
    with pytest.raises(InputError):
        Family("weird", lead, [good])
    with pytest.raises(InputError):
        Family(FDFA, lead, [])
    other = Dfa.from_parts("a", 1, {(0, "a"): 0})
    with pytest.raises(InputError):
        Family(FDFA, lead, [other])
    mixed = Dfa.from_parts("ab", 2, {(0, "a"): 1, (0, "b"): 0,
                                     (1, "a"): 0, (1, "b"): 1},
                           accepting={1})
    # non-weak progress is constructible; operations needing weakness reject
    fam = Family(FDWA, lead, [mixed])
    with pytest.raises(InputError):
        fam.require_weak()
    # a^omega alternates 0,1 so the accepting state recurs
    assert family_accepts(fam, Representation("", "a"), NORM)
    assert family_accepts(fam, Representation("", "aa"), NORM)
    assert not family_accepts(fam, Representation("", "b"), NORM)


def test_is_normalized():
    assert is_normalized(ba_star_fdfa(), Representation("ab", "ba"))
    f = mod2_family([empty_fdfa("a").progress[0]] * 2)
    assert not is_normalized(f, Representation("", "a"))
    assert is_normalized(f, Representation("", "aa"))
    assert is_normalized(f, Representation("a", "aa"))


def test_family_accepts_fixture_examples():
    ba = ba_star_fdfa()
    assert family_accepts(ba, Representation("", "ba"), NORM)
    assert not family_accepts(ba, Representation("", "ab"), NORM)
    odd = odd_a_fdfa(FDWA)
    # a^omega visits the accepting state infinitely often either way
    assert family_accepts(odd, Representation("", "a"), NORM)
    assert family_accepts(odd, Representation("", "aa"), NORM)


def test_family_accepts_respects_reference_set():
    f = mod2_family([universal_fdfa("a").progress[0]] * 2)
    r = Representation("", "a")  # not normalized on the mod-2 leading TS
    assert not family_accepts(f, r, NORM)
    assert family_accepts(f, r, ALL)


def test_weak_loop_accepts_examples():
    univ = universal_fdfa("ab", FDWA).progress[0]
    assert weak_loop_accepts(univ, ("a",))
    odd = odd_a_fdfa(FDWA).progress[0]
    assert weak_loop_accepts(odd, ("a",))
    dead = empty_fdfa("ab", FDWA).progress[0]
    assert not weak_loop_accepts(dead, ("b",))


def test_normalize_slides_whole_loops():
    f = mod2_family([empty_fdfa("a").progress[0]] * 2)
    r = normalize(f, Representation("", "a"))
    assert is_normalized(f, r)
    assert r.x == ("a", "a")
    assert r.same_word(Representation("", "a"))


def test_up_membership_on_saturated_families():
    ev = eventually_ab_fdfa()
    assert up_membership(ev, Representation("ba", "ba"))
    assert up_membership(ev, Representation("bbb", "ab"))
    assert not up_membership(ev, Representation("", "aab"))
    assert not up_membership(empty_fdfa(), Representation("a", "b"))
    assert up_membership(universal_fdfa(), Representation("a", "b"))


def test_refine_family_trivial_leading_is_isomorphic():
    for fam in (ba_star_fdfa(), one_b_some_a_fdfa(), exactly_one_a_fdfa()):
        ref = refine_family(fam)
        assert ref == fam  # product with a single leading state


def test_refine_family_preserves_acceptance():
    rng = random.Random(20260814)
    for _ in range(40):
        fam = random_family(rng)
        ref = refine_family(fam)
        assert is_refined(ref)
        for r in enumerate_normalized(fam, 4, 4):
            assert family_accepts(fam, r, NORM) == \
                family_accepts(ref, r, NORM)


def test_refine_family_is_idempotent_up_to_language():
    rng = random.Random(99)
    for _ in range(15):
        fam = refine_family(random_family(rng))
        again = refine_family(fam)
        for u in words_up_to("ab", 3):
            for x in words_up_to("ab", 3, 1):
                r = Representation(u, x)
                assert family_accepts(fam, r, ALL) == \
                    family_accepts(again, r, ALL)


def test_refine_family_bounds_blowup():
    univ = universal_fdfa("a").progress[0]
    f = mod2_family([univ, univ])
    ref = refine_family(f)
    assert all(p.n <= 2 for p in ref.progress)
    for r in enumerate_normalized(f, 6, 6):
        assert family_accepts(f, r, NORM) == family_accepts(ref, r, NORM)


def test_refine_family_rejects_fnfa():
    from helpers import random_nfa
    rng = random.Random(1)
    lead = trivial_leading("ab")
    fam = Family(FNFA, lead, [random_nfa(rng, "ab", 3)])
    with pytest.raises(PreconditionError):
        refine_family(fam)


def test_displacement_map_after_refinement():
    rng = random.Random(5)
    fam = refine_family(random_family(rng, max_leading=2, max_progress=3))
    for q in range(fam.leading.n):
        disp = displacement_map(fam, q)
        assert disp is not None
        assert disp[fam.progress[q].initial] == q


def test_fdwa_refinement_stays_weak():
    rng = random.Random(11)
    for _ in range(25):
        fam = random_family(rng, kind=FDWA)
        refine_family(fam)  # constructor re-validates weakness
