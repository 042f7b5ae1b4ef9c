import random

import pytest

from helpers import displacement_map, random_family
from upfam.almost import check_almost_saturated
from upfam.automata import Dfa, TransitionSystem, weak_loop_accepts
from upfam.errors import InputError, PreconditionError
from upfam.faf import parse_faf, serialize_faf
from upfam.family import (FDFA, FDWA, FNFA, Family, ReferenceSet,
                          family_accepts, is_normalized, normalize,
                          refine_family, trivial_leading, up_membership)
from upfam.oracle import enumerate_normalized
from upfam.regularity import check_regular, stabilize
from upfam.saturation import check_fdwa_saturated, check_saturated
from upfam.words import Representation, up_equal

from fixtures import (ba_star_fdfa, empty_fdfa, eventually_ab_fdfa,
                      exactly_one_a_fdfa, first_a_fdwa, mod2_leading,
                      odd_a_fdfa, one_b_some_a_fdfa, universal_fdfa)

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


# Leading state 0 loops on both letters and owns the universal progress
# automaton; leading state 1 cannot be reached.  A checker that read state
# 1 would answer for a state no word leads to: the saturation checks raise
# "state 1 is unreachable" from access_word, and regularity answers
# NotRegular where the family parsed from text answers Regular.
UNREACHABLE_ROUTES = [
    (fixture, name, check)
    for fixture in (ba_star_fdfa, exactly_one_a_fdfa, one_b_some_a_fdfa)
    for name, check in (
        ("saturation", lambda F: check_saturated(F, NORM)),
        ("full-saturation", lambda F: check_saturated(F, ALL)),
        ("almost-saturation", check_almost_saturated),
        ("regularity", check_regular))
] + [(first_a_fdwa, name, check)
     for name, check in (("fdwa-saturation", check_fdwa_saturated),
                         ("regularity", check_regular))]


@pytest.mark.parametrize("fixture,name,check", UNREACHABLE_ROUTES,
                         ids=["%s-%s" % (f.__name__, name)
                              for f, name, _ in UNREACHABLE_ROUTES])
def test_family_rejects_unreachable_leading_states(fixture, name, check):
    """The family is refused when it is built, so no checker sees the
    state.  Parsed from text, the state is dropped, and the check answers
    as on the one-state family."""
    kind = fixture().kind
    progress = fixture().progress[0]
    one_state = universal_fdfa(kind=kind)
    univ = one_state.progress[0]
    with pytest.raises(InputError, match="leading state 1 is unreachable"):
        check(Family(kind, TransitionSystem("ab", [[0, 0], [1, 1]]),
                     [univ, progress]))
    blocks = [serialize_faf(Family(kind, one_state.leading, [D]))
              .split("progress 0\n")[1] for D in (univ, progress)]
    text = ("faf 1\nkind %s\nalphabet a b\nleading\n  states 2\n"
            "  initial 0\n  trans 0 a 0\n  trans 0 b 0\n  trans 1 a 1\n"
            "  trans 1 b 1\nprogress 0\n%sprogress 1\n%s"
            % (kind, blocks[0], blocks[1]))
    parsed = parse_faf(text)
    assert parsed == one_state
    assert check(parsed) == check(one_state)


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


def test_family_accepts_rejects_unknown_loop_symbol():
    """The stabilized family has NFA progress automata; a loop symbol
    outside the alphabet is an input error there too, as it is for DFAs."""
    for F in (odd_a_fdfa(), stabilize(odd_a_fdfa())):
        with pytest.raises(InputError, match="unknown symbol 'z'"):
            family_accepts(F, Representation((), ("z",)))


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
    assert up_equal(r, Representation("", "a"))


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
        assert None not in [displacement_map(ref, q)
                            for q in range(ref.leading.n)]
        for r in enumerate_normalized(fam, 4, 4):
            assert family_accepts(fam, r, NORM) == \
                family_accepts(ref, r, NORM)


def test_refine_family_is_idempotent_up_to_language():
    """Refining a refined family R gives R itself, and the key of each
    refined state is the displacement the reference walk finds: the FDWA
    check reads its displacements off these keys."""
    rng = random.Random(99)
    for k in range(2000):
        fam = random_family(rng, (FDFA, FDWA)[k % 2],
                            alphabet=rng.choice(["ab", "abc"]),
                            max_leading=rng.randint(1, 4),
                            max_progress=rng.randint(1, 6))
        ref = refine_family(fam)
        assert refine_family(ref) == ref
        for q, D in enumerate(ref.progress):
            assert list(D.keys) == displacement_map(ref, q)


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
        assert disp is not None and disp == list(fam.progress[q].keys)
        assert disp[fam.progress[q].initial] == q


def test_fdwa_refinement_stays_weak():
    rng = random.Random(11)
    for _ in range(25):
        fam = random_family(rng, kind=FDWA)
        refine_family(fam)  # constructor re-validates weakness
