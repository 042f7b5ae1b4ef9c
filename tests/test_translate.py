"""Model translation and benchmark-generator tests.

The Buchi translation is checked against the word-level acceptance oracle
(normalized_word_accepts), whose own verdicts are pinned here first by
closed forms derived by hand: for the commit-on-first-letter family a word
has an accepted representation iff its period contains an a, and for the
two-zeros-n-apart family iff the root carries such a pair cyclically.
"""

import hashlib
import random

import pytest

from upfam.almost import check_almost_saturated
from upfam.automata import Dfa, weak_loop_accepts
from upfam.errors import InputError, PreconditionError
from upfam.faf import serialize_nba
from upfam.family import (FDFA, FDWA, Family, ReferenceSet, family_accepts,
                          is_normalized, trivial_leading)
from upfam.oracle import nba_lasso_accepts, normalized_word_accepts
from upfam.saturation import check_fdwa_saturated, check_saturated
from upfam.translate import (GEN_FAMILY_NAMES, complement_saturated_fdwa,
                             duo_accepts, duo_to_fdwa, fdwa_to_duo,
                             fdwa_to_nba, gen_family, is_duo_normalized)
from upfam.words import Representation, words_up_to

from fixtures import (empty_fdfa, first_a_fdwa, odd_a_fdfa, some_a_fdwa,
                      universal_fdfa)
from helpers import random_family

NORM = ReferenceSet.NORMALIZED
MAPS = ("s", "t", "g", "#")


def lassos(alphabet, max_u, max_x):
    for u in words_up_to(alphabet, max_u):
        for x in words_up_to(alphabet, max_x, min_len=1):
            yield u, x


def assert_nba_agrees(W, max_u, max_x):
    """Every lasso within bounds gets the same verdict from the Buchi
    automaton and from the representation-enumerating oracle.  Both sides
    are word-level, so verdicts are memoized per canonical class and per
    (state set, loop)."""
    N = fdwa_to_nba(W)
    lhs, rhs = {}, {}
    for u, x in lassos(W.alphabet, max_u, max_x):
        rep = Representation(u, x).canonical()
        u0, r = rep.u, rep.x
        kl = (N.run_set(u0), r)
        if kl not in lhs:
            lhs[kl] = nba_lasso_accepts(N, u0, r)
        kr = (u0, r)
        if kr not in rhs:
            rhs[kr] = normalized_word_accepts(W, u0, r)
        assert lhs[kl] == rhs[kr], (u, x, u0, r)


# --------------------------------------------------------------- generators

def test_gen_family_sizes_match_stated_bounds():
    for n in (1, 2, 3):
        expect = {"fixpoint-fdwa": (1, n + 2),
                  "fixpoint-alsat": (1, n + 2),
                  "subset-occurrence": (1, 2 * n + 1),
                  "zero-u-zero-fdfa": (1, n + 3),
                  "zero-u-zero-fdwa": (1, n + 3),
                  "syntactic-gap": (n, 2 * n)}
        for name in GEN_FAMILY_NAMES:
            F = gen_family(name, n)
            assert (F.leading.n, max(F.progress_sizes())) == expect[name]
            # every progress automaton meets the bound exactly
            assert set(F.progress_sizes()) == {expect[name][1]}
    assert gen_family("fixpoint-fdwa", 2).kind == FDWA
    assert gen_family("fixpoint-alsat", 2).kind == FDFA
    assert gen_family("zero-u-zero-fdwa", 2).kind == FDWA
    assert gen_family("syntactic-gap", 2).kind == FDFA


def test_gen_family_validation():
    with pytest.raises(InputError):
        gen_family("fixpoint-fdwa", 0)
    with pytest.raises(InputError):
        gen_family("no-such-family", 2)


def blocks_have_fixpoint(w, n):
    """Direct simulation: does some complete #-delimited block map 1 to
    itself?  Independent of the automaton construction."""
    val, inside, hit = 1, False, False
    for sym in w:
        if sym == "#":
            if inside and val == 1:
                hit = True
            val, inside = 1, True
        elif inside:
            if sym == "s":
                val = val % n + 1
            elif sym == "t":
                val = {1: min(2, n), 2: 1}.get(val, val)
            elif sym == "g":
                val = 1 if val == 2 else val
    return hit


def test_fixpoint_tracker_language():
    D2 = gen_family("fixpoint-alsat", 2).progress[0]
    assert D2.accepts(("#", "#"))
    assert D2.accepts(("#", "s", "s", "#"))
    assert D2.accepts(("#", "g", "#"))
    assert D2.accepts(("t", "#", "t", "t", "#"))
    assert not D2.accepts(("#",))
    assert not D2.accepts(("#", "s", "#"))
    assert not D2.accepts(("#", "t", "#"))
    D3 = gen_family("fixpoint-alsat", 3).progress[0]
    assert not D3.accepts(("#", "s", "s", "#"))
    assert D3.accepts(("#", "s", "s", "s", "#"))
    for n in (1, 2, 3):
        D = gen_family("fixpoint-alsat", n).progress[0]
        for w in words_up_to(MAPS, 5):
            assert D.accepts(w) == blocks_have_fixpoint(w, n)


def test_fixpoint_flags():
    for n in (1, 2):
        assert check_fdwa_saturated(gen_family("fixpoint-fdwa", n)).ok
    for n in (1, 2, 3):
        A = gen_family("fixpoint-alsat", n)
        assert check_almost_saturated(A).ok
        assert not check_saturated(A).ok


def test_fixpoint_alsat_separating_pair():
    # one # does not finish a block, two do: a power flips acceptance
    A = gen_family("fixpoint-alsat", 1)
    assert not family_accepts(A, Representation((), ("#",)))
    assert family_accepts(A, Representation((), ("#", "#")))


def test_subset_occurrence_loops():
    W = gen_family("subset-occurrence", 1)
    B = W.progress[0]
    assert W.alphabet == ("1", "2", "3")
    # symbol 3 = {1,2}: both numbers occur, so the run falls through
    assert weak_loop_accepts(B, ("1",))      # 2 never occurs
    assert weak_loop_accepts(B, ("2",))      # 1 never occurs
    assert not weak_loop_accepts(B, ("3",))
    assert not weak_loop_accepts(B, ("1", "2"))
    for x in words_up_to(W.alphabet, 3, min_len=1):
        missing = any(all(not (int(sym) >> i) & 1 for sym in x)
                      for i in range(2))
        assert weak_loop_accepts(B, x) == missing
    for n in (1, 2):
        assert check_fdwa_saturated(gen_family("subset-occurrence", n)).ok


def test_zero_u_zero_language_and_flags():
    D = gen_family("zero-u-zero-fdfa", 2).progress[0]
    assert D.n == 5
    assert D.accepts(("0", "1", "0"))
    assert D.accepts(("0", "0", "0", "1", "1"))
    assert not D.accepts(("0", "1", "1"))
    assert not D.accepts(("1", "0", "0"))
    assert not D.accepts(("0", "1"))
    for n in (1, 2, 3):
        F = gen_family("zero-u-zero-fdfa", n)
        assert check_almost_saturated(F).ok
        assert not check_saturated(F).ok
        W = gen_family("zero-u-zero-fdwa", n)
        W.require_weak()
        assert not check_fdwa_saturated(W).ok


def test_zero_u_zero_fdwa_mixed_pair():
    # both represent 0(100)^omega = (010)^omega, but only one loop starts
    # on a zero pair
    W = gen_family("zero-u-zero-fdwa", 2)
    assert family_accepts(W, Representation((), ("0", "1", "0")), NORM)
    assert not family_accepts(W, Representation(("0",), ("1", "0", "0")),
                              NORM)


def test_syntactic_gap_saturated_and_tracks_values():
    for n in (1, 2, 3):
        G = gen_family("syntactic-gap", n)
        assert check_saturated(G).ok
    G = gen_family("syntactic-gap", 2)
    assert G.leading.n == 2
    # empty blocks fix 1 forever
    assert family_accepts(G, Representation((), ("#",)), NORM)
    # blocks "s" send 1 to 2: no fixpoint anywhere
    assert not family_accepts(G, Representation(("s",), ("#", "s")), NORM)


def test_syntactic_gap_equals_fixpoint_fdwa_language():
    rng = random.Random(41)
    for n in (1, 2, 3):
        G = gen_family("syntactic-gap", n)
        X = gen_family("fixpoint-fdwa", n)
        for _ in range(200):
            u = tuple(rng.choice(MAPS) for _ in range(rng.randrange(0, 5)))
            x = tuple(rng.choice(MAPS) for _ in range(rng.randrange(1, 6)))
            assert normalized_word_accepts(G, u, x) == \
                normalized_word_accepts(X, u, x), (n, u, x)


# ------------------------------------------------------- word-level oracle

def test_normalized_word_accepts_closed_forms():
    # commit-on-first-letter: some rotation starts with a iff x has an a
    FA = first_a_fdwa()
    for u, x in lassos("ab", 4, 4):
        assert normalized_word_accepts(FA, u, x) == ("a" in x), (u, x)
    # zero pair exactly n apart somewhere on the root cycle
    for n in (1, 2, 3):
        W = gen_family("zero-u-zero-fdwa", n)
        for u, x in lassos("01", 3, 5):
            r = Representation(u, x).canonical().x
            expect = any(r[i] == "0" and r[(i + n) % len(r)] == "0"
                         for i in range(len(r)))
            assert normalized_word_accepts(W, u, x) == expect, (n, u, x)


def test_normalized_word_accepts_matches_pairs_when_saturated():
    for W in (some_a_fdwa(), universal_fdfa("ab", FDWA),
              empty_fdfa("ab", FDWA), gen_family("fixpoint-fdwa", 1)):
        for u, x in lassos(W.alphabet, 3, 3):
            rep = Representation(u, x)
            if is_normalized(W, rep):
                assert normalized_word_accepts(W, u, x) == \
                    family_accepts(W, rep), (u, x)


# ------------------------------------------------------------- fdwa_to_nba

def test_nba_agrees_on_fixtures():
    for W in (some_a_fdwa(), first_a_fdwa(), universal_fdfa("ab", FDWA),
              empty_fdfa("ab", FDWA), gen_family("zero-u-zero-fdwa", 1),
              gen_family("zero-u-zero-fdwa", 2)):
        assert_nba_agrees(W, 6, 6)


def test_nba_agrees_on_subset_occurrence_full_depth():
    # trivial leading: both verdicts factor through (state set, loop) and
    # the loop alone, so the depth-6 sweep stays cheap
    W = gen_family("subset-occurrence", 1)
    N = fdwa_to_nba(W)
    lhs, rhs = {}, {}
    for u, x in lassos(W.alphabet, 6, 6):
        kl = (N.run_set(u), x)
        if kl not in lhs:
            lhs[kl] = nba_lasso_accepts(N, u, x)
        if x not in rhs:
            rhs[x] = normalized_word_accepts(W, u, x)
        assert lhs[kl] == rhs[x], (u, x)


def test_nba_agrees_on_fixpoint_family():
    assert_nba_agrees(gen_family("fixpoint-fdwa", 1), 4, 4)


def test_nba_agrees_on_random_weak_families():
    rng = random.Random(23)
    for _ in range(120):
        W = random_family(rng, kind=FDWA, max_leading=3, max_progress=3)
        assert_nba_agrees(W, 4, 4)


def test_nba_extremes():
    NE = fdwa_to_nba(empty_fdfa("ab", FDWA))
    assert not NE.accepting
    NU = fdwa_to_nba(universal_fdfa("ab", FDWA))
    rng = random.Random(5)
    for _ in range(50):
        u = tuple(rng.choice("ab") for _ in range(rng.randrange(0, 5)))
        x = tuple(rng.choice("ab") for _ in range(rng.randrange(1, 5)))
        assert not nba_lasso_accepts(NE, u, x)
        assert nba_lasso_accepts(NU, u, x)


def test_nba_input_validation():
    with pytest.raises(InputError):
        fdwa_to_nba(odd_a_fdfa(kind=FDWA))  # progress not weak
    with pytest.raises(InputError):
        fdwa_to_nba(universal_fdfa("ab"))   # fdfa, not fdwa


def test_nba_size_stays_within_budget():
    # spoke copy plus, per accepting progress state, a start state and the
    # product of the leading system with two progress copies
    rng = random.Random(7)
    for _ in range(40):
        W = random_family(rng, kind=FDWA, max_leading=3, max_progress=3)
        N = fdwa_to_nba(W)
        bound = W.leading.n + sum(
            len(B.accepting) * (W.leading.n * B.n * B.n + 1)
            for B in W.progress)
        assert N.n <= bound


def _pinned_fdwas(name, n):
    """The FDWA ladder `name` at parameter n, or n seeded random FDWAs."""
    if name == "random":
        rng = random.Random("nba-pin")
        return [random_family(rng, FDWA, max_leading=3, max_progress=4)
                for _ in range(n)]
    return [gen_family(name, n)]


# sha256 of the serialize_nba texts of fdwa_to_nba on each input in turn,
# recorded when every transition held its own successor set and the
# translation numbered its states with a worklist of its own.
NBA_DIGESTS = {
    ("subset-occurrence", 3):
    "3c7e52f8c4d9a7ae899c6cbc0c370e75a963d27e170ec07877a32f99494d4ae9",
    ("subset-occurrence", 4):
    "792fa5320d32c5f05eb2693742acd929cb4fb75acfb82d4f1ba0e924ddaacf10",
    ("fixpoint-fdwa", 6):
    "622e879918f0ef9e988f1ab0b82f3292b05b091512c74bc23652b0d18f7dd096",
    ("zero-u-zero-fdwa", 6):
    "543381bb33bc3db31bbaa5cb8dfada08f26eb0e2e99247c25f076e72c71ad580",
    ("random", 150):
    "aab0421c2f99275791d55ef4d9f902b91532f30cc403cdc184d617c6172df658",
}


@pytest.mark.parametrize("name, n", sorted(NBA_DIGESTS),
                         ids=["%s-%d" % key for key in sorted(NBA_DIGESTS)])
def test_nba_is_pinned(name, n):
    digest = hashlib.sha256()
    for W in _pinned_fdwas(name, n):
        digest.update(serialize_nba(fdwa_to_nba(W)).encode())
    assert digest.hexdigest() == NBA_DIGESTS[name, n]


@pytest.mark.parametrize("n", (3, 4))
def test_nba_stores_each_successor_set_once(n):
    N = fdwa_to_nba(gen_family("subset-occurrence", n))
    cells = [ts for row in N.delta for ts in row]
    assert len({id(ts) for ts in cells}) == len(set(cells))


# -------------------------------------------------------------- complement

def test_complement_flips_language():
    W = gen_family("subset-occurrence", 1)
    C = complement_saturated_fdwa(W)
    assert check_fdwa_saturated(C).ok
    for x in words_up_to(W.alphabet, 4, min_len=1):
        assert weak_loop_accepts(W.progress[0], x) != \
            weak_loop_accepts(C.progress[0], x)
    for u, x in lassos(W.alphabet, 2, 3):
        assert normalized_word_accepts(W, u, x) != \
            normalized_word_accepts(C, u, x)


def test_complement_involution_and_extremes():
    W = gen_family("subset-occurrence", 1)
    assert complement_saturated_fdwa(complement_saturated_fdwa(W)) == W
    U = universal_fdfa("ab", FDWA)
    CU = complement_saturated_fdwa(U)
    assert all(not p.accepting for p in CU.progress)
    assert complement_saturated_fdwa(CU) == U


def test_complement_requires_saturation():
    with pytest.raises(PreconditionError):
        complement_saturated_fdwa(first_a_fdwa())
    with pytest.raises(InputError):
        complement_saturated_fdwa(universal_fdfa("ab"))


# --------------------------------------------------------------------- duo

def saturated_fdwa_fixtures():
    return (some_a_fdwa(), universal_fdfa("ab", FDWA),
            empty_fdfa("ab", FDWA), gen_family("subset-occurrence", 1),
            gen_family("fixpoint-fdwa", 1))


def test_duo_reading_preserves_structure():
    for W in saturated_fdwa_fixtures():
        D = fdwa_to_duo(W)
        assert D.kind == FDFA
        assert D.leading is W.leading
        assert D.progress == W.progress


def test_duo_acceptance_matches_omega_on_stable_pairs():
    for W in saturated_fdwa_fixtures():
        D = fdwa_to_duo(W)
        bound = 4 if len(W.alphabet) == 2 else 3
        for u, x in lassos(W.alphabet, 2, bound):
            rep = Representation(u, x)
            if is_duo_normalized(D, rep):
                assert duo_accepts(D, rep) == family_accepts(W, rep), (u, x)
            else:
                assert not duo_accepts(D, rep)


def test_duo_all_accepting_accepts_all_stable_pairs():
    D = fdwa_to_duo(universal_fdfa("ab", FDWA))
    seen = 0
    for u, x in lassos("ab", 2, 3):
        rep = Representation(u, x)
        if is_duo_normalized(D, rep):
            assert duo_accepts(D, rep)
            seen += 1
    assert seen > 20


def test_duo_round_trip_preserves_language():
    for W in saturated_fdwa_fixtures():
        RT = duo_to_fdwa(fdwa_to_duo(W))
        assert RT.kind == FDWA
        RT.require_weak()
        assert check_fdwa_saturated(RT).ok
        bound = (4, 4) if len(W.alphabet) == 2 else (2, 3)
        for u, x in lassos(W.alphabet, *bound):
            rep = Representation(u, x)
            if is_normalized(W, rep):
                assert family_accepts(RT, rep) == family_accepts(W, rep), \
                    (u, x)


def test_duo_round_trip_extremes():
    AA = duo_to_fdwa(Family(FDFA, trivial_leading("ab"),
                            [Dfa("ab", [[0, 0]], {0})]))
    assert all(p.accepting == frozenset(range(p.n)) for p in AA.progress)
    EE = duo_to_fdwa(empty_fdfa("ab"))
    assert all(not p.accepting for p in EE.progress)


def test_duo_gates():
    with pytest.raises(PreconditionError):
        fdwa_to_duo(first_a_fdwa())
    with pytest.raises(InputError):
        fdwa_to_duo(universal_fdfa("ab"))
    with pytest.raises(InputError):
        duo_to_fdwa(universal_fdfa("ab", FDWA))


def test_duo_to_fdwa_rejects_mixed_component():
    # a and c walk a two-state component; the empty-word state is stably
    # reachable as rejecting via b, state 1 as accepting via c
    mix = Dfa("abc", [[1, 0, 1], [0, 1, 1]], {1})
    F = Family(FDFA, trivial_leading("abc"), [mix])
    with pytest.raises(PreconditionError, match="duo-saturated"):
        duo_to_fdwa(F)
