"""Tests for the learning module.

Expected verdicts come from closed-form predicates on the pair (u, x) and
from brute-force enumeration over the dollar alphabet; both were computed
before the implementation and are frozen here.
"""

import hashlib
import random
from itertools import chain

import pytest

from helpers import (AB, canonical_family, char_sample_by_scan,
                     fully_saturated_targets, random_dfa, random_family,
                     same_family, syntactic_targets, words_up_to)
from upfam.automata import Dfa, TransitionSystem, minimize_dfa
from upfam import learning
from upfam.errors import InputError, PreconditionError, ProtocolError
from upfam.faf import serialize_faf, serialize_sample
from upfam.family import (FDFA, FDWA, Family, ReferenceSet, family_accepts,
                          trivial_leading, up_membership)
from upfam.learning import (DOLLAR, LearnLog, Sample, Teacher,
                            _least_dollar_difference, default_fdfa,
                            dollar_dfa_to_fdfa, fdfa_to_dollar_dfa,
                            gen_char_sample, learn_active, learn_passive,
                            make_teacher)
from upfam.saturation import check_saturated
from upfam.words import Representation, llex_key

from fixtures import (ba_star_fdfa, empty_fdfa, eventually_ab_fdfa,
                      mod2_leading, some_a_fdwa, universal_fdfa)

GAMMA = AB + (DOLLAR,)


def lassos(alphabet, max_u, max_x):
    for u in words_up_to(alphabet, max_u):
        for x in words_up_to(alphabet, max_x, 1):
            yield u, x


def split_dollar(w):
    """The pair (u, x) when w = u$x with x nonempty, else None."""
    if w.count(DOLLAR) != 1:
        return None
    i = w.index(DOLLAR)
    if i == len(w) - 1:
        return None
    return w[:i], w[i + 1:]


class TestTargetFixtures:
    """The shared learning targets really are what they claim to be."""

    @pytest.mark.parametrize("name", sorted(fully_saturated_targets()))
    def test_fully_saturated_targets(self, name):
        F, pred = fully_saturated_targets()[name]
        assert check_saturated(F, ReferenceSet.ALL).ok
        for u, x in lassos(AB, 3, 3):
            assert family_accepts(F, Representation(u, x)) == pred(u, x)

    @pytest.mark.parametrize("name", sorted(syntactic_targets()))
    def test_syntactic_targets(self, name):
        F, pred = syntactic_targets()[name]
        assert check_saturated(F).ok
        for u, x in lassos(AB, 3, 3):
            assert up_membership(F, Representation(u, x)) == pred(u, x)


class TestDollarEncoding:

    def test_universal_family_encodes_to_all_pairs(self):
        A = fdfa_to_dollar_dfa(universal_fdfa("ab"))
        for w in words_up_to(GAMMA, 5):
            assert A.accepts(w) == (split_dollar(w) is not None)

    def test_ba_star_encoding(self):
        A = fdfa_to_dollar_dfa(ba_star_fdfa())
        for w in words_up_to(GAMMA, 5):
            pair = split_dollar(w)
            want = (pair is not None and pair[1][:1] == ("b",)
                    and set(pair[1][1:]) <= {"a"})
            assert A.accepts(w) == want

    @pytest.mark.parametrize("name", sorted(fully_saturated_targets()))
    def test_encoding_matches_pair_acceptance(self, name):
        F, _ = fully_saturated_targets()[name]
        A = fdfa_to_dollar_dfa(F)
        for w in words_up_to(GAMMA, 5):
            pair = split_dollar(w)
            want = (pair is not None
                    and family_accepts(F, Representation(*pair)))
            assert A.accepts(w) == want

    def test_encode_rejects_weak_families_and_taken_marker(self):
        with pytest.raises(InputError):
            fdfa_to_dollar_dfa(some_a_fdwa(FDWA))
        clash = Family(FDFA, TransitionSystem(("a", DOLLAR), [[0, 0]]),
                       [Dfa(("a", DOLLAR), [[0, 0]], {0})])
        with pytest.raises(InputError):
            fdfa_to_dollar_dfa(clash)

    def test_decode_hand_built_machine(self):
        # accepts a*$b+
        A = Dfa(GAMMA, [[0, 3, 1], [3, 2, 3], [3, 2, 3], [3, 3, 3]], {2})
        F = dollar_dfa_to_fdfa(A)
        assert F.kind == FDFA
        assert F.leading.n == 2
        for u, x in lassos(AB, 4, 4):
            want = set(u) <= {"a"} and set(x) == {"b"}
            assert family_accepts(F, Representation(u, x)) == want

    def test_decode_requires_dollar(self):
        with pytest.raises(InputError):
            dollar_dfa_to_fdfa(Dfa(AB, [[0, 0]], {0}))

    @pytest.mark.parametrize("name", sorted(syntactic_targets()))
    def test_encode_decode_round_trip(self, name):
        F, _ = syntactic_targets()[name]
        G = dollar_dfa_to_fdfa(fdfa_to_dollar_dfa(F))
        for u, x in lassos(AB, 4, 4):
            r = Representation(u, x)
            assert family_accepts(F, r) == family_accepts(G, r)

    def test_decode_encode_keeps_the_language(self):
        rng = random.Random(11)
        for _ in range(40):
            A = random_dfa(rng, GAMMA, 4)
            again = fdfa_to_dollar_dfa(dollar_dfa_to_fdfa(A))
            for w in words_up_to(GAMMA, 5):
                want = A.accepts(w) if split_dollar(w) else False
                assert again.accepts(w) == want


class TestLeastDifference:

    def brute(self, A, B, cap=7):
        for w in words_up_to(GAMMA, cap):
            pair = split_dollar(w)
            if pair and A.accepts(w) != B.accepts(w):
                return pair
        return None

    def test_matches_brute_force_on_random_machines(self):
        rng = random.Random(12)
        real = 0
        for _ in range(60):
            A = random_dfa(rng, GAMMA, 4)
            B = random_dfa(rng, GAMMA, 4)
            got = _least_dollar_difference(A, B)
            want = self.brute(A, B)
            if want is None:
                # any difference, if one exists at all, is longer than the cap
                assert got is None or len(got[0]) + len(got[1]) > 6
            else:
                assert got == want
                real += 1
        assert real > 20

    def test_equal_machines_have_no_difference(self):
        A = fdfa_to_dollar_dfa(eventually_ab_fdfa())
        assert _least_dollar_difference(A, A) is None


class TestTeacher:

    def test_membership_and_counters(self):
        teacher = make_teacher(eventually_ab_fdfa())
        assert teacher.membership(Representation(("a",), ("b", "a")))
        assert not teacher.membership(Representation((), ("a", "a", "b")))
        assert teacher.membership_queries == 2
        assert teacher.equivalence_queries == 0

    def test_target_passes_its_own_equivalence(self):
        teacher = make_teacher(eventually_ab_fdfa())
        assert teacher.equivalence(eventually_ab_fdfa()) is None
        assert teacher.equivalence_queries == 1

    def test_counterexample_is_llex_least(self):
        teacher = make_teacher(eventually_ab_fdfa())
        assert (teacher.equivalence(empty_fdfa("ab"))
                == Representation((), ("a", "b")))
        teacher = make_teacher(universal_fdfa("ab"))
        assert (teacher.equivalence(empty_fdfa("ab"))
                == Representation((), ("a",)))

    def test_rejects_targets_that_are_not_fully_saturated(self):
        with pytest.raises(PreconditionError):
            make_teacher(ba_star_fdfa())
        with pytest.raises(PreconditionError):
            make_teacher(syntactic_targets()["starts-a"][0])


class TestActiveLearning:

    def spy_teacher(self, F):
        """Teacher that records full-saturation of every equivalence query."""
        teacher = make_teacher(F)
        teacher.saturated_seen = []
        inner = teacher._equivalence

        def watching(H):
            teacher.saturated_seen.append(
                check_saturated(H, ReferenceSet.ALL).ok)
            return inner(H)

        teacher._equivalence = watching
        return teacher

    @pytest.mark.parametrize("name", sorted(fully_saturated_targets()))
    def test_learns_the_target(self, name):
        F, _ = fully_saturated_targets()[name]
        teacher = self.spy_teacher(F)
        learned, log = learn_active(teacher)
        assert learned.kind == FDFA
        assert make_teacher(F).equivalence(learned) is None
        assert teacher.saturated_seen and all(teacher.saturated_seen)
        assert log.rounds >= 1
        assert log.equivalence_queries == len(teacher.saturated_seen)
        assert log.saturation_checks >= log.rounds

    @pytest.mark.parametrize("name", sorted(fully_saturated_targets()))
    def test_query_counts_stay_cubic(self, name):
        F, _ = fully_saturated_targets()[name]
        learned, log = learn_active(make_teacher(F))
        n = minimize_dfa(fdfa_to_dollar_dfa(F)).n
        budget = 2 * (n + log.max_counterexample) ** 3
        assert log.membership_queries + log.equivalence_queries <= budget

    def test_empty_target_needs_one_round(self):
        learned, log = learn_active(make_teacher(empty_fdfa("ab")))
        assert log.rounds == 1
        assert log.equivalence_queries == 1
        assert log.membership_queries == 0
        assert not any(family_accepts(learned, Representation(u, x))
                       for u, x in lassos(AB, 2, 2))

    def test_inconsistent_teacher_raises(self):
        honest = make_teacher(some_a_fdwa(FDFA))
        liar = Teacher(AB, honest._membership,
                       lambda F: Representation((), ("a",)))
        with pytest.raises(ProtocolError):
            learn_active(liar)


class TestDefaultFamily:

    def test_unary_word_accepts_every_representation(self):
        F = default_fdfa([Representation(("a",), ("a",))])
        assert check_saturated(F, ReferenceSet.ALL).ok
        for u, x in lassos(("a",), 4, 4):
            assert family_accepts(F, Representation(u, x))

    def test_ab_cycle_is_exact(self):
        target = Representation((), ("a", "b"))
        F = default_fdfa([target], AB)
        assert check_saturated(F, ReferenceSet.ALL).ok
        for u, x in lassos(AB, 3, 4):
            want = Representation(u, x).canonical() == target.canonical()
            assert family_accepts(F, Representation(u, x)) == want

    def test_empty_set_rejects_everything(self):
        F = default_fdfa([], AB)
        assert check_saturated(F, ReferenceSet.ALL).ok
        assert not any(family_accepts(F, Representation(u, x))
                       for u, x in lassos(AB, 3, 3))

    def test_random_word_sets_are_exact(self):
        rng = random.Random(16)
        for _ in range(30):
            picks = {Representation(
                tuple(rng.choice(AB) for _ in range(rng.randint(0, 2))),
                tuple(rng.choice(AB) for _ in range(rng.randint(1, 2))))
                for _ in range(rng.randint(1, 3))}
            F = default_fdfa(picks, AB)
            keys = {r.canonical() for r in picks}
            assert check_saturated(F, ReferenceSet.ALL).ok
            for u, x in lassos(AB, 3, 3):
                want = Representation(u, x).canonical() in keys
                assert family_accepts(F, Representation(u, x)) == want

    def test_symbols_must_come_from_the_alphabet(self):
        with pytest.raises(InputError):
            default_fdfa([Representation((), ("c",))], AB)


class TestSample:

    def test_orders_and_dedupes(self):
        r = Representation((), ("a",))
        s = Sample([r, r, Representation(("a",), ("b",))],
                   [Representation((), ("b",))])
        assert len(s.positive) == 2
        assert len(s) == 3
        assert s.alphabet() == AB

    def test_rejects_word_level_conflicts(self):
        # (a, aa) spells the same word as (ε, a)
        with pytest.raises(InputError):
            Sample([Representation((), ("a",))],
                   [Representation(("a",), ("a", "a"))])


class TestPassiveLearning:

    @pytest.mark.parametrize("name", sorted(syntactic_targets()))
    def test_characteristic_sample_round_trip(self, name):
        F, _ = syntactic_targets()[name]
        assert same_family(learn_passive(gen_char_sample(F)), F)

    @pytest.mark.parametrize("name", sorted(syntactic_targets()))
    def test_round_trip_is_stable_under_extensions(self, name):
        F, _ = syntactic_targets()[name]
        base = gen_char_sample(F)
        rng = random.Random(13)
        pos, neg = list(base.positive), list(base.negative)
        for _ in range(20):
            r = Representation(
                tuple(rng.choice(AB) for _ in range(rng.randint(0, 3))),
                tuple(rng.choice(AB) for _ in range(rng.randint(1, 4))))
            (pos if up_membership(F, r) else neg).append(r)
            assert same_family(learn_passive(Sample(pos, neg)), F)

    def test_characteristic_sample_size_is_modest(self):
        for name, (F, _) in syntactic_targets().items():
            size = F.leading.n + sum(D.n for D in F.progress)
            assert len(gen_char_sample(F)) <= 4 * size * size + 4 * size

    def test_characteristic_sample_separates_prefix_classes(self):
        sample = gen_char_sample(syntactic_targets()["only-a"][0])
        assert Representation((), ("a",)) in sample.positive
        assert Representation(("b",), ("a",)) in sample.negative

    def test_char_sample_of_empty_family_is_all_negative(self):
        sample = gen_char_sample(empty_fdfa("ab"))
        assert not sample.positive
        assert len(sample.negative) >= 2

    def test_char_sample_requires_saturation(self):
        with pytest.raises(PreconditionError):
            gen_char_sample(ba_star_fdfa())

    def test_char_sample_needs_a_normalized_loop_per_accepting_state(self):
        # The accepting initial state is never reached again, so no
        # nonempty loop word leads to it.
        F = Family(FDFA, TransitionSystem(AB, [[0, 0]]),
                   [Dfa(AB, [[1, 1], [1, 1]], {0, 1})])
        with pytest.raises(PreconditionError,
                           match="accepting progress state 0 of leading"
                                 " state 0 has no normalized loop"):
            gen_char_sample(F)

    def test_char_sample_needs_a_minimal_leading_system(self):
        universal = Dfa("a", [[0]], [0])
        F = Family(FDFA, mod2_leading("a"), [universal, universal])
        with pytest.raises(PreconditionError,
                           match="leading states 0 and 1 are equivalent"):
            gen_char_sample(F)

    def test_char_sample_needs_separable_progress_states(self):
        # States 1 and 2 both accept every extension: a^+ on three states.
        F = Family(FDFA, trivial_leading("a"),
                   [Dfa("a", [[1], [2], [2]], [1, 2])])
        with pytest.raises(PreconditionError,
                           match="progress states 1 and 2 of leading state"
                                 " 0 admit no separating extension"):
            gen_char_sample(F)

    def test_single_positive_example(self):
        learned = learn_passive(Sample([Representation((), ("a",))], []))
        assert up_membership(learned, Representation((), ("a",)))
        assert check_saturated(learned).ok

    def test_empty_sample_learns_the_empty_family(self):
        learned = learn_passive(Sample())
        assert learned.kind == FDFA
        assert not any(D.accepting for D in learned.progress)

    def test_random_samples_learn_consistently(self):
        """Whatever comes back replays every label and is saturated."""
        _, pred = syntactic_targets()["eventually-ab"]
        rng = random.Random(14)
        for _ in range(40):
            pos, neg = [], []
            for _ in range(rng.randint(0, 12)):
                u = tuple(rng.choice(AB) for _ in range(rng.randint(0, 3)))
                x = tuple(rng.choice(AB) for _ in range(rng.randint(1, 3)))
                (pos if pred(u, x) else neg).append(Representation(u, x))
            sample = Sample(pos, neg)
            learned = learn_passive(sample)
            assert check_saturated(learned).ok
            assert all(up_membership(learned, r) for r in sample.positive)
            assert not any(up_membership(learned, r)
                           for r in sample.negative)

    def test_canonical_family_detects_isomorphism(self):
        F, _ = syntactic_targets()["eventually-ab"]
        assert canonical_family(F).progress_sizes() == F.progress_sizes()
        assert same_family(F, F)
        assert not same_family(F, empty_fdfa("ab"))


def letter_set_target(k, seed):
    """Fully saturated FDFA over the first k letters: one leading state, and
    a progress DFA that accepts a seeded random collection of the sets of
    letters read."""
    rng = random.Random(seed)
    sigma = "abcde"[:k]
    chosen = ({m for m in range(1, 1 << k) if rng.random() < 0.5}
              or {(1 << k) - 1})
    prog = Dfa.build(sigma, 0, lambda m, a: m | (1 << sigma.index(a)),
                     accepting=lambda m: m in chosen)
    lead = TransitionSystem.build(sigma, 0, lambda s, a: 0)
    return Family(FDFA, lead, [minimize_dfa(prog)])


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of serialize_faf(learn_passive(gen_char_sample(
# letter_set_target(k, k)))), recorded when learn_passive still scanned
# every example for each separation test.
PASSIVE_DIGESTS = {
    2: "492e7c92baa3b61ce3a4fd8b4b19619b699cb475511bb317c5d09a8dd506905f",
    3: "05ddc698ed84251af29d5ce40cfd7adcf714dfb985751ba8b0fbeb7a12b55f57",
    4: "b7108a35082d83a6a09ac287b89599d83e0fb92372be3f15d848e80b048db4d6",
    5: "9f5fbc48f31c27f0f6a75d86fd78b6b5368e2803213679dddfaa4a595a495787",
}


@pytest.mark.parametrize("k", sorted(PASSIVE_DIGESTS))
def test_passive_learning_of_letter_sets_is_pinned(k):
    learned = learn_passive(gen_char_sample(letter_set_target(k, k)))
    assert sha256(serialize_faf(learned)) == PASSIVE_DIGESTS[k]


def pinned_target(name):
    if name.startswith("letters-"):
        k = int(name[len("letters-"):])
        return letter_set_target(k, k)
    if name.startswith("default-"):
        u, x = name[len("default-"):].split("-")
        return default_fdfa([Representation(u.strip("_"), x)], AB)
    return syntactic_targets()[name][0]


# name -> (sha256 of serialize_sample(gen_char_sample(F)), and for a fully
# saturated target the sha256 of serialize_faf of the family that
# learn_active(make_teacher(F)) returns with the LearnLog of the run).
# Recorded before the learners were rewritten to one separation loop per
# machine and one table representative per row.  The letter-set families
# learned actively are the ones PASSIVE_DIGESTS pins for learn_passive.
# "default-u-x" is default_fdfa of the single word u·x^w over ab.  The
# letter-set targets have one leading state; the other five have 2, 3, 2, 3
# and 4, in the order listed.
LEARNER_PINS = {
    "letters-2": (
        "d5b570e417e5074c9b71c432264ed9d9e5b1928b2d77f1a278b04cc8e019e78d",
        PASSIVE_DIGESTS[2], LearnLog(33, 2, 3, 3, 3)),
    "letters-3": (
        "2665fe70d87693f9032b9d0c4bf8540ede5279d71901bb00cec0f5ea39ce1777",
        PASSIVE_DIGESTS[3], LearnLog(58, 2, 3, 3, 4)),
    "letters-4": (
        "97f8687cb2672eb08f12c8073c7bd3239643c270744ce70c458204b5f92a7072",
        PASSIVE_DIGESTS[4], LearnLog(404, 2, 5, 5, 4)),
    "letters-5": (
        "31b2fe92098cf6f5e5ac30f21b2298a062e3ff13cfa42bdb0e448b1bad383697",
        PASSIVE_DIGESTS[5], LearnLog(1016, 2, 5, 5, 4)),
    "only-a": (
        "33472324c4eff42a3aa805315ac739802040eaccbdc215c3e1181c06d0075c3e",
        "7026e332e414c51c3462e0ab79f2df185e1d1d09025684bb5d24e322979f95c5",
        LearnLog(11, 2, 2, 2, 2)),
    "starts-a": (
        "643caa6f1b7d5c2619a807714e06843e6c7cde5eb91bd76723dc90e6433814f7",
        None, None),
    "default-b-b": (
        "de8bbb789a3fe25be5f301c4e05061a37caa38c0d9df8a7b9420db759efa887b",
        "2aee9b254958962c6d12e80218b83b7ba2abf251ae809646809e7fa2767bd5a9",
        LearnLog(11, 2, 2, 2, 2)),
    "default-_-ba": (
        "aedb40599eddc5f4810e7407606ba40b3cf92c84037c25150504deaa15b20160",
        "cd1e2220ca8188f86595549360cb31b3463ab73c9f081a876c68de15484f5d2d",
        LearnLog(61, 2, 3, 3, 4)),
    "default-a-baa": (
        "ecb0598d88cd751df4b22269fdbbb0157ed76c66918cbe81283645da97afb57e",
        "8e20aa29de4557f0103f6765f862b28a62305fb96acd2c5678ed195c452a2e2c",
        LearnLog(243, 2, 5, 5, 8)),
}


@pytest.mark.parametrize("name", sorted(LEARNER_PINS))
def test_learner_outputs_are_pinned(name):
    F = pinned_target(name)
    sample_digest, family_digest, log = LEARNER_PINS[name]
    assert sha256(serialize_sample(gen_char_sample(F))) == sample_digest
    if family_digest is None:
        with pytest.raises(PreconditionError):
            make_teacher(F)
        return
    learned, got = learn_active(make_teacher(F))
    assert sha256(serialize_faf(learned)) == family_digest
    assert got == log


def char_sample_outcome(make, F):
    """serialize_sample of the sample, or the type and text of the error."""
    try:
        return serialize_sample(make(F))
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("alphabet, max_leading, max_progress, count",
                         [("ab", 3, 5, 1000), ("abc", 2, 4, 500),
                          ("ab", 1, 8, 500)])
def test_char_sample_matches_the_scan_on_saturated_families(
        alphabet, max_leading, max_progress, count):
    """The transformation search gives the samples and errors of the scan
    over every word up to length n + 2, on saturated random families."""
    rng = random.Random("char-sample:%s:%d:%d"
                        % (alphabet, max_leading, max_progress))
    samples = drawn = 0
    while drawn < count:
        F = random_family(rng, alphabet=alphabet, max_leading=max_leading,
                          max_progress=max_progress)
        if not check_saturated(F).ok:
            continue
        drawn += 1
        got = char_sample_outcome(gen_char_sample, F)
        assert got == char_sample_outcome(char_sample_by_scan, F), F
        samples += isinstance(got, str)
    assert samples >= count // 4  # not only errors


def test_char_sample_matches_the_scan_on_default_families():
    """The same on default families of random word sets, with two or three
    leading states."""
    rng = random.Random("char-sample:default")

    def word(lo, hi):
        return tuple(rng.choice(AB) for _ in range(rng.randint(lo, hi)))

    samples = drawn = 0
    while drawn < 300:
        F = default_fdfa([Representation(word(0, 3), word(1, 3))
                          for _ in range(rng.randint(1, 3))], AB)
        if not 2 <= F.leading.n <= 3:
            continue
        drawn += 1
        got = char_sample_outcome(gen_char_sample, F)
        assert got == char_sample_outcome(char_sample_by_scan, F), F
        samples += isinstance(got, str)
    assert samples >= 150


@pytest.mark.parametrize("name", sorted(LEARNER_PINS))
def test_char_sample_asks_once_per_emitted_pair(name, monkeypatch):
    """The separators cost no membership query: each pair of the sample is
    asked once, and nothing else is."""
    asked = []
    real = learning.up_membership

    def counted(F, r):
        asked.append(r)
        return real(F, r)

    monkeypatch.setattr(learning, "up_membership", counted)
    sample = gen_char_sample(pinned_target(name))
    assert len(asked) == len(sample)
    assert set(asked) == set(sample.positive + sample.negative)


# Reference definitions of the class inference: a scan of every example
# for each separation test, and a growth loop that restarts after each new
# representative.

def ref_leading_separated(evidence):
    def separated(u1, u2):
        if u1 == u2:
            return False
        for (w, x), lab in evidence.items():
            for a, b in ((u1, u2), (u2, u1)):
                if w[:len(a)] == a:
                    other = evidence.get((b + w[len(a):], x))
                    if other is not None and other != lab:
                        return True
        return False
    return separated


def ref_progress_separated(pooled):
    def label(x):
        if x == ():
            return False
        return pooled.get(x)

    def separated(x1, x2):
        if x1 == x2:
            return False
        for w in chain(pooled, ((),)):
            for a, b in ((x1, x2), (x2, x1)):
                if w[:len(a)] == a:
                    l1, l2 = label(w), label(b + w[len(a):])
                    if l1 is not None and l2 is not None and l1 != l2:
                        return True
        return False
    return separated


def ref_grow_classes(words, alphabet, order, separated):
    lkey = lambda w: llex_key(w, order)
    cands = sorted({w[:i] for w in words for i in range(len(w) + 1)},
                   key=lkey)
    reps = [()]
    grown = True
    while grown:
        grown = False
        for v in cands:
            if v not in reps and all(separated(v, u) for u in reps):
                reps.append(v)
                reps.sort(key=lkey)
                grown = True
                break
    moves = {}
    for u in reps:
        for a in alphabet:
            w = u + (a,)
            moves[(u, a)] = next(v for v in reps if not separated(w, v))
    return moves


class TestClassInference:
    """The prefix-tree separation and the one-pass growth of learn_passive
    agree with the reference definitions on random evidence."""

    def node_at(self, tree, word):
        for a in word:
            tree = tree[0][a]
        return tree

    def check(self, tree, moves, words, alphabet, order, separated):
        cands = sorted({w[:i] for w in words for i in range(len(w) + 1)})
        for v1 in cands:
            for v2 in cands:
                got = learning._separated(self.node_at(tree, v1),
                                          self.node_at(tree, v2))
                assert got == separated(v1, v2), (v1, v2)
        assert moves == ref_grow_classes(words, alphabet, order, separated)

    @pytest.mark.parametrize("alphabet", ["ab", "abc"])
    def test_matches_the_reference_definitions(self, alphabet, monkeypatch):
        grown = []
        real = learning._grow_classes

        def spy(tree, sigma, order):
            moves = real(tree, sigma, order)
            grown.append((tree, moves))
            return moves

        monkeypatch.setattr(learning, "_grow_classes", spy)
        alphabet = tuple(alphabet)
        order = {a: i for i, a in enumerate(alphabet)}
        rng = random.Random("classes:" + "".join(alphabet))
        for _ in range(1500):
            evidence = {}
            for _ in range(rng.randint(1, 8)):
                w = tuple(rng.choice(alphabet)
                          for _ in range(rng.randint(0, 3)))
                x = tuple(rng.choice(alphabet)
                          for _ in range(rng.randint(1, 3)))
                evidence[(w, x)] = rng.random() < 0.5
            leading = learning._infer_leading(evidence, alphabet, order)
            tree, moves = grown[-1]
            self.check(tree, moves, [w for w, _x in evidence], alphabet,
                       order, ref_leading_separated(evidence))
            for q in range(leading.n):
                pooled = {}
                for (w, x), lab in evidence.items():
                    if leading.run(w) == q:
                        old = pooled.get(x, lab)
                        pooled[x] = lab if old == lab else None
                learning._infer_progress(evidence, leading, q, alphabet,
                                         order)
                tree, moves = grown[-1]
                self.check(tree, moves, list(pooled), alphabet, order,
                           ref_progress_separated(pooled))
