"""End-to-end acceptance battery.

Nine independent checks, each printing one summary line even while pytest
captures output, and each with an explicit wall-clock budget.  Random decks
use fixed seeds so reruns see the same instances.
"""

import random
import time
from functools import lru_cache

from upfam.almost import check_almost_saturated, gen_intersection_fdfa
from upfam.automata import Dfa, minimize_dfa
from upfam.family import (FDFA, FDWA, ReferenceSet, family_accepts,
                          is_normalized, up_membership)
from upfam.learning import (Sample, fdfa_to_dollar_dfa,
                            gen_char_sample, learn_active, learn_passive,
                            make_teacher)
from upfam.oracle import (brute_almost_saturation, brute_saturation,
                          nba_lasso_accepts, normalized_word_accepts)
from upfam.regularity import check_regular, gen_ter_hardness
from upfam.saturation import (STAGE_LOOPSHIFT, check_fdwa_saturated,
                              check_loopshift_stable, check_saturated)
from upfam.translate import fdwa_to_nba, gen_family
from upfam.words import Representation, root, up_equal, words_up_to

from fixtures import (ba_star_fdfa, empty_fdfa, exactly_one_a_fdfa,
                      first_a_fdwa, odd_a_fdfa, one_b_some_a_fdfa,
                      some_a_fdwa, universal_fdfa)
from helpers import (AB, as_nfa, brute_ter_roots, classify,
                     fully_saturated_targets, intersect_dfa, profile_of,
                     random_family, same_family, syntactic_targets)

NORM = ReferenceSet.NORMALIZED


def conclude(capsys, label, t0, budget, failures, note=""):
    elapsed = time.time() - t0
    if elapsed >= budget:
        failures.append("over budget: %.1fs >= %ds" % (elapsed, budget))
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print("acceptance %-34s %s  (%.2fs%s)"
              % (label + ":", verdict, elapsed,
                 ", " + note if note else ""))
    assert not failures, failures[:8]


def replay_counterexample(F, cx, ref):
    """Word-level proof that a saturation counterexample is genuine."""
    return (up_equal(cx.left, cx.right)
            and family_accepts(F, cx.left, ref) == cx.left_accepted
            and family_accepts(F, cx.right, ref) == cx.right_accepted
            and cx.left_accepted != cx.right_accepted)


def replay_power_witness(F, witness):
    u, x, i = witness
    head, tail = Representation(u, x), Representation(u, x * i)
    return (i >= 2 and is_normalized(F, head)
            and family_accepts(F, head, NORM)
            and not family_accepts(F, tail, NORM))


def test_1_fixture_verdicts(capsys):
    t0 = time.time()
    failures = []

    def expect(label, cond):
        if not cond:
            failures.append(label)

    ba, od = ba_star_fdfa(), odd_a_fdfa()
    expect("ba*: saturation", check_saturated(ba).status == "NotSaturated")
    expect("ba*: almost", check_almost_saturated(ba).status ==
           "NotAlmostSaturated")
    expect("ba*: regularity", check_regular(ba).status == "NotRegular")
    expect("odd: saturation", check_saturated(od).status == "NotSaturated")
    expect("odd: almost", check_almost_saturated(od).status ==
           "NotAlmostSaturated")
    expect("odd: regularity", check_regular(od).status == "Regular")
    expect("one-b-some-a: regularity",
           check_regular(one_b_some_a_fdfa()).status == "NotRegular")
    biab = exactly_one_a_fdfa()
    expect("exactly-one-a: loopshift stable",
           check_loopshift_stable(biab, NORM).ok)
    N = as_nfa(biab.progress[0])
    expect("exactly-one-a: abab profile rejecting",
           classify(N, profile_of(N, "abab")) == "Rejecting")
    conclude(capsys, "1 fixture verdicts", t0, 1, failures, "9 checks")


@lru_cache(maxsize=1)
def checker_oracle_sweep():
    """500 random families: exact checkers against the bounded oracles.

    Returns (failure descriptions, saturation witnesses kept for the
    length-bound check, refuted counts)."""
    rng = random.Random(101)
    failures, witnesses = [], []
    refuted = almost_refuted = 0
    for k in range(500):
        F = random_family(rng, kind=FDFA, max_leading=2, max_progress=3)
        v = check_saturated(F, ReferenceSet.NORMALIZED)
        found = brute_saturation(F, NORM, 6, 6)
        if v.ok:
            if found is not None:
                failures.append("#%d: checker saturated, oracle refutes" % k)
        else:
            refuted += 1
            witnesses.append((F, v))
            if not replay_counterexample(F, v.witness, NORM):
                failures.append("#%d: saturation witness fails replay" % k)

        av = check_almost_saturated(F)
        afound = brute_almost_saturation(F, 6, 4)
        if av.ok:
            if afound is not None:
                failures.append("#%d: checker almost-saturated, oracle "
                                "refutes" % k)
        else:
            almost_refuted += 1
            if not replay_power_witness(F, av.witness):
                failures.append("#%d: power witness fails replay" % k)
    return failures, witnesses, refuted, almost_refuted


def test_2_checkers_agree_with_bounded_oracles(capsys):
    t0 = time.time()
    failures, witnesses, refuted, almost_refuted = checker_oracle_sweep()
    failures = list(failures)
    if refuted < 50 or almost_refuted < 50:
        failures.append("deck too easy: %d/%d refutations"
                        % (refuted, almost_refuted))
    conclude(capsys, "2 checker/oracle agreement", t0, 60, failures,
             "500 families, %d+%d refuted" % (refuted, almost_refuted))


def test_3_generated_family_sizes_and_verdicts(capsys):
    t0 = time.time()
    failures = []
    expect_size = {"fixpoint-fdwa": lambda n: (1, n + 2),
                   "fixpoint-alsat": lambda n: (1, n + 2),
                   "subset-occurrence": lambda n: (1, 2 * n + 1),
                   "zero-u-zero-fdfa": lambda n: (1, n + 3),
                   "zero-u-zero-fdwa": lambda n: (1, n + 3),
                   "syntactic-gap": lambda n: (n, 2 * n)}
    for n in (1, 2, 3):
        for name, size_of in expect_size.items():
            F = gen_family(name, n)
            size = (F.leading.n, max(F.progress_sizes()))
            if size != size_of(n):
                failures.append("%s n=%d size %r" % (name, n, size))
        for name in ("fixpoint-fdwa", "subset-occurrence"):
            if not check_fdwa_saturated(gen_family(name, n)).ok:
                failures.append("%s n=%d not fdwa-saturated" % (name, n))
        for name in ("fixpoint-alsat", "zero-u-zero-fdfa"):
            F = gen_family(name, n)
            if not check_almost_saturated(F).ok:
                failures.append("%s n=%d not almost saturated" % (name, n))
            if check_saturated(F, ReferenceSet.NORMALIZED).ok:
                failures.append("%s n=%d unexpectedly saturated" % (name, n))
    conclude(capsys, "3 generated families", t0, 10, failures,
             "6 kinds x n=1..3")


def test_4_buchi_translation_agreement(capsys):
    t0 = time.time()
    failures = []
    canon = {}
    for u in words_up_to(AB, 6):
        for x in words_up_to(AB, 6, min_len=1):
            canon[(u, x)] = Representation(u, x).canonical()

    deck = [("some-a", some_a_fdwa()), ("first-a", first_a_fdwa()),
            ("universal", universal_fdfa("ab", FDWA)),
            ("empty", empty_fdfa("ab", FDWA))]
    rng = random.Random(23)
    deck += [("random-%d" % k,
              random_family(rng, kind=FDWA, max_leading=2, max_progress=3))
             for k in range(100)]

    pairs = 0
    for name, W in deck:
        N = fdwa_to_nba(W)
        by_lasso, by_word = {}, {}
        for (u, x), rep in canon.items():
            pairs += 1
            kl = (N.run_set(u), x)
            if kl not in by_lasso:
                by_lasso[kl] = nba_lasso_accepts(N, u, x)
            kr = (rep.u, rep.x)
            if kr not in by_word:
                by_word[kr] = normalized_word_accepts(W, rep.u, rep.x)
            if by_lasso[kl] != by_word[kr]:
                failures.append("%s: (%s, %s)" % (name, "".join(u),
                                                  "".join(x)))
    conclude(capsys, "4 Buchi translation agreement", t0, 60, failures,
             "%d families, %d lassos" % (len(deck), pairs))


def sample_dfa(rng):
    """Small DFA over ab whose initial state rejects the empty word."""
    n = rng.randint(1, 3)
    trans = {(s, a): rng.randrange(n) for s in range(n) for a in "ab"}
    acc = {s for s in range(1, n) if rng.random() < 0.5}
    return Dfa.from_parts("ab", n, trans, 0, acc)


def test_5_hardness_reductions(capsys):
    t0 = time.time()
    failures = []
    rng = random.Random(3)
    nonempty_seen = empty_seen = 0
    for k in range(200):
        dfas = [sample_dfa(rng) for _ in range(rng.randint(1, 2))]
        inter = dfas[0]
        for d in dfas[1:]:
            inter = intersect_dfa(inter, d)
        nonempty = bool(inter.accepting)
        nonempty_seen += nonempty
        empty_seen += not nonempty

        v = check_almost_saturated(gen_intersection_fdfa(dfas))
        if (v.status == "NotAlmostSaturated") != nonempty:
            failures.append("#%d: intersection instance verdict" % k)
        D = as_nfa(gen_ter_hardness(dfas))
        grows = len(brute_ter_roots(D, 8)) > len(brute_ter_roots(D, 4))
        if grows != nonempty:
            failures.append("#%d: terminal-root growth" % k)
    if nonempty_seen < 30 or empty_seen < 30:
        failures.append("deck unbalanced: %d/%d" % (nonempty_seen,
                                                    empty_seen))
    conclude(capsys, "5 hardness reductions", t0, 120, failures,
             "200 tuples, %d nonempty" % nonempty_seen)


def test_6_active_learning_round_trip(capsys):
    t0 = time.time()
    failures = []
    targets = fully_saturated_targets()
    if len(targets) != 10:
        failures.append("expected 10 targets, have %d" % len(targets))
    for name, (F, _pred) in sorted(targets.items()):
        n = minimize_dfa(fdfa_to_dollar_dfa(F)).n
        if n > 6:
            failures.append("%s: %d-state encoding" % (name, n))
            continue
        teacher = make_teacher(F)
        seen_saturated = []
        inner = teacher._equivalence
        teacher._equivalence = lambda H: (
            seen_saturated.append(check_saturated(H, ReferenceSet.ALL).ok)
            or inner(H))
        learned, log = learn_active(teacher)
        if make_teacher(F).equivalence(learned) is not None:
            failures.append("%s: hypothesis not equivalent" % name)
        if not (seen_saturated and all(seen_saturated)):
            failures.append("%s: unsaturated equivalence query" % name)
        budget = 2 * (n + log.max_counterexample) ** 3
        queries = log.membership_queries + log.equivalence_queries
        if queries > budget:
            failures.append("%s: %d queries > %d" % (name, queries, budget))
    conclude(capsys, "6 active learning round trip", t0, 60, failures,
             "%d targets" % len(targets))


def test_7_passive_learning_round_trip(capsys):
    t0 = time.time()
    failures = []
    targets = syntactic_targets()
    if len(targets) < 5:
        failures.append("need at least 5 fixtures, have %d" % len(targets))
    rng = random.Random(13)
    for name, (F, _pred) in sorted(targets.items()):
        if not same_family(learn_passive(gen_char_sample(F)), F):
            failures.append("%s: round trip" % name)
            continue
        pos = list(gen_char_sample(F).positive)
        neg = list(gen_char_sample(F).negative)
        for step in range(20):
            r = Representation(
                tuple(rng.choice(AB) for _ in range(rng.randint(0, 3))),
                tuple(rng.choice(AB) for _ in range(rng.randint(1, 4))))
            (pos if up_membership(F, r) else neg).append(r)
            if not same_family(learn_passive(Sample(pos, neg)), F):
                failures.append("%s: diverged at extension %d"
                                % (name, step))
                break
    conclude(capsys, "7 passive learning round trip", t0, 60, failures,
             "%d fixtures x 20 extensions" % len(targets))


def first_prime_above(k):
    p = k + 1
    while any(p % d == 0 for d in range(2, p)):
        p += 1
    return p


def test_8_primitive_root_padding(capsys):
    t0 = time.time()
    failures = []
    checked = 0
    for ell in (1, 2, 3):
        p = first_prime_above(2 * ell)
        for x in words_up_to(AB, ell, min_len=ell):
            for y in words_up_to(AB, ell, min_len=ell):
                if x == y:
                    continue
                checked += 1
                w = x + y * (p - 1)
                if root(w) != w:
                    failures.append("x=%s y=%s" % ("".join(x), "".join(y)))
    conclude(capsys, "8 primitive root padding", t0, 5, failures,
             "%d word pairs" % checked)


def test_9_witness_length_bounds(capsys):
    t0 = time.time()
    failures, witnesses, _, _ = checker_oracle_sweep()
    failures = list(failures)
    for k, (F, v) in enumerate(witnesses):
        nl = F.leading.n
        md = max(p.n for p in F.progress)
        cx = v.witness
        if len(cx.left.u) > nl:
            failures.append("#%d: spoke %d > %d" % (k, len(cx.left.u), nl))
        if v.stage == STAGE_LOOPSHIFT:
            if len(cx.left.x) > (nl * md) ** 2 + 1:
                failures.append("#%d: loop %d too long" % (k, len(cx.left.x)))
        else:
            exp = len(cx.right.x) // len(cx.left.x)
            if not 2 <= exp <= md:
                failures.append("#%d: exponent %d" % (k, exp))
    conclude(capsys, "9 witness length bounds", t0, 60, failures,
             "%d witnesses" % len(witnesses))
