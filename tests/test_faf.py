"""The text formats: family files, dollar-machine documents, samples, DOT.

Loading canonicalizes: machines come back renumbered in breadth-first
order with missing transitions completed to a sink, so parse(serialize(F))
is the identity exactly when F is already in that form (every fixture is),
and a language-preserving renumbering otherwise.
"""

import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_family, words_up_to
from upfam import automata
from upfam.automata import Dfa, Nba
from upfam.errors import InputError
from upfam.faf import (dfa_to_dot, family_to_dot, nba_to_dot, parse_dfa_doc,
                       parse_faf, parse_sample, serialize_dfa_doc,
                       serialize_faf, serialize_nba, serialize_sample)
from upfam.family import FDFA, FNFA, family_accepts
from upfam.learning import Sample, dollar_dfa_to_fdfa, fdfa_to_dollar_dfa
from upfam.translate import GEN_FAMILY_NAMES, fdwa_to_nba, gen_family
from upfam.words import Representation, canonical_pair

from fixtures import (all_fixture_families, ba_star_fdfa, first_a_fdwa,
                      odd_a_fdfa, some_a_fdwa, universal_fdfa)

FILES = os.path.join(os.path.dirname(__file__), "files")


def read_file(name):
    with open(os.path.join(FILES, name), encoding="utf-8") as fh:
        return fh.read()


def same_language(F, G, depth=3):
    for u in words_up_to(F.alphabet, depth):
        for x in words_up_to(F.alphabet, depth, min_len=1):
            r = Representation(u, x)
            if family_accepts(F, r) != family_accepts(G, r):
                return False
    return True


def canonical_families():
    out = dict(all_fixture_families())
    out["some-a-fdwa"] = some_a_fdwa()
    out["first-a-fdwa"] = first_a_fdwa()
    for name in GEN_FAMILY_NAMES:
        for n in (1, 2, 3):
            out["%s-%d" % (name, n)] = gen_family(name, n)
    return out


class TestFamilyFormat:
    def test_documented_example_file(self):
        # the in-repo fixture file carries trailing comments on the kind
        # and alphabet lines
        assert parse_faf(read_file("ba_star.faf")) == ba_star_fdfa()
        assert parse_faf(read_file("odd_a.faf")) == odd_a_fdfa()

    @pytest.mark.parametrize("name,F", sorted(canonical_families().items()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_round_trip_identity(self, name, F):
        assert parse_faf(serialize_faf(F)) == F

    def test_round_trip_keeps_language_on_random_families(self):
        rng = random.Random(7)
        renumbered = 0
        for kind in (FDFA, FNFA):
            for _ in range(25):
                F = random_family(rng, kind=kind)
                G = parse_faf(serialize_faf(F))
                renumbered += G != F
                assert same_language(F, G)
                # after one load the form is a fixpoint
                assert parse_faf(serialize_faf(G)) == G
        assert renumbered  # some random families are not in canonical form

    def test_hash_and_dollar_are_legal_symbols(self):
        text = ("faf 1\nkind fdfa\nalphabet $ #\n"
                "leading\n  states 1\n  initial 0\n"
                "  trans 0 $ 0\n  trans 0 # 0\n"
                "progress 0\n  states 1\n  initial 0\n  accepting 0\n"
                "  trans 0 $ 0  # a comment after a full transition\n"
                "  trans 0 # 0\n")
        F = parse_faf(text)
        assert F.alphabet == ("$", "#")
        assert family_accepts(F, Representation((), ("#", "$")))
        assert parse_faf(serialize_faf(F)) == F

    def test_missing_transitions_complete_to_sink(self):
        # only the two live progress rows are spelled out; the sink is
        # implicit and the loaded family is the full three-state machine
        text = ("faf 1\nkind fdfa\nalphabet a b\n"
                "leading\n  states 1\n  initial 0\n"
                "  trans 0 a 0\n  trans 0 b 0\n"
                "progress 0\n  states 2\n  initial 0\n  accepting 1\n"
                "  trans 0 b 1\n  trans 1 a 1\n")
        assert parse_faf(text) == ba_star_fdfa()

    def test_leading_sink_gets_rejecting_progress(self):
        text = ("faf 1\nkind fdfa\nalphabet a b\n"
                "leading\n  states 1\n  initial 0\n  trans 0 a 0\n"
                "progress 0\n  states 1\n  initial 0\n  accepting 0\n"
                "  trans 0 a 0\n  trans 0 b 0\n")
        F = parse_faf(text)
        assert F.leading.n == 2 and len(F.progress) == 2
        assert family_accepts(F, Representation((), ("a",)))
        assert not family_accepts(F, Representation(("b",), ("a",)))

    def test_fnfa_repeats_and_initials(self):
        text = ("faf 1\nkind fnfa\nalphabet a b\n"
                "leading\n  states 1\n  initial 0\n"
                "  trans 0 a 0\n  trans 0 b 0\n"
                "progress 0\n  states 2\n  initials 0 1\n  accepting 1\n"
                "  trans 0 a 0\n  trans 0 a 1\n  trans 1 b 1\n")
        F = parse_faf(text)
        assert F.kind == FNFA
        assert F.progress[0].initials == frozenset({0, 1})
        assert F.progress[0].delta[0][0] == frozenset({0, 1})
        assert parse_faf(serialize_faf(F)) == F

    def test_fnfa_drops_unreachable_states(self):
        text = ("faf 1\nkind fnfa\nalphabet a\n"
                "leading\n  states 1\n  initial 0\n  trans 0 a 0\n"
                "progress 0\n  states 3\n  initial 0\n  accepting 1\n"
                "  trans 0 a 0\n  trans 2 a 1\n")
        N = parse_faf(text).progress[0]
        assert N.n == 1 and not N.accepting

    def test_fnfa_keeps_reachable_states_in_declared_order(self):
        # States 0, 2 and 3 are reachable from 2 and become 0, 1 and 2;
        # breadth-first order from the initial state would number 2 first.
        text = ("faf 1\nkind fnfa\nalphabet a\n"
                "leading\n  states 1\n  initial 0\n  trans 0 a 0\n"
                "progress 0\n  states 4\n  initial 2\n  accepting 3\n"
                "  trans 2 a 0\n  trans 0 a 3\n  trans 1 a 1\n")
        N = parse_faf(text).progress[0]
        assert N.n == 3
        assert N.initials == {1} and N.accepting == {2}
        assert N.delta == ((frozenset({2}),), (frozenset({0}),),
                           (frozenset(),))

    @pytest.mark.parametrize("kind", ["fdfa", "fnfa"])
    def test_memory_follows_the_transition_lines(self, kind):
        # A block declaring 10^8 states parses at once, to the family the
        # true count gives: rows are made by the lines that use them.
        text = ("faf 1\nkind %s\nalphabet a b\n"
                "leading\n  states 2\n  initial 0\n"
                "  trans 0 a 1\n  trans 1 a 0\n"
                "progress 0\n  states 3\n  initial 0\n  accepting 1\n"
                "  trans 0 b 1\n  trans 1 a 1\n  trans 2 a 0\n"
                "progress 1\n  states 1\n  initial 0\n" % kind)
        start = time.perf_counter()
        F = parse_faf(text.replace("states 3", "states 100000000"))
        assert time.perf_counter() - start < 5
        assert F == parse_faf(text)
        assert F.progress[0].n == {"fdfa": 3, "fnfa": 2}[kind]

    def test_canonical_documents_load_without_renumbering(self,
                                                         monkeypatch):
        # serialize_faf writes a loaded family in canonical order, so the
        # text comes back byte for byte and no table is renumbered.
        rng = random.Random("as-written")
        families = [gen_family(name, n) for name in GEN_FAMILY_NAMES
                    for n in (1, 2, 3)]
        families += [parse_faf(serialize_faf(random_family(rng, kind=kind)))
                     for kind in (FDFA, FNFA) for _ in range(40)]
        texts = [serialize_faf(F) for F in families]

        def renumber(*args):
            raise AssertionError("canonical_bfs called")

        monkeypatch.setattr(automata, "canonical_bfs", renumber)
        for text in texts:
            assert serialize_faf(parse_faf(text)) == text

    def test_crlf_line_endings(self):
        text = read_file("ba_star.faf")
        assert parse_faf(text.replace("\n", "\r\n")) == parse_faf(text)
        broken = text.replace("trans 1 a 1", "trans 1 a 7")
        with pytest.raises(InputError,
                           match="^line 14: transition 1-a->7 out of range$"):
            parse_faf(broken.replace("\n", "\r\n"))

    def test_comments_inside_a_run_of_transitions(self):
        # The comment lines come after transitions whose state tokens are
        # already resolved.
        text = read_file("ba_star.faf")
        commented = (text.replace("  trans 2 a 2\n",
                                  "  # a comment line\n  trans 2 a 2\n")
                     .replace("trans 2 b 2", "trans 2 b 2 # sink"))
        assert commented.count("#") == text.count("#") + 2
        assert parse_faf(commented) == parse_faf(text)
        with pytest.raises(InputError, match="^line 20: duplicate "
                           "transition for state 2 on 'b'$"):
            parse_faf(commented + "  trans 2 b 1\n")

    def test_state_tokens_with_leading_zeros(self):
        # "01" and "1" are one state, so the second spelling of a
        # transition is a duplicate, whether its tokens were seen or not.
        text = read_file("ba_star.faf")
        padded = text.replace("trans 1 a 1", "trans 001 a 01") \
            .replace("trans 2 a 2", "trans 02 a 007")
        assert parse_faf(padded.replace("007", "2")) == parse_faf(text)
        with pytest.raises(InputError, match="line 16: transition "
                           "2-a->7 out of range"):
            parse_faf(padded)
        for line in ("  trans 01 a 1\n", "  trans 1 a 001\n"):
            with pytest.raises(InputError, match="^line 19: duplicate "
                               "transition for state 1 on 'a'$"):
                parse_faf(text.replace("trans 1 a 1", "trans 001 a 01")
                          + line)

    def test_numerals_that_int_reads(self):
        # A state token is read by int() on the checked path the first
        # time a line names it, and looked up in a plain dict after that:
        # every spelling int() reads names its state, and a large declared
        # count makes no entry for the states no line names.
        text = read_file("ba_star.faf")
        for spelling in ("+1", "\u0661"):  # ARABIC-INDIC DIGIT ONE
            respelled = text.replace("trans 1 ", "trans %s " % spelling)
            assert respelled.count("trans %s " % spelling) == 2
            assert parse_faf(respelled) == parse_faf(text)
        for target, shown in (("1_0", "10"), ("-1", "-1")):
            with pytest.raises(InputError, match="^line 14: transition "
                               "1-a->%s out of range$" % shown):
                parse_faf(text.replace("trans 1 a 1", "trans 1 a " + target))
        big = text.replace("states 3", "states 100000000")
        assert parse_faf(big.replace("trans 1 a 1", "trans 1 a 99999999")) \
            == parse_faf(text.replace("states 3", "states 4")
                         .replace("trans 1 a 1", "trans 1 a 3"))

    def test_seen_state_token_out_of_range_in_a_smaller_block(self):
        # "2" is a state of progress 0, so its token is resolved before
        # progress 1, where it is out of range.
        text = ("faf 1\nkind fdfa\nalphabet a b\n"
                "leading\n  states 2\n  initial 0\n"
                "  trans 0 a 1\n  trans 1 a 0\n"
                "progress 0\n  states 3\n  initial 0\n  accepting 1\n"
                "  trans 0 b 1\n  trans 1 a 1\n  trans 2 a 0\n"
                "progress 1\n  states 2\n  initial 0\n"
                "  trans 0 a 1\n  trans 1 b 2\n")
        with pytest.raises(InputError, match="^line 20: transition "
                           "1-b->2 out of range$"):
            parse_faf(text)

    def test_progress_blocks_in_any_order(self):
        W = first_a_fdwa()
        text = serialize_faf(W)
        head, p0, p1 = text.partition("progress 0")
        block0, p1kw, block1 = (p0 + p1).partition("progress 1")
        shuffled = head + p1kw + block1 + block0
        assert parse_faf(shuffled) == W


BROKEN = [
    ("undeclared symbol", "trans 1 a 1", "trans 1 c 1", "'c'"),
    ("duplicate transition", "  trans 0 b 1\n",
     "  trans 0 b 1\n  trans 0 b 2\n", "duplicate transition"),
    ("bad kind", "kind fdfa", "kind dfa", "kind"),
    ("bad version", "faf 1", "faf 9", "version"),
    ("out of range", "trans 1 a 1", "trans 1 a 7", "out of range"),
    ("initials in dfa block", "  initial 0\n  accepting 1",
     "  initials 0\n  accepting 1", "fnfa"),
    # Full messages, line prefix included.
    ("non-numeric state", "trans 1 a 1", "trans x a 1",
     "line 14: transition states must be numbers"),
    ("trans with two arguments", "trans 1 a 1", "trans 1 a",
     "line 14: 'trans' takes 3 argument(s), got 2"),
    ("unknown directive", "  accepting 1", "  accept 1",
     "line 12: unknown directive 'accept'"),
    ("duplicate accepting", "  accepting 1\n",
     "  accepting 1\n  accepting 2\n", "line 13: duplicate 'accepting' line"),
    ("duplicate initial", "  initial 0\n  accepting 1",
     "  initial 0\n  initial 1\n  accepting 1",
     "line 12: duplicate initial-state line"),
    ("states x", "states 3", "states x",
     "line 10: 'states' expects a number, got 'x'"),
    ("states 0", "states 3", "states 0",
     "line 10: a machine needs at least one state"),
    ("accepting out of range", "accepting 1", "accepting 5",
     "line 9: accepting state 5 out of range"),
    ("initial out of range", "  initial 0\n  accepting 1",
     "  initial 4\n  accepting 1", "line 11: initial state 4 out of range"),
    ("duplicate leading transition", "  trans 0 b 0\n",
     "  trans 0 b 0\n  trans 0 b 0\n",
     "line 9: duplicate transition for state 0 on 'b'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("label,old,new,needle",
                             BROKEN, ids=[b[0] for b in BROKEN])
    def test_broken_documents(self, label, old, new, needle):
        text = read_file("ba_star.faf").replace(old, new)
        with pytest.raises(InputError, match="line \\d+") as exc:
            parse_faf(text)
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "label,old,new,needle",
        [b for b in BROKEN if b[3].startswith("line ")],
        ids=[b[0] for b in BROKEN if b[3].startswith("line ")])
    def test_line_numbers_count_blank_and_comment_lines(self, label, old,
                                                        new, needle):
        """The same documents with a trailing comment on the line above
        the failing one and three blank or comment lines before it: the
        line number moves by three."""
        lines = read_file("ba_star.faf").replace(old, new).splitlines()
        no = int(needle.split(":")[0].split()[1])
        lines[no - 2] += "  # trailing comment"
        lines[no - 1:no - 1] = ["", "  # a comment line", "   "]
        with pytest.raises(InputError) as exc:
            parse_faf("\n".join(lines) + "\n")
        assert str(exc.value) == "line %d:%s" % (no + 3,
                                                 needle.split(":", 1)[1])

    def test_trailing_comment_on_transition(self):
        text = read_file("ba_star.faf")
        commented = text.replace("trans 1 a 1", "trans 1 a 1  # loop on 1")
        assert commented != text
        assert parse_faf(commented) == parse_faf(text)

    def test_error_names_symbol_and_line(self):
        text = read_file("ba_star.faf").replace("trans 1 b 2",
                                                    "trans 1 z 2")
        with pytest.raises(InputError) as exc:
            parse_faf(text)
        assert "line 18" in str(exc.value) and "'z'" in str(exc.value)

    def test_missing_progress_block(self):
        text = read_file("ba_star.faf")
        head = text[:text.index("progress 0")]
        with pytest.raises(InputError, match="missing progress"):
            parse_faf(head)

    def test_duplicate_progress_block(self):
        text = read_file("ba_star.faf") + "progress 0\n  states 1\n"
        with pytest.raises(InputError, match="duplicate progress"):
            parse_faf(text)

    def test_progress_for_unknown_state(self):
        text = read_file("ba_star.faf").replace("progress 0",
                                                    "progress 3")
        with pytest.raises(InputError, match="unknown leading state"):
            parse_faf(text)

    def test_truncated_file(self):
        with pytest.raises(InputError, match="unexpected end"):
            parse_faf("faf 1\nkind fdfa\nalphabet a\n")
        # blank and comment lines at the end do not move the line number
        with pytest.raises(InputError,
                           match="^line 4: unexpected end of file$"):
            parse_faf("faf 1\nkind fdfa\nalphabet a\n\n# end\n  \n")
        with pytest.raises(InputError,
                           match="^line 5: unexpected end of file$"):
            parse_faf("faf 1\nkind fdfa\nalphabet a\nleading\n"
                      "  # states follow\n\n")
        with pytest.raises(InputError):
            parse_faf("")

    def test_accepting_states_on_leading(self):
        text = read_file("ba_star.faf").replace(
            "  trans 0 b 0", "  trans 0 b 0\n  accepting 0")
        with pytest.raises(InputError, match="no accepting"):
            parse_faf(text)


class TestDollarDocument:
    def test_round_trip(self):
        """Alphabets that end in '#' too: the '$' marker goes before it,
        since an alphabet line reads a '#' with more tokens after it as
        the start of a comment."""
        for F in (ba_star_fdfa(), odd_a_fdfa(), some_a_fdwa(FDFA)):
            A = fdfa_to_dollar_dfa(F)
            assert parse_dfa_doc(serialize_dfa_doc(A)) == A
        hash_last = [universal_fdfa(("a", "#")),
                     gen_family("fixpoint-alsat", 2)]
        hash_last += [random_family(random.Random(seed), alphabet=("a", "#"))
                      for seed in range(20)]
        for F in hash_last:
            # Most of these are not numbered canonically, so loading
            # renumbers them as from_table does.
            A = fdfa_to_dollar_dfa(F)
            assert A.alphabet == F.alphabet[:-1] + ("$", "#")
            assert parse_dfa_doc(serialize_dfa_doc(A)) == Dfa.from_table(
                A.alphabet, A.delta, A.initial, A.accepting)
            assert dollar_dfa_to_fdfa(A).alphabet == F.alphabet

    def test_writers_refuse_an_alphabet_that_does_not_read_back(self):
        for alphabet in (("#", "a"), ("a", "#b"), ("#x",)):
            with pytest.raises(InputError, match="cannot write"):
                serialize_faf(universal_fdfa(alphabet))
            with pytest.raises(InputError, match="cannot write"):
                serialize_dfa_doc(Dfa.build(alphabet, 0, lambda s, a: 0))
        assert serialize_dfa_doc(Dfa.build(("a#", "#"), 0, lambda s, a: 0)
                                 ).splitlines()[1] == "alphabet a# #"

    def test_accepting_state_out_of_range(self):
        # The message of a family block: the state, at the header line.
        text = ("dfa 1\nalphabet a\nstates 1\ninitial 0\naccepting 3\n"
                "trans 0 a 0\n")
        with pytest.raises(InputError, match="^line 1: accepting state 3 "
                           "out of range$"):
            parse_dfa_doc(text)

    def test_rejects_family_header(self):
        with pytest.raises(InputError, match="dfa"):
            parse_dfa_doc(serialize_faf(ba_star_fdfa()))

    def test_nba_document_lists_all_initials(self):
        text = serialize_nba(fdwa_to_nba(some_a_fdwa()))
        assert text.startswith("nba 1\n")
        assert any(line.startswith("  initials") for line in
                   text.splitlines())

    def test_transitions_are_written_one_line_each_in_order(self):
        # The writer joins the lines of each state into one block: the text
        # still holds one line per transition, by state, symbol and
        # target, no blank line, and none for a state without transitions.
        def by_line(machine, nondet):
            for s in range(machine.n):
                for i, sym in enumerate(machine.alphabet):
                    cell = machine.delta[s][i]
                    for t in (sorted(cell) if nondet else (cell,)):
                        yield "  trans %d %s %d" % (s, sym, t)

        bare = Nba("ab", 3, {(0, "a"): [2, 1], (2, "b"): [0]}, [0], [2])
        nba = fdwa_to_nba(gen_family("subset-occurrence", 2))
        dfa = odd_a_fdfa().progress[0]
        empty = Dfa.build((), 0, lambda s, a: 0)
        for text, machine, nondet in (
                (serialize_nba(bare), bare, True),
                (serialize_nba(nba), nba, True),
                (serialize_dfa_doc(dfa), dfa, False),
                (serialize_dfa_doc(empty), empty, False)):
            assert "\n\n" not in text
            assert [line for line in text.splitlines()
                    if line.startswith("  trans")] == list(
                        by_line(machine, nondet))
        assert serialize_nba(bare).endswith(
            "  trans 0 a 1\n  trans 0 a 2\n  trans 2 b 0\n")


class TestSampleFormat:
    def test_round_trip(self):
        s = Sample([Representation("", "a"), Representation("b", "ab")],
                   [Representation("", "b"), Representation("aa", "b")])
        t = serialize_sample(s)
        back = parse_sample(t)
        assert back.positive == s.positive
        assert back.negative == s.negative

    def test_empty_spoke_spelled_with_underscore(self):
        assert "+\t_\ta" in serialize_sample(
            Sample([Representation("", "a")], []))
        s = parse_sample("+\t_\tab\n-\tb\ta\n")
        assert s.positive == (Representation("", "ab"),)
        assert s.negative == (Representation("b", "a"),)

    def test_blank_lines_and_comments_skipped(self):
        s = parse_sample("# header\n\n+\ta\ta\n")
        assert len(s) == 1

    def test_bad_lines(self):
        with pytest.raises(InputError, match="line 1"):
            parse_sample("+\ta\n")
        with pytest.raises(InputError, match="label"):
            parse_sample("?\ta\ta\n")
        with pytest.raises(InputError, match="nonempty"):
            parse_sample("+\ta\t_\n")

    def test_one_character_symbols_are_written_run_together(self):
        s = Sample([Representation("ab", "b")], [Representation("", "ba")])
        assert serialize_sample(s) == "+\tab\tb\n-\t_\tba\n"

    def test_multi_character_symbols_round_trip(self):
        # over 1 2 12 these two words differ; written without the
        # alphabet both read as 12<TAB>12
        s = Sample([Representation(("1", "2"), ("12",))],
                   [Representation(("12",), ("1", "2"))])
        text = serialize_sample(s)
        assert text == "alphabet 1 12 2\n+\t1 2\t12\n-\t12\t1 2\n"
        back = parse_sample(text)
        assert (back.positive, back.negative) == (s.positive, s.negative)

    def test_alphabet_line(self):
        s = parse_sample("# over ab and b\nalphabet ab b\n+\tab b\tab\n")
        assert s.positive == (Representation(("ab", "b"), ("ab",)),)
        assert parse_sample("alphabet a b\n-\tab\tb\n").negative == (
            Representation("ab", "b"),)
        for text, message in [
                ("alphabet\n", "line 1: alphabet must list"),
                ("alphabet a a\n", "line 1: duplicate symbol"),
                ("+\ta\ta\nalphabet a\n", "line 2: 'alphabet' must be"),
                ("alphabet a\nalphabet a\n", "line 2: 'alphabet' must be"),
                ("alphabet ab\n+\tab\tb\n", "line 2: unknown symbol 'b'")]:
            with pytest.raises(InputError, match=message):
                parse_sample(text)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_over_mixed_alphabets(self, data):
        """Symbols of one to three characters, some of them the
        concatenation of others, on words labelled by a random rule that
        depends only on the ultimately periodic word."""
        symbols = data.draw(st.lists(st.sampled_from(
            ("a", "b", "1", "2", "12", "21", "ab", "#", "abc", "$")),
            min_size=1, max_size=5, unique=True))
        words = st.lists(st.sampled_from(symbols), max_size=3).map(tuple)
        pairs = data.draw(st.lists(st.tuples(
            words, words.filter(bool)), max_size=8))
        seed = data.draw(st.integers(0, 1))
        pos, neg = [], []
        for u, x in pairs:
            cu, cx = canonical_pair(u, x)
            label = (seed + len(cu) + cx.count(symbols[0])) % 2
            (pos if label else neg).append(Representation(u, x))
        s = Sample(pos, neg)
        back = parse_sample(serialize_sample(s))
        assert (back.positive, back.negative) == (s.positive, s.negative)


# ----------------------------------------------------------------- fuzzing

FUZZ_TOKENS = ("-1", "x", "#", "99", "")


def _fuzz_families():
    return [read_file("ba_star.faf"), read_file("odd_a.faf")] + [
        serialize_faf(F) for _, F in sorted(canonical_families().items())]


def _fuzz_samples():
    """Consistent samples: x^omega is labelled by whether x has an a."""
    docs = []
    for alphabet, depth in (("ab", 2), ("abc", 1)):
        pos, neg = [], []
        for u in words_up_to(alphabet, depth):
            for x in words_up_to(alphabet, depth, min_len=1):
                (pos if "a" in x else neg).append(Representation(u, x))
        docs.append(serialize_sample(Sample(pos, neg)))
    return docs


FUZZ_FAMILIES = _fuzz_families()
FUZZ_SAMPLES = _fuzz_samples()


@st.composite
def mutated(draw, docs, sep):
    """A document with one to four line edits: delete, duplicate or swap
    lines, or replace one `sep`-separated token of a line."""
    lines = draw(st.sampled_from(docs)).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "token")))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split(sep)
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = sep.join(tokens)
    return "\n".join(lines)


class TestParserFuzz:
    """A mutated document either loads to something that round-trips or
    is refused with an InputError; no other exception escapes."""

    @settings(max_examples=400, deadline=None)
    @given(mutated(FUZZ_FAMILIES, " "))
    def test_family_documents(self, text):
        try:
            G = parse_faf(text)
        except InputError:
            return
        assert parse_faf(serialize_faf(G)) == G

    @settings(max_examples=300, deadline=None)
    @given(mutated(FUZZ_SAMPLES, "\t"))
    def test_sample_documents(self, text):
        try:
            S = parse_sample(text)
        except InputError:
            return
        back = parse_sample(serialize_sample(S))
        assert (back.positive, back.negative) == (S.positive, S.negative)


class TestDotExport:
    def test_shapes(self):
        dot = family_to_dot(ba_star_fdfa())
        assert dot.startswith("digraph") and "doublecircle" in dot
        assert "cluster_L" in dot and "cluster_P0_" in dot
        assert dfa_to_dot(fdfa_to_dollar_dfa(odd_a_fdfa())).count(
            "subgraph") == 1
        assert "a,b" in nba_to_dot(fdwa_to_nba(some_a_fdwa())) or \
            "a" in nba_to_dot(fdwa_to_nba(some_a_fdwa()))
