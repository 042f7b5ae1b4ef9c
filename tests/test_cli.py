"""Driving everything through run_subcommand, the way scripts do.

Exit codes are the contract: 0 holds/success, 1 refuted with a printed
witness, 2 usage or parse error, 3 cap exceeded.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from upfam import cli
from upfam.automata import Dfa, TransitionSystem
from upfam.cli import main, run_subcommand
from upfam.errors import InputError
from upfam.faf import parse_dfa_doc, parse_faf, serialize_faf, serialize_sample
from upfam.family import FDFA, FDWA, FNFA, Family, family_accepts
from upfam.learning import gen_char_sample, learn_passive
from upfam.translate import GEN_FAMILY_NAMES, gen_family
from upfam.words import Representation

from fixtures import (ba_star_fdfa, eventually_ab_fdfa, first_a_fdwa,
                      mod2_leading, odd_a_fdfa, some_a_fdwa, universal_fdfa)
from helpers import random_family
from test_faf import FUZZ_FAMILIES, mutated

FILES = os.path.join(os.path.dirname(__file__), "files")
BA_STAR = os.path.join(FILES, "ba_star.faf")
ODD = os.path.join(FILES, "odd_a.faf")
CAPPED_284 = os.path.join(FILES, "capped_3x7_284.faf")
RAND_755 = os.path.join(FILES, "rand_2x5_0755.faf")
RAND_686 = os.path.join(FILES, "rand_2x5_0686.faf")
MULTI_12 = os.path.join(FILES, "multi_char_12.faf")


def run(argv, stdin_text=None, capsys=None):
    """Exit code and captured stdout of one invocation."""
    out = io.StringIO()
    old_stdout, old_stdin = sys.stdout, sys.stdin
    sys.stdout = out
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = run_subcommand(argv)
    finally:
        sys.stdout, sys.stdin = old_stdout, old_stdin
    return code, out.getvalue()


def write_family(tmp_path, F, name="f.faf"):
    path = tmp_path / name
    path.write_text(serialize_faf(F))
    return str(path)


class TestCheck:
    def test_saturation_refuted_with_witness(self):
        code, out = run(["check", "saturation", BA_STAR])
        assert code == 1
        assert out.splitlines()[0] == "NOT-SATURATED"
        assert "(ε,ba)/(b,ab)" in out

    def test_regularity_of_the_odd_loop_family(self):
        code, out = run(["check", "regularity", ODD])
        assert code == 0
        assert out.splitlines()[0] == "REGULAR"

    def test_regularity_refuted(self):
        code, out = run(["check", "regularity", BA_STAR])
        assert code == 1 and out.startswith("NOT-REGULAR")

    def test_almost_saturation(self):
        code, out = run(["check", "almost-saturation", BA_STAR])
        assert code == 1 and out.startswith("NOT-ALMOST-SATURATED")
        assert "power" in out

    def test_full_saturation_holds(self, tmp_path):
        path = write_family(tmp_path, universal_fdfa())
        code, out = run(["check", "full-saturation", path])
        assert (code, out.splitlines()[0]) == (0, "SATURATED")

    def test_saturation_on_fdwa_file_uses_the_weak_checker(self, tmp_path):
        path = write_family(tmp_path, first_a_fdwa())
        code, out = run(["check", "saturation", path])
        assert code == 1 and "(ε,ab)/(a,ba)" in out
        path = write_family(tmp_path, some_a_fdwa())
        assert run(["check", "saturation", path])[0] == 0

    def test_stdin_dash(self):
        code, out = run(["check", "saturation", "-"],
                        stdin_text=serialize_faf(odd_a_fdfa()))
        assert code == 1  # unary odd-a family is not saturated

    def test_cap_exhaustion_is_exit_3(self):
        code, out = run(["check", "almost-saturation", BA_STAR,
                         "--cap", "1"])
        assert code == 3 and out.startswith("CAP-EXCEEDED")
        assert run(["check", "regularity", BA_STAR, "--cap", "1"])[0] == 3

    def test_capped_3x7_member_exceeds_the_bench_cap(self):
        # bench.corpus.pool_member of the regularity/capped-3x7 group, #284,
        # at that workload's cap.  Its profile graph exceeds 8,000 profiles.
        # The short-loop NotRegular search planned in ROADMAP.md (item 11)
        # decides this family NotRegular and will flip this pin.
        code, out = run(["check", "regularity", CAPPED_284, "--cap", "8000",
                         "--json"])
        assert code == 3
        assert json.loads(out) == {"check": "regularity",
                                   "status": "CapExceeded"}

    @pytest.mark.parametrize("path, line", [
        (RAND_755, '{"check": "regularity", "status": "NotRegular", '
         '"witness": {"case": "DistinctRoots", '
         '"words": ["0:a 0:a 0:b 0:b", "0:b"]}}'),
        (RAND_686, '{"check": "regularity", "status": "NotRegular", '
         '"witness": {"case": "InfinitelyManyFirstVisitors", '
         '"words": ["0:a 0:a 0:a", "0:a", "0:b"]}}'),
    ])
    def test_rand_2x5_regularity_witnesses_are_pinned(self, path, line):
        # bench.corpus.pool_member of the regularity/rand-2x5 group, #755
        # and #686.  Their witnesses come from the 7th of 248 and the 10th
        # of 41 terminal profiles, so the search stops well before the
        # last profile.  Regularity witnesses do not replay, so the bytes
        # are pinned.
        code, out = run(["check", "regularity", path, "--cap", "8000",
                         "--json"])
        assert (code, out) == (1, line + "\n")

    def test_fdwa_saturation_honours_cap(self):
        text = serialize_faf(first_a_fdwa())
        argv = ["check", "fdwa-saturation", "-", "--json", "--cap"]
        code, out = run(argv + ["1"], stdin_text=text)
        assert code == 3
        assert json.loads(out) == {"check": "fdwa-saturation",
                                   "status": "CapExceeded"}
        assert run(argv + ["0"], stdin_text=text)[0] == 2
        assert (run(argv + ["100000"], stdin_text=text)
                == run(argv[:-1], stdin_text=text))

    @pytest.mark.parametrize("name, check", [
        ("check_almost_saturated", "almost-saturation"),
        ("check_fdwa_saturated", "fdwa-saturation"),
        ("check_regular", "regularity"),
    ])
    def test_checker_is_looked_up_at_call_time(self, tmp_path, monkeypatch,
                                                capsys, name, check):
        """A function bound to the checker's name on upfam.cli after import,
        as a tracer binds its wrappers, is the one `check` calls."""
        real = getattr(cli, name)
        calls = []

        def spy(F, **cap):
            calls.append(cap)
            return real(F, **cap)

        monkeypatch.setattr(cli, name, spy)
        path = (write_family(tmp_path, first_a_fdwa())
                if check == "fdwa-saturation" else BA_STAR)
        assert main(["check", check, path, "--cap", "500"]) == 1
        assert calls == [{"cap": 500}]
        assert capsys.readouterr().out.startswith("NOT-")

    def test_parser_is_built_once(self, monkeypatch, capsys):
        main(["check", "saturation", BA_STAR])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["check", "saturation", BA_STAR]) == 1
        assert main(["check", "regularity", BA_STAR, "--json"]) == 1
        assert built == []


# The saturation witness of ba_star.faf, without its acceptance bits.
BA_STAR_LOOPSHIFT = {"variant": "loopshift", "left": {"u": "", "x": "ba"},
                     "right": {"u": "b", "x": "ab"}}

# (mod2, witness, exit code, reason) for each way a replay can reject its
# input.  mod2 replays against a family accepting every loop under a
# leading system that counts length mod 2, so an odd loop is not
# normalized; the others replay against ba_star.faf.
BROKEN_WITNESSES = [
    (False, dict(BA_STAR_LOOPSHIFT, left_accepted=False,
                 right_accepted=True),
     1, "left acceptance does not match the family"),
    (False, dict(BA_STAR_LOOPSHIFT, left_accepted=True,
                 right_accepted=True),
     1, "recorded acceptance bits do not disagree"),
    (False, dict(BA_STAR_LOOPSHIFT, variant="power", left_accepted=True,
                 right_accepted=False),
     1, "right side is not a loop power of the left"),
    (False, {"u": "", "x": "b", "power": 1},
     1, "power witness needs a nonempty loop and power >= 2"),
    (False, {"u": "", "x": "a", "power": 2}, 1, "loop is not accepted"),
    (False, {"check": "regularity", "status": "NotRegular",
             "witness": {"case": "DistinctRoots",
                         "words": ["0:a 0:b", "0:a"]}},
     2, "unrecognized witness schema in replay input"),
    (False, [BA_STAR_LOOPSHIFT],
     2, "replay input is not a witness object"),
    (True, {"u": "", "x": "a", "power": 2},
     1, "witness pair is not normalized"),
    (True, {"u": "", "x": "aa", "power": 2},
     1, "loop power is not rejected"),
]


class TestJsonAndReplay:
    def test_counterexample_schema(self):
        code, out = run(["check", "saturation", BA_STAR, "--json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "NotSaturated"
        assert doc["witness"] == {
            "variant": "loopshift",
            "left": {"u": "", "x": "ba"},
            "right": {"u": "b", "x": "ab"},
            "left_accepted": True,
            "right_accepted": False,
        }

    def test_verdict_without_witness(self, tmp_path):
        path = write_family(tmp_path, universal_fdfa())
        code, out = run(["check", "saturation", path, "--json"])
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "Saturated"
        assert "witness" not in doc

    @pytest.mark.parametrize("check", ["saturation", "full-saturation",
                                       "almost-saturation"])
    def test_json_round_trips_through_replay(self, check):
        code, out = run(["check", check, BA_STAR, "--json"])
        assert code == 1
        code, out = run(["oracle", "replay", BA_STAR], stdin_text=out)
        assert code == 0 and out.startswith("WITNESS-REPLAYS")

    def test_bare_witness_object_also_replays(self):
        _, out = run(["check", "saturation", BA_STAR, "--json"])
        witness = json.dumps(json.loads(out)["witness"])
        code, out = run(["oracle", "replay", BA_STAR], stdin_text=witness)
        assert code == 0

    def test_tampered_witness_fails_replay(self):
        _, out = run(["check", "saturation", BA_STAR, "--json"])
        doc = json.loads(out)
        doc["witness"]["right"]["u"] = "bb"
        code, out = run(["oracle", "replay", BA_STAR],
                        stdin_text=json.dumps(doc))
        assert code == 1 and out.startswith("WITNESS-FAILED")
        code, _ = run(["oracle", "replay", BA_STAR], stdin_text="not json")
        assert code == 2

    def test_replay_against_wrong_family(self, tmp_path):
        _, out = run(["check", "saturation", BA_STAR, "--json"])
        path = write_family(tmp_path, universal_fdfa())
        code, _ = run(["oracle", "replay", path], stdin_text=out)
        assert code == 1

    @pytest.mark.parametrize("check", ["saturation", "full-saturation"])
    def test_multi_character_alphabet_witness_replays(self, check):
        """multi_char_12.faf is over the alphabet 1 2 12.  Its loopshift
        witness has the loop 1*2, whose two symbols are one character
        each; written without a space it would read as the one symbol
        12."""
        code, out = run(["check", check, MULTI_12, "--json"])
        assert code == 1
        assert json.loads(out)["witness"] == {
            "variant": "loopshift",
            "left": {"u": "", "x": "2 1"},
            "right": {"u": "2", "x": "1 2"},
            "left_accepted": True,
            "right_accepted": False,
        }
        code, out = run(["oracle", "replay", MULTI_12], stdin_text=out)
        assert (code, out) == (0, "WITNESS-REPLAYS: counterexample replays\n")
        code, out = run(["check", check, MULTI_12])
        assert out.splitlines()[1] == "witness (ε,2 1)/(2,1 2)"

    def test_witnesses_over_multi_character_symbols_replay(self, tmp_path):
        """Every refutation that the checkers and the bounded oracles
        print for 100 seeded families over the alphabet 1 2 12 replays:
        the words keep their spaces wherever the alphabet needs them."""
        path = tmp_path / "f.faf"
        refuted = 0
        for seed in range(100):
            F = random_family(random.Random(seed), alphabet=("1", "2", "12"))
            path.write_text(serialize_faf(F))
            for argv in (["check", "saturation"],
                         ["check", "full-saturation"],
                         ["check", "almost-saturation"],
                         ["oracle", "saturation"],
                         ["oracle", "almost-saturation"]):
                code, out = run(argv + [str(path), "--json"])
                if code != 1:
                    continue
                refuted += 1
                code, replay = run(["oracle", "replay", str(path)],
                                   stdin_text=out)
                assert code == 0, (seed, argv, out, replay)
        assert refuted > 200

    @pytest.mark.parametrize("mod2,witness,code,reason", BROKEN_WITNESSES,
                             ids=[case[-1] for case in BROKEN_WITNESSES])
    def test_replay_rejects_each_broken_witness(self, tmp_path, capsys, mod2,
                                                witness, code, reason):
        path = BA_STAR
        if mod2:
            universal = universal_fdfa("a").progress[0]
            path = write_family(tmp_path, Family(
                FDFA, mod2_leading("a"), [universal, universal]))
        got, out = run(["oracle", "replay", path],
                       stdin_text=json.dumps(witness))
        assert got == code
        if code == 1:
            assert out == "WITNESS-FAILED: %s\n" % reason
        else:
            assert capsys.readouterr().err == "error: %s\n" % reason


class TestOracle:
    def test_bounded_saturation_witness_replays(self):
        code, out = run(["oracle", "saturation", BA_STAR, "--max-u", "2",
                         "--max-x", "3", "--json"])
        assert code == 1
        assert json.loads(out)["witness"]["variant"] == "pair"
        code, _ = run(["oracle", "replay", BA_STAR], stdin_text=out)
        assert code == 0

    def test_no_counterexample_within_bounds(self, tmp_path):
        path = write_family(tmp_path, universal_fdfa())
        code, out = run(["oracle", "full-saturation", path])
        assert code == 0 and "bounds" in out

    def test_bounded_almost_saturation(self, tmp_path):
        code, out = run(["oracle", "almost-saturation", BA_STAR, "--json"])
        assert code == 1
        assert json.loads(out)["witness"]["power"] >= 2
        path = write_family(tmp_path, universal_fdfa())
        assert run(["oracle", "almost-saturation", path])[0] == 0


class TestTranslate:
    def test_dollar_round_trip_keeps_language(self):
        code, dollar = run(["translate", "to-dollar", BA_STAR])
        assert code == 0 and dollar.startswith("dfa 1")
        code, back = run(["translate", "from-dollar", "-"],
                         stdin_text=dollar)
        assert code == 0
        F, G = ba_star_fdfa(), parse_faf(back)
        for u in ("", "a", "b", "ab"):
            for x in ("a", "b", "ba", "ab"):
                r = Representation(u, x)
                assert family_accepts(F, r) == family_accepts(G, r)

    def test_fdwa_to_nba(self, tmp_path):
        path = write_family(tmp_path, some_a_fdwa())
        code, out = run(["translate", "fdwa-to-nba", path])
        assert code == 0 and out.startswith("nba 1")

    def test_complement_and_duo(self, tmp_path):
        path = write_family(tmp_path, some_a_fdwa())
        code, comp = run(["translate", "complement", path])
        assert code == 0
        code, duo = run(["translate", "fdwa-to-duo", path])
        assert code == 0
        code, back = run(["translate", "duo-to-fdwa", "-"], stdin_text=duo)
        assert code == 0 and parse_faf(back).kind == "fdwa"

    @pytest.mark.parametrize("name", ["fixpoint-alsat", "syntactic-gap"])
    def test_dollar_pipe_over_an_alphabet_ending_in_hash(self, name):
        """gen | translate to-dollar | translate from-dollar gives the
        family back.  The alphabet ends in '#', so '$' goes before it: an
        alphabet line reads a '#' with more tokens after it as the start
        of a comment."""
        code, text = run(["gen", name, "--n", "2"])
        code, dollar = run(["translate", "to-dollar", "-"], stdin_text=text)
        assert code == 0 and dollar.splitlines()[1] == "alphabet s t g $ #"
        assert run(["translate", "from-dollar", "-"],
                   stdin_text=dollar) == (0, text)

    def test_output_file_and_dot(self, tmp_path):
        dest = tmp_path / "out.dot"
        code, out = run(["translate", "to-dollar", BA_STAR, "--dot",
                         "-o", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text().startswith("digraph")


class TestGen:
    def test_pipes_into_check(self):
        code, text = run(["gen", "subset-occurrence", "--n", "2"])
        assert code == 0 and text.startswith("faf 1")
        code, out = run(["check", "fdwa-saturation", "-"], stdin_text=text)
        assert code == 0 and out.splitlines()[0] == "SATURATED"

    def test_output_file(self, tmp_path):
        dest = tmp_path / "fam.faf"
        assert run(["gen", "fixpoint-alsat", "--n", "1",
                    "-o", str(dest)])[0] == 0
        F = parse_faf(dest.read_text())
        assert F.kind == FDFA

    def test_dot(self):
        code, out = run(["gen", "fixpoint-fdwa", "--n", "1", "--dot"])
        assert code == 0 and out.startswith("digraph")


class TestLearn:
    def test_active_emits_an_equivalent_family(self, tmp_path):
        target = some_a_fdwa(FDFA)
        path = write_family(tmp_path, target)
        code, out = run(["learn", "active", "--target", path])
        assert code == 0
        learned = parse_faf(out)
        for u in ("", "a", "bb"):
            for x in ("a", "b", "ab", "ba"):
                r = Representation(u, x)
                assert family_accepts(learned, r) == ("a" in x)

    def test_active_log_goes_to_stderr(self, tmp_path, capsys):
        path = write_family(tmp_path, universal_fdfa())
        code, _ = run(["learn", "active", "--target", path, "--log"])
        assert code == 0
        assert "equivalence queries" in capsys.readouterr().err

    def test_active_needs_a_saturated_target(self):
        assert run(["learn", "active", "--target", BA_STAR])[0] == 2

    def test_passive_round_trips_a_characteristic_sample(self, tmp_path):
        target = eventually_ab_fdfa()
        sample = tmp_path / "sample.txt"
        sample.write_text(serialize_sample(gen_char_sample(target)))
        code, out = run(["learn", "passive", "--sample", str(sample)])
        assert code == 0
        learned = parse_faf(out)
        for u in ("", "a", "ab"):
            for x in ("ab", "ba", "a", "abb"):
                r = Representation(u, x)
                assert family_accepts(learned, r) == family_accepts(target, r)

    def test_passive_reads_a_sample_over_multi_character_symbols(
            self, tmp_path):
        """Over 1 2 12, a loop that holds the symbol 12 is accepted.  The
        sample's alphabet line keeps the words 1 2 and 12 apart."""
        alphabet = ("1", "2", "12")
        target = Family(FDFA, TransitionSystem.build(
            alphabet, 0, lambda s, a: 0), [Dfa.build(
                alphabet, False, lambda s, a: s or a == "12",
                accepting=bool)])
        sample = gen_char_sample(target)
        text = serialize_sample(sample)
        assert text.startswith("alphabet 1 12 2\n") and "\t12 1\n" in text
        path = tmp_path / "sample.txt"
        path.write_text(text)
        code, out = run(["learn", "passive", "--sample", str(path)])
        assert code == 0
        assert parse_faf(out) == learn_passive(sample)


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["check"],
        ["check", "nonsense", BA_STAR],
        ["check", "saturation", "/no/such/file.faf"],
        ["translate", "to-nowhere", BA_STAR],
        ["gen", "no-such-family", "--n", "1"],
        ["learn", "active"],
        ["learn", "passive"],
        ["oracle", "saturation"],
        ["check", "regularity", BA_STAR, "--cap", "0"],
        ["check", "regularity", BA_STAR, "--cap", "-3"],
        ["check", "almost-saturation", BA_STAR, "--cap", "0"],
        ["check", "saturation", BA_STAR, "--cap", "0"],
        ["check", "saturation", BA_STAR, "--cap", "-1"],
        ["check", "full-saturation", BA_STAR, "--cap", "0"],
        ["check", "full-saturation", BA_STAR, "--cap", "-1"],
        ["check", "saturation", BA_STAR, "--bogus"],
        ["check", "--bogus", "saturation", BA_STAR],
        ["chec", "saturation", BA_STAR],
    ], ids=lambda v: " ".join(v) or "(empty)")
    def test_exit_2(self, argv, capsys):
        assert run(argv)[0] == 2

    @pytest.mark.parametrize("witness", [
        '{"variant": "power"}',
        '{"u": "b", "x": "a", "power": "x"}',
        '{"u": "b", "x": 5, "power": 2}',
    ])
    def test_malformed_witness_is_exit_2(self, witness, capsys):
        code, _ = run(["oracle", "replay", BA_STAR], stdin_text=witness)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_is_exit_2(self):
        code, _ = run(["check", "saturation", "-"],
                      stdin_text="faf 1\nkind blended\n")
        assert code == 2

    def test_help_is_exit_0(self, capsys):
        assert run(["--help"])[0] == 0

    @pytest.mark.parametrize("argv", [
        ["-h"], ["check", "--help"], ["translate", "-h"],
        ["gen", "syntactic-gap", "--n", "2", "--help"],
    ], ids=" ".join)
    def test_subcommand_help_is_exit_0(self, argv):
        code, out = run(argv)
        assert code == 0 and out.startswith("usage: upfam")

    def test_errors_name_the_parser_that_reports_them(self, capsys):
        """A subcommand's own parser reads its arguments, and its errors
        name it; arguments left over are reported by the top-level
        parser, as one parse of the whole command line reports them."""
        assert run(["check", "nonsense", BA_STAR])[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: upfam check ")
        assert "upfam check: error: argument property: invalid choice" in err
        assert run(["check", "saturation", BA_STAR, "--bogus", "x"])[0] == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: upfam [-h] {check,")
        assert err.endswith(
            "upfam: error: unrecognized arguments: --bogus x\n")


# ------------------------------------------------------------------ fuzzing

# Every command that reads a family document: each `check` property, the
# five family translations and the two bounded oracles, with small bounds.
FUZZ_COMMANDS = (
    [["check", which, "-", "--cap", "300", "--json"] for which in cli._CHECKS]
    + [["translate", which, "-"] for which in (
        "fdwa-to-nba", "complement", "duo-to-fdwa", "fdwa-to-duo",
        "to-dollar")]
    + [["oracle", which, "-", "--max-u", "1", "--max-x", "2",
        "--max-power", "3"] for which in ("saturation", "almost-saturation")])
FUZZ_TOKENS = ("0", "1", "2", "3", "a", "b", "c", "-1", "99", "x", "#", "")
STRAY_LINES = ("states 2", "initial 0", "initials 0 1", "accepting 0",
               "trans 0 a 1", "trans 1 c 0", "leading", "progress 0",
               "progress 5", "kind fnfa", "kind fdwa", "alphabet a",
               "faf 1", "dfa 1", "bogus 3")


def fuzz_documents():
    """The two fixture files, the six ladders at n = 1 and 2, two rungs
    that exceed the cap of 300 unmutated, and seeded random families of
    each kind."""
    docs = [Path(path).read_text() for path in (BA_STAR, ODD)]
    rungs = [(name, n) for name in GEN_FAMILY_NAMES for n in (1, 2)]
    rungs += [("zero-u-zero-fdfa", 3), ("fixpoint-alsat", 4)]
    docs += [serialize_faf(gen_family(name, n)) for name, n in rungs]
    rng = random.Random("cli-fuzz-families")
    docs += [serialize_faf(random_family(rng, kind, max_progress=4))
             for kind in (FDFA, FDWA, FNFA) for _ in range(4)]
    return docs


def mutate(rng, text):
    """One to three edits: delete, duplicate or swap lines, replace one
    token of a line, or insert a stray directive.  Only token edits touch
    the three header lines, so most documents get past the header."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "duplicate", "swap", "token", "stray"))
        i = rng.randrange(0 if op == "token" else 3, len(lines))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(3, len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
        else:
            lines.insert(i, rng.choice(STRAY_LINES))
    return "\n".join(lines)


def test_mutated_documents_end_in_an_exit_code():
    """Through `main`, every mutated document ends in exit 0, 1, 2 or 3:
    a verdict, a usage or parse error, or a cap.  Nothing raises."""
    rng = random.Random("cli-fuzz")
    docs = fuzz_documents()
    codes = {}
    for _ in range(1000):
        text = mutate(rng, rng.choice(docs))
        for argv in FUZZ_COMMANDS:
            old_stdin = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
            finally:
                sys.stdin = old_stdin
            assert code in (0, 1, 2, 3), (argv, text)
            codes[code] = codes.get(code, 0) + 1
    assert codes.keys() == {0, 1, 2, 3}


# A family over 1 ... 12 whose saturation, full-saturation and
# almost-saturation witnesses hold the word 1 1 or 1 2, which reads back
# as the symbol 11 or 12 when written without spaces, and one over a b #,
# whose '#' must stay last on every alphabet line written.
CONTRACT_SEEDS = [serialize_faf(random_family(random.Random(seed), alphabet=a))
                  for seed, a in ((20, tuple(str(i) for i in range(1, 13))),
                                  (2, ("a", "b", "#")))]
# Regularity evidence does not replay yet, so only these checks' do.
REPLAYED = {"saturation", "full-saturation", "almost-saturation",
            "fdwa-saturation"}
# Each translation of a family document, and the reader of its output;
# an NBA document has no reader.
TRANSLATED = {"to-dollar": parse_dfa_doc, "fdwa-to-nba": None,
              "complement": parse_faf, "fdwa-to-duo": parse_faf,
              "duo-to-fdwa": parse_faf}


class TestContractFuzz:
    """The exit-code contract through the command line: on every mutated
    family document that loads, every `check`, every translation and
    `learn active` end in exit 0-3; every refutation of a saturation
    property replays, and every document a translation writes loads
    back."""

    @settings(max_examples=1000, deadline=None)
    @given(mutated(FUZZ_FAMILIES + CONTRACT_SEEDS, " "))
    @example(CONTRACT_SEEDS[0])
    @example(CONTRACT_SEEDS[1])
    def test_loaded_documents_keep_the_contract(self, tmp_path_factory,
                                                text):
        try:
            parse_faf(text)
        except InputError:
            return
        path = str(tmp_path_factory.getbasetemp() / "contract.faf")
        Path(path).write_text(text)
        for which in cli._CHECKS:
            code, out = run(["check", which, path, "--cap", "3000", "--json"])
            assert code in (0, 1, 2, 3), (which, text)
            if code == 1 and which in REPLAYED:
                code, replay = run(["oracle", "replay", path], stdin_text=out)
                assert (code, replay[:16]) == (0, "WITNESS-REPLAYS:"), \
                    (which, out, replay, text)
        for which, load in TRANSLATED.items():
            code, out = run(["translate", which, path])
            assert code in (0, 1, 2, 3), (which, text)
            if code == 0 and load is not None:
                load(out)
            if code == 0 and which == "to-dollar":
                code, back = run(["translate", "from-dollar", "-"],
                                 stdin_text=out)
                assert code == 0, (out, text)
                parse_faf(back)
        code, out = run(["learn", "active", "--target", path])
        assert code in (0, 1, 2, 3), text
        if code == 0:
            parse_faf(out)
