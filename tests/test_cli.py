"""Driving everything through run_subcommand, the way scripts do.

Exit codes are the contract: 0 holds/success, 1 refuted with a printed
witness, 2 usage or parse error, 3 cap exceeded.
"""

import io
import json
import os
import sys

import pytest

from upfam.cli import run_subcommand
from upfam.faf import parse_faf, serialize_faf, serialize_sample
from upfam.family import FDFA, family_accepts
from upfam.fixtures import (ba_star_fdfa, eventually_ab_fdfa, first_a_fdwa,
                            odd_a_fdfa, some_a_fdwa, universal_fdfa)
from upfam.learning import gen_char_sample
from upfam.words import Representation

FILES = os.path.join(os.path.dirname(__file__), "files")
BA_STAR = os.path.join(FILES, "ba_star.faf")
ODD = os.path.join(FILES, "odd_a.faf")


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
