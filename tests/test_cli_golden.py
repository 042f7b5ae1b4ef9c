"""Golden output of `upfam check` and `upfam oracle`.

Every check and every oracle runs on the two fixture files, on an FDWA
fixture and on the universal FDFA (where the oracles find no
counterexample), plus the `--cap 1` cases, in text mode and with --json.
The exact stdout and exit code are pinned: scripts parse both, so the
verdict type and the CLI code that prints it may change only in ways that
keep these bytes.
"""

import pytest

from test_cli import BA_STAR, ODD, run
from upfam.faf import serialize_faf

from fixtures import first_a_fdwa, universal_fdfa

SOURCES = {
    "ba_star": (BA_STAR, None),
    "odd_a": (ODD, None),
    "first_a": ("-", serialize_faf(first_a_fdwa())),
    "universal": ("-", serialize_faf(universal_fdfa())),
}

GOLDEN = {
    ("ba_star", "check saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ba)/(b,ab)\n"
        "loopshift: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "loopshift", "left": {"u": "", '
        '"x": "ba"}, "right": {"u": "b", "x": "ab"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("ba_star", "check full-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ba)/(b,ab)\n"
        "loopshift: left accepted, right rejected\n",
        '{"check": "full-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "loopshift", "left": {"u": "", '
        '"x": "ba"}, "right": {"u": "b", "x": "ab"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("ba_star", "check almost-saturation"): (
        1,
        "NOT-ALMOST-SATURATED\n"
        "witness (ε,b) accepted, power 2 rejected\n",
        '{"check": "almost-saturation", '
        '"status": "NotAlmostSaturated", "witness": {"u": "", '
        '"x": "b", "power": 2}}\n'),
    ("ba_star", "check fdwa-saturation"): (
        2,
        "",
        ""),
    ("ba_star", "check regularity"): (
        1,
        "NOT-REGULAR\n"
        "evidence DistinctRoots: 0:a 0:b 0:a\n",
        '{"check": "regularity", "status": "NotRegular", '
        '"witness": {"case": "DistinctRoots", '
        '"words": ["0:a 0:b", "0:a"]}}\n'),
    ("ba_star", "oracle saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,b)/(ε,bb)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "b"}, "right": {"u": "", "x": "bb"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("ba_star", "oracle full-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,b)/(ε,bb)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "full-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "b"}, "right": {"u": "", "x": "bb"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("ba_star", "oracle almost-saturation"): (
        1,
        "NOT-ALMOST-SATURATED\n"
        "witness (ε,b) accepted, power 2 rejected\n",
        '{"check": "almost-saturation", '
        '"status": "NotAlmostSaturated", "witness": {"u": "", '
        '"x": "b", "power": 2}}\n'),
    ("odd_a", "check saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,a)/(ε,aa)\n"
        "power: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "power", "left": {"u": "", '
        '"x": "a"}, "right": {"u": "", "x": "aa"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("odd_a", "check full-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,a)/(ε,aa)\n"
        "power: left accepted, right rejected\n",
        '{"check": "full-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "power", "left": {"u": "", '
        '"x": "a"}, "right": {"u": "", "x": "aa"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("odd_a", "check almost-saturation"): (
        1,
        "NOT-ALMOST-SATURATED\n"
        "witness (ε,a) accepted, power 2 rejected\n",
        '{"check": "almost-saturation", '
        '"status": "NotAlmostSaturated", "witness": {"u": "", '
        '"x": "a", "power": 2}}\n'),
    ("odd_a", "check fdwa-saturation"): (
        2,
        "",
        ""),
    ("odd_a", "check regularity"): (
        0,
        "REGULAR\n",
        '{"check": "regularity", "status": "Regular"}\n'),
    ("odd_a", "oracle saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,a)/(ε,aa)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "a"}, "right": {"u": "", "x": "aa"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("odd_a", "oracle full-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,a)/(ε,aa)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "full-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "a"}, "right": {"u": "", "x": "aa"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("odd_a", "oracle almost-saturation"): (
        1,
        "NOT-ALMOST-SATURATED\n"
        "witness (ε,a) accepted, power 2 rejected\n",
        '{"check": "almost-saturation", '
        '"status": "NotAlmostSaturated", "witness": {"u": "", '
        '"x": "a", "power": 2}}\n'),
    ("first_a", "check saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ab)/(a,ba)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "ab"}, "right": {"u": "a", "x": "ba"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("first_a", "check full-saturation"): (
        2,
        "",
        ""),
    ("first_a", "check almost-saturation"): (
        2,
        "",
        ""),
    ("first_a", "check fdwa-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ab)/(a,ba)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "fdwa-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "ab"}, "right": {"u": "a", "x": "ba"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("first_a", "check regularity"): (
        0,
        "REGULAR\n",
        '{"check": "regularity", "status": "Regular"}\n'),
    ("first_a", "oracle saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ab)/(a,ba)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "ab"}, "right": {"u": "a", "x": "ba"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("first_a", "oracle full-saturation"): (
        1,
        "NOT-SATURATED\n"
        "witness (ε,ab)/(a,ba)\n"
        "pair: left accepted, right rejected\n",
        '{"check": "full-saturation", "status": "NotSaturated", '
        '"witness": {"variant": "pair", "left": {"u": "", '
        '"x": "ab"}, "right": {"u": "a", "x": "ba"}, '
        '"left_accepted": true, "right_accepted": false}}\n'),
    ("first_a", "oracle almost-saturation"): (
        2,
        "",
        ""),
    ("universal", "check saturation"): (
        0,
        "SATURATED\n",
        '{"check": "saturation", "status": "Saturated"}\n'),
    ("universal", "check full-saturation"): (
        0,
        "SATURATED\n",
        '{"check": "full-saturation", "status": "Saturated"}\n'),
    ("universal", "check almost-saturation"): (
        0,
        "ALMOST-SATURATED\n",
        '{"check": "almost-saturation", '
        '"status": "AlmostSaturated"}\n'),
    ("universal", "check fdwa-saturation"): (
        2,
        "",
        ""),
    ("universal", "check regularity"): (
        0,
        "REGULAR\n",
        '{"check": "regularity", "status": "Regular"}\n'),
    ("universal", "oracle saturation"): (
        0,
        "NO-COUNTEREXAMPLE\n"
        "bounds: |u| <= 4, |x| <= 4\n",
        '{"check": "saturation", "status": "NoCounterexample"}\n'),
    ("universal", "oracle full-saturation"): (
        0,
        "NO-COUNTEREXAMPLE\n"
        "bounds: |u| <= 4, |x| <= 4\n",
        '{"check": "full-saturation", '
        '"status": "NoCounterexample"}\n'),
    ("universal", "oracle almost-saturation"): (
        0,
        "NO-COUNTEREXAMPLE\n"
        "bounds: |x| <= 4, power <= 6\n",
        '{"check": "almost-saturation", '
        '"status": "NoCounterexample"}\n'),
    ("ba_star", "check almost-saturation --cap 1"): (
        3,
        "CAP-EXCEEDED\n",
        '{"check": "almost-saturation", "status": "CapExceeded"}\n'),
    ("ba_star", "check regularity --cap 1"): (
        3,
        "CAP-EXCEEDED\n",
        '{"check": "regularity", "status": "CapExceeded"}\n'),
    ("first_a", "check fdwa-saturation --cap 1"): (
        3,
        "CAP-EXCEEDED\n",
        '{"check": "fdwa-saturation", "status": "CapExceeded"}\n'),
    ("first_a", "check saturation --cap 1"): (
        3,
        "CAP-EXCEEDED\n",
        '{"check": "saturation", "status": "CapExceeded"}\n'),
}


@pytest.mark.parametrize("source,command", sorted(GOLDEN),
                         ids=lambda v: v.replace(" ", "-"))
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_golden_output(source, command, as_json):
    path, stdin_text = SOURCES[source]
    subcommand, which, *options = command.split()
    argv = [subcommand, which, path, *options] + (["--json"] * as_json)
    code, text, json_text = GOLDEN[(source, command)]
    assert run(argv, stdin_text) == (code, json_text if as_json else text)
