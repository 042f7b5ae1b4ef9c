"""Command line front end.

Subcommands expose the checkers (`check`), the automaton translations
(`translate`), both learners (`learn`), the benchmark family generators
(`gen`), and the bounded brute-force oracles plus the witness replayer
(`oracle`).  Exit codes are the API: 0 means the property holds or the
operation succeeded, 1 means refuted (a witness is printed, and as JSON
under --json), 2 is a usage or parse error, and 3 means a cap was
exceeded.  `-` stands for stdin/stdout so commands compose in pipes.

The parsers are built once per process, and each call makes one argparse
pass: a command line that starts with a subcommand's name is parsed by
that subcommand's parser alone, and anything else (no arguments, --help,
an unknown name) by the top-level parser.  Arguments the subcommand's
parser leaves over are reported by the top-level parser, in the words a
single parse of the whole line would use.
"""

import argparse
import functools
import json
import re
import sys

from .almost import check_almost_saturated
from .errors import (CAP_EXCEEDED, CapExceededError, InputError, UpfamError,
                     Verdict)
from .faf import (dfa_to_dot, family_to_dot, nba_to_dot, parse_dfa_doc,
                  parse_faf, parse_sample, serialize_dfa_doc, serialize_faf,
                  serialize_nba)
from .family import (FDWA, Counterexample, ReferenceSet, family_accepts,
                     is_normalized)
from .learning import (dollar_dfa_to_fdfa, fdfa_to_dollar_dfa, learn_active,
                       learn_passive, make_teacher)
from .oracle import brute_almost_saturation, brute_saturation
from .regularity import GoodWitness, check_regular
from .saturation import check_fdwa_saturated, check_saturated
from .translate import (GEN_FAMILY_NAMES, complement_saturated_fdwa,
                        duo_to_fdwa, fdwa_to_duo, fdwa_to_nba, gen_family)
from .words import Representation, format_word, parse_word, root, up_equal

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _status_word(status: str) -> str:
    """CamelCase verdict status as an UPPER-KEBAB report word."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", status).upper()


def _witness(w, alphabet):
    """(JSON object, report lines) of a verdict's witness: a saturation
    Counterexample, a regularity GoodWitness, or the almost-saturation
    (u, x, i).  Words over the family's alphabet are written as
    `format_word` writes them for that alphabet, so a word of one-character
    symbols over an alphabet with a longer symbol keeps its spaces and
    `parse_word` reads it back.  The words of a GoodWitness are over the
    labelled alphabet of the regularity check, whose symbols are all
    longer than one character, and are written with spaces."""
    if isinstance(w, GoodWitness):
        words = [" ".join(x) for x in w.words]
        return ({"case": w.case, "words": words}, ["evidence %s: %s" % (
            w.case, " ".join(x or "ε" for x in words))])
    word = functools.partial(format_word, alphabet=alphabet)
    show = lambda x: word(x) or "ε"
    pair = lambda r: {"u": word(r.u), "x": word(r.x)}
    text = lambda r: "(%s,%s)" % (show(r.u), word(r.x))
    if isinstance(w, Counterexample):
        side = lambda f: "accepted" if f else "rejected"
        return ({"variant": w.variant,
                 "left": pair(w.left),
                 "right": pair(w.right),
                 "left_accepted": w.left_accepted,
                 "right_accepted": w.right_accepted},
                ["witness %s/%s" % (text(w.left), text(w.right)),
                 "%s: left %s, right %s" % (w.variant, side(w.left_accepted),
                                            side(w.right_accepted))])
    u, x, i = w
    return ({"u": word(u), "x": word(x), "power": i},
            ["witness (%s,%s) accepted, power %d rejected"
             % (show(u), word(x), i)])


def _emit(check: str, verdict: Verdict, alphabet, as_json: bool,
          lines=()) -> int:
    """Print a verdict, as JSON or as a status word plus report lines, and
    return its exit code.  A witness replaces `lines` with its own; its
    words are over `alphabet`, the family's."""
    doc = {"check": check, "status": verdict.status}
    if verdict.witness is not None:
        doc["witness"], lines = _witness(verdict.witness, alphabet)
    if as_json:
        print(json.dumps(doc))
    else:
        print(_status_word(verdict.status))
        for line in lines:
            print(line)
    if verdict.status == CAP_EXCEEDED:
        return EXIT_CAP
    return EXIT_OK if verdict.ok else EXIT_REFUTED


# Checker of each `check` property.  `check saturation` on an FDWA file
# runs the FDWA checker; the FDFA saturation pipelines take no cap.  Each
# entry looks its checker up when it runs, so a wrapper later bound to the
# module-level name (a tracer or a test double) is the one called.
_CHECKS = {
    "saturation": lambda F, **cap: (check_fdwa_saturated(F, **cap)
                                    if F.kind == FDWA else check_saturated(F)),
    "full-saturation": lambda F, **cap: check_saturated(F, ReferenceSet.ALL),
    "almost-saturation": lambda F, **cap: check_almost_saturated(F, **cap),
    "fdwa-saturation": lambda F, **cap: check_fdwa_saturated(F, **cap),
    "regularity": lambda F, **cap: check_regular(F, **cap),
}


def _cmd_check(args) -> int:
    if args.cap is not None and args.cap < 1:  # every check, capped or not
        raise InputError("cap must be positive")
    F = parse_faf(_read(args.file))
    cap_kw = {} if args.cap is None else {"cap": args.cap}
    return _emit(args.which, _CHECKS[args.which](F, **cap_kw), F.alphabet,
                 args.json)


def _cmd_translate(args) -> int:
    text = _read(args.file)
    which = args.which
    if which == "from-dollar":
        G = dollar_dfa_to_fdfa(parse_dfa_doc(text))
        payload = family_to_dot(G) if args.dot else serialize_faf(G)
    elif which == "to-dollar":
        A = fdfa_to_dollar_dfa(parse_faf(text))
        payload = dfa_to_dot(A) if args.dot else serialize_dfa_doc(A)
    elif which == "fdwa-to-nba":
        A = fdwa_to_nba(parse_faf(text))
        payload = nba_to_dot(A) if args.dot else serialize_nba(A)
    else:
        op = {"complement": complement_saturated_fdwa,
              "duo-to-fdwa": duo_to_fdwa,
              "fdwa-to-duo": fdwa_to_duo}[which]
        G = op(parse_faf(text))
        payload = family_to_dot(G) if args.dot else serialize_faf(G)
    _write(args.output, payload)
    return EXIT_OK


def _cmd_learn(args) -> int:
    if args.which == "active":
        if args.target is None:
            raise UpfamError("learn active requires --target")
        teacher = make_teacher(parse_faf(_read(args.target)))
        F, log = learn_active(teacher)
        if args.log:
            print("membership queries:  %d" % log.membership_queries,
                  file=sys.stderr)
            print("equivalence queries: %d" % log.equivalence_queries,
                  file=sys.stderr)
            print("saturation checks:   %d" % log.saturation_checks,
                  file=sys.stderr)
            print("rounds:              %d" % log.rounds, file=sys.stderr)
            print("longest cex:         %d" % log.max_counterexample,
                  file=sys.stderr)
    else:
        if args.sample is None:
            raise UpfamError("learn passive requires --sample")
        F = learn_passive(parse_sample(_read(args.sample)))
    sys.stdout.write(serialize_faf(F))
    return EXIT_OK


def _cmd_gen(args) -> int:
    F = gen_family(args.name, args.n)
    payload = family_to_dot(F) if args.dot else serialize_faf(F)
    _write(args.output, payload)
    return EXIT_OK


def _field(obj: dict, key: str, kind: type):
    """obj[key], which must be present and of the given JSON type."""
    value = obj.get(key)
    if not isinstance(value, kind):
        raise UpfamError("witness field %r: expected %s, got %r"
                         % (key, kind.__name__, value))
    return value


def _replay(F, doc):
    """(ok, reason) for a witness document against a family."""
    w = doc.get("witness", doc) if isinstance(doc, dict) else None
    if not isinstance(w, dict):
        raise UpfamError("replay input is not a witness object")
    alphabet = F.alphabet

    def word(obj, key):
        return parse_word(_field(obj, key, str), alphabet)

    if "variant" in w:
        left_doc, right_doc = _field(w, "left", dict), _field(w, "right", dict)
        left = Representation(word(left_doc, "u"), word(left_doc, "x"))
        right = Representation(word(right_doc, "u"), word(right_doc, "x"))
        la = _field(w, "left_accepted", bool)
        ra = _field(w, "right_accepted", bool)
        if la == ra:
            return False, "recorded acceptance bits do not disagree"
        if w["variant"] == "power":
            if left.u != right.u or root(right.x) != root(left.x):
                return False, "right side is not a loop power of the left"
        elif not up_equal(left, right):
            return False, "sides denote different ultimately periodic words"
        if family_accepts(F, left) != la:
            return False, "left acceptance does not match the family"
        if family_accepts(F, right) != ra:
            return False, "right acceptance does not match the family"
        return True, "counterexample replays"

    if "power" in w:
        u, x = word(w, "u"), word(w, "x")
        i = _field(w, "power", int)
        if i < 2 or not x:
            return False, "power witness needs a nonempty loop and power >= 2"
        pair = Representation(u, x)
        if not is_normalized(F, pair):
            return False, "witness pair is not normalized"
        if not family_accepts(F, pair):
            return False, "loop is not accepted"
        if family_accepts(F, Representation(u, x * i)):
            return False, "loop power is not rejected"
        return True, "witness replays"

    raise UpfamError("unrecognized witness schema in replay input")


def _cmd_oracle(args) -> int:
    if args.which == "replay":
        F = parse_faf(_read(args.file))
        try:
            doc = json.loads(_read(args.witness))
        except ValueError as e:
            raise UpfamError("replay input is not valid JSON: %s" % e)
        ok, reason = _replay(F, doc)
        print(("WITNESS-REPLAYS" if ok else "WITNESS-FAILED") + ": " + reason)
        return EXIT_OK if ok else EXIT_REFUTED

    F = parse_faf(_read(args.file))
    if args.which == "almost-saturation":
        found = brute_almost_saturation(F, args.max_x, args.max_power)
        refuted = "NotAlmostSaturated"
        bounds = "bounds: |x| <= %d, power <= %d" % (args.max_x,
                                                     args.max_power)
    else:
        ref = (ReferenceSet.NORMALIZED if args.which == "saturation"
               else ReferenceSet.ALL)
        found = brute_saturation(F, ref, args.max_u, args.max_x)
        refuted = "NotSaturated"
        bounds = "bounds: |u| <= %d, |x| <= %d" % (args.max_u, args.max_x)
    verdict = Verdict("NoCounterexample" if found is None else refuted, found)
    return _emit(args.which, verdict, F.alphabet, args.json, [bounds])


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """(the top-level parser, each subcommand's parser by name), built on
    the first call and reused: the handlers they bind look the checkers
    up when they run."""
    p = argparse.ArgumentParser(
        prog="upfam",
        description="Decision procedures, translations, and learners for "
                    "families of automata over ultimately periodic words.")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}

    c = commands["check"] = sub.add_parser(
        "check", help="run a decision procedure on a family")
    c.add_argument("which", metavar="property",
                   choices=tuple(_CHECKS))
    c.add_argument("file", help="family file, or - for stdin")
    c.add_argument("--cap", type=int, default=None,
                   help="search budget: almost-saturation counts monoid "
                        "nodes of the minimized progress automata, FDWA "
                        "saturation the witness-search nodes stored over "
                        "the whole check, regularity the profiles, the "
                        "one-letter ones always admitted (for an FDFA, it "
                        "bounds the almost-saturation monoid walk first "
                        "and then, separately, the profile graph); the "
                        "saturation and full-saturation checks of FDFAs "
                        "ignore it")
    c.add_argument("--json", action="store_true",
                   help="machine-readable verdict on stdout")
    c.set_defaults(handler=_cmd_check)

    t = commands["translate"] = sub.add_parser(
        "translate", help="convert between representations")
    t.add_argument("which", metavar="conversion",
                   choices=("fdwa-to-nba", "to-dollar", "from-dollar",
                            "complement", "duo-to-fdwa", "fdwa-to-duo"))
    t.add_argument("file", help="input document, or - for stdin")
    t.add_argument("-o", "--output", default="-",
                   help="output path, or - for stdout (default)")
    t.add_argument("--dot", action="store_true",
                   help="emit Graphviz instead of the text format")
    t.set_defaults(handler=_cmd_translate)

    l = commands["learn"] = sub.add_parser("learn", help="run a learner")
    l.add_argument("which", metavar="mode", choices=("active", "passive"))
    l.add_argument("--target", help="family file the teacher answers from")
    l.add_argument("--sample", help="labeled sample file")
    l.add_argument("--log", action="store_true",
                   help="query statistics on stderr (active mode)")
    l.set_defaults(handler=_cmd_learn)

    g = commands["gen"] = sub.add_parser(
        "gen", help="generate a benchmark family")
    g.add_argument("name", choices=GEN_FAMILY_NAMES)
    g.add_argument("--n", type=int, required=True, help="size parameter")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--dot", action="store_true",
                   help="emit Graphviz instead of the text format")
    g.set_defaults(handler=_cmd_gen)

    o = commands["oracle"] = sub.add_parser("oracle",
                       help="bounded brute-force checks and witness replay")
    o.add_argument("which", metavar="check",
                   choices=("saturation", "full-saturation",
                            "almost-saturation", "replay"))
    o.add_argument("file", help="family file, or - for stdin")
    o.add_argument("--max-u", type=int, default=4, dest="max_u",
                   help="spoke length bound (default 4)")
    o.add_argument("--max-x", type=int, default=4, dest="max_x",
                   help="loop length bound (default 4)")
    o.add_argument("--max-power", type=int, default=6, dest="max_power",
                   help="largest loop power tried (default 6)")
    o.add_argument("--witness", default="-",
                   help="witness JSON for replay, or - for stdin (default)")
    o.add_argument("--json", action="store_true",
                   help="machine-readable verdict on stdout")
    o.set_defaults(handler=_cmd_oracle)
    return p, commands


def run_subcommand(argv) -> int:
    """Parse argv, run the subcommand, and map outcomes to exit codes."""
    top, commands = _parser()
    sub = commands.get(argv[0]) if argv else None
    try:
        if sub is None:  # no subcommand: help, usage or an unknown name
            args = top.parse_args(argv)
        else:
            args, extra = sub.parse_known_args(argv[1:])
            if extra:  # reported by the top-level parser, as it would be
                top.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except CapExceededError as e:
        print("cap exceeded: %s" % e, file=sys.stderr)
        return EXIT_CAP
    except (UpfamError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    return run_subcommand(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
