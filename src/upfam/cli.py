"""Command line front end.

Subcommands expose the checkers (`check`), the automaton translations
(`translate`), both learners (`learn`), the benchmark family generators
(`gen`), and the bounded brute-force oracles plus the witness replayer
(`oracle`).  Exit codes are the API: 0 means the property holds or the
operation succeeded, 1 means refuted (a witness is printed, and as JSON
under --json), 2 is a usage or parse error, and 3 means a cap was
exceeded.  `-` stands for stdin/stdout so commands compose in pipes.
"""

import argparse
import json
import re
import sys

from .almost import check_almost_saturated
from .errors import CAP_EXCEEDED, CapExceededError, UpfamError
from .faf import (dfa_to_dot, family_to_dot, nba_to_dot, parse_dfa_doc,
                  parse_faf, parse_sample, serialize_dfa_doc, serialize_faf,
                  serialize_nba)
from .family import (FDWA, ReferenceSet, family_accepts, is_normalized)
from .learning import (dollar_dfa_to_fdfa, fdfa_to_dollar_dfa, learn_active,
                       learn_passive, make_teacher)
from .oracle import brute_almost_saturation, brute_saturation
from .regularity import check_regular
from .saturation import (MODE_FULLY_SATURATED, MODE_SATURATED,
                         check_fdwa_saturated, check_saturated)
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


def _show(word) -> str:
    return format_word(word) or "ε"


def _pair_text(r: Representation) -> str:
    return "(%s,%s)" % (_show(r.u), format_word(r.x))


def _pair_json(r: Representation) -> dict:
    return {"u": format_word(r.u), "x": format_word(r.x)}


def _cex_json(cx) -> dict:
    return {"variant": cx.variant,
            "left": _pair_json(cx.left),
            "right": _pair_json(cx.right),
            "left_accepted": cx.left_accepted,
            "right_accepted": cx.right_accepted}


def _emit(check: str, status: str, witness_json, lines, as_json: bool):
    if as_json:
        doc = {"check": check, "status": status}
        if witness_json is not None:
            doc["witness"] = witness_json
        print(json.dumps(doc))
    else:
        print(_status_word(status))
        for line in lines:
            print(line)


def _cex_lines(cx):
    side = lambda f: "accepted" if f else "rejected"
    return ["witness %s/%s" % (_pair_text(cx.left), _pair_text(cx.right)),
            "%s: left %s, right %s" % (cx.variant, side(cx.left_accepted),
                                       side(cx.right_accepted))]


def _cmd_check(args) -> int:
    F = parse_faf(_read(args.file))
    which = args.which
    cap_kw = {} if args.cap is None else {"cap": args.cap}

    if which in ("saturation", "full-saturation", "fdwa-saturation"):
        if which == "full-saturation":
            v = check_saturated(F, MODE_FULLY_SATURATED)
        elif which == "fdwa-saturation" or F.kind == FDWA:
            v = check_fdwa_saturated(F)
        else:
            v = check_saturated(F, MODE_SATURATED)
        witness = None if v.witness is None else _cex_json(v.witness)
        lines = [] if v.witness is None else _cex_lines(v.witness)
        _emit(which, v.status, witness, lines, args.json)
        return EXIT_OK if v.ok else EXIT_REFUTED

    if which == "almost-saturation":
        v = check_almost_saturated(F, **cap_kw)
        witness = lines = None
        if v.witness is not None:
            u, x, i = v.witness
            witness = {"u": format_word(u), "x": format_word(x), "power": i}
            lines = ["witness (%s,%s) accepted, power %d rejected"
                     % (_show(u), format_word(x), i)]
        _emit(which, v.status, witness, lines or [], args.json)
        if v.status == CAP_EXCEEDED:
            return EXIT_CAP
        return EXIT_OK if v.ok else EXIT_REFUTED

    v = check_regular(F, **cap_kw)
    witness = lines = None
    if v.evidence is not None:
        witness = {"case": v.evidence.case,
                   "words": [format_word(w) for w in v.evidence.words]}
        lines = ["evidence %s: %s" % (v.evidence.case, " ".join(
            _show(w) for w in v.evidence.words))]
    _emit(which, v.status, witness, lines or [], args.json)
    if v.status == CAP_EXCEEDED:
        return EXIT_CAP
    return EXIT_OK if v.ok else EXIT_REFUTED


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
        if found is None:
            _emit("almost-saturation", "NoCounterexample", None, [
                "bounds: |x| <= %d, power <= %d" % (args.max_x,
                                                    args.max_power)],
                args.json)
            return EXIT_OK
        u, x, i = found
        witness = {"u": format_word(u), "x": format_word(x), "power": i}
        _emit("almost-saturation", "NotAlmostSaturated", witness,
              ["witness (%s,%s) accepted, power %d rejected"
               % (_show(u), format_word(x), i)], args.json)
        return EXIT_REFUTED

    ref = (ReferenceSet.NORMALIZED if args.which == "saturation"
           else ReferenceSet.ALL)
    cx = brute_saturation(F, ref, args.max_u, args.max_x)
    if cx is None:
        _emit(args.which, "NoCounterexample", None,
              ["bounds: |u| <= %d, |x| <= %d" % (args.max_u, args.max_x)],
              args.json)
        return EXIT_OK
    _emit(args.which, "NotSaturated", _cex_json(cx), _cex_lines(cx),
          args.json)
    return EXIT_REFUTED


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="upfam",
        description="Decision procedures, translations, and learners for "
                    "families of automata over ultimately periodic words.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a decision procedure on a family")
    c.add_argument("which", metavar="property",
                   choices=("saturation", "full-saturation",
                            "almost-saturation", "fdwa-saturation",
                            "regularity"))
    c.add_argument("file", help="family file, or - for stdin")
    c.add_argument("--cap", type=int, default=None,
                   help="search budget of almost-saturation and regularity;"
                        " the other checks ignore it")
    c.add_argument("--json", action="store_true",
                   help="machine-readable verdict on stdout")
    c.set_defaults(handler=_cmd_check)

    t = sub.add_parser("translate", help="convert between representations")
    t.add_argument("which", metavar="conversion",
                   choices=("fdwa-to-nba", "to-dollar", "from-dollar",
                            "complement", "duo-to-fdwa", "fdwa-to-duo"))
    t.add_argument("file", help="input document, or - for stdin")
    t.add_argument("-o", "--output", default="-",
                   help="output path, or - for stdout (default)")
    t.add_argument("--dot", action="store_true",
                   help="emit Graphviz instead of the text format")
    t.set_defaults(handler=_cmd_translate)

    l = sub.add_parser("learn", help="run a learner")
    l.add_argument("which", metavar="mode", choices=("active", "passive"))
    l.add_argument("--target", help="family file the teacher answers from")
    l.add_argument("--sample", help="labeled sample file")
    l.add_argument("--log", action="store_true",
                   help="query statistics on stderr (active mode)")
    l.set_defaults(handler=_cmd_learn)

    g = sub.add_parser("gen", help="generate a benchmark family")
    g.add_argument("name", choices=GEN_FAMILY_NAMES)
    g.add_argument("--n", type=int, required=True, help="size parameter")
    g.add_argument("-o", "--output", default="-")
    g.add_argument("--dot", action="store_true",
                   help="emit Graphviz instead of the text format")
    g.set_defaults(handler=_cmd_gen)

    o = sub.add_parser("oracle",
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
    return p


def run_subcommand(argv) -> int:
    """Parse argv, run the subcommand, and map outcomes to exit codes."""
    try:
        args = _parser().parse_args(argv)
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
