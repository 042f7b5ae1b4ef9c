"""Reading and writing the text formats used by the command line.

A family document looks like

    faf 1
    kind fdfa
    alphabet a b
    leading
      states 1
      initial 0
      trans 0 a 0
      trans 0 b 0
    progress 0
      states 2
      initial 0
      accepting 1
      trans 0 a 1
      trans 0 b 0
      trans 1 a 1
      trans 1 b 0

with one ``progress <q>`` block per leading state.  Deterministic kinds
reject duplicate (state, symbol) transitions; ``fnfa`` blocks may repeat
them and may declare several start states with ``initials``.  Unreachable
states are dropped on load.  Deterministic machines are renumbered in
canonical breadth-first order, and their missing transitions fall into an
implicit rejecting sink; a complete table already in that order, as
`serialize_faf` writes a loaded or generated family, is kept as written
and is not checked a second time (see `automata`).  States are read as
``int`` reads them, so ``01`` and ``+1`` name state 1; a ``trans`` line
whose state tokens an earlier line has read is resolved through plain
dicts, which CPython's specialized subscripts serve faster than any
dict subclass, and every other line goes through the checks that name
its error.  ``fnfa`` blocks keep their reachable states in declared
order, and a missing transition there leads nowhere.  Lines starting with
``#`` are comments, as is anything after a directive's arguments.  ``#``
and ``$`` are legal alphabet symbols; since ``#`` also opens comments,
declare it as the last token of the ``alphabet`` line.  The writers keep
to that rule: they refuse an alphabet with ``#`` elsewhere, or with a
longer symbol that starts with ``#``, and `learning.fdfa_to_dollar_dfa`
puts ``$`` before a trailing ``#``.

Dollar machines (plain DFAs) use the same directives under a ``dfa 1``
header; serialized Buchi automata use ``nba 1`` with ``initials``.  Sample
files carry one labeled pair per line, ``+<TAB>u<TAB>x`` or
``-<TAB>u<TAB>x``, with ``_`` for the empty word.  Without an alphabet
line, every character of a word is one symbol.  A first line
``alphabet <symbols>``, the symbols separated by spaces and the line
holding no comment, declares the symbols instead; a word is then one
symbol, or its symbols separated by spaces.  `serialize_sample` writes
that line, and spaces, only when some symbol is longer than one
character, so ``1 2`` and ``12`` stay apart over the symbols ``1 2 12``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from operator import mul

from .automata import Dfa, Nfa, TransitionSystem, reachable
from .errors import InputError
from .family import FNFA, KINDS, Family
from .learning import Sample
from .words import Representation, format_word, parse_word

FAF_VERSION = "1"


def _fail(lineno, message):
    raise InputError("line %d: %s" % (lineno, message))


class _Reader:
    """The lines of a document after an empty line 0, so a line's index is
    its line number.  A line is split into tokens when it is read, and its
    tokens are dropped after use.  Blank and comment lines are kept and
    skipped where lines are read.  `states` maps a state token to its
    number once a ``trans`` line has read it (see `_parse_block`)."""

    def __init__(self, text):
        self.lines = lines = [""]
        lines += text.splitlines()
        self.pos = 1
        last = len(lines) - 1
        while last and not _is_directive(lines[last].split()):
            last -= 1
        self.last_line = last
        self.states = {}

    def peek(self):
        lines = self.lines
        while self.pos < len(lines):
            tokens = lines[self.pos].split()
            if _is_directive(tokens):
                return self.pos, tokens
            self.pos += 1
        return None

    def take(self):
        row = self.peek()
        if row is None:
            _fail(self.last_line + 1, "unexpected end of file")
        self.pos += 1
        return row


def _is_directive(tokens):
    return tokens and tokens[0][0] != "#"


def _fixed_args(no, tokens, arity):
    """Arguments of a fixed-arity directive; trailing comments dropped."""
    args = tokens[1:]
    for k in range(arity, len(args)):
        if args[k].startswith("#"):
            args = args[:k]
            break
    if len(args) != arity:
        _fail(no, "'%s' takes %d argument(s), got %d"
              % (tokens[0], arity, len(args)))
    return args


def _int_args(no, tokens):
    """Arguments of an integer-variadic directive (accepting/initials)."""
    out = []
    for t in tokens[1:]:
        if t.startswith("#"):
            break
        try:
            out.append(int(t))
        except ValueError:
            _fail(no, "'%s' expects state numbers, got %r" % (tokens[0], t))
    return out


def _expect(reader, directive, arity):
    no, tokens = reader.take()
    if tokens[0] != directive:
        _fail(no, "expected '%s', got '%s'" % (directive, tokens[0]))
    return no, _fixed_args(no, tokens, arity)


def _parse_header(reader, document):
    no, args = _expect(reader, document, 1)
    if args[0] != FAF_VERSION:
        _fail(no, "unsupported %s version %r" % (document, args[0]))
    return no


def _parse_alphabet(reader):
    no, tokens = reader.take()
    if tokens[0] != "alphabet":
        _fail(no, "expected 'alphabet', got '%s'" % tokens[0])
    symbols = []
    rest = tokens[1:]
    for k, t in enumerate(rest):
        # '#' is a legal symbol, so only '#text' or a '#' with more tokens
        # after it starts a comment; declare the symbol as the last token.
        if t.startswith("#") and (len(t) > 1 or k + 1 < len(rest)):
            break
        symbols.append(t)
    return _symbols(no, symbols)


def _symbols(no, symbols):
    """The symbols an alphabet line declares, as a tuple: at least one,
    and no two alike."""
    if not symbols:
        _fail(no, "alphabet must list at least one symbol")
    if len(set(symbols)) != len(symbols):
        _fail(no, "duplicate symbol in alphabet")
    return tuple(symbols)


class _Rows(defaultdict):
    """Successor table of a deterministic block, as `from_table` reads
    it: state -> row of successor states, one per symbol, None where no
    line gives one.  Only the states that lines name have a row, so memory
    follows the transition lines, not the declared state count; looking
    up another state makes its row with the dict's default factory, so no
    Python code runs per row.  The length is that count, as for a table
    with one row per declared state.  `_parse_block` fills a plain dict
    and wraps it here once the block is read: CPython specializes
    subscripts of a plain dict but not of a subclass."""

    def __init__(self, n, nsym, rows):
        super().__init__(partial(mul, [None], nsym), rows)
        self.n = n

    def __len__(self):
        return self.n


class _Block:
    """One machine section: states/init· /accepting/trans directives.  A
    deterministic block keeps its transitions in the _Rows `table`; an fnfa
    block keeps them in `moves`, from (state, symbol) to its targets."""

    def __init__(self, n, header_line):
        self.n = n
        self.header_line = header_line
        self.initials = None
        self.accepting = None
        self.table = None
        self.moves = None

    def single_initial(self):
        if self.initials is None:
            return 0
        return self.initials[0]

    def checked_accepting(self):
        """The accepting states, as listed, once each lies in range; an
        error names the first that does not, at the block's header."""
        accepting = self.accepting or []
        if accepting and not (0 <= min(accepting)
                              and max(accepting) < self.n):
            q = next(q for q in accepting if not 0 <= q < self.n)
            _fail(self.header_line, "accepting state %d out of range" % q)
        return accepting


def _parse_block(reader, alphabet, deterministic, header_line):
    """The block after its header line.  A ``trans`` line of a declared
    symbol and two state tokens read before is resolved by plain dict
    lookups and one range test; any other goes to `_transition`, which
    reads or refuses it, and a state it reads is stored for the next
    line that names it.  A stored state is never negative, so ``s >= n``
    is the whole range test."""
    no, args = _expect(reader, "states", 1)
    try:
        n = int(args[0])
    except ValueError:
        _fail(no, "'states' expects a number, got %r" % args[0])
    if n < 1:
        _fail(no, "a machine needs at least one state")
    block = _Block(n, header_line)
    sym_index = {a: i for i, a in enumerate(alphabet)}
    nsym = len(alphabet)
    states = reader.states
    rows = {}  # state -> row of successors, for a deterministic block
    moves = {}  # (state, symbol) -> targets, for an fnfa block
    lines = reader.lines
    start, reader.pos = reader.pos, len(lines)
    for no in range(start, len(lines)):
        tokens = lines[no].split()
        if not tokens:
            continue
        word = tokens[0]
        if word == "trans":
            try:
                _, s, sym, t = tokens
                s, t, si = states[s], states[t], sym_index[sym]
                if s >= n or t >= n:  # out of range: _transition says so
                    raise KeyError
            except (ValueError, KeyError):
                s, sym, t = _transition(no, tokens, sym_index, n)
                si = sym_index[sym]
                states[tokens[1]], states[tokens[3]] = s, t
            if not deterministic:
                moves.setdefault((s, sym), []).append(t)
                continue
            row = rows.get(s)
            if row is None:
                row = rows[s] = [None] * nsym
            if row[si] is None:
                row[si] = t
            else:
                _fail(no, "duplicate transition for state %d on %r"
                      % (s, sym))
        elif word == "leading" or word == "progress":
            reader.pos = no
            break
        elif word == "initial":
            (arg,) = _fixed_args(no, tokens, 1)
            _set_initials(block, no, [arg])
        elif word == "initials":
            if deterministic:
                _fail(no, "'initials' is only allowed in fnfa blocks")
            _set_initials(block, no, _int_args(no, tokens))
        elif word == "accepting":
            if block.accepting is not None:
                _fail(no, "duplicate 'accepting' line")
            block.accepting = _int_args(no, tokens)
        elif word[0] != "#":
            _fail(no, "unknown directive '%s'" % word)
    if deterministic:
        block.table = _Rows(n, nsym, rows)
    else:
        block.moves = moves
    return block


def _transition(no, tokens, sym_index, n):
    """(s, symbol, t) of a ``trans`` line that the plain lookups of
    `_parse_block` did not take, or the error that the line makes: it may
    name a state token for the first time, carry a trailing comment, have
    the wrong argument count, an undeclared symbol, a state that is no
    number or one out of range."""
    s, sym, t = _fixed_args(no, tokens, 3)
    if sym not in sym_index:
        _fail(no, "transition on undeclared symbol %r" % sym)
    try:
        s, t = int(s), int(t)
    except ValueError:
        _fail(no, "transition states must be numbers")
    if not (0 <= s < n and 0 <= t < n):
        _fail(no, "transition %d-%s->%d out of range" % (s, sym, t))
    return s, sym, t


def _set_initials(block, no, raw):
    if block.initials is not None:
        _fail(no, "duplicate initial-state line")
    states = []
    for item in raw:
        try:
            states.append(int(item))
        except (TypeError, ValueError):
            _fail(no, "initial state must be a number, got %r" % (item,))
    if not states:
        _fail(no, "at least one initial state required")
    for q in states:
        if not 0 <= q < block.n:
            _fail(no, "initial state %d out of range" % q)
    block.initials = states


def parse_faf(text: str) -> Family:
    """Family from a FAF document; see the module docstring for the
    grammar."""
    reader = _Reader(text)
    _parse_header(reader, "faf")
    no, (kind,) = _expect(reader, "kind", 1)
    if kind not in KINDS:
        _fail(no, "kind must be one of %s, got %r" % ("/".join(KINDS), kind))
    alphabet = _parse_alphabet(reader)
    deterministic = kind != FNFA

    no, tokens = reader.take()
    if tokens[0] != "leading":
        _fail(no, "expected 'leading', got '%s'" % tokens[0])
    _fixed_args(no, tokens, 0)
    lead_block = _parse_block(reader, alphabet, True, no)
    if lead_block.accepting is not None:
        _fail(lead_block.header_line, "the leading block has no accepting"
              " states")

    blocks = {}
    while reader.peek() is not None:
        no, tokens = reader.take()
        if tokens[0] != "progress":
            _fail(no, "expected 'progress', got '%s'" % tokens[0])
        (q,) = _fixed_args(no, tokens, 1)
        try:
            q = int(q)
        except ValueError:
            _fail(no, "'progress' expects a leading state number")
        if not 0 <= q < lead_block.n:
            _fail(no, "progress block for unknown leading state %d" % q)
        if q in blocks:
            _fail(no, "duplicate progress block for leading state %d" % q)
        blocks[q] = _parse_block(reader, alphabet, deterministic, no)
    if len(blocks) < lead_block.n:  # blocks holds only states in range
        q = next(q for q in range(lead_block.n) if q not in blocks)
        raise InputError("missing progress block for leading state %d" % q)

    leading = TransitionSystem.from_table(alphabet, lead_block.table,
                                          lead_block.single_initial())
    progress = []
    for new_q in range(leading.n):
        old = leading.keys[new_q]
        if old is None:  # implicit leading sink: rejecting progress
            progress.append(_rejecting_progress(kind, alphabet))
        else:
            progress.append(_build_progress(kind, alphabet, blocks[old]))
    return Family(kind, leading, progress)


def _rejecting_progress(kind, alphabet):
    if kind == FNFA:
        return Nfa(alphabet, 1, {}, [0], [])
    return Dfa.from_parts(alphabet, 1, {}, 0, ())


def _build_progress(kind, alphabet, block):
    accepting = block.checked_accepting()
    if kind == FNFA:
        return _reachable_nfa(alphabet, block.moves,
                              block.initials or [0], accepting)
    return Dfa.from_table(alphabet, block.table, block.single_initial(),
                          accepting)


def _reachable_nfa(alphabet, moves, initials, accepting):
    """The NFA of an fnfa block on the states its initial states reach,
    numbered in the order of their declared numbers."""
    succ = {}
    for (s, _), ts in moves.items():
        succ.setdefault(s, []).extend(ts)
    seen = reachable(initials, lambda s: succ.get(s, ()))
    number = {s: i for i, s in enumerate(sorted(seen))}
    return Nfa(alphabet, len(number),
               {(number[s], a): [number[t] for t in ts]
                for (s, a), ts in moves.items() if s in number},
               [number[s] for s in initials],
               [number[s] for s in accepting if s in number])


# --------------------------------------------------------------- writing

def _machine_lines(out, machine, nondet):
    out.append("  states %d" % machine.n)
    if nondet:
        out.append("  initials %s" % " ".join(
            str(q) for q in sorted(machine.initials)))
    else:
        out.append("  initial %d" % machine.initial)
    accepting = getattr(machine, "accepting", None)
    if accepting:
        out.append("  accepting %s" % " ".join(
            str(q) for q in sorted(accepting)))
    for s in range(machine.n):
        if nondet:
            # one string per state, not per line: an NBA has far more lines
            # than states, and the writer holds every string until it joins
            # them
            lines = ["  trans %d %s %d" % (s, sym, t)
                     for sym, cell in zip(machine.alphabet, machine.delta[s])
                     for t in sorted(cell)]
            if lines:  # a state with no transitions has no lines
                out.append("\n".join(lines))
        else:
            for i, sym in enumerate(machine.alphabet):
                out.append("  trans %d %s %d" % (s, sym, machine.delta[s][i]))


def _document(out) -> str:
    """The lines of `out`, each ended by a newline.  The last newline
    comes from an empty last line, so the text is built once, not built
    and then copied with a newline added."""
    out.append("")
    return "\n".join(out)


def _alphabet_line(alphabet) -> str:
    """The ``alphabet`` line that `_parse_alphabet` reads back as
    `alphabet`.  A symbol starting with ``#`` would open a comment there
    unless it is a bare ``#`` listed last, so any other raises InputError:
    in the line, such a symbol is a " #" before the last character."""
    line = "alphabet " + " ".join(alphabet)
    if " #" in line[:-1]:
        raise InputError("cannot write %r: '#' opens comments" % line)
    return line


def serialize_faf(F: Family) -> str:
    out = ["faf " + FAF_VERSION, "kind " + F.kind, _alphabet_line(F.alphabet)]
    out.append("leading")
    _machine_lines(out, F.leading, nondet=False)
    for q, D in enumerate(F.progress):
        out.append("progress %d" % q)
        _machine_lines(out, D, nondet=F.kind == FNFA)
    return _document(out)


def parse_dfa_doc(text: str) -> Dfa:
    """A single DFA under a ``dfa 1`` header (used for dollar machines)."""
    reader = _Reader(text)
    header_line = _parse_header(reader, "dfa")
    alphabet = _parse_alphabet(reader)
    block = _parse_block(reader, alphabet, True, header_line)
    if reader.peek() is not None:
        _fail(reader.peek()[0], "unexpected content after the machine")
    return Dfa.from_table(alphabet, block.table, block.single_initial(),
                          block.checked_accepting())


def serialize_dfa_doc(A: Dfa) -> str:
    out = ["dfa " + FAF_VERSION, _alphabet_line(A.alphabet)]
    _machine_lines(out, A, nondet=False)
    return _document(out)


def serialize_nba(A: Nfa) -> str:
    out = ["nba " + FAF_VERSION, _alphabet_line(A.alphabet)]
    _machine_lines(out, A, nondet=True)
    return _document(out)


# --------------------------------------------------------------- samples

def parse_sample(text: str) -> Sample:
    """Sample from tab-separated ``+/-<TAB>u<TAB>x`` lines, '_' for the
    empty word, after an optional ``alphabet`` line; see the module
    docstring."""
    entries = []
    symbols = set()
    alphabet = None
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) == 1 and line.split()[0] == "alphabet":
            if alphabet is not None or entries:
                _fail(no, "'alphabet' must be the first line of a sample")
            alphabet = _symbols(no, line.split()[1:])
            continue
        if len(parts) != 3:
            _fail(no, "expected three tab-separated fields, got %d"
                  % len(parts))
        sign, u_text, x_text = parts
        if sign not in ("+", "-"):
            _fail(no, "label must be '+' or '-', got %r" % sign)
        entries.append((no, sign, u_text.strip(), x_text.strip()))
        if alphabet is None:
            for part in (u_text, x_text):
                if part.strip() not in ("", "_"):
                    symbols.update(part.strip())
    if alphabet is None:
        alphabet = tuple(sorted(symbols))
    positive, negative = [], []
    for no, sign, u_text, x_text in entries:
        try:
            u = parse_word(u_text, alphabet)
            x = parse_word(x_text, alphabet)
        except InputError as e:
            _fail(no, str(e))
        if not x:
            _fail(no, "the loop part of a pair must be nonempty")
        (positive if sign == "+" else negative).append(Representation(u, x))
    return Sample(positive, negative)


def serialize_sample(sample: Sample) -> str:
    """The sample as `parse_sample` reads it; an ``alphabet`` line comes
    first only when a symbol is longer than one character."""
    alphabet = sample.alphabet()
    out = []
    if any(len(a) > 1 for a in alphabet):
        out.append("alphabet " + " ".join(alphabet))
    word = partial(format_word, alphabet=alphabet)
    for sign, reps in (("+", sample.positive), ("-", sample.negative)):
        for r in reps:
            out.append("%s\t%s\t%s" % (sign, word(r.u) or "_", word(r.x)))
    return "\n".join(out) + ("\n" if out else "")


# --------------------------------------------------------------- graphviz

def _dot_machine(out, prefix, title, machine, nondet):
    out.append('  subgraph "cluster_%s" {' % prefix)
    out.append('    label="%s";' % title)
    accepting = getattr(machine, "accepting", frozenset())
    for s in range(machine.n):
        shape = "doublecircle" if s in accepting else "circle"
        out.append('    "%s%d" [label="%d", shape=%s];' % (prefix, s, s,
                                                           shape))
    initials = machine.initials if nondet else (machine.initial,)
    for k, q in enumerate(sorted(initials)):
        out.append('    "%s_in%d" [shape=point, style=invis];' % (prefix, k))
        out.append('    "%s_in%d" -> "%s%d";' % (prefix, k, prefix, q))
    edges = {}
    for s in range(machine.n):
        for i, sym in enumerate(machine.alphabet):
            targets = machine.delta[s][i] if nondet \
                else (machine.delta[s][i],)
            for t in targets:
                edges.setdefault((s, t), []).append(sym)
    for (s, t), syms in sorted(edges.items()):
        out.append('    "%s%d" -> "%s%d" [label="%s"];'
                   % (prefix, s, prefix, t, ",".join(syms)))
    out.append("  }")


def family_to_dot(F: Family) -> str:
    out = ["digraph family {", "  rankdir=LR;"]
    _dot_machine(out, "L", "leading", F.leading, nondet=False)
    for q, D in enumerate(F.progress):
        _dot_machine(out, "P%d_" % q, "progress %d" % q, D,
                     nondet=F.kind == FNFA)
    out.append("}")
    return "\n".join(out) + "\n"


def dfa_to_dot(A: Dfa) -> str:
    out = ["digraph machine {", "  rankdir=LR;"]
    _dot_machine(out, "S", "dfa", A, nondet=False)
    out.append("}")
    return "\n".join(out) + "\n"


def nba_to_dot(A: Nfa) -> str:
    out = ["digraph machine {", "  rankdir=LR;"]
    _dot_machine(out, "S", "nba", A, nondet=True)
    out.append("}")
    return "\n".join(out) + "\n"
