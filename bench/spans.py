"""Spans around the public functions of the upfam layers, recorded from
outside the package.

``Tracer.install`` replaces every public function defined in a layer
module by a timing wrapper, in every layer module that binds the name,
because a call resolves the name in the calling module's globals:
``upfam.saturation.refine_family`` is what ``check_saturated`` calls, and
``upfam.learning.check_saturated`` is what the learners call.  No file of
the package changes; ``uninstall`` puts the originals back.

A span is (name, start, end, parent span, operation id).  Spans stay in
memory and are written out when the run ends.  Besides spans, a wrapper
records sizes read off the arguments and results (``SIZES``) and, for a
name bound in a module other than the one that defines it, the calls made
through that module (``<module>.<function>.calls``).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "faf", "automata", "family", "saturation", "almost",
          "regularity", "learning", "translate")


def _learn_log(a, r):
    log = r[1]
    return {"membership_queries": log.membership_queries,
            "equivalence_queries": log.equivalence_queries,
            "saturation_checks": log.saturation_checks,
            "rounds": log.rounds}


# span name -> function(args, result) -> {quantity: amount}
SIZES = {
    "faf.parse_faf": lambda a, r: {"bytes": len(a[0])},
    "automata.minimize_dfa": lambda a, r: {"states_in": a[0].n,
                                           "states_out": r.n},
    "family.refine_family": lambda a, r: {
        "states_out": sum(r.progress_sizes())},
    "regularity.stabilize": lambda a, r: {
        "states_out": sum(r.progress_sizes())},
    "regularity.label_by_leading": lambda a, r: {
        "states_out": r.progress[0].n},
    "learning.learn_active": _learn_log,
    "learning.gen_char_sample": lambda a, r: {"sample_size": len(r)},
    "translate.fdwa_to_nba": lambda a, r: {"states_out": r.n},
}


# cli.main does nothing but call run_subcommand; a span there would leave
# cli.main.self_s empty instead of holding the parsing and emission time.
UNTRACED = {"cli.run_subcommand"}


class Tracer:
    def __init__(self, package):
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []
        self.stack = []
        self.sizes = Counter()
        self.site_calls = Counter()
        self.op = None
        self._saved = []

    def install(self):
        for site, mod in self.modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                name = "%s.%s" % (home, attr)
                if home not in self.modules or name in UNTRACED:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name,
                                              None if home == site else
                                              "%s.%s.calls" % (site, attr)))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if site is not None:
                self.site_calls[site] += 1
            if sizes is not None:
                for key, amount in sizes(args, result).items():
                    self.sizes["%s.%s" % (name, key)] += amount
            return result

        return traced

    def begin_pass(self) -> int:
        """Start counting sizes and site calls afresh; returns the index of
        the pass's first span."""
        self.sizes.clear()
        self.site_calls.clear()
        return len(self.spans)

    def summary(self, first: int, last: int, duration) -> Counter:
        """Inclusive seconds, self seconds and calls per span name, and self
        seconds per layer, over spans[first:last]; ``duration(start, end)``
        turns a span's clock readings into seconds."""
        spans = self.spans[first:last]
        own = [duration(start, end) for _n, start, end, _p, _o in spans]
        child = defaultdict(float)
        for (_name, _start, _end, parent, _op), d in zip(spans, own):
            if parent >= first:
                child[parent] += d
        out = Counter()
        for i, (name, _start, _end, _parent, _op) in enumerate(spans):
            d = own[i]
            own_self = d - child[first + i]
            out[name + ".s"] += d
            out[name + ".self_s"] += own_self
            out[name + ".calls"] += 1
            out[name.split(".")[0] + ".self_s"] += own_self
        return out

    def write(self, path):
        """Spans as gzipped JSON lines: name, start, end, parent index, op
        id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
