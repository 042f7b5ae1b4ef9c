"""Benchmark of upfam: time-to-verdict of ``upfam check|translate|learn``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>
    python3 bench/run.py --self-check

One workload runs in one process.  Every operation goes in-process through
``upfam.cli.main([...])``, so argument parsing, ``faf`` parsing, the
checker and JSON emission are measured and interpreter start is not.

A run sets up three times (fresh import of ``upfam`` from ``src/``, corpus
generation and writing, one warm-up operation per command kind) and
reports the median as ``setup_s``.  It then makes timed passes over all
operations, in a closed loop (one operation at a time), for ``--seconds``;
``--trace 1`` spends half of that on untraced passes and half on traced
ones.  An operation's time in a pass is the median of its REPEATS runs
when it is shorter than REPEAT_BELOW, and ``wall_s`` is the sum of the
operation times of a pass (median over passes).  Times are in seconds at
the reference host speed of ``speed.py``, which keeps them steady on a
shared machine; raw wall-clock figures are printed beside them.  After
the passes every output is checked (``verify.py``) and compared with its
pinned status and digest (``pool.json``).

The last line of standard output is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The lines
before it give every metric with its unit and sample count, and name each
failed operation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS = 3
# An untraced pass runs an operation shorter than REPEAT_BELOW seconds
# REPEATS times and keeps the median: one reading of a few milliseconds
# on a shared machine is too noisy for the latency percentiles.
REPEATS = 3
REPEAT_BELOW = 0.25

import corpus  # noqa: E402
import verify  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import Speed  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "decided_frac": "1",
    "ok_frac": "1",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "faf.parse_faf.s": "s",
    "faf.parse_faf.bytes": "B",
    "faf.serialize_faf.s": "s",
    "automata.minimize_dfa.s": "s",
    "automata.minimize_dfa.calls": "count",
    "automata.minimize_dfa.states_in": "count",
    "automata.minimize_dfa.states_out": "count",
    "family.refine_family.s": "s",
    "family.refine_family.states_out": "count",
    "family.family_accepts.calls": "count",
    "family.family_accepts.s": "s",
    "saturation.check_loopshift_stable.s": "s",
    "saturation.check_power_stable.s": "s",
    "saturation.check_fdwa_saturated.self_s": "s",
    "almost.check_almost_saturated.s": "s",
    "regularity.stabilize.s": "s",
    "regularity.stabilize.states_out": "count",
    "regularity.label_by_leading.s": "s",
    "regularity.label_by_leading.states_out": "count",
    "regularity.find_good_witness.self_s": "s",
    "regularity.classify_profile.s": "s",
    "regularity.classify_profile.calls": "count",
    "learning.learn_active.s": "s",
    "learning.learn_active.membership_queries": "count",
    "learning.learn_active.equivalence_queries": "count",
    "learning.learn_active.saturation_checks": "count",
    "learning.learn_active.rounds": "count",
    "learning.gen_char_sample.s": "s",
    "learning.gen_char_sample.sample_size": "count",
    "learning.learn_passive.s": "s",
    "learning.check_saturated.calls": "count",
    "translate.fdwa_to_nba.s": "s",
    "translate.fdwa_to_nba.states_out": "count",
    "translate.complement_saturated_fdwa.s": "s",
    "translate.fdwa_to_duo.s": "s",
    "translate.duo_to_fdwa.s": "s",
    "cli.main.self_s": "s",
}
PER_LAYER.update({"%s.self_s" % layer: "s" for layer in LAYERS})
PER_LAYER.update({
    "trace.overhead_frac": "1",
    "verify.unchecked": "count",
    "verify.json_changed": "count",
})


# ----------------------------------------------------------------- program

def load_upfam():
    """Fresh import of the package from the checkout's src/ (the earlier
    import, if any, is dropped first so each set-up pays the import)."""
    for name in [n for n in sys.modules
                 if n == "upfam" or n.startswith("upfam.")]:
        del sys.modules[name]
    pkg = importlib.import_module("upfam")
    if Path(pkg.__file__).resolve().parent != (SRC / "upfam").resolve():
        raise SystemExit("upfam imported from %s, not from %s"
                         % (pkg.__file__, SRC))
    for name in LAYERS + ("oracle", "words"):
        importlib.import_module("upfam." + name)
    return pkg


def run_op(pkg, op):
    """(exit code, stdout, start, end, traceback or None) of one operation.

    ``char-passive`` builds the characteristic sample of its target with
    ``gen_char_sample`` inside the timed region and hands it to
    ``learn passive`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.kind == "char-passive":
                target = pkg.faf.parse_faf(
                    Path(op.source).read_text(encoding="utf-8"))
                sample = pkg.learning.gen_char_sample(target)
                sys.stdin = io.StringIO(pkg.faf.serialize_sample(sample))
            code = pkg.cli.main(op.argv)
    except Exception:  # a traceback is a failed operation, not a crash
        code, error = -1, traceback.format_exc()
    finally:
        sys.stdin = saved
    return code, out.getvalue(), start, time.perf_counter(), error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def setup(workload, seed, pool, small):
    """One set-up: import, corpus, warm-up.  Returns (start, end, pkg,
    ops)."""
    start = time.perf_counter()
    pkg = load_upfam()
    workdir = WORK / ("%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = corpus.build(workload, seed, workdir, pool, small)
    first = {}
    for op in ops:
        first.setdefault(op.kind, op)
    for op in first.values():
        run_op(pkg, op)
    return start, time.perf_counter(), pkg, ops


@dataclass
class Pass:
    """One pass over all operations.  ``results[i]`` holds the runs of
    operation i; a traced pass also knows its span range and the sizes
    counted during it."""

    start: float
    end: float
    results: list
    spans: tuple = (0, 0)
    sizes: Counter = field(default_factory=Counter)


def timed_passes(pkg, ops, budget, tracer=None):
    """Passes over all operations until the next one would end after
    `budget` seconds (at least one).  A traced pass runs every operation
    once, so its layer totals are those of one pass."""
    passes = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        first = tracer.begin_pass() if tracer else 0
        start = time.perf_counter()
        results = []
        for op in ops:
            if tracer:
                tracer.op = op.id
            runs = [run_op(pkg, op)]
            if tracer is None and runs[0][3] - runs[0][2] < REPEAT_BELOW:
                runs += [run_op(pkg, op) for _ in range(REPEATS - 1)]
            results.append(runs)
        p = Pass(start, time.perf_counter(), results)
        if tracer:
            p.spans = (first, len(tracer.spans))
            p.sizes = tracer.sizes + tracer.site_calls
        passes.append(p)
        typical = statistics.median(q.end - q.start for q in passes)
        if time.perf_counter() - begin + typical > budget:
            return passes


# ------------------------------------------------------------ verification

def check_outputs(pkg, ops, passes, pins):
    """Outcome after the passes: (failed reasons by op id, unchecked
    (op id, reason) list, json-changed op ids, decided count, count whose
    output passed its check)."""
    checker = verify.Checker(pkg)
    failed, unchecked, changed = {}, [], []
    decided = checked = 0
    for i, op in enumerate(ops):
        code, stdout, _start, _end, error = passes[0].results[i][0]
        decided += code in (0, 1)
        verdict, reason = checker.check(op, code, stdout, error)
        if verdict == "failed":
            failed[op.id] = reason
        elif verdict == "ok":
            checked += 1
        else:
            unchecked.append((op.id, reason))
        if any(r[:2] != (code, stdout) for p in passes for r in p.results[i]):
            failed.setdefault(op.id, "output differs between runs")
        pin = pins.get(op.id)
        status = verify.status_of(op.kind, code, stdout)
        if pin is None:
            failed.setdefault(op.id, "no pinned status")
        else:
            if pin[0] != status:
                failed.setdefault(op.id, "status %s, pinned %s"
                                  % (status, pin[0]))
            if pin[1] != digest(stdout):
                changed.append(op.id)
    return failed, unchecked, changed, decided, checked


# ------------------------------------------------------------------- runs

def measure(workload, seed, seconds, trace, small=False, pool=None,
            inject=None):
    """One benchmark run in this process; returns (report lines, result,
    failed operations).  ``inject`` may alter the results and pins before
    they are checked (the self-check uses it)."""
    pool = pool or corpus.load_pool()
    setups = []
    traced = []
    with Speed() as speed:
        for _ in range(SETUPS):
            start, end, pkg, ops = setup(workload, seed, pool, small)
            setups.append((start, end))
        untraced = timed_passes(pkg, ops, seconds / 2 if trace else seconds)
        if trace:
            tracer = Tracer(pkg)
            tracer.install()
            try:
                traced = timed_passes(pkg, ops, seconds / 2, tracer)
            finally:
                tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.write(WORK / ("spans-%s-seed%d.jsonl.gz" % (workload, seed)))

    pins = dict(pool["pins"])
    if inject:
        inject(ops, untraced, pins)
    failed, unchecked, changed, decided, checked = check_outputs(
        pkg, ops, untraced + traced, pins)

    def op_seconds(p):
        return [statistics.median(speed.scaled(r[2], r[3]) for r in runs)
                for runs in p.results]

    n = len(ops)
    scaled = [op_seconds(p) for p in untraced]
    op_s = [statistics.median(col) for col in zip(*scaled)]
    wall = statistics.median(sum(row) for row in scaled)
    values = {
        "wall_s": wall,
        "op_p50_ms": 1000 * statistics.median(op_s),
        "op_p90_ms": 1000 * statistics.quantiles(op_s, n=10)[8],
        "decided_frac": decided / n,
        "ok_frac": 1 - len(failed) / n,
        "setup_s": statistics.median(speed.scaled(a, b) for a, b in setups),
        "peak_rss_mb": rss_mb,
    }
    lines = ["workload %s, seed %d, cap %d: %d operations, %d untraced "
             "pass(es), %d traced, %d set-ups"
             % (workload, seed, corpus.CAPS[workload], n, len(untraced),
                len(traced), len(setups)),
             "times in seconds at the reference speed (speed.py); raw "
             "wall_s %.4f s, raw setup_s %.4f s, mean host speed %.3f of "
             "reference over %d samples"
             % (statistics.median(p.end - p.start for p in untraced),
                statistics.median(b - a for a, b in setups),
                sum(speed.factors) / len(speed.factors),
                len(speed.factors))]
    samples = {"wall_s": "%d passes" % len(untraced),
               "op_p50_ms": "%d operations" % n,
               "op_p90_ms": "%d operations" % n,
               "decided_frac": "%d operations" % n,
               "ok_frac": "%d operations" % n,
               "setup_s": "%d set-ups" % len(setups),
               "peak_rss_mb": "1 process"}
    for name, unit in END_TO_END.items():
        lines.append("  %-14s %12.4f %-3s (n = %s)"
                     % (name, values[name], unit, samples[name]))
    lines.append("  failed_frac    %12.4f     (%d of %d operations)"
                 % (len(failed) / n, len(failed), n))
    kinds = {}
    for _id, reason in unchecked:
        kinds[reason] = kinds.get(reason, 0) + 1
    lines.append("verify: %d checked, %d unchecked (%s), %d failed, "
                 "%d json changed"
                 % (checked, len(unchecked),
                    ", ".join("%s %d" % kv for kv in sorted(kinds.items())),
                    len(failed), len(changed)))
    lines += ["FAILED %s: %s" % kv for kv in sorted(failed.items())]
    lines += ["json changed: %s" % op_id for op_id in changed]

    if trace:
        per_pass = []
        for p in traced:
            counts = tracer.summary(*p.spans, speed.scaled)
            counts.update(p.sizes)
            per_pass.append(counts)
        layer = {name: statistics.median(c.get(name, 0) for c in per_pass)
                 for name in PER_LAYER}
        layer["trace.overhead_frac"] = statistics.median(
            sum(op_seconds(p)) for p in traced) / wall - 1
        layer["verify.unchecked"] = len(unchecked)
        layer["verify.json_changed"] = len(changed)
        for name, unit in PER_LAYER.items():
            lines.append("  %-45s %14.6f %s" % (name, layer[name], unit))
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": not failed, "attempted": n, "failed": len(failed),
              "metrics": metrics}
    return lines, result, failed


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after the other."""
    summary = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print("workload %s exited with %d" % (workload, proc.returncode))
            return 1
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def self_check():
    """Small corpus through every workload's path, untraced and traced,
    with two faults injected: a flipped acceptance bit in one witness
    (where the workload has one) and a wrong pinned status.  Both must
    show in failed_frac, and nothing else may fail."""
    pool = corpus.load_pool()
    ok = True
    for workload in corpus.WORKLOADS:
        expected = set()

        def inject(ops, passes, pins):
            results = passes[0].results
            for i, op in enumerate(ops):
                text = results[i][0][1]
                if '"left_accepted": ' in text:
                    doc = json.loads(text)
                    w = doc["witness"]
                    w["left_accepted"] = not w["left_accepted"]
                    flipped = json.dumps(doc) + "\n"
                    for p in passes:
                        p.results[i] = [(code, flipped, start, end, error)
                                        for code, _out, start, end, error
                                        in p.results[i]]
                    expected.add(op.id)
                    break
            victim = ops[-1].id
            pins[victim] = ["9:WrongStatus", pins[victim][1]]
            expected.add(victim)

        lines, result, failed = measure(workload, 0, 0.0, 1, small=True,
                                        pool=pool, inject=inject)
        print("\n".join(line for line in lines
                        if not line.startswith("  ") or "_frac" in line))
        good = set(failed) == expected and result["failed"] == len(expected)
        print("self-check %s: injected %d fault(s), failed %d of %d: %s"
              % (workload, len(expected), result["failed"],
                 result["attempted"], "ok" if good else "WRONG"))
        ok = ok and good
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=corpus.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "upfam" / "cli.py").is_file():
        print("no upfam sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            p.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        lines, result, _failed = measure(args.workload, args.seed,
                                         args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        for d in WORK.glob("*-%d" % os.getpid()):
            shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
