"""Rebuild ``pool.json``: the admitted random members and the pinned status
and output digest of every operation the benchmark can draw.

    python3 bench/pool.py [workload ...]

Every candidate member of each random group runs once.  A member is
admitted when its operations end within the group's cost limit, in
seconds at the reference speed of ``speed.py`` (a CPU-time alarm cuts much
longer ones short), and, for a group that asks for one, with the required
status.  Admitted members are stored with their cost, which
``corpus.draw`` sorts into strata.  Ladder operations are pinned too.

The pins come from the checker under test, so rebuilding the pool is a
change of the benchmark: it belongs in a change of its own, and the
baseline is measured again after it.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys

import corpus
import verify
from run import SRC, WORK, digest, load_upfam, run_op
from speed import Speed


# The alarm runs on CPU time (SIGPROF); SIGALRM belongs to the speed sampler.
ALARM_SLACK = 3.0


class TooSlow(BaseException):
    """Raised by the alarm; not an Exception, so nothing in the program
    catches it."""


def _alarm(_signum, _frame):
    raise TooSlow()


def run_member(pkg, ops, speed, limit_s):
    """[(op, code, stdout)] and total seconds at the reference speed, or
    None when the operations do not end within limit_s."""
    signal.setitimer(signal.ITIMER_PROF, ALARM_SLACK * limit_s)
    try:
        out = []
        total = 0.0
        for op in ops:
            code, stdout, start, end, error = run_op(pkg, op)
            if error is not None:
                raise SystemExit("%s raised:\n%s" % (op.id, error))
            out.append((op, code, stdout))
            total += speed.scaled(start, end)
    except TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return (out, total) if total <= limit_s else None


def pin(pins, results):
    for op, code, stdout in results:
        pins[op.id] = [verify.status_of(op.kind, code, stdout),
                       digest(stdout)]


def build(workloads):
    sys.path.insert(0, str(SRC))
    pkg = load_upfam()
    signal.signal(signal.SIGPROF, _alarm)
    try:
        pool = corpus.load_pool()
    except FileNotFoundError:
        pool = {"groups": {}, "pins": {}}
    with Speed() as speed:
        for workload in workloads:
            build_workload(pool, workload, pkg, speed)
    pool["pins"] = dict(sorted(pool["pins"].items()))
    with open(corpus.POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")


def build_workload(pool, workload, pkg, speed):
    prefix = workload + ":"
    pool["pins"] = {k: v for k, v in pool["pins"].items()
                    if not k.startswith(prefix)}
    workdir = WORK / ("pool-" + workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results, _ = run_member(pkg, corpus.ladder_ops(workload, workdir, False),
                            speed, 3600)
    pin(pool["pins"], results)
    for group in corpus.GROUPS[workload]:
        admitted = []
        for i in range(group.pool):
            ops = corpus.family_ops(workload, corpus.member_label(group, i),
                                    corpus.pool_member(group, i),
                                    group.commands, workdir)
            got = run_member(pkg, ops, speed, group.max_cost_ms / 1000.0)
            if got is None:
                continue
            results, seconds = got
            if group.want_status is not None and any(
                    verify.status_of(op.kind, code, out).split(":")[1]
                    != group.want_status for op, code, out in results):
                continue
            admitted.append([i, round(1000 * seconds, 3)])
            pin(pool["pins"], results)
        pool["groups"][group.name] = {"admitted": admitted}
        print("%s: %d of %d admitted" % (group.name, len(admitted),
                                         group.pool), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    build(sys.argv[1:] or list(corpus.WORKLOADS))
