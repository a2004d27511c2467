"""Closed-loop runner shared by the workloads.

A workload is a list of operations built from a seed.  One caller runs the
list in order, back to back, as whole rounds until the run's seconds are
used up, so every run attempts a whole number of rounds and the share of
failed operations does not depend on the run's length.  Each operation is
timed alone; its output is kept and checked after the timed loop, so the
checks cost no timed time and a failed check never stops the run.

Latency figures are taken over one number per operation: the least of its
latencies over the timed rounds.  Timing noise on a shared machine only ever
adds time, so the least is the figure that repeats from run to run.  A
workload therefore always reports on the same number N of samples, and its
tail is the (N-10)th of them in ascending order, the highest sample with
ten samples beyond it.
"""

from __future__ import annotations

import resource
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional


@dataclass
class Op:
    """One timed call.  `check(output)` returns None when the output is
    right and a reason string otherwise; it may be expensive, because it
    runs outside the timed region (and should cache what it derives).
    `observe`, when given, reduces an output to what `check` needs right
    after the call, outside the timed region, so that a run does not keep
    every round's large outputs alive."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    observe: Optional[Callable[[object], object]] = None


# untimed rounds before the timed ones: one fills sep-stages' neighbour
# caches and warms the interpreter for every workload
WARMUP_ROUNDS = 1


class Raised:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self):
        return "Raised(%s)" % self.text


def call(op: Op, tracer=None, op_id: int = -1):
    """Run one operation; returns (seconds, output)."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
    t0 = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an operation failure, counted and checked later
        out = Raised(exc)
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return dt, out


def run_rounds(ops: List[Op], seconds: float, tracer=None, warmup: int = WARMUP_ROUNDS):
    """`warmup` whole rounds, then whole rounds until `seconds` of timed
    operation time have passed (at least one).

    Returns (latencies, outputs, timed_seconds).  outputs[i] holds
    operation i's output from every round, warm-up included; latencies[i],
    timed_seconds and the tracer, if any, cover the rounds after the
    warm-up.
    """
    lat = [[] for _ in ops]
    outs = [[] for _ in ops]
    timed = 0.0
    rounds = 0
    while rounds <= warmup or timed < seconds:
        for i, op in enumerate(ops):
            dt, out = call(op, tracer if rounds >= warmup else None, i)
            if op.observe is not None and not isinstance(out, Raised):
                out = op.observe(out)
            outs[i].append(out)
            if rounds >= warmup:
                lat[i].append(dt)
                timed += dt
        rounds += 1
    return lat, outs, timed


def check_outputs(ops: List[Op], outs):
    """(raised, rejected): one line per operation instance that raised, and
    one per output that its check rejected.  A check that raises rejects
    the output it was given."""
    raised, rejected = [], []
    for op, got in zip(ops, outs):
        for k, out in enumerate(got):
            where = "%s (round %d)" % (op.name, k + 1)
            if isinstance(out, Raised):
                raised.append("%s: raised %s" % (where, out.text))
                continue
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = "check raised %r" % (exc,)
            if reason is not None:
                rejected.append("%s: %s" % (where, reason))
    return raised, rejected


def latency_figures(lat):
    """(p50, tail, tail percentile, N) over the per-operation least
    latencies."""
    per_op = sorted(min(x) for x in lat)
    n = len(per_op)
    if n < 11:
        raise ValueError("a workload needs at least 11 operations for a tail")
    return statistics.median(per_op), per_op[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
