"""graphends benchmark: one seeded workload per process, one closed loop.

    python3 bench/run.py --workload sep-stages --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and the brute-force recounts from `tests/`.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `failed` counts the operations that raised or whose output
a check rejected, `correct` is false when a check rejected an output, and
the exit code is 1 when any operation failed.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced run reports the per-layer
ones (see README.md).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = {
    "sep-stages": "sep_stages",
    "cli-windows": "cli_windows",
    "logic-battery": "logic_battery",
}
SETUP_REPEATS = 5


def _paths_ok() -> bool:
    return all(os.path.isfile(os.path.join(ROOT, *p)) for p in (
        ("src", "graphends", "__init__.py"), ("tests", "_brute.py"), ("tests", "_brute_auto.py")))


def _time_import() -> float:
    """Seconds for one fresh `import graphends` (all submodules)."""
    for name in [n for n in sys.modules if n == "graphends" or n.startswith("graphends.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    importlib.import_module("graphends")
    return perf_counter() - t0


def setup(workload_module: str, seed: int):
    """Import the package and build the inputs SETUP_REPEATS times; returns
    (median import + median build seconds, workload module, last ops).
    The garbage of the previous repeat is collected before each one is
    timed, as a fresh process would have none (see README.md)."""
    imports = [_time_import() for _ in range(SETUP_REPEATS)]
    wl = importlib.import_module(workload_module)
    builds = []
    for _ in range(SETUP_REPEATS):
        ops = None
        gc.collect()
        t0 = perf_counter()
        ops = wl.build(seed)
        builds.append(perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), wl, ops


def measure(wl, ops, seconds):
    """End-to-end metrics of an untraced closed-loop run."""
    from harness import WARMUP_ROUNDS, check_outputs, latency_figures, peak_rss_mb, run_rounds

    lat, outs, timed = run_rounds(ops, seconds)
    rss = peak_rss_mb()
    raised, rejected = check_outputs(ops, outs)
    p50, tail, pct, n = latency_figures(lat)
    attempted = sum(len(x) for x in outs)
    print("rounds %d (%d warm-up), %d operations per round, tail = p%.1f of %d "
          "per-operation figures" % (len(outs[0]), WARMUP_ROUNDS, len(ops), pct, n))
    metrics = {
        "ops_per_s": (sum(len(x) for x in lat) / timed, "op/s"),
        "op_p50_ms": (p50 * 1000.0, "ms"),
        "op_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return attempted, raised, rejected, metrics


def traced(wl, seed, seconds, label):
    """Pairs of (untraced, traced) timed rounds until `seconds` have
    passed, each on freshly built inputs after the workload's warm-up; the
    per-layer figures come from the traced rounds, counts from the first one
    (they repeat exactly), self times as medians.  Spans of the first traced
    round are written to bench/out/."""
    from harness import check_outputs, run_rounds
    from tracing import Tracer, per_layer_metrics

    walls = ([], [])
    first = None
    self_s = {}
    attempted = 0
    raised, rejected = [], []
    t_start = perf_counter()
    while not walls[1] or perf_counter() - t_start < seconds:
        for kind in (0, 1):
            ops = wl.build(seed)
            tracer = Tracer() if kind else None
            if tracer:
                tracer.install()
            try:
                lat, outs, timed = run_rounds(ops, 0.0, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            walls[kind].append(timed)
            attempted += sum(len(x) for x in outs)
            r, j = check_outputs(ops, outs)
            raised += r
            rejected += j
            if not tracer:
                continue
            summary = tracer.summary()
            for name, (calls, s) in summary.items():
                self_s.setdefault(name, []).append(s)
            counts = ({n: c for n, (c, _s) in summary.items()}, dict(tracer.counts))
            if first is None:
                first = (summary, counts)
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.write(os.path.join(OUT_DIR, "trace-%s.tsv.gz" % label))
            elif counts != first[1]:
                rejected.append("traced round %d: per-layer counts differ from round 1"
                                % len(walls[1]))
    summary = {n: (first[0][n][0], statistics.median(v)) for n, v in self_s.items()}
    overhead = statistics.median(walls[1]) - statistics.median(walls[0])
    print("traced %d round pairs; untraced %.3fs, traced %.3fs per round"
          % (len(walls[1]), statistics.median(walls[0]), statistics.median(walls[1])))
    return attempted, raised, rejected, per_layer_metrics(summary, first[1][1], overhead)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not _paths_ok():
        print("error: run from a graphends checkout (needs src/graphends, "
              "tests/_brute.py and tests/_brute_auto.py next to bench/)", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

    setup_s, wl, ops = setup(WORKLOADS[args.workload], args.seed)
    if args.trace:
        del ops
        label = "%s-seed%d" % (args.workload, args.seed)
        attempted, raised, rejected, metrics = traced(wl, args.seed, args.seconds, label)
    else:
        attempted, raised, rejected, metrics = measure(wl, ops, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for line in raised[:50]:
        print("FAILED %s" % line)
    for line in rejected[:50]:
        print("WRONG %s" % line)
    result = {
        "correct": not rejected,
        "attempted": attempted,
        "failed": len(raised) + len(rejected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if raised or rejected else 0


if __name__ == "__main__":
    sys.exit(main())
