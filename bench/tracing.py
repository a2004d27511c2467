"""Span tracing around the public entry points of each graphends layer.

The tracer patches functions from outside the package: every module that
binds an entry point by name gets the wrapper, so calls made through
`from .separation import decide_comp` are seen as well as calls made
through the module.  A span records its name, its parent span and the
operation it belongs to; spans stay in memory (compact arrays) until the
run ends and are then written out.  Self time is a span's duration minus
the durations of its direct child spans, so it excludes time spent in
other traced entry points.  The wrappers' own cost lands in the caller's
self time; the run reports the total as tracing overhead.

Extra counts (cache misses, ball sizes, automaton sizes) are taken at the
same boundaries.  Nothing under `src/` changes.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (metric prefix, graphends module, attribute path) of every traced entry
# point.  `gadgets.oracle` is handled apart: it covers the `contains` and
# `_neighbors` overrides of every oracle class, the documented subclass
# interface.
ENTRY_POINTS = (
    ("graph_core.neighbors", "graph_core", "GraphOracle.neighbors"),
    ("graph_core.distances_from", "graph_core", "distances_from"),
    ("graph_core.ball", "graph_core", "ball"),
    ("graph_core.finite_components", "graph_core", "finite_components"),
    ("gadgets.parse_graph_spec", "gadgets", "parse_graph_spec"),
    ("separation.reach_edges", "separation", "reach_edges"),
    ("separation.comp_approx", "separation", "comp_approx"),
    ("separation.sepmax_witness_from_ends", "separation", "sepmax_witness_from_ends"),
    ("separation.decide_comp", "separation", "decide_comp"),
    ("separation.boundary_partition", "separation", "boundary_partition"),
    ("separation.comp_counter", "separation", "comp_counter"),
    ("paths.decide_extendable", "paths", "decide_extendable"),
    ("paths.greedy_infinite_path", "paths", "greedy_infinite_path"),
    ("eulerian.check_two_way", "eulerian", "check_two_way"),
    ("eulerian.cycle_space_basis", "eulerian", "cycle_space_basis"),
    ("eulerian.even_inducing_sets", "eulerian", "even_inducing_sets"),
    ("automatic.counting_project", "automatic", "counting_project"),
    ("automatic.Dfa.minimized", "automatic", "Dfa.minimized"),
    ("automatic.Dfa.product", "automatic", "Dfa.product"),
    ("automatic.project_exists", "automatic", "project_exists"),
    ("automatic.normalize_presentation", "automatic", "normalize_presentation"),
    ("cli.main", "cli", "main"),
)
ORACLE = "gadgets.oracle"
FOLDED = ("graph_core.neighbors", ORACLE)

# extra per-layer counts, each summed over the calls of its entry point
EXTRA_COUNTS = (
    "graph_core.neighbors.misses",
    "graph_core.ball.vertices",
    "eulerian.even_inducing_sets.sets",
    "automatic.Dfa.minimized.states_in",
    "automatic.Dfa.minimized.states_out",
    "automatic.Dfa.product.states",
)


def span_names():
    return [name for name, _mod, _attr in ENTRY_POINTS] + [ORACLE]


class Tracer:
    """Collects spans while `active`; `install` patches, `uninstall` restores.

    Spans are stored in compact arrays with their parent span and operation
    id.  Oracle-level calls (`FOLDED`) run in the millions per round, so
    they are folded into one record per (operation, enclosing span, name)
    holding their call count and total time.  Calls and self time per entry
    point are accumulated as each span closes.
    """

    def __init__(self):
        self.names = span_names()
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self._folded_ids = {self._name_id[n] for n in FOLDED}
        self.span_name = array("h")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.folded = {}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self._stack = []
        self._patched = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid):
        """Push a frame [name, start, child seconds, own span, parent span]."""
        stack = self._stack
        if stack:
            top = stack[-1]
            parent = top[3] if top[3] >= 0 else top[4]
        else:
            parent = -1
        idx = -1
        if nid not in self._folded_ids:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [nid, 0.0, 0.0, idx, parent]
        stack.append(frame)
        return frame

    def _close(self, frame, t1):
        nid, t0, child, idx, parent = frame
        self._stack.pop()
        dur = t1 - t0
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = t0
            self.span_end[idx] = t1
        else:
            rec = self.folded.setdefault((self.op_id, parent, nid), [0, 0.0])
            rec[0] += 1
            rec[1] += dur

    def _wrap(self, name, fn, before=None, after=None):
        nid = self._name_id[name]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args)
            frame = tracer._open(nid)
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter())
            if after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every entry point wherever graphends binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for _name, modname, _attr in ENTRY_POINTS:
            importlib.import_module("graphends." + modname)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "graphends" or n.startswith("graphends."))]
        for name, modname, attr in ENTRY_POINTS:
            home = sys.modules["graphends." + modname]
            before, after = _HOOKS.get(name, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], before, after))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapped)
        base = sys.modules["graphends.graph_core"].GraphOracle
        for cls in _all_subclasses(base):
            for meth in ("contains", "_neighbors"):
                if meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(ORACLE, cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """{name: (calls, self seconds)} for every traced entry point."""
        return {name: (self.calls[k], self.self_s[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """Spans and folded records as gzip'd tab-separated lines.  Times are
        perf_counter seconds; a folded record has no start or end, only its
        call count and total seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("kind\top\tspan\tparent\tname\tcalls\tstart\tend\tseconds\n")
            for i in range(len(self.span_start)):
                t0, t1 = self.span_start[i], self.span_end[i]
                fh.write("span\t%d\t%d\t%d\t%s\t1\t%.9f\t%.9f\t%.9f\n" % (
                    self.span_op[i], i, self.span_parent[i],
                    self.names[self.span_name[i]], t0, t1, t1 - t0))
            for (op, parent, nid), (calls, secs) in sorted(self.folded.items()):
                fh.write("fold\t%d\t-\t%d\t%s\t%d\t-\t-\t%.9f\n" % (
                    op, parent, self.names[nid], calls, secs))


def _all_subclasses(cls):
    out = []
    todo = list(cls.__subclasses__())
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return sorted(set(out), key=lambda c: (c.__module__, c.__qualname__))


def _neighbors_before(counts, args):
    oracle, v = args[0], args[1]
    if v not in oracle._nbr_cache:
        counts["graph_core.neighbors.misses"] += 1


def _ball_after(counts, _args, result):
    counts["graph_core.ball.vertices"] += len(result.vertices)


def _even_sets_after(counts, _args, result):
    counts["eulerian.even_inducing_sets.sets"] += len(result)


def _minimized_before(counts, args):
    counts["automatic.Dfa.minimized.states_in"] += len(args[0].states)


def _minimized_after(counts, _args, result):
    counts["automatic.Dfa.minimized.states_out"] += len(result.states)


def _product_after(counts, _args, result):
    counts["automatic.Dfa.product.states"] += len(result.states)


_HOOKS = {
    "graph_core.neighbors": (_neighbors_before, None),
    "graph_core.ball": (None, _ball_after),
    "eulerian.even_inducing_sets": (None, _even_sets_after),
    "automatic.Dfa.minimized": (_minimized_before, _minimized_after),
    "automatic.Dfa.product": (None, _product_after),
}


def per_layer_metrics(summary, counts, overhead_s):
    """The per-layer metric dict printed by a traced run."""
    out = {}
    for name in span_names():
        calls, self_s = summary[name]
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
    for name in EXTRA_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    calls = summary["graph_core.neighbors"][0]
    misses = counts.get("graph_core.neighbors.misses", 0)
    out["graph_core.neighbors.hit_ratio"] = (1 - misses / calls if calls else 0.0, "ratio")
    s_in = counts.get("automatic.Dfa.minimized.states_in", 0)
    s_out = counts.get("automatic.Dfa.minimized.states_out", 0)
    out["automatic.Dfa.minimized.kept_ratio"] = (s_out / s_in if s_in else 0.0, "ratio")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out
