"""sep-stages: staged component approximations through the API.

One removal operation takes a seeded set of 1-3 edges inside the radius-6
ball of one gadget and runs the stage trace comp_approx for n = 0..30, then
decide_comp, then boundary_partition.  Each family of the acceptance
battery gets REMOVALS_PER_FAMILY of them, spread over its schedule catalog;
a graph's oracle is shared by its removals and kept across rounds, so its
neighbour cache stays warm.  The auto-witness operations run the search
behind `--witness auto`: sepmax_witness_from_ends with the staged probe at
the default radius, on cycle chains whose last event lies far out.
"""

from __future__ import annotations

import random
from functools import cache

from graphends import graph_core, separation

import checks
from families import CATALOG, cycle_chain, ball_edges
from harness import Op

REMOVALS_PER_FAMILY = 36
STAGES = 31
AUTO_LAST_EVENTS = tuple(range(34, 61, 2))
AUTO_FIRST_EVENT = 3
DEFAULT_RADIUS = graph_core.Fuel().max_radius


def build(seed: int):
    rng = random.Random(seed)
    ops = []
    for family in sorted(CATALOG):
        catalog = CATALOG[family]
        graphs = [fx.make() for fx in catalog]
        pools = [ball_edges(fx.make(), 6) for fx in catalog]
        for j in range(REMOVALS_PER_FAMILY):
            # sizes 1, 2, 3 in turn on each graph, edges drawn at random
            k = (j // 3) % len(catalog)
            removed = tuple(sorted(rng.sample(pools[k], 1 + j % 3)))
            ops.append(_removal_op(catalog[k], graphs[k], removed))
    for last in AUTO_LAST_EVENTS:
        ops.append(_auto_op(cycle_chain((AUTO_FIRST_EVENT, last), quiet=last + 4)))
    return ops


def _removal_op(fx, g, removed):
    e = graph_core.edge_set(removed)
    cert = graph_core.EndsCertificate(fx.ends, graph_core.edge_set(fx.witness))

    def run():
        trace = [separation.comp_approx(g, e, n) for n in range(STAGES)]
        decided = separation.decide_comp(g, e, cert)
        bp = separation.boundary_partition(g, e, cert)
        return trace, decided, bp

    expected = cache(lambda: checks.recount(fx, removed))

    def check(out):
        inf, stranded = expected()
        trace, decided, bp = out
        why = checks.check_stage_trace(trace, decided, inf)
        if why is None:
            why = checks.check_boundary(bp.infinite_groups, bp.finite_group,
                                        inf, stranded, removed)
        if why is None and fx.family == "lines-with-sticks":
            law = checks.sticks_law(fx.make().schedule.halt_step, removed)
            if law is not None and decided != law:
                why = "radius law says %d, decide_comp %r" % (law, decided)
        return why

    return Op("%s %s %s" % (fx.spec, "stages", removed), run, check)


def _auto_op(fx):
    g = fx.make()
    k = fx.ends

    def run():
        probe = lambda es: separation.comp_approx(g, es, DEFAULT_RADIUS) >= 2
        return separation.sepmax_witness_from_ends(g, k, probe)

    def check(w):
        if isinstance(w, graph_core.Unknown):
            return "no witness within radius %d" % DEFAULT_RADIUS
        try:
            got = separation.decide_comp(fx.make(), w, graph_core.EndsCertificate(k, w))
        except graph_core.GraphError as exc:
            return "witness does not certify: %s" % exc
        if got != k:
            return "witness certifies to %r, promised %d" % (got, k)
        removed = [(e.u, e.v, e.slot) for e in w]
        inf, _ = checks.recount(fx, removed, radius=fx.quiet + 10)
        if inf != k:
            return "witness leaves %d infinite components by recount" % inf
        return None

    return Op("%s auto-witness" % fx.spec, run, check)
