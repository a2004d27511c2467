"""Gadget fixtures with closed-form certificates, and seeded input draws.

Everything here is the benchmark's own code: certificates come from the
families' documented constructions, and removal pools from a plain
breadth-first search over the oracle interface.  No draw is filtered by
asking the library.  Only the rim labels that the brute recount of
`tests/_brute.py` needs come from there.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from graphends import gadgets

from _brute import label_one_end, label_sign, make_rays_label


@dataclass(frozen=True)
class Fixture:
    """One gadget with everything needed to query it and to recount it.

    `make` builds a fresh oracle (cold neighbour cache); `label` classifies
    rim vertices by end for the brute recount, which is valid when all
    schedule decorations lie within `quiet` of the basepoint.
    """

    family: str
    spec: str
    ends: int
    witness: Tuple[Tuple[int, int, int], ...]
    label: Callable
    make: Callable
    quiet: int = 14

    @property
    def witness_literal(self) -> str:
        return edges_literal(self.witness)


def _events_literal(events):
    return "events-all" if events is None else "events@" + ",".join(map(str, events))


def int_line():
    return Fixture("int-line", "int-line", 2, ((-1, 0, 0), (0, 1, 0)), label_sign,
                   gadgets.IntLine)


def cycle_chain(events: Optional[Tuple[int, ...]], quiet: int = 14):
    """events=None fires at every stage: one end.  Otherwise the chain is
    cut past the last event on both sides."""
    sched = gadgets.CeEnumeration(every_stage=True) if events is None \
        else gadgets.CeEnumeration(tuple(events))
    spec = "cycle-chain:" + _events_literal(events)
    make = lambda: gadgets.CycleChain(sched)
    if events is None:
        return Fixture("cycle-chain", spec, 1, (), label_one_end, make, quiet)
    s = events[-1] + 2
    return Fixture("cycle-chain", spec, 2, ((s, s + 1, 0), (-s - 1, -s, 0)),
                   label_sign, make, quiet)


def rays(k: int, events: Optional[Tuple[int, ...]]):
    """Every ray is cut between depths 1 and 2 (packed as k*i + j); a finite
    event set adds the chain cut past the last event."""
    sched = gadgets.CeEnumeration(every_stage=True) if events is None \
        else gadgets.CeEnumeration(tuple(events))
    spec = "rays%d:%s" % (k, _events_literal(events))
    make = lambda: gadgets.CycleChainWithRays(sched, k)
    cuts = [(k + j, 2 * k + j, 0) for j in range(1, k)]
    if events is None:
        return Fixture("rays%d" % k, spec, k, tuple(cuts),
                       make_rays_label(k, lambda _v: "chain"), make)
    s = events[-1] + 2
    cuts += [(k * s, k * (s + 1), 0), (k * (-s - 1), k * (-s), 0)]
    return Fixture("rays%d" % k, spec, k + 1, tuple(cuts),
                   make_rays_label(k, label_sign), make)


def sticks(halt: Optional[int]):
    sched = gadgets.Halting(halt)
    spec = "lines-with-sticks:" + ("never" if halt is None else "halt@%d" % halt)
    w = ((0, 1, 0),) if halt is None else ((halt + 2, halt + 3, 0),)
    return Fixture("lines-with-sticks", spec, 2, w, label_sign,
                   lambda: gadgets.LinesWithSticks(sched))


def delta2(changes: Tuple[int, ...]):
    """Cut both sides past the last change, every parallel copy."""
    sched = gadgets.LimitApprox(tuple(changes))
    spec = "delta2:changes@" + ",".join(map(str, changes))
    s = (max(changes) if changes else 0) + 2
    m = 2 - len(changes) % 2
    w = tuple((s, s + 1, c) for c in range(m)) + tuple((-s - 1, -s, c) for c in range(m))
    return Fixture("delta2", spec, 2, w, label_sign,
                   lambda: gadgets.Delta2TwoEnded(sched))


# The acceptance battery's six families, each with a fixed schedule catalog;
# seeds vary the removals, not the graphs.
CATALOG = {
    "int-line": [int_line()],
    "cycle-chain": [cycle_chain(ev) for ev in
                    ((1,), (2, 5), (1, 2, 3), (2, 4, 7), (5, 9), None)],
    "rays2": [rays(2, ev) for ev in ((1,), (2,), (1, 3), None)],
    "rays3": [rays(3, ev) for ev in ((1,), (2,), (1, 3), None)],
    "lines-with-sticks": [sticks(h) for h in list(range(10)) + [None]],
    "delta2": [delta2(ch) for ch in
               ((), (2,), (1, 4), (2, 5, 9), (1, 2, 3), (1, 3, 5, 7), (2, 4, 6, 8))],
}


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def bfs(g, center, radius):
    dist = {center: 0}
    queue = deque([center])
    while queue:
        v = queue.popleft()
        if dist[v] == radius:
            continue
        for w, _m in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def ball_edges(g, radius):
    """Edges (u, v, slot), u <= v, among the vertices within `radius` of
    the basepoint."""
    dist = bfs(g, g.basepoint, radius)
    out = set()
    for v in dist:
        for w, m in g.neighbors(v):
            if w in dist and w >= v:
                out.update((v, w, s) for s in range(m))
    return sorted(out)


def draw_removal(rng: random.Random, pool):
    """1-3 distinct edges from the pool."""
    return tuple(sorted(rng.sample(pool, rng.randint(1, 3))))


def edges_literal(edges) -> str:
    return ";".join("(%d,%d)" % (u, v) if s == 0 else "(%d,%d,%d)" % (u, v, s)
                    for u, v, s in sorted(edges))


def simple_walk(rng: random.Random, g, start, steps):
    """A random simple path from `start` with up to `steps` edges; it stops
    early when every neighbour of the tip is already on the path."""
    path = [start]
    for _ in range(steps):
        options = [w for w, _m in g.neighbors(path[-1]) if w not in path]
        if not options:
            break
        path.append(rng.choice(sorted(options)))
    return path
