"""Finite-window primitives for lazily described, locally finite (multi)graphs.

A graph here is an oracle: you can ask whether a vertex exists and what its
neighbours are (with multiplicities), and that is all.  Everything downstream
(component counting, end counting, Eulerian checks) works through finite
windows -- balls around a basepoint -- plus certificates that promise the
window was large enough.

Vertices are plain ints.  Edges are named by (u, v, slot) with u <= v, slot
distinguishing parallel copies.  A loop is (v, v, slot) and counts twice for
degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

VertexId = int


class EdgeRef(NamedTuple):
    u: VertexId
    v: VertexId
    slot: int = 0


def edge(u: VertexId, v: VertexId, slot: int = 0) -> EdgeRef:
    """Canonical edge reference: endpoints sorted, slot >= 0."""
    if slot < 0:
        raise InvalidEdge("slot must be >= 0, got %r" % (slot,))
    if u > v:
        u, v = v, u
    return EdgeRef(u, v, slot)


EdgeSet = FrozenSet[EdgeRef]


def edge_set(edges: Iterable[EdgeRef]) -> EdgeSet:
    return frozenset(edge(*e) for e in edges)


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

class GraphError(Exception):
    pass


class InvalidVertex(GraphError):
    """Raised with the vertex that is not in the graph as its argument."""

    def __str__(self):
        return "vertex %s is not in the graph" % (self.args[0],)


class InvalidEdge(GraphError):
    pass


class NotASimplePath(GraphError):
    pass


class NotAShell(GraphError):
    pass


class KindScheduleMismatch(GraphError):
    pass


class UnsoundCertificateDetected(GraphError):
    """A certificate contradicted something positively observed in the graph."""


class NoExtension(GraphError):
    """No neighbour of the path tip survives into an infinite component."""


class ArityMismatch(GraphError):
    pass


class UnboundVariable(GraphError):
    pass


# ---------------------------------------------------------------------------
# the out-of-fuel answer and fuel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Unknown:
    """Out-of-fuel answer: the search ran out of budget before it could
    answer definitely.  It never contradicts a definite answer.

    Deliberately not truthy, so `if decide(...)` cannot read it as True:
    test `isinstance(x, Unknown)` or compare with `is True` / `is False`.
    """

    fuel_spent: int = 0

    def __bool__(self):
        raise TypeError("Unknown has no truth value; test isinstance(x, Unknown)")


@dataclass(frozen=True)
class Fuel:
    """Search budget.  max_radius bounds window sizes, max_steps bounds visits."""

    max_radius: int = 64
    max_steps: int = 400_000

    def __post_init__(self):
        if self.max_radius < 1 or self.max_steps < 1:
            raise ValueError("fuel must be positive")


@dataclass(frozen=True)
class EndsCertificate:
    """Promise: the graph has exactly `ends` ends and removing `witness`
    leaves exactly `ends` infinite components (maximal separation)."""

    ends: int
    witness: EdgeSet = frozenset()

    def __post_init__(self):
        if self.ends < 1:
            raise ValueError("a connected infinite graph has at least one end")
        object.__setattr__(self, "witness", edge_set(self.witness))


# ---------------------------------------------------------------------------
# the oracle interface
# ---------------------------------------------------------------------------

class GraphOracle:
    """Lazily described connected infinite multigraph.

    Subclasses implement `contains` and `_neighbors`; `neighbors` memoizes.
    `_neighbors(v)` returns [(w, multiplicity)] sorted by w; a loop shows up
    as (v, m).  `contains` must never change over an oracle's lifetime:
    `neighbors` validates a vertex only when it misses the cache, so only
    members are ever cached and a non-member raises InvalidVertex on every
    call.  Neighbours never change, so a decision window depends on a removal
    only through its cover radius r0, and the oracle keeps the last one built.

    `outward_growing` is an opt-in structural promise: every vertex has a
    neighbour strictly farther from the basepoint.  It implies that any
    vertex escaping beyond the radius of a finite removed edge set lies in
    an infinite component, which the path machinery uses as a cheap positive
    witness.  Leave it False unless you can prove it.  To actually unlock
    that shortcut the oracle must also answer `base_distance`, since walking
    outward only helps if we can tell how far out we are without a global
    search.
    """

    basepoint: VertexId = 0
    outward_growing: bool = False

    def __init__(self):
        self._nbr_cache: Dict[VertexId, List[Tuple[VertexId, int]]] = {}
        self._window: tuple = (None, None)  # ((cert, r0, fuel), window)

    def contains(self, v: VertexId) -> bool:
        raise NotImplementedError

    def _neighbors(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        raise NotImplementedError

    def neighbors(self, v: VertexId) -> List[Tuple[VertexId, int]]:
        got = self._nbr_cache.get(v)
        if got is None:
            if not self.contains(v):
                raise InvalidVertex(v)
            got = sorted(self._neighbors(v))
            self._nbr_cache[v] = got
        return got

    def base_distance(self, v: VertexId) -> Optional[int]:
        """Distance from the basepoint in closed form, or None if the oracle
        cannot say without searching.  When implemented it must agree with
        BFS distance exactly."""
        return None


def degree(g: GraphOracle, v: VertexId) -> int:
    """Degree with multiplicities; loops count twice."""
    d = 0
    for w, m in g.neighbors(v):
        d += 2 * m if w == v else m
    return d


def edges_at(g: GraphOracle, v: VertexId) -> List[EdgeRef]:
    """All edge references incident to v (each parallel copy separately)."""
    out = []
    for w, m in g.neighbors(v):
        for s in range(m):
            out.append(edge(v, w, s))
    # loops appear once in neighbors but the edge() above already dedups
    return sorted(set(out))


def multiplicity(g: GraphOracle, u: VertexId, v: VertexId) -> int:
    for w, m in g.neighbors(u):
        if w == v:
            return m
    return 0


def check_edge(g: GraphOracle, e: EdgeRef) -> EdgeRef:
    """Validate an edge reference against the oracle; returns canonical form."""
    e = edge(*e)
    if not g.contains(e.u) or not g.contains(e.v):
        raise InvalidEdge("endpoint missing: %r" % (e,))
    if e.slot >= multiplicity(g, e.u, e.v):
        raise InvalidEdge("no such parallel copy: %r" % (e,))
    return e


def check_edge_set(g: GraphOracle, es: Iterable[EdgeRef]) -> EdgeSet:
    return frozenset(check_edge(g, e) for e in es)


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    center: VertexId
    radius: int
    vertices: FrozenSet[VertexId]
    edges: EdgeSet
    distances: Dict[VertexId, int] = field(hash=False, compare=False, default_factory=dict)


def ball(g: GraphOracle, center: VertexId, radius: int) -> Ball:
    """Induced ball: vertices within `radius` of center, all edges among them."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dist = distances_from(g, center, radius)
    verts = frozenset(dist)
    return Ball(center, radius, verts, edges_among(g, verts), dist)


def edges_among(g: GraphOracle, verts) -> EdgeSet:
    """Every edge copy, loops included, with both endpoints in `verts`."""
    return frozenset(EdgeRef(v, w, s) for v in verts for w, m in g.neighbors(v)
                     if w >= v and w in verts for s in range(m))


CutIndex = Dict[VertexId, Dict[VertexId, int]]


def cut_index(removed: EdgeSet) -> CutIndex:
    """The removed-edge index a search of G minus `removed` reads, built
    without the oracle: v -> {w: c} at both ends of each removed edge, where
    slots 0..c-1 of the pair v-w are all in `removed`.  A pair of
    multiplicity m is cut, every copy gone, exactly when m <= c."""
    cut: CutIndex = {}
    for u, v, _s in removed:
        c = 0
        while u <= v and (u, v, c) in removed:  # edges are named with u <= v
            c += 1
        if c:
            cut.setdefault(u, {})[v] = c
            cut.setdefault(v, {})[u] = c
    return cut


def bfs_layers(g: GraphOracle, source: VertexId, cut: CutIndex):
    """The vertices at distance 0, 1, 2, ... from `source` in G minus the
    edges indexed by `cut` (see `cut_index`; {} removes none), one list per
    layer, each expanded only when asked for."""
    seen = {source}
    layer = [source]
    while layer:
        yield layer
        nxt = []
        for v in layer:
            gone = cut.get(v)
            for w, m in g.neighbors(v):
                if w in seen or (gone and m <= gone.get(w, 0)):
                    continue
                seen.add(w)
                nxt.append(w)
        layer = nxt


def distances_from(g: GraphOracle, source: VertexId, max_radius: int,
                   avoid_edges: EdgeSet = frozenset()) -> Dict[VertexId, int]:
    """BFS distances within max_radius, optionally not using avoid_edges."""
    g.neighbors(source)  # InvalidVertex for a non-member
    layers = islice(bfs_layers(g, source, cut_index(avoid_edges)), max(max_radius, 0) + 1)
    return {v: d for d, layer in enumerate(layers) for v in layer}


def bounded_distance(g: GraphOracle, a: VertexId, b: VertexId, max_radius: int,
                     max_steps: Optional[int] = None) -> Optional[int]:
    """Distance from a to b by a two-sided BFS, or None when out of reach.

    Each round the side that has seen fewer vertices (a's on a tie) pulls
    one more layer.  The first layer that meets the other side's seen
    vertices ends the search: the two balls were disjoint until then, so
    the distance is the sum of their radii.  The radius bounds each side,
    not the distance, so the answer can reach 2 * max_radius; a smaller
    side that cannot grow any more ends the search with None.  Every
    neighbour scanned is one step, charged for a whole layer before it is
    expanded; past max_steps steps the search gives up with None.
    """
    if a == b:
        return 0
    walks = (bfs_layers(g, a, {}), bfs_layers(g, b, {}))
    rims = [next(walks[0]), next(walks[1])]
    seen = (set(rims[0]), set(rims[1]))
    depth = [0, 0]
    steps = 0
    while True:
        i = 0 if len(seen[0]) <= len(seen[1]) else 1
        if depth[i] >= max_radius:
            return None
        steps += sum(len(g.neighbors(v)) for v in rims[i])
        if max_steps is not None and steps > max_steps:
            return None
        rims[i] = next(walks[i], None)
        if rims[i] is None:
            return None
        depth[i] += 1
        if not seen[1 - i].isdisjoint(rims[i]):
            return depth[0] + depth[1]
        seen[i].update(rims[i])


# ---------------------------------------------------------------------------
# finite component decomposition
# ---------------------------------------------------------------------------

def finite_components(vertices: Iterable[VertexId], edges: Iterable[EdgeRef],
                      removed: Iterable[EdgeRef] = ()) -> List[FrozenSet[VertexId]]:
    """Connected components of the finite graph (vertices, edges - removed).

    Every input vertex appears in the partition; vertices whose edges were all
    removed come out as singletons.  Edges with an endpoint outside `vertices`
    are ignored.  Components are sorted by their least vertex.
    """
    verts = set(vertices)
    gone = edge_set(removed)
    sets = DisjointSets(verts)
    for e in edges:
        e = edge(*e)
        if e not in gone and e.u in verts and e.v in verts:
            sets.union(e.u, e.v)
    return sorted((frozenset(c) for c in sets.classes().values()), key=min)


def edge_induced_vertices(edges: Iterable[EdgeRef]) -> FrozenSet[VertexId]:
    """Vertex set of an edge-induced subgraph: endpoints only."""
    vs = set()
    for e in edges:
        vs.add(e.u)
        vs.add(e.v)
    return frozenset(vs)


class DisjointSets:
    """Union-find over ints with path compression (Tarjan, "Efficiency of a
    good but not linear set union algorithm", 1975).  `union` keeps the
    smaller root, so each class is named by its least member."""

    def __init__(self, items: Iterable[int] = ()):
        self.parent = {x: x for x in items}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Join the classes of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True

    def classes(self) -> Dict[int, List[int]]:
        """Root -> members, each list in insertion order."""
        out: Dict[int, List[int]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(b: Ball, removed: Iterable[EdgeRef] = (), name: str = "ball") -> str:
    """Graphviz rendering of a ball; removed edges drawn dashed.

    Parallel edges are drawn individually so multigraph structure is visible.
    """
    gone = edge_set(removed)
    lines = ["graph %s {" % name]
    lines.append('  label="center=%d radius=%d";' % (b.center, b.radius))
    for v in sorted(b.vertices):
        shape = "doublecircle" if v == b.center else "circle"
        lines.append('  "%d" [shape=%s, label="%d"];' % (v, shape, v))
    for e in sorted(b.edges):
        style = ' [style=dashed, color=red]' if e in gone else ""
        lines.append('  "%d" -- "%d"%s;' % (e.u, e.v, style))
    lines.append("}")
    return "\n".join(lines)
