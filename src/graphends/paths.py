"""Extending finite simple paths to infinite ones.

A finite simple path extends to an infinite simple path exactly when some
neighbour of its tip, off the path, lies in an infinite component of G minus
the path's vertices.  The separation machinery answers that component
question from an ends certificate, by one of two routes:

* the decision window, always available and exact, but built from balls
  around the basepoint -- fine on thin graphs, hopeless on exponentially
  growing ones.  `decide_extendable` searches it from the path's tip, the
  greedy builder from each candidate, up to the first exit;

* an outward escape search, when the oracle is `outward_growing` and knows
  `base_distance`: repeatedly expand the reachable vertex farthest from the
  basepoint.  Once it pops a vertex at distance D+2 or more, D being the
  farthest path vertex, outwardness yields a ray of strictly increasing
  distances that dodges the path -- infinite.  If it drains, the component
  was enumerated in full -- finite.  Only the step budget forces Unknown.

The greedy builder appends the least such neighbour, never retracting.  It
carries its state from step to step: vertices found finite stay finite, and
a window is rebuilt at about twice its radius only when the path outgrows
it, so a path of L edges builds O(log L) windows.

The tree reduction runs the opposite direction: on trees, a path-extension
oracle decides separation.  Testing the two-vertex paths [u, v] right at the
removal is not enough -- the extension witnessing [u, v] may wander through
other removed edges and die there.  Instead we first walk u's surviving
component out past every endpoint of the removed set; branches hanging off
that horizon are untouched by the removal, so on them the path oracle's
answer and the component's fate coincide.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, List, Optional, Tuple, Union

from .graph_core import (
    EndsCertificate,
    Fuel,
    GraphError,
    GraphOracle,
    InvalidVertex,
    NoExtension,
    NotASimplePath,
    Unknown,
    VertexId,
    bfs_layers,
    check_edge_set,
    distances_from,
    edge_induced_vertices,
)
from .separation import _check_certificate, _window_at
from .separation import boundary_partition  # unused: bench/test_checks.py reads it here

__all__ = [
    "SimplePath",
    "check_simple_path",
    "decide_extendable",
    "greedy_infinite_path",
    "tree_sep_from_path",
]


@dataclass(frozen=True)
class SimplePath:
    """A finite simple path, stored as its vertex sequence.

    Structural invariants (non-empty, no repeated vertex) are enforced here;
    adjacency of consecutive vertices needs the oracle and is checked by
    `check_simple_path`.
    """

    vertices: Tuple[VertexId, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise NotASimplePath("a path has at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise NotASimplePath("repeated vertex: %r" % (self.vertices,))

    @property
    def tip(self) -> VertexId:
        return self.vertices[-1]

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def extended(self, v: VertexId) -> "SimplePath":
        return SimplePath(self.vertices + (v,))


def check_simple_path(g: GraphOracle, p) -> SimplePath:
    """Coerce a SimplePath or vertex sequence and verify it against g."""
    if not isinstance(p, SimplePath):
        p = SimplePath(tuple(p))
    for v in p.vertices:
        if not g.contains(v):
            raise InvalidVertex(v)
    for a, b in zip(p.vertices, p.vertices[1:]):
        if not any(w == b for w, _ in g.neighbors(a)):
            raise NotASimplePath("%r and %r are not adjacent" % (a, b))
    return p


class _Blocked:
    """G minus the vertices of a simple path growing at its tip: `finite`
    vertices, base distances off one resumed walk, the farthest one `far` on
    the graded route (None off it), and on the window route the cover radius
    r0, the `exits` of the window kept at `radius` and the `escape` to one."""

    def __init__(self, g: GraphOracle, cert: EndsCertificate, fuel: Fuel, start: VertexId):
        self.g, self.cert, self.fuel = g, cert, fuel
        self.path, self.on_path, self.finite = [start], {start}, set()
        self.far = g.base_distance(start) if g.outward_growing else None
        self.walk, self.dist, self.depth = bfs_layers(g, g.basepoint, {}), {}, -1
        self.r0 = self.radius = self.exits = None
        self.escape: List[VertexId] = []  # the tip's way on to an exit, reversed

    def _cover(self, xs, r: Optional[int]) -> Optional[int]:
        """max(r, the base distance of each x), read off one resumed walk;
        None past fuel.max_radius."""
        for x in xs:
            while x not in self.dist and self.depth < self.fuel.max_radius:
                self.depth += 1
                self.dist.update(dict.fromkeys(next(self.walk, ()), self.depth))
            if r is None or x not in self.dist:
                return None
            r = max(r, self.dist[x])
        return r

    def _around(self, vs):
        """The vertices vs and their neighbours: the ends of every edge at vs."""
        return chain(vs, (w for v in vs for w, _ in self.g.neighbors(v)))

    def add(self, v: VertexId) -> None:
        self.path.append(v)
        self.on_path.add(v)
        if self.far is not None:
            d = self.g.base_distance(v)
            self.far = None if d is None else max(self.far, d)
        if self.exits is not None:
            self.r0 = self._cover(self._around((v,)), self.r0)

    def escapes(self, w: VertexId) -> Union[bool, Unknown]:
        """Is w, off the path, in an infinite component of G minus the path's
        vertices?  A path vertex w asks the same of its off-path neighbours.
        The graded search, or a search of a window holding r0 and every
        edge at w, up to its first exit, the only way out.  The first
        window is built at that radius; one outgrown at radius R gives way
        to one at max(r0, min(2R, max_radius - 1)).  The search goes depth
        first, least neighbour first, and keeps the way it found: while the
        window stays, its rest certifies the next vertex on it."""
        if self.far is not None:
            return _escapes_outward(self.g, self.on_path, w, self.far + 2, self.fuel)
        if self.exits is None:
            _check_certificate(self.g, self.cert)
            r = self._cover(edge_induced_vertices(self.cert.witness), 1)
            self.r0 = self._cover(self._around(self.path), r)
        need = self._cover(self._around((w,)), self.r0)
        if self.exits is None or need is None or need > self.radius:
            if self.exits is not None and need is not None:
                need = max(need, min(2 * self.radius, self.fuel.max_radius - 1))
            win = _window_at(self.g, need, self.cert, self.fuel)
            if isinstance(win, Unknown):
                return win
            self.radius, self.exits, self.escape = need, frozenset().union(*win[1]), []
        if self.escape and self.escape[-1] == w:
            self.escape.pop()
            return True
        came, todo = {}, [(w, w)]  # vertex -> the one it was reached from
        while todo:
            x, via = todo.pop()
            if x in came:
                continue
            came[x] = via
            if x in self.exits:
                self.escape = []
                while x != w:
                    self.escape.append(x)
                    x = came[x]
                return True
            if x in self.finite:
                break
            todo.extend((y, x) for y, _ in reversed(self.g.neighbors(x))
                        if y not in came and y not in self.on_path)
        self.finite.update(came)
        return False


def _escapes_outward(g: GraphOracle, blocked, start: VertexId,
                     horizon: int, fuel: Fuel) -> Union[bool, Unknown]:
    """Is start's component of G minus the vertices `blocked` infinite?
    Exact on outward-growing graded oracles; Unknown(fuel.max_steps) when
    the step budget runs dry or the oracle cannot grade a vertex."""
    d0 = g.base_distance(start)
    if d0 is None:
        return Unknown(fuel.max_steps)
    seen = {start}
    heap = [(-d0, start)]
    steps = 0
    while heap:
        steps += 1
        if steps > fuel.max_steps:
            return Unknown(fuel.max_steps)
        negd, v = heapq.heappop(heap)
        if -negd >= horizon:
            return True
        for w, _ in g.neighbors(v):
            if w in seen or w in blocked:
                continue
            dw = g.base_distance(w)
            if dw is None:
                return Unknown(fuel.max_steps)
            seen.add(w)
            heapq.heappush(heap, (-dw, w))
    return False


def decide_extendable(g: GraphOracle, p, cert: EndsCertificate,
                      fuel: Fuel = Fuel()) -> Union[bool, Unknown]:
    """Does the finite simple path p extend to an infinite simple path?

    True iff some neighbour of the final vertex, off the path, lies in an
    infinite component of G minus p's vertices, False if none does, and
    Unknown when the escape search or the window runs out of fuel.
    """
    p = check_simple_path(g, p)
    candidates = sorted(w for w, _ in g.neighbors(p.tip) if w not in p.vertices)
    if not candidates:
        return False
    ext = _Blocked(g, cert, fuel, p.vertices[0])
    for v in p.vertices[1:]:
        ext.add(v)
    if ext.far is None:
        return ext.escapes(p.tip)  # every edge at the tip lies in the window
    starved = None
    for w in candidates:
        verdict = ext.escapes(w)
        if verdict is True:
            return True
        if isinstance(verdict, Unknown):
            starved = verdict
    return False if starved is None else starved


def greedy_infinite_path(g: GraphOracle, start: VertexId,
                         cert: EndsCertificate, length: int,
                         fuel: Fuel = Fuel()) -> Union[SimplePath, Unknown]:
    """Grow a simple path of `length` edges from `start`, never retracting.

    Each step appends the least neighbour w of the tip in an infinite
    component of G minus the path's vertices: exactly when the path plus w
    extends.  Raises NoExtension only on an unsound certificate: with
    finitely many ends an extendable path has an extendable extension.
    """
    if not g.contains(start):
        raise InvalidVertex(start)
    if length < 0:
        raise GraphError("length must be >= 0")
    ext = _Blocked(g, cert, fuel, start)
    while len(ext.path) <= length:
        for w, _ in g.neighbors(ext.path[-1]):
            if w in ext.on_path or all(x in ext.on_path or x == w for x, _ in g.neighbors(w)):
                continue  # on the path, or a dead end: no window needed
            t = ext.escapes(w)
            if isinstance(t, Unknown):
                return t
            if t:
                ext.add(w)
                break
        else:
            raise NoExtension(
                "no extendable neighbour at %r after %d edges; the ends "
                "certificate must be unsound" % (ext.path[-1], len(ext.path) - 1))
    return SimplePath(tuple(ext.path))


def _tree_layers(g: GraphOracle, a: VertexId, targets,
                 fuel: Fuel) -> List[List[VertexId]]:
    """BFS layers from a, up to the first one by which every target has been
    seen; GraphError past fuel.max_radius layers, or once more than
    fuel.max_steps vertices were seen after a layer short of the targets."""
    missing = set(targets)
    layers, reached = [], 0
    for layer in islice(bfs_layers(g, a, {}), fuel.max_radius + 1):
        layers.append(layer)
        missing.difference_update(layer)
        if not missing:
            return layers
        reached += len(layer)
        if reached > fuel.max_steps:
            break
    raise GraphError("no path from %r to %r within fuel; not a connected "
                     "tree or budget too small" % (a, min(missing)))


def _raise_on_cycle(g: GraphOracle, dist, depth: int) -> None:
    """GraphError naming a cycle that BFS distances `dist` show within `depth`
    (all neighbours fetched): a parallel edge, an edge inside a layer, or a
    vertex reached from two closer ones, closed over both walks back."""
    parent = {}
    for x, d in dist.items():
        for w, m in g.neighbors(x) if d <= depth else ():
            if dist.get(w, -1) < d:
                continue
            if m == 1 and dist[w] > d and parent.setdefault(w, x) == x:
                continue  # x is w's first way back to the source
            a, b = [x], ([w] if m == 1 else [w, x])
            for path in (a, b):
                while path[-1] in parent:
                    path.append(parent[path[-1]])
            while len(a) > 1 and len(b) > 1 and a[-2] == b[-2]:
                del a[-1], b[-1]
            raise GraphError("not a tree: cycle %s" % " - ".join(map(str, a + b[-2::-1])))


def tree_sep_from_path(g: GraphOracle, e,
                       path_oracle: Callable[[SimplePath], bool],
                       fuel: Fuel = Fuel()) -> bool:
    """On a tree, decide whether e separates using only a path oracle.

    For each component of the tree minus e (identified by its least
    endpoint), walk it out to one step past every endpoint of e; a branch
    w -> x crossing that horizon is untouched by e, so [w, x] extends to an
    infinite simple path iff the branch -- hence the component -- is
    infinite.  Separating means at least two components come out infinite.
    A walk holds every endpoint of its component, since tree paths are
    unique, so the endpoints it reaches need no walk of their own.  A cycle
    seen on a horizon walk raises GraphError.
    """
    e = check_edge_set(g, e)
    if not e:
        return False
    endpoints = sorted(edge_induced_vertices(e))
    seen = set()
    infinite = 0
    for rep in endpoints:
        if rep in seen:
            continue
        # horizon: one step past the farthest endpoint of e, as seen from rep
        h = len(_tree_layers(g, rep, endpoints, fuel)) - 1
        survived = distances_from(g, rep, h + 1, avoid_edges=e)
        seen.update(survived)
        _raise_on_cycle(g, survived, h)
        frontier = [x for x, d in survived.items() if d == h + 1]
        for x in frontier:
            w = next(w for w, _ in g.neighbors(x) if survived.get(w) == h)
            if path_oracle(SimplePath((w, x))):
                infinite += 1
                break
        if infinite >= 2:
            return True
    return False
