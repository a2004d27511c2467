"""Schedule-driven graph families with tunable end and parity structure.

Each family takes a finite "schedule" describing a staged process (a halting
countdown, a growing stage set, or a 0/1 value that changes finitely often)
and exposes an infinite graph whose large-scale shape -- number of ends,
where the odd-degree vertices sit, which finite edge sets separate -- depends
only on the schedule's limiting behaviour.  They make good stress tests for
the window-based deciders because the interesting structure can be pushed
arbitrarily far from the basepoint.

Vertex packings: families living on a signed line use the integers directly.
The rays family multiplies chain positions by k and stores ray j at k*i + j.
Pairs (used by the comb and by graph products) are packed with the usual
diagonal pairing, signed values folded to naturals first.  Each class
documents its own packing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph_core import (
    GraphOracle,
    GraphError,
    InvalidVertex,
    KindScheduleMismatch,
    Fuel,
    Unknown,
    VertexId,
    bounded_distance,
)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

class Schedule:
    """Base marker for finite schedule descriptions."""


@dataclass(frozen=True)
class Halting(Schedule):
    """A process that either never halts or halts at a fixed step >= 0."""

    halt_step: Optional[int] = None

    def __post_init__(self):
        if self.halt_step is not None and self.halt_step < 0:
            raise ValueError("halt_step must be >= 0 or None")

    def halts_exactly_at(self, s: int) -> bool:
        return self.halt_step == s


@dataclass(frozen=True)
class CeEnumeration(Schedule):
    """A stage set enumerated from below: events happen at stages >= 1.

    every_stage=True is the everywhere-firing extreme (an event at every
    stage >= 1); otherwise the finite tuple lists all event stages.
    """

    event_stages: Tuple[int, ...] = ()
    every_stage: bool = False

    def __post_init__(self):
        stages = tuple(self.event_stages)
        object.__setattr__(self, "event_stages", stages)
        if any(s < 1 for s in stages):
            raise ValueError("event stages start at 1")
        if list(stages) != sorted(set(stages)):
            raise ValueError("event stages must be strictly increasing")
        if self.every_stage and stages:
            raise ValueError("every_stage excludes an explicit stage list")

    def event_at(self, s: int) -> bool:
        if s < 1:
            return False
        if self.every_stage:
            return True
        return s in self.event_stages

    def last_event(self) -> Optional[int]:
        if self.every_stage:
            return None
        return self.event_stages[-1] if self.event_stages else 0


@dataclass(frozen=True)
class LimitApprox(Schedule):
    """A 0/1 value converging in the limit: starts at 0, flips at the listed
    stages (all >= 1, finitely many)."""

    change_stages: Tuple[int, ...] = ()

    def __post_init__(self):
        stages = tuple(self.change_stages)
        object.__setattr__(self, "change_stages", stages)
        if any(s < 1 for s in stages):
            raise ValueError("change stages start at 1")
        if list(stages) != sorted(set(stages)):
            raise ValueError("change stages must be strictly increasing")

    def value_at(self, s: int) -> int:
        if s < 1:
            return 0
        return sum(1 for c in self.change_stages if c <= s) % 2

    @property
    def limit(self) -> int:
        return len(self.change_stages) % 2


def parse_schedule(text: str) -> Schedule:
    """Parse CLI-style schedule literals.

    never | halt@S | events@a,b,c | events@ | events-all | changes@a,b | changes@
    """
    text = text.strip()
    if text == "never":
        return Halting(None)
    if text == "events-all":
        return CeEnumeration(every_stage=True)
    for prefix, maker in (("halt@", None), ("events@", None), ("changes@", None)):
        if text.startswith(prefix):
            body = text[len(prefix):]
            if prefix == "halt@":
                return Halting(int(body))
            nums = tuple(int(x) for x in body.split(",") if x.strip() != "")
            if prefix == "events@":
                return CeEnumeration(nums)
            return LimitApprox(nums)
    raise ValueError("bad schedule literal: %r" % text)


def _want(schedule, cls, family):
    if not isinstance(schedule, cls):
        raise KindScheduleMismatch(
            "%s needs a %s schedule, got %r" % (family, cls.__name__, schedule))
    return schedule


# ---------------------------------------------------------------------------
# pairing helpers
# ---------------------------------------------------------------------------

def _fold(z: int) -> int:
    """Signed -> natural: 0,-1,1,-2,2,... -> 0,1,2,3,4,..."""
    return 2 * z if z >= 0 else -2 * z - 1


def _unfold(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def _pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _unpair(n: int) -> Tuple[int, int]:
    t = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - t * (t + 1) // 2
    return t - b, b


# ---------------------------------------------------------------------------
# plain lines
# ---------------------------------------------------------------------------

class NatLine(GraphOracle):
    """Half-infinite path 0 - 1 - 2 - ...  One end."""

    outward_growing = True

    def contains(self, v: VertexId) -> bool:
        return v >= 0

    def _neighbors(self, v):
        out = [(v + 1, 1)]
        if v >= 1:
            out.append((v - 1, 1))
        return out

    def base_distance(self, v):
        return v if v >= 0 else None


class IntLine(GraphOracle):
    """Two-way infinite path.  Two ends."""

    outward_growing = True

    def contains(self, v: VertexId) -> bool:
        return True

    def _neighbors(self, v):
        return [(v - 1, 1), (v + 1, 1)]

    def base_distance(self, v):
        return abs(v)


# ---------------------------------------------------------------------------
# the chain-of-cycles family and its decorations
# ---------------------------------------------------------------------------

class CycleChain(GraphOracle):
    """Signed line rewired by a stage set.

    Always present: the positive edges (s, s+1) for s >= 0 and, for stages s
    with no event, the negative edges (-s-1, -s).  A stage s >= 1 with an
    event replaces the negative edge (-s-1, -s) by the two chords (-s, s) and
    (-s-1, s), closing a cycle through the origin region.

    Finitely many events: beyond the last one the two rays run free -- two
    ends.  Events at every stage: everything is chained through cycles -- one
    end.  Vertices are the integers themselves.
    """

    def __init__(self, schedule: CeEnumeration):
        super().__init__()
        self.schedule = _want(schedule, CeEnumeration, "CycleChain")

    def contains(self, v: VertexId) -> bool:
        return True

    def _neighbors(self, v):
        ev = self.schedule.event_at
        nbrs: Dict[int, int] = {}

        def add(w):
            nbrs[w] = nbrs.get(w, 0) + 1

        if v >= 0:
            add(v + 1)
            if v >= 1:
                add(v - 1)
            if v >= 1 and ev(v):
                add(-v)
                add(-v - 1)
            if v == 0:
                add(-1)  # (-1, 0) is the stage-0 negative edge; stage 0 never fires
        else:
            a = -v
            if not ev(a):
                add(v - 1)
            else:
                add(a)
            if not ev(a - 1):
                add(v + 1)
            else:
                add(a - 1)
        return list(nbrs.items())


class CycleChainWithRays(GraphOracle):
    """CycleChain with k-1 extra rays glued at the origin.

    Packing: chain position v sits at k*v; ray j in 1..k-1 at depth i >= 1
    sits at k*i + j.  With finitely many events the graph has k+1 ends,
    with events everywhere it has k ends.
    """

    def __init__(self, schedule: CeEnumeration, k: int):
        super().__init__()
        if k < 2:
            raise ValueError("k >= 2; use CycleChain for k == 1")
        self.schedule = _want(schedule, CeEnumeration, "CycleChainWithRays")
        self.k = k
        self._chain = CycleChain(schedule)

    def contains(self, v: VertexId) -> bool:
        return v % self.k == 0 or v >= self.k + 1

    def _neighbors(self, v):
        k = self.k
        if v % k == 0:
            out = [(k * w, m) for w, m in self._chain.neighbors(v // k)]
            if v == 0:
                out.extend((k + j, 1) for j in range(1, k))
            return out
        j = v % k
        i = v // k
        down = k * (i - 1) + j if i >= 2 else 0
        return [(down, 1), (k * (i + 1) + j, 1)]


class OneWayMulti(GraphOracle):
    """CycleChain with every positive edge doubled.

    Vertex 0 is the only odd-degree vertex whatever the schedule does, so a
    one-way Eulerian path can only start there -- and exists exactly when the
    events keep firing (one end).
    """

    def __init__(self, schedule: CeEnumeration):
        super().__init__()
        self.schedule = _want(schedule, CeEnumeration, "OneWayMulti")
        self._chain = CycleChain(schedule)

    def contains(self, v: VertexId) -> bool:
        return True

    def _neighbors(self, v):
        out = []
        for w, m in self._chain.neighbors(v):
            # positive edges (s, s+1), s >= 0 are doubled
            if min(v, w) >= 0:
                m = 2 * m
            out.append((w, m))
        return out


class Doubled(GraphOracle):
    """Every edge of the wrapped graph, twice.  Degrees double, so every
    vertex becomes even; ends are untouched."""

    def __init__(self, inner: GraphOracle):
        super().__init__()
        self.inner = inner
        self.basepoint = inner.basepoint
        self.outward_growing = inner.outward_growing

    def contains(self, v: VertexId) -> bool:
        return self.inner.contains(v)

    def _neighbors(self, v):
        return [(w, 2 * m) for w, m in self.inner.neighbors(v)]

    def base_distance(self, v):
        return self.inner.base_distance(v)


# ---------------------------------------------------------------------------
# parity-encoding lines
# ---------------------------------------------------------------------------

class Sigma21Line(GraphOracle):
    """Half line whose edge (s, s+1) is single exactly while the limit value
    at stage s reads 1.  Each change stage flips one multiplicity, so odd
    vertices sit exactly at the change stages; the limit says whether the
    last odd vertex is ever matched.  Always one end."""

    def __init__(self, schedule: LimitApprox):
        super().__init__()
        self.schedule = _want(schedule, LimitApprox, "Sigma21Line")

    def contains(self, v: VertexId) -> bool:
        return v >= 0

    def mult(self, s: int) -> int:
        return 2 - self.schedule.value_at(s)

    def _neighbors(self, v):
        out = [(v + 1, self.mult(v))]
        if v >= 1:
            out.append((v - 1, self.mult(v - 1)))
        return out


class Pi1Line(GraphOracle):
    """Half line with doubled edges except a single edge where the schedule
    halts.  Never halts: all degrees even.  Halts at s: vertices s and s+1
    are the two odd vertices.  Always one end."""

    def __init__(self, schedule: Halting):
        super().__init__()
        self.schedule = _want(schedule, Halting, "Pi1Line")

    def contains(self, v: VertexId) -> bool:
        return v >= 0

    def mult(self, s: int) -> int:
        return 1 if self.schedule.halts_exactly_at(s) else 2

    def _neighbors(self, v):
        out = [(v + 1, self.mult(v))]
        if v >= 1:
            out.append((v - 1, self.mult(v - 1)))
        return out


class Delta2TwoEnded(GraphOracle):
    """Two-ended multigraph tracking a limit value along a signed line.

    Stage s contributes edges by three rules (cur = value at s):
      no change:   (s, s+1) and (-s, -s-1), multiplicity 2 - cur each;
      change to 1: (-s, s) twice, (s, s+1) once, (s, -s-1) once;
      change to 0: (-s, s) once, (s, s+1) twice, (s, -s-1) twice.
    Every degree comes out even and the graph keeps exactly two ends; whether
    an edge set separating the two ends can have all-even incident degrees
    depends on the parity of the number of changes.
    """

    def __init__(self, schedule: LimitApprox):
        super().__init__()
        self.schedule = _want(schedule, LimitApprox, "Delta2TwoEnded")

    def contains(self, v: VertexId) -> bool:
        return True

    def stage_edges(self, s: int) -> List[Tuple[int, int, int]]:
        cur = self.schedule.value_at(s)
        prev = self.schedule.value_at(s - 1)
        if cur == prev:
            m = 2 - cur
            return [(s, s + 1, m), (-s, -s - 1, m)]
        if cur == 1:
            return [(-s, s, 2), (s, s + 1, 1), (s, -s - 1, 1)]
        return [(-s, s, 1), (s, s + 1, 2), (s, -s - 1, 2)]

    def _neighbors(self, v):
        nbrs: Dict[int, int] = {}
        for s in (abs(v) - 1, abs(v)):
            if s < 0:
                continue
            for a, b, m in self.stage_edges(s):
                if v == a:
                    nbrs[b] = nbrs.get(b, 0) + m
                elif v == b:
                    nbrs[a] = nbrs.get(a, 0) + m
        return list(nbrs.items())


# ---------------------------------------------------------------------------
# halting-probe families
# ---------------------------------------------------------------------------

class LinesWithSticks(GraphOracle):
    """Signed line that reroutes itself if the schedule halts.

    Positive edges (s, s+1) always.  Negative edges (-s, -s-1) except at the
    exact halting step.  Halting at h additionally hangs the chord
    (-h-1, h+1).  Never halting gives the plain two-way line; halting at h
    gives a two-way spine through the chord with the finite branch
    {h, ..., 0, ..., -h} attached.  Two ends either way.

    Separation law: when the schedule halts at h, removing a column edge
    (x, x+1) separates iff it lies wholly outside the ball {-h..h}, i.e. iff
    min(|x|, |x+1|) > h; (-h-1, -h) is not an edge.  In particular (0, 1)
    separates iff the schedule never halts, and the column (h, h+1) does not
    separate: it only hangs the finite branch from h+1.  Never halting, every
    column separates.
    """

    def __init__(self, schedule: Halting):
        super().__init__()
        self.schedule = _want(schedule, Halting, "LinesWithSticks")

    def contains(self, v: VertexId) -> bool:
        return True

    def _neighbors(self, v):
        h = self.schedule.halt_step
        out = []
        if v >= 0:
            out.append((v + 1, 1))
        if v >= 1:
            out.append((v - 1, 1))
        if v <= 0 and -v != h:
            out.append((v - 1, 1))
        if v <= -1 and (-v - 1) != h:
            out.append((v + 1, 1))
        if h is not None:
            if v == h + 1:
                out.append((-h - 1, 1))
            elif v == -h - 1:
                out.append((h + 1, 1))
        return out


class Comb(GraphOracle):
    """Base ray with a vertical column over each base vertex.

    Column e keeps growing while its halting schedule has not fired; a column
    that never halts is an infinite tooth and contributes an end of its own.
    Construction takes the halting steps for the first columns and a tail
    rule for the rest.  Halting steps must be >= 1 so every base vertex
    exists and the base ray stays intact.

    Packing: (column e, height s) at the diagonal pairing index of (e, s).
    """

    def __init__(self, column_halts: Sequence[Optional[int]],
                 tail_halt: Optional[int] = 1):
        super().__init__()
        for h in list(column_halts) + [tail_halt]:
            if h is not None and h < 1:
                raise ValueError("column halting steps must be >= 1 (or None)")
        self.column_halts = tuple(column_halts)
        self.tail_halt = tail_halt

    def halt_of(self, e: int) -> Optional[int]:
        if e < len(self.column_halts):
            return self.column_halts[e]
        return self.tail_halt

    def _alive(self, e: int, s: int) -> bool:
        if e < 0 or s < 0:
            return False
        h = self.halt_of(e)
        return h is None or s < h

    def contains(self, v: VertexId) -> bool:
        if v < 0:
            return False
        e, s = _unpair(v)
        return self._alive(e, s)

    def _neighbors(self, v):
        e, s = _unpair(v)
        out = []
        if s == 0:
            out.append((_pair(e + 1, 0), 1))
            if e >= 1:
                out.append((_pair(e - 1, 0), 1))
        if self._alive(e, s + 1):
            out.append((_pair(e, s + 1), 1))
        if s >= 1:
            out.append((_pair(e, s - 1), 1))
        return out


class BinaryTree(GraphOracle):
    """Rooted binary tree in heap numbering: root 1, children 2n and 2n+1.

    An optional predicate prunes to the subtree of vertices all of whose
    ancestors (and themselves) satisfy it; the default is the full tree.
    """

    basepoint = 1

    def __init__(self, predicate=None):
        super().__init__()
        self.predicate = predicate
        self.outward_growing = predicate is None

    def contains(self, v: VertexId) -> bool:
        if v < 1:
            return False
        if self.predicate is None:
            return True
        while v >= 1:
            if not self.predicate(v):
                return False
            v //= 2
        return True

    def _neighbors(self, v):
        out = []
        if v >= 2 and self.contains(v // 2):
            out.append((v // 2, 1))
        for c in (2 * v, 2 * v + 1):
            if self.contains(c):
                out.append((c, 1))
        return out

    def base_distance(self, v):
        # ancestor-closed pruning keeps the root path, so depth = distance
        # whether or not a predicate is set
        return v.bit_length() - 1 if v >= 1 else None


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

class ProductGraph(GraphOracle):
    """Cartesian-style product: move in exactly one coordinate per step.

    (u, v) ~ (u', v') iff u == u' and v ~ v', or v == v' and u ~ u'.
    Pairs are packed with the signed diagonal pairing; `unpack` recovers the
    coordinates.  Product distance is the sum of the coordinate distances.
    """

    def __init__(self, left: GraphOracle, right: GraphOracle):
        super().__init__()
        self.left = left
        self.right = right
        self.basepoint = self.pack(left.basepoint, right.basepoint)
        self.outward_growing = left.outward_growing and right.outward_growing

    @staticmethod
    def pack(a: int, b: int) -> int:
        return _pair(_fold(a), _fold(b))

    @staticmethod
    def unpack(v: int) -> Tuple[int, int]:
        a, b = _unpair(v)
        return _unfold(a), _unfold(b)

    def contains(self, v: VertexId) -> bool:
        if v < 0:
            return False
        a, b = self.unpack(v)
        return self.left.contains(a) and self.right.contains(b)

    def _neighbors(self, v):
        a, b = self.unpack(v)
        out = []
        for a2, m in self.left.neighbors(a):
            out.append((self.pack(a2, b), m))
        for b2, m in self.right.neighbors(b):
            out.append((self.pack(a, b2), m))
        return out

    def base_distance(self, v):
        if v < 0:
            return None
        a, b = self.unpack(v)
        da = self.left.base_distance(a)
        db = self.right.base_distance(b)
        if da is None or db is None:
            return None
        return da + db


def product_graph(left: GraphOracle, right: GraphOracle) -> ProductGraph:
    return ProductGraph(left, right)


def tree_lambda() -> ProductGraph:
    """Product of two full binary trees -- the standard one-ended,
    exponentially growing test bed."""
    return ProductGraph(BinaryTree(), BinaryTree())


def lambda_distance(g: ProductGraph, x: VertexId, y: VertexId, fuel: Fuel = Fuel()):
    """Distance in a product graph via the coordinate-sum identity,
    cross-checked against a (step-capped) bidirectional BFS in the product.

    Returns an int, or Unknown if the coordinate searches exceed the fuel
    radius.  The cross-check is best effort: on fast-growing products the
    direct BFS may hit the step cap and is then skipped.
    """
    if not isinstance(g, ProductGraph):
        raise GraphError("lambda_distance needs a ProductGraph")
    if not g.contains(x):
        raise InvalidVertex(x)
    if not g.contains(y):
        raise InvalidVertex(y)
    ax, bx = g.unpack(x)
    ay, by = g.unpack(y)
    d1 = bounded_distance(g.left, ax, ay, fuel.max_radius)
    d2 = bounded_distance(g.right, bx, by, fuel.max_radius)
    if d1 is None or d2 is None:
        return Unknown(fuel.max_radius)
    total = d1 + d2
    direct = bounded_distance(g, x, y, total, fuel.max_steps)
    if direct is not None and direct != total:
        raise GraphError(
            "product distance mismatch: coordinates say %d, BFS says %d" % (total, direct))
    return total


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

GADGET_KINDS = {
    "nat-line": "half-infinite path, one end, schedule-free",
    "int-line": "two-way infinite path, two ends, schedule-free",
    "cycle-chain": "signed line rewired by events (events@... or events-all)",
    "rays<k>": "cycle-chain plus k-1 rays at the origin, e.g. rays3:events-all",
    "one-way-multi": "cycle-chain with doubled positive edges (events schedule)",
    "doubled-chain": "cycle-chain with every edge doubled (events schedule)",
    "sigma21-line": "half line, single edge while value reads 1 (changes@...)",
    "pi1-line": "half line, doubled except at the halting step (halt@S | never)",
    "delta2": "two-ended all-even multigraph tracking a limit value (changes@...)",
    "lines-with-sticks": "signed line rerouted through a chord on halting (halt@S | never)",
    "comb": "base ray with halting columns (halt list literal, e.g. comb:3,never,2)",
    "binary-tree": "full rooted binary tree, schedule-free",
    "lambda": "product of two full binary trees, schedule-free",
}


def build_gadget(kind: str, schedule: Optional[Schedule] = None, **kw) -> GraphOracle:
    """Construct a family member by kind name; see GADGET_KINDS."""
    if kind == "nat-line":
        _no_schedule(kind, schedule)
        return NatLine()
    if kind == "int-line":
        _no_schedule(kind, schedule)
        return IntLine()
    if kind == "cycle-chain":
        return CycleChain(_need(kind, schedule))
    if kind.startswith("rays"):
        k = int(kind[4:])
        return CycleChainWithRays(_need(kind, schedule), k)
    if kind == "one-way-multi":
        return OneWayMulti(_need(kind, schedule))
    if kind == "doubled-chain":
        return Doubled(CycleChain(_need(kind, schedule)))
    if kind == "sigma21-line":
        return Sigma21Line(_need(kind, schedule))
    if kind == "pi1-line":
        return Pi1Line(_need(kind, schedule))
    if kind == "delta2":
        return Delta2TwoEnded(_need(kind, schedule))
    if kind == "lines-with-sticks":
        return LinesWithSticks(_need(kind, schedule))
    if kind == "comb":
        return Comb(kw.get("column_halts", ()), kw.get("tail_halt", 1))
    if kind == "binary-tree":
        _no_schedule(kind, schedule)
        return BinaryTree(kw.get("predicate"))
    if kind == "lambda":
        _no_schedule(kind, schedule)
        return tree_lambda()
    raise ValueError("unknown gadget kind %r" % kind)


def _need(kind, schedule):
    if schedule is None:
        raise KindScheduleMismatch("%s needs a schedule" % kind)
    return schedule


def _no_schedule(kind, schedule):
    if schedule is not None:
        raise KindScheduleMismatch("%s takes no schedule" % kind)


def parse_graph_spec(text: str) -> GraphOracle:
    """Parse CLI graph literals: kind or kind:schedule.

    Examples: int-line | cycle-chain:events-all | lines-with-sticks:halt@3 |
    delta2:changes@2,5,9 | rays3:events@4 | comb:3,never,2
    """
    if ":" in text:
        kind, _, rest = text.partition(":")
        if kind == "comb":
            halts = tuple(None if p == "never" else int(p)
                          for p in rest.split(",") if p != "")
            return build_gadget("comb", column_halts=halts)
        return build_gadget(kind, parse_schedule(rest))
    return build_gadget(text)
