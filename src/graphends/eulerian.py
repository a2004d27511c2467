"""Checkers for the existence conditions of infinite Eulerian paths.

For a connected, locally finite infinite graph the classical
characterization splits by traversal shape:

* one-way infinite Eulerian path: the graph has exactly one end and exactly
  one vertex of odd degree;
* two-way infinite Eulerian path: one or two ends, every degree even, and no
  finite edge set that induces an even subgraph leaves two or more infinite
  components when removed.

None of the three clause families is decidable from the oracle alone, so the
checkers work with finite certificates.  A ParityCertificate bounds where
odd degrees can hide; a LocalizationCertificate bounds where an even-degree
separating set would have to live; the EndsCertificate is the separation
module's.  Each verdict records which clauses were certified and which were
merely searched: a refutation (two odd vertices, a concrete even separating
set) is definite either way, but a Holds is only issued when every clause
was covered by a certificate and the final sweep was exhaustive.

The even-separator sweep enumerates the even-degree-inducing edge sets
inside a ball: the GF(2) span of the fundamental cycles, where parallel
copies give two-edge cycles and loops one-edge cycles.  One basis is
computed per sweep and split by bridge-free block (see _cycle_blocks);
cycles never cross bridges, so the subset budget applies per block.  A
block too large to exhaust gives only its single and double basis sums:
sound for refutation, never enough for Holds.  The candidates of all
blocks are counted in one size-lex order against one decision window for
the whole ball (see separation.comp_counter), so the sweep stays exact
while its per-candidate work runs on a small finite graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .graph_core import (
    DisjointSets,
    EdgeRef,
    EndsCertificate,
    Fuel,
    GraphError,
    GraphOracle,
    Unknown,
    VertexId,
    ball,
    degree,
    edge_set,
)
from .separation import comp_counter

__all__ = [
    "ParityCertificate",
    "LocalizationCertificate",
    "EulerVerdict",
    "odd_vertex_scan",
    "cycle_space_basis",
    "even_inducing_sets",
    "check_one_way",
    "check_two_way",
    "ONE_END_CLAUSE",
    "ONE_ODD_CLAUSE",
    "ENDS_AT_MOST_TWO_CLAUSE",
    "ALL_EVEN_CLAUSE",
    "NO_EVEN_SEPARATOR_CLAUSE",
]

# clause labels used in verdicts; names say what must hold
ONE_END_CLAUSE = "end-count-is-one"
ONE_ODD_CLAUSE = "exactly-one-odd-vertex"
ENDS_AT_MOST_TWO_CLAUSE = "end-count-is-one-or-two"
ALL_EVEN_CLAUSE = "all-degrees-even"
NO_EVEN_SEPARATOR_CLAUSE = "no-even-inducing-separating-set"

# exhausting more than this many cycle-space dimensions is declined
_SWEEP_DIM_CAP = 16


@dataclass(frozen=True)
class ParityCertificate:
    """Promise: every odd-degree vertex lies within `radius` of the
    basepoint.  Turns parity clauses from searchable to decidable."""

    radius: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


@dataclass(frozen=True)
class LocalizationCertificate:
    """Promise: if any finite even-inducing edge set separates, then some
    such set lies entirely within `radius` of the basepoint."""

    radius: int = 0

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be >= 0")


@dataclass(frozen=True)
class EulerVerdict:
    """Outcome of an Eulerian-condition check.

    value is "holds", "fails" or "unknown".  Fails names the violated
    clause and carries a finite re-checkable witness (odd vertices, or a
    separating even-inducing edge set).  `certified` lists clauses settled
    by certificates, `searched` those covered only up to the budget.
    """

    value: str
    reason: str = ""
    witness: Tuple = ()
    fuel_spent: int = 0
    certified: Tuple[str, ...] = ()
    searched: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.value not in ("holds", "fails", "unknown"):
            raise ValueError(self.value)

    @property
    def is_holds(self) -> bool:
        return self.value == "holds"

    @property
    def is_fails(self) -> bool:
        return self.value == "fails"

    @property
    def is_unknown(self) -> bool:
        return self.value == "unknown"

    @classmethod
    def holds(cls, certified=()) -> "EulerVerdict":
        return cls("holds", certified=tuple(certified))

    @classmethod
    def fails(cls, reason: str, witness=(), certified=(), searched=()) -> "EulerVerdict":
        return cls("fails", reason=reason, witness=tuple(witness),
                   certified=tuple(certified), searched=tuple(searched))

    @classmethod
    def unknown(cls, fuel_spent: int = 0, searched=(), certified=()) -> "EulerVerdict":
        return cls("unknown", fuel_spent=fuel_spent,
                   certified=tuple(certified), searched=tuple(searched))


def odd_vertex_scan(g: GraphOracle, radius: int) -> List[VertexId]:
    """All odd-degree vertices within the given ball, sorted.  Loops count
    twice, parallel edges individually."""
    if radius < 0:
        raise GraphError("radius must be >= 0")
    b = ball(g, g.basepoint, radius)
    return sorted(v for v in b.vertices if degree(g, v) % 2 == 1)


# ---------------------------------------------------------------------------
# even-inducing edge sets: the GF(2) span of fundamental cycles
# ---------------------------------------------------------------------------

def cycle_space_basis(edges: Sequence[EdgeRef]) -> List[int]:
    """Bitmask basis (over the given edge order) of the even-degree-inducing
    subsets of `edges`.

    Spanning-forest construction: each non-forest edge closes one
    fundamental cycle.  A loop is its own one-edge cycle; a parallel copy
    closes a two-edge cycle with its sibling.  With up[x] x's forest path
    to its root, non-forest edge i = (u, v) closes 1<<i ^ up[u] ^ up[v].
    """
    forest = DisjointSets(v for e in edges for v in (e.u, e.v))
    forest_adj: Dict[VertexId, List[Tuple[VertexId, int]]] = {v: [] for v in forest.parent}
    closing = []
    for i, e in enumerate(edges):
        if forest.union(e.u, e.v):
            forest_adj[e.u].append((e.v, i))
            forest_adj[e.v].append((e.u, i))
        else:
            closing.append((i, e))
    up: Dict[VertexId, int] = {}
    for root in forest_adj:
        if root not in up:
            up[root], stack = 0, [root]
            while stack:
                x = stack.pop()
                for y, j in forest_adj[x]:
                    if y not in up:
                        up[y] = up[x] ^ 1 << j
                        stack.append(y)
    return [1 << i ^ up[e.u] ^ up[e.v] for i, e in closing]


def _cycle_blocks(edges: Sequence[EdgeRef]) -> List[List[int]]:
    """A sorted region's cycle-space basis, grouped by bridge-free block.

    Two edges share a block when a chain of fundamental cycles links them,
    which happens exactly when some simple cycle contains both.  The
    region's cycle space is then the direct sum of the blocks' cycle
    spaces, and an even-inducing set separates iff one of its single-block
    pieces separates on its own: bridges survive every even removal, so
    disconnection happens inside one block either way.  The smallest
    separating set is in particular always single-block (a multi-block one
    has a strictly smaller separating piece), so sweeping the blocks'
    spans in one size-lex order reproduces the monolithic sweep's verdict
    *and* its witness, while the exhaustion budget applies to each block's
    dimension instead of their sum.  The forest restricted to a block is
    the one the block grows alone, so each group is the block's own basis.
    """
    basis = cycle_space_basis(edges)
    blocks = DisjointSets(range(len(edges)))
    for mask in basis:
        low, rest = (mask & -mask).bit_length() - 1, mask & mask - 1
        while rest:
            blocks.union(low, (rest & -rest).bit_length() - 1)
            rest &= rest - 1
    groups: Dict[int, List[int]] = {}
    for mask in basis:
        groups.setdefault(blocks.find((mask & -mask).bit_length() - 1), []).append(mask)
    return list(groups.values())


def _even_sets(edges: Sequence[EdgeRef], bases, cap: int) -> List[Tuple[EdgeRef, ...]]:
    """Nonzero even-inducing sets spanned by each basis in `bases` (bitmasks
    over the sorted `edges`), as sorted edge tuples, smallest first (by
    edge count, then lexicographically).  A basis of at most `cap` cycles
    gives its whole span; a larger one only its single and double sums --
    a refutation-hunting sample, not the whole space."""
    masks = set()
    for basis in bases:
        if len(basis) <= cap:
            span = [0]
            for b in basis:
                span += [m ^ b for m in span]
        else:
            span = basis + [a ^ b for k, a in enumerate(basis) for b in basis[k + 1:]]
        masks.update(span)
    masks.discard(0)
    sets = []
    for m in masks:
        members = []
        while m:
            members.append(edges[(m & -m).bit_length() - 1])
            m &= m - 1
        sets.append(tuple(members))
    return sorted(sets, key=lambda t: (len(t), t))


def even_inducing_sets(edges: Sequence[EdgeRef], exhaustive: bool = True):
    """Nonzero even-degree-inducing subsets of `edges`, smallest first
    (by edge count, then lexicographically).

    With exhaustive=False only single and double sums of basis cycles are
    produced -- a refutation-hunting sample, not the whole space.
    """
    edges = sorted(edges)
    basis = cycle_space_basis(edges)
    if exhaustive and len(basis) > 22:
        raise GraphError(
            "cycle space has dimension %d; pass exhaustive=False" % len(basis))
    return [edge_set(t) for t in _even_sets(edges, [basis], len(basis) if exhaustive else -1)]


# ---------------------------------------------------------------------------
# the two condition checkers
# ---------------------------------------------------------------------------

def check_one_way(g: GraphOracle, ends_cert: EndsCertificate,
                  parity_cert: Optional[ParityCertificate] = None,
                  fuel: Fuel = Fuel()) -> EulerVerdict:
    """Conditions for a one-way infinite Eulerian path: one end and exactly
    one odd-degree vertex.

    Two odd vertices in any ball refute outright.  Zero or one oddity is
    conclusive only under a parity certificate; without one the scan cannot
    exclude odd degrees farther out, so the verdict stays Unknown.
    """
    if ends_cert.ends != 1:
        return EulerVerdict.fails(ONE_END_CLAUSE, witness=(ends_cert.ends,),
                                  certified=("ends",))
    radius = parity_cert.radius if parity_cert else fuel.max_radius
    odd = odd_vertex_scan(g, radius)
    if len(odd) >= 2:
        return EulerVerdict.fails(ONE_ODD_CLAUSE, witness=tuple(odd),
                                  certified=("ends",),
                                  searched=() if parity_cert else ("parity",))
    if parity_cert:
        if len(odd) == 1:
            return EulerVerdict.holds(certified=("ends", "parity"))
        return EulerVerdict.fails(ONE_ODD_CLAUSE, witness=(),
                                  certified=("ends", "parity"))
    return EulerVerdict.unknown(fuel_spent=radius, certified=("ends",),
                                searched=("parity",))


def check_two_way(g: GraphOracle, ends_cert: EndsCertificate,
                  parity_cert: Optional[ParityCertificate] = None,
                  loc_cert: Optional[LocalizationCertificate] = None,
                  fuel: Fuel = Fuel()) -> EulerVerdict:
    """Conditions for a two-way infinite Eulerian path: one or two ends,
    all degrees even, and no even-inducing finite edge set separating.

    Any odd vertex refutes; any separating even-inducing set refutes with
    the set as witness.  Holds needs the parity certificate, and -- in the
    two-ended case -- the localization certificate plus an exhaustive sweep
    of the even sets inside its ball.
    """
    if ends_cert.ends not in (1, 2):
        return EulerVerdict.fails(ENDS_AT_MOST_TWO_CLAUSE,
                                  witness=(ends_cert.ends,), certified=("ends",))
    certified = ["ends"]
    searched = []

    pr = parity_cert.radius if parity_cert else fuel.max_radius
    odd = odd_vertex_scan(g, pr)
    if odd:
        return EulerVerdict.fails(ALL_EVEN_CLAUSE, witness=(odd[0],),
                                  certified=tuple(certified),
                                  searched=() if parity_cert else ("parity",))
    (certified if parity_cert else searched).append("parity")

    if ends_cert.ends == 1:
        # with one end nothing finite can separate, so parity settles it
        if parity_cert:
            return EulerVerdict.holds(certified=tuple(certified))
        return EulerVerdict.unknown(fuel_spent=pr, certified=tuple(certified),
                                    searched=tuple(searched))

    # Without a localization promise, only half the radius budget goes to the
    # candidate ball; the decision window needs the remaining headroom.
    sr = loc_cert.radius if loc_cert else fuel.max_radius // 2
    region = sorted(ball(g, g.basepoint, sr).edges)
    bases = _cycle_blocks(region)
    exhaustive = all(len(b) <= _SWEEP_DIM_CAP for b in bases)
    count = comp_counter(g, frozenset(region), ends_cert, fuel)
    if isinstance(count, Unknown):
        return EulerVerdict.unknown(fuel_spent=fuel.max_radius,
                                    certified=tuple(certified),
                                    searched=tuple(searched) + ("separator-window",))

    for cand in _even_sets(region, bases, _SWEEP_DIM_CAP):
        if count(cand) >= 2:
            return EulerVerdict.fails(NO_EVEN_SEPARATOR_CLAUSE, witness=cand,
                                      certified=tuple(certified),
                                      searched=tuple(searched))

    if not exhaustive:
        searched.append("even-separator-sweep-truncated")
    elif loc_cert:
        certified.append("separator-localization")
    else:
        searched.append("separator-localization")

    if parity_cert and loc_cert and exhaustive:
        return EulerVerdict.holds(certified=tuple(certified))
    return EulerVerdict.unknown(fuel_spent=max(pr, sr),
                                certified=tuple(certified),
                                searched=tuple(searched))
