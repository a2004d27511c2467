"""Component counting after finite edge removal, with certificates.

The questions all concern G minus a finite edge set E: how many infinite
components remain, which endpoints of E belong to them, is E separating at
all, and -- running the machinery backwards -- how many ends does G have.

Subgraphs are edge-induced throughout: removing every edge at a vertex
removes the vertex.  The deciders work on finite windows (balls around the
basepoint) and trade fuel for definiteness: a definite answer is proved by
the window contents plus the supplied certificate, otherwise you get an
explicit Unknown.  Certificates that contradict something positively
observed raise UnsoundCertificateDetected; detection is best effort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, islice, repeat
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from .graph_core import (
    CutIndex,
    DisjointSets,
    EdgeSet,
    EndsCertificate,
    Fuel,
    GraphError,
    GraphOracle,
    NotAShell,
    Unknown,
    UnsoundCertificateDetected,
    VertexId,
    ball,
    bfs_layers,
    check_edge_set,
    cut_index,
    distances_from,
    edge_induced_vertices,
    edges_among,
    edges_at,
)


# ---------------------------------------------------------------------------
# growing edge neighbourhoods
# ---------------------------------------------------------------------------

def boundary_vertices(g: GraphOracle, e: EdgeSet) -> List[VertexId]:
    """Endpoints of e that keep a surviving edge: a pair not cut by e."""
    return _boundary_vertices(g, e, cut_index(e))


def _boundary_vertices(g: GraphOracle, e: EdgeSet, cut: CutIndex) -> List[VertexId]:
    return [v for v in sorted(edge_induced_vertices(e))
            if any(m > cut.get(v, {}).get(w, 0) for w, m in g.neighbors(v))]


def reach_edges(g: GraphOracle, removed: EdgeSet, v: VertexId, n: int) -> EdgeSet:
    """Surviving edges within n steps of v in G minus `removed`.

    An edge qualifies when one endpoint is at distance <= n-1 from v in the
    punctured graph; n = 0 gives the empty set.  As n grows this exhausts the
    component of v, and it stops growing exactly when that component is
    finite.  The deciders read reach off `bfs_layers` instead; this is the
    definition they agree with.
    """
    if n <= 0:
        return frozenset()
    dist = distances_from(g, v, n - 1, avoid_edges=removed)
    out = set()
    for x in dist:
        for er in edges_at(g, x):
            if er not in removed:
                out.add(er)
    return frozenset(out)


def _grows(g: GraphOracle, cut: CutIndex, closer, rim) -> bool:
    """Whether an edge not cut by `cut` leaves BFS layer `rim` outward or
    sideways (a loop included), `closer` holding every earlier layer:
    exactly when the reach one stage past `rim` is larger."""
    for x in rim:
        gone = cut.get(x, {})
        if any(w not in closer and m > gone.get(w, 0) for w, m in g.neighbors(x)):
            return True
    return False


def _merge_by_overlap(balls: Dict, rims: Dict) -> List[FrozenSet]:
    """Group keys whose balls overlap, or where one key's rim meets another
    key's ball (transitively).  Groups come sorted by least key."""
    keys = sorted(balls)
    sets = DisjointSets(keys)
    owner = {}  # element -> first key whose ball holds it
    for k in keys:
        for first in {owner.setdefault(x, k) for x in balls[k]}:
            sets.union(first, k)
    for k in keys:
        for first in {owner[x] for x in rims[k] if x in owner}:
            sets.union(first, k)
    return sorted((frozenset(c) for c in sets.classes().values()), key=min)


def comp_approx(g: GraphOracle, e: EdgeSet, n: int) -> int:
    """Upper-approximation stage n of the infinite-component count.

    Carrier vertices are boundary vertices whose reach still grew between n
    and n+1; carriers are grouped by overlapping reach sets.  The stage value
    is always >= the true number of infinite components, and for n past the
    point where every finite component has been exhausted it equals it.

    One BFS to depth n in G minus e per boundary vertex decides both.  The
    reach grows exactly when a surviving edge leaves layer n outward or
    sideways (a loop included).  Two reach sets share an edge exactly when
    their vertices lie within 2n-1 of each other in G minus e, so carriers
    join when their radius-(n-1) balls overlap (distance <= 2n-2) or when
    one's layer n meets another's ball (2n-1, the middle of a shortest
    path).  At n = 0 each boundary vertex is a carrier and a group.  A
    negative stage is 0: every reach set is empty there.
    """
    e = check_edge_set(g, e)
    if not e or n < 0:
        return 0
    balls, rims = {}, {}
    cut = cut_index(e)
    for v in _boundary_vertices(g, e, cut):
        layers = list(islice(bfs_layers(g, v, cut), n + 1))
        if len(layers) <= n:
            continue  # v's component ends before layer n: its reach is complete
        closer = set(chain.from_iterable(layers[:n]))
        if _grows(g, cut, closer, layers[n]):
            balls[v], rims[v] = closer, layers[n]
    return len(_merge_by_overlap(balls, rims))


def semidecide_not_separating(g: GraphOracle, e: EdgeSet,
                              fuel: Fuel = Fuel()) -> Union[bool, Unknown]:
    """True when some stage n <= fuel.max_radius shows at most one infinite
    component survives, otherwise Unknown(fuel.max_radius).

    This is one-sided: a separating set can never produce True, and False
    is never returned (the complement is not semi-decidable in general).
    """
    e = check_edge_set(g, e)
    for n in range(fuel.max_radius + 1):
        if comp_approx(g, e, n) <= 1:
            return True
    return Unknown(fuel.max_radius)


# ---------------------------------------------------------------------------
# the stable partition machine
# ---------------------------------------------------------------------------

def _ball_rim(g: GraphOracle, dist: Dict[VertexId, int], r: int):
    """A split's (cut, sorted boundary) for ball(r).edges, r >= 1, read off
    layer r of a basepoint distance map `dist` holding every vertex within r
    (see `_stable_partition`)."""
    cut, bnd = {}, []
    for v in sorted(x for x, d in dist.items() if d == r):
        cut[v] = {w: m for w, m in g.neighbors(v) if dist.get(w, r + 1) <= r}
        if len(cut[v]) < len(g.neighbors(v)):
            bnd.append(v)
    return cut, bnd


def _stable_partition(g: GraphOracle, wp: EdgeSet, k: int, fuel: Fuel, rim=None):
    """Partition the boundary vertices of `wp` by infinite component.

    Requires that G minus `wp` has exactly k infinite components (true for
    any superset of a maximal-separation witness with k ends).  Finite
    components announce themselves by their reach stabilizing; vertices of a
    common component announce themselves by overlapping reach.  Once the
    still-active vertices fall into exactly k groups, the groups are exactly
    the infinite components' boundary vertices.  Seeing fewer than k groups
    is impossible under a sound certificate.

    At n = 1, 2, ... it takes the carriers of stage n, grouped by their
    reach at n+1.  One BFS per boundary vertex gains a layer per step: a
    vertex is active when its layer n grows (reach n+1 != reach n), and
    active vertices join when their radius-n balls overlap or one's layer
    n+1 meets another's ball (their reach sets at n+1 share an edge).

    Returns (groups, finite_reach) or None when fuel runs out; finite_reach
    maps each finite-side boundary vertex to its component's full edge set.

    `rim`, for wp = ball(r).edges, is `_ball_rim`'s (cut, boundary) at r;
    without it both come from wp.  Layer r is enough: only a layer-r vertex
    keeps an edge outside wp, to a neighbour farther out or missing from the
    distance map (the boundary); and a search of G minus wp from layer r
    never comes closer than r, every edge down to layer r - 1 being in wp,
    so its cut is layer r's neighbours within r, at full multiplicity.
    """
    cut = rim[0] if rim else cut_index(wp)
    bnd = rim[1] if rim else _boundary_vertices(g, wp, cut)
    searches = {v: bfs_layers(g, v, cut) for v in bnd}
    balls = {v: set(next(searches[v])) for v in bnd}   # layers 0..n-1
    rims = {v: next(searches[v], []) for v in bnd}     # layer n
    for _n in range(1, fuel.max_radius + 1):
        active_balls, active_rims = {}, {}
        for v in bnd:
            nxt = next(searches[v], [])
            if _grows(g, cut, balls[v], rims[v]):
                active_balls[v], active_rims[v] = balls[v], nxt
            balls[v].update(rims[v])
            rims[v] = nxt
        groups = _merge_by_overlap(active_balls, active_rims)
        if len(groups) < k:
            raise UnsoundCertificateDetected(
                "certificate claims %d infinite components but only %d groups remain"
                % (k, len(groups)))
        if len(groups) == k:
            finite = {v: frozenset(er for x in balls[v] for er in edges_at(g, x)
                                   if er not in wp)
                      for v in bnd if v not in active_balls}
            return groups, finite
    return None


def _cover_radius(g: GraphOracle, es: EdgeSet, fuel: Fuel) -> Optional[int]:
    """Least r >= 1 putting every endpoint of es within r of the basepoint,
    or None when one lies farther than fuel.max_radius."""
    if not es:
        return 1
    missing = set(edge_induced_vertices(es))
    for d, layer in enumerate(islice(bfs_layers(g, g.basepoint, {}), fuel.max_radius + 1)):
        missing.difference_update(layer)
        if not missing:
            return max(d, 1)
    return None


@dataclass(frozen=True, slots=True)
class BoundaryPartition:
    """Endpoints of a removed edge set, split by what survives around them.

    infinite_groups: one vertex group per infinite component of G minus E
    (ordered by least vertex); finite_group: every other endpoint -- those
    stranded in finite components and those that lost all their edges.
    """

    infinite_groups: Tuple[FrozenSet[VertexId], ...]
    finite_group: FrozenSet[VertexId]


_NO_VERTICES: FrozenSet[VertexId] = frozenset()  # every empty finite group


def _build_window(g: GraphOracle, e: EdgeSet, cert: EndsCertificate, fuel: Fuel):
    """The certified decision window, as (U, groups): a finite edge set U
    containing e and the witness such that G minus U has exactly cert.ends
    infinite components and no finite ones; groups holds the boundary
    vertices of U, one group per infinite component.
    Unknown(fuel.max_radius) when fuel runs out.

    r0 >= 1 is the least radius whose ball holds every endpoint of e and
    the witness; splitting ball(r0) checks the certificate.  W = ball(r0+1)
    holds every edge at an endpoint of e; it is split once, and U is W plus
    the finite reaches of that split.

    One split is a fixed point.  Say it stops at stage n with k groups.
    An inactive boundary vertex has stopped growing, so its reach is its
    whole finite component, and absorbing it leaves the infinite components
    of G minus W as they were.  The boundary vertices of U are the active
    ones, whose searches in G minus U run layer for layer as in G minus W;
    their group count only falls as the stage grows and is k at n, so a
    second split stops by n with the same groups and no finite reach.
    Boundary vertices of one component need not reconnect inside U:
    `_window_classes` joins them.
    """
    return _window_at(g, _cover_radius(g, e | cert.witness, fuel), cert, fuel)


def _window_at(g: GraphOracle, r0: Optional[int], cert: EndsCertificate, fuel: Fuel):
    """The window of `_build_window` for every removal of cover radius r0
    (None: past fuel.max_radius), kept read-only in the oracle's slot under
    (cert, r0, fuel) with its Unknown; raises are not kept.

    Both splits read their `_ball_rim` off the one basepoint walk; for
    ball(r0 + 1), a neighbour missing from that walk is farther out."""
    k = cert.ends
    if g._window[0] == (cert, r0, fuel):
        return g._window[1]
    win = Unknown(fuel.max_radius)
    if r0 is not None:
        # one walk gives ball(r0) as well; never past the radius budget
        outer = ball(g, g.basepoint, min(r0 + 1, fuel.max_radius))
        inner = frozenset(e for e in outer.edges
                          if max(outer.distances[e.u], outer.distances[e.v]) <= r0)
        rim = _ball_rim(g, outer.distances, r0)
        if _stable_partition(g, inner, k, fuel, rim) is not None and r0 + 1 <= fuel.max_radius:
            rim = _ball_rim(g, outer.distances, r0 + 1)
            got = _stable_partition(g, outer.edges, k, fuel, rim)
            win = win if got is None else (outer.edges.union(*got[1].values()), got[0])
    g._window = (cert, r0, fuel), win
    return win


def _check_certificate(g: GraphOracle, cert: EndsCertificate) -> None:
    """Validate the witness; an empty one cannot leave two or more
    infinite components."""
    if not check_edge_set(g, cert.witness) and cert.ends >= 2:
        raise UnsoundCertificateDetected(
            "an empty witness cannot leave %d infinite components" % cert.ends)


def decide_comp(g: GraphOracle, e: EdgeSet, cert: EndsCertificate,
                fuel: Fuel = Fuel()):
    """Exact number of infinite components of G minus e, certified by an
    ends certificate.  Returns an int or Unknown.

    With one end the answer is always 1.  Otherwise the witness is grown
    into a window U whose outside is fully understood, and the question
    reduces to connectivity of the finite graph U minus e: this is
    comp_counter's count with e as its own region.
    """
    count = comp_counter(g, e, cert, fuel)
    return count if isinstance(count, Unknown) else count(e)


def comp_counter(g: GraphOracle, region, cert: EndsCertificate,
                 fuel: Fuel = Fuel()):
    """Prepare one decision window for a whole region of candidate removals.

    Returns a callable mapping any edge set inside `region` to its exact
    Comp value, or Unknown when the window cannot be built within fuel.  The
    window's validity depends only on covering the region, so amortizing it
    over many candidates (e.g. a subset sweep) changes nothing about
    soundness.  With one end, or an empty region, no window is needed: every
    candidate counts 1.  The callable validates each candidate and raises
    GraphError for one outside the region, whichever path prepared it.
    """
    region = check_edge_set(g, region)
    _check_certificate(g, cert)
    win = None
    if cert.ends > 1 and region:
        win = _build_window(g, region, cert, fuel)
        if isinstance(win, Unknown):
            return win

    def count(e) -> int:
        e = check_edge_set(g, e)
        if not e:
            return 1
        if not e <= region:
            raise GraphError("candidate removal leaves the prepared region")
        return 1 if win is None else len(_window_classes(win, e)[1])

    return count


def _window_classes(win, e):
    """Union-find over the vertices of the window U, fed U minus e and the
    members of each window-boundary group, which meet in that group's
    infinite component outside U.  Returns it with the roots of the classes
    that hold a group: each such class is one infinite component of G minus
    e, and every other class is finite."""
    u_edges, groups = win
    sets = DisjointSets(edge_induced_vertices(u_edges))
    for er in u_edges - e:
        sets.union(er.u, er.v)
    for grp in groups:
        first = min(grp)
        for v in grp:
            sets.union(first, v)
    return sets, {sets.find(min(grp)) for grp in groups}


def boundary_partition(g: GraphOracle, e: EdgeSet, cert: EndsCertificate,
                       fuel: Fuel = Fuel()):
    """Sort the endpoints of e by the fate of their component in G minus e.

    Every endpoint is classified; ones stripped of all their edges count as
    stranded in a (trivial) finite piece.  Returns BoundaryPartition or
    Unknown.
    """
    e = check_edge_set(g, e)
    _check_certificate(g, cert)
    if not e:
        return BoundaryPartition((), _NO_VERTICES)
    win = _build_window(g, e, cert, fuel)
    if isinstance(win, Unknown):
        return win
    sets, held = _window_classes(win, e)
    infinite: Dict[int, set] = {}
    finite = set()
    for b in edge_induced_vertices(e):
        root = sets.find(b)
        if root in held:
            infinite.setdefault(root, set()).add(b)
        else:
            finite.add(b)
    groups = sorted((frozenset(v) for v in infinite.values()), key=min)
    return BoundaryPartition(tuple(groups), frozenset(finite) if finite else _NO_VERTICES)


# ---------------------------------------------------------------------------
# shells, minimal separators, and end counting
# ---------------------------------------------------------------------------

def shell_edges(g: GraphOracle, r: int) -> EdgeSet:
    """Edges among vertices at distance r-1 or r from the basepoint."""
    if r < 1:
        raise ValueError("shells start at radius 1")
    return next(islice(_shells(g), r - 1, None))


def _shells(g: GraphOracle):
    """shell_edges(g, r) for r = 1, 2, ..., off one BFS from the basepoint:
    shell r holds every edge copy, loops included, with both endpoints in
    layers r-1 and r.  Past the last layer D of a finite graph the layers
    are empty, so shell D+1 holds the edges inside layer D and every later
    shell is empty."""
    layers = chain(bfs_layers(g, g.basepoint, {}), repeat(()))
    inner = next(layers)
    for outer in layers:
        yield edges_among(g, set(inner).union(outer))
        inner = outer


_SUBSET_CAP = 18  # 2^18 subsets is the enumeration comfort limit


def minimal_separating_subsets(g: GraphOracle, shell: EdgeSet,
                               sep_decider: Callable[[EdgeSet], bool]) -> List[EdgeSet]:
    """All inclusion-minimal subsets of a shell that the decider accepts.

    The shell must be exactly shell_edges(g, r) for some r (NotAShell
    otherwise).  Because separation is upward closed, minimality is checked
    by pruning supersets of already-found answers.  A non-separating shell
    has no separating subsets, so the result is then empty.
    """
    shell = check_edge_set(g, shell)
    if not shell:
        raise NotAShell("empty edge set")
    cover = _cover_radius(g, shell, Fuel())
    if cover is None:
        raise GraphError("shell endpoints out of reach")
    if shell != shell_edges(g, cover):
        raise NotAShell("not the full edge layer at radius %d" % cover)
    if len(shell) > _SUBSET_CAP:
        raise GraphError("shell too large to enumerate (%d edges)" % len(shell))
    found = _minimal_subsets(shell, sep_decider)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def ends_from_sepmax(g: GraphOracle, sepmax_oracle: Callable[[EdgeSet], bool],
                     fuel: Fuel = Fuel()):
    """Count the ends of G given an oracle for maximal separation.

    The oracle answers "does removing E leave exactly one infinite component
    per end".  Strategy: the empty set is maximally separating iff there is
    one end; otherwise find a maximally separating shell, take its minimal
    maximally-separating subsets, and use their incidences to tell the
    surviving components' representatives apart.  Two representatives are
    provably distinct once every minimal subset touches a vertex already
    known to lie in one of their components (a minimal set that avoided both
    could be dropped, contradicting maximality); representatives of a common
    component eventually meet by search.  Returns an int or Unknown.
    """
    if sepmax_oracle(frozenset()):
        return 1
    e = None
    for r, cand in enumerate(islice(_shells(g), fuel.max_radius), start=1):
        if cand and len(cand) <= _SUBSET_CAP and sepmax_oracle(cand):
            e, radius = cand, r
            break
    if e is None:
        return Unknown(fuel.max_radius)

    mins = _minimal_subsets(e, sepmax_oracle)
    dist = distances_from(g, g.basepoint, radius)
    cut = cut_index(e)
    reps = [u for u in _boundary_vertices(g, e, cut) if dist[u] == radius
            and any(any(u in (er.u, er.v) for er in m) for m in mins)]
    if not reps:
        return Unknown(fuel.max_radius)

    # representatives whose radius-d balls in G minus e overlap share a
    # component; a group is told apart from another once every minimal
    # subset touches the union of their balls
    searches = {u: bfs_layers(g, u, cut) for u in reps}
    balls = {u: set(next(searches[u])) for u in reps}
    no_rims = dict.fromkeys(reps, ())
    for _depth in range(1, fuel.max_radius + 1):
        for u in reps:
            balls[u].update(next(searches[u], ()))
        groups = _merge_by_overlap(balls, no_rims)
        if len(groups) < 2:
            continue  # everything merged: the oracle lied, keep burning fuel
        zones = [set().union(*(balls[u] for u in grp)) for grp in groups]
        if all(any(x in a or x in b for er in m for x in (er.u, er.v))
               for a, b in combinations(zones, 2) for m in mins):
            return len(groups)
    return Unknown(fuel.max_radius)


def _minimal_subsets(e: EdgeSet, oracle: Callable[[EdgeSet], bool]) -> List[EdgeSet]:
    ordered = sorted(e)
    found: List[EdgeSet] = []
    for size in range(1, len(ordered) + 1):
        for combo in combinations(ordered, size):
            s = frozenset(combo)
            if any(m <= s for m in found):
                continue
            if oracle(s):
                found.append(s)
    return found


def sepmax_witness_from_ends(g: GraphOracle, k: int,
                             sep_decider: Callable[[EdgeSet], bool],
                             fuel: Fuel = Fuel()):
    """Produce a maximal-separation witness from the end count.

    One end: the empty set.  Otherwise scan shells outward until one has
    exactly k minimal separating subsets, pairwise disjoint; that shell
    separates every pair of ends and is the witness.  The decider is asked
    about each edge set at most once.  Returns EdgeSet or Unknown.
    """
    if k < 1:
        raise ValueError("ends >= 1")
    if k == 1:
        return frozenset()
    decide = cache(sep_decider)  # local to this call
    for shell in islice(_shells(g), fuel.max_radius):
        if not shell or len(shell) > _SUBSET_CAP:
            continue
        if not decide(shell):
            continue
        mins = _minimal_subsets(shell, decide)
        if len(mins) != k:
            continue
        if all(not (a & b) for a, b in combinations(mins, 2)):
            return shell
    return Unknown(fuel.max_radius)
