import random
from collections import deque
from itertools import islice

import pytest

from graphends import (
    ball, edge, edge_set, edge_induced_vertices, Fuel, Unknown, EndsCertificate,
    GraphError, InvalidEdge, NotAShell, UnsoundCertificateDetected,
    NatLine, IntLine, CycleChain, CycleChainWithRays, LinesWithSticks, Doubled,
    Delta2TwoEnded, CeEnumeration, Halting, LimitApprox, bounded_distance, distances_from,
    BinaryTree, GraphOracle, ProductGraph, GADGET_KINDS, build_gadget, parse_graph_spec,
)
from graphends.separation import (
    _ball_rim, _boundary_vertices, _build_window, _cover_radius, _stable_partition,
    boundary_vertices, comp_approx,
    comp_counter, decide_comp, boundary_partition, semidecide_not_separating,
    minimal_separating_subsets, ends_from_sepmax, sepmax_witness_from_ends,
    shell_edges, BoundaryPartition, _shells,
)
from graphends.graph_core import bfs_layers, cut_index
from _brute import brute_components, label_sign, label_one_end, make_rays_label
from _fixtures import CorePlusRays, PendantLine, LollipopLine, LoopyLine, TwoEndLineWithChord


def as_triples(es):
    return {(e.u, e.v, e.slot) for e in es}


def brute_oracle(g, label, quiet, radius=30):
    def comp(es):
        return brute_components(g, as_triples(edge_set(es)), radius, label, quiet)[0]
    return comp


# ---------------------------------------------------------------------------
# comp_approx
# ---------------------------------------------------------------------------

def test_comp_approx_int_line():
    g = IntLine()
    e = {edge(0, 1)}
    for n in range(0, 8):
        assert comp_approx(g, e, n) == 2


def test_comp_approx_empty_set():
    assert comp_approx(IntLine(), frozenset(), 5) == 0
    assert comp_approx(CycleChain(CeEnumeration((2,))), frozenset(), 0) == 0


@pytest.mark.parametrize("n", [-1, -2])
def test_comp_approx_negative_stage_is_zero(n):
    # every reach set is empty before stage 1, so nothing grows and no
    # vertex carries
    assert comp_approx(IntLine(), {edge(0, 1)}, n) == 0
    assert comp_approx(LoopyLine(), {edge(1, 2, 1)}, n) == 0


def test_comp_approx_sticks_reconnect():
    # halting at 3 creates the chord (-4, 4); removing (0,1) leaves the
    # segment 0..-3 finite and everything else hangs together through the
    # chord, so the approximation drops to 1
    g = LinesWithSticks(Halting(3))
    e = {edge(0, 1)}
    assert comp_approx(g, e, 0) == 2
    assert comp_approx(g, e, 20) == 1


def test_comp_approx_min_is_the_component_count():
    g = LinesWithSticks(Halting(2))
    e = {edge(-1, 0), edge(1, 2)}
    values = [comp_approx(g, e, n) for n in range(25)]
    truth, _ = brute_components(g, as_triples(edge_set(e)), 30, label_sign, quiet=8)
    assert min(values) == truth


# ---------------------------------------------------------------------------
# comp_approx and _cover_radius against a test-local reference
# ---------------------------------------------------------------------------

def _surviving_edges(g, removed, v):
    return {(min(v, w), max(v, w), s) for w, m in g.neighbors(v) for s in range(m)} - removed


def _bfs(g, source, radius, removed=frozenset()):
    """Distances within `radius` of source, moving only along surviving edges."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            continue
        for w, m in g.neighbors(x):
            if w not in dist and any((min(x, w), max(x, w), s) not in removed
                                     for s in range(m)):
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def _ref_reach(g, removed, v, n):
    """The stage definition's reach: surviving edges with an endpoint within
    n-1 of v in G minus removed."""
    if n == 0:
        return frozenset()
    return frozenset().union(*(_surviving_edges(g, removed, x)
                               for x in _bfs(g, v, n - 1, removed)))


def ref_comp_approx(g, removed, n):
    """Carriers are boundary vertices whose reach grows from n to n+1,
    merged while two groups' reach sets share an edge."""
    if not removed:
        return 0
    ends = sorted({x for u, v, _s in removed for x in (u, v)})
    groups = []
    for v in ends:
        if not _surviving_edges(g, removed, v):
            continue
        now = _ref_reach(g, removed, v, n)
        if now != _ref_reach(g, removed, v, n + 1):
            groups.append(set(now))
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i] & groups[j]:
                    groups[i] |= groups.pop(j)
                    merged = True
                    break
            if merged:
                break
    return len(groups)


FULL_RANGE = tuple(range(32)) + (64,)

# one member of every stock family; the trees grow like 2^n, so their full
# members run the first stages only, and pruned members of the same classes
# (a polynomial subtree, and the quadrant that is the product of two rays)
# run every stage
STOCK = {
    "nat-line": (lambda: parse_graph_spec("nat-line"), FULL_RANGE),
    "int-line": (lambda: parse_graph_spec("int-line"), FULL_RANGE),
    "cycle-chain": (lambda: parse_graph_spec("cycle-chain:events@2,5"), FULL_RANGE),
    "cycle-chain-all": (lambda: parse_graph_spec("cycle-chain:events-all"), FULL_RANGE),
    "rays<k>": (lambda: parse_graph_spec("rays3:events@1,3"), FULL_RANGE),
    "one-way-multi": (lambda: parse_graph_spec("one-way-multi:events@2,5"), FULL_RANGE),
    "doubled-chain": (lambda: parse_graph_spec("doubled-chain:events@1,3"), FULL_RANGE),
    "sigma21-line": (lambda: parse_graph_spec("sigma21-line:changes@2,5"), FULL_RANGE),
    "pi1-line": (lambda: parse_graph_spec("pi1-line:halt@3"), FULL_RANGE),
    "delta2": (lambda: parse_graph_spec("delta2:changes@2,5"), FULL_RANGE),
    "lines-with-sticks": (lambda: parse_graph_spec("lines-with-sticks:halt@3"), FULL_RANGE),
    "comb": (lambda: parse_graph_spec("comb:3,never,2"), FULL_RANGE),
    "binary-tree": (lambda: parse_graph_spec("binary-tree"), range(8)),
    "binary-tree-pruned": (lambda: build_gadget(
        "binary-tree", predicate=lambda v: bin(v).count("1") <= 2), FULL_RANGE),
    "lambda": (lambda: parse_graph_spec("lambda"), range(7)),
    "lambda-quadrant": (lambda: ProductGraph(
        *(BinaryTree(lambda v: v & (v - 1) == 0) for _ in range(2))), FULL_RANGE),
    "loopy-line": (LoopyLine, FULL_RANGE),
}


# seeded random cores with k rays (tests/_fixtures.py)
CORES = [(seed, k) for k in (1, 2, 3) for seed in (1, 2, 3)]


def test_stock_covers_every_gadget_kind():
    assert set(GADGET_KINDS) <= set(STOCK)


def _removals(name, g):
    """Seeded removals of 1-3 edges among the radius-3 ball's edges."""
    near = _bfs(g, g.basepoint, 3)
    pool = sorted({e for v in near for e in _surviving_edges(g, frozenset(), v)
                   if e[0] in near and e[1] in near})
    rng = random.Random(name)
    return [frozenset(rng.sample(pool, min(k, len(pool)))) for k in (1, 1, 2, 2, 3, 3)]


@pytest.mark.parametrize("name", sorted(STOCK))
def test_comp_approx_against_reference(name):
    make, stages = STOCK[name]
    g = make()
    removals = _removals(name, g)
    if name == "loopy-line":
        # one parallel copy; the pendant cut off so the loop is its last growth
        removals += [frozenset({(1, 2, 0)}), frozenset({(-1, 0, 0)}),
                     frozenset({(-2, -2, 0), (1, 2, 1)}), frozenset({(-2, -1, 0), (0, 1, 0)})]
    for removed in removals:
        for n in stages:
            want = ref_comp_approx(g, removed, n)
            assert comp_approx(g, edge_set(removed), n) == want, (sorted(removed), n)


@pytest.mark.parametrize("name", sorted(k for k, (_m, st) in STOCK.items() if st is FULL_RANGE))
def test_cover_radius_against_full_bfs(name):
    g = STOCK[name][0]()
    dist = _bfs(g, g.basepoint, 12)
    assert _cover_radius(g, frozenset(), Fuel(max_radius=1)) == 1
    for d in range(8):
        es = edge_set(e for v, dv in dist.items() if dv == d
                      for e in _surviving_edges(g, frozenset(), v))
        far = max(dist[x] for e in es for x in e[:2])
        for radius in (1, 2, 3, 5, 8, 64):
            want = max(far, 1) if far <= radius else None
            assert _cover_radius(g, es, Fuel(max_radius=radius)) == want, (d, radius)


def test_cover_radius_of_a_loop_at_the_basepoint_is_one():
    g = LoopyLine()
    g.basepoint = -2
    assert _cover_radius(g, edge_set([(-2, -2, 0)]), Fuel(max_radius=1)) == 1


# ---------------------------------------------------------------------------
# the removed-edge index against a copy-by-copy reference
# ---------------------------------------------------------------------------

CUT_GRAPHS = {name: make for name, (make, _st) in STOCK.items()}
CUT_GRAPHS.update({"core-plus-rays-%d-%d" % (seed, k): (
    lambda seed=seed, k=k: CorePlusRays(seed, size=4, k=k)) for seed, k in CORES})
CUT_GRAPHS.update({
    "doubled-core-plus-rays": lambda: Doubled(CorePlusRays(2, size=4, k=2)),
    "delta2-odd": lambda: Delta2TwoEnded(LimitApprox((1, 2, 4))),
})


def _cut_cases(name, g):
    """The seeded removals, and at each parallel pair or loop near the
    basepoint: its first copy, its last copy and every copy; then, at the
    first pair, a slot past its multiplicity alone and with every copy."""
    near = _bfs(g, g.basepoint, 3)
    pairs = sorted({(min(v, w), max(v, w)): m for v in near
                    for w, m in g.neighbors(v) if w in near}.items())
    cases = _removals(name, g)
    for (u, v), m in pairs:
        if m > 1 or u == v:
            cases += [frozenset({(u, v, 0)}), frozenset({(u, v, m - 1)}),
                      frozenset((u, v, s) for s in range(m))]
    (u, v), m = pairs[0]
    return cases + [frozenset({(u, v, m)}), frozenset((u, v, s) for s in range(m + 1))]


@pytest.mark.parametrize("name", sorted(CUT_GRAPHS))
def test_bfs_layers_against_copy_by_copy_reference(name):
    g = CUT_GRAPHS[name]()
    depth = 4 if name in ("binary-tree", "lambda") else 6
    for removed in _cut_cases(name, g):
        cut = cut_index(edge_set(removed))
        for v in sorted({x for u, w, _s in removed for x in (u, w)}):
            want = _bfs(g, v, depth, removed)
            layers = [[x for x, d in want.items() if d == i] for i in range(max(want.values()) + 1)]
            assert list(islice(bfs_layers(g, v, cut), depth + 1)) == layers, (sorted(removed), v)
            assert distances_from(g, v, depth, avoid_edges=removed) == want, (sorted(removed), v)
        keep = sorted({x for u, w, _s in removed for x in (u, w)
                       if _surviving_edges(g, removed, x)})
        assert boundary_vertices(g, edge_set(removed)) == keep, sorted(removed)


@pytest.mark.parametrize("name", sorted(CUT_GRAPHS))
def test_bounded_distance_against_bfs(name):
    """The two-sided search answers None or the BFS distance, and the
    distance whenever it is at most max_radius."""
    g = CUT_GRAPHS[name]()
    near = sorted(distances_from(g, g.basepoint, 3))
    picks = random.Random(name).sample(near, min(8, len(near)))
    for x in picks:
        dist = distances_from(g, x, 6)
        for y in picks:
            for radius in (1, 2, 3):
                got = bounded_distance(g, x, y, radius)
                assert got in (None, dist.get(y)), (x, y, radius)
                if dist.get(y, radius + 1) <= radius:
                    assert got == dist[y], (x, y, radius)


# ---------------------------------------------------------------------------
# _stable_partition against a test-local reference
# ---------------------------------------------------------------------------

def _ref_merge(sets):
    """Key groups, merged while two groups' sets share an element."""
    groups = [({v}, set(x)) for v, x in sorted(sets.items())]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if groups[i][1] & groups[j][1]:
                    keys, elems = groups.pop(j)
                    groups[i][0].update(keys)
                    groups[i][1].update(elems)
                    merged = True
                    break
            if merged:
                break
    return sorted((frozenset(keys) for keys, _x in groups), key=min)


def ref_stable_partition(g, wp, k, max_radius):
    """The machine's definition: at n = 1, 2, ... the boundary vertices
    whose reach grows from n to n+1 are active, and active vertices are
    merged while their reach sets at n+1 share an edge.  Fewer than k groups
    is a contradiction; exactly k ends the search, and each inactive vertex
    keeps its reach at n."""
    removed = as_triples(wp)
    bnd = sorted(v for v in edge_induced_vertices(wp) if _surviving_edges(g, removed, v))
    for n in range(1, max_radius + 1):
        now = {v: _ref_reach(g, removed, v, n) for v in bnd}
        nxt = {v: _ref_reach(g, removed, v, n + 1) for v in bnd}
        groups = _ref_merge({v: nxt[v] for v in bnd if now[v] != nxt[v]})
        if len(groups) < k:
            raise UnsoundCertificateDetected(len(groups))
        if len(groups) == k:
            active = set().union(*groups)
            return groups, {v: now[v] for v in bnd if v not in active}
    return None


# ends of the STOCK members that have finitely many
STOCK_ENDS = {
    "nat-line": 1, "int-line": 2, "cycle-chain": 2, "cycle-chain-all": 1, "rays<k>": 4,
    "one-way-multi": 2, "doubled-chain": 2, "sigma21-line": 1, "pi1-line": 1, "delta2": 2,
    "lines-with-sticks": 2, "comb": 2, "lambda": 1, "lambda-quadrant": 1, "loopy-line": 1,
}
PARTITION_GRAPHS = {name: (STOCK[name][0], ends) for name, ends in STOCK_ENDS.items()}
PARTITION_GRAPHS.update({"core-plus-rays-%d-%d" % (seed, k): (
    lambda seed=seed, k=k: CorePlusRays(seed, size=4, k=k), k) for seed, k in CORES})


def _outcome(run):
    try:
        got = run()
    except UnsoundCertificateDetected:
        return "unsound"
    if got is None:
        return None
    groups, finite = got
    return groups, {v: set(map(tuple, reach)) for v, reach in finite.items()}


@pytest.mark.parametrize("name", sorted(PARTITION_GRAPHS))
def test_stable_partition_against_reference(name):
    make, k = PARTITION_GRAPHS[name]
    g = make()
    fuel = Fuel(max_radius=6 if name == "lambda" else 16)
    # the radius-r balls, as the window machine uses, and seeded small
    # removals, which leave more finite pieces and more groups than k
    wps = [ball(g, g.basepoint, r).edges for r in range(1, 5 if name != "lambda" else 3)]
    for wp in wps + [edge_set(e) for e in _removals(name, g)]:
        want = _outcome(lambda: ref_stable_partition(g, wp, k, fuel.max_radius))
        assert _outcome(lambda: _stable_partition(g, wp, k, fuel)) == want, sorted(wp)


# the window's splits, read off the last layer of a ball: loops
# (loopy-line), parallel edges (doubled-chain, and a doubled cycle chain)
# and every stock family, with cores of one to three rays
RIM_GRAPHS = dict(PARTITION_GRAPHS)
RIM_GRAPHS["doubled-cycle-chain"] = (lambda: Doubled(CycleChain(CeEnumeration((2, 5)))), 2)
RIM_GRAPHS.update({"core-plus-rays-4-%d" % k: (
    lambda k=k: CorePlusRays(4, size=4, k=k), k) for k in (1, 2, 3)})


@pytest.mark.parametrize("name", sorted(RIM_GRAPHS))
def test_ball_rim_against_the_whole_ball(name):
    """_ball_rim, from ball(r) or ball(r + 1), gives the boundary of
    ball(r).edges, its cut on layer r, and the same split outcome."""
    make, k = RIM_GRAPHS[name]
    g = make()
    fuel = Fuel(max_radius=6 if name == "lambda" else 16)
    for r in range(1, 4 if name == "lambda" else 9):
        wp = ball(g, g.basepoint, r).edges
        cut = cut_index(wp)
        for radius in (r, r + 1):
            dist = ball(g, g.basepoint, radius).distances
            rim = _ball_rim(g, dist, r)
            assert rim[1] == _boundary_vertices(g, wp, cut), (r, radius)
            assert rim[0] == {v: cut[v] for v, d in dist.items() if d == r}, (r, radius)
        want = _outcome(lambda: _stable_partition(g, wp, k, fuel))
        assert _outcome(lambda: _stable_partition(g, wp, k, fuel, rim)) == want, r


def test_a_fresh_window_reads_no_boundary_off_the_whole_ball(monkeypatch):
    import graphends.separation as sep
    calls, real = [], sep._boundary_vertices
    monkeypatch.setattr(sep, "_boundary_vertices", lambda *a: calls.append(a) or real(*a))
    g, e = parse_graph_spec("cycle-chain:events@2,5"), {edge(3, 4)}
    assert decide_comp(g, e, EndsCertificate(2, edge_set([(7, 8, 0), (-8, -7, 0)]))) == 1
    assert calls == []


# ---------------------------------------------------------------------------
# the decision window
# ---------------------------------------------------------------------------

def test_one_split_of_the_window_is_a_fixed_point():
    """Splitting a window that _build_window returns again gives its own
    groups and no finite reach, so a second split could add nothing."""
    fuel = Fuel()
    cases = []
    for k in (1, 2, 3):
        for seed in range(1, 10):
            g = CorePlusRays(seed, size=4, k=k)
            cert = EndsCertificate(k, g.ray_edges)
            cases += [(g, edge_set(e), cert) for e in _removals("cpr-%d-%d" % (seed, k), g)]
    # region windows, as check_two_way prepares them
    delta2_cut = edge_set([(8, 9, 0), (8, 9, 1), (-9, -8, 0), (-9, -8, 1)])
    doubled_cut = edge_set([(7, 8, 0), (7, 8, 1), (-8, -7, 0), (-8, -7, 1)])
    for g, cert in [(IntLine(), EndsCertificate(2, {edge(0, 1)})),
                    (Doubled(CycleChain(CeEnumeration((2, 5)))), EndsCertificate(2, doubled_cut)),
                    (Delta2TwoEnded(LimitApprox((2, 5))), EndsCertificate(2, delta2_cut))]:
        cases += [(g, ball(g, g.basepoint, sr).edges, cert) for sr in (1, 2, 4, 8)]
    # removing (0, 1) leaves core vertex 2, on the rim of ball(r0 + 1), in a
    # finite piece: the split of ball(r0 + 1) reports it, and U absorbs it
    g = CorePlusRays(5, size=6, k=1)
    cases.append((g, {edge(0, 1)}, EndsCertificate(1, g.ray_edges)))
    w = ball(g, g.basepoint, 2).edges
    assert _cover_radius(g, {edge(0, 1)} | g.ray_edges, fuel) == 1
    assert set(_stable_partition(g, w, 1, fuel)[1]) == {2}
    for g, e, cert in cases:
        u, groups = _build_window(g, e, cert, fuel)
        assert e | cert.witness <= u
        assert _stable_partition(g, u, cert.ends, fuel) == (groups, {}), sorted(e)


# ---------------------------------------------------------------------------
# semidecide_not_separating
# ---------------------------------------------------------------------------

def test_semidecide_nat_line_cut_is_not_separating():
    assert semidecide_not_separating(NatLine(), {edge(3, 4)}) is True


def test_semidecide_stays_unknown_on_separating_cut():
    got = semidecide_not_separating(IntLine(), {edge(0, 1)}, Fuel(max_radius=12))
    assert got == Unknown(12)


def test_semidecide_sticks():
    g = LinesWithSticks(Halting(1))
    assert semidecide_not_separating(g, {edge(0, 1)}) is True


def test_semidecide_one_sided_on_random_cuts():
    rng = random.Random(7)
    g = CycleChain(CeEnumeration((3, 7)))
    label = label_sign
    for _ in range(25):
        picks = {edge(v, v + 1) for v in rng.sample(range(-9, 9), rng.randint(1, 3))
                 if g.contains(v)}
        picks = {e for e in picks
                 if any(w == e.v for w, _ in g.neighbors(e.u))}
        if not picks:
            continue
        truth, _ = brute_components(g, as_triples(picks), 30, label, quiet=12)
        verdict = semidecide_not_separating(g, picks, Fuel(max_radius=20))
        if truth >= 2:
            assert isinstance(verdict, Unknown)
        else:
            assert verdict is True


# ---------------------------------------------------------------------------
# decide_comp
# ---------------------------------------------------------------------------

def test_decide_comp_two_ended_line():
    g = IntLine()
    cert = EndsCertificate(2, {edge(0, 1)})
    assert decide_comp(g, {edge(5, 6)}, cert) == 2
    assert decide_comp(g, {edge(-3, -2), edge(4, 5)}, cert) == 2
    assert decide_comp(g, frozenset(), cert) == 1


def test_a_small_radius_budget_is_unknown_to_every_window_decider():
    # (5,6) lies beyond radius 3 of the basepoint, so no window fits
    g = IntLine()
    cert = EndsCertificate(2, {edge(0, 1)})
    region = {edge(5, 6)}
    fuel = Fuel(max_radius=3)
    assert comp_counter(g, region, cert, fuel) == Unknown(3)
    assert decide_comp(g, region, cert, fuel) == Unknown(3)
    assert boundary_partition(g, region, cert, fuel) == Unknown(3)
    assert comp_counter(g, region, cert, Fuel(max_radius=8))(region) == 2


def test_the_window_radius_boundary_of_the_separation_deciders():
    # r0 = 6 puts vertex 6 on the certificate's ball; the window is ball(7)
    e, cert = {edge(5, 6)}, EndsCertificate(2, {edge(0, 1)})
    assert _cover_radius(IntLine(), e | cert.witness, Fuel()) == 6
    fuel = Fuel(max_radius=7)
    assert decide_comp(IntLine(), e, cert, fuel) == 2
    assert boundary_partition(IntLine(), e, cert, fuel).infinite_groups == ({5}, {6})
    assert comp_counter(IntLine(), e, cert, fuel)(e) == 2
    fuel = Fuel(max_radius=6)
    for decide in (decide_comp, boundary_partition, comp_counter):
        assert decide(IntLine(), e, cert, fuel) == Unknown(6), decide


def test_comp_counter_without_a_window_still_checks_each_candidate():
    # one end, or an empty region, needs no window; the counter still
    # validates each candidate and refuses one outside the region
    g = IntLine()
    for region, cert in [({edge(0, 1)}, EndsCertificate(1)),
                         (set(), EndsCertificate(2, {edge(0, 1)}))]:
        count = comp_counter(g, region, cert)
        with pytest.raises(InvalidEdge):
            count({edge(40, 42)})
        with pytest.raises(GraphError, match="leaves the prepared region"):
            count({edge(40, 41)})
        assert count(region) == 1
        assert count(frozenset()) == 1


def test_the_window_answers_before_its_groups_reconnect():
    # Seen from basepoint -4, ball(2) holds e and the witness, and its rim
    # vertices -2 and 3 lie in one infinite component but meet again, through
    # 0 and 1, only in ball(4).  Joining each group's members gives the count
    # at radius 3, before they reconnect.
    g = TwoEndLineWithChord()
    g.basepoint = -4
    e, cert = {edge(-6, -5)}, EndsCertificate(2, {edge(-4, -3)})
    truth, _ = brute_components(TwoEndLineWithChord(), as_triples(edge_set(e)), 30,
                                label_sign, quiet=8)
    assert decide_comp(g, e, cert, Fuel(max_radius=3)) == truth == 2
    assert decide_comp(g, e, cert, Fuel(max_radius=2)) == Unknown(2)


def test_decide_comp_one_ended_shortcut():
    g = CycleChain(CeEnumeration(every_stage=True))
    cert = EndsCertificate(1)
    assert decide_comp(g, {edge(0, 1), edge(-1, 0)}, cert) == 1
    assert decide_comp(g, {edge(3, 4)}, cert) == 1


def test_decide_comp_rays_gadget():
    g = CycleChainWithRays(CeEnumeration(every_stage=True), k=3)
    w = {edge(0, 3), edge(0, 4), edge(0, 5)}
    cert = EndsCertificate(3, w)
    assert decide_comp(g, w, cert) == 3


def test_decide_comp_empty_witness_rejected():
    g = CycleChainWithRays(CeEnumeration(every_stage=True), k=3)
    with pytest.raises(UnsoundCertificateDetected):
        decide_comp(g, {edge(0, 3)}, EndsCertificate(2))


def test_decide_comp_overcounting_cert_rejected():
    # claiming 4 ends on the 3-ended gadget: the window machine can only
    # ever find 3 groups, and seeing fewer than claimed is a contradiction
    g = CycleChainWithRays(CeEnumeration(every_stage=True), k=3)
    w = edge_set([(0, 3), (0, 4), (0, 5), (0, -3)])
    with pytest.raises(UnsoundCertificateDetected):
        decide_comp(g, w, EndsCertificate(4, w), Fuel(max_radius=20))


def test_the_certificate_is_checked_on_the_first_covering_ball():
    # The witness leaves one infinite component, not two.  Only the split
    # of ball(r0) sees it: the window grown from ball(r0 + 1) would answer.
    g = parse_graph_spec("cycle-chain:events@2,5")
    witness = [(1, 2, 0), (4, 5, 0)]
    assert brute_components(g, witness, 30, label_sign, quiet=12)[0] == 1
    cert = EndsCertificate(2, edge_set(witness))
    with pytest.raises(UnsoundCertificateDetected):
        decide_comp(g, {edge(3, 4)}, cert)
    with pytest.raises(UnsoundCertificateDetected):
        boundary_partition(g, {edge(3, 4)}, cert)


# ---------------------------------------------------------------------------
# the oracle keeps the last window built
# ---------------------------------------------------------------------------

def _count_splits(monkeypatch):
    """Record every _stable_partition call from here on."""
    import graphends.separation as sep
    calls, real = [], sep._stable_partition
    monkeypatch.setattr(sep, "_stable_partition", lambda *a: calls.append(a) or real(*a))
    return calls


def test_decide_comp_then_boundary_partition_split_one_window(monkeypatch):
    splits = _count_splits(monkeypatch)
    g, e = IntLine(), {edge(5, 6)}
    cert = EndsCertificate(2, {edge(0, 1)})
    assert decide_comp(g, e, cert) == 2
    assert boundary_partition(g, e, cert).infinite_groups == ({5}, {6})
    # ball(r0) and ball(r0 + 1), both split once for the two deciders
    assert len(splits) == 2


def test_a_wrong_certificate_raises_on_every_call(monkeypatch):
    # the case of test_the_certificate_is_checked_on_the_first_covering_ball,
    # around a window kept from a sound certificate
    g, e = parse_graph_spec("cycle-chain:events@2,5"), {edge(3, 4)}
    bad = EndsCertificate(2, edge_set([(1, 2, 0), (4, 5, 0)]))
    good = EndsCertificate(2, edge_set([(7, 8, 0), (-8, -7, 0)]))
    assert decide_comp(g, e, good) == 1
    splits = _count_splits(monkeypatch)
    for decide in (decide_comp, decide_comp, boundary_partition):
        with pytest.raises(UnsoundCertificateDetected):
            decide(g, e, bad)
    assert len(splits) == 3  # the ball(r0) split, every time
    assert decide_comp(g, e, good) == 1 and len(splits) == 3


SLOT_GRAPHS = {name: (STOCK[name][0], k) for name, k in STOCK_ENDS.items() if k >= 2}
SLOT_GRAPHS.update({"core-plus-rays-%d-%d" % (seed, k): (
    lambda seed=seed, k=k: CorePlusRays(seed, size=4, k=k), k)
    for seed in (1, 2) for k in (2, 3)})


def _answer(run):
    try:
        return run()
    except UnsoundCertificateDetected:
        return "unsound"


@pytest.mark.parametrize("name", sorted(SLOT_GRAPHS))
def test_the_kept_window_answers_as_a_fresh_oracle_does(name):
    """Interleaved decisions on one oracle, against the same decisions each
    on a fresh oracle.  A random walk changes one of decider, removal,
    certificate and fuel per call, so the kept window is hit, missed and
    replaced.  Two certificates take the basepoint's radius-6 and radius-7
    balls as witnesses, and a third claims an end too many; the tight fuel
    leaves some windows Unknown."""
    make, k = SLOT_GRAPHS[name]
    g = make()
    certs = [EndsCertificate(k, ball(g, g.basepoint, 6).edges),
             EndsCertificate(k, ball(g, g.basepoint, 7).edges),
             EndsCertificate(k + 1, ball(g, g.basepoint, 6).edges)]
    fuels = [Fuel(), Fuel(max_radius=7)]
    removals = [edge_set(e) for e in _removals(name, g)[::2]]
    removals += [frozenset({min(shell_edges(g, r))}) for r in (2, 5, 9)]
    choices = [(decide_comp, boundary_partition), removals, certs, fuels]
    rng = random.Random(name)
    pick = [rng.choice(c) for c in choices]
    hits, keys = 0, set()
    for _ in range(24):
        i = rng.randrange(4)
        pick[i] = rng.choice(choices[i])
        decide, e, cert, fuel = pick
        key = (cert, _cover_radius(g, e | cert.witness, fuel), fuel)
        hits, keys = hits + (g._window[0] == key), keys | {key}
        want = _answer(lambda: decide(make(), e, cert, fuel))
        assert _answer(lambda: decide(g, e, cert, fuel)) == want, (decide, sorted(e), cert, fuel)
    assert hits and len(keys) > 1


def test_decide_comp_matches_brute_on_sticks():
    g = LinesWithSticks(Halting(4))
    cert = EndsCertificate(2, {edge(8, 9)})
    rng = random.Random(11)
    for _ in range(12):
        cand = [edge(v, v + 1) for v in rng.sample(range(-6, 7), rng.randint(1, 3))]
        e = {c for c in cand if any(w == c.v for w, _ in g.neighbors(c.u))}
        if not e:
            continue
        got = decide_comp(g, e, cert)
        truth, _ = brute_components(g, as_triples(edge_set(e)), 30, label_sign, quiet=10)
        assert got == truth, e


def test_decide_comp_matches_brute_on_delta2():
    g = Delta2TwoEnded(LimitApprox((2, 5)))
    # a genuine two-sided cut: sever both parallel copies on each side of the
    # [-8, 8] block so the certificate witness really leaves two pieces
    cert = EndsCertificate(
        2, edge_set([(8, 9, 0), (8, 9, 1), (-9, -8, 0), (-9, -8, 1)])
    )
    rng = random.Random(5)
    for _ in range(12):
        e = set()
        for v in rng.sample(range(-6, 7), rng.randint(1, 2)):
            for w, m in g.neighbors(v):
                if w == v + 1 or (v <= 0 and w == v - 1):
                    e.update(edge(v, w, s) for s in range(m))
        if not e:
            continue
        got = decide_comp(g, e, cert, Fuel(max_radius=40))
        truth, _ = brute_components(g, as_triples(frozenset(e)), 32, label_sign, quiet=10)
        assert got == truth, sorted(e)


# ---------------------------------------------------------------------------
# boundary_partition
# ---------------------------------------------------------------------------

def test_boundary_partition_int_line():
    g = IntLine()
    got = boundary_partition(g, {edge(0, 1)}, EndsCertificate(2, {edge(0, 1)}))
    assert got == BoundaryPartition((frozenset({0}), frozenset({1})), frozenset())


def test_boundary_partition_pendant():
    # remove the whole star at 5: only 6 keeps an infinite continuation; the
    # 0..4 segment, the pendant, and the star center itself are all stranded
    g = PendantLine(at=5)
    e = edge_set([(4, 5), (5, 6), (5, -1)])
    got = boundary_partition(g, e, EndsCertificate(1))
    assert got.infinite_groups == (frozenset({6}),)
    assert got.finite_group == frozenset({4, 5, -1})


def test_boundary_partition_empty_removal():
    got = boundary_partition(IntLine(), frozenset(), EndsCertificate(2, {edge(0, 1)}))
    assert got == BoundaryPartition((), frozenset())


def test_boundary_partition_unsound_cert():
    g = CycleChainWithRays(CeEnumeration(every_stage=True), k=3)
    with pytest.raises(UnsoundCertificateDetected):
        boundary_partition(g, {edge(0, 3)}, EndsCertificate(2))


def test_boundary_partition_lollipop_cycle_edge():
    # removing one cycle edge disconnects nothing: both endpoints stay in
    # the single infinite component
    g = LollipopLine()
    got = boundary_partition(g, {edge(-1, 0)}, EndsCertificate(1))
    assert got.infinite_groups == (frozenset({-1, 0}),)
    assert got.finite_group == frozenset()


# ---------------------------------------------------------------------------
# the deciders against the brute oracle on random cores with rays
# ---------------------------------------------------------------------------

def _subsets(edges):
    edges = sorted(edges)
    for mask in range(1 << len(edges)):
        yield frozenset(e for i, e in enumerate(edges) if mask >> i & 1)


@pytest.mark.parametrize("seed,k", CORES)
def test_deciders_against_brute_on_core_plus_rays(seed, k):
    """decide_comp, comp_counter, boundary_partition and the last stage of
    comp_approx agree with the brute oracle on every subset E of the core's
    edges plus the first edge of each ray.

    These subsets suffice for the component count.  Map any finite removal
    F to E by keeping its core edges and, for each ray F cuts, removing
    that ray's first edge in place of F's edges on it.  The ray's tail past
    the last cut is an infinite component either way, the stretches between
    cuts are finite either way, and a finite stretch still hanging from the
    core cannot make a core component infinite.  So F and E leave the same
    number of infinite components, with the same core vertices in them.

    The stage bound: a finite component lies inside the core, so its reach
    stops growing by stage `size`; two carriers of one infinite component
    are joined by a path through the core and the rays' first vertices, of
    length below size + k <= 2n - 1 at n = size + k.
    """
    g = CorePlusRays(seed, size=4, k=k)
    cert = EndsCertificate(k, g.ray_edges)
    universe = g.core_edges() | g.ray_edges
    count = comp_counter(g, universe, cert)
    last = g.size + k
    for e in _subsets(universe):
        truth, finite = brute_components(g, as_triples(e), g.quiet + 3, g.end_label, g.quiet)
        assert decide_comp(g, e, cert) == truth, sorted(e)
        assert count(e) == truth, sorted(e)
        if not e:
            continue
        stages = [comp_approx(g, e, n) for n in range(last + 1)]
        assert min(stages) >= truth and stages[-1] == truth, (sorted(e), stages)
        ends = edge_induced_vertices(e)
        stranded = {v for v in ends if not _surviving_edges(g, as_triples(e), v)}
        got = boundary_partition(g, e, cert)
        assert got.finite_group == stranded.union(*finite) & ends, sorted(e)
        assert len(got.infinite_groups) == truth, sorted(e)
        assert got.finite_group.union(*got.infinite_groups) == ends, sorted(e)


# ---------------------------------------------------------------------------
# shells and minimal separators
# ---------------------------------------------------------------------------

def test_shell_edges_int_line():
    g = IntLine()
    assert shell_edges(g, 1) == edge_set([(-1, 0), (0, 1)])
    assert shell_edges(g, 3) == edge_set([(2, 3), (-3, -2)])


class _FiveCycleWithLoop(GraphOracle):
    """The finite cycle 0-1-2-3-4-0 with a loop at 2: its last BFS layer
    {2, 3} holds an edge and the loop."""

    def contains(self, v):
        return 0 <= v < 5

    def _neighbors(self, v):
        return sorted([((v - 1) % 5, 1), ((v + 1) % 5, 1)] + [(2, 1)] * (v == 2))


def _ref_shell(g, r):
    """shell_edges as it was defined on the ball of radius r."""
    b = ball(g, g.basepoint, r)
    rim = {v for v, d in b.distances.items() if d in (r - 1, r)}
    return frozenset(er for er in b.edges if er.u in rim and er.v in rim)


# every stock family, the random cores, parallel edges, loops, and two
# finite graphs scanned past their last layer; the full product of trees
# grows like r * 2^r, so it stops sooner
SHELL_GRAPHS = {name: (make, 7 if name == "lambda" else 10) for name, make in CUT_GRAPHS.items()}
SHELL_GRAPHS.update({
    "pruned-binary-tree-past-its-depth": (lambda: BinaryTree(lambda v: v < 16), 6),
    "five-cycle-with-loop": (_FiveCycleWithLoop, 5),
})


@pytest.mark.parametrize("name", sorted(SHELL_GRAPHS))
def test_shells_from_one_walk_match_the_ball_definition(name):
    make, radius = SHELL_GRAPHS[name]
    g = make()
    want = [_ref_shell(g, r) for r in range(1, radius + 1)]
    assert list(islice(_shells(g), radius)) == want
    assert [shell_edges(g, r) for r in range(1, radius + 1)] == want


def test_the_witness_search_asks_about_each_edge_set_once():
    g = parse_graph_spec("cycle-chain:events@3,40")
    asked = []

    def probe(es):
        asked.append(es)
        return comp_approx(g, es, 64) >= 2

    w = sepmax_witness_from_ends(g, 2, probe)
    assert len(asked) == len(set(asked))
    assert w == edge_set([(-41, 40), (-40, 40), (40, 41)])


def test_minimal_separating_subsets_int_line():
    g = IntLine()
    shell = shell_edges(g, 3)
    sep = brute_oracle(g, label_sign, quiet=6)
    mins = minimal_separating_subsets(g, shell, lambda s: sep(s) >= 2)
    assert mins == [frozenset({edge(-3, -2)}), frozenset({edge(2, 3)})]


def test_minimal_separating_subsets_requires_a_shell():
    g = IntLine()
    with pytest.raises(NotAShell):
        minimal_separating_subsets(g, {edge(0, 1), edge(5, 6)}, lambda s: True)
    with pytest.raises(NotAShell):
        minimal_separating_subsets(g, {edge(2, 3)}, lambda s: True)


def test_a_loop_at_the_basepoint_is_not_a_shell():
    """Its endpoints lie at radius 0, and shells start at radius 1."""
    g = LoopyLine()
    g.basepoint = -2
    with pytest.raises(NotAShell):
        minimal_separating_subsets(g, edge_set([(-2, -2, 0)]), lambda s: True)


def test_minimal_subsets_on_three_ended_gadget():
    g = CycleChainWithRays(CeEnumeration((2,)), k=2)  # finite events: 3 ends
    label = make_rays_label(2, label_sign)
    sep = brute_oracle(g, label, quiet=12)
    shell = shell_edges(g, 8)
    mins = minimal_separating_subsets(g, shell, lambda s: sep(s) >= 2)
    assert len(mins) == 3
    for a in mins:
        for b in mins:
            assert a == b or not (a & b)


def test_minimality_bijection_on_separating_shell():
    g = CycleChain(CeEnumeration((2,)))
    label = label_sign
    sep = brute_oracle(g, label, quiet=12)
    shell = shell_edges(g, 6)
    mins = minimal_separating_subsets(g, shell, lambda s: sep(s) >= 2)
    assert len(mins) == sep(shell)  # one minimal set per infinite component


# ---------------------------------------------------------------------------
# ends <-> sepmax round trips
# ---------------------------------------------------------------------------

def sepmax_oracle_for(g, label, k, quiet):
    comp = brute_oracle(g, label, quiet)
    return lambda es: comp(es) == k


def test_ends_from_sepmax_basics():
    assert ends_from_sepmax(NatLine(), sepmax_oracle_for(NatLine(), label_one_end, 1, 6)) == 1
    assert ends_from_sepmax(IntLine(), sepmax_oracle_for(IntLine(), label_sign, 2, 6)) == 2
    # a stage-6 probe that rejects the empty set on a one-ended core: at
    # every depth some minimal subset avoids the balls of two groups, so
    # no count comes out
    g = CorePlusRays(3, size=4, k=1)
    assert ends_from_sepmax(g, lambda es: comp_approx(g, es, 6) == 1,
                            Fuel(max_radius=16)) == Unknown(16)


def test_ends_from_sepmax_rays():
    g = CycleChainWithRays(CeEnumeration(every_stage=True), k=3)
    label = make_rays_label(3, lambda v: "chain")
    assert ends_from_sepmax(g, sepmax_oracle_for(g, label, 3, 12)) == 3
    # a lying oracle: every nonempty set whose largest endpoint is even
    liar = lambda es: bool(es) and max(e.v for e in es) % 2 == 0
    assert ends_from_sepmax(g, liar, Fuel(max_radius=2)) == 2
    assert ends_from_sepmax(g, liar, Fuel(max_radius=1)) == Unknown(1)
    # from basepoint 0 radius 1 answers already; from basepoint 10 the
    # first maximally separating shell has radius 4
    g.basepoint = 10
    oracle = sepmax_oracle_for(g, label, 3, 12)
    assert ends_from_sepmax(g, oracle, Fuel(max_radius=4)) == 3
    assert ends_from_sepmax(g, oracle, Fuel(max_radius=3)) == Unknown(3)


def test_ends_from_sepmax_merges_representatives_of_one_component():
    # On the two-ended ladder IntLine x K2, the first maximally separating
    # shell (radius 2) meets each side at two vertices, which meet again
    # one rung further out and must merge into one representative.
    ladder = lambda: ProductGraph(IntLine(), BinaryTree(lambda v: v <= 2))
    g = ladder()
    label = lambda v: label_sign(g.unpack(v)[0])
    shell, dist = shell_edges(g, 2), ball(g, g.basepoint, 2).distances
    assert brute_oracle(ladder(), label, quiet=6)(shell) == 2
    sides = [g.unpack(v)[0] > 0 for v in edge_induced_vertices(shell) if dist[v] == 2]
    assert sorted(sides) == [False, False, True, True]
    assert ends_from_sepmax(g, sepmax_oracle_for(ladder(), label, 2, 6), Fuel(max_radius=8)) == 2


def test_sepmax_witness_from_ends():
    g = IntLine()
    sep = brute_oracle(g, label_sign, quiet=6)
    w = sepmax_witness_from_ends(g, 2, lambda s: sep(s) >= 2)
    assert w == shell_edges(g, 1)
    assert sep(w) == 2

    assert sepmax_witness_from_ends(NatLine(), 1, lambda s: False) == frozenset()


def test_sepmax_witness_three_ends():
    g = CycleChainWithRays(CeEnumeration((2,)), k=2)
    label = make_rays_label(2, label_sign)
    comp = brute_oracle(g, label, quiet=12)
    w = sepmax_witness_from_ends(g, 3, lambda s: comp(s) >= 2, Fuel(max_radius=12))
    assert not isinstance(w, Unknown)
    assert comp(w) == 3


def test_round_trip_through_decide_comp():
    g = IntLine()
    cert = EndsCertificate(2, {edge(0, 1)})

    def oracle(es):
        return decide_comp(g, es, cert) == 2

    assert ends_from_sepmax(g, oracle) == 2
    w = sepmax_witness_from_ends(g, 2, lambda s: decide_comp(g, s, cert) >= 2)
    assert decide_comp(g, w, cert) == 2
