"""Path extension decisions, greedy growth, and the tree reduction."""

import math
import random
from functools import partial

import pytest

from graphends.graph_core import (
    EndsCertificate,
    Fuel,
    GraphError,
    InvalidVertex,
    NoExtension,
    NotASimplePath,
    Unknown,
    UnsoundCertificateDetected,
    ball,
    edge_set,
    edges_at,
)
from graphends.gadgets import (
    BinaryTree,
    CeEnumeration,
    CycleChain,
    Halting,
    IntLine,
    LinesWithSticks,
    NatLine,
    parse_graph_spec,
    tree_lambda,
)
from graphends import paths
from graphends.paths import (
    SimplePath,
    _escapes_outward,
    check_simple_path,
    decide_extendable,
    greedy_infinite_path,
    tree_sep_from_path,
)
from graphends.separation import boundary_partition

from _brute import brute_components
from _fixtures import CorePlusRays, LollipopLine, LoopyLine, PendantLine

ONE_END = EndsCertificate(1)
LINE_CERT = EndsCertificate(2, edge_set([(0, 1)]))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_simple_path_structural():
    with pytest.raises(NotASimplePath):
        SimplePath(())
    with pytest.raises(NotASimplePath):
        SimplePath((0, 1, 0))
    p = SimplePath((0, 1, 2))
    assert p.tip == 2
    assert p.edge_count == 2
    assert p.extended(3).vertices == (0, 1, 2, 3)


def test_check_simple_path():
    g = NatLine()
    assert check_simple_path(g, [0, 1, 2]).vertices == (0, 1, 2)
    with pytest.raises(NotASimplePath):
        check_simple_path(g, [0, 2])
    with pytest.raises(InvalidVertex):
        check_simple_path(g, [-1, 0])


# ---------------------------------------------------------------------------
# decide_extendable
# ---------------------------------------------------------------------------

def test_extendable_nat_line_forward():
    assert decide_extendable(NatLine(), [0, 1, 2], ONE_END) is True


def test_extendable_dead_end_at_pendant():
    g = PendantLine(at=5)
    assert decide_extendable(g, [4, 5, -1], ONE_END) is False


def test_extendable_into_finite_stick():
    # stick below 0 is cut short by the halt; its tip has nowhere to go
    g = LinesWithSticks(Halting(2))
    assert decide_extendable(g, [0, -1, -2], LINE_CERT) is False
    # ... but with no halt the downward walk runs forever
    g2 = LinesWithSticks(Halting(None))
    assert decide_extendable(g2, [0, -1, -2], LINE_CERT) is True


def test_extendable_sees_past_the_turn():
    # walking 3,2,1,0 leaves only the stick side open, and it is finite
    g = LinesWithSticks(Halting(2))
    assert decide_extendable(g, [3, 2, 1, 0], LINE_CERT) is False


def test_extendable_nat_line_downhill_is_no():
    # on the half line, walking toward 0 corners itself
    g = NatLine()
    assert decide_extendable(g, [3, 2, 1], ONE_END) is False
    assert decide_extendable(g, [3, 2, 1, 0], ONE_END) is False


def test_extendable_single_vertex_paths():
    assert decide_extendable(NatLine(), [0], ONE_END) is True
    assert decide_extendable(IntLine(), [0], LINE_CERT) is True
    # the graded route asks on past the finite candidate 0
    assert NatLine().outward_growing
    assert decide_extendable(NatLine(), [1], ONE_END) is True


def test_fast_and_slow_routes_agree_on_the_line():
    class SlowInt(IntLine):
        outward_growing = False

    fast, slow = IntLine(), SlowInt()
    for path in [(0,), (0, 1), (0, -1, -2), (2, 1, 0, -1)]:
        a = decide_extendable(fast, path, LINE_CERT)
        b = decide_extendable(slow, path, LINE_CERT)
        assert a is True and b is True, path


def test_fast_and_slow_routes_agree_on_pendant_dead_end():
    class Fastish(PendantLine):
        # not actually outward (the pendant is a counterexample), so the
        # promise must stay off; this just pins the slow answer
        pass

    g = Fastish(at=3)
    assert decide_extendable(g, [2, 3, -1], ONE_END) is False


def test_extendable_prefix_closure():
    g = CycleChain(CeEnumeration((2, 5)))
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    path = [0, -1, -2, 2, 3]
    assert decide_extendable(g, path, cert) is True
    for k in range(1, len(path)):
        assert decide_extendable(g, path[:k], cert) is True, k


@pytest.mark.parametrize("seed,k", [(seed, k) for k in (1, 2, 3) for seed in (1, 2, 3)])
def test_extendable_against_brute_on_core_plus_rays(seed, k):
    """Random simple paths in the core: the tip extends exactly when one of
    its neighbours off the path keeps a surviving edge and lies in no finite
    component of the brute oracle.  CorePlusRays is not outward growing, so
    every answer comes from a search of the decision window."""
    g = CorePlusRays(seed, size=4, k=k)
    assert not g.outward_growing
    cert = EndsCertificate(k, g.ray_edges)
    rng = random.Random(seed)
    for _ in range(12):
        walk = [rng.randrange(g.size)]
        for _step in range(rng.randrange(g.size)):
            nxt = [w for w, _m in g.neighbors(walk[-1]) if w < g.size and w not in walk]
            if not nxt:
                break
            walk.append(rng.choice(nxt))
        p = SimplePath(tuple(walk))
        removed = {(e.u, e.v, e.slot) for v in walk for e in edges_at(g, v)}
        _inf, finite = brute_components(g, removed, g.quiet + 3, g.end_label, g.quiet)
        want = any(
            w not in walk and any(x not in walk for x, _m in g.neighbors(w))
            and not any(w in c for c in finite)
            for w, _m in g.neighbors(p.tip))
        assert decide_extendable(g, p, cert) is want, walk


def test_extendable_two_candidates_in_one_finite_piece():
    # past 1, 0's neighbours -2 and -1 both lie on the finite cycle piece;
    # greedy's search from -2 finds it finite, and -1 meets what it marked
    assert decide_extendable(LollipopLine(), [1, 0], ONE_END) is False
    assert greedy_infinite_path(LollipopLine(), 0, ONE_END, 3).vertices == (0, 1, 2, 3)


def test_extendable_unknown_on_tiny_fuel():
    g = CycleChain(CeEnumeration((2, 5)))
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    assert decide_extendable(g, [0], cert, Fuel(max_radius=3)) == Unknown(3)
    # the outward escape search runs out of steps, not radius
    assert decide_extendable(BinaryTree(), [1], ONE_END, Fuel(max_steps=1)) == Unknown(1)


def test_extendable_fuel_boundaries():
    # the window branch: the window of the path 0..9, at r0 = 10, needs ball(11)
    chain_of_cycles = partial(parse_graph_spec, "cycle-chain:events@2,5")
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    path = list(range(10))
    assert decide_extendable(chain_of_cycles(), path, cert, Fuel(max_radius=11)) is True
    assert decide_extendable(chain_of_cycles(), path, cert, Fuel(max_radius=10)) == Unknown(10)
    # the graded branch: the escape search from 8 takes two steps
    assert decide_extendable(BinaryTree(), [1, 2, 4], ONE_END, Fuel(max_steps=2)) is True
    assert decide_extendable(BinaryTree(), [1, 2, 4], ONE_END, Fuel(max_steps=1)) == Unknown(1)


def _reference_extendable(g, p, cert, fuel=Fuel()):
    """The decider as separate searches: the graded escape search from each
    candidate, or else the boundary partition of every edge at p's vertices."""
    p = check_simple_path(g, p)
    on_path = set(p.vertices)
    candidates = sorted(w for w, _ in g.neighbors(p.tip) if w not in on_path)
    if not candidates:
        return False
    if g.outward_growing:
        dists = [g.base_distance(v) for v in p.vertices]
        if all(d is not None for d in dists):
            starved = None
            for w in candidates:
                verdict = _escapes_outward(g, on_path, w, max(dists) + 2, fuel)
                if verdict is True:
                    return True
                if isinstance(verdict, Unknown):
                    starved = verdict
            return False if starved is None else starved
    removed = frozenset(e for v in p.vertices for e in edges_at(g, v))
    bp = boundary_partition(g, removed, cert, fuel)
    if isinstance(bp, Unknown):
        return bp
    return any(w in group for group in bp.infinite_groups for w in candidates)


# ---------------------------------------------------------------------------
# greedy growth
# ---------------------------------------------------------------------------

def test_greedy_nat_line_golden():
    got = greedy_infinite_path(NatLine(), 0, ONE_END, 10)
    assert got.vertices == tuple(range(11))


def test_greedy_int_line_prefers_negative():
    got = greedy_infinite_path(IntLine(), 0, LINE_CERT, 5)
    assert got.vertices == (0, -1, -2, -3, -4, -5)


def test_greedy_skips_the_pendant_trap():
    # at vertex 5 the least neighbour is the pendant -1; the decider rejects
    # it (dead end) and the walk continues up the line without backtracking
    g = PendantLine(at=5)
    got = greedy_infinite_path(g, 0, ONE_END, 8)
    assert got.vertices == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_greedy_on_one_ended_cycle_chain():
    g = CycleChain(CeEnumeration(every_stage=True))
    got = greedy_infinite_path(g, 0, ONE_END, 8)
    assert got.edge_count == 8
    check_simple_path(g, got)
    for k in range(1, len(got.vertices) + 1):
        assert decide_extendable(g, got.vertices[:k], ONE_END) is True


def test_greedy_on_lambda():
    g = tree_lambda()
    got = greedy_infinite_path(g, g.basepoint, ONE_END, 50)
    assert got.edge_count == 50
    check_simple_path(g, got)
    # spot-check extendability along the way; the full sweep is the
    # acceptance run's job
    for k in (1, 10, 25, 51):
        assert decide_extendable(g, got.vertices[:k], ONE_END) is True


def test_greedy_propagates_unknown():
    g = CycleChain(CeEnumeration((2, 5)))
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    got = greedy_infinite_path(g, 0, cert, 4, Fuel(max_radius=3))
    assert isinstance(got, Unknown)


def test_greedy_no_extension_when_decider_rejects_everything(monkeypatch):
    # only an unsound certificate can corner the walk; simulate that by
    # making the decider reject every candidate
    import graphends.paths as paths_mod
    monkeypatch.setattr(paths_mod._Blocked, "escapes", lambda *a, **k: False)
    with pytest.raises(NoExtension):
        greedy_infinite_path(NatLine(), 0, ONE_END, 3)


def _stepwise_greedy(g, start, cert, length, fuel=Fuel()):
    """The builder as one decision about the whole path per candidate: the
    least neighbour w of the tip such that _reference_extendable(path + w)."""
    path = [start]
    while len(path) <= length:
        for w, _ in g.neighbors(path[-1]):
            if w in path:
                continue
            t = _reference_extendable(g, path + [w], cert, fuel)
            if isinstance(t, Unknown):
                return t
            if t:
                path.append(w)
                break
        else:
            raise NoExtension(path)
    return SimplePath(tuple(path))


# one member of every stock family with finitely many ends, and its ends
STOCK_SPECS = {
    "nat-line": 1, "int-line": 2, "cycle-chain:events@2,5": 2, "cycle-chain:events-all": 1,
    "rays3:events@1,3": 4, "one-way-multi:events@2,5": 2, "doubled-chain:events@1,3": 2,
    "sigma21-line:changes@2,5": 1, "pi1-line:halt@3": 1, "delta2:changes@2,5": 2,
    "lines-with-sticks:halt@3": 2, "comb:3,never,2": 2, "lambda": 1,
}


def _stock_case(spec):
    # the radius-6 ball holds a maximal-separation witness of each member
    g, k = parse_graph_spec(spec), STOCK_SPECS[spec]
    return g, g.basepoint, EndsCertificate(k, ball(g, g.basepoint, 6).edges if k > 1 else ())


def _rays_case(seed, k):
    g = CorePlusRays(seed, size=4, k=k)
    return g, g.basepoint, EndsCertificate(k, g.ray_edges)


def _one_end_case(make):
    g = make()
    return g, g.basepoint, ONE_END


GREEDY_CASES = {spec: partial(_stock_case, spec) for spec in STOCK_SPECS}
GREEDY_CASES.update({"core-plus-rays-%d-%d" % (seed, k): partial(_rays_case, seed, k)
                     for seed in (1, 2, 3, 4) for k in (1, 2, 3)})
GREEDY_CASES.update({name: partial(_one_end_case, make) for name, make in [
    ("pendant-line", PendantLine), ("lollipop-line", LollipopLine), ("tree-lambda", tree_lambda),
    # the cycle past the first escape: the way out found from 1 runs
    # through 3, whose least neighbour -2 is finite and must be asked
    ("lollipop-line-at-3", partial(LollipopLine, at=3))]})


def _simple_paths(g, start, edges):
    """Every simple path from start of at most `edges` edges."""
    paths, frontier = [], [(start,)]
    for _ in range(edges + 1):
        paths += frontier
        frontier = [q + (w,) for q in frontier for w, _ in g.neighbors(q[-1]) if w not in q]
    return paths


def test_extendable_matches_the_reference_decider():
    """decide_extendable against the reference on every greedy case, over
    the simple paths of up to three edges from its start."""
    for name, make in GREEDY_CASES.items():
        g, start, cert = make()
        for path in _simple_paths(g, start, 3):
            want = _reference_extendable(g, path, cert)
            assert decide_extendable(g, path, cert) == want, (name, path)


def test_greedy_matches_the_stepwise_builder():
    """The incremental builder, against one whole-path decision per
    candidate, on fresh oracles: the same vertices at every length."""
    for name, make in GREEDY_CASES.items():
        g, start, cert = make()
        want = _stepwise_greedy(g, start, cert, 40).vertices
        for length in (0, 1, 17, 40):
            g, start, cert = make()
            got = greedy_infinite_path(g, start, cert, length)
            assert got.vertices == want[:length + 1], (name, length)


@pytest.mark.parametrize("cert", [
    EndsCertificate(2),  # an empty witness cannot leave two components
    EndsCertificate(3, edge_set([(7, 8), (-8, -7)])),  # an end too many
    # leaves one infinite component; only the split of ball(r0) sees it
    EndsCertificate(2, edge_set([(1, 2), (4, 5)])),
])
def test_greedy_raises_on_the_first_window_as_the_stepwise_builder_does(cert):
    for build in (greedy_infinite_path, _stepwise_greedy):
        with pytest.raises(UnsoundCertificateDetected):
            build(parse_graph_spec("cycle-chain:events@2,5"), 0, cert, 24)


def test_greedy_builds_its_first_window_where_the_stepwise_builder_does(monkeypatch):
    # the least neighbour of 0 is the pendant -1, a dead end that needs no
    # window; the first one covers every edge at 0 and 1, so r0 = 2
    import graphends.paths as paths_mod
    import graphends.separation as sep
    radii, real = [], sep._window_at
    for mod in (paths_mod, sep):
        monkeypatch.setattr(mod, "_window_at",
                            lambda g, r0, *a: radii.append(r0) or real(g, r0, *a))
    for build in (_stepwise_greedy, greedy_infinite_path):
        radii.clear()
        assert build(PendantLine(at=0), 0, ONE_END, 4).vertices == (0, 1, 2, 3, 4)
        assert radii[0] == 2, build


@pytest.mark.parametrize("length", [24, 100])
def test_greedy_builds_one_window_per_doubling(monkeypatch, length):
    # the whole-path decisions build one window per step (16 and 92)
    import graphends.separation as sep
    splits, real = [], sep._stable_partition
    monkeypatch.setattr(sep, "_stable_partition", lambda *a: splits.append(a) or real(*a))
    g = parse_graph_spec("cycle-chain:events@2,5")
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    got = greedy_infinite_path(g, 0, cert, length, Fuel(max_radius=2 * length))
    assert got.edge_count == length
    assert len(splits) % 2 == 0  # ball(r) and ball(r + 1) for each window
    assert len(splits) // 2 <= math.ceil(math.log2(length)) + 2


def test_greedy_fuel_boundaries():
    # the window branch: the last window needs ball(24), the budget's edge
    chain = partial(parse_graph_spec, "cycle-chain:events@2,5")
    cert = EndsCertificate(2, edge_set([(7, 8), (-8, -7)]))
    assert greedy_infinite_path(chain(), 0, cert, 24, Fuel(max_radius=24)).edge_count == 24
    assert greedy_infinite_path(chain(), 0, cert, 24, Fuel(max_radius=23)) == Unknown(23)
    # the graded branch on lambda: one escape search takes five steps
    lam = tree_lambda()
    got = greedy_infinite_path(lam, lam.basepoint, ONE_END, 24, Fuel(max_steps=5))
    assert got.edge_count == 24
    assert greedy_infinite_path(lam, lam.basepoint, ONE_END, 24, Fuel(max_steps=4)) == Unknown(4)


# ---------------------------------------------------------------------------
# the tree reduction
# ---------------------------------------------------------------------------

def _line_oracle_nat(p):
    # on the half line the only way to infinity is rightward
    w, x = p.vertices
    return x == w + 1


def _always(_p):
    return True


def brute_tree_path_oracle(g, steps=25):
    """Sound path oracle for tree fixtures whose finite branches are shorter
    than `steps`: extendability of [w, x] equals being able to walk `steps`
    more edges away from w (no revisits are possible in a tree)."""

    def go(prev, cur, k):
        if k == 0:
            return True
        return any(go(cur, nxt, k - 1)
                   for nxt, _ in g.neighbors(cur) if nxt != prev)

    def oracle(p):
        w, x = p.vertices
        return go(w, x, steps)

    return oracle


def test_tree_sep_int_line():
    g = IntLine()
    assert tree_sep_from_path(g, edge_set([(0, 1)]), _always) is True


def test_tree_sep_nat_line_single_cut():
    g = NatLine()
    assert tree_sep_from_path(g, edge_set([(3, 4)]), _line_oracle_nat) is False


def test_tree_sep_binary_tree_root_star():
    g = BinaryTree()
    e = edge_set([(1, 2), (1, 3)])
    assert tree_sep_from_path(g, e, _always) is True


def test_tree_sep_walks_each_component_once(monkeypatch):
    # e leaves three components, holding the endpoints {2, 3}, {4} and {6};
    # each is walked once, from its least endpoint, and 3 is found on 2's walk
    walked = []
    layers = paths._tree_layers
    monkeypatch.setattr(paths, "_tree_layers",
                        lambda g, a, *rest: walked.append(a) or layers(g, a, *rest))
    e = edge_set([(2, 4), (3, 6)])
    assert tree_sep_from_path(BinaryTree(), e, lambda p: False) is False
    assert walked == [2, 4, 6]


def test_tree_sep_two_scattered_cuts_regression():
    # the naive check would ask about [4, 5], which extends in the full
    # graph (through 6 and 7) even though 4's surviving component {4,5,6}
    # is finite; the horizon walk is what gets this right
    g = NatLine()
    e = edge_set([(3, 4), (6, 7)])
    assert tree_sep_from_path(g, e, _line_oracle_nat) is False
    assert _line_oracle_nat(SimplePath((4, 5)))  # the naive trap really fires


def test_tree_sep_matches_brute_on_lines():
    gn, gi = NatLine(), IntLine()
    cases = [
        (gn, [(0, 1)], False),
        (gn, [(2, 3), (5, 6)], False),
        (gi, [(0, 1)], True),
        (gi, [(-2, -1), (3, 4)], True),
        (gi, [(-1, 0), (0, 1)], True),
    ]
    for g, tris, want in cases:
        e = edge_set(tris)
        oracle = brute_tree_path_oracle(g)
        assert tree_sep_from_path(g, e, oracle) is want, tris
        removed = {(u, v, 0) for (u, v) in tris}
        label = (lambda v: "pos" if v > 0 else "neg") if g is gi else (lambda v: "e")
        got, _fin = brute_components(g, removed, 30, label, quiet=10)
        assert (got >= 2) is want, tris


def test_tree_sep_on_pruned_tree():
    # prune the subtree of 5 down to the three vertices 5, 10, 11: a finite
    # stick; cutting it off does not separate, cutting the root's edges does
    def keep(v):
        anc = v
        while anc > 5:
            anc //= 2
        if anc == 5:
            return v in (5, 10, 11)
        return True

    g = BinaryTree(predicate=keep)
    oracle = brute_tree_path_oracle(g)
    assert tree_sep_from_path(g, edge_set([(2, 5)]), oracle) is False
    assert tree_sep_from_path(g, edge_set([(1, 2), (1, 3)]), oracle) is True
    got, _ = brute_components(g, {(2, 5, 0)}, 12, lambda v: v, quiet=4)
    assert got == 1
    got, _ = brute_components(g, {(1, 2, 0), (1, 3, 0)}, 12, lambda v: v, quiet=4)
    assert got == 2


def test_tree_sep_empty_set():
    assert tree_sep_from_path(IntLine(), edge_set([]), _always) is False


def test_tree_sep_names_a_cycle_of_lambda():
    # lambda is one-ended, so no finite edge set separates it; the horizon
    # walk from 255 shows a 4-cycle of the product of trees
    g = tree_lambda()
    with pytest.raises(GraphError, match="not a tree: cycle") as err:
        tree_sep_from_path(g, edge_set([(255, 992)]), _always)
    cycle = [int(v) for v in str(err.value).split("cycle ")[1].split(" - ")]
    assert len(cycle) == len(set(cycle)) == 4
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert any(w == b for w, _ in g.neighbors(a)), (a, b)


@pytest.mark.parametrize("make,e,cycle", [
    (LollipopLine, (0, 1), "-2 - 0 - -1"),  # an edge inside layer 1 from 0
    (LoopyLine, (0, 1), "1 - 2"),  # the doubled edge, seen from 1
    (LoopyLine, (-1, 0), "-2"),  # the loop, in layer 1 from -1
])
def test_tree_sep_names_an_edge_inside_a_layer_a_parallel_edge_and_a_loop(make, e, cycle):
    with pytest.raises(GraphError) as err:
        tree_sep_from_path(make(), edge_set([e]), _always)
    assert str(err.value) == "not a tree: cycle " + cycle


def test_tree_sep_fuel_boundaries_on_binary_tree():
    # the horizon walk from the root must reach 16 at depth 4: four layers
    # past the root, and the 15 vertices of layers 0-3 seen short of it
    g, e = BinaryTree(), edge_set([(1, 2), (8, 16)])
    assert tree_sep_from_path(g, e, _always, Fuel(max_radius=4)) is True
    with pytest.raises(GraphError):
        tree_sep_from_path(g, e, _always, Fuel(max_radius=3))
    assert tree_sep_from_path(g, e, _always, Fuel(max_steps=15)) is True
    with pytest.raises(GraphError):
        tree_sep_from_path(g, e, _always, Fuel(max_steps=14))
