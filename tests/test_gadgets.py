import pytest
from hypothesis import given, settings, strategies as st

from graphends import (
    edge, degree, ball, Fuel, Unknown,
    Halting, CeEnumeration, LimitApprox, parse_schedule,
    KindScheduleMismatch,
    NatLine, IntLine, CycleChain, CycleChainWithRays, OneWayMulti, Doubled,
    Sigma21Line, Pi1Line, Delta2TwoEnded, LinesWithSticks, Comb, BinaryTree,
    ProductGraph, tree_lambda, lambda_distance,
    build_gadget, parse_graph_spec, bounded_distance,
)
from _brute import brute_components, bfs_dist, label_sign
from _fixtures import PendantLine

stage_sets = st.sets(st.integers(min_value=1, max_value=12), max_size=5).map(
    lambda s: tuple(sorted(s)))


# ---------------------------------------------------------------------------
# schedule plumbing
# ---------------------------------------------------------------------------

def test_schedule_validation():
    with pytest.raises(ValueError):
        CeEnumeration((0,))
    with pytest.raises(ValueError):
        CeEnumeration((2, 2))
    with pytest.raises(ValueError):
        CeEnumeration((1,), every_stage=True)
    with pytest.raises(ValueError):
        LimitApprox((3, 1))
    with pytest.raises(ValueError):
        Halting(-1)


def test_limit_approx_values():
    sch = LimitApprox((2, 5))
    assert [sch.value_at(s) for s in range(-1, 7)] == [0, 0, 0, 1, 1, 1, 0, 0]
    assert sch.limit == 0
    assert LimitApprox((4,)).limit == 1


def test_parse_schedule():
    assert parse_schedule("never") == Halting(None)
    assert parse_schedule("halt@3") == Halting(3)
    assert parse_schedule("events@2,5") == CeEnumeration((2, 5))
    assert parse_schedule("events@") == CeEnumeration(())
    assert parse_schedule("events-all") == CeEnumeration(every_stage=True)
    assert parse_schedule("changes@1,4") == LimitApprox((1, 4))
    with pytest.raises(ValueError):
        parse_schedule("sometimes")


def test_build_gadget_schedule_mismatch():
    with pytest.raises(KindScheduleMismatch):
        build_gadget("cycle-chain")
    with pytest.raises(KindScheduleMismatch):
        build_gadget("cycle-chain", Halting(3))
    with pytest.raises(KindScheduleMismatch):
        build_gadget("nat-line", Halting(3))
    with pytest.raises(KindScheduleMismatch):
        build_gadget("delta2", CeEnumeration((1,)))


def test_parse_graph_spec():
    g = parse_graph_spec("lines-with-sticks:halt@3")
    assert isinstance(g, LinesWithSticks) and g.schedule == Halting(3)
    g = parse_graph_spec("delta2:changes@2,5,9")
    assert isinstance(g, Delta2TwoEnded)
    g = parse_graph_spec("rays3:events-all")
    assert isinstance(g, CycleChainWithRays) and g.k == 3
    g = parse_graph_spec("comb:3,never,2")
    assert isinstance(g, Comb) and g.column_halts == (3, None, 2)
    assert isinstance(parse_graph_spec("int-line"), IntLine)


# ---------------------------------------------------------------------------
# adjacency transcription tables (worked out by hand from the edge rules)
# ---------------------------------------------------------------------------

def test_cycle_chain_single_event():
    g = CycleChain(CeEnumeration((2,)))
    expected = {
        -4: [(-5, 1), (-3, 1)],
        -3: [(-4, 1), (2, 1)],
        -2: [(-1, 1), (2, 1)],
        -1: [(-2, 1), (0, 1)],
        0: [(-1, 1), (1, 1)],
        1: [(0, 1), (2, 1)],
        2: [(-3, 1), (-2, 1), (1, 1), (3, 1)],
        3: [(2, 1), (4, 1)],
        4: [(3, 1), (5, 1)],
    }
    for v, nbrs in expected.items():
        assert g.neighbors(v) == nbrs, v


def test_cycle_chain_all_events():
    g = CycleChain(CeEnumeration(every_stage=True))
    expected = {
        0: [(-1, 1), (1, 1)],
        1: [(-2, 1), (-1, 1), (0, 1), (2, 1)],
        2: [(-3, 1), (-2, 1), (1, 1), (3, 1)],
        -1: [(0, 1), (1, 1)],
        -2: [(1, 1), (2, 1)],
        -3: [(2, 1), (3, 1)],
    }
    for v, nbrs in expected.items():
        assert g.neighbors(v) == nbrs, v


def test_one_way_multi_degrees():
    g = OneWayMulti(CeEnumeration(()))
    assert g.neighbors(0) == [(-1, 1), (1, 2)]
    assert degree(g, 0) == 3
    g = OneWayMulti(CeEnumeration((1,)))
    assert g.neighbors(1) == [(-2, 1), (-1, 1), (0, 2), (2, 2)]
    assert g.neighbors(-1) == [(0, 1), (1, 1)]
    assert degree(g, 0) == 3


@settings(max_examples=30, deadline=None)
@given(stage_sets, st.booleans())
def test_one_way_multi_origin_is_the_only_odd_vertex(stages, every):
    g = OneWayMulti(CeEnumeration(() if every else stages, every_stage=every))
    for v in range(-15, 16):
        if v == 0:
            assert degree(g, v) % 2 == 1
        else:
            assert degree(g, v) % 2 == 0


def test_doubled_makes_degrees_even():
    g = Doubled(CycleChain(CeEnumeration((3,))))
    for v in range(-6, 7):
        assert degree(g, v) == 2 * degree(g.inner, v)


def test_sigma21_odd_vertices_sit_at_changes():
    g = Sigma21Line(LimitApprox((3,)))
    assert [degree(g, v) for v in range(6)] == [2, 4, 4, 3, 2, 2]
    g = Sigma21Line(LimitApprox((1, 4)))
    assert [degree(g, v) for v in range(6)] == [2, 3, 2, 2, 3, 4]


@settings(max_examples=30, deadline=None)
@given(stage_sets)
def test_sigma21_odd_set_equals_change_set(stages):
    g = Sigma21Line(LimitApprox(stages))
    odd = {v for v in range(0, 16) if degree(g, v) % 2 == 1}
    assert odd == {s for s in stages if s <= 15}


def test_pi1_degrees():
    g = Pi1Line(Halting(None))
    assert all(degree(g, v) % 2 == 0 for v in range(10))
    g = Pi1Line(Halting(0))
    assert degree(g, 0) == 1 and degree(g, 1) == 3 and degree(g, 2) == 4
    g = Pi1Line(Halting(4))
    odd = {v for v in range(10) if degree(g, v) % 2 == 1}
    assert odd == {4, 5}


def test_delta2_transcription():
    g = Delta2TwoEnded(LimitApprox((2,)))
    expected = {
        0: [(-1, 2), (1, 2)],
        1: [(0, 2), (2, 2)],
        2: [(-3, 1), (-2, 2), (1, 2), (3, 1)],
        3: [(2, 1), (4, 1)],
        -1: [(-2, 2), (0, 2)],
        -2: [(-1, 2), (2, 2)],
        -3: [(-4, 1), (2, 1)],
        -4: [(-5, 1), (-3, 1)],
    }
    for v, nbrs in expected.items():
        assert g.neighbors(v) == nbrs, v


@settings(max_examples=40, deadline=None)
@given(stage_sets)
def test_delta2_every_degree_even(stages):
    g = Delta2TwoEnded(LimitApprox(stages))
    for v in range(-16, 17):
        assert degree(g, v) % 2 == 0, (stages, v, g.neighbors(v))


@settings(max_examples=25, deadline=None)
@given(stage_sets)
def test_delta2_connected_with_two_ends(stages):
    g = Delta2TwoEnded(LimitApprox(stages))
    dist = bfs_dist(g, 0, 20)
    expect = {v for v in range(-20, 21)}
    assert set(dist) == expect
    n_inf, _fin = brute_components(g, set(), 20, label_sign, quiet=max(stages, default=1) + 2)
    assert n_inf == 1  # nothing removed: still connected


def test_lines_with_sticks_tables():
    g = LinesWithSticks(Halting(2))
    expected = {
        0: [(-1, 1), (1, 1)],
        1: [(0, 1), (2, 1)],
        3: [(-3, 1), (2, 1), (4, 1)],
        -1: [(-2, 1), (0, 1)],
        -2: [(-1, 1)],          # tip of the finite branch
        -3: [(-4, 1), (3, 1)],  # chord endpoint
        -4: [(-5, 1), (-3, 1)],
    }
    for v, nbrs in expected.items():
        assert g.neighbors(v) == nbrs, v

    g = LinesWithSticks(Halting(0))
    assert g.neighbors(0) == [(1, 1)]
    assert g.neighbors(1) == [(-1, 1), (0, 1), (2, 1)]
    assert g.neighbors(-1) == [(-2, 1), (1, 1)]

    g = LinesWithSticks(Halting(None))
    for v in (-3, 0, 5):
        assert g.neighbors(v) == [(v - 1, 1), (v + 1, 1)]


def test_rays_gadget():
    g = CycleChainWithRays(CeEnumeration((2,)), k=3)
    assert g.neighbors(0) == [(-3, 1), (3, 1), (4, 1), (5, 1)]
    assert degree(g, 0) == 4
    # chain position 2 carries the event chords, scaled by k
    assert g.neighbors(6) == [(-9, 1), (-6, 1), (3, 1), (9, 1)]
    # ray 1, depth 1 connects down to the origin and up to depth 2
    assert g.neighbors(4) == [(0, 1), (7, 1)]
    assert g.contains(-6) and not g.contains(-2) and g.contains(5)
    with pytest.raises(ValueError):
        CycleChainWithRays(CeEnumeration(()), k=1)


def test_comb():
    g = Comb((3, None, 2), tail_halt=1)
    pair = lambda e, s: (e + s) * (e + s + 1) // 2 + s
    assert g.basepoint == 0
    assert g.contains(pair(0, 2)) and not g.contains(pair(0, 3))
    assert g.contains(pair(1, 40))
    assert g.contains(pair(5, 0)) and not g.contains(pair(5, 1))
    assert g.neighbors(0) == sorted([(pair(1, 0), 1), (pair(0, 1), 1)])
    assert g.neighbors(pair(1, 5)) == sorted([(pair(1, 4), 1), (pair(1, 6), 1)])
    assert g.neighbors(pair(2, 1)) == [(pair(2, 0), 1)]
    with pytest.raises(ValueError):
        Comb((0,))


def test_binary_tree():
    t = BinaryTree()
    assert t.neighbors(1) == [(2, 1), (3, 1)]
    assert t.neighbors(5) == [(2, 1), (10, 1), (11, 1)]
    small = BinaryTree(lambda n: n <= 6)
    assert small.contains(6) and not small.contains(13)
    assert small.neighbors(3) == [(1, 1), (6, 1)]
    assert small.neighbors(4) == [(2, 1)]
    assert not small.outward_growing and t.outward_growing


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
def test_product_packing_roundtrip(a, b):
    assert ProductGraph.unpack(ProductGraph.pack(a, b)) == (a, b)


def test_lambda_structure():
    lam = tree_lambda()
    assert lam.outward_growing
    bp = lam.basepoint
    assert lam.unpack(bp) == (1, 1)
    assert len(lam.neighbors(bp)) == 4
    b = ball(lam, bp, 2)
    # distance-d sphere of T x T has (d+1) * 2^d vertices
    assert sum(1 for v in b.distances.values() if v == 1) == 4
    assert sum(1 for v in b.distances.values() if v == 2) == 12


def test_lambda_distance_matches_direct_bfs():
    lam = tree_lambda()
    pk = ProductGraph.pack
    pairs = [((1, 1), (1, 1)), ((1, 1), (2, 3)), ((4, 5), (1, 1)),
             ((2, 2), (3, 3)), ((5, 6), (6, 5)), ((4, 1), (7, 12))]
    for (u1, v1), (u2, v2) in pairs:
        x, y = pk(u1, v1), pk(u2, v2)
        got = lambda_distance(lam, x, y)
        direct = bounded_distance(lam, x, y, 20)
        assert got == direct, ((u1, v1), (u2, v2))


def test_lambda_distance_runs_far_out():
    lam = tree_lambda()
    x = ProductGraph.pack(2 ** 10, 3)        # depth 10 in the left tree
    y = ProductGraph.pack(1, 2 ** 9 + 17)    # depth 9 in the right tree
    d = lambda_distance(lam, x, y, Fuel(max_radius=40, max_steps=20000))
    # left: 10 up + 0 down is wrong (targets differ) -- check against the
    # factor BFS directly instead of a hand count
    dl = bounded_distance(lam.left, 2 ** 10, 1, 40)
    dr = bounded_distance(lam.right, 3, 2 ** 9 + 17, 40)
    assert d == dl + dr
    assert not isinstance(d, Unknown)


# ---------------------------------------------------------------------------
# window oracle sanity (the brute-force checker itself on known cases)
# ---------------------------------------------------------------------------

def test_brute_oracle_on_known_cases():
    two = brute_components(IntLine(), {(0, 1, 0)}, 20, label_sign, quiet=3)
    assert two[0] == 2
    one = brute_components(NatLine(), {(0, 1, 0)}, 20, lambda v: "end", quiet=3)
    assert one[0] == 1
    assert one[1] == []  # vertex 0 loses its only edge and vanishes

    pend = PendantLine(at=5)
    n_inf, fin = brute_components(pend, {(4, 5, 0)}, 20, lambda v: "end", quiet=7)
    assert n_inf == 1 and fin == [frozenset({0, 1, 2, 3, 4})]

    # chain of cycles, events everywhere: one end, so cutting both sides of
    # the origin still leaves everything hanging together
    g = CycleChain(CeEnumeration(every_stage=True))
    n_inf, fin = brute_components(g, {(-1, 0, 0), (0, 1, 0)}, 20,
                                  lambda v: "chain", quiet=4)
    assert n_inf == 1 and fin == []

    # with finitely many events the far side splits clean
    g = CycleChain(CeEnumeration((2,)))
    n_inf, fin = brute_components(g, {(4, 5, 0), (-5, -4, 0)}, 20,
                                  label_sign, quiet=7)
    assert n_inf == 2
    assert len(fin) == 1 and 0 in fin[0]
