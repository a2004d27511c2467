from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from graphends import (
    edge, EdgeRef, Fuel, GraphOracle, Unknown,
    InvalidEdge, InvalidVertex,
    IntLine, NatLine, Pi1Line, Halting, CycleChain, CeEnumeration,
    ball, degree, edges_at, multiplicity, check_edge,
    finite_components, edge_induced_vertices, bounded_distance, to_dot, tree_lambda,
)
from graphends.graph_core import DisjointSets


def test_edge_canonical():
    assert edge(3, 1) == EdgeRef(1, 3, 0)
    assert edge(1, 3, 2) == EdgeRef(1, 3, 2)
    assert edge(4, 4, 1) == EdgeRef(4, 4, 1)
    with pytest.raises(InvalidEdge):
        edge(0, 1, -1)


def test_ball_on_line():
    g = IntLine()
    b = ball(g, 0, 3)
    assert b.vertices == frozenset(range(-3, 4))
    assert len(b.edges) == 6
    assert b.distances[-3] == 3 and b.distances[2] == 2
    assert ball(g, 5, 0).vertices == frozenset({5})
    assert ball(g, 5, 0).edges == frozenset()


def test_ball_multigraph_slots():
    g = Pi1Line(Halting(2))
    b = ball(g, 0, 3)
    # edge (2,3) is the single one, everything else doubled
    assert edge(0, 1, 1) in b.edges
    assert edge(2, 3, 0) in b.edges
    assert edge(2, 3, 1) not in b.edges
    assert degree(g, 2) == 3
    assert degree(g, 0) == 2
    assert multiplicity(g, 1, 2) == 2
    assert edges_at(g, 2) == [edge(1, 2, 0), edge(1, 2, 1), edge(2, 3, 0)]


def test_check_edge():
    g = Pi1Line(Halting(2))
    assert check_edge(g, EdgeRef(3, 2, 0)) == edge(2, 3, 0)
    with pytest.raises(InvalidEdge):
        check_edge(g, edge(2, 3, 1))
    with pytest.raises(InvalidVertex):
        g.neighbors(-4)


def test_finite_components():
    vs = [0, 1, 2, 3, 9]
    es = [edge(0, 1), edge(1, 2), edge(2, 3)]
    comps = finite_components(vs, es, removed=[edge(1, 2)])
    assert comps == [frozenset({0, 1}), frozenset({2, 3}), frozenset({9})]
    # edges with endpoints outside the vertex set are ignored
    assert finite_components([0], [edge(0, 5)]) == [frozenset({0})]


def test_edge_induced_vertices():
    assert edge_induced_vertices([edge(2, 7), edge(7, 7, 1)]) == frozenset({2, 7})


def test_unknown_is_not_a_bool():
    # `if decide(...)` must not read an out-of-fuel answer as True
    with pytest.raises(TypeError):
        bool(Unknown(3))


def test_fuel_validation():
    with pytest.raises(ValueError):
        Fuel(max_radius=0)


def test_bounded_distance():
    g = IntLine()
    assert bounded_distance(g, -4, 3, 10) == 7
    assert bounded_distance(g, 0, 0, 5) == 0
    assert bounded_distance(g, 0, 30, 10) is None
    # the radius bounds each side, so the sides meet up to 2 * radius apart
    assert bounded_distance(g, 0, 20, 10) == 20
    assert bounded_distance(g, 0, 21, 10) is None
    # every neighbour scanned is a step; 0 -> 4 expands 0, 4, then -1, 1,
    # then 3, 5: the sides meet at 2 on scan 9, and that layer ends on 12
    assert bounded_distance(g, 0, 4, 10, max_steps=12) == 4
    assert bounded_distance(g, 0, 4, 10, max_steps=11) is None


def test_bounded_distance_step_boundaries_on_lambda():
    # each layer is charged the neighbour lists of its vertices before it
    # is expanded; the budgets are the least that answer
    g = tree_lambda()
    a, b = g.basepoint, g.pack(4, 6)
    assert bounded_distance(g, a, b, 10, max_steps=66) == 4
    assert bounded_distance(g, a, b, 10, max_steps=65) is None
    # the sides tie at the start and a's goes first: from b's end it takes 37
    a, b = g.pack(2, 1), g.pack(16, 1)
    assert bounded_distance(g, a, b, 10, max_steps=36) == 3
    assert bounded_distance(g, a, b, 10, max_steps=35) is None


def test_disjoint_sets_keep_the_smaller_root():
    sets = DisjointSets([5, 3, 9, 1, 7])
    assert sets.union(9, 5) and sets.union(7, 9)
    assert not sets.union(5, 7)
    assert sets.find(7) == 5
    assert sets.union(7, 3) and sets.find(9) == 3
    assert sets.classes() == {3: [5, 3, 9, 7], 1: [1]}


def test_dot_export():
    g = NatLine()
    b = ball(g, 1, 2)
    dot = to_dot(b, removed=[edge(1, 2)])
    assert "graph ball {" in dot
    assert '"1" -- "2" [style=dashed, color=red];' in dot
    assert '"0" -- "1";' in dot


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=9), max_size=4),
       st.integers(min_value=0, max_value=5))
def test_balls_are_nested(stages, r):
    g = CycleChain(CeEnumeration(tuple(sorted(stages))))
    small, big = ball(g, 0, r), ball(g, 0, r + 1)
    assert small.vertices <= big.vertices
    assert small.edges <= big.edges
    for v in small.vertices:
        assert small.distances[v] == big.distances[v]


class _CountingHalfLine(GraphOracle):
    """Half line 0-1-2-... whose `contains` counts its calls; `_neighbors`
    trusts the caller and never asks."""

    def __init__(self):
        super().__init__()
        self.checked = Counter()

    def contains(self, v):
        self.checked[v] += 1
        return v >= 0

    def _neighbors(self, v):
        return [(v - 1, 1), (v + 1, 1)] if v else [(1, 1)]


def test_neighbors_validates_a_vertex_once_where_it_enters_the_cache():
    g = _CountingHalfLine()
    for _ in range(5):
        for v in range(4):
            g.neighbors(v)
    b = ball(g, 0, 6)
    assert b.vertices == frozenset(range(7))
    assert g.checked == Counter(range(7))
    for calls in range(1, 51):
        with pytest.raises(InvalidVertex):
            g.neighbors(-1)
        assert g.checked[-1] == calls
    with pytest.raises(InvalidVertex):
        ball(g, -1, 0)
