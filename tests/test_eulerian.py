"""Eulerian-condition checkers: parity scans, even-set sweeps, verdicts."""

import itertools
import random
from collections import deque

import pytest

from graphends.graph_core import (
    DisjointSets,
    EndsCertificate,
    Fuel,
    GraphError,
    ball,
    edge,
    edge_set,
)
from graphends.gadgets import (
    CeEnumeration,
    CycleChain,
    Delta2TwoEnded,
    Doubled,
    Halting,
    IntLine,
    LimitApprox,
    NatLine,
    Pi1Line,
    Sigma21Line,
    parse_graph_spec,
)
from graphends import eulerian
from graphends.eulerian import (
    ALL_EVEN_CLAUSE,
    ENDS_AT_MOST_TWO_CLAUSE,
    NO_EVEN_SEPARATOR_CLAUSE,
    ONE_END_CLAUSE,
    ONE_ODD_CLAUSE,
    LocalizationCertificate,
    ParityCertificate,
    check_one_way,
    check_two_way,
    cycle_space_basis,
    even_inducing_sets,
    odd_vertex_scan,
)
from graphends.separation import comp_counter, decide_comp

from _brute import brute_components, label_sign
from _fixtures import CorePlusRays, LoopyLine
from test_paths import STOCK_SPECS

ONE_END = EndsCertificate(1)


def line_cert():
    return EndsCertificate(2, edge_set([(0, 1)]))


def doubled_chain_cert():
    return EndsCertificate(
        2, edge_set([(7, 8, 0), (7, 8, 1), (-8, -7, 0), (-8, -7, 1)]))


def delta2(k):
    return Delta2TwoEnded(LimitApprox(tuple(range(1, k + 1))))


def delta2_cert(k):
    # cut both strands at a stage beyond every change; the strand edges
    # there carry multiplicity 2 - (k mod 2), and all copies must go
    s = k + 2
    m = 2 - (k % 2)
    w = [(s, s + 1, c) for c in range(m)] + [(-s - 1, -s, c) for c in range(m)]
    return EndsCertificate(2, edge_set(w))


# ---------------------------------------------------------------------------
# parity scan
# ---------------------------------------------------------------------------

def test_odd_scan_half_line():
    assert odd_vertex_scan(NatLine(), 5) == [0]


def test_odd_scan_full_line():
    assert odd_vertex_scan(IntLine(), 5) == []


def test_odd_scan_tracks_limit_changes():
    assert odd_vertex_scan(Sigma21Line(LimitApprox((4,))), 10) == [4]
    assert odd_vertex_scan(Sigma21Line(LimitApprox((3, 7))), 10) == [3, 7]


def test_odd_scan_halting_probe():
    assert odd_vertex_scan(Pi1Line(Halting(4)), 10) == [4, 5]
    assert odd_vertex_scan(Pi1Line(Halting(None)), 10) == []


# ---------------------------------------------------------------------------
# even-inducing edge sets
# ---------------------------------------------------------------------------

def brute_even_subsets(edges):
    out = []
    for k in range(len(edges) + 1):
        for comb in itertools.combinations(edges, k):
            degs = {}
            for e in comb:
                degs[e.u] = degs.get(e.u, 0) + 1
                degs[e.v] = degs.get(e.v, 0) + 1  # a loop lands here twice
            if all(d % 2 == 0 for d in degs.values()):
                out.append(edge_set(comb))
    return out


def test_even_sets_match_brute_on_small_multigraph():
    # parallel pair + triangle + loop: cycle space dimension 3
    edges = [edge(1, 2), edge(1, 2, 1), edge(2, 3), edge(1, 3), edge(2, 2)]
    got = even_inducing_sets(edges)
    want = [s for s in brute_even_subsets(edges) if s]
    assert sorted(map(sorted, got)) == sorted(map(sorted, want))
    assert len(got) == 2 ** len(cycle_space_basis(sorted(edges))) - 1 == 7


def test_even_sets_empty_on_trees():
    edges = [edge(0, 1), edge(1, 2), edge(2, 3)]
    assert cycle_space_basis(edges) == []
    assert even_inducing_sets(edges) == []


def test_even_sets_sampled_order_and_parity():
    g = Doubled(CycleChain(CeEnumeration((2,))))
    edges = sorted(ball(g, 0, 4).edges)
    got = even_inducing_sets(edges, exhaustive=False)
    assert got
    sizes = [len(s) for s in got]
    assert sizes == sorted(sizes)
    for s in got:
        degs = {}
        for e in s:
            degs[e.u] = degs.get(e.u, 0) + 1
            degs[e.v] = degs.get(e.v, 0) + 1
        assert all(d % 2 == 0 for d in degs.values()), s


def test_even_sets_decline_huge_exhaustive_spans():
    edges = [edge(0, 1, s) for s in range(50)]
    with pytest.raises(GraphError):
        even_inducing_sets(edges)
    assert even_inducing_sets(edges, exhaustive=False)


# ---------------------------------------------------------------------------
# one-way checks
# ---------------------------------------------------------------------------

def test_one_way_half_line_holds():
    v = check_one_way(NatLine(), ONE_END, ParityCertificate(2))
    assert v.is_holds
    assert "parity" in v.certified


def test_one_way_two_changes_refuted_without_certificate():
    g = Sigma21Line(LimitApprox((3, 7)))
    v = check_one_way(g, ONE_END, None, Fuel(max_radius=10))
    assert v.is_fails and v.reason == ONE_ODD_CLAUSE
    assert v.witness == (3, 7)


def test_one_way_zero_changes_fails_with_certificate():
    g = Sigma21Line(LimitApprox(()))
    v = check_one_way(g, ONE_END, ParityCertificate(10))
    assert v.is_fails and v.reason == ONE_ODD_CLAUSE
    assert v.witness == ()


def test_one_way_single_change_holds():
    g = Sigma21Line(LimitApprox((4,)))
    assert check_one_way(g, ONE_END, ParityCertificate(10)).is_holds


def test_one_way_needs_one_end():
    v = check_one_way(IntLine(), line_cert(), ParityCertificate(5))
    assert v.is_fails and v.reason == ONE_END_CLAUSE


def test_one_way_unknown_without_parity_certificate():
    v = check_one_way(NatLine(), ONE_END, None, Fuel(max_radius=6))
    assert v.is_unknown
    assert "parity" in v.searched


# ---------------------------------------------------------------------------
# two-way checks
# ---------------------------------------------------------------------------

def test_two_way_full_line_holds():
    v = check_two_way(IntLine(), line_cert(), ParityCertificate(2),
                      LocalizationCertificate(3))
    assert v.is_holds


def test_two_way_one_ended_doubled_chain_holds():
    g = Doubled(CycleChain(CeEnumeration(every_stage=True)))
    v = check_two_way(g, ONE_END, ParityCertificate(0))
    assert v.is_holds
    assert v.certified == ("ends", "parity")


def test_two_way_one_ended_without_parity_certificate_unknown():
    g = Doubled(CycleChain(CeEnumeration(every_stage=True)))
    v = check_two_way(g, ONE_END, None, None, Fuel(max_radius=12))
    assert v.is_unknown and "parity" in v.searched


def test_two_way_stalled_chain_fails_with_separating_pair():
    g = Doubled(CycleChain(CeEnumeration((2, 5))))
    v = check_two_way(g, doubled_chain_cert(), ParityCertificate(0),
                      LocalizationCertificate(8))
    assert v.is_fails and v.reason == NO_EVEN_SEPARATOR_CLAUSE
    w = edge_set(v.witness)
    # the witness re-verifies through both the certified and the brute route
    assert decide_comp(g, w, doubled_chain_cert()) >= 2
    got, _ = brute_components(g, {(e.u, e.v, e.slot) for e in w}, 30,
                              label_sign, quiet=12)
    assert got >= 2
    # and it really induces even degrees
    degs = {}
    for e in w:
        degs[e.u] = degs.get(e.u, 0) + 1
        degs[e.v] = degs.get(e.v, 0) + 1
    assert all(d % 2 == 0 for d in degs.values())


def test_two_way_odd_vertex_refutes():
    g = Pi1Line(Halting(4))
    v = check_two_way(g, ONE_END, None, None, Fuel(max_radius=10))
    assert v.is_fails and v.reason == ALL_EVEN_CLAUSE
    assert v.witness == (4,)


def test_two_way_never_halting_probe_holds():
    g = Pi1Line(Halting(None))
    v = check_two_way(g, ONE_END, ParityCertificate(0))
    assert v.is_holds


def test_two_way_three_ends_rejected():
    v = check_two_way(IntLine(), EndsCertificate(3, edge_set([(0, 1), (-1, 0)])))
    assert v.is_fails and v.reason == ENDS_AT_MOST_TWO_CLAUSE


def test_two_way_change_count_parity_decides():
    for k in range(4):
        g = delta2(k)
        v = check_two_way(g, delta2_cert(k), ParityCertificate(k + 3),
                          LocalizationCertificate(k + 2))
        if k % 2 == 1:
            # tail edges are single, hence bridges: no even set touches them
            assert v.is_holds, (k, v)
        else:
            # tail edges are doubled pairs: two-edge even sets that cut
            assert v.is_fails and v.reason == NO_EVEN_SEPARATOR_CLAUSE, (k, v)
            w = edge_set(v.witness)
            assert decide_comp(g, w, delta2_cert(k)) >= 2


def test_two_way_without_localization_is_unknown():
    g = delta2(1)
    v = check_two_way(g, delta2_cert(1), ParityCertificate(4), None,
                      Fuel(max_radius=30))
    assert v.is_unknown
    assert "separator-localization" in v.searched


def test_a_localization_radius_too_small_is_trusted():
    """The localization certificate is trusted, not checked.  The doubled
    pair (-6, 5) is an even set that separates, but it reaches past radius
    5, so the sweep of the radius-5 ball finds nothing and certifies the
    clause.  Every finite cut that separates the two ends of an all-even
    graph has one parity; here it is even, so some even set separates.  A
    gate on that cut parity will turn the radius-5 case into
    UnsoundCertificateDetected."""
    g = Doubled(CycleChain(CeEnumeration((2, 5))))
    v = check_two_way(g, doubled_chain_cert(), ParityCertificate(5),
                      LocalizationCertificate(5))
    assert v.is_holds
    assert "separator-localization" in v.certified
    v = check_two_way(g, doubled_chain_cert(), ParityCertificate(5),
                      LocalizationCertificate(6))
    assert v.is_fails and v.reason == NO_EVEN_SEPARATOR_CLAUSE
    assert edge_set(v.witness) == edge_set([(-6, 5, 0), (-6, 5, 1)])


def test_two_way_sweep_factorizes_over_blocks():
    # at localization radius 12 the whole region's cycle dimension is far
    # past the subset cap, but every bridge-free block (doubled pairs and
    # crossing clusters) is tiny, so the factorized sweep stays exhaustive
    g = Delta2TwoEnded(LimitApprox((2, 5, 9)))
    cert = EndsCertificate(2, edge_set([(10, 11), (-11, -10)]))
    v = check_two_way(g, cert, ParityCertificate(12),
                      LocalizationCertificate(12))
    assert v.is_holds, v
    assert "separator-localization" in v.certified


def test_refutations_are_fuel_monotone():
    g = Sigma21Line(LimitApprox((3, 7)))
    for r in (10, 20, 40):
        v = check_one_way(g, ONE_END, None, Fuel(max_radius=r))
        assert v.is_fails and v.reason == ONE_ODD_CLAUSE
    g2 = Doubled(CycleChain(CeEnumeration((2, 5))))
    for r in (24, 48):
        v = check_two_way(g2, doubled_chain_cert(), None, None,
                          Fuel(max_radius=r))
        assert v.is_fails and v.reason == NO_EVEN_SEPARATOR_CLAUSE


def test_comp_counter_agrees_with_brute_on_doubled_chain():
    """The window count against the brute oracle on a graph whose every
    edge has a parallel copy, so removing one copy severs nothing; the
    last two candidates cut the positive ray off at 6 and leave 2."""
    g = Doubled(CycleChain(CeEnumeration((2, 5))))
    cert = doubled_chain_cert()
    region = frozenset(ball(g, 0, 6).edges)
    count = comp_counter(g, region, cert)
    assert count is not None
    candidates = [
        edge_set([]),
        edge_set([(3, 4, 0)]),
        edge_set([(3, 4, 0), (3, 4, 1)]),
        edge_set([(0, 1, 0), (0, 1, 1), (-1, 0, 0), (-1, 0, 1)]),
        edge_set([(3, 4, 0), (3, 4, 1), (-4, -3, 0)]),
        edge_set([(5, 6, 0), (5, 6, 1), (-6, 5, 0)]),
        edge_set([(5, 6, 0), (5, 6, 1), (-6, 5, 0), (-6, 5, 1)]),
    ]
    for e in candidates:
        truth, _ = brute_components(g, {(x.u, x.v, x.slot) for x in e}, 30,
                                    label_sign, quiet=10)
        assert count(e) == truth, e
    with pytest.raises(GraphError):
        count(edge_set([(40, 41, 0)]))


def test_the_sweep_cap_is_a_per_block_boundary(monkeypatch):
    """At localization radius 12 the largest block of this region has
    dimension 10: a cap of 10 still exhausts it and certifies the
    localization clause, a cap of 9 truncates the sweep and never holds.
    A refutation found on the sampled route reports the exhaustive one's
    witness."""
    g = Delta2TwoEnded(LimitApprox((2, 5, 9)))
    cert = EndsCertificate(2, edge_set([(10, 11), (-11, -10)]))
    monkeypatch.setattr(eulerian, "_SWEEP_DIM_CAP", 10)
    v = check_two_way(g, cert, ParityCertificate(12), LocalizationCertificate(12))
    assert v.is_holds and "separator-localization" in v.certified, v
    monkeypatch.setattr(eulerian, "_SWEEP_DIM_CAP", 9)
    v = check_two_way(g, cert, ParityCertificate(12), LocalizationCertificate(12))
    assert not v.is_holds and "even-separator-sweep-truncated" in v.searched, v

    # the doubled chain's radius-6 region has blocks of dimension 1, 1, 6, 8
    g = Doubled(CycleChain(CeEnumeration((2, 5))))
    verdicts = []
    for cap in (8, 7, 0):
        monkeypatch.setattr(eulerian, "_SWEEP_DIM_CAP", cap)
        verdicts.append(check_two_way(g, doubled_chain_cert(), ParityCertificate(6),
                                      LocalizationCertificate(6)))
    assert verdicts[0].is_fails and verdicts[0].reason == NO_EVEN_SEPARATOR_CLAUSE
    assert verdicts[0].witness == (edge(-6, 5), edge(-6, 5, 1))
    assert verdicts[1:] == verdicts[:1] * 2


# ---------------------------------------------------------------------------
# the one-pass sweep against the per-block pipeline it replaced
# ---------------------------------------------------------------------------

def _bfs_basis(edges):
    """Fundamental cycles with one forest search per non-forest edge."""
    index = {e: i for i, e in enumerate(edges)}
    forest = DisjointSets(v for e in edges for v in (e.u, e.v))
    adj = {v: [] for v in forest.parent}
    basis = []
    for e in edges:
        i = index[e]
        if e.u == e.v:
            basis.append(1 << i)
            continue
        if forest.union(e.u, e.v):
            adj[e.u].append((e.v, i))
            adj[e.v].append((e.u, i))
            continue
        mask, back, q = 1 << i, {e.u: (None, -1)}, deque([e.u])
        while e.v not in back:
            x = q.popleft()
            for y, j in adj[x]:
                if y not in back:
                    back[y] = (x, j)
                    q.append(y)
        x = e.v
        while back[x][0] is not None:
            x, j = back[x]
            mask ^= 1 << j
        basis.append(mask)
    return basis


def _block_edges(edges):
    """[(block edges, block dimension)] of a sorted region."""
    blocks = DisjointSets(range(len(edges)))
    basis = _bfs_basis(edges)
    for mask in basis:
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        for j in bits[1:]:
            blocks.union(j, bits[0])
    dims, groups = {}, {}
    for mask in basis:
        r = blocks.find((mask & -mask).bit_length() - 1)
        dims[r] = dims.get(r, 0) + 1
    for i, e in enumerate(edges):
        if blocks.find(i) in dims:
            groups.setdefault(blocks.find(i), []).append(e)
    return [(groups[r], dims[r]) for r in sorted(groups, key=lambda r: groups[r][0])]


def _block_even_sets(edges, exhaustive):
    edges = sorted(edges)
    basis = _bfs_basis(edges)
    if exhaustive:
        masks = [0]
        for b in basis:
            masks += [m ^ b for m in masks]
    else:
        masks = basis + [a ^ b for k, a in enumerate(basis) for b in basis[k + 1:]]
    sets = {tuple(e for i, e in enumerate(edges) if m >> i & 1) for m in masks if m}
    return [edge_set(t) for t in sorted(sets, key=lambda t: (len(t), t))]


def _per_block_sweep(region, cap):
    """The candidates and the exhaustive flag of a sweep that sweeps every
    block on its own and merges the blocks' candidates by one sort."""
    blocks = _block_edges(region)
    candidates = []
    for block, dim in blocks:
        candidates += _block_even_sets(block, dim <= cap)
    candidates.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return [tuple(sorted(s)) for s in candidates], all(d <= cap for _b, d in blocks)


def _sweep_graphs():
    yield from ((spec, parse_graph_spec(spec)) for spec in STOCK_SPECS)
    yield "delta2:changes@1,2,3,4,5", parse_graph_spec("delta2:changes@1,2,3,4,5")
    yield "loopy-line", LoopyLine()
    yield from (("core-plus-rays-%d" % s, CorePlusRays(s, k=2)) for s in (1, 2, 3, 4))


def test_one_pass_sweep_against_the_per_block_pipeline():
    rng = random.Random(5)
    for name, g in _sweep_graphs():
        for r in range(1, 9):
            region = sorted(ball(g, g.basepoint, r).edges)
            if len(region) > 100:
                break  # lambda past radius 3: thousands of double sums
            for order in (region, rng.sample(region, len(region)),
                          rng.sample(region, len(region))):
                assert cycle_space_basis(order) == _bfs_basis(order), (name, r)
            bases = eulerian._cycle_blocks(region)
            dim = sum(map(len, bases))
            for cap in (0, 1, 2, 3, 16):
                if cap == 16 and dim > 20:
                    continue
                got = (eulerian._even_sets(region, bases, cap),
                       all(len(b) <= cap for b in bases))
                assert got == _per_block_sweep(region, cap), (name, r, cap)
            assert even_inducing_sets(region, False) == _block_even_sets(region, False)
            if dim <= 12:
                assert even_inducing_sets(region) == _block_even_sets(region, True)


def test_one_two_way_check_computes_one_basis(monkeypatch):
    calls = []

    def counted(edges):
        calls.append(len(edges))
        return cycle_space_basis(edges)

    monkeypatch.setattr(eulerian, "cycle_space_basis", counted)
    v = check_two_way(Doubled(CycleChain(CeEnumeration((2, 5)))), doubled_chain_cert(),
                      ParityCertificate(2), LocalizationCertificate(7))
    assert v.is_fails and len(calls) == 1
    v = check_two_way(Delta2TwoEnded(LimitApprox((2, 5, 9))),
                      EndsCertificate(2, edge_set([(10, 11), (-11, -10)])),
                      ParityCertificate(12), LocalizationCertificate(12))
    assert v.is_holds and len(calls) == 2
