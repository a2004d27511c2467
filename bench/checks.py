"""Output checks that share no code with `src/`.

Component counts come from the rim-labelled brute recount of
`tests/_brute.py`; everything else is recomputed here from the oracle
interface (`neighbors`) with plain searches, or taken from closed forms.
Every checker returns None for a right output and a reason otherwise.
The graphs passed in are fresh oracles, never the ones an operation used,
so checks do not warm the caches the timed calls see.
"""

from __future__ import annotations

from collections import Counter, deque

from _brute import brute_components

from families import bfs

RECOUNT_RADIUS = 40


def recount(fx, removed, radius=RECOUNT_RADIUS):
    """(infinite components, endpoints stranded in finite pieces) of the
    fixture's graph minus `removed`, by the brute recount."""
    g = fx.make()
    inf, finite = brute_components(g, set(removed), radius, fx.label, fx.quiet)
    in_finite = set().union(*finite) if finite else set()
    gone = {_norm(e) for e in removed}
    stranded = set()
    for u, v, _s in gone:
        for x in (u, v):
            alive = any((_norm((x, w, s)) not in gone)
                        for w, m in g.neighbors(x) for s in range(m))
            if x in in_finite or not alive:
                stranded.add(x)
    return inf, stranded


def _norm(e):
    u, v, s = e
    return (u, v, s) if u <= v else (v, u, s)


def check_stage_trace(trace, decided, expected):
    """decide_comp equals the floor of the stage trace, the trace is
    constant once it reaches its floor, and both equal the recount."""
    floor = min(trace)
    if decided != floor:
        return "decide_comp %r differs from the trace floor %d" % (decided, floor)
    first = trace.index(floor)
    if any(x != floor for x in trace[first:]):
        return "trace leaves its floor after stage %d: %r" % (first, trace)
    if decided != expected:
        return "decide_comp %r, recount %d" % (decided, expected)
    return None


def check_boundary(groups, finite, expected_count, expected_finite, removed):
    """One group per infinite component; the finite group is exactly the
    stranded endpoints; groups and finite group cover the endpoints."""
    if len(groups) != expected_count:
        return "%d infinite groups, recount %d" % (len(groups), expected_count)
    if set(finite) != set(expected_finite):
        return "finite group %r, recount %r" % (sorted(finite), sorted(expected_finite))
    ends = {x for u, v, _s in removed for x in (u, v)}
    covered = set(finite).union(*groups) if groups else set(finite)
    if covered != ends:
        return "partition covers %r, endpoints are %r" % (sorted(covered), sorted(ends))
    return None


def sticks_law(halt, removed):
    """Criterion 2's radius law for one column edge (x, x+1) of the
    rerouted line: it separates iff the schedule never halts or
    min(|x|, |x+1|) > halt.  None when the removal is not one column."""
    if len(removed) != 1:
        return None
    u, v, _s = removed[0]
    if v != u + 1:
        return None
    if halt is None or min(abs(u), abs(v)) > halt:
        return 2
    return 1


def check_simple_path(g, verts, start, length):
    """Starts at `start`, has `length` edges, repeats no vertex, and each
    step is an edge of the oracle."""
    if not verts or verts[0] != start:
        return "path does not start at %r" % (start,)
    if len(verts) != length + 1:
        return "path has %d edges, asked for %d" % (len(verts) - 1, length)
    if len(set(verts)) != len(verts):
        return "path repeats a vertex"
    for a, b in zip(verts, verts[1:]):
        if not any(w == b for w, _m in g.neighbors(a)):
            return "%r and %r are not adjacent" % (a, b)
    return None


def incidence_even(edges):
    """Every vertex touched by the edge set is touched an even number of
    times (a loop counts twice)."""
    touched = Counter()
    for u, v, _s in edges:
        touched[u] += 1
        touched[v] += 1
    return bool(touched) and all(c % 2 == 0 for c in touched.values())


def odd_degree(g, v):
    return sum(2 * m if w == v else m for w, m in g.neighbors(v)) % 2 == 1


def escapes(g, removed, starts, radius):
    """Does a start vertex reach distance `radius` from the basepoint in G
    minus `removed`?  On graphs without finite dead ends beyond the
    removal, reaching the rim proves the component infinite and not
    reaching it proves it finite."""
    dist = bfs(g, g.basepoint, radius)
    gone = {_norm(e) for e in removed}
    seen = set(s for s in starts if s in dist)
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        if dist[x] == radius:
            return True
        for w, m in g.neighbors(x):
            if w in seen or w not in dist:
                continue
            if all(_norm((x, w, s)) in gone for s in range(m)):
                continue
            seen.add(w)
            queue.append(w)
    return False


def lambda_ball_size(r):
    """Vertices within r of the basepoint of the product of two binary
    trees: pairs of depths summing to at most r, sum (k+1)*2^k = r*2^(r+1)+1."""
    return r * 2 ** (r + 1) + 1
