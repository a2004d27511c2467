"""Hand-built oracles for corner cases the stock families don't cover."""

import random
from collections import deque

from graphends import GraphOracle, edge


class PendantLine(GraphOracle):
    """Half line 0-1-2-... with one extra vertex (id -1) hanging at `at`."""

    def __init__(self, at=5):
        super().__init__()
        self.at = at

    def contains(self, v):
        return v >= 0 or v == -1

    def _neighbors(self, v):
        if v == -1:
            return [(self.at, 1)]
        out = [(v + 1, 1)]
        if v >= 1:
            out.append((v - 1, 1))
        if v == self.at:
            out.append((-1, 1))
        return out


class LollipopLine(GraphOracle):
    """Half line with a finite cycle at-(-1)-(-2)-at glued at vertex `at`,
    the origin by default.

    Gives a graph where a single edge removal on the cycle never separates
    and where small windows contain a finite blob.
    """

    def __init__(self, at=0):
        super().__init__()
        self.at = at

    def contains(self, v):
        return v >= -2

    def _neighbors(self, v):
        if v == -1:
            return [(-2, 1), (self.at, 1)]
        if v == -2:
            return [(-1, 1), (self.at, 1)]
        out = [(v + 1, 1)]
        if v >= 1:
            out.append((v - 1, 1))
        if v == self.at:
            out = [(-2, 1), (-1, 1)] + out
        return out


class TwoEndLineWithChord(GraphOracle):
    """Integer line plus one chord between -3 and 3; two ends, and near the
    origin some single-edge removals fail to separate."""

    def contains(self, v):
        return True

    def _neighbors(self, v):
        out = [(v - 1, 1), (v + 1, 1)]
        if v == -3:
            out.append((3, 1))
        elif v == 3:
            out.append((-3, 1))
        return out


class LoopyLine(GraphOracle):
    """Half line 0-1-2-... with its edge (1, 2) doubled, plus a pendant path
    0 - (-1) - (-2) ending in a loop at -2.

    Removing one copy of (1, 2) leaves its endpoints joined by the other;
    cutting the pendant path off leaves a finite piece whose reach grows
    one last time through the loop.
    """

    def contains(self, v):
        return v >= -2

    def _neighbors(self, v):
        if v == -2:
            return [(-2, 1), (-1, 1)]
        if v == -1:
            return [(-2, 1), (0, 1)]
        if v == 0:
            return [(-1, 1), (1, 1)]
        if v == 1:
            return [(0, 1), (2, 2)]
        if v == 2:
            return [(1, 2), (3, 1)]
        return [(v - 1, 1), (v + 1, 1)]


class RayWithTail(GraphOracle):
    """Ray 0-1-2-... with a path 0-(-1)-...-(-L) hung at 0: one end, the
    ray from -L seen from vertex 0.  A tail longer than a search's radius
    budget looks like a second ray to every search bounded by that budget.
    """

    def __init__(self, length):
        super().__init__()
        self.length = length

    def contains(self, v):
        return v >= -self.length

    def _neighbors(self, v):
        return [(v - 1, 1), (v + 1, 1)] if v > -self.length else [(v + 1, 1)]


class CorePlusRays(GraphOracle):
    """A seeded random finite core with k one-way rays attached: k ends.

    The core is vertices 0..size-1 with basepoint 0: a random spanning tree
    (its leaves are pendant trees), plus one loop, one parallel copy of a
    tree edge and one chord that closes a cycle or doubles an edge.  Ray j
    (0 <= j < k) leaves core vertex attach[j]; its i-th vertex (i >= 1) is
    size + k*(i-1) + j.  Beyond `quiet`, the core's radius plus one, the
    graph is plain one-way rays, as `_brute.brute_components` needs, and
    `end_label` names a rim vertex's ray.  `ray_edges` holds the first edge
    of each ray: removing it leaves exactly k infinite components, so it is
    a maximal-separation witness.
    """

    def __init__(self, seed, size=4, k=1):
        super().__init__()
        rng = random.Random(seed)
        self.size, self.k = size, k
        self._adj = {v: {} for v in range(size)}
        for v in range(1, size):
            self._add(v, rng.randrange(v))
        self._add(*rng.choice([(u, w) for u in self._adj for w in self._adj[u] if u < w]))
        loop = rng.randrange(size)
        self._add(loop, loop)
        self._add(*rng.sample(range(size), 2))
        self.attach = tuple(rng.randrange(size) for _ in range(k))
        self.ray_edges = frozenset(edge(a, size + j) for j, a in enumerate(self.attach))
        dist, queue = {0: 0}, deque([0])
        while queue:
            v = queue.popleft()
            for w in self._adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        self.quiet = max(dist.values()) + 1

    def _add(self, u, v):
        self._adj[u][v] = self._adj[u].get(v, 0) + 1
        if u != v:
            self._adj[v][u] = self._adj[v].get(u, 0) + 1

    def core_edges(self):
        return frozenset(edge(u, w, s) for u in self._adj for w, m in self._adj[u].items()
                         if u <= w for s in range(m))

    def end_label(self, v):
        assert v >= self.size, "a core vertex on the rim"
        return (v - self.size) % self.k

    def contains(self, v):
        return v >= 0

    def _neighbors(self, v):
        size, k = self.size, self.k
        if v < size:
            return list(self._adj[v].items()) + [
                (size + j, 1) for j, a in enumerate(self.attach) if a == v]
        back = v - k if v >= size + k else self.attach[(v - size) % k]
        return [(back, 1), (v + k, 1)]
