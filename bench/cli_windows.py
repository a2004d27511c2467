"""cli-windows: certified windows through the command line, in process.

Every operation is one call of `graphends.cli.main` with its own argv, so
each command parses its graph afresh and starts from a cold neighbour cache,
as a shell user gets.  Every command passes an explicit witness, so no
staged probe runs.  Vertex arguments name the basepoint explicitly
(binary-tree 1, lambda 12): the --start / --center defaults of 0 are not
vertices of those graphs.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import cache

from graphends import cli, gadgets

import checks
from families import (CATALOG, Fixture, ball_edges, bfs, cycle_chain, delta2,
                      draw_removal, edges_literal, rays, simple_walk)
from harness import Op
from _brute import label_sign

LAMBDA_BASE = 12
TREE_BASE = 1
GREEDY_LENGTH = 24
BALL_RADII = (6, 7, 8)

_EDGE = re.compile(r"\((-?\d+),(-?\d+)(?:,(\d+))?\)")


def parse_edge_list(text):
    return [(int(a), int(b), int(c or 0)) for a, b, c in _EDGE.findall(text)]


def body(stdout):
    """Report lines after the reproducibility header."""
    return [ln for ln in stdout.splitlines() if not ln.startswith("#")]


def command(argv, check):
    """An Op running `graphends <argv>`; `check(lines)` sees the report body
    once the exit code is known to be 0."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def verify(result):
        rc, out, err = result
        if rc != 0:
            return "exit %d: %s" % (rc, (err or out).strip()[-200:])
        return check(body(out))

    return Op(" ".join(argv[:3]), run, verify)


def _cert_args(fx):
    return ["--ends", str(fx.ends), "--witness", fx.witness_literal]


# ---------------------------------------------------------------------------
# decide-comp and boundary
# ---------------------------------------------------------------------------

def decide_comp_op(fx, removed):
    expected = cache(lambda: checks.recount(fx, removed)[0])

    def check(lines):
        got = int(lines[-1])
        return None if got == expected() else "printed %d, recount %d" % (got, expected())

    return command(["decide-comp", "--graph", fx.spec, "--edges", edges_literal(removed)]
                   + _cert_args(fx), check)


def boundary_op(fx, removed):
    expected = cache(lambda: checks.recount(fx, removed))

    def check(lines):
        groups = [set(map(int, ln.split(":", 1)[1].split()))
                  for ln in lines if ln.startswith("infinite component")]
        fin = [ln for ln in lines if ln.startswith("finite:")][0].split(":", 1)[1].split()
        finite = set() if fin == ["-"] else set(map(int, fin))
        inf, stranded = expected()
        return checks.check_boundary(groups, finite, inf, stranded, removed)

    return command(["boundary", "--graph", fx.spec, "--edges", edges_literal(removed)]
                   + _cert_args(fx), check)


# ---------------------------------------------------------------------------
# euler-check: the gadget biconditionals of acceptance criterion 3
# ---------------------------------------------------------------------------

def _euler_op(graph, mode, ends, witness, parity, loc, holds, fx=None, odd_at=None):
    """`holds` is the biconditional's verdict.  A Fails witness is an even
    separating set (re-checked by incidence counts and the recount on `fx`)
    or odd vertices (re-checked by degree sums, and equal to `odd_at` when
    given)."""
    argv = ["euler-check", "--graph", graph, "--mode", mode, "--ends", str(ends),
            "--witness", witness, "--parity-radius", str(parity)]
    if loc is not None:
        argv += ["--loc-radius", str(loc)]
    fresh = cache(lambda: gadgets.parse_graph_spec(graph))

    def check(lines):
        verdict = lines[-1]
        if holds:
            return None if verdict.startswith("Holds") else "expected Holds: %s" % verdict
        if not verdict.startswith("Fails"):
            return "expected Fails: %s" % verdict
        wit = verdict.split("; witness: ", 1)[1] if "; witness: " in verdict else ""
        if fx is not None:
            edges = parse_edge_list(wit)
            if not checks.incidence_even(edges):
                return "separator witness %s is not even-inducing" % wit
            inf, _ = checks.recount(fx, edges)
            return None if inf >= 2 else "witness %s leaves %d infinite components" % (wit, inf)
        odd = [int(x) for x in wit.split()]
        if any(not checks.odd_degree(fresh(), v) for v in odd):
            return "parity witness %s has an even-degree vertex" % wit
        if odd_at is not None and set(odd) != set(odd_at):
            return "odd vertices %r, construction puts them at %r" % (odd, sorted(odd_at))
        return None

    return command(argv, check)


def doubled_chain_op(events):
    """Two-way Eulerian iff rewired at every stage."""
    if events is None:
        return _euler_op("doubled-chain:events-all", "two-way", 1, "", 2, None, True)
    c = events[-1] + 2
    base = cycle_chain(events)
    fx = Fixture("doubled-chain", "doubled-chain:" + base.spec.split(":", 1)[1], 2,
                 tuple((u, v, t) for u, v, _s in base.witness for t in (0, 1)),
                 label_sign, lambda: gadgets.Doubled(base.make()))
    return _euler_op(fx.spec, "two-way", 2, fx.witness_literal, 2, c + 2, False, fx=fx)


def sigma21_op(changes):
    """One-way Eulerian iff exactly one value change; the odd vertices sit
    exactly at the change stages."""
    r = (max(changes) if changes else 0) + 2
    graph = "sigma21-line:changes@" + ",".join(map(str, changes))
    return _euler_op(graph, "one-way", 1, "", r, None, len(changes) == 1,
                     odd_at=changes)


def pi1_op(halt):
    """Two-way Eulerian iff the schedule never halts."""
    graph = "pi1-line:" + ("never" if halt is None else "halt@%d" % halt)
    parity = 13 if halt is None else halt + 3
    return _euler_op(graph, "two-way", 1, "", parity, None, halt is None)


def delta2_op(k):
    """Two-way Eulerian iff the number of changes is odd."""
    fx = delta2(tuple(range(1, k + 1)))
    return _euler_op(fx.spec, "two-way", 2, fx.witness_literal, k + 3, k + 2,
                     k % 2 == 1, fx=fx)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def greedy_op(spec, start, ends, witness, length=GREEDY_LENGTH):
    fresh = cache(lambda: gadgets.parse_graph_spec(spec))

    def check(lines):
        head, _, verts = lines[-1].partition(": ")
        path = [int(x) for x in verts.split(",")]
        return checks.check_simple_path(fresh(), path, start, length)

    return command(["greedy-path", "--graph", spec, "--start", str(start),
                    "--length", str(length), "--ends", str(ends), "--witness", witness],
                   check)


def path_extend_op(spec, path, ends, witness, window):
    """Yes iff a neighbour of the tip off the path escapes to the rim of
    the window once every edge at a path vertex is gone."""

    def expected():
        g = gadgets.parse_graph_spec(spec)
        removed = [(x, w, s) for x in path for w, m in g.neighbors(x) for s in range(m)]
        starts = [w for w, _m in g.neighbors(path[-1]) if w not in path]
        return checks.escapes(g, removed, starts, window)

    want = cache(expected)

    def check(lines):
        got = lines[-1]
        w = "Yes" if want() else "No"
        return None if got == w else "printed %s, recount says %s" % (got, w)

    return command(["path-extend", "--graph", spec, "--path=" + ",".join(map(str, path)),
                    "--ends", str(ends), "--witness", witness], check)


def _tree_window(g, path):
    """Two layers past the farthest path vertex: a component reaching it is
    infinite on these outward-growing graphs."""
    dist = bfs(g, g.basepoint, len(path))
    return max(dist[v] for v in path) + 3


# ---------------------------------------------------------------------------
# minimal-sep, ends-from-sepmax, ball
# ---------------------------------------------------------------------------

def minimal_sep_op(fx, radius):
    """Every listed subset separates, and stops separating when any one of
    its edges is dropped, both by the recount."""

    def check(lines):
        m = re.match(r"shell: (\d+) edges; minimal separating subsets: (\d+)", lines[0])
        if not m or int(m.group(2)) != len(lines) - 1:
            return "malformed report %r" % lines[:2]
        for ln in lines[1:]:
            sub = parse_edge_list(ln)
            if checks.recount(fx, sub)[0] < 2:
                return "subset %s does not separate" % ln
            for e in sub:
                rest = [x for x in sub if x != e]
                if rest and checks.recount(fx, rest)[0] >= 2:
                    return "subset %s is not minimal (drop %r)" % (ln, e)
        return None

    return command(["minimal-sep", "--graph", fx.spec, "--shell-radius", str(radius)]
                   + _cert_args(fx), check)


def ends_op(fx):
    def check(lines):
        got = int(lines[0])
        return None if got == fx.ends else "recovered %d ends, family has %d" % (got, fx.ends)

    return command(["ends-from-sepmax", "--graph", fx.spec] + _cert_args(fx), check)


def ball_op(radius):
    def check(lines):
        n = int(re.match(r"vertices: (\d+)", lines[0]).group(1))
        want = checks.lambda_ball_size(radius)
        return None if n == want else "%d vertices, closed form %d" % (n, want)

    return command(["ball", "--graph", "lambda", "--center", str(LAMBDA_BASE),
                    "--radius", str(radius)], check)


# ---------------------------------------------------------------------------
# the command mix
# ---------------------------------------------------------------------------

def build(seed: int):
    """The graphs and schedules that set a command's cost are fixed; the
    seed draws removals, walks, halting steps, change positions and shell
    radii."""
    rng = random.Random(seed)
    pools = {}

    def removal(fx):
        if fx.spec not in pools:
            pools[fx.spec] = ball_edges(fx.make(), 6)
        return draw_removal(rng, pools[fx.spec])

    ops = []
    for family in sorted(CATALOG):
        catalog = CATALOG[family]
        spread = [catalog[k * len(catalog) // 4] for k in range(4)]
        ops += [decide_comp_op(fx, removal(fx)) for fx in spread[:2]]
        ops += [boundary_op(fx, removal(fx)) for fx in spread[2:]]

    ops += [doubled_chain_op((1, 3)), doubled_chain_op((2, 5)), doubled_chain_op(None)]
    one = (rng.randint(1, 9),)
    two = tuple(sorted(rng.sample(range(1, 10), 2)))
    ops += [sigma21_op(()), sigma21_op(one), sigma21_op(two)]
    ops += [pi1_op(None), pi1_op(rng.randint(0, 10)), pi1_op(rng.randint(0, 10))]
    ops += [delta2_op(k) for k in (3, 4, 5)]

    chains = CATALOG["cycle-chain"]
    for fx in (chains[1], chains[2], CATALOG["rays2"][1], CATALOG["rays3"][0]):
        ops.append(greedy_op(fx.spec, 0, fx.ends, fx.witness_literal))
    ops.append(greedy_op("lambda", LAMBDA_BASE, 1, ""))
    ops.append(greedy_op("binary-tree", TREE_BASE, 1, ""))

    for fx in (chains[0], chains[3], chains[5]):
        path = simple_walk(rng, fx.make(), rng.randint(-3, 3), rng.randint(1, 5))
        ops.append(path_extend_op(fx.spec, path, fx.ends, fx.witness_literal,
                                  checks.RECOUNT_RADIUS))
    nat = gadgets.NatLine()
    ops.append(path_extend_op("nat-line", simple_walk(rng, nat, rng.randint(0, 4),
                                                      rng.randint(1, 4)),
                              1, "", checks.RECOUNT_RADIUS))
    line = CATALOG["int-line"][0]
    ops.append(path_extend_op("int-line", simple_walk(rng, line.make(), rng.randint(-3, 3),
                                                      rng.randint(1, 4)),
                              2, line.witness_literal, checks.RECOUNT_RADIUS))
    for spec, base, steps in (("binary-tree", TREE_BASE, 5), ("binary-tree", TREE_BASE, 5),
                              ("lambda", LAMBDA_BASE, 4)):
        g = gadgets.parse_graph_spec(spec)
        path = simple_walk(rng, g, base, rng.randint(1, steps))
        ops.append(path_extend_op(spec, path, 1, "", _tree_window(g, path)))

    for fx in (chains[1], line, CATALOG["rays2"][0], CATALOG["rays3"][2]):
        ops.append(minimal_sep_op(fx, rng.randint(2, 5)))

    for fx in (line, chains[2], chains[5], rays(2, (3,)), rays(3, (2,))):
        ops.append(ends_op(fx))

    ops += [ball_op(r) for r in BALL_RADII]
    return ops
