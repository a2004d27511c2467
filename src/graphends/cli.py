"""Batch front door: run every operation from the shell.

Graphs come from the gadget registry (``--graph kind:schedule-literal``),
presentations from the text format or a builtin name.  Every report opens
with the fully resolved inputs -- including an ``auto`` witness after
resolution -- so a run is reproducible from its own output.

Exit codes: 0 a definite answer, 2 the search budget ran out first
(Unknown), 1 a usage or input error.  Unknown never masquerades as No.

Every command is one row of ``COMMANDS``: its name, help, handler and flag
specs, with the shared flag groups (graph, edges, certificate, fuel,
vertex) spliced in.  ``build_parser`` turns any list of rows into a
parser.  A run names one command, so ``main`` builds the subparser of that
row alone: argparse construction costs about a millisecond for all fifteen,
more than most commands take to run.  Without a known command name first
(``--help``, no command, a misspelt one) it builds them all, so the listing
and the usage errors are those of the full table.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import product as _cartesian
from typing import Optional, Sequence, Tuple

from .graph_core import (
    EdgeSet, EndsCertificate, Fuel, GraphError, Unknown,
    ball, edge, edge_set, to_dot,
)
from .separation import (
    boundary_partition, comp_approx, comp_counter, decide_comp,
    ends_from_sepmax, minimal_separating_subsets, semidecide_not_separating,
    sepmax_witness_from_ends, shell_edges,
)
from .paths import check_simple_path, decide_extendable, greedy_infinite_path
from .eulerian import (
    LocalizationCertificate, ParityCertificate, check_one_way, check_two_way,
)
from .gadgets import GADGET_KINDS, parse_graph_spec
from .automatic import (
    decide_eulerian_automatic, domain_words, eval_formula, free_variables,
    grid_presentation, nat_line_presentation, parse_formula,
    parse_presentation,
)


class UsageError(Exception):
    """Malformed flags or literals; reported on stderr with exit code 1."""


class OutOfFuel(Exception):
    """A required sub-computation came back Unknown; exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means Unknown here, so reroute.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

_EDGE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*(?:,\s*(\d+)\s*)?\)")


def parse_edges(text: str) -> EdgeSet:
    """``"(0,1);(5,6,1)"`` -> edge set; separators between tuples are free."""
    leftover = _EDGE.sub("", text).strip(" \t\n;,")
    if leftover:
        raise UsageError("bad edge literal %r (near %r)" % (text, leftover))
    return edge_set(
        edge(int(m.group(1)), int(m.group(2)), int(m.group(3) or 0))
        for m in _EDGE.finditer(text))


def parse_vertex_list(text: str) -> Tuple[int, ...]:
    """``"0,1,2"`` -> vertex sequence."""
    try:
        return tuple(int(p) for p in text.replace(";", ",").split(",")
                     if p.strip())
    except ValueError:
        raise UsageError("bad vertex list %r" % text)


def fmt_edges(es: EdgeSet) -> str:
    """Inverse of parse_edges, sorted; empty set prints as the empty string."""
    return ";".join(
        "(%d,%d)" % (e.u, e.v) if e.slot == 0 else
        "(%d,%d,%d)" % (e.u, e.v, e.slot)
        for e in sorted(es))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _header(command: str, pairs, out=None) -> None:
    w = out if out is not None else sys.stdout
    print("# %s" % command, file=w)
    for key, value in pairs:
        print("#   %s = %s" % (key, value), file=w)


def _fuel(args) -> Fuel:
    return Fuel(max_radius=args.fuel_radius, max_steps=args.fuel_steps)


def _fuel_pair(fuel: Fuel):
    return ("fuel", "radius=%d steps=%d" % (fuel.max_radius, fuel.max_steps))


def _unknown(fuel: Fuel, reason: str = "radius budget %d exhausted") -> int:
    """Report that the radius budget ran out; exit code 2."""
    print("Unknown (%s)" % (reason % fuel.max_radius))
    return 2


def _certificate(g, args, fuel: Fuel) -> EndsCertificate:
    """Resolve --ends/--witness into a certificate.

    Called after the report header is printed, so a failed auto search
    still leaves the resolved inputs on record; a successful one adds a
    resolved-witness line in the header's key = value style.
    """
    if args.witness == "auto":
        w = _auto_witness(g, args.ends, fuel)
        print("#   resolved-witness = %s" % fmt_edges(w))
    else:
        w = parse_edges(args.witness)
    return EndsCertificate(args.ends, w)


def _auto_witness(g, ends: int, fuel: Fuel) -> EdgeSet:
    """Search for a maximal-separation witness, then check it.

    The shell scan probes candidates with a radius-bounded component
    approximation; decide_comp, with the candidate as its own certificate,
    then rejects those it refutes.  Both see only the radius budget, so a
    finite piece deeper than it passes for an infinite one.
    """
    if ends == 1:
        return frozenset()
    probe = lambda e: comp_approx(g, e, fuel.max_radius) >= 2
    w = sepmax_witness_from_ends(g, ends, probe, fuel)
    if isinstance(w, Unknown):
        raise OutOfFuel("no maximal-separation witness within radius %d"
                        % fuel.max_radius)
    got = decide_comp(g, w, EndsCertificate(ends, w), fuel)
    if isinstance(got, Unknown):
        raise OutOfFuel("auto witness %s did not certify within fuel"
                        % fmt_edges(w))
    if got != ends:
        raise OutOfFuel("auto witness %s leaves %d infinite components, "
                        "expected %d" % (fmt_edges(w), got, ends))
    return w


def _load_presentation(literal: str):
    """A builtin name (nat-line, grid) or a path to a presentation file."""
    if literal == "nat-line":
        return nat_line_presentation()
    if literal == "grid":
        return grid_presentation()
    with open(literal, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _vertex(g, given: Optional[int]) -> int:
    """An explicit vertex flag, or the graph's basepoint when omitted."""
    return g.basepoint if given is None else given


def _cmd_ball(args) -> int:
    g = parse_graph_spec(args.graph)
    center = _vertex(g, args.center)
    b = ball(g, center, args.radius)
    _header("ball", [("graph", args.graph), ("center", center),
                     ("radius", args.radius)])
    print("vertices: %d   edges: %d" % (len(b.vertices), len(b.edges)))
    vs = sorted(b.vertices)
    shown = ", ".join(str(v) for v in vs[:24])
    print("vertex sample: %s%s" % (shown, ", ..." if len(vs) > 24 else ""))
    return 0


def _cmd_comp_approx(args) -> int:
    g = parse_graph_spec(args.graph)
    e = parse_edges(args.edges)
    _header("comp-approx", [("graph", args.graph), ("edges", fmt_edges(e)),
                            ("n", args.n)])
    print(comp_approx(g, e, args.n))
    return 0


def _cmd_decide_comp(args) -> int:
    g = parse_graph_spec(args.graph)
    e = parse_edges(args.edges)
    fuel = _fuel(args)
    _header("decide-comp", [("graph", args.graph), ("edges", fmt_edges(e)),
                            ("ends", args.ends), ("witness", args.witness),
                            _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)
    got = decide_comp(g, e, cert, fuel)
    if isinstance(got, Unknown):
        return _unknown(fuel)
    print(got)
    return 0


def _cmd_boundary(args) -> int:
    g = parse_graph_spec(args.graph)
    e = parse_edges(args.edges)
    fuel = _fuel(args)
    _header("boundary", [("graph", args.graph), ("edges", fmt_edges(e)),
                         ("ends", args.ends), ("witness", args.witness),
                         _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)
    bp = boundary_partition(g, e, cert, fuel)
    if isinstance(bp, Unknown):
        return _unknown(fuel)
    for i, grp in enumerate(bp.infinite_groups, 1):
        print("infinite component %d: %s"
              % (i, " ".join(str(v) for v in sorted(grp))))
    print("finite: %s"
          % (" ".join(str(v) for v in sorted(bp.finite_group)) or "-"))
    return 0


def _cmd_sep_semidecide(args) -> int:
    g = parse_graph_spec(args.graph)
    e = parse_edges(args.edges)
    fuel = _fuel(args)
    _header("sep-semidecide", [("graph", args.graph),
                               ("edges", fmt_edges(e)), _fuel_pair(fuel)])
    t = semidecide_not_separating(g, e, fuel)
    if t is True:
        print("NotSeparating (a stage shows at most one infinite component)")
        return 0
    print("Unknown (no stage up to %d collapsed the count; the set may "
          "separate)" % fuel.max_radius)
    return 2


def _cmd_minimal_sep(args) -> int:
    g = parse_graph_spec(args.graph)
    fuel = _fuel(args)
    shell = shell_edges(g, args.shell_radius)
    _header("minimal-sep", [("graph", args.graph),
                            ("shell-radius", args.shell_radius),
                            ("ends", args.ends), ("witness", args.witness),
                            _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)
    counter = comp_counter(g, shell, cert, fuel)
    if isinstance(counter, Unknown):
        return _unknown(fuel, "no decision window within radius %d")
    mins = minimal_separating_subsets(g, shell, lambda s: counter(s) >= 2)
    print("shell: %d edges; minimal separating subsets: %d"
          % (len(shell), len(mins)))
    for s in mins:
        print(fmt_edges(s))
    return 0


def _cmd_ends_from_sepmax(args) -> int:
    g = parse_graph_spec(args.graph)
    fuel = _fuel(args)
    _header("ends-from-sepmax", [("graph", args.graph), ("ends", args.ends),
                                 ("witness", args.witness), _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)

    def oracle(es):
        got = decide_comp(g, es, cert, fuel)
        if isinstance(got, Unknown):
            raise OutOfFuel("oracle query %s did not settle within fuel"
                            % fmt_edges(es))
        return got == cert.ends

    k = ends_from_sepmax(g, oracle, fuel)
    if isinstance(k, Unknown):
        return _unknown(fuel)
    print(k)
    if k != args.ends:
        print("note: recovered count differs from --ends %d" % args.ends)
    return 0


def _cmd_sepmax_witness(args) -> int:
    g = parse_graph_spec(args.graph)
    fuel = _fuel(args)
    _header("sepmax-witness", [("graph", args.graph), ("ends", args.ends),
                               _fuel_pair(fuel)])
    w = _auto_witness(g, args.ends, fuel)
    print(fmt_edges(w))
    return 0


def _cmd_path_extend(args) -> int:
    g = parse_graph_spec(args.graph)
    verts = parse_vertex_list(args.path)
    fuel = _fuel(args)
    _header("path-extend", [("graph", args.graph),
                            ("path", ",".join(str(v) for v in verts)),
                            ("ends", args.ends), ("witness", args.witness),
                            _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)
    p = check_simple_path(g, verts)
    t = decide_extendable(g, p, cert, fuel)
    if isinstance(t, Unknown):
        return _unknown(fuel)
    print("Yes" if t else "No")
    return 0


def _cmd_greedy_path(args) -> int:
    g = parse_graph_spec(args.graph)
    fuel = _fuel(args)
    start = _vertex(g, args.start)
    _header("greedy-path", [("graph", args.graph), ("start", start),
                            ("length", args.length), ("ends", args.ends),
                            ("witness", args.witness), _fuel_pair(fuel)])
    cert = _certificate(g, args, fuel)
    got = greedy_infinite_path(g, start, cert, args.length, fuel)
    if isinstance(got, Unknown):
        return _unknown(fuel)
    print("length %d: %s"
          % (got.edge_count, ",".join(str(v) for v in got.vertices)))
    return 0


def _cmd_euler_check(args) -> int:
    g = parse_graph_spec(args.graph)
    fuel = _fuel(args)
    if args.mode == "one-way" and args.loc_radius is not None:
        raise UsageError("--loc-radius only applies to --mode two-way")
    pc = (ParityCertificate(args.parity_radius)
          if args.parity_radius is not None else None)
    lc = (LocalizationCertificate(args.loc_radius)
          if args.loc_radius is not None else None)
    pairs = [("graph", args.graph), ("mode", args.mode), ("ends", args.ends),
             ("witness", args.witness),
             ("parity-radius", args.parity_radius if pc is not None else "-")]
    if args.mode == "two-way":
        pairs.append(("loc-radius", args.loc_radius if lc is not None else "-"))
    pairs.append(_fuel_pair(fuel))
    _header("euler-check", pairs)
    cert = _certificate(g, args, fuel)
    if args.mode == "one-way":
        v = check_one_way(g, cert, pc, fuel)
    else:
        v = check_two_way(g, cert, pc, lc, fuel)
    if v.is_unknown:
        print("Unknown (fuel spent: %d%s)"
              % (v.fuel_spent,
                 "; searched: " + ", ".join(v.searched) if v.searched else ""))
        return 2
    if v.is_holds:
        note = " (certified: %s)" % ", ".join(v.certified) if v.certified else ""
        print("Holds%s" % note)
        return 0
    witness = ""
    if v.witness:
        if all(hasattr(w, "slot") for w in v.witness):
            witness = "; witness: %s" % fmt_edges(edge_set(v.witness))
        else:
            witness = "; witness: %s" % " ".join(str(w) for w in v.witness)
    print("Fails: %s%s" % (v.reason, witness))
    return 0


def _cmd_gadget_list(args) -> int:
    for kind in sorted(GADGET_KINDS):
        print("%-18s %s" % (kind, GADGET_KINDS[kind]))
    print()
    print("schedule literals: halt@S | never | events@a,b[,...] | "
          "events-all | changes@a,b[,...]")
    print("graph literal: kind or kind:schedule, e.g. "
          "lines-with-sticks:halt@3, delta2:changes@2,5,9, comb:3,never,2")
    return 0


def _cmd_automatic_eval(args) -> int:
    p = _load_presentation(args.presentation)
    f = parse_formula(args.formula)
    pairs = [("presentation", args.presentation), ("formula", args.formula)]
    got = eval_formula(p, f)
    if isinstance(got, bool):
        _header("automatic-eval", pairs)
        print("true" if got else "false")
        return 0
    fv = sorted(free_variables(f))
    pairs.append(("free-variables", " ".join(fv)))
    pairs.append(("max-len", args.max_len))
    _header("automatic-eval", pairs)
    words = domain_words(p.domain, args.max_len)
    hits = []
    for tup in _cartesian(words, repeat=len(fv)):
        if got.accepts(tup):
            hits.append(tup)
            if len(hits) > args.limit:
                break
    for tup in hits[:args.limit]:
        print(" ".join("%s=%s" % (x, w or "eps") for x, w in zip(fv, tup)))
    if len(hits) > args.limit:
        print("... (more beyond --limit %d)" % args.limit)
    elif not hits:
        print("(no satisfying assignment up to length %d)" % args.max_len)
    return 0


def _cmd_automatic_euler(args) -> int:
    p = _load_presentation(args.presentation)
    _header("automatic-euler", [("presentation", args.presentation),
                                ("which", args.which)])
    print("true" if decide_eulerian_automatic(p, args.which) else "false")
    return 0


def _cmd_dot_export(args) -> int:
    g = parse_graph_spec(args.graph)
    center = _vertex(g, args.center)
    b = ball(g, center, args.radius)
    removed = parse_edges(args.edges) if args.edges else frozenset()
    name = re.sub(r"\W+", "_", args.graph).strip("_") or "g"
    dot = to_dot(b, removed, name=name)
    pairs = [("graph", args.graph), ("center", center),
             ("radius", args.radius), ("edges", fmt_edges(removed))]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
        _header("dot-export", pairs)
        print("wrote %s" % args.out)
    else:
        # keep stdout pure DOT; the reproducibility header goes to stderr
        _header("dot-export", pairs, out=sys.stderr)
        print(dot)
    return 0


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

# A flag spec is (flag, add_argument keywords); the shared groups below are
# spliced into the rows in the order each command lists its flags.  Rows
# whose flag differs from a group spell it out: comp-approx alone documents
# --edges, and sepmax-witness takes --ends without --witness.
_GRAPH = [("--graph", dict(required=True,
                           help="gadget literal kind[:schedule]; see gadget-list"))]
_EDGES = [("--edges", dict(required=True))]
_CERT = [("--ends", dict(type=int, required=True,
                         help="number of ends the certificate promises")),
         ("--witness", dict(default="auto",
                            help='maximal-separation witness edge literal, or '
                                 '"auto" to search for one (default)'))]
_FUEL = [("--fuel-radius", dict(type=int, default=64,
                                help="search radius budget (default 64)")),
         ("--fuel-steps", dict(type=int, default=400_000,
                               help="visit budget (default 400000)"))]
_VERTEX = dict(type=int, default=None, help="default: the graph's basepoint")
_BALL = [("--center", _VERTEX), ("--radius", dict(type=int, required=True))]
_ONE_OR_TWO_WAY = dict(choices=("one-way", "two-way"), required=True)

# (command, help, handler, flag specs), in the order --help lists them
COMMANDS = [
    ("ball", "extract an induced ball", _cmd_ball, _GRAPH + _BALL),
    ("comp-approx", "stage-n over-approximation of Comp", _cmd_comp_approx,
     _GRAPH + [("--edges", dict(required=True, help='edge literal "(u,v);..."')),
               ("--n", dict(type=int, required=True, help="stage radius"))]),
    ("decide-comp", "exact infinite-component count, certified",
     _cmd_decide_comp, _GRAPH + _EDGES + _CERT + _FUEL),
    ("boundary", "classify removed-edge endpoints by fate", _cmd_boundary,
     _GRAPH + _EDGES + _CERT + _FUEL),
    ("sep-semidecide", "one-sided check that a set does not separate",
     _cmd_sep_semidecide, _GRAPH + _EDGES + _FUEL),
    ("minimal-sep", "minimal separating subsets of a shell", _cmd_minimal_sep,
     _GRAPH + [("--shell-radius", dict(type=int, required=True))] + _CERT + _FUEL),
    ("ends-from-sepmax", "recover the end count from a sepmax oracle",
     _cmd_ends_from_sepmax, _GRAPH + _CERT + _FUEL),
    ("sepmax-witness", "find and certify a maximal-separation witness",
     _cmd_sepmax_witness,
     _GRAPH + [("--ends", dict(type=int, required=True))] + _FUEL),
    ("path-extend", "does a finite simple path extend to infinity",
     _cmd_path_extend,
     _GRAPH + [("--path", dict(required=True, help='vertex list "0,1,2"'))]
     + _CERT + _FUEL),
    ("greedy-path", "grow a simple path without backtracking", _cmd_greedy_path,
     _GRAPH + [("--start", _VERTEX), ("--length", dict(type=int, required=True))]
     + _CERT + _FUEL),
    ("euler-check", "one-way / two-way Eulerian-path conditions",
     _cmd_euler_check,
     _GRAPH + [("--mode", _ONE_OR_TWO_WAY)] + _CERT
     + [("--parity-radius", dict(type=int, default=None,
                                 help="all odd vertices lie within this radius")),
        ("--loc-radius", dict(type=int, default=None,
                              help="any separating even-inducing set lies "
                                   "within this radius (two-way only)"))]
     + _FUEL),
    ("gadget-list", "list the gadget registry", _cmd_gadget_list, []),
    ("automatic-eval", "evaluate a formula over a presentation",
     _cmd_automatic_eval,
     [("--presentation", dict(required=True,
                              help="file path, or builtin: nat-line | grid")),
      ("--formula", dict(required=True, help="s-expression")),
      ("--max-len", dict(type=int, default=4,
                         help="code length bound when listing satisfying "
                              "assignments of an open formula (default 4)")),
      ("--limit", dict(type=int, default=40,
                       help="max assignments listed (default 40)"))]),
    ("automatic-euler", "Eulerian-condition decider on a presentation",
     _cmd_automatic_euler,
     [("--presentation", dict(required=True)), ("--which", _ONE_OR_TWO_WAY)]),
    ("dot-export", "DOT rendering of a ball", _cmd_dot_export,
     _GRAPH + _BALL
     + [("--edges", dict(default="", help="removed edges to draw dashed")),
        ("--out", dict(default=None, help="write here, not stdout"))]),
]
_BY_NAME = {row[0]: row for row in COMMANDS}


def build_parser(rows=COMMANDS) -> argparse.ArgumentParser:
    """The top-level parser with one subparser per row of `rows`."""
    parser = _Parser(prog="graphends",
                     description="certified deciders on lazily described "
                                 "infinite graphs")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text, handler, specs in rows:
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    row = _BY_NAME.get(argv[0]) if argv else None
    parser = build_parser([row] if row else COMMANDS)
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise UsageError("no command given (try gadget-list, --help)")
        return args.func(args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 1
    except OutOfFuel as e:
        print("Unknown: %s" % e)
        return 2
    except (GraphError, OSError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
