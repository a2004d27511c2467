"""The benchmark's output checks reject corrupted results.

    python3 -m pytest -q bench/test_checks.py

Run from the root of a source checkout.  Each test takes a real operation,
corrupts its output in one way (a flipped verdict, a wrong component count,
a non-simple path, a wrong ball size, ...) and requires the check to reject
it; the runner must then report the output as wrong, neither crashing nor
passing it, and say so in its result line and its exit code.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

import _brute_auto  # noqa: E402
import brute_logic  # noqa: E402
import cli_windows  # noqa: E402
import logic_battery  # noqa: E402
import sep_stages  # noqa: E402
from harness import Op, Raised, check_outputs, run_rounds  # noqa: E402
from tracing import Tracer  # noqa: E402


def first(ops, text):
    return next(op for op in ops if text in op.name)


def corrupted(op, corrupt):
    """The same operation with its output passed through `corrupt`."""
    return Op(op.name, lambda: corrupt(op.run()), op.check, op.observe)


def verdict(op, out):
    return op.check(op.observe(out) if op.observe else out)


def assert_counted_failed(op, corrupt):
    """The check rejects the corrupted output, and a run of the real and the
    corrupted operation reports exactly the corrupted one as wrong."""
    good = op.run()
    assert verdict(op, good) is None
    assert verdict(op, corrupt(good)) is not None
    _lat, outs, _t = run_rounds([op, corrupted(op, corrupt)], 0.0, warmup=0)
    raised, rejected = check_outputs([op, corrupted(op, corrupt)], outs)
    assert raised == [] and len(rejected) == 1 and rejected[0].startswith(op.name)


# ---------------------------------------------------------------------------
# sep-stages
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sep_ops():
    return sep_stages.build(3)


def test_wrong_component_count_is_rejected(sep_ops):
    op = first(sep_ops, "cycle-chain:events@2,5 stages")

    def bump(out):
        trace, decided, bp = out
        return [x + 1 for x in trace], decided + 1, bp

    assert_counted_failed(op, bump)


def test_decision_off_the_trace_floor_is_rejected(sep_ops):
    op = first(sep_ops, "rays3:events@1 stages")
    assert_counted_failed(op, lambda out: (out[0], out[1] + 1, out[2]))


def test_trace_leaving_its_floor_is_rejected(sep_ops):
    op = first(sep_ops, "int-line stages")

    def wobble(out):
        trace = list(out[0])
        trace[-1] += 1
        return trace, out[1], out[2]

    assert_counted_failed(op, wobble)


def test_wrong_boundary_partition_is_rejected(sep_ops):
    op = first(sep_ops, "delta2:changes@2,5,9 stages")

    def strand(out):
        trace, decided, bp = out
        first_group = sorted(bp.infinite_groups[0])
        groups = (frozenset(first_group[1:]),) + bp.infinite_groups[1:]
        return trace, decided, type(bp)(groups, bp.finite_group | {first_group[0]})

    assert_counted_failed(op, strand)


def test_sticks_radius_law():
    from families import sticks
    import checks

    assert checks.sticks_law(3, ((5, 6, 0),)) == 2       # min(5, 6) > 3
    assert checks.sticks_law(3, ((3, 4, 0),)) == 1       # the halting column
    assert checks.sticks_law(3, ((-5, -4, 0),)) == 2
    assert checks.sticks_law(None, ((0, 1, 0),)) == 2
    assert checks.sticks_law(3, ((0, 1, 0), (5, 6, 0))) is None
    fx = sticks(3)
    op = sep_stages._removal_op(fx, fx.make(), ((5, 6, 0),))
    assert_counted_failed(op, lambda out: ([1] * len(out[0]), 1, out[2]))


def test_bogus_auto_witness_is_rejected(sep_ops):
    from graphends.graph_core import edge_set
    op = first(sep_ops, "auto-witness")
    assert_counted_failed(op, lambda w: edge_set([(0, 1)]))


# ---------------------------------------------------------------------------
# cli-windows
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_ops():
    return cli_windows.build(3)


def _swap(old, new):
    def corrupt(out):
        rc, stdout, err = out
        assert old in stdout
        return rc, stdout.replace(old, new, 1), err
    return corrupt


def _last_line(fn):
    def corrupt(out):
        rc, stdout, err = out
        lines = stdout.rstrip("\n").split("\n")
        lines[-1] = fn(lines[-1])
        return rc, "\n".join(lines) + "\n", err
    return corrupt


def test_flipped_euler_verdict_is_rejected(cli_ops):
    holds = first(cli_ops, "doubled-chain:events-all")
    assert_counted_failed(holds, _last_line(lambda _ln: "Fails: all-degrees-even; witness: 3"))
    fails = first(cli_ops, "pi1-line:halt@")
    assert_counted_failed(fails, _last_line(lambda _ln: "Holds (certified: ends, parity)"))


def test_non_even_separator_witness_is_rejected(cli_ops):
    op = next(op for op in cli_ops if op.name.startswith("euler-check --graph delta2")
              and "Fails" in op.run()[1])
    assert_counted_failed(op, _last_line(lambda ln: ln.split("; witness: ")[0]
                                         + "; witness: (0,1)"))


def test_wrong_component_count_from_cli_is_rejected(cli_ops):
    op = first(cli_ops, "decide-comp")
    assert_counted_failed(op, _last_line(lambda ln: str(int(ln) + 1)))


def test_non_simple_path_is_rejected(cli_ops):
    op = first(cli_ops, "greedy-path --graph lambda")

    def repeat(ln):
        head, verts = ln.split(": ")
        vs = verts.split(",")
        vs[3] = vs[1]
        return "%s: %s" % (head, ",".join(vs))

    assert_counted_failed(op, _last_line(repeat))


def test_wrong_ball_size_is_rejected(cli_ops):
    op = first(cli_ops, "ball --graph lambda")
    n = cli_windows.checks.lambda_ball_size(6)
    assert_counted_failed(op, _swap("vertices: %d" % n, "vertices: %d" % (n - 1)))


def test_wrong_end_count_is_rejected(cli_ops):
    op = first(cli_ops, "ends-from-sepmax --graph int-line")
    assert_counted_failed(op, _swap("\n2\n", "\n3\n"))


def test_flipped_path_extension_is_rejected(cli_ops):
    op = first(cli_ops, "path-extend --graph binary-tree")
    assert_counted_failed(op, _last_line(lambda ln: "No" if ln == "Yes" else "Yes"))


def test_non_minimal_separator_is_rejected():
    from families import int_line
    op = cli_windows.minimal_sep_op(int_line(), 3)
    assert_counted_failed(op, _swap("\n(2,3)\n", "\n(-3,-2);(2,3)\n"))


def test_nonzero_exit_is_a_failure():
    op = cli_windows.ball_op(6)
    bad = Op(op.name, lambda: (1, "", "error: 0\n"), op.check)
    assert op.check(bad.run()) is not None


# ---------------------------------------------------------------------------
# logic-battery
# ---------------------------------------------------------------------------

def test_flipped_sentence_verdict_is_rejected():
    import random
    p = logic_battery.build_presentation(logic_battery.draw_tables(random.Random(5), 2, 2))
    ops = logic_battery.draw_ops("t", p, logic_battery._brute_verdicts(p))
    ops[0].run()                         # normalise first, as a round does
    for op in ops[1:3]:
        assert_counted_failed(op, lambda got: not got)


def test_flipped_builtin_verdict_is_rejected():
    for row in logic_battery.BUILTIN_VERDICTS[:2]:
        op = logic_battery.builtin_op(*row)
        assert_counted_failed(op, lambda got: not got)


def test_wrong_normal_form_is_rejected():
    import random
    rng = random.Random(5)
    p = logic_battery.build_presentation(logic_battery.draw_tables(rng, 2, 2))
    other = logic_battery.build_presentation(logic_battery.draw_tables(rng, 2, 2))
    op = logic_battery.draw_ops("t", p, lambda: [None] * 12)[0]
    assert_counted_failed(op, lambda _normal: other)


def _tables(dom_accepting, dom_delta, adj_accepting, adj_delta):
    return {"domain": {"states": len(dom_delta), "accepting": dom_accepting,
                       "delta": dom_delta},
            "adjacency": {"states": len(adj_delta), "accepting": adj_accepting,
                          "letters": ["".join(t) for t in logic_battery.CONV2],
                          "delta": adj_delta}}


def test_innermost_plain_quantifier_ranges_over_long_codes():
    # the code 0000 has its shortest neighbour at length 5
    p = logic_battery.build_presentation(_tables(
        [0, 1], [[2, 2], [1, 0], [1, 1]],
        [1], [[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 1]]))
    sentence = "(forall u (exists v (adj u v)))"
    assert _brute_auto.BruteModel(p).sentence(sentence) is False
    assert brute_logic.Model(p).verdict(sentence) is None      # no short counterexample
    assert brute_logic.Model(p).verdict("(exists u (exists v (adj u v)))") is True


def test_odd_vertex_beyond_the_outer_codes_leaves_the_verdict_open():
    # 011 and 01111 have odd degree; only the first is an outer code
    p = logic_battery.build_presentation(_tables(
        [0], [[0, 1], [0, 0]],
        [1], [[0, 0, 0, 1, 0, 0, 0, 0], [1, 0, 0, 1, 0, 1, 0, 0]]))
    one_way = logic_battery.EULER_SENTENCES[0]
    assert _brute_auto.BruteModel(p).sentence(one_way) is True
    model = brute_logic.Model(p)
    assert model.verdict(one_way) is None
    assert model.verdict("(exists u (exists-odd v (adj u v)))") is True
    ops = logic_battery.draw_ops("t", p, logic_battery._brute_verdicts(p))
    ops[0].run()
    op = ops[1 + logic_battery.SENTENCES.index(one_way)]
    assert op.check(op.run()) is None and op.check(not op.run()) is None


def test_finite_domain_gets_exact_verdicts():
    # domain {0, 1}, every pair adjacent, loops too: both degrees are 2
    p = logic_battery.build_presentation(_tables(
        [1], [[1, 1], [2, 2], [2, 2]], [0], [[0] * 8]))
    model = brute_logic.Model(p)
    assert model.verdict("(forall u (exists-even v (adj u v)))") is True
    assert model.verdict("(exists u (exists-odd v (adj u v)))") is False
    assert model.verdict("(exists-unique u (exists-odd v (adj u v)))") is False
    assert model.verdict("(forall u (forall v (implies (adj u v) (adj v u))))") is True


# ---------------------------------------------------------------------------
# runner and tracer
# ---------------------------------------------------------------------------

def test_raising_operation_and_raising_check_are_reported():
    def boom():
        raise ValueError("boom")

    def bad_check(_out):
        raise KeyError("check")

    ops = [Op("raises", boom, lambda out: None), Op("bad check", lambda: 1, bad_check),
           Op("fine", lambda: 1, lambda out: None)]
    _lat, outs, _t = run_rounds(ops, 0.0, warmup=1)
    assert isinstance(outs[0][0], Raised)
    raised, rejected = check_outputs(ops, outs)
    assert len(raised) == 2 and len(rejected) == 2      # two rounds each


def _run_main(monkeypatch, capsys, ops):
    """run.main on a workload whose build returns `ops`; (exit code, result)."""
    import types
    import run
    fake = types.ModuleType("bench_fake_workload")
    fake.build = lambda seed: list(ops)
    monkeypatch.setitem(sys.modules, "bench_fake_workload", fake)
    monkeypatch.setitem(run.WORKLOADS, "fake", "bench_fake_workload")
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "graphends"}
    try:
        rc = run.main(["--workload", "fake", "--seed", "1", "--seconds", "0.01"])
    finally:
        sys.modules.update(saved)     # setup re-imports graphends; keep the old modules
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_runner_reports_a_rejected_output_as_incorrect(monkeypatch, capsys):
    ops = [Op("right %d" % i, lambda: 1, lambda out: None) for i in range(11)]
    rc, result = _run_main(monkeypatch, capsys, ops)
    assert rc == 0 and result["correct"] is True and result["failed"] == 0
    wrong = Op("wrong", lambda: 2, lambda out: None if out == 1 else "expected 1")
    rc, result = _run_main(monkeypatch, capsys, ops + [wrong])
    assert rc == 1 and result["correct"] is False
    assert result["failed"] * 12 == result["attempted"]


def test_runner_counts_a_raising_operation_as_failed(monkeypatch, capsys):
    def boom():
        raise ValueError("boom")

    ops = [Op("right %d" % i, lambda: 1, lambda out: None) for i in range(11)]
    rc, result = _run_main(monkeypatch, capsys, ops + [Op("raises", boom, lambda out: None)])
    assert rc == 1 and result["correct"] is True
    assert result["failed"] * 12 == result["attempted"]


def test_tracer_restores_every_binding():
    import graphends.cli
    import graphends.graph_core as gc
    import graphends.paths
    before = (gc.GraphOracle.neighbors, graphends.paths.boundary_partition,
              graphends.cli.decide_comp)
    tr = Tracer()
    tr.install()
    assert graphends.paths.boundary_partition is not before[1]
    assert graphends.cli.decide_comp is not before[2]
    tr.uninstall()
    assert (gc.GraphOracle.neighbors, graphends.paths.boundary_partition,
            graphends.cli.decide_comp) == before


def test_tracer_counts_calls_through_by_name_imports():
    op = cli_windows.ball_op(6)
    tr = Tracer()
    tr.install()
    try:
        _lat, outs, _t = run_rounds([op], 0.0, tracer=tr)
    finally:
        tr.uninstall()
    assert check_outputs([op], outs) == ([], [])
    summary = tr.summary()
    assert summary["cli.main"][0] == 1
    assert summary["graph_core.ball"][0] == 1
    assert tr.counts["graph_core.ball.vertices"] == cli_windows.checks.lambda_ball_size(6)
    assert summary["automatic.Dfa.product"][0] == 0
    assert summary["graph_core.neighbors"][0] > 0
