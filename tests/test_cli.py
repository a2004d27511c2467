"""Front-door commands: exit discipline, reports, documented examples."""

import pytest

from graphends.cli import (OutOfFuel, _auto_witness, fmt_edges, main, parse_edges,
                           parse_vertex_list)
from graphends.gadgets import GADGET_KINDS
from graphends.graph_core import Fuel, edge, edge_set
from graphends.automatic import grid_presentation, serialize_presentation

from _fixtures import RayWithTail


@pytest.fixture
def cli(capsys):
    def run(*argv, code=0):
        got = main(list(argv))
        out, err = capsys.readouterr()
        assert got == code, (got, out, err)
        return out, err
    return run


def last_line(out):
    return [ln for ln in out.splitlines() if ln.strip()][-1]


COMMANDS = ("ball", "comp-approx", "decide-comp", "boundary", "sep-semidecide",
            "minimal-sep", "ends-from-sepmax", "sepmax-witness", "path-extend",
            "greedy-path", "euler-check", "gadget-list", "automatic-eval",
            "automatic-euler", "dot-export")


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_edge_literal_round_trip():
    es = edge_set([edge(0, 1), edge(-6, -5), edge(9, 9, 1)])
    assert parse_edges(fmt_edges(es)) == es
    assert parse_edges("") == frozenset()
    assert parse_edges(" (2,3) ; (4,5,2) ") == edge_set([(2, 3), (4, 5, 2)])


def test_vertex_list_literal():
    assert parse_vertex_list("0,1,-2") == (0, 1, -2)
    assert parse_vertex_list("") == ()


# ---------------------------------------------------------------------------
# documented examples
# ---------------------------------------------------------------------------

def test_decide_comp_documented_example(cli):
    out, _ = cli("decide-comp", "--graph", "lines-with-sticks:halt@3",
                 "--edges", "(0,1)", "--ends", "2", "--witness", "(5,6)")
    assert last_line(out) == "1"


def test_euler_check_documented_example(cli):
    out, _ = cli("euler-check", "--graph", "delta2:changes@2,5,9",
                 "--mode", "two-way", "--ends", "2", "--witness", "auto",
                 "--parity-radius", "12", "--loc-radius", "12")
    assert last_line(out).startswith("Holds")


def test_automatic_eval_documented_example(cli, tmp_path):
    f = tmp_path / "grid.ap"
    f.write_text(serialize_presentation(grid_presentation()), encoding="utf-8")
    out, _ = cli("automatic-eval", "--presentation", str(f),
                 "--formula", "(forall u (exists-even v (adj u v)))")
    assert last_line(out) == "true"


# ---------------------------------------------------------------------------
# exit discipline
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(cli):
    _, err = cli("decide-comp", "--graph", "int-line", "--edges", "junk",
                 "--ends", "2", "--witness", "(0,1)", code=1)
    assert "bad edge literal" in err
    _, err = cli("decide-comp", "--graph", "nosuch:halt@1", "--edges", "(0,1)",
                 "--ends", "1", code=1)
    assert "unknown gadget kind" in err
    _, err = cli("euler-check", "--graph", "nat-line", "--mode", "one-way",
                 "--ends", "1", "--loc-radius", "3", code=1)
    assert "--loc-radius" in err
    _, err = cli(code=1)
    assert "no command" in err


def test_unknown_command_is_pinned(cli):
    out, err = cli("nosuch", "--graph", "int-line", code=1)
    assert out == ""
    assert err == ("usage error: argument command: invalid choice: 'nosuch' "
                   "(choose from %s)\n" % ", ".join(repr(c) for c in COMMANDS))


@pytest.mark.parametrize("argv, message", [
    (("decide-comp", "--graph", "int-line"),
     "the following arguments are required: --edges, --ends"),
    (("decide-comp", "--graph", "int-line", "--edges", "junk",
      "--ends", "2", "--witness", "(0,1)"),
     "bad edge literal 'junk' (near 'junk')"),
    ((), "no command given (try gadget-list, --help)"),
], ids=["missing-flags", "bad-literal", "no-command"])
def test_usage_errors_are_pinned(cli, argv, message):
    out, err = cli(*argv, code=1)
    assert out == ""
    assert err == "usage error: %s\n" % message


@pytest.mark.parametrize("argv", [()] + [(c,) for c in COMMANDS],
                         ids=["top"] + list(COMMANDS))
def test_help_exits_0_and_names_the_command(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: %s " % " ".join(("graphends",) + argv))
    assert err == ""


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr()[0]
    listed = [ln.split()[0] for ln in out.splitlines()
              if ln.startswith("    ") and not ln.startswith("     ")]
    assert tuple(listed) == COMMANDS


def test_unknown_exits_2_and_never_claims_no(cli):
    # (0,1) separates the two-way line; the one-sided check can only say
    # Unknown, and the report must not spell a definite No
    out, _ = cli("sep-semidecide", "--graph", "int-line", "--edges", "(0,1)",
                 "--fuel-radius", "6", code=2)
    assert "Unknown" in last_line(out)


def test_not_separating_is_definite(cli):
    out, _ = cli("sep-semidecide", "--graph", "nat-line", "--edges", "(3,4)",
                 "--fuel-radius", "10")
    assert last_line(out).startswith("NotSeparating")


# ---------------------------------------------------------------------------
# reports are reproducible from their own header
# ---------------------------------------------------------------------------

def test_auto_witness_is_resolved_and_reusable(cli):
    out, _ = cli("greedy-path", "--graph", "int-line", "--length", "6",
                 "--ends", "2", "--witness", "auto")
    resolved = [ln for ln in out.splitlines()
                if ln.startswith("#   resolved-witness = ")]
    assert len(resolved) == 1
    literal = resolved[0].split("= ", 1)[1]
    assert parse_edges(literal) == edge_set([(-1, 0), (0, 1)])
    again, _ = cli("greedy-path", "--graph", "int-line", "--length", "6",
                   "--ends", "2", "--witness", literal)
    assert last_line(again) == last_line(out)


def test_the_auto_witness_is_checked_only_to_the_radius_budget():
    # one end, wrongly claimed as two: a tail within the default budget of
    # 64 is seen to end, one past it passes for a second ray
    with pytest.raises(OutOfFuel):
        _auto_witness(RayWithTail(10), 2, Fuel())
    assert _auto_witness(RayWithTail(100), 2, Fuel()) == edge_set([(-1, 0), (0, 1)])


@pytest.mark.parametrize("name", ["nat-line", "grid"])
@pytest.mark.parametrize("command,rest", [
    ("automatic-eval", ("--formula", "(exists u (in-l u))")),
    ("automatic-euler", ("--which", "one-way")),
])
def test_a_builtin_presentation_header_replays(capsys, name, command, rest):
    code = main([command, "--presentation", name, *rest])
    out = capsys.readouterr().out
    header = [ln for ln in out.splitlines() if ln.startswith("#   presentation = ")]
    assert len(header) == 1
    again = main([command, "--presentation", header[0].split(" = ", 1)[1], *rest])
    assert (again, capsys.readouterr().out) == (code, out)


def test_header_lists_the_inputs(cli):
    out, _ = cli("decide-comp", "--graph", "int-line", "--edges", "(2,3)",
                 "--ends", "2", "--witness", "(-1,0);(0,1)")
    assert "#   graph = int-line" in out
    assert "#   edges = (2,3)" in out
    assert "#   ends = 2" in out
    assert "#   witness = (-1,0);(0,1)" in out
    assert last_line(out) == "2"


def test_vertex_flags_default_to_the_basepoint(cli):
    # binary-tree starts at 1 and lambda at 12; neither contains vertex 0
    out, _ = cli("greedy-path", "--graph", "binary-tree", "--length", "5",
                 "--ends", "1")
    assert "#   start = 1" in out
    assert last_line(out) == "length 5: 1,2,4,8,16,32"
    out, _ = cli("ball", "--graph", "binary-tree", "--radius", "3")
    assert "#   center = 1" in out
    assert "vertices: 15   edges: 14" in out
    again, _ = cli("ball", "--graph", "binary-tree", "--radius", "3",
                   "--center", "1")
    assert again == out
    out, err = cli("dot-export", "--graph", "lambda", "--radius", "2")
    assert "#   center = 12" in err
    assert '"12" [shape=doublecircle' in out
    # where the basepoint is 0 the default reads as before
    out, _ = cli("ball", "--graph", "int-line", "--radius", "3")
    assert "#   center = 0" in out
    assert out == cli("ball", "--graph", "int-line", "--radius", "3",
                      "--center", "0")[0]


def test_invalid_vertex_is_named(cli):
    _, err = cli("ball", "--graph", "binary-tree", "--radius", "3",
                 "--center", "0", code=1)
    assert err == "error: vertex 0 is not in the graph\n"
    _, err = cli("greedy-path", "--graph", "lambda", "--length", "3",
                 "--ends", "1", "--start", "0", code=1)
    assert "error: vertex 0 is not in the graph" in err


# ---------------------------------------------------------------------------
# one pass over the remaining commands
# ---------------------------------------------------------------------------

def test_ball_reports_counts(cli):
    out, _ = cli("ball", "--graph", "int-line", "--radius", "3")
    assert "vertices: 7   edges: 6" in out


def test_comp_approx_prints_the_stage_value(cli):
    out, _ = cli("comp-approx", "--graph", "int-line", "--edges", "(0,1)",
                 "--n", "5")
    assert last_line(out) == "2"


def test_comp_approx_prints_zero_at_a_negative_stage(cli):
    out, _ = cli("comp-approx", "--graph", "int-line", "--edges", "(0,1)",
                 "--n", "-1")
    assert last_line(out) == "0"


def test_boundary_groups_endpoints(cli):
    out, _ = cli("boundary", "--graph", "int-line",
                 "--edges", "(-1,0);(2,3)", "--ends", "2",
                 "--witness", "(-6,-5);(5,6)")
    assert "infinite component 1: -1" in out
    assert "infinite component 2: 3" in out
    assert "finite: 0 2" in out


def test_minimal_sep_lists_singletons_on_the_line(cli):
    out, _ = cli("minimal-sep", "--graph", "int-line", "--shell-radius", "1",
                 "--ends", "2", "--witness", "auto")
    assert "minimal separating subsets: 2" in out
    assert "(-1,0)" in out.splitlines()
    assert "(0,1)" in out.splitlines()


def test_minimal_sep_without_a_window_is_unknown(cli):
    out, _ = cli("minimal-sep", "--graph", "int-line", "--shell-radius", "5",
                 "--ends", "2", "--witness", "(0,1)", "--fuel-radius", "3",
                 code=2)
    assert last_line(out) == "Unknown (no decision window within radius 3)"


def test_ends_from_sepmax_recovers_three(cli):
    out, _ = cli("ends-from-sepmax", "--graph", "rays2:events@2",
                 "--ends", "3", "--witness", "auto", "--fuel-radius", "12")
    assert last_line(out) == "3"


def test_ends_from_sepmax_splits_one_window(cli, monkeypatch):
    # every edge set it probes has the witness's cover radius, so one
    # window serves them all: ball(r0) and ball(r0 + 1), each split once
    import graphends.separation as sep
    splits, real = [], sep._stable_partition
    monkeypatch.setattr(sep, "_stable_partition", lambda *a: splits.append(a) or real(*a))
    out, _ = cli("ends-from-sepmax", "--graph", "rays2:events@2", "--ends", "3",
                 "--witness", "(3,5),(8,10),(-10,-8)", "--fuel-radius", "12")
    assert last_line(out) == "3"
    assert len(splits) == 2


def test_sepmax_witness_on_the_line(cli):
    out, _ = cli("sepmax-witness", "--graph", "int-line", "--ends", "2")
    assert last_line(out) == "(-1,0);(0,1)"


def test_path_extend_verdicts(cli):
    out, _ = cli("path-extend", "--graph", "nat-line", "--path", "2,1,0",
                 "--ends", "1")
    assert last_line(out) == "No"
    out, _ = cli("path-extend", "--graph", "nat-line", "--path", "0,1,2",
                 "--ends", "1")
    assert last_line(out) == "Yes"
    # the outward escape search on the tree runs out of steps
    out, _ = cli("path-extend", "--graph", "binary-tree", "--path", "1",
                 "--ends", "1", "--fuel-steps", "1", code=2)
    assert last_line(out).startswith("Unknown (")


def test_euler_check_refutation_carries_a_witness(cli):
    # an even number of mind changes leaves doubled tail pairs that cut
    out, _ = cli("euler-check", "--graph", "delta2:changes@2,5",
                 "--mode", "two-way", "--ends", "2", "--witness", "auto",
                 "--parity-radius", "8", "--loc-radius", "8")
    assert last_line(out).startswith("Fails: no-even-inducing-separating-set")
    assert "witness:" in last_line(out)


def test_gadget_list_covers_the_registry(cli):
    out, _ = cli("gadget-list")
    for kind in GADGET_KINDS:
        assert kind in out


def test_automatic_builtins_by_name(cli):
    out, _ = cli("automatic-euler", "--presentation", "nat-line",
                 "--which", "one-way")
    assert last_line(out) == "true"
    out, _ = cli("automatic-euler", "--presentation", "grid",
                 "--which", "one-way")
    assert last_line(out) == "false"


def test_open_formula_lists_satisfying_assignments(cli):
    out, _ = cli("automatic-eval", "--presentation", "nat-line",
                 "--formula", "(exists-odd v (adj u v))", "--max-len", "4")
    assert "#   free-variables = u" in out
    assert last_line(out) == "u=eps"


def test_dot_export_stdout_is_pure_dot(cli, tmp_path):
    out, err = cli("dot-export", "--graph", "int-line", "--radius", "2",
                   "--edges", "(0,1)")
    assert out.startswith("graph ")
    assert "style=dashed" in out
    assert "# dot-export" in err
    f = tmp_path / "ball.dot"
    out, _ = cli("dot-export", "--graph", "int-line", "--radius", "2",
                 "--out", str(f))
    assert "wrote" in last_line(out)
    assert f.read_text(encoding="utf-8").startswith("graph ")


def test_missing_presentation_file_exits_1(cli, tmp_path):
    _, err = cli("automatic-eval", "--presentation",
                 str(tmp_path / "absent.ap"),
                 "--formula", "(exists u (in-l u))", code=1)
    assert "error:" in err
