"""Automatic presentations: automaton algebra, counting quantifiers, eval."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphends import automatic
from graphends.automatic import (
    PAD, CountClass, CountSemiring, Dfa, FormulaSyntaxError, Presentation,
    PresentationFormatError, RelationAutomaton,
    boolean_op, conv_alphabet, convolve, counting_project, cylindrify,
    decide_eulerian_automatic, domain_as_relation, domain_words,
    eval_formula, eval_sentence, formula_to_text, free_variables,
    grid_presentation, llex_less, nat_line_presentation,
    normalize_presentation, pad_dfa, parse_formula, parse_presentation,
    permute_tracks, project_exists, relation, relation_not,
    serialize_presentation, validate_presentation, word_equality,
)
from graphends.graph_core import ArityMismatch, GraphError, UnboundVariable

from _brute_auto import BruteModel, convolution, enumerate_domain, run_dfa

SIGMA = ("0", "1")


def unary_words(n):
    return ("1",) * n


def draw_presentation(rng):
    """Identity-equality presentation with a random domain and a random
    symmetrized adjacency, both over {0,1} with at most 3 states.

    Adjacency tables with 4+ states occasionally produce counting
    projections whose minimal result automaton is genuinely exponential
    (the per-state path-count parities evolve like a random linear map,
    so almost all prefixes stay distinguishable).
    """
    while True:
        n = rng.randint(1, 3)
        table = {(q, a): rng.randrange(n) for q in range(n) for a in SIGMA}
        accepting = {q for q in range(n) if rng.random() < 0.6}
        dom = Dfa(SIGMA, range(n), 0, accepting, table)
        if len(enumerate_domain(dom, 5)) >= 3:
            break
    conv2 = sorted(conv_alphabet(SIGMA, 2))
    m = rng.randint(1, 3)
    table2 = {(q, t): rng.randrange(m) for q in range(m) for t in conv2}
    acc2 = {q for q in range(m) if rng.random() < 0.5}
    half = relation(SIGMA, 2, Dfa(conv2, range(m), 0, acc2, table2))
    sym = boolean_op(half, permute_tracks(half, (1, 0)), "or")
    dom1 = relation(SIGMA, 1, dom.map_symbols(lambda a: (a,), conv_alphabet(SIGMA, 1)))
    both = boolean_op(cylindrify(dom1, 1), cylindrify(dom1, 0), "and")
    return Presentation(
        frozenset(SIGMA), dom,
        boolean_op(sym, both, "and"),
        boolean_op(word_equality(SIGMA), both, "and"))


def random_presentation(rng):
    """`draw_presentation`, redrawn while a probe sentence raises.

    The probe guards against counting projections that pass their state
    bound; under an earlier construction about one draw in 300 did (see
    `test_unprobed_draw_278_evaluates_and_counts_exactly`).  It stays, but
    it redraws nothing on the seeds this suite uses (7, 99, 424242 and
    20260823), and it redrew nothing there before either, so the draws are
    unchanged.
    """
    while True:
        p = draw_presentation(rng)
        try:
            eval_sentence(p, "(forall u (exists-even v (adj u v)))")
        except GraphError:
            continue
        return p


# One closed formula per shape; every quantifier and connective appears.
# Counting quantifiers sit at the innermost level, where the bounded oracle's
# environment-relative infinity cut is trustworthy on arbitrary presentations;
# the outer-counting Eulerian shapes are compared on the builtins instead,
# whose sections are structurally short.
BATTERY = (
    "(exists u (in-l u))",
    "(forall u (exists v (adj u v)))",
    "(forall u (exists-even v (adj u v)))",
    "(exists u (exists-unique v (adj u v)))",
    "(exists-inf u (in-l u))",
    "(exists u (exists-inf v (eq u v)))",
    "(forall u (forall v (implies (adj u v) (adj v u))))",
    "(exists-even v (and (in-l v) (not (adj v v))))",
    "(exists u (or (adj u u) (not (exists v (adj u v)))))",
    "(exists u (exists-odd v (adj u v)))",
)

EULER_SENTENCES = (
    "(exists-unique u (exists-odd v (adj u v)))",
    "(forall u (exists-even v (adj u v)))",
)


# ---------------------------------------------------------------------------
# automata
# ---------------------------------------------------------------------------

def test_make_totalizes_with_a_sink():
    d = Dfa.make(SIGMA, "s", {"s"}, {("s", "1"): "s"})
    assert d.accepts(("1", "1"))
    assert not d.accepts(("1", "0"))
    assert not d.accepts(("1", "0", "1"))    # stuck in the sink for good


def two_state_table():
    """A total table over states {"a", "b"} and SIGMA."""
    return {("a", "0"): "a", ("a", "1"): "b", ("b", "0"): "b", ("b", "1"): "a"}


@pytest.mark.parametrize("stand_in", [
    None,
    (("ghost", "1"), "a"),          # an entry for a non-state
    (("b", "2"), "a"),              # an entry for a symbol outside the alphabet
    ("b1", "a"),                    # a key that unpacks like ("b", "1")
], ids=["absent", "non-state", "foreign-symbol", "string-key"])
def test_constructor_rejects_a_partial_table(stand_in):
    table = two_state_table()
    del table[("b", "1")]
    if stand_in is not None:        # keeps the entry count at |states| * |alphabet|
        table[stand_in[0]] = stand_in[1]
    with pytest.raises(GraphError, match=r"^transition table not total at 'b'/'1'$"):
        Dfa(SIGMA, {"a", "b"}, "a", {"a"}, table)


def test_constructor_rejects_an_unknown_target():
    table = two_state_table()
    table[("b", "1")] = "c"
    with pytest.raises(GraphError, match=r"^transition target 'c' unknown$"):
        Dfa(SIGMA, {"a", "b"}, "a", {"a"}, table)


def test_constructor_rejects_a_bad_start_or_accepting_set():
    table = two_state_table()
    with pytest.raises(GraphError, match=r"^start state missing from state set$"):
        Dfa(SIGMA, {"a", "b"}, "c", {"a"}, table)
    with pytest.raises(GraphError, match=r"^accepting states outside state set$"):
        Dfa(SIGMA, {"a", "b"}, "a", {"a", "c"}, table)
    # the start is checked before the accepting set, both before the table
    with pytest.raises(GraphError, match=r"^start state missing"):
        Dfa(SIGMA, {"a", "b"}, "c", {"c"}, {})
    with pytest.raises(GraphError, match=r"^accepting states outside"):
        Dfa(SIGMA, {"a", "b"}, "a", {"c"}, {})


def test_constructor_tolerates_entries_for_non_states():
    table = two_state_table()
    extra = {("ghost", "0"): "ghost", ("ghost", "1"): "a", ("a", "2"): "nowhere"}
    d = Dfa(SIGMA, {"a", "b"}, "a", {"a"}, {**table, **extra})
    assert d.transitions == {**table, **extra}
    assert d.states == {"a", "b"}
    assert d.accepts(("1", "1")) and not d.accepts(("1",))
    assert domain_words(d, 2) == [(), ("0",), ("0", "0"), ("1", "1")]


def test_constructor_reads_a_none_target_as_missing():
    table = {("a", "0"): "a", ("a", "1"): None, (None, "0"): "a", (None, "1"): "a"}
    with pytest.raises(GraphError, match=r"^transition table not total at 'a'/'1'$"):
        Dfa(SIGMA, {"a", None}, "a", {"a"}, table)


# state names of mixed types, so that repr order and BFS order disagree
STATE_NAMES = (
    lambda i: i,
    lambda i: "s%d" % i,
    lambda i: (i % 3, "t%d" % i),
    lambda i: frozenset({i, -i - 1}),
)


def mixed_names(rng, n):
    names = [STATE_NAMES[rng.randrange(4)](i) for i in range(n)]
    rng.shuffle(names)
    return names


def in_repr_order(states):
    """A fixed order for drawing from a set: iterating a set of strings
    follows the per-process string hash."""
    return sorted(states, key=repr)


def random_total_dfa(rng, syms=None):
    """1-8 states of mixed name types over `syms`, by default 0-3 symbols
    (0: the nullary alphabet), with a random start, so some states are
    often unreachable."""
    n = rng.randint(1, 8)
    if syms is None:
        syms = ("a", "b", "c")[:rng.choice((0, 1, 1, 2, 2, 3, 3, 3))]
    names = mixed_names(rng, n)
    table = {(q, s): rng.choice(names) for q in names for s in syms}
    accepting = {q for q in names if rng.random() < 0.5}
    return Dfa(syms, names, rng.choice(names), accepting, table)


def renamed(rng, d):
    old = in_repr_order(d.states)
    new = dict(zip(old, mixed_names(rng, len(old))))
    return Dfa(d.alphabet, new.values(), new[d.start], {new[q] for q in d.accepting},
               {(new[q], a): new[t] for (q, a), t in d.transitions.items()})


def with_unreachable_copies(rng, d):
    """Copies of every state that no original state leads to, with random
    acceptance and random targets anywhere."""
    old = in_repr_order(d.states)
    copies = [("copy", q) for q in old]
    table = dict(d.transitions)
    table.update({(c, a): rng.choice(old + copies) for c in copies for a in sorted(d.alphabet)})
    accepting = d.accepting | {c for c in copies if rng.random() < 0.5}
    return Dfa(d.alphabet, old + copies, d.start, accepting, table)


def with_split_state(rng, d):
    """State q duplicated as ("split", q): same acceptance, same moves, and a
    random share of the moves into q redirected to the duplicate."""
    q = rng.choice(in_repr_order(d.states))
    twin = ("split", q)
    table = dict(d.transitions)
    table.update({(twin, a): d.transitions[(q, a)] for a in sorted(d.alphabet)})
    for key, t in list(table.items()):
        if t == q and rng.random() < 0.5:
            table[key] = twin
    start = twin if d.start == q and rng.random() < 0.5 else d.start
    accepting = d.accepting | ({twin} if q in d.accepting else set())
    return Dfa(d.alphabet, d.states | {twin}, start, accepting, table)


def started_at(d, q):
    return Dfa(d.alphabet, d.states, q, d.accepting, d.transitions)


def table_of(d):
    return (d.states, d.start, d.accepting, d.transitions)


@pytest.mark.parametrize("seed", range(4))
def test_minimized_against_brute_languages(seed):
    rng = random.Random(seed)
    words = {}

    def up_to(syms, max_len):
        if (syms, max_len) not in words:
            words[(syms, max_len)] = [w for n in range(max_len + 1)
                                      for w in itertools.product(syms, repeat=n)]
        return words[(syms, max_len)]

    for _ in range(100):
        d = random_total_dfa(rng)
        syms = tuple(sorted(d.alphabet))
        n = len(d.states)
        m = d.minimized()
        k = len(m.states)
        assert m.alphabet == d.alphabet and m.start == 0 and m.states == set(range(k))
        # the same language on every word of length <= n + 1
        for w in up_to(syms, n + 1):
            assert run_dfa(m, w) == run_dfa(d, w), w
        # empty exactly when no word shorter than n, which reaches every
        # reachable state, is accepted
        assert d.is_empty() == (not any(run_dfa(d, w) for w in up_to(syms, n - 1)))
        # minimal: any two states are told apart by a suffix shorter than k
        suffixes = up_to(syms, k - 1)
        behaviours = {tuple(run_dfa(started_at(m, q), w) for w in suffixes) for q in m.states}
        assert len(behaviours) == k
        # canonical: the same table through renaming, unreachable copies and splits
        for variant in (renamed(rng, d), with_unreachable_copies(rng, d),
                        with_split_state(rng, with_split_state(rng, d))):
            assert table_of(variant.minimized()) == table_of(m)
        # read as a unary relation, which skips the pad product: every
        # one-track word is well-padded
        unary = d.map_symbols(lambda a: (a,), conv_alphabet(d.alphabet, 1))
        assert (table_of(relation(d.alphabet, 1, unary).dfa)
                == table_of(unary.intersect(pad_dfa(d.alphabet, 1)).minimized()))


def test_minimized_is_canonical():
    a = Dfa.make(SIGMA, "s", {"s"}, {("s", "1"): "s"})
    # same language via three redundant states
    b = Dfa.make(SIGMA, "x", {"x", "y", "z"},
                 {("x", "1"): "y", ("y", "1"): "z", ("z", "1"): "z"})
    ma, mb = a.minimized(), b.minimized()
    assert ma.transitions == mb.transitions
    assert ma.accepting == mb.accepting
    assert ma.start == mb.start == 0
    assert a.equivalent(b)


def test_product_complement_shortest():
    even_ones = Dfa.make(SIGMA, 0, {0},
                         {(0, "1"): 1, (1, "1"): 0, (0, "0"): 0, (1, "0"): 1})
    conflict = even_ones.intersect(even_ones.complement())
    assert conflict.is_empty()
    assert even_ones.union(even_ones.complement()).complement().is_empty()
    has_01 = Dfa.make(SIGMA, "a", {"c"},
                      {("a", "0"): "b", ("a", "1"): "a",
                       ("b", "0"): "b", ("b", "1"): "c",
                       ("c", "0"): "c", ("c", "1"): "c"})
    assert has_01.shortest_accepted() == ("0", "1")


# The library explores every automaton it builds into integer states in
# breadth-first order.  These are the searches it replaced, kept as
# references: the product over state pairs, the subset construction over
# frozensets, and existential projection's fixed-point closure.

def _reference_product(a, b, keep):
    syms = sorted(a.alphabet)
    start = (a.start, b.start)
    table = {}
    seen = {start}
    queue = [start]
    for p, q in queue:
        for x in syms:
            t = (a.transitions[(p, x)], b.transitions[(q, x)])
            table[((p, q), x)] = t
            if t not in seen:
                seen.add(t)
                queue.append(t)
    accepting = {s for s in seen if keep(s[0] in a.accepting, s[1] in b.accepting)}
    return Dfa(a.alphabet, seen, start, accepting, table)


def _reference_determinize(alphabet, start_set, move, accept_pred):
    syms = sorted(alphabet)
    start = frozenset(start_set)
    table = {}
    seen = {start}
    queue = [start]
    for s in queue:
        for x in syms:
            t = move(s, x)
            table[(s, x)] = t
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return Dfa(alphabet, seen, start, {s for s in seen if accept_pred(s)}, table)


def _reference_project_exists(a, track):
    """The base automaton of project_exists(a, track), or its truth value
    when nothing is left."""
    A = a.dfa
    kept = lambda t: t[:track] + t[track + 1:]
    suffix_syms = [t for t in A.alphabet if all(c == PAD for c in kept(t))]
    closure = set(A.accepting)
    changed = True
    while changed:
        changed = False
        for q in A.states:
            if q not in closure and any(A.transitions[(q, t)] in closure
                                        for t in suffix_syms):
                closure.add(q)
                changed = True
    if a.arity == 1:
        return A.start in closure
    moves = {}
    for (q, t), r in A.transitions.items():
        if t not in suffix_syms:
            moves.setdefault((q, kept(t)), set()).add(r)
    move = lambda s, x: frozenset(r for q in s for r in moves.get((q, x), ()))
    return _reference_determinize(conv_alphabet(a.sigma, a.arity - 1), {A.start},
                                  move, lambda s: bool(s & closure))


def assert_same_automaton(got, want):
    """Equal state counts, the same verdict on every word of up to six
    letters, and identical minimal tables (so the same language)."""
    assert len(got.states) == len(want.states)
    for n in range(7):
        for w in itertools.product(sorted(want.alphabet), repeat=n):
            assert run_dfa(got, w) == run_dfa(want, w), w
    assert table_of(got.minimized()) == table_of(want.minimized())


@pytest.mark.parametrize("seed", range(2))
def test_products_and_subsets_against_the_references(seed):
    rng = random.Random(seed)
    for _ in range(20):
        a = random_total_dfa(rng, ("a", "b"))
        b = random_total_dfa(rng, ("a", "b"))
        for keep in (lambda x, y: x and y, lambda x, y: x != y):
            got = a.product(b, keep)
            assert got.states == set(range(len(got.states))) and got.start == 0
            assert_same_automaton(got, _reference_product(a, b, keep))
        # a random nondeterministic table over a's states
        names = in_repr_order(a.states)
        moves = {(q, x): rng.sample(names, min(rng.randint(0, 2), len(names)))
                 for q in names for x in "ab"}
        move = lambda s, x: frozenset(r for q in s for r in moves[(q, x)])
        accept = lambda s: bool(s & a.accepting)
        start = frozenset({a.start})
        assert_same_automaton(automatic._explored(a.alphabet, start, move, accept),
                              _reference_determinize(a.alphabet, start, move, accept))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_project_exists_against_the_fixed_point_closure(arity):
    rng = random.Random(arity)
    alpha = sorted(conv_alphabet(SIGMA, arity))
    for _ in range(12):
        n = rng.randint(1, 4)
        table = {(q, t): rng.randrange(n) for q in range(n) for t in alpha}
        accepting = {q for q in range(n) if rng.random() < 0.4}
        rel = relation(SIGMA, arity, Dfa(alpha, range(n), 0, accepting, table))
        for track in range(arity):
            got, want = project_exists(rel, track), _reference_project_exists(rel, track)
            if arity == 1:
                assert_nullary(got, want)
            else:
                assert got.equivalent(relation(SIGMA, arity - 1, want))
            # projection skips relation()'s pad product and re-minimisation
            assert table_of(relation(SIGMA, arity - 1, got.dfa).dfa) == table_of(got.dfa)


def assert_nullary(rel, truth):
    """One state over the empty alphabet, accepting the empty tuple iff
    `truth`."""
    assert rel.arity == 0 and rel.dfa.alphabet == frozenset()
    assert rel.dfa.states == {0} and rel.dfa.start == 0
    assert rel.dfa.accepts(()) is truth


def test_nullary_relations_take_the_general_path():
    conv1 = conv_alphabet(SIGMA, 1)
    star = {(0, t): 0 for t in conv1}
    upto1 = {("e", t): "1" for t in conv1}
    only2 = {(q, t): r for q, r in (("e", "1"), ("1", "2")) for t in conv1}
    unary = {   # a unary relation, and how many words it holds (None: infinitely many)
        0: Dfa(conv1, {0}, 0, set(), star),
        1: Dfa.make(conv1, "e", {"e"}, {}),
        3: Dfa.make(conv1, "e", {"e", "1"}, upto1),
        4: Dfa.make(conv1, "e", {"2"}, only2),
        None: Dfa(conv1, {0}, 0, {0}, star),
    }
    nullary = {}
    for count, dfa in unary.items():
        rel = relation(SIGMA, 1, dfa)
        exists = project_exists(rel)
        assert_nullary(exists, _reference_project_exists(rel, 0))
        nullary[count != 0] = exists
        finite = count is not None
        want = {"even": finite and count % 2 == 0, "odd": finite and count % 2 == 1,
                "infinite": not finite, "exactly_one": count == 1}
        for mode, truth in want.items():
            assert_nullary(counting_project(rel, mode), truth)
    for x, a in nullary.items():
        assert_nullary(relation_not(a), not x)
        assert_nullary(permute_tracks(a, ()), x)
        for y, b in nullary.items():
            assert_nullary(boolean_op(a, b, "and"), x and y)
            assert_nullary(boolean_op(a, b, "or"), x or y)


def test_map_symbols_requires_injectivity():
    d = Dfa.make(SIGMA, 0, {0}, {(0, "0"): 0, (0, "1"): 0})
    with pytest.raises(GraphError):
        d.map_symbols(lambda a: "x", {"x"})


def test_convolution_and_padding():
    assert convolve((("1", "1"), ("1",))) == [("1", "1"), ("1", PAD)]
    assert convolve(((), ())) == []
    assert ("0", PAD) in conv_alphabet(SIGMA, 2)
    assert (PAD, PAD) not in conv_alphabet(SIGMA, 2)
    pad = pad_dfa(SIGMA, 2)
    assert pad.accepts([("0", "1"), ("0", PAD)])
    assert not pad.accepts([("0", PAD), ("0", "1")])   # a track resumed
    assert pad.accepts([(PAD, "1"), (PAD, "0")])
    assert pad.accepts([])


def test_brute_convolution_matches_library():
    for u, v in ((("1",), ()), ((), ("0", "1")), (("0",), ("1", "1", "0"))):
        assert list(convolution((u, v))) == convolve((u, v))


# ---------------------------------------------------------------------------
# counting semiring
# ---------------------------------------------------------------------------

def test_count_semiring_laws_exhaustively():
    sr = CountSemiring()
    els = sr.elements
    assert len(els) == 6
    for a in els:
        assert sr.add(a, sr.zero) == a
        assert sr.mul(a, sr.one) == a
        assert sr.mul(a, sr.zero) == sr.zero
        for b in els:
            assert sr.add(a, b) == sr.add(b, a)
            assert sr.mul(a, b) == sr.mul(b, a)
            for c in els:
                assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
                assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
                assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))


def test_count_semiring_saturation_and_absorption():
    sr = CountSemiring()
    inf = CountClass("inf")
    assert sr.classify(2) == CountClass("exact", 2)
    assert sr.classify(3) == CountClass("big_odd")
    assert sr.classify(10) == CountClass("big_even")
    assert sr.add(CountClass("exact", 2), CountClass("exact", 1)).kind == "big_odd"
    assert sr.add(inf, CountClass("big_even")) == inf
    assert sr.mul(inf, CountClass("exact", 2)) == inf
    assert sr.mul(inf, sr.zero) == sr.zero     # no completions means none at all
    assert sr.mul(CountClass("big_odd"), CountClass("big_odd")).kind == "big_odd"
    assert sr.mul(CountClass("big_odd"), CountClass("exact", 2)).kind == "big_even"
    assert len(CountSemiring(threshold=4).elements) == 8
    assert CountClass("exact", 0).is_even and not CountClass("inf").is_even


# ---------------------------------------------------------------------------
# stock relations and track operations
# ---------------------------------------------------------------------------

def llex_key(w):
    return (len(w), w)


def all_words(max_len):
    out = [()]
    for _ in range(max_len):
        out += [w + (c,) for w in out if len(w) == _ for c in SIGMA]
    return out


def test_word_equality_and_llex_on_short_words():
    eq = word_equality(SIGMA)
    lt = llex_less(SIGMA)
    words = all_words(3)
    for u in words:
        for v in words:
            assert eq.accepts((u, v)) == (u == v)
            assert lt.accepts((u, v)) == (llex_key(u) < llex_key(v))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(SIGMA), max_size=6),
       st.lists(st.sampled_from(SIGMA), max_size=6))
def test_llex_is_the_length_lex_order(u, v):
    u, v = tuple(u), tuple(v)
    assert llex_less(SIGMA).accepts((u, v)) == (llex_key(u) < llex_key(v))


def test_contradiction_is_empty():
    adj = nat_line_presentation().adjacency
    assert boolean_op(adj, relation_not(adj), "and").is_empty()
    assert not boolean_op(adj, relation_not(adj), "or").is_empty()


def test_projected_neighbor_set_is_the_whole_line():
    p = nat_line_presentation()
    has_neighbor = project_exists(p.adjacency)
    assert has_neighbor.equivalent(domain_as_relation(p))


def test_project_front_track():
    lt = llex_less(SIGMA)
    somebody_below = project_exists(lt, 0)     # words with a llex-smaller word
    assert not somebody_below.accepts(((),))   # the empty word is least
    for w in (("0",), ("1",), ("0", "0")):
        assert somebody_below.accepts((w,))


def test_cylindrify_then_project_is_identity():
    adj = nat_line_presentation().adjacency
    for pos in (0, 1, 2):
        assert project_exists(cylindrify(adj, pos), pos).equivalent(adj)


def test_permute_is_an_involution():
    adj = grid_presentation().adjacency
    assert permute_tracks(permute_tracks(adj, (1, 0)), (1, 0)).equivalent(adj)
    with pytest.raises(ArityMismatch):
        permute_tracks(adj, (0, 0))
    # permute_tracks only renumbers: the table is the one that renaming the
    # letters and minimising again gives
    rng = random.Random(99)
    for _ in range(3):
        p = random_presentation(rng)
        path = boolean_op(cylindrify(p.adjacency, 2), cylindrify(p.adjacency, 0), "and")
        for rel in (p.adjacency, path):
            for order in itertools.permutations(range(rel.arity)):
                letters = rel.dfa.map_symbols(lambda t: tuple(t[i] for i in order),
                                              rel.dfa.alphabet)
                assert (table_of(permute_tracks(rel, order).dfa)
                        == table_of(relation(rel.sigma, rel.arity, letters).dfa))


def test_arity_discipline():
    p = nat_line_presentation()
    with pytest.raises(ArityMismatch):
        boolean_op(p.adjacency, domain_as_relation(p), "and")
    with pytest.raises(ArityMismatch):
        relation(SIGMA, 1, p.adjacency.dfa)
    with pytest.raises(ArityMismatch):
        counting_project(relation_not(project_exists(domain_as_relation(
            nat_line_presentation()))), "even")
    with pytest.raises(GraphError):
        counting_project(p.adjacency, "most")


# ---------------------------------------------------------------------------
# counting projection
# ---------------------------------------------------------------------------

def guarded_adjacency(p):
    guard = cylindrify(domain_as_relation(p), 0)
    return boolean_op(p.adjacency, guard, "and")


def test_counting_on_the_half_line():
    p = nat_line_presentation()
    rel = guarded_adjacency(p)
    dom = domain_as_relation(p)
    one = ("1",)
    origin_only = relation(
        one, 1, Dfa.make(conv_alphabet(one, 1), "e", {"e"}, {}))

    odd = counting_project(rel, "odd")
    assert odd.equivalent(origin_only)         # only vertex 0 has odd degree
    even = counting_project(rel, "even")
    assert even.equivalent(boolean_op(dom, relation_not(origin_only), "and"))
    assert counting_project(rel, "infinite").is_empty()
    assert counting_project(rel, "exactly_one").equivalent(origin_only)
    # an ill-padded pair has no completions, a count that `even` accepts;
    # the result still holds well-padded pairs only
    pairs = counting_project(cylindrify(rel, 0), "even")
    assert pairs.dfa.product(pad_dfa(one, 2), lambda x, y: x and not y).is_empty()


def test_counting_infinite_sections():
    p = nat_line_presentation()
    dom = domain_as_relation(p)
    every_pair = boolean_op(cylindrify(dom, 1), cylindrify(dom, 0), "and")
    inf = counting_project(every_pair, "infinite")
    assert inf.equivalent(dom)                 # infinitely many partners each
    assert counting_project(every_pair, "even").is_empty()
    assert counting_project(every_pair, "exactly_one").is_empty()


def length_band(max_diff=2):
    """Pairs whose lengths differ by at most max_diff."""
    table = {}
    for t in conv_alphabet(SIGMA, 2):
        x, y = t
        if x != PAD and y != PAD:
            table[("run", t)] = "run"
        else:
            side = "u" if x == PAD else "v"
            for k in range(max_diff):
                src = "run" if k == 0 else "%s%d" % (side, k)
                table[(src, t)] = "%s%d" % (side, k + 1)
    accepting = {"run"} | {"%s%d" % (s, k)
                           for s in "uv" for k in range(1, max_diff + 1)}
    return relation(SIGMA, 2, Dfa.make(conv_alphabet(SIGMA, 2), "run", accepting, table))


def assert_band_counts(p, modes=("even", "odd", "exactly_one")):
    """On the length-banded adjacency of p, the counting projections agree
    with exhaustive degree counts for every domain word of length <= 4."""
    # intersecting with a length band makes every section provably finite
    # and fully visible to plain enumeration, so the counts can be checked
    # exactly
    rel = boolean_op(guarded_adjacency(p), length_band(2), "and")
    words = enumerate_domain(p.domain, 7)
    short = [u for u in words if len(u) <= 4]
    by_mode = {m: counting_project(rel, m) for m in modes}
    assert counting_project(rel, "infinite").is_empty()
    for u in short:
        degree = sum(
            1 for v in words
            if abs(len(u) - len(v)) <= 2
            and run_dfa(p.adjacency.dfa, convolution((u, v))))
        want = {"even": degree % 2 == 0, "odd": degree % 2 == 1,
                "exactly_one": degree == 1}
        for m in modes:
            assert by_mode[m].accepts((u,)) == want[m], (m, u)


def test_counting_against_exhaustive_counts_on_randoms():
    rng = random.Random(20260823)
    for _ in range(8):
        assert_band_counts(random_presentation(rng))


def test_unprobed_draw_278_evaluates_and_counts_exactly():
    # draw 278 of seed 1, taken without random_presentation's probe, has a
    # 104-state adjacency; every sentence must evaluate on it
    rng = random.Random(1)
    for _ in range(279):
        p = draw_presentation(rng)
    assert len(p.adjacency.dfa.states) == 104
    for sentence in BATTERY + EULER_SENTENCES:
        assert eval_sentence(p, sentence) in (True, False), sentence
    # even and odd are left out: on the banded relation their minimal
    # automaton has 135,147 states, and the residual closure passes its
    # bound before reaching it
    assert_band_counts(p, modes=("exactly_one",))


class ZeroLastSemiring(CountSemiring):
    """The count semiring with its elements listed backwards."""

    @property
    def elements(self):
        return tuple(reversed(super().elements))


def test_counting_ignores_the_order_of_semiring_elements(monkeypatch):
    assert ZeroLastSemiring().elements[-1] == CountSemiring().zero
    nat = nat_line_presentation()
    dom = domain_as_relation(nat)
    every_pair = boolean_op(cylindrify(dom, 1), cylindrify(dom, 0), "and")
    rels = [guarded_adjacency(nat), every_pair]
    rng = random.Random(20260823)
    for _ in range(8):
        p = random_presentation(rng)
        rels.append(boolean_op(guarded_adjacency(p), length_band(2), "and"))
    modes = ("even", "odd", "infinite", "exactly_one")
    want = [[counting_project(rel, mode) for mode in modes] for rel in rels]
    monkeypatch.setattr(automatic, "CountSemiring", ZeroLastSemiring)
    for rel, row in zip(rels, want):
        for mode, expected in zip(modes, row):
            assert counting_project(rel, mode).equivalent(expected), mode


def nth_letter_from_the_end(k):
    """Pairs (u, empty word) whose u has a 1 as its k-th letter from the
    end: few backward residuals, 2**k forward subsets."""
    windows = ["".join(w) for n in range(k + 1)
               for w in itertools.product(SIGMA, repeat=n)]
    table = {(w, (x, PAD)): (w + x)[-k:] for w in windows for x in SIGMA}
    accepting = {w for w in windows if len(w) == k and w[0] == "1"}
    return relation(SIGMA, 2, Dfa.make(conv_alphabet(SIGMA, 2), "", accepting, table))


@pytest.mark.parametrize("limit,residuals,forward", [(2, 3, 0), (6, 5, 7)])
def test_counting_overflow_names_both_sizes(monkeypatch, limit, residuals, forward):
    rel = nth_letter_from_the_end(3)
    assert len(counting_project(rel, "exactly_one").dfa.states) == 2 ** 3
    monkeypatch.setattr(automatic, "_COUNTING_LIMIT", limit)
    with pytest.raises(GraphError) as info:
        counting_project(rel, "exactly_one")
    assert ("%d residuals and %d forward states" % (residuals, forward)
            in str(info.value))
    assert "relation of %d states" % len(rel.dfa.states) in str(info.value)


# ---------------------------------------------------------------------------
# presentations, validation, normalization
# ---------------------------------------------------------------------------

DUPLICATED_HALF_LINE = """
; half line where vertex n is coded by 1^n and redundantly by 1^n 0;
; adjacency is only written on the 1* codes
alphabet: 0 1
domain:
  states: s t
  start: s
  accepting: s t
  s 1 s
  s 0 t
equality:
  states: r a
  start: r
  accepting: r a
  r 1|1 r
  r 0|0 a
  r 0|# a
  r #|0 a
adjacency:
  states: r d
  start: r
  accepting: d
  r 1|1 r
  r #|1 d
  r 1|# d
"""


def test_validate_builtins():
    validate_presentation(nat_line_presentation())
    validate_presentation(grid_presentation())
    validate_presentation(parse_presentation(DUPLICATED_HALF_LINE))


def test_validate_rejects_asymmetric_adjacency():
    p = nat_line_presentation()
    longer = Dfa.make(conv_alphabet(SIGMA_1 := ("1",), 2), "r", {"d"},
                      {("r", ("1", "1")): "r", ("r", (PAD, "1")): "d"})
    lopsided = Presentation(frozenset(SIGMA_1), p.domain,
                            relation(SIGMA_1, 2, longer), p.equality)
    with pytest.raises(GraphError, match="symmetric"):
        validate_presentation(lopsided)


def test_validate_rejects_missing_reflexivity():
    p = nat_line_presentation()
    nothing_equal = relation_not(
        boolean_op(p.equality, relation_not(p.equality), "or"))
    broken = Presentation(p.sigma, p.domain, p.adjacency, nothing_equal)
    with pytest.raises(GraphError, match="reflexive"):
        validate_presentation(broken)


def test_normalize_is_a_fixpoint_on_identity_equality():
    p = nat_line_presentation()
    q = normalize_presentation(p)
    assert q.domain.equivalent(p.domain)
    assert q.adjacency.equivalent(p.adjacency)
    assert q.equality.equivalent(p.equality)


def test_normalize_shrinks_duplicated_encodings_to_least_codes():
    dup = parse_presentation(DUPLICATED_HALF_LINE)
    assert dup.equality.accepts((unary_words(2), unary_words(2) + ("0",)))
    norm = normalize_presentation(dup)
    ones = Dfa.make(SIGMA, "s", {"s"}, {("s", "1"): "s"})
    assert norm.domain.equivalent(ones)
    # saturation keeps the line's edges even though some codes vanished
    assert norm.adjacency.accepts((unary_words(1), unary_words(2)))
    assert not norm.adjacency.accepts((unary_words(1) + ("0",), unary_words(2)))
    assert decide_eulerian_automatic(dup, "one_way")
    assert not decide_eulerian_automatic(dup, "two_way")


def test_normalize_is_idempotent_on_random_presentations():
    rng = random.Random(7)
    for _ in range(10):
        p = random_presentation(rng)
        once = normalize_presentation(p)
        twice = normalize_presentation(once)
        assert twice.domain.equivalent(once.domain)
        assert twice.adjacency.equivalent(once.adjacency)
        assert twice.equality.equivalent(once.equality)


# ---------------------------------------------------------------------------
# formulas and evaluation
# ---------------------------------------------------------------------------

def test_formula_round_trip_and_free_variables():
    text = "(forall u (exists-even v (adj u v)))"
    tree = parse_formula(text)
    assert formula_to_text(tree) == text
    assert free_variables(tree) == frozenset()
    assert free_variables(parse_formula("(and (adj u v) (in-l w))")) == {"u", "v", "w"}


@pytest.mark.parametrize("bad", [
    "",
    "(exists u",
    "(adj u v))",
    "(frobnicate u v)",
    "(adj u)",
    "(exists adj (in-l adj))",
    "(exists u (exists u (in-l u)))",
    "(and (in-l u))",
])
def test_malformed_formulas_are_rejected(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


def test_sentences_on_the_half_line():
    p = nat_line_presentation()
    assert eval_sentence(p, "(exists-unique u (exists-odd v (adj u v)))")
    assert not eval_sentence(p, "(forall u (exists-even v (adj u v)))")
    assert eval_sentence(p, "(exists-inf u (in-l u))")
    assert eval_sentence(p, "(forall u (exists v (adj u v)))")
    assert not eval_sentence(p, "(exists u (adj u u))")
    with pytest.raises(UnboundVariable):
        eval_sentence(p, "(exists-odd v (adj u v))")


def test_open_formulas_return_relations():
    p = nat_line_presentation()
    odd = eval_formula(p, "(exists-odd v (adj u v))")
    assert isinstance(odd, RelationAutomaton) and odd.arity == 1
    assert odd.accepts(((),))
    for n in range(1, 7):
        assert not odd.accepts((unary_words(n),))
    # two free variables come out in name order
    both = eval_formula(p, "(and (adj u v) (in-l u))")
    assert both.arity == 2
    assert both.accepts((unary_words(2), unary_words(3)))
    assert both.accepts((unary_words(3), unary_words(2)))
    assert not both.accepts((unary_words(2), unary_words(2)))


def test_forall_is_not_exists_not():
    rng = random.Random(99)
    body = "(exists-odd v (adj u v))"
    for _ in range(6):
        p = random_presentation(rng)
        direct = eval_sentence(p, "(forall u %s)" % body)
        via_exists = eval_sentence(p, "(not (exists u (not %s)))" % body)
        assert direct == via_exists


def test_eulerian_deciders_on_builtin_presentations():
    nat = nat_line_presentation()
    grid = grid_presentation()
    assert decide_eulerian_automatic(nat, "one_way") is True
    assert decide_eulerian_automatic(nat, "two_way") is False
    assert decide_eulerian_automatic(grid, "one_way") is False
    assert decide_eulerian_automatic(grid, "two_way") is True
    with pytest.raises(GraphError):
        decide_eulerian_automatic(nat, "three_way")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_serialization_round_trip():
    for p in (nat_line_presentation(),
              parse_presentation(DUPLICATED_HALF_LINE),
              grid_presentation()):
        back = parse_presentation(serialize_presentation(p))
        assert back.sigma == p.sigma
        assert back.domain.equivalent(p.domain)
        assert back.adjacency.equivalent(p.adjacency)
        assert back.equality.equivalent(p.equality)


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("equality:", "inequality:"), "missing"),
    (lambda t: t.replace("r 1|1 r", "r #|# r"), "all-pad"),
    (lambda t: t.replace("r 1|1 r", "r 1 r"), "tracks"),
    (lambda t: "stray line\n" + t, "before any section"),
])
def test_bad_presentation_files_are_rejected(mangle, needle):
    with pytest.raises(PresentationFormatError, match=needle):
        parse_presentation(mangle(DUPLICATED_HALF_LINE))


# ---------------------------------------------------------------------------
# agreement with the bounded-universe oracle
# ---------------------------------------------------------------------------

def test_domain_enumerations_agree():
    for p in (nat_line_presentation(), grid_presentation()):
        assert sorted(enumerate_domain(p.domain, 4)) == sorted(domain_words(p.domain, 4))


def test_battery_against_brute_on_random_presentations():
    rng = random.Random(424242)
    for trial in range(10):
        p = random_presentation(rng)
        normal = normalize_presentation(p)
        brute = BruteModel(p)
        for sentence in BATTERY:
            lib = eval_sentence(normal, sentence, normalized=True)
            ora = brute.sentence(sentence)
            assert lib == ora, "trial %d disagreement on %s: lib=%s brute=%s" % (
                trial, sentence, lib, ora)


def test_battery_against_brute_on_builtins():
    nat = nat_line_presentation()
    nat_normal = normalize_presentation(nat)
    nat_oracle = BruteModel(nat)
    for sentence in BATTERY + EULER_SENTENCES:
        assert nat_oracle.sentence(sentence) == eval_sentence(
            nat_normal, sentence, normalized=True), sentence
    # the grid needs a shorter outer horizon so counted sections stay visible
    grid = grid_presentation()
    grid_normal = normalize_presentation(grid)
    grid_oracle = BruteModel(grid, outer_len=2, max_len=6, inf_cut=4)
    for sentence in BATTERY + EULER_SENTENCES:
        assert grid_oracle.sentence(sentence) == eval_sentence(
            grid_normal, sentence, normalized=True), sentence
