"""Model checking with counting quantifiers over automatic graph
presentations.

A presentation describes a graph by finite automata: a regular language of
vertex codes plus synchronized two-tape automata for code equality and for
adjacency.  Multi-tape relations are read through *convolution*: the words
of a tuple are padded on the right with ``#`` to a common length and read in
lockstep as one word over tuple letters (the all-``#`` letter never occurs).
Every first-order operation is then an automaton construction -- products
for the connectives, track erasure plus determinization for ``exists``, and
a residual construction over a small counting semiring for the counting
quantifiers ``exists-even`` / ``exists-odd`` / ``exists-inf`` /
``exists-unique``.

Counting quantifiers count *vertices*, not code words, so
``normalize_presentation`` first restricts the domain to the
length-lexicographically least code of every equality class;
``eval_formula`` applies it automatically.

Counting is a backward residual closure followed by a forward subset
construction.  The final weights give each state of the base automaton the
count class of the completions that end from it, those read on letters
blank on every kept track included (cycle analysis plus dynamic programming
on the acyclic part).  Reading kept-track letters backwards from the final
weights reaches only a few residual vectors.  A kept-track prefix is then
known by the set of residuals whose weighted total falls in the counted
class, and one more letter acts on that set through the residuals'
successor table.  This is Schützenberger's Hankel view of weighted
automata, run as a double reversal.

Automata are explored one way each: forward by `_explore`, a breadth-first
search that lists the reachable states with one row of successor indices
per state, and backward by `_coreachable`.  Products, subset
constructions, the residual closure and minimisation all run on
`_explore`, so every automaton built here has the integer states 0..n-1
in breadth-first order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .graph_core import ArityMismatch, GraphError, UnboundVariable

__all__ = [
    "PAD",
    "ArityMismatch",
    "UnboundVariable",
    "FormulaSyntaxError",
    "PresentationFormatError",
    "Dfa",
    "RelationAutomaton",
    "Presentation",
    "CountClass",
    "CountSemiring",
    "conv_alphabet",
    "convolve",
    "pad_dfa",
    "relation",
    "boolean_op",
    "relation_not",
    "project_exists",
    "cylindrify",
    "permute_tracks",
    "counting_project",
    "word_equality",
    "llex_less",
    "domain_as_relation",
    "domain_words",
    "validate_presentation",
    "normalize_presentation",
    "parse_formula",
    "formula_to_text",
    "free_variables",
    "eval_formula",
    "eval_sentence",
    "decide_eulerian_automatic",
    "nat_line_presentation",
    "grid_presentation",
    "parse_presentation",
    "serialize_presentation",
]

PAD = "#"


class FormulaSyntaxError(GraphError):
    pass


class PresentationFormatError(GraphError):
    pass


# ---------------------------------------------------------------------------
# deterministic automata
# ---------------------------------------------------------------------------

class Dfa:
    """Total deterministic automaton over an arbitrary finite alphabet.

    Symbols are strings for plain languages and tuples of strings for
    convolved relations.  Instances are immutable by convention; every
    operation returns a fresh automaton.
    """

    __slots__ = ("alphabet", "states", "start", "accepting", "transitions")

    def __init__(self, alphabet, states, start, accepting, transitions):
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.start = start
        self.accepting = frozenset(accepting)
        self.transitions = dict(transitions)
        if self.start not in self.states:
            raise GraphError("start state missing from state set")
        if not self.accepting <= self.states:
            raise GraphError("accepting states outside state set")
        for q in self.states:
            for a in self.alphabet:
                t = self.transitions.get((q, a))
                if t is None:
                    raise GraphError("transition table not total at %r/%r" % (q, a))
                if t not in self.states:
                    raise GraphError("transition target %r unknown" % (t,))

    @classmethod
    def make(cls, alphabet, start, accepting, transitions, extra_states=()):
        """Build from a partial table; missing entries fall into a fresh
        rejecting sink."""
        alphabet = frozenset(alphabet)
        states = {start, *extra_states, *accepting}
        for (q, _a), t in transitions.items():
            states.add(q)
            states.add(t)
        table = dict(transitions)
        sink = "__sink__"
        while sink in states:
            sink += "_"
        need_sink = any((q, a) not in table for q in states for a in alphabet)
        if need_sink:
            states.add(sink)
        for q in list(states):
            for a in alphabet:
                table.setdefault((q, a), sink)
        return cls(alphabet, states, start, accepting, table)

    def accepts(self, word: Sequence) -> bool:
        q = self.start
        for a in word:
            if a not in self.alphabet:
                return False
            q = self.transitions[(q, a)]
        return q in self.accepting

    def complement(self) -> "Dfa":
        return Dfa(self.alphabet, self.states, self.start,
                   self.states - self.accepting, self.transitions)

    def product(self, other: "Dfa", keep) -> "Dfa":
        if self.alphabet != other.alphabet:
            raise ArityMismatch("product over different alphabets")
        d, e = self.transitions, other.transitions
        return _explored(self.alphabet, (self.start, other.start),
                         lambda s, a: (d[(s[0], a)], e[(s[1], a)]),
                         lambda s: keep(s[0] in self.accepting, s[1] in other.accepting))

    def intersect(self, other: "Dfa") -> "Dfa":
        return self.product(other, lambda x, y: x and y)

    def union(self, other: "Dfa") -> "Dfa":
        return self.product(other, lambda x, y: x or y)

    def map_symbols(self, fn, new_alphabet) -> "Dfa":
        """Relabel the alphabet through an injective symbol map."""
        new_alphabet = frozenset(new_alphabet)
        image = {}
        table = {}
        for (q, a), t in self.transitions.items():
            b = fn(a)
            if b not in new_alphabet:
                raise GraphError("symbol map leaves the target alphabet")
            if image.setdefault(b, a) != a:
                raise GraphError("symbol map is not injective")
            table[(q, b)] = t
        return Dfa(new_alphabet, self.states, self.start, self.accepting, table)

    def minimized(self) -> "Dfa":
        """Moore's partition refinement over BFS-indexed rows.

        The reachable states are indexed 0..n-1 in breadth-first order from
        the start, symbols in sorted order, and row i lists the indices of
        state i's successors.  Each round gives state i the signature
        (block[i], block[j] for j in row i) and numbers the signatures in
        index order; the partition is stable once the block count stops
        growing.  Blocks numbered in index order come out in the
        breadth-first order of the quotient itself, so equal languages
        yield identical tables."""
        syms = sorted(self.alphabet)
        delta = self.transitions
        found, rows = _explore(self.start, syms, lambda q, a: delta[(q, a)])
        accept = [q in self.accepting for q in found]
        block = accept
        count = len(set(block))
        while True:
            fresh = {}
            block = [fresh.setdefault((block[i],) + tuple(block[j] for j in row), len(fresh))
                     for i, row in enumerate(rows)]
            if len(fresh) == count:
                break
            count = len(fresh)
        # The first state of a block is first reached from the first state of
        # an earlier block, on the least symbol into it; so numbering by first
        # appearance is the quotient's breadth-first numbering from block 0.
        table = {(block[i], a): block[j]
                 for i, row in enumerate(rows) for a, j in zip(syms, row)}
        final = {b for b, acc in zip(block, accept) if acc}
        return Dfa(self.alphabet, range(count), 0, final, table)

    def is_empty(self) -> bool:
        return self.shortest_accepted() is None

    def shortest_accepted(self) -> Optional[Tuple]:
        syms = sorted(self.alphabet)
        seen = {self.start: ()}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            if q in self.accepting:
                return seen[q]
            for a in syms:
                t = self.transitions[(q, a)]
                if t not in seen:
                    seen[t] = seen[q] + (a,)
                    queue.append(t)
        return None

    def equivalent(self, other: "Dfa") -> bool:
        if self.alphabet != other.alphabet:
            return False
        return self.product(other, lambda x, y: x != y).is_empty()


def _explore(start, syms, step, on_grow=None):
    """Breadth-first search from `start`: the reachable states in the order
    first seen, and per state the row of its successors' indices, one per
    symbol of `syms` in order.  `step(state, symbol)` gives the successor;
    `on_grow(count)` sees the state count after each new state and may
    raise to stop the search."""
    index = {start: 0}
    found = [start]
    rows = []
    for q in found:                  # grows while it is read: the BFS queue
        row = []
        for a in syms:
            t = step(q, a)
            j = index.get(t)
            if j is None:
                j = index[t] = len(found)
                found.append(t)
                if on_grow is not None:
                    on_grow(len(found))
            row.append(j)
        rows.append(row)
    return found, rows


def _explored(alphabet, start, step, accept, on_grow=None) -> Dfa:
    """The part of an automaton reachable from `start`, as a Dfa whose
    states are 0..n-1 in breadth-first order; `accept(state)` picks the
    final states, and `step` and `on_grow` are as in `_explore`."""
    syms = sorted(alphabet)
    found, rows = _explore(start, syms, step, on_grow)
    table = {(i, a): j for i, row in enumerate(rows) for a, j in zip(syms, row)}
    return Dfa(alphabet, range(len(found)), 0,
               [i for i, q in enumerate(found) if accept(q)], table)


def _coreachable(targets, arcs) -> set:
    """The states from which some state of `targets` is reached along
    `arcs`, pairs (q, t) of a move from q to t; the targets included."""
    preds: Dict[object, List[object]] = {}
    for q, t in arcs:
        preds.setdefault(t, []).append(q)
    found = set(targets)
    todo = list(found)
    while todo:
        for q in preds.get(todo.pop(), ()):
            if q not in found:
                found.add(q)
                todo.append(q)
    return found


# ---------------------------------------------------------------------------
# convolution plumbing
# ---------------------------------------------------------------------------

def conv_alphabet(sigma: Iterable[str], arity: int) -> FrozenSet[Tuple[str, ...]]:
    """Tuple letters over sigma plus the pad, without the all-pad letter."""
    if arity < 0:
        raise ArityMismatch("arity must be >= 0")
    padded = sorted(sigma) + [PAD]
    return frozenset(t for t in _cartesian(padded, repeat=arity)
                     if any(c != PAD for c in t))


def convolve(words: Sequence[Sequence[str]]) -> List[Tuple[str, ...]]:
    n = max((len(w) for w in words), default=0)
    return [tuple(w[i] if i < len(w) else PAD for w in words) for i in range(n)]


def pad_dfa(sigma: Iterable[str], arity: int) -> Dfa:
    """Accepts exactly the well-padded convolutions: per track, once the pad
    appears every later letter on that track is the pad."""
    alpha = conv_alphabet(sigma, arity)
    table = {}
    states = set()
    dead = -1
    for mask in range(1 << arity):          # bit i set = track i still live
        states.add(mask)
        for t in alpha:
            nxt = mask
            ok = True
            for i, c in enumerate(t):
                if c == PAD:
                    nxt &= ~(1 << i)
                elif not mask >> i & 1:
                    ok = False
            table[(mask, t)] = nxt if ok else dead
    states.add(dead)
    for t in alpha:
        table[(dead, t)] = dead
    full = (1 << arity) - 1
    return Dfa(alpha, states, full, states - {dead}, table)


def _padded(dfa: Dfa, sigma, arity: int) -> Dfa:
    """`dfa` cut down to the well-padded convolutions.  With at most one
    track every word over the alphabet is well-padded already."""
    return dfa.intersect(pad_dfa(sigma, arity)) if arity >= 2 else dfa


# ---------------------------------------------------------------------------
# the counting semiring
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class CountClass:
    """Cardinality class of a set: an exact small count, a big count of
    known parity, or infinite."""

    kind: str            # "exact" | "big_even" | "big_odd" | "inf"
    value: int = 0       # meaningful for "exact" only

    def __post_init__(self):
        if self.kind not in ("exact", "big_even", "big_odd", "inf"):
            raise GraphError("unknown count class %r" % (self.kind,))
        if self.kind != "exact" and self.value != 0:
            raise GraphError("only exact classes carry a value")

    @property
    def is_infinite(self) -> bool:
        return self.kind == "inf"

    @property
    def is_even(self) -> bool:
        """Finite and even; zero counts as even."""
        if self.kind == "exact":
            return self.value % 2 == 0
        return self.kind == "big_even"

    @property
    def is_odd(self) -> bool:
        if self.kind == "exact":
            return self.value % 2 == 1
        return self.kind == "big_odd"

    @property
    def is_exactly_one(self) -> bool:
        return self.kind == "exact" and self.value == 1

    def __repr__(self):
        if self.kind == "exact":
            return "CountClass(%d)" % self.value
        return "CountClass(%s)" % self.kind


INFINITE = CountClass("inf")
BIG_EVEN = CountClass("big_even")
BIG_ODD = CountClass("big_odd")


class CountSemiring:
    """Cardinal arithmetic on count classes, saturating at a threshold.

    The classes form the quotient of (N ∪ {∞}, +, ·) by the congruence that
    identifies finite numbers above the threshold with the same parity, so
    the semiring laws are inherited rather than designed.
    """

    def __init__(self, threshold: int = 2):
        if threshold < 1:
            raise GraphError("threshold must be >= 1")
        self.threshold = threshold

    def classify(self, n: int) -> CountClass:
        if n <= self.threshold:
            return CountClass("exact", n)
        return BIG_ODD if n % 2 else BIG_EVEN

    @property
    def zero(self) -> CountClass:
        return CountClass("exact", 0)

    @property
    def one(self) -> CountClass:
        return CountClass("exact", 1)

    @property
    def elements(self) -> Tuple[CountClass, ...]:
        exact = tuple(CountClass("exact", c) for c in range(self.threshold + 1))
        return exact + (BIG_EVEN, BIG_ODD, INFINITE)

    @staticmethod
    def _parity(c: CountClass) -> int:
        if c.kind == "exact":
            return c.value % 2
        return 0 if c.kind == "big_even" else 1

    def add(self, a: CountClass, b: CountClass) -> CountClass:
        if a.is_infinite or b.is_infinite:
            return INFINITE
        if a.kind == "exact" and b.kind == "exact":
            return self.classify(a.value + b.value)
        # one summand already exceeds the threshold, so the sum does too
        parity = (self._parity(a) + self._parity(b)) % 2
        return BIG_ODD if parity else BIG_EVEN

    def mul(self, a: CountClass, b: CountClass) -> CountClass:
        if (a.kind == "exact" and a.value == 0) or (b.kind == "exact" and b.value == 0):
            return self.zero
        if a.is_infinite or b.is_infinite:
            return INFINITE
        if a.kind == "exact" and b.kind == "exact":
            return self.classify(a.value * b.value)
        parity = self._parity(a) * self._parity(b)
        return BIG_ODD if parity else BIG_EVEN

    def sum(self, items: Iterable[CountClass]) -> CountClass:
        total = self.zero
        for c in items:
            total = self.add(total, c)
        return total


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationAutomaton:
    """A regular relation of fixed arity, read through convolution.

    Invariant: `dfa` reads `conv_alphabet(sigma, arity)`, accepts only
    well-padded convolutions, and is the table `minimized()` returns
    (states 0..n-1 in breadth-first order).  `relation` establishes it;
    every operation below keeps it, re-padding (`_padded`) only where an
    ill-padded word can appear and re-minimising only where the result can
    be non-minimal.  Arity 0 takes no separate path: over the empty
    alphabet the automaton has one state, accepting iff the relation holds.
    """

    arity: int
    sigma: FrozenSet[str]
    dfa: Dfa

    def accepts(self, words: Sequence[Sequence[str]]) -> bool:
        if len(words) != self.arity:
            raise ArityMismatch(
                "expected %d words, got %d" % (self.arity, len(words)))
        return self.dfa.accepts(convolve(words))

    def is_empty(self) -> bool:
        return self.dfa.is_empty()

    def equivalent(self, other: "RelationAutomaton") -> bool:
        return (self.arity == other.arity and self.sigma == other.sigma
                and self.dfa.equivalent(other.dfa))


def relation(sigma, arity: int, dfa: Dfa) -> RelationAutomaton:
    """Wrap a base automaton, enforcing alphabet and padding discipline."""
    sigma = frozenset(sigma)
    if PAD in sigma:
        raise GraphError("the pad symbol cannot be part of the alphabet")
    want = conv_alphabet(sigma, arity)
    if dfa.alphabet != want:
        raise ArityMismatch("automaton alphabet does not match arity %d" % arity)
    return RelationAutomaton(arity, sigma, _padded(dfa, sigma, arity).minimized())


def boolean_op(a: RelationAutomaton, b: RelationAutomaton, op: str) -> RelationAutomaton:
    if a.arity != b.arity or a.sigma != b.sigma:
        raise ArityMismatch("boolean op over mismatched relations")
    if op == "and":
        keep = lambda x, y: x and y
    elif op == "or":
        keep = lambda x, y: x or y
    else:
        raise GraphError("unknown boolean op %r" % (op,))
    return RelationAutomaton(a.arity, a.sigma, a.dfa.product(b.dfa, keep).minimized())


def relation_not(a: RelationAutomaton) -> RelationAutomaton:
    """Complement within the well-padded universe."""
    comp = _padded(a.dfa.complement(), a.sigma, a.arity)
    return RelationAutomaton(a.arity, a.sigma, comp.minimized())


def permute_tracks(a: RelationAutomaton, order: Sequence[int]) -> RelationAutomaton:
    order = tuple(order)
    if sorted(order) != list(range(a.arity)):
        raise ArityMismatch("not a permutation of %d tracks" % a.arity)
    # Renaming letters keeps a minimal automaton minimal and the alphabet
    # the same set; only the breadth-first numbering can change.
    A = a.dfa
    old = {tuple(t[i] for i in order): t for t in A.alphabet}
    dfa = _explored(A.alphabet, A.start, lambda q, t: A.transitions[(q, old[t])],
                    lambda q: q in A.accepting)
    return RelationAutomaton(a.arity, a.sigma, dfa)


def cylindrify(a: RelationAutomaton, position: int) -> RelationAutomaton:
    """Insert a fresh unconstrained track at `position`."""
    n = a.arity
    if not 0 <= position <= n:
        raise ArityMismatch("cannot insert a track at position %d" % position)
    alpha = conv_alphabet(a.sigma, n + 1)
    table = {}
    for q in a.dfa.states:
        for t in alpha:
            old = t[:position] + t[position + 1:]
            if any(c != PAD for c in old):
                table[(q, t)] = a.dfa.transitions[(q, old)]
            else:
                # the original tracks have all ended; freeze while the new
                # track runs on
                table[(q, t)] = q
    lifted = Dfa(alpha, a.dfa.states, a.dfa.start, a.dfa.accepting, table)
    return relation(a.sigma, n + 1, lifted)


def project_exists(a: RelationAutomaton, track: Optional[int] = None) -> RelationAutomaton:
    """Erase one track existentially: accepts a tuple iff some word on the
    erased track completes it."""
    n = a.arity
    if n == 0:
        raise ArityMismatch("nothing to project in a nullary relation")
    track = n - 1 if track is None else track
    if not 0 <= track < n:
        raise ArityMismatch("track %d out of range" % track)

    kept = lambda t: t[:track] + t[track + 1:]
    A = a.dfa
    suffix_syms = [t for t in A.alphabet if all(c == PAD for c in kept(t))]
    # states from which acceptance is reachable on erased-track-only letters
    closure = _coreachable(A.accepting, ((q, A.transitions[(q, t)])
                                         for q in A.states for t in suffix_syms))

    moves: Dict[Tuple[object, Tuple], set] = {}
    for q in A.states:
        for t in A.alphabet:
            if t in suffix_syms:
                continue
            moves.setdefault((q, kept(t)), set()).add(A.transitions[(q, t)])

    def move(state_set, sym):
        out = set()
        for q in state_set:
            out |= moves.get((q, sym), set())
        return frozenset(out)

    # Erasing a track from well-padded words leaves well-padded words: once
    # every kept track has ended, only erased-track letters follow.
    det = _explored(conv_alphabet(a.sigma, n - 1), frozenset({A.start}), move,
                    lambda s: bool(s & closure))
    return RelationAutomaton(n - 1, a.sigma, det.minimized())


# The test each counting mode puts to a count class.
_COUNTING_TESTS = {"even": "is_even", "odd": "is_odd",
                   "infinite": "is_infinite", "exactly_one": "is_exactly_one"}

# Bounds each of the two constructions in counting_project: the residual
# closure and the subset construction over it (up to 2^residuals states).
_COUNTING_LIMIT = 200_000


def counting_project(a: RelationAutomaton, mode: str) -> RelationAutomaton:
    """Erase the last track, keeping the tuples whose number of completions
    falls in the requested cardinality class.

    even/odd mean finite-and-of-that-parity (zero is even); infinite means
    infinitely many completions; exactly_one means precisely one.
    """
    if mode not in _COUNTING_TESTS:
        raise GraphError("unknown counting mode %r" % (mode,))
    if a.arity == 0:
        raise ArityMismatch("nothing to count in a nullary relation")
    sr = CountSemiring()
    matches = lambda c: getattr(c, _COUNTING_TESTS[mode])
    A = a.dfa
    m = a.arity - 1
    syms = sorted(a.sigma)
    tail_letters = [(PAD,) * m + (b,) for b in syms]
    tail_next = {q: [A.transitions[(q, t)] for t in tail_letters] for q in A.states}
    from_state = _path_count_classes(A.states, tail_next, A.accepting, sr)
    # final weights: a path whose counted word has ended counts once if it
    # accepts; one still reading that word also counts every continuation
    done = {q: sr.one if q in A.accepting else sr.zero for q in A.states}
    live = {q: sr.sum([done[q]] + [from_state[p] for p in tail_next[q]])
            for q in A.states}

    # Totals are only ever added from here on, so count classes are merged
    # into the coarsest additive congruence that refines `matches`: two
    # classes stay apart only if adding a common class can set them apart
    # under the test (three blocks for parity or exactly one, two for
    # infinity).  Sums start from a summand, never from a presumed zero.
    els = sr.elements
    block = {c: matches(c) for c in els}
    count = 0
    while len(set(block.values())) != count:
        count = len(set(block.values()))
        block = {c: (block[c],) + tuple(block[sr.add(c, d)] for d in els)
                 for c in els}
    blocks = list(dict.fromkeys(block.values()))
    code = {c: blocks.index(block[c]) for c in els}
    reps = [next(c for c in els if code[c] == k) for k in range(len(blocks))]
    plus = [[code[sr.add(x, y)] for y in reps] for x in reps]
    hit = [matches(x) for x in reps]

    # Slot k is state k still reading the counted word, slot n_st + k the
    # same state after that word ended.  A kept-track prefix w leaves a row
    # vector alpha_w of completion counts over the slots, with total
    # alpha_w . f.  Rather than explore the rows forward, close f backward
    # under the column moves M_a -- slot s of M_a c sums c over the slots
    # that s reaches on a -- since alpha_wa . c = alpha_w . M_a c.
    states_list = list(A.states)
    idx = {q: k for k, q in enumerate(states_list)}
    n_st = len(states_list)
    alpha = sorted(conv_alphabet(a.sigma, m))
    moves = {}
    for sym in alpha:
        pad_src = [(n_st + idx[A.transitions[(q, sym + (PAD,))]],)
                   for q in states_list]
        moves[sym] = [tuple(idx[A.transitions[(q, sym + (b,))]] for b in syms)
                      + src for q, src in zip(states_list, pad_src)] + pad_src

    def residual(c, sym):
        out = []
        for src in moves[sym]:
            t = c[src[0]]
            for j in src[1:]:
                t = plus[t][c[j]]
            out.append(t)
        return tuple(out)

    def check_size(residuals: int, forward: int) -> None:
        if max(residuals, forward) > _COUNTING_LIMIT:
            raise GraphError(
                "counting projection exploded: %d residuals and %d forward "
                "states (limit %d each) from a relation of %d states; "
                "simplify the relation first"
                % (residuals, forward, _COUNTING_LIMIT, n_st))

    f = tuple(code[live[q]] for q in states_list) + tuple(
        code[done[q]] for q in states_list)
    residuals, succ = _explore(f, alpha, residual, lambda k: check_size(k, 0))

    # A prefix w is known by the residuals its total matches, {i : alpha_w .
    # c_i matches}: reading a keeps i iff it kept the a-successor of i, and
    # w is accepted iff it keeps c_0 = f.
    target = {sym: [row[k] for row in succ] for k, sym in enumerate(alpha)}
    start = idx[A.start]
    det = _explored(
        alpha, frozenset(i for i, c in enumerate(residuals) if hit[c[start]]),
        lambda s, sym: frozenset(i for i, t in enumerate(target[sym]) if t in s),
        lambda s: 0 in s, lambda k: check_size(len(residuals), k))
    # relation() re-pads: an ill-padded prefix has no completions, a count
    # that `even` accepts
    return relation(a.sigma, m, det)


def _path_count_classes(states, next_map, accepting, sr: CountSemiring):
    """Count class, per state, of the accepted words readable from it in the
    deterministic edge structure `next_map` (the empty word included when
    the state itself accepts)."""
    coacc = _coreachable(accepting, ((q, p) for q in states for p in next_map[q]))
    # peel states with no useful successors; what survives can reach a cycle
    rev: Dict[object, List[object]] = {q: [] for q in coacc}
    out_deg = dict.fromkeys(coacc, 0)
    for q in coacc:
        for p in next_map[q]:
            if p in coacc:
                rev[p].append(q)
                out_deg[q] += 1
    order = deque(q for q in coacc if out_deg[q] == 0)
    peeled: List[object] = []
    removed = set(order)
    while order:
        q = order.popleft()
        peeled.append(q)
        for r in rev[q]:        # r still counts its arc to q: not yet removed
            out_deg[r] -= 1
            if out_deg[r] == 0:
                removed.add(r)
                order.append(r)

    classes = {q: sr.zero for q in states}
    for q in coacc - removed:
        classes[q] = INFINITE
    exact: Dict[object, int] = {}
    for q in peeled:
        total = 1 if q in accepting else 0
        for p in next_map[q]:
            if p in removed:
                total += exact[p]
            # successors outside coacc contribute nothing; successors in the
            # surviving part cannot occur for peeled states
        exact[q] = total
        classes[q] = sr.classify(total)
    return classes


# ---------------------------------------------------------------------------
# stock relations
# ---------------------------------------------------------------------------

def word_equality(sigma) -> RelationAutomaton:
    """The diagonal: both tracks carry the same word."""
    sigma = frozenset(sigma)
    table = {}
    for t in conv_alphabet(sigma, 2):
        table[("eq", t)] = "eq" if t[0] == t[1] and t[0] != PAD else "no"
    dfa = Dfa.make(conv_alphabet(sigma, 2), "eq", {"eq"}, table)
    return relation(sigma, 2, dfa)


def llex_less(sigma) -> RelationAutomaton:
    """Accepts (u, v) iff u is strictly length-lexicographically below v:
    shorter wins; equal lengths fall back to the symbol order of
    `sorted(sigma)`."""
    table = {}
    for t in conv_alphabet(sigma, 2):
        x, y = t
        if x != PAD and y != PAD:
            if x == y:
                moves = [("eq", "eq"), ("lt", "lt"), ("gt", "gt")]
            elif x < y:
                moves = [("eq", "lt"), ("lt", "lt"), ("gt", "gt")]
            else:
                moves = [("eq", "gt"), ("lt", "lt"), ("gt", "gt")]
            moves += [("ushort", "no"), ("vshort", "no")]
        elif x == PAD:
            moves = [("eq", "ushort"), ("lt", "ushort"), ("gt", "ushort"),
                     ("ushort", "ushort"), ("vshort", "no")]
        else:
            moves = [("eq", "vshort"), ("lt", "vshort"), ("gt", "vshort"),
                     ("vshort", "vshort"), ("ushort", "no")]
        for src, dst in moves:
            table[(src, t)] = dst
    dfa = Dfa.make(conv_alphabet(sigma, 2), "eq", {"lt", "ushort"}, table)
    return relation(sigma, 2, dfa)


def domain_as_relation(p: "Presentation") -> RelationAutomaton:
    dfa = p.domain.map_symbols(lambda a: (a,), conv_alphabet(p.sigma, 1))
    return relation(p.sigma, 1, dfa)


def _universal_unary(sigma) -> RelationAutomaton:
    alpha = conv_alphabet(sigma, 1)
    table = {(0, t): 0 for t in alpha}
    return relation(sigma, 1, Dfa(alpha, {0}, 0, {0}, table))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """An automatic description of a graph: a regular language of vertex
    codes, code equality, and adjacency, all over one alphabet."""

    sigma: FrozenSet[str]
    domain: Dfa
    adjacency: RelationAutomaton
    equality: RelationAutomaton

    def __post_init__(self):
        object.__setattr__(self, "sigma", frozenset(self.sigma))
        if self.domain.alphabet != self.sigma:
            raise ArityMismatch("domain automaton alphabet differs from sigma")
        for rel, name in ((self.adjacency, "adjacency"), (self.equality, "equality")):
            if rel.arity != 2 or rel.sigma != self.sigma:
                raise ArityMismatch("%s must be a binary relation over sigma" % name)


def domain_words(dfa: Dfa, max_len: int) -> List[Tuple[str, ...]]:
    """Accepted words of length <= max_len, shortest first then by symbol
    order; pruned through co-accessible states so sparse languages stay
    cheap to enumerate."""
    syms = sorted(dfa.alphabet)
    live = _coreachable(dfa.accepting, ((q, dfa.transitions[(q, a)])
                                        for q in dfa.states for a in syms))
    out: List[Tuple[str, ...]] = []
    layer = [((), dfa.start)] if dfa.start in live else []
    for _ in range(max_len + 1):
        nxt = []
        for word, q in layer:
            if q in dfa.accepting:
                out.append(word)
            for a in syms:
                t = dfa.transitions[(q, a)]
                if t in live:
                    nxt.append((word + (a,), t))
        layer = nxt
    return out


_TRANSITIVITY_LEN = 4


def validate_presentation(p: Presentation) -> None:
    """Checks the structural promises: nonempty domain, symmetric adjacency,
    and equality an equivalence on the domain (transitivity only spot-checked
    on words up to `_TRANSITIVITY_LEN` letters)."""
    if p.domain.is_empty():
        raise GraphError("presentation domain is empty")
    if not permute_tracks(p.adjacency, (1, 0)).equivalent(p.adjacency):
        raise GraphError("adjacency is not symmetric")
    if not permute_tracks(p.equality, (1, 0)).equivalent(p.equality):
        raise GraphError("equality is not symmetric")
    dom = domain_as_relation(p)
    diag = boolean_op(boolean_op(word_equality(p.sigma), cylindrify(dom, 1), "and"),
                      cylindrify(dom, 0), "and")
    missing = boolean_op(diag, relation_not(p.equality), "and")
    if not missing.is_empty():
        raise GraphError("equality is not reflexive on the domain")
    words = domain_words(p.domain, _TRANSITIVITY_LEN)
    related = [(u, v) for u in words for v in words if p.equality.accepts((u, v))]
    linked: Dict[Tuple, set] = {}
    for u, v in related:
        linked.setdefault(u, set()).add(v)
    for u, v in related:
        for w in linked.get(v, ()):
            if w not in linked.get(u, ()):
                raise GraphError("equality fails transitivity on %r,%r,%r" % (u, v, w))


def _saturate_adjacency(p: Presentation) -> RelationAutomaton:
    """Close adjacency under code equality, so restricting to one code per
    class cannot drop edges whose automaton only mentioned other codes."""
    beyond_diag = boolean_op(p.equality, relation_not(word_equality(p.sigma)), "and")
    if beyond_diag.is_empty():
        return p.adjacency          # equality is the identity already
    # tracks (u, v, u', v'): some equal pair (u', v') is adjacent
    adj_prime = cylindrify(cylindrify(p.adjacency, 0), 1)
    eq_u = cylindrify(cylindrify(p.equality, 1), 3)
    eq_v = cylindrify(cylindrify(p.equality, 0), 2)
    joined = boolean_op(boolean_op(eq_u, eq_v, "and"), adj_prime, "and")
    return project_exists(project_exists(joined, 3), 2)


def normalize_presentation(p: Presentation) -> Presentation:
    """Restrict the domain to the length-lexicographically least code of
    each equality class, making equality the identity; the presented graph
    is unchanged up to isomorphism, and counting words becomes counting
    vertices."""
    lt = llex_less(p.sigma)
    dom1 = domain_as_relation(p)
    # (u, v) such that v is an equal, strictly smaller code in the domain
    smaller_twin = boolean_op(
        boolean_op(p.equality, permute_tracks(lt, (1, 0)), "and"),
        cylindrify(dom1, 0), "and")
    has_smaller = project_exists(smaller_twin, 1)
    least = boolean_op(dom1, relation_not(has_smaller), "and")
    new_domain = least.dfa.map_symbols(lambda t: t[0], p.sigma).minimized()

    both = boolean_op(cylindrify(least, 1), cylindrify(least, 0), "and")
    new_equality = boolean_op(word_equality(p.sigma), both, "and")
    new_adjacency = boolean_op(_saturate_adjacency(p), both, "and")
    return Presentation(p.sigma, new_domain, new_adjacency, new_equality)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

_ATOM_ARITY = {"adj": 2, "eq": 2, "in-l": 1}
_CONNECTIVES = {"and", "or", "implies", "not"}
_QUANTIFIERS = {
    "exists": "exists",
    "forall": "forall",
    "exists-even": "even",
    "exists-odd": "odd",
    "exists-inf": "infinite",
    "exists-unique": "exactly_one",
}


def parse_formula(text: str):
    """S-expression reader for formulas, e.g.
    ``(forall u (exists-even v (adj u v)))``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise FormulaSyntaxError("empty formula")
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError("unbalanced parentheses")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(read())
            if pos >= len(tokens):
                raise FormulaSyntaxError("missing closing parenthesis")
            pos += 1
            return tuple(items)
        if tok == ")":
            raise FormulaSyntaxError("unexpected closing parenthesis")
        return tok

    tree = read()
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input after the formula")
    _check_formula(tree, frozenset())
    return tree


def _is_variable(tok) -> bool:
    return (isinstance(tok, str) and tok not in _ATOM_ARITY
            and tok not in _CONNECTIVES and tok not in _QUANTIFIERS
            and tok.replace("-", "").replace("_", "").isalnum()
            and tok[0].isalpha())


def _check_formula(f, bound):
    if not isinstance(f, tuple) or not f or not isinstance(f[0], str):
        raise FormulaSyntaxError("malformed node %r" % (f,))
    head = f[0]
    if head in _ATOM_ARITY:
        if len(f) != _ATOM_ARITY[head] + 1:
            raise FormulaSyntaxError("%s takes %d variables" % (head, _ATOM_ARITY[head]))
        for v in f[1:]:
            if not _is_variable(v):
                raise FormulaSyntaxError("%r is not a variable" % (v,))
        return
    if head == "not":
        if len(f) != 2:
            raise FormulaSyntaxError("not takes one subformula")
        _check_formula(f[1], bound)
        return
    if head in _CONNECTIVES:
        if len(f) != 3:
            raise FormulaSyntaxError("%s takes two subformulas" % head)
        _check_formula(f[1], bound)
        _check_formula(f[2], bound)
        return
    if head in _QUANTIFIERS:
        if len(f) != 3 or not _is_variable(f[1]):
            raise FormulaSyntaxError("%s needs a variable and a body" % head)
        if f[1] in bound:
            raise FormulaSyntaxError("variable %s rebound in nested scope" % f[1])
        _check_formula(f[2], bound | {f[1]})
        return
    raise FormulaSyntaxError("unknown operator %r" % (head,))


def formula_to_text(f) -> str:
    if isinstance(f, str):
        return f
    return "(" + " ".join(formula_to_text(x) for x in f) + ")"


def free_variables(f) -> FrozenSet[str]:
    head = f[0]
    if head in _ATOM_ARITY:
        return frozenset(f[1:])
    if head == "not":
        return free_variables(f[1])
    if head in _CONNECTIVES:
        return free_variables(f[1]) | free_variables(f[2])
    return (free_variables(f[2]) - {f[1]})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _expand(rel: RelationAutomaton, have: Tuple[str, ...],
            want: Tuple[str, ...]) -> RelationAutomaton:
    cur = list(have)
    for i, v in enumerate(want):
        if i >= len(cur) or cur[i] != v:
            rel = cylindrify(rel, i)
            cur.insert(i, v)
    return rel


def _align(a, b):
    merged = tuple(sorted(set(a[1]) | set(b[1])))
    return _expand(a[0], a[1], merged), _expand(b[0], b[1], merged), merged


def _domain_on_last(p: Presentation, arity: int) -> RelationAutomaton:
    rel = domain_as_relation(p)
    for _ in range(arity - 1):
        rel = cylindrify(rel, 0)
    return rel


def _diagonal_unary(rel2: RelationAutomaton) -> RelationAutomaton:
    """Restrict a binary relation to its diagonal and read it as a unary
    one -- the semantics of an atom applied to one variable twice."""
    diag = boolean_op(rel2, word_equality(rel2.sigma), "and")
    alpha = conv_alphabet(rel2.sigma, 1)
    table = {(q, (a,)): diag.dfa.transitions[(q, (a, a))]
             for q in diag.dfa.states for a in sorted(rel2.sigma)}
    dfa = Dfa(alpha, diag.dfa.states, diag.dfa.start, diag.dfa.accepting, table)
    return relation(rel2.sigma, 1, dfa)


def _eval(p: Presentation, f):
    head = f[0]
    if head in ("adj", "eq"):
        base = p.adjacency if head == "adj" else p.equality
        x, y = f[1], f[2]
        if x == y:
            if head == "eq":
                # every code equals itself; relativization happens at the
                # quantifier that binds the variable
                return _universal_unary(p.sigma), (x,)
            return _diagonal_unary(base), (x,)
        if x < y:
            return base, (x, y)
        return permute_tracks(base, (1, 0)), (y, x)
    if head == "in-l":
        return domain_as_relation(p), (f[1],)
    if head == "not":
        rel, vs = _eval(p, f[1])
        return relation_not(rel), vs
    if head in ("and", "or"):
        ra, rb, vs = _align(_eval(p, f[1]), _eval(p, f[2]))
        return boolean_op(ra, rb, head), vs
    if head == "implies":
        ra, rb, vs = _align(_eval(p, f[1]), _eval(p, f[2]))
        return boolean_op(relation_not(ra), rb, "or"), vs
    # quantifier
    mode = _QUANTIFIERS[head]
    var, body = f[1], f[2]
    rel, vs = _eval(p, body)
    if var not in vs:
        want = tuple(sorted(set(vs) | {var}))
        rel, vs = _expand(rel, vs, want), want
    rest = tuple(v for v in vs if v != var)
    order = tuple(vs.index(v) for v in rest + (var,))
    rel = permute_tracks(rel, order)
    guard = _domain_on_last(p, rel.arity)
    if mode == "exists":
        return project_exists(boolean_op(rel, guard, "and")), rest
    if mode == "forall":
        inner = boolean_op(relation_not(rel), guard, "and")
        return relation_not(project_exists(inner)), rest
    return counting_project(boolean_op(rel, guard, "and"), mode), rest


def eval_formula(p: Presentation, f, *, normalized: bool = False):
    """Evaluate a formula against a presentation.

    Closed formulas return a bool.  Open formulas return the defining
    RelationAutomaton, tracks ordered by variable name, restricted to the
    (normalized) domain.
    """
    if isinstance(f, str):
        f = parse_formula(f)
    else:
        _check_formula(f, frozenset())
    if not normalized:
        p = normalize_presentation(p)
    rel, vs = _eval(p, f)
    if not vs:
        return rel.dfa.accepts(())
    for i in range(rel.arity):
        guard = domain_as_relation(p)
        for j in range(rel.arity):
            if j != i:
                guard = cylindrify(guard, j if j < i else guard.arity)
        rel = boolean_op(rel, guard, "and")
    return rel


def eval_sentence(p: Presentation, f, *, normalized: bool = False) -> bool:
    if isinstance(f, str):
        f = parse_formula(f)
    fv = free_variables(f)
    if fv:
        raise UnboundVariable("free variables in sentence: %s" % ", ".join(sorted(fv)))
    return eval_formula(p, f, normalized=normalized)


def decide_eulerian_automatic(p: Presentation, which: str) -> bool:
    """Eulerian-condition deciders for presentations of connected one-ended
    graphs (the end-count hypothesis is the caller's promise):

    one_way -- exactly one vertex of odd degree;
    two_way -- every vertex of even degree.
    """
    which = which.replace("-", "_")
    if which == "one_way":
        sentence = "(exists-unique u (exists-odd v (adj u v)))"
    elif which == "two_way":
        sentence = "(forall u (exists-even v (adj u v)))"
    else:
        raise GraphError("which must be one_way or two_way, not %r" % (which,))
    return eval_sentence(p, sentence)


# ---------------------------------------------------------------------------
# built-in presentations
# ---------------------------------------------------------------------------

def nat_line_presentation() -> Presentation:
    """The half line: vertex n is the unary code 1^n."""
    sigma = {"1"}
    domain = Dfa(sigma, {0}, 0, {0}, {(0, "1"): 0})
    adj_table = {
        ("run", ("1", "1")): "run",
        ("run", ("1", PAD)): "off",
        ("run", (PAD, "1")): "off",
    }
    adj = Dfa.make(conv_alphabet(sigma, 2), "run", {"off"}, adj_table)
    return Presentation(frozenset(sigma), domain,
                        relation(sigma, 2, adj), word_equality(sigma))


def _signed_unary_adjacency() -> RelationAutomaton:
    """Codes a^n for n and b^n for -n (zero is the empty word); accepts the
    pairs at distance one."""
    sigma = {"a", "b"}
    table = {}
    for s in ("a", "b"):
        table[("run0", (s, s))] = "run-" + s
        table[("run-" + s, (s, s))] = "run-" + s
        for t in (("run0",), ("run-" + s,)):
            table[(t[0], (s, PAD))] = "off"
            table[(t[0], (PAD, s))] = "off"
    dfa = Dfa.make(conv_alphabet(sigma, 2), "run0", {"off"}, table)
    return relation(sigma, 2, dfa)


def _pack_pairs(rel4: RelationAutomaton, name) -> Dfa:
    """Reinterpret a four-track automaton as two tracks of paired symbols;
    a pair of pads becomes the pad of the packed tape."""
    def pack_component(x, y):
        return PAD if x == PAD and y == PAD else name(x, y)

    def pack_letter(t):
        return (pack_component(t[0], t[1]), pack_component(t[2], t[3]))

    packed_sigma = {name(x, y) for x in ("a", "b", PAD) for y in ("a", "b", PAD)
                    if not (x == PAD and y == PAD)}
    return rel4.dfa.map_symbols(pack_letter, conv_alphabet(packed_sigma, 2))


def grid_presentation() -> Presentation:
    """The two-dimensional integer grid.  A vertex (x, y) is coded by the
    convolution of the signed unary codes of x and y, with the inner pad
    written ``_``; e.g. (2, -1) is ``ab a_``.  Built out of the
    one-dimensional automata with the relation algebra itself."""
    adj1 = _signed_unary_adjacency()
    eq1 = word_equality({"a", "b"})
    adj_x = cylindrify(cylindrify(adj1, 1), 3)
    eq_y = cylindrify(cylindrify(eq1, 0), 2)
    eq_x = cylindrify(cylindrify(eq1, 1), 3)
    adj_y = cylindrify(cylindrify(adj1, 0), 2)
    step = boolean_op(boolean_op(adj_x, eq_y, "and"),
                      boolean_op(eq_x, adj_y, "and"), "or")

    def name(x, y):
        return (x if x != PAD else "_") + (y if y != PAD else "_")

    packed = _pack_pairs(step, name)
    sigma = frozenset(name(x, y) for x in ("a", "b", PAD) for y in ("a", "b", PAD)
                      if not (x == PAD and y == PAD))

    # the code language: each coordinate slot runs a single letter then pads
    fresh, done = 0, 3
    mode_of = {"a": 1, "b": 2, "_": done}
    table = {}
    states = set()
    for xm in (fresh, 1, 2, done):
        for ym in (fresh, 1, 2, done):
            states.add((xm, ym))
            for s in sigma:
                nxt = []
                for cur, c in ((xm, s[0]), (ym, s[1])):
                    want = mode_of[c]
                    if c == "_":
                        nxt.append(done)
                    elif cur in (fresh, want):
                        nxt.append(want)
                    else:
                        nxt.append(None)
                if None not in nxt:
                    table[((xm, ym), s)] = tuple(nxt)
    domain = Dfa.make(sigma, (fresh, fresh), states, table,
                      extra_states=states).minimized()

    dom1 = relation(sigma, 1,
                    domain.map_symbols(lambda a: (a,), conv_alphabet(sigma, 1)))
    both = boolean_op(cylindrify(dom1, 1), cylindrify(dom1, 0), "and")
    adjacency = boolean_op(relation(sigma, 2, packed), both, "and")
    equality = boolean_op(word_equality(sigma), both, "and")
    return Presentation(sigma, domain, adjacency, equality)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_SECTIONS = ("alphabet", "domain", "adjacency", "equality")


def _parse_symbol(tok: str, sigma, arity: int):
    parts = tuple(tok.split("|"))
    if len(parts) != arity:
        raise PresentationFormatError(
            "symbol %r has %d tracks, expected %d" % (tok, len(parts), arity))
    for c in parts:
        if c != PAD and c not in sigma:
            raise PresentationFormatError("unknown symbol %r in %r" % (c, tok))
    if all(c == PAD for c in parts):
        raise PresentationFormatError("the all-pad symbol %r is not allowed" % tok)
    return parts if arity > 1 else parts[0]


def _parse_dfa_section(lines, sigma, arity: int):
    meta = {"states": None, "start": None, "accepting": None}
    transitions = {}
    for ln in lines:
        key, _, rest = ln.partition(":")
        if _ and key.strip() in meta:
            meta[key.strip()] = rest.split()
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise PresentationFormatError("bad transition line %r" % ln)
        src, tok, dst = parts
        sym = _parse_symbol(tok, sigma, arity)
        transitions[(src, sym)] = dst
    if meta["start"] is None or len(meta["start"]) != 1:
        raise PresentationFormatError("section needs exactly one start state")
    alphabet = sigma if arity == 1 else conv_alphabet(sigma, arity)
    dfa = Dfa.make(alphabet, meta["start"][0], set(meta["accepting"] or ()),
                   transitions, extra_states=set(meta["states"] or ()))
    return dfa.minimized()


def parse_presentation(text: str) -> Presentation:
    """Read the sectioned text format::

        alphabet: 1
        domain:
          states: 0
          start: 0
          accepting: 0
          0 1 0
        adjacency:
          ...transition lines with two-track symbols like 1|# ...
        equality:
          ...

    Convolution symbols join tracks with ``|``; ``#`` is the pad.  Lines
    starting with ``;`` are comments.  Omitted transitions fall into a
    rejecting sink.
    """
    sections: Dict[str, List[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        head, _, rest = line.partition(":")
        if _ and head.strip() in _SECTIONS:
            current = head.strip()
            sections[current] = []
            if rest.strip():
                sections[current].append(("inline", rest.strip()))
            continue
        if current is None:
            raise PresentationFormatError("content before any section: %r" % line)
        sections[current].append(("line", line))
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise PresentationFormatError("missing sections: %s" % ", ".join(missing))
    alpha_items = [x for kind, x in sections["alphabet"]]
    sigma = frozenset(" ".join(alpha_items).split())
    if not sigma or PAD in sigma:
        raise PresentationFormatError("alphabet must be nonempty and pad-free")
    domain = _parse_dfa_section([x for _k, x in sections["domain"]], sigma, 1)
    adjacency = relation(sigma, 2, _parse_dfa_section(
        [x for _k, x in sections["adjacency"]], sigma, 2))
    equality = relation(sigma, 2, _parse_dfa_section(
        [x for _k, x in sections["equality"]], sigma, 2))
    return Presentation(sigma, domain, adjacency, equality)


def _serialize_dfa(dfa: Dfa, arity: int, out: List[str]) -> None:
    canon = dfa.minimized()
    out.append("  states: " + " ".join(str(q) for q in sorted(canon.states)))
    out.append("  start: %s" % canon.start)
    out.append("  accepting: " + " ".join(str(q) for q in sorted(canon.accepting)))
    for (q, sym), t in sorted(canon.transitions.items(),
                              key=lambda kv: (kv[0][0], repr(kv[0][1]))):
        tok = sym if arity == 1 else "|".join(sym)
        out.append("  %s %s %s" % (q, tok, t))


def serialize_presentation(p: Presentation) -> str:
    out = ["alphabet: " + " ".join(sorted(p.sigma))]
    out.append("domain:")
    _serialize_dfa(p.domain, 1, out)
    out.append("adjacency:")
    _serialize_dfa(p.adjacency.dfa, 2, out)
    out.append("equality:")
    _serialize_dfa(p.equality.dfa, 2, out)
    return "\n".join(out) + "\n"
