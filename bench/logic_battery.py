"""logic-battery: the counting model checker on automatic presentations.

Presentations are over {0,1} with equality the identity.  Each is
normalised once (one operation), and the normalised presentation is then
evaluated on the ten-shape quantifier battery and on the two Eulerian
sentences (one operation per sentence).  The builtin nat-line and grid go
through decide_eulerian_automatic one-way and two-way.  A pinned set of
draws, read from pinned_draws.json, explores tens of thousands of semiring
vectors per counting projection; those wide operations set ops_per_s and
op_tail_ms, the ordinary ones op_p50_ms.

Seeded draws use domain automata with at most 3 states and adjacency
tables with at most 2: about one unprobed 3-state adjacency draw in 300
runs into the projection's 200,000-vector guard, and a draw may not be
filtered by asking the library.  Wide 3-state projections come from the
pinned set instead.  Checks compare with the bounded model of
brute_logic.py, or with its verdicts stored for the pinned draws; a verdict
that the model leaves open is not checked.
"""

from __future__ import annotations

import json
import os
import random
from functools import cache
from itertools import product

from graphends import automatic as auto

import brute_logic
from _brute_auto import convolution, run_dfa
from harness import Op

SEEDED_DRAWS = 72
# (domain states, adjacency states) in turn, so that a seed varies the
# tables but not how many draws of each size a round holds
STATE_COUNTS = tuple((n, m) for n in (1, 2, 3) for m in (1, 2))
SIGMA = ("0", "1")
PINNED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_draws.json")

# One closed formula per shape, every quantifier and connective appearing;
# counting quantifiers sit innermost, where the enumerate-everything model's
# infinity cut is trustworthy.
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
SENTENCES = BATTERY + EULER_SENTENCES

# builtin presentation, condition, verdict
BUILTIN_VERDICTS = (
    ("nat-line", "one-way", True),
    ("nat-line", "two-way", False),
    ("grid", "one-way", False),
    ("grid", "two-way", True),
)


# ---------------------------------------------------------------------------
# drawing presentations
# ---------------------------------------------------------------------------

CONV2 = sorted(t for t in product(SIGMA + ("#",), repeat=2) if t != ("#", "#"))


def accepted_words(accepting, delta, max_len):
    """Words up to max_len accepted by a table-driven automaton over SIGMA
    (delta[q][i] is the target on SIGMA[i]), by plain enumeration."""
    out = []
    layer = [((), 0)]
    for _ in range(max_len + 1):
        nxt = []
        for word, q in layer:
            if q in accepting:
                out.append(word)
            nxt.extend((word + (a,), delta[q][i]) for i, a in enumerate(SIGMA))
        layer = nxt
    return out


def draw_tables(rng: random.Random, n: int, m: int):
    """Raw tables: a domain automaton with n states accepting at least 3
    words of length <= 5, and a one-sided adjacency table with m states
    over convolved letters."""
    while True:
        delta = [[rng.randrange(n) for _a in SIGMA] for _q in range(n)]
        accepting = [q for q in range(n) if rng.random() < 0.6]
        if len(accepted_words(accepting, delta, 5)) >= 3:
            break
    delta2 = [[rng.randrange(m) for _t in CONV2] for _q in range(m)]
    acc2 = [q for q in range(m) if rng.random() < 0.5]
    return {"domain": {"states": n, "accepting": accepting, "delta": delta},
            "adjacency": {"states": m, "accepting": acc2,
                          "letters": ["".join(t) for t in CONV2], "delta": delta2}}


def build_presentation(tables):
    """Domain as drawn; adjacency the symmetric closure of the drawn table,
    restricted to domain pairs; equality the identity on the domain."""
    d = tables["domain"]
    dom = auto.Dfa(SIGMA, range(d["states"]), 0, d["accepting"],
                   {(q, a): d["delta"][q][i] for q in range(d["states"])
                    for i, a in enumerate(SIGMA)})
    a = tables["adjacency"]
    letters = [tuple(t) for t in a["letters"]]
    half = auto.relation(SIGMA, 2, auto.Dfa(
        letters, range(a["states"]), 0, a["accepting"],
        {(q, t): a["delta"][q][i] for q in range(a["states"])
         for i, t in enumerate(letters)}))
    sym = auto.boolean_op(half, auto.permute_tracks(half, (1, 0)), "or")
    dom1 = auto.relation(SIGMA, 1, dom.map_symbols(lambda x: (x,),
                                                   auto.conv_alphabet(SIGMA, 1)))
    both = auto.boolean_op(auto.cylindrify(dom1, 1), auto.cylindrify(dom1, 0), "and")
    return auto.Presentation(frozenset(SIGMA), dom, auto.boolean_op(sym, both, "and"),
                             auto.boolean_op(auto.word_equality(SIGMA), both, "and"))


def load_pinned():
    with open(PINNED_FILE, encoding="utf-8") as fh:
        return json.load(fh)["draws"]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

SHORT_WORDS = [w for n in range(6) for w in product(SIGMA, repeat=n)]
SHORT_PAIRS = [(u, v) for u in SHORT_WORDS if len(u) <= 3
               for v in SHORT_WORDS if len(v) <= 3]


def _short_language(p):
    """Which words of length <= 5 the domain accepts, and which pairs of
    length <= 3 the adjacency does, by walking the raw tables."""
    return (tuple(run_dfa(p.domain, w) for w in SHORT_WORDS),
            tuple(run_dfa(p.adjacency.dfa, convolution((u, v))) for u, v in SHORT_PAIRS))


def draw_ops(name, p, verdicts):
    """Normalise, then every sentence on the normalised presentation.
    `verdicts()` gives the brute model's verdict on each sentence, None
    where it is left open."""
    slot = []

    def normalise():
        slot[:] = [auto.normalize_presentation(p)]
        return slot[0]

    want = cache(lambda: _short_language(p))

    def check_normal(seen):
        # equality is already the identity, so normalising changes nothing
        return None if seen == want() else "normal form accepts other short words"

    ops = [Op("%s normalize" % name, normalise, check_normal, _short_language)]
    for k, sentence in enumerate(SENTENCES):
        def run(sentence=sentence):
            return auto.eval_sentence(slot[0], sentence, normalized=True)

        def check(got, k=k):
            want = verdicts()[k]
            if want is None:            # left open by the bounded model
                return None
            return None if got is want else "evaluated %r, brute model %r" % (got, want)

        ops.append(Op("%s %s" % (name, sentence), run, check))
    return ops


def _brute_verdicts(p):
    def verdicts():
        model = brute_logic.Model(p)
        found = {s: model.verdict(s) for s in set(SENTENCES)}
        return [found[s] for s in SENTENCES]

    return cache(verdicts)


def builtin_op(name, which, want):
    p = auto.nat_line_presentation() if name == "nat-line" else auto.grid_presentation()

    def check(got):
        return None if got is want else "%s %s: %r, expected %r" % (name, which, got, want)

    return Op("%s euler %s" % (name, which),
              lambda: auto.decide_eulerian_automatic(p, which), check)


def build(seed: int):
    rng = random.Random(seed)
    ops = []
    for i in range(SEEDED_DRAWS):
        p = build_presentation(draw_tables(rng, *STATE_COUNTS[i % len(STATE_COUNTS)]))
        ops += draw_ops("seed %d draw %d" % (seed, i), p, _brute_verdicts(p))
    ops += [builtin_op(*row) for row in BUILTIN_VERDICTS]
    for d in load_pinned():
        p = build_presentation(d["tables"])
        stored = [d["verdicts"][s] for s in SENTENCES]
        ops += draw_ops("pinned seed %d draw %d" % (d["seed"], d["index"]), p,
                        lambda stored=stored: stored)
    return ops
