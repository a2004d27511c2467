"""Bounded-universe oracle for the automatic-presentation layer.

Evaluates formulas by brute enumeration of domain words, sharing nothing
with the library's automaton algebra beyond the raw transition tables: it
walks automata step by step, builds convolutions itself, and decides
quantifiers by iterating word lists.

Soundness is bounded. Plain and counting quantifiers range over domain
words up to a length cap, and a counted section is declared infinite as
soon as it contains a match longer than every word already fixed in the
environment by at least `inf_cut` letters -- a section tied to its
environment (an equality class, a neighborhood) never outgrows it by much,
while a genuinely infinite section keeps matching at every excess length.
Pumping justifies the cut only while the minimal automata involved stay
small, which the callers arrange by keeping the input automata tiny.
Outer quantifiers (those with further quantifiers in their body) use the
shorter `outer_len` horizon so the sections counted beneath them remain
fully visible; `max_len` must exceed `outer_len + inf_cut` or infinite
sections under a deep environment become undetectable.

Counting here is per *word*. Compare against the library only on
presentations whose equality is the identity (normalized ones qualify).
"""

from itertools import zip_longest

from graphends.automatic import parse_formula

PAD = "#"


def run_dfa(dfa, word):
    state = dfa.start
    for sym in word:
        state = dfa.transitions[(state, sym)]
    return state in dfa.accepting


def convolution(words):
    width = max((len(w) for w in words), default=0)
    return tuple(tuple(w[i] if i < len(w) else PAD for w in words)
                 for i in range(width))


def enumerate_domain(dfa, max_len):
    """Accepted words up to max_len, pruned through states that can still
    reach acceptance."""
    backward = {}
    for (src, _sym), dst in dfa.transitions.items():
        backward.setdefault(dst, []).append(src)
    alive = set(dfa.accepting)
    stack = list(alive)
    while stack:
        state = stack.pop()
        for prev in backward.get(state, ()):
            if prev not in alive:
                alive.add(prev)
                stack.append(prev)
    words = []
    frontier = [((), dfa.start)] if dfa.start in alive else []
    symbols = sorted(dfa.alphabet)
    for _ in range(max_len + 1):
        grown = []
        for word, state in frontier:
            if state in dfa.accepting:
                words.append(word)
            for sym in symbols:
                nxt = dfa.transitions[(state, sym)]
                if nxt in alive:
                    grown.append((word + (sym,), nxt))
        frontier = grown
    return words


def _has_quantifier(f):
    head = f[0]
    if head in ("adj", "eq", "in-l"):
        return False
    if head == "not":
        return _has_quantifier(f[1])
    if head in ("and", "or", "implies"):
        return _has_quantifier(f[1]) or _has_quantifier(f[2])
    return True


class BruteModel:
    def __init__(self, presentation, outer_len=4, max_len=9, inf_cut=4):
        self.p = presentation
        self.words = enumerate_domain(presentation.domain, max_len)
        self.outer_words = [w for w in self.words if len(w) <= outer_len]
        self.word_set = set(self.words)
        self.inf_cut = inf_cut
        self._memo = {}

    def _rel(self, which, u, v):
        key = (which, u, v)
        hit = self._memo.get(key)
        if hit is None:
            rel = self.p.adjacency if which == "adj" else self.p.equality
            # the convolution of (u, v), one symbol at a time
            hit = run_dfa(rel.dfa, zip_longest(u, v, fillvalue=PAD))
            self._memo[key] = hit
        return hit

    def sentence(self, formula):
        if isinstance(formula, str):
            formula = parse_formula(formula)
        return self._eval(formula, {})

    def _eval(self, f, env):
        head = f[0]
        if head == "adj" or head == "eq":
            return self._rel(head, env[f[1]], env[f[2]])
        if head == "in-l":
            return env[f[1]] in self.word_set
        if head == "not":
            return not self._eval(f[1], env)
        if head == "and":
            return self._eval(f[1], env) and self._eval(f[2], env)
        if head == "or":
            return self._eval(f[1], env) or self._eval(f[2], env)
        if head == "implies":
            return not self._eval(f[1], env) or self._eval(f[2], env)

        var, body = f[1], f[2]
        # counting needs the section fully visible, so it may use the long
        # horizon only when nothing is quantified beneath it
        if head in ("exists", "forall") or _has_quantifier(body):
            universe = self.outer_words
        else:
            universe = self.words
        if head == "exists":
            return any(self._with(env, var, w, body) for w in universe)
        if head == "forall":
            return all(self._with(env, var, w, body) for w in universe)
        horizon = max((len(w) for w in env.values()), default=0) + self.inf_cut
        count = 0
        longest = -1
        for w in universe:
            if self._with(env, var, w, body):
                count += 1
                if len(w) > longest:
                    longest = len(w)
        if head == "exists-inf":
            return longest >= horizon
        if longest >= horizon:
            return False        # not a finite section, so no finite class fits
        if head == "exists-even":
            return count % 2 == 0
        if head == "exists-odd":
            return count % 2 == 1
        return count == 1       # exists-unique

    def _with(self, env, var, word, body):
        env[var] = word
        try:
            return self._eval(body, env)
        finally:
            del env[var]
