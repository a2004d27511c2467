"""Enumerate-everything verdicts for closed formulas over a presentation.

`Model` is the bounded model of `tests/_brute_auto.py`, which walks raw
transition tables, builds convolutions itself and never calls the library's
evaluator, with two changes.

* Horizons.  That model ranges every plain `exists` / `forall` over the
  short outer universe, even when the body has no quantifier.  On
  presentations where a code of length k has its only neighbours at length
  k + 1 it then finds no neighbour for the longest outer codes and judges
  `(forall u (exists v (adj u v)))` false.  Here an innermost plain
  quantifier ranges over the long universe, as an innermost counting one
  already does.
* Verdicts.  A quantifier at the top whose body is itself quantified sees
  only the outer codes (length <= OUTER_LEN).  Where the domain has longer
  codes, `verdict` decides only what those codes settle: a witness proves
  `exists`, a counterexample refutes `forall`, and two matches refute
  `exists-unique`.  Anything else is left open (None).  A domain automaton
  with n <= 5 states whose language is infinite accepts a word of length n
  to 2n - 1 and pumps it by at most n letters at a time, so it has a word of
  length 5 to 9.  A domain with none is therefore finite, all its words are
  outer, and the count over them is exact.

Counting is per word, so the model applies to presentations whose equality
is the identity.
"""

from __future__ import annotations

from graphends.automatic import parse_formula

from _brute_auto import BruteModel, _has_quantifier

OUTER_LEN = 4
MAX_LEN = 9
INF_CUT = 4
MAX_DOMAIN_STATES = 5


class Model(BruteModel):
    def __init__(self, presentation):
        if len(presentation.domain.states) > MAX_DOMAIN_STATES:
            raise ValueError("the finiteness test needs at most %d domain states"
                             % MAX_DOMAIN_STATES)
        super().__init__(presentation, outer_len=OUTER_LEN, max_len=MAX_LEN,
                         inf_cut=INF_CUT)

    def _eval(self, f, env):
        if f[0] in ("exists", "forall") and not _has_quantifier(f[2]):
            test = any if f[0] == "exists" else all
            return test(self._with(env, f[1], w, f[2]) for w in self.words)
        return super()._eval(f, env)

    def verdict(self, text):
        """True / False, or None where the bounded model cannot decide."""
        f = parse_formula(text)
        head, var, body = f
        whole = len(self.outer_words) == len(self.words)
        if not _has_quantifier(body) or whole and head in ("exists", "forall"):
            return self._eval(f, {})
        if head == "exists":        # a witness proves it
            return True if any(self._with({}, var, w, body) for w in self.outer_words) else None
        if head == "forall":        # a counterexample refutes it
            return None if all(self._with({}, var, w, body) for w in self.outer_words) else False
        hits = 0
        for w in self.outer_words:
            hits += self._with({}, var, w, body)
            if head == "exists-unique" and hits == 2:
                return False
        if not whole:
            return None
        return {"exists-inf": False, "exists-even": hits % 2 == 0,
                "exists-odd": hits % 2 == 1, "exists-unique": hits == 1}[head]
