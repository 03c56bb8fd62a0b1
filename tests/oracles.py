"""Reference predicates that tests compare the sweeps' inlined checks against,
a counter of the child-rule calls that grow the trees, and a brute-force
best approximation."""

from collections import Counter
from fractions import Fraction

import mediant.trees
from mediant.rational import ExtendedRational


def _raw_equal(p: int, q: int, r: int, s: int) -> bool:
    """ExtendedRational(p, q) == ExtendedRational(r, s), on raw ints, with no
    gcd: cross-multiplication p*s == q*r.  A raw 0/0 cross-multiplies equal to
    everything, so 0/0 on either side is unequal to all, 0/0 included."""
    return p * s == q * r and (p != 0 or q != 0) and (r != 0 or s != 0)


def _count_rule_calls(monkeypatch):
    """Wrap each tree's child rule (read at call time) with a call counter."""
    calls = Counter()

    def counted(kind, rule):
        def children(state):
            calls[kind] += 1
            return rule(state)
        return children

    for kind, (root, rule, value) in list(mediant.trees._TREE_RULES.items()):
        monkeypatch.setitem(mediant.trees._TREE_RULES, kind, (root, counted(kind, rule), value))
    return calls


def brute_best(num: int, den: int, max_den: int) -> ExtendedRational:
    """The best approximation of the positive num/den with denominator at most
    max_den, by a scan of every denominator q: the candidates are floor and
    floor + 1 over q, and ties break by error, then denominator, then numerator."""
    target, candidates = Fraction(num, den), []
    for q in range(1, max_den + 1):
        floor = num * q // den
        candidates += [Fraction(floor, q), Fraction(floor + 1, q)]
    best = min(candidates, key=lambda c: (abs(target - c), c.denominator, c.numerator))
    return ExtendedRational(best.numerator, best.denominator)
