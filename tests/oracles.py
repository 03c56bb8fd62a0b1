"""Reference predicates that tests compare the sweeps' inlined checks against,
the clause ablations of those checks and the witnesses that decide them, a
counter of the child-rule calls that grow the trees, a brute-force best
approximation, and `er`, the tests' short name for ExtendedRational."""

import ast
import copy
from collections import Counter
from fractions import Fraction

import pytest

import mediant.trees
from mediant.rational import ExtendedRational


def er(num: int, den: int = 1) -> ExtendedRational:
    return ExtendedRational(num, den)


def _raw_equal(p: int, q: int, r: int, s: int) -> bool:
    """ExtendedRational(p, q) == ExtendedRational(r, s), on raw ints, with no
    gcd: cross-multiplication p*s == q*r.  A raw 0/0 cross-multiplies equal to
    everything, so 0/0 on either side is unequal to all, 0/0 included."""
    return p * s == q * r and (p != 0 or q != 0) and (r != 0 or s != 0)


def checks_tree(source: str) -> ast.FunctionDef:
    """The definition of _checks in a module's source text."""
    return next(node for node in ast.parse(source).body if getattr(node, "name", "") == "_checks")


def clause_ablations(source: str) -> dict[str, ast.FunctionDef]:
    """Every clause ablation of the _checks in `source`: one copy per operand of
    each and/or, that operand replaced by True under `and`, False under `or`,
    named "<assigned name or flag n>: <operand> -> <constant>"."""
    checks, family = checks_tree(source), {}
    *body, result = checks.body
    places = [(ast.unparse(s.targets[0]), s) for s in body if isinstance(s, ast.Assign)]
    for where, place in places + [(f"flag {n}", flag) for n, flag in enumerate(result.value.elts)]:
        for op in (node for node in ast.walk(place) if isinstance(node, ast.BoolOp)):
            unit = isinstance(op.op, ast.And)
            for i, operand in enumerate(op.values):
                name = f"{where}: {ast.unparse(operand)} -> {unit}"
                assert name not in family, name
                op.values[i] = ast.copy_location(ast.Constant(unit), operand)
                family[name] = copy.deepcopy(checks)
                op.values[i] = operand
    return family


def compiled(module, checks: ast.FunctionDef):
    """A _checks definition compiled with the module's own globals and left
    unbound, so it reads the cores at call time, as module._checks does."""
    scope = {}
    exec(compile(ast.Module([checks], []), module.__file__, "exec"), vars(module), scope)
    return scope["_checks"]


def first_difference(module, one, other, witnesses):
    """The first witness (cores, args) at which one(*args) != other(*args), each
    core named in cores replaced on `module` by its constant; None if none."""
    for cores, args in witnesses:
        with pytest.MonkeyPatch.context() as patch:
            for core, value in cores.items():
                patch.setattr(module, core, lambda *_, value=value: value)
            if one(*args) != other(*args):
                return cores, args
    return None


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
