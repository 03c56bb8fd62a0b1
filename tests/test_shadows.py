import inspect
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mediant.shadows
from mediant.matrices import IDENTITY, Mat2, from_path
from mediant.rational import ExtendedRational
from mediant.shadows import (
    _cw_core,
    _farey_core,
    cw_shadow,
    cw_shadow_mobius,
    farey_shadow,
    farey_shadow_mobius,
    verify_theorem,
)
from mediant.trees import cw_value, sb_node, sb_row, walk
from oracles import _raw_equal, clause_ablations, compiled, er, first_difference

paths = st.text(alphabet="LR", max_size=40)
_MIRROR = str.maketrans("LR", "RL")


def test_cw_shadow_examples():
    assert cw_shadow(IDENTITY) == er(1, 1)
    assert cw_shadow(Mat2(3, 1, 2, 1)) == er(4, 3)
    assert cw_shadow(Mat2(1, 1, 1, 2)) == er(2, 3) == cw_value("RL")


def test_farey_shadow_examples():
    assert farey_shadow(IDENTITY) == er(1, 1)
    assert farey_shadow(Mat2(1, 1, 1, 2)) == er(3, 2) == sb_node("RL").value
    assert farey_shadow(Mat2(3, 1, 2, 1)) == er(2, 5) == sb_row(3)[1]


def test_mobius_form_examples():
    assert cw_shadow_mobius(IDENTITY) == er(1, 1)
    assert cw_shadow_mobius(Mat2(2, 1, 1, 1)) == er(3, 2)
    assert farey_shadow_mobius(IDENTITY) == er(1, 1)
    assert farey_shadow_mobius(Mat2(1, 2, 0, 1)) == er(3, 1)


@given(paths)
def test_both_transcriptions_agree(p):
    m = from_path(p)
    assert cw_shadow(m) == cw_shadow_mobius(m)
    assert farey_shadow(m) == farey_shadow_mobius(m)


def test_wrappers_are_their_cores():
    # the sweep checks the cores; the public maps must be exactly the cores'
    # output, and still agree with their Moebius forms, an independent route
    for _, state in walk("matrix", 10):
        m = Mat2(*state)
        assert cw_shadow(m) == ExtendedRational(*_cw_core(*state)) == cw_shadow_mobius(m)
        assert farey_shadow(m) == ExtendedRational(*_farey_core(*state)) == farey_shadow_mobius(m)


@given(paths)
def test_theorem_pointwise(p):
    m = from_path(p)
    assert cw_shadow(m) == cw_value(p)
    assert farey_shadow(m) == sb_node(p).value


@given(paths)
def test_mirror_reflection(p):
    # writing the Farey tree right-to-left swaps the shadow for its reciprocal
    mirrored = from_path(p.translate(_MIRROR))
    assert farey_shadow(from_path(p)) == farey_shadow(mirrored).reciprocal()


def test_verify_reports_injected_fault(monkeypatch):
    # corrupt the shadow formula's core; correct at the root only, so the
    # first counterexample in BFS order is the path "L"
    monkeypatch.setattr(mediant.shadows, "_cw_core", lambda a, b, c, d: (a + c, b + d))
    report = verify_theorem(3)
    assert not report.ok
    assert report.cw_failures > 0
    assert report.farey_failures == 0
    assert report.first_failure_path == "L"
    assert report.as_dict()["first_failure_path"] == "L"


@pytest.mark.parametrize("core,counter", [("_cw_core", "cw"), ("_farey_core", "farey")])
def test_verify_counts_a_zero_over_zero_core(monkeypatch, core, counter):
    # 0/0 cross-multiplies equal to every value: it must still count as a failure
    monkeypatch.setattr(mediant.shadows, core, lambda a, b, c, d: (0, 0))
    report = verify_theorem(3).as_dict()
    assert report[f"{counter}_failures"] == 15
    assert report["first_failure_path"] == ""


@pytest.mark.parametrize("core", ["_cw_core", "_farey_core"])
@pytest.mark.parametrize("k,failures", [(2, 0), (-1, 0), (0, 63)])
def test_verify_accepts_a_scaled_core(monkeypatch, core, k, failures):
    # a scaled pair is never raw-equal to the tree's value, so only the
    # cross-multiplication can pass it; scaled by 0 it is 0/0 and passes nothing
    original = getattr(mediant.shadows, core)
    monkeypatch.setattr(mediant.shadows, core,
                        lambda *entries: tuple(k * x for x in original(*entries)))
    report = verify_theorem(5)
    assert (report.nodes, report.cw_failures + report.farey_failures) == (63, failures)
    assert report.first_failure_path == ("" if failures else None)


def _oracle_checks(entries, cw, sb):
    lo_num, lo_den, hi_num, hi_den = sb
    return (_raw_equal(*mediant.shadows._cw_core(*entries), *cw),
            _raw_equal(*mediant.shadows._farey_core(*entries), lo_num + hi_num, lo_den + hi_den))


# Witnesses (cores replaced by constants, arguments of _checks): both cores as
# each pair in -2..2, against each expected pair in -2..2 (the Farey one as a
# sum of bounds, and reversed, so the flags differ), 0/0 on either side included.
_PAIRS = list(product(range(-2, 3), repeat=2))
WITNESSES = [({"_cw_core": value, "_farey_core": value},
              ((1, 0, 0, 1), (num, den), (den - 1, num + 1, 1, -1)))
             for value in _PAIRS for num, den in _PAIRS]


def test_checks_match_raw_equal_on_every_small_pair():
    assert first_difference(mediant.shadows, mediant.shadows._checks, _oracle_checks,
                            WITNESSES) is None


FAMILY = clause_ablations(inspect.getsource(mediant.shadows))
# The raw-first arm of each flag (cw, farey) is a fast path that no input can
# tell from its cross-multiplied arm, by the proof beside it.
RAW_FIRST = {
    "flag 0: p == num and q == den -> False": "p == num and q == den imply p*den == q*num",
    "flag 1: r == med_num and s == med_den -> False":
        "r == med_num and s == med_den imply r*med_den == s*med_num",
}


@pytest.mark.parametrize("clause", sorted(FAMILY.keys() | RAW_FIRST.keys()))
def test_every_clause_of_checks_decides_a_witness(clause):
    ablated = compiled(mediant.shadows, FAMILY[clause])
    decided = first_difference(mediant.shadows, ablated, mediant.shadows._checks, WITNESSES)
    assert (decided is None) == (clause in RAW_FIRST), decided


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=500, deadline=None)
@given(st.tuples(small, small, small, small), st.tuples(small, small),
       st.tuples(small, small, small, small))
def test_checks_match_raw_equal_on_the_cores(entries, cw, sb):
    # 0/0 values, negative entries and both determinant signs all occur here
    assert mediant.shadows._checks(entries, cw, sb) == _oracle_checks(entries, cw, sb)
