import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mediant.shadows
from mediant.matrices import IDENTITY, Mat2, from_path
from mediant.rational import ExtendedRational, _raw_equal
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

paths = st.text(alphabet="LR", max_size=40)
_MIRROR = str.maketrans("LR", "RL")


def er(num, den=1):
    return ExtendedRational(num, den)


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


def test_verify_depth_0():
    report = verify_theorem(0)
    assert report.nodes == 1
    assert report.ok
    assert report.first_failure_path is None


def test_verify_depth_2():
    report = verify_theorem(2)
    assert report.nodes == 7
    assert report.cw_failures == 0 and report.farey_failures == 0


def test_verify_depth_9():
    report = verify_theorem(9)
    assert report.nodes == 2**10 - 1
    assert report.ok
    assert report.elapsed_s >= 0


def test_verify_parallel_matches_serial():
    serial = verify_theorem(8, jobs=1)
    parallel = verify_theorem(8, jobs=2)
    for field in ("depth", "nodes", "cw_failures", "farey_failures", "first_failure_path"):
        assert getattr(serial, field) == getattr(parallel, field)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_theorem(-1)
    with pytest.raises(ValueError):
        verify_theorem(3, jobs=0)


def test_report_serialization():
    report = verify_theorem(3)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["depth"] == 3
    assert doc["nodes"] == 15
    assert doc["cw_failures"] == 0
    assert doc["farey_failures"] == 0
    assert "first_failure_path" not in doc
    assert doc["elapsed_s"] >= 0


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


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=500, deadline=None)
@given(st.tuples(small, small, small, small), st.tuples(small, small),
       st.tuples(small, small, small, small))
def test_checks_match_raw_equal_on_the_cores(entries, cw, sb):
    # 0/0 values, negative entries and both determinant signs all occur here
    lo_num, lo_den, hi_num, hi_den = sb
    assert mediant.shadows._checks(entries, cw, sb) == (
        _raw_equal(*_cw_core(*entries), *cw),
        _raw_equal(*_farey_core(*entries), lo_num + hi_num, lo_den + hi_den),
    )
