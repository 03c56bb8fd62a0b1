from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediant.matrices import (
    IDENTITY,
    Mat2,
    decompose,
    from_path,
    generators,
    validate_path,
)
from mediant.rational import ExtendedRational

L, R = generators()

paths = st.text(alphabet="LR", max_size=30)


def test_generators():
    assert L == Mat2(1, 0, 1, 1)
    assert R == Mat2(1, 1, 0, 1)
    assert L.det == R.det == 1


def test_member_constructor_validation():
    with pytest.raises(ValueError):
        Mat2(1, 1, 1, 1)  # det 0
    with pytest.raises(ValueError):
        Mat2(0, 1, 1, 0)  # det -1 needs the frame constructor
    with pytest.raises(ValueError):
        Mat2(1, 0, -1, 1)
    with pytest.raises(TypeError):
        Mat2(1, 0, 0.0, 1)


def test_frame_constructor():
    f = Mat2.frame(0, 1, 1, 0)
    assert f.det == -1
    assert Mat2.frame(1, 0, 0, 1).det == 1
    with pytest.raises(ValueError):
        Mat2.frame(1, 1, 1, 1)
    with pytest.raises(ValueError):
        Mat2.frame(-1, 0, 0, 1)


def test_multiply_examples():
    m = Mat2(2, 1, 1, 1)
    assert IDENTITY * m == m
    assert R * L == Mat2(2, 1, 1, 1)
    assert L * (R * L) == Mat2(2, 1, 3, 2)


def test_transpose_examples():
    assert IDENTITY.transpose() == IDENTITY
    assert L.transpose() == R
    assert Mat2(3, 1, 2, 1).transpose() == Mat2(3, 2, 1, 1)


@given(paths, paths)
def test_transpose_anti_automorphism(p, q):
    m, n = from_path(p), from_path(q)
    assert (m * n).transpose() == n.transpose() * m.transpose()


def test_apply_mobius_examples():
    assert IDENTITY(ExtendedRational(5, 7)) == ExtendedRational(5, 7)
    assert Mat2(3, 1, 2, 1)(ExtendedRational(1, 1)) == ExtendedRational(4, 3)
    assert Mat2(1, 1, 1, 2)(ExtendedRational(1, 0)) == ExtendedRational(1, 1)


@given(paths)
def test_mobius_special_points(p):
    m = from_path(p)
    assert m(ExtendedRational(1, 0)) == ExtendedRational(m.a, m.c)
    assert m(ExtendedRational(0, 1)) == ExtendedRational(m.b, m.d)
    assert m(ExtendedRational(1, 1)) == ExtendedRational(m.a + m.b, m.c + m.d)


def test_from_path_examples():
    assert from_path("") == IDENTITY
    assert from_path("LR") == Mat2(2, 1, 1, 1)
    assert from_path("RRR") == Mat2(1, 3, 0, 1)


def test_path_validation():
    with pytest.raises(ValueError):
        from_path("LRX")
    with pytest.raises(TypeError):
        from_path(["L", "R"])
    assert validate_path("LLRR") == "LLRR"


def brute_force_path(m, max_len):
    for n in range(max_len + 1):
        for word in product("LR", repeat=n):
            path = "".join(word)
            if from_path(path) == m:
                return path
    raise AssertionError(f"no path of length <= {max_len} reaches {m}")


def test_decompose_examples():
    assert decompose(IDENTITY) == ""
    assert decompose(Mat2(2, 1, 1, 1)) == "LR"
    # pinned against exhaustive search, and against the figure position:
    # (3 2; 1 1) sits fourth in level 3, offset 3 = LRR
    assert decompose(Mat2(3, 2, 1, 1)) == "LRR" == brute_force_path(Mat2(3, 2, 1, 1), 3)


def test_decompose_matches_brute_force_to_depth_4():
    for n in range(5):
        for word in product("LR", repeat=n):
            path = "".join(word)
            assert decompose(from_path(path)) == path


@given(paths)
def test_round_trip(p):
    assert decompose(from_path(p)) == p


@settings(max_examples=30)
@given(st.text(alphabet="LR", min_size=150, max_size=220))
def test_round_trip_long_paths(p):
    assert decompose(from_path(p)) == p


def test_round_trip_big_integers():
    # alternating steps grow entries like Fibonacci numbers, far past 64 bits;
    # a run of one letter only grows them linearly
    path = "LR" * 100
    m = from_path(path)
    assert max(m.a, m.b, m.c, m.d) > 2**130
    assert decompose(m) == path


def test_exactly_once_per_level():
    for depth in range(11):
        matrices = {from_path("".join(w)) for w in product("LR", repeat=depth)}
        assert len(matrices) == 2**depth


@given(paths)
def test_determinant_one_everywhere(p):
    assert from_path(p).det == 1


@given(paths.filter(lambda p: p != ""))
def test_peeling_conditions_mutually_exclusive(p):
    m = from_path(p)
    last_l = m.c >= m.a and m.d >= m.b
    last_r = m.a >= m.c and m.b >= m.d
    assert last_l != last_r


def test_decompose_rejects_non_members():
    with pytest.raises(ValueError):
        decompose(Mat2.frame(0, 1, 1, 0))
    with pytest.raises(TypeError):
        decompose("LR")


def test_text_form():
    assert str(Mat2(2, 1, 1, 1)) == "[[2,1],[1,1]]"
    assert str(IDENTITY) == "[[1,0],[0,1]]"


def test_mat2_hashable():
    assert len({from_path("LR"), R * L, Mat2(2, 1, 1, 1)}) == 1


def test_bool_entries_rejected():
    with pytest.raises(TypeError):
        Mat2(True, 0, 0, True)
    with pytest.raises(TypeError):
        Mat2.frame(False, True, True, False)


@settings(max_examples=200)
@given(st.text(alphabet="LR", max_size=200))
def test_products_pass_the_validating_constructor(p):
    # __mul__ skips the entry and determinant checks; its results must
    # still be monoid members
    m = from_path(p)
    assert Mat2(m.a, m.b, m.c, m.d) == m
