import copy
import pickle
import time
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediant.matrices import (
    IDENTITY,
    Mat2,
    _trusted,
    decompose,
    from_path,
    generators,
    validate_path,
)
from mediant.rational import ExtendedRational
from mediant.topograph import forward_tree, vertex_matrix

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


_ENTRY_ERRORS = [
    ((True, 0, 0, 1), TypeError, "matrix entries must be integers"),
    ((1, 0, 0.0, 1), TypeError, "matrix entries must be integers"),
    ((1, 0, -1, 1), ValueError, "matrix entries must be non-negative"),
    ((1, 1, 1, 1), ValueError, None),  # determinant 0: message differs per constructor
    ((0, 1, 1, -1), ValueError, "matrix entries must be non-negative"),  # det -1: d < 0 bars it
]


@pytest.mark.parametrize("entries, error, message", _ENTRY_ERRORS)
def test_member_constructor_messages(entries, error, message):
    with pytest.raises(error) as info:
        Mat2(*entries)
    assert str(info.value) == (message or "not a monoid member: determinant 0")


@pytest.mark.parametrize("entries, error, message", _ENTRY_ERRORS)
def test_frame_constructor_messages(entries, error, message):
    with pytest.raises(error) as info:
        Mat2.frame(*entries)
    assert str(info.value) == (message or "determinant must be +-1, got 0")


@pytest.mark.parametrize("entries, error, message", _ENTRY_ERRORS)
def test_decompose_messages(entries, error, message):
    with pytest.raises(error) as info:
        decompose(_trusted(*entries))
    assert str(info.value) == (message or "not a monoid member: determinant 0")


def test_decompose_messages_for_non_matrices_and_frames():
    with pytest.raises(TypeError, match=r"\Adecompose expects a Mat2\Z"):
        decompose((1, 0, 0, 1))
    with pytest.raises(ValueError, match=r"\Anot a monoid member: determinant -1\Z"):
        decompose(Mat2.frame(0, 1, 1, 0))


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
    # built unchecked, as the sweeps build their nodes
    m = _trusted(1, 2, 0, 1)
    assert decompose(m) == "RR" and from_path("RR") == m


def test_decompose_takes_one_division_per_run():
    start = time.perf_counter()
    assert decompose(Mat2(1, 0, 10**6, 1)) == "L" * 10**6
    assert decompose(Mat2(1, 10**6, 0, 1)) == "R" * 10**6
    assert time.perf_counter() - start < 1.0


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
    with pytest.raises(ValueError):
        decompose(_trusted(1, -1, 0, 1))  # determinant 1, negative entry


def test_text_form():
    assert str(Mat2(2, 1, 1, 1)) == "[[2,1],[1,1]]"
    assert str(IDENTITY) == "[[1,0],[0,1]]"


def test_mat2_slots_cannot_be_written():
    m = from_path("LR")
    with pytest.raises(FrozenInstanceError):
        m.a = 7
    with pytest.raises(FrozenInstanceError):
        del m.a
    assert str(m) == "[[2,1],[1,1]]"
    assert m.det == 1
    frame = Mat2.frame(0, 1, 1, 0)
    for x in (m, frame):
        for name in ("a", "d", "other"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(x, name, 7)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(x, name)
    assert str(frame) == "[[0,1],[1,0]]" and frame.det == -1


@pytest.mark.parametrize("m", [Mat2(1, 0, 0, 1), from_path("LRR"), Mat2.frame(0, 1, 1, 0),
                               Mat2.frame(1, 2**70, 1, 2**70 - 1),
                               vertex_matrix(list(forward_tree(2))[5])])
def test_mat2_copy_and_pickle_round_trip(m):
    # the write guard refuses the default slot restore; members and
    # determinant -1 frames both rebuild through their checked constructors,
    # which repr names too
    rebuilt = eval(repr(m), {"Mat2": Mat2})
    for clone in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)), rebuilt):
        assert type(clone) is Mat2
        assert clone == m and clone.det == m.det


def test_mixed_operands_raise_type_error():
    with pytest.raises(TypeError):
        Mat2(1, 0, 0, 1) * 3
    with pytest.raises(TypeError):
        ExtendedRational(1, 2) < 3
    with pytest.raises(TypeError):
        ExtendedRational(1, 2) <= 3


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
