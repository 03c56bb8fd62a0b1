import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mediant.rational import (
    ExtendedRational,
    _raw_equal,
    compare,
    farey_sequence,
    is_z_distinct,
    mediant,
)

nonzero = st.integers(min_value=-(10**9), max_value=10**9).filter(lambda n: n != 0)
any_int = st.integers(min_value=-(10**9), max_value=10**9)


def er(num, den=1):
    return ExtendedRational(num, den)


def test_reduction_examples():
    examples = {(2, 4): (1, 2), (-3, 0): (1, 0), (6, -4): (-3, 2), (0, -5): (0, 1)}
    for (num, den), canonical in examples.items():
        x = ExtendedRational(num, den)
        assert (x.num, x.den) == canonical


def test_both_zero_rejected():
    with pytest.raises(ValueError):
        ExtendedRational(0, 0)


def test_non_integer_rejected():
    with pytest.raises(TypeError):
        ExtendedRational(1.5, 2)
    with pytest.raises(TypeError):
        ExtendedRational(1, "2")


big_int = st.integers(min_value=-(10**30), max_value=10**30)


@given(big_int, big_int.filter(lambda n: n != 0))
def test_construction_reduces_as_fraction_does(num, den):
    # negative denominators included; zero and infinity are in test_reduction_examples
    x = ExtendedRational(num, den)
    f = Fraction(num, den)
    assert (x.num, x.den) == (f.numerator, f.denominator)


@given(any_int, any_int)
def test_canonical_form(p, q):
    if p == 0 and q == 0:
        return
    v = ExtendedRational(p, q)
    assert v.den >= 0
    assert not (v.num == 0 and v.den == 0)
    if v.den == 0:
        assert v.num == 1
    elif v.num == 0:
        assert v.den == 1
    else:
        assert math.gcd(abs(v.num), v.den) == 1
    # reducing a canonical value changes nothing
    assert ExtendedRational(v.num, v.den) == v


def test_parse():
    assert ExtendedRational.parse("3/5") == er(3, 5)
    assert ExtendedRational.parse(" -3/2 ") == er(-3, 2)
    assert ExtendedRational.parse("-1/0") == er(1, 0)
    assert ExtendedRational.parse("4/6") == er(2, 3)


@pytest.mark.parametrize("text", ["3", "3.5", "a/b", "3/-2", "", "1/2/3", "/4"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        ExtendedRational.parse(text)


def test_str_round_trip():
    for v in (er(3, 5), er(-3, 2), er(1, 0), er(0, 1)):
        assert ExtendedRational.parse(str(v)) == v


@given(any_int, nonzero, any_int, nonzero)
def test_order_matches_fraction(a, b, c, d):
    x, y = ExtendedRational(a, b), ExtendedRational(c, d)
    fx, fy = Fraction(a, b), Fraction(c, d)
    assert (x < y) == (fx < fy)
    assert (x == y) == (fx == fy)
    assert compare(x, y) == (fx > fy) - (fx < fy)


def test_infinity_is_greatest():
    inf = er(1, 0)
    assert er(7, 2) < inf
    assert er(-10**18) < inf
    assert compare(inf, inf) == 0
    assert not inf < inf


def test_compare_examples():
    assert compare(er(1, 2), er(2, 3)) == -1
    assert compare(er(5, 3), er(5, 3)) == 0
    assert compare(er(7, 2), er(1, 0)) == -1


def test_hashable():
    assert len({er(1, 2), er(2, 4), er(3, 6)}) == 1
    assert hash(er(-3, 2)) == hash(ExtendedRational(3, -2))


def test_slots_cannot_be_written():
    q = er(1, 2)
    message = "^ExtendedRational is immutable: cannot {} '{}'$"
    for name in ("num", "den", "other"):
        with pytest.raises(AttributeError, match=message.format("set", name)):
            setattr(q, name, 7)
        with pytest.raises(AttributeError, match=message.format("delete", name)):
            delattr(q, name)
    assert (q.num, q.den) == (1, 2) and str(q) == "1/2"


@pytest.mark.parametrize("q", [er(-3, 4), er(0), er(1, 0), er(2**70 + 1, 3)])
def test_copy_and_pickle_round_trip(q):
    for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert type(clone) is ExtendedRational
        assert (clone.num, clone.den) == (q.num, q.den)


small = st.integers(min_value=-6, max_value=6)


@given(small, small, small, small)
@example(0, 0, 0, 0)
@example(0, 0, 1, 0)
@example(3, 5, 0, 0)
def test_raw_equal_is_extended_rational_equality(p, q, r, s):
    # a small range hits zeros, infinities and negative denominators often;
    # 0/0 cross-multiplies equal to everything, so it must match nothing
    if (p, q) == (0, 0) or (r, s) == (0, 0):
        assert not _raw_equal(p, q, r, s)
    else:
        assert _raw_equal(p, q, r, s) == (er(p, q) == er(r, s))


def test_reciprocal():
    assert er(3, 5).reciprocal() == er(5, 3)
    assert er(1, 0).reciprocal() == er(0, 1)
    assert er(0, 1).reciprocal() == er(1, 0)
    assert er(-2, 3).reciprocal() == er(-3, 2)


def test_mediant_examples():
    assert mediant(er(0, 1), er(1, 0)) == er(1, 1)
    assert mediant(er(1, 1), er(1, 0)) == er(2, 1)
    assert mediant(er(1, 2), er(1, 1)) == er(2, 3)


def test_mediant_rejects_negative():
    with pytest.raises(ValueError):
        mediant(er(-1, 2), er(1, 1))


positive_rational = st.builds(
    ExtendedRational,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


@given(positive_rational, positive_rational)
def test_mediant_betweenness(x, y):
    if x == y:
        return
    lo, hi = (x, y) if x < y else (y, x)
    mid = mediant(lo, hi)
    assert lo < mid < hi


def test_mediant_betweenness_at_infinity():
    assert er(5, 2) < mediant(er(5, 2), er(1, 0)) < er(1, 0)


def test_z_distinct_examples():
    assert is_z_distinct(er(0, 1), er(1, 0))
    assert is_z_distinct(er(1, 2), er(2, 3))
    assert not is_z_distinct(er(1, 2), er(3, 4))


@given(positive_rational, positive_rational)
def test_mediant_preserves_z_distinctness(x, y):
    if not is_z_distinct(x, y):
        return
    mid = mediant(x, y)
    assert is_z_distinct(x, mid) and is_z_distinct(mid, y)


def test_farey_examples():
    assert farey_sequence(1) == [er(0, 1), er(1, 1)]
    assert farey_sequence(3) == [er(0, 1), er(1, 3), er(1, 2), er(2, 3), er(1, 1)]
    assert len(farey_sequence(5)) == 11


def test_farey_rejects_zero():
    with pytest.raises(ValueError):
        farey_sequence(0)


def brute_farey(max_den):
    # independent filter-and-sort construction
    vals = sorted({Fraction(p, q) for q in range(1, max_den + 1) for p in range(q + 1)})
    return [ExtendedRational(v.numerator, v.denominator) for v in vals]


@pytest.mark.parametrize("max_den", [1, 2, 3, 4, 7, 12, 25, 40])
def test_farey_matches_brute_force(max_den):
    assert farey_sequence(max_den) == brute_farey(max_den)


def test_farey_neighbors_z_distinct():
    for max_den in range(1, 51):
        row = farey_sequence(max_den)
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(is_z_distinct(a, b) for a, b in zip(row, row[1:]))


def test_bool_rejected():
    with pytest.raises(TypeError):
        ExtendedRational(True, False)
    with pytest.raises(TypeError):
        ExtendedRational(1, True)
