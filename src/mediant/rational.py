"""Exact extended rationals: reduced fractions over big integers, plus infinity."""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "ExtendedRational",
    "compare",
    "farey_sequence",
    "is_z_distinct",
    "mediant",
]

_FRACTION_RE = re.compile(r"(-?\d+)/(\d+)\Z")


def _slot_setters(cls: type) -> tuple:
    """The setters of cls's slot descriptors, in __slots__ order: constructors
    write through them, past the frozen dataclass __setattr__."""
    return tuple(getattr(cls, slot).__set__ for slot in cls.__slots__)


@functools.total_ordering
@dataclass(frozen=True, init=False, repr=False)
class ExtendedRational:
    """A fraction num/den in lowest terms, including 0/1 and infinity = 1/0.

    Every value is canonical: gcd(|num|, den) = 1, the sign lives on the
    numerator, den >= 0, zero is 0/1, and infinity is 1/0 (a -1/0 input
    collapses to 1/0).  num and den are never both zero.  Instances are
    frozen dataclasses (a write raises dataclasses.FrozenInstanceError) and
    safe to share between threads.

    Ordering is by cross-multiplication, never floating point; infinity
    compares greater than every finite value and equal to itself.
    """

    # Slots declared by hand: slots=True rebuilds the class, and the generated
    # __setattr__ then calls super() on the old class, which raises TypeError.
    __slots__ = ("num", "den")
    num: int
    den: int

    def __init__(self, num: int, den: int = 1):
        # exact type: rejects bool, and costs no more than isinstance
        if type(num) is not int or type(den) is not int:
            raise TypeError("numerator and denominator must be integers")
        if not (den > 0 and num != 0):  # zero, infinity or a negative denominator
            if den == 0:
                if num == 0:
                    raise ValueError("0/0 is not an extended rational")
                num = 1
            elif num == 0:
                den = 1
            else:
                num, den = -num, -den
        g = math.gcd(num, den)  # 1 for 0/1 and 1/0
        if g != 1:
            num //= g
            den //= g
        _set_num(self, num)
        _set_den(self, den)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: their default slot
        # restore writes through the refusing __setattr__
        return ExtendedRational, (self.num, self.den)

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        """Parse the canonical "num/den" text form (slash required)."""
        m = _FRACTION_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a fraction: {text!r}")
        return cls(_parse_int(m.group(1)), _parse_int(m.group(2)))

    def reciprocal(self) -> "ExtendedRational":
        return ExtendedRational(self.den, self.num)

    def _cross(self, other: "ExtendedRational") -> int:
        return self.num * other.den - other.num * self.den

    def __lt__(self, other: "ExtendedRational"):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._cross(other) < 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ExtendedRational({self.num}, {self.den})"


_set_num, _set_den = _slot_setters(ExtendedRational)


def _int_digit_limit() -> int:
    """sys.get_int_max_str_digits(), or 0 (no limit) on Pythons before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _parse_int(digits: str) -> int:
    """int() of an optionally signed decimal digit string.

    A string longer than Python converts (sys.get_int_max_str_digits) is
    refused with a ValueError that names its digit count, before int() sees it.
    """
    limit = _int_digit_limit()
    count = len(digits) - digits.startswith("-")
    if limit and count > limit:
        raise ValueError(
            f"number of {count} digits is longer than the {limit} digits Python converts"
            " (sys.get_int_max_str_digits)"
        )
    return int(digits)


def compare(x: ExtendedRational, y: ExtendedRational) -> int:
    """Three-way comparison: -1, 0 or 1 as x <, =, > y (infinity greatest)."""
    cross = x._cross(y)
    return (cross > 0) - (cross < 0)


def mediant(x: ExtendedRational, y: ExtendedRational) -> ExtendedRational:
    """The mediant (x.num + y.num)/(x.den + y.den) of two non-negative values.

    When x and y are Z-distinct the raw sum is already in lowest terms.
    """
    if x.num < 0 or y.num < 0:
        raise ValueError("mediant is defined here only for non-negative values")
    return ExtendedRational(x.num + y.num, x.den + y.den)


def is_z_distinct(x: ExtendedRational, y: ExtendedRational) -> bool:
    """True iff x.num*y.den - x.den*y.num = +-1 (a unimodular pair)."""
    return abs(x.num * y.den - x.den * y.num) == 1


def farey_sequence(max_den: int) -> list[ExtendedRational]:
    """All reduced fractions in [0, 1] with denominator <= max_den, ascending:
    Z-distinct Farey neighbours, made one at a time in O(1) state by _farey."""
    return [ExtendedRational(a, b) for a, b in _farey(max_den)]


def _farey(max_den: int) -> Iterator[tuple[int, int]]:
    """farey_sequence(max_den) as raw (num, den) pairs, lazily.  After
    neighbours a/b < c/d comes (k*c - a)/(k*d - b) with k = (max_den + b) // d
    (Graham, Knuth & Patashnik, *Concrete Mathematics* 4.5).  Neighbours are
    unimodular, so every pair is already in lowest terms.  max_den < 1 raises
    on the first next()."""
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    a, b, c, d = 0, 1, 1, max_den
    while a <= b:  # up to and including 1/1
        yield a, b
        k = (max_den + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
