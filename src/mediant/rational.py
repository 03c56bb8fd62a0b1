"""Exact extended rationals: reduced fractions over big integers, plus infinity."""

from __future__ import annotations

import math
import re
import sys

__all__ = [
    "ExtendedRational",
    "compare",
    "farey_sequence",
    "is_z_distinct",
    "mediant",
]

_FRACTION_RE = re.compile(r"(-?\d+)/(\d+)\Z")


class ExtendedRational:
    """A fraction num/den in lowest terms, including 0/1 and infinity = 1/0.

    Every value is canonical: gcd(|num|, den) = 1, the sign lives on the
    numerator, den >= 0, zero is 0/1, and infinity is 1/0 (a -1/0 input
    collapses to 1/0).  num and den are never both zero.  Instances are
    immutable after construction and safe to share between threads.

    Ordering is by cross-multiplication, never floating point; infinity
    compares greater than every finite value and equal to itself.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        # exact type: rejects bool, and costs no more than isinstance
        if type(num) is not int or type(den) is not int:
            raise TypeError("numerator and denominator must be integers")
        if num == 0 and den == 0:
            raise ValueError("0/0 is not an extended rational")
        if den == 0:
            num = 1
        elif num == 0:
            den = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            num //= g
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def parse(cls, text: str) -> "ExtendedRational":
        """Parse the canonical "num/den" text form (slash required)."""
        m = _FRACTION_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a fraction: {text!r}")
        return cls(_parse_int(m.group(1)), _parse_int(m.group(2)))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def reciprocal(self) -> "ExtendedRational":
        return ExtendedRational(self.den, self.num)

    def _cross(self, other: "ExtendedRational") -> int:
        return self.num * other.den - other.num * self.den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: "ExtendedRational"):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._cross(other) < 0

    def __le__(self, other: "ExtendedRational"):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._cross(other) <= 0

    def __gt__(self, other: "ExtendedRational"):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._cross(other) > 0

    def __ge__(self, other: "ExtendedRational"):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self._cross(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ExtendedRational({self.num}, {self.den})"


def _parse_int(digits: str) -> int:
    """int() of an optionally signed decimal digit string.

    A string longer than Python converts (sys.get_int_max_str_digits) is
    refused with a ValueError that names its digit count, before int() sees it.
    """
    # Pythons without the limit (before 3.10.7) convert any length.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
    """All reduced fractions in [0, 1] with denominator <= max_den, ascending.

    Built by mediant insertion: starting from the bracket (0/1, 1/1), the
    mediant of each gap is inserted while its denominator stays within the
    bound.  Consecutive outputs are Z-distinct Farey neighbours.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    out = [ExtendedRational(0, 1)]
    # Explicit in-order traversal; recursion would be ~max_den deep.
    stack = [(ExtendedRational(0, 1), ExtendedRational(1, 1))]
    while stack:
        lo, hi = stack.pop()
        den = lo.den + hi.den
        if den > max_den:
            out.append(hi)
        else:
            mid = ExtendedRational(lo.num + hi.num, den)
            stack.append((mid, hi))
            stack.append((lo, mid))
    return out
