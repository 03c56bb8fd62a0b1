"""Non-negative unimodular 2x2 matrices, their free generator pair, and path words.

The monoid of non-negative integer matrices with determinant 1 is freely
generated by L = (1 0; 1 1) and R = (1 1; 0 1).  A path -- a word over
"L"/"R" -- therefore addresses each member exactly once.  ``_runs`` is the
one continued-fraction descent: it spells the Stern-Brocot path of a value in
runs of equal steps, and ``decompose`` and the tree locators read words off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .rational import ExtendedRational, _slot_setters

__all__ = [
    "IDENTITY",
    "MAX_LOCATE_STEPS",
    "Mat2",
    "Path",
    "decompose",
    "from_path",
    "generators",
    "validate_path",
]

# A path is a word over "L"/"R"; the empty string is the tree root.
Path = str

_STEPS = frozenset("LR")

# Longest path _spell writes out, one character per step.
MAX_LOCATE_STEPS = 10**7


def validate_path(path: Path) -> Path:
    if not isinstance(path, str):
        raise TypeError("path must be a string over 'L'/'R'")
    if not _STEPS.issuperset(path):
        raise ValueError(f"path may contain only 'L' and 'R': {path!r}")
    return path


def _runs(num: int, den: int) -> Iterator[tuple[str, int]]:
    """The Stern-Brocot path of num/den > 0 as (step, count) runs.

    The path is the run-length form of the continued fraction [q0; q1, ..., qn]:
    R^q0 L^q1 R^q2 ..., with the last quotient shortened by one to land on the
    node.  One divmod per quotient; the first count is 0 when num < den.
    """
    step = "R"
    while den:
        q, r = divmod(num, den)
        yield step, q - (r == 0)
        step = "L" if step == "R" else "R"
        num, den = den, r


def _spell(runs: list[tuple[str, int]]) -> Path:
    """Join (step, count) runs into a path, refusing one over MAX_LOCATE_STEPS."""
    steps = sum(count for _, count in runs)
    if steps > MAX_LOCATE_STEPS:
        raise ValueError(
            f"path of {steps} steps is longer than the cap of {MAX_LOCATE_STEPS} steps"
        )
    return "".join(step * count for step, count in runs)


def _check_entries(a: int, b: int, c: int, d: int) -> None:
    # exact type: bool is an int subclass but not a matrix entry
    if type(a) is not int or type(b) is not int or type(c) is not int or type(d) is not int:
        raise TypeError("matrix entries must be integers")
    if a < 0 or b < 0 or c < 0 or d < 0:
        raise ValueError("matrix entries must be non-negative")


@dataclass(frozen=True, init=False, repr=False)
class Mat2:
    """2x2 matrix (a b; c d) of non-negative integers with determinant 1.

    The plain constructor admits monoid members only.  Topograph vertex
    frames have determinant -1 and are built with :meth:`frame`; the ``det``
    property tells the two kinds apart.  Instances are frozen dataclasses: a
    write raises dataclasses.FrozenInstanceError.
    """

    __slots__ = ("a", "b", "c", "d")  # by hand, not slots=True: see ExtendedRational
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        _check_entries(a, b, c, d)
        if a * d - b * c != 1:
            raise ValueError(f"not a monoid member: determinant {a * d - b * c}")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)

    def __reduce__(self):
        # a determinant -1 frame rebuilds through Mat2.frame, not the member constructor
        build = Mat2 if self.det == 1 else Mat2.frame
        return build, (self.a, self.b, self.c, self.d)

    @classmethod
    def frame(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        """Relaxed constructor admitting determinant -1 (vertex frames)."""
        _check_entries(a, b, c, d)
        if a * d - b * c not in (1, -1):
            raise ValueError(f"determinant must be +-1, got {a * d - b * c}")
        return _trusted(a, b, c, d)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def transpose(self) -> "Mat2":
        return Mat2.frame(self.a, self.c, self.b, self.d)

    def __mul__(self, other: "Mat2"):
        if not isinstance(other, Mat2):
            return NotImplemented
        # Non-negative factors with determinant +-1 give a non-negative
        # product with determinant +-1, so the entries need no re-check.
        return _trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, x: ExtendedRational) -> ExtendedRational:
        """Moebius action p/q -> (a*p + b*q)/(c*p + d*q): 1/0 -> a/c, 0/1 -> b/d."""
        return ExtendedRational(*_mobius_core(self.a, self.b, self.c, self.d, x.num, x.den))

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


_set_a, _set_b, _set_c, _set_d = _slot_setters(Mat2)


def _mobius_core(a: int, b: int, c: int, d: int, p: int, q: int) -> tuple[int, int]:
    """The raw Moebius action of (a b; c d) on p/q: (a*p + b*q, c*p + d*q)."""
    return a * p + b * q, c * p + d * q


def _trusted(a: int, b: int, c: int, d: int) -> Mat2:
    """Build without checks; only for entries already known to be valid."""
    m = object.__new__(Mat2)
    _set_a(m, a)
    _set_b(m, b)
    _set_c(m, c)
    _set_d(m, d)
    return m


IDENTITY = Mat2(1, 0, 0, 1)
_GEN_L = Mat2(1, 0, 1, 1)
_GEN_R = Mat2(1, 1, 0, 1)


def generators() -> tuple[Mat2, Mat2]:
    """The free generator pair (L, R) = ((1 0; 1 1), (1 1; 0 1))."""
    return _GEN_L, _GEN_R


def from_path(path: Path) -> Mat2:
    """The matrix at `path`: each step left-multiplies its generator.

    After steps p1..pk the result is G(pk) * ... * G(p1); the root is the
    identity.
    """
    validate_path(path)
    m = IDENTITY
    for step in path:
        m = (_GEN_L if step == "L" else _GEN_R) * m
    return m


def decompose(m: Mat2) -> Path:
    """Recover the unique path with ``from_path(decompose(m)) == m``.

    The word of a monoid member (a b; c d) is the Stern-Brocot path of its
    Farey shadow (b+d)/(a+c), read off in one division per continued-fraction
    quotient.  A path longer than MAX_LOCATE_STEPS is refused with ValueError.
    """
    if not isinstance(m, Mat2):
        raise TypeError("decompose expects a Mat2")
    _check_entries(m.a, m.b, m.c, m.d)
    if m.det != 1:
        raise ValueError(f"not a monoid member: determinant {m.det}")
    return _spell(list(_runs(m.b + m.d, m.a + m.c)))
