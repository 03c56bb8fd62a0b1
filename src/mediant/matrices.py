"""Non-negative unimodular 2x2 matrices, their free generator pair, and path words.

The monoid of non-negative integer matrices with determinant 1 is freely
generated by L = (1 0; 1 1) and R = (1 1; 0 1).  A path -- a word over
"L"/"R" -- therefore addresses each member exactly once, and ``decompose``
recovers the word by peeling generators.
"""

from __future__ import annotations

from .rational import ExtendedRational

__all__ = [
    "IDENTITY",
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


def validate_path(path: Path) -> Path:
    if not isinstance(path, str):
        raise TypeError("path must be a string over 'L'/'R'")
    if not _STEPS.issuperset(path):
        raise ValueError(f"path may contain only 'L' and 'R': {path!r}")
    return path


def _check_entries(a: int, b: int, c: int, d: int) -> None:
    for entry in (a, b, c, d):
        # exact type: bool is an int subclass but not a matrix entry
        if type(entry) is not int:
            raise TypeError("matrix entries must be integers")
        if entry < 0:
            raise ValueError("matrix entries must be non-negative")


class Mat2:
    """2x2 matrix (a b; c d) of non-negative integers with determinant 1.

    The plain constructor admits monoid members only.  Topograph vertex
    frames have determinant -1 and are built with :meth:`frame`; the ``det``
    property tells the two kinds apart.  Instances are immutable after
    construction.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        _check_entries(a, b, c, d)
        if a * d - b * c != 1:
            raise ValueError(f"not a monoid member: determinant {a * d - b * c}")
        self.a = a
        self.b = b
        self.c = c
        self.d = d

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
        return ExtendedRational(
            self.a * x.num + self.b * x.den,
            self.c * x.num + self.d * x.den,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self) -> str:
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


def _trusted(a: int, b: int, c: int, d: int) -> Mat2:
    """Build without checks; only for entries already known to be valid."""
    m = object.__new__(Mat2)
    m.a = a
    m.b = b
    m.c = c
    m.d = d
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

    Peels the last generator off the left: when the bottom row dominates the
    top componentwise the last step was L, when the top dominates it was R
    (determinant 1 makes the two cases exclusive).  Anything that cannot be
    peeled down to the identity is not a monoid member.
    """
    if not isinstance(m, Mat2):
        raise TypeError("decompose expects a Mat2")
    if m.det != 1:
        raise ValueError(f"not a monoid member: determinant {m.det}")
    a, b, c, d = m.a, m.b, m.c, m.d
    steps: list[str] = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if c >= a and d >= b:
            steps.append("L")
            c -= a
            d -= b
        elif a >= c and b >= d:
            steps.append("R")
            a -= c
            b -= d
        else:
            raise ValueError("not a monoid member: peeling failed")
    return "".join(reversed(steps))
