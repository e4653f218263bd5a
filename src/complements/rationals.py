"""Exact rational scalars and the shared set/boundary containers.

Every quantity in this package is an exact ``fractions.Fraction``.  There is
no floating point anywhere: all comparisons, floors and thresholds are
evaluated in arbitrary-precision integer arithmetic.  Caller input enters
through one boundary: :func:`exact` and :func:`exact_unit` for rational
scalars, :func:`exact_int` for integer parameters, :func:`parse_int`,
:func:`parse_rational`, :func:`split_items` and :func:`split_pairs` for text.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator


class DomainError(ValueError):
    """A mathematically invalid input (malformed text, value out of range)."""


class PreconditionError(DomainError):
    """An operation was invoked outside its stated preconditions."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def clip(value) -> str:
    """``repr(value)`` cut to at most 80 characters, for echoing input in errors."""
    try:
        text = repr(value)
    except ValueError:  # an integer part past int()'s digit limit
        return f"<{type(value).__name__} too large to print>"
    return text if len(text) <= 80 else text[:77] + "..."


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into an exact value in lowest terms."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise DomainError(f"malformed rational: {clip(text)}")
    num, _, den = s.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise DomainError(f"malformed rational: {clip(text)}") from None
    if q == 0:
        raise DomainError(f"zero denominator: {clip(text)}")
    return Fraction(p, q)


def format_rational(x: Fraction) -> str:
    """Canonical text form: ``"p/q"`` in lowest terms, ``"p"`` for integers."""
    return str(exact(x))


def parse_int(text: str) -> int:
    """Parse an integer by ``int``'s rules, the ones argparse's integer flags use."""
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"malformed integer: {clip(text)}") from None


def split_items(text: str) -> list[str]:
    """The stripped, nonempty items of a comma-separated list."""
    return [s for s in (p.strip() for p in text.split(",")) if s]


def split_pairs(text: str, what: str) -> list[tuple[str, str]]:
    """The ``"a:b"`` items of a comma-separated list, split at the first colon."""
    pairs = []
    for item in split_items(text):
        left, sep, right = item.partition(":")
        if not sep:
            raise DomainError(f"malformed {what} entry {clip(item)} (expected a:b)")
        pairs.append((left.strip(), right.strip()))
    return pairs


def exact(value) -> Fraction:
    """The package's one input boundary for scalars.

    Takes a Fraction, an int or ``"p/q"`` text; anything else (a float, a
    Decimal, decimal text) raises, so no inexact value reaches the arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise DomainError(f"not an exact rational: {clip(value)}")


def exact_unit(value, name: str) -> Fraction:
    """:func:`exact`, then the ``[0, 1]`` check.

    ``name`` is the text before the value in the error, such as ``"eps="``
    or ``"multiplicity "``.
    """
    x = exact(value)
    if x < 0 or x > 1:
        raise PreconditionError(f"{name}{x} outside [0, 1]")
    return x


def exact_int(value, name: str, low: int | None) -> int:
    """The one input boundary for integers: what ``operator.index`` takes (no
    float, Fraction, Decimal or text), at least ``low`` unless that is None."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"not an integer: {name}={clip(value)}") from None
    if low is not None and n < low:
        raise PreconditionError(f"{name}={clip(n)} must be >= {low}")
    return n


class MultSet:
    """A finite set of rationals in [0, 1], kept sorted and deduplicated.

    Models the multiplicity sets the whole package is parametrised by, as
    well as their derived/closed and shifted variants.
    """

    __slots__ = ("elements",)

    def __init__(self, values: Iterable) -> None:
        self.elements: tuple[Fraction, ...] = tuple(sorted({exact_unit(v, "multiplicity ") for v in values}))

    @classmethod
    def parse(cls, text: str) -> "MultSet":
        """Parse a comma-separated list such as ``"0,1/2,1"``."""
        items = split_items(text)
        if not items:
            raise DomainError(f"empty multiplicity set: {text!r}")
        return cls(items)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value) -> bool:
        return exact(value) in self.elements

    def __eq__(self, other) -> bool:
        if isinstance(other, MultSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"MultSet({{{', '.join(format_rational(x) for x in self.elements)}}})"

    def to_json(self) -> list[str]:
        return [format_rational(x) for x in self.elements]


def lcm_denominators(s: MultSet) -> int:
    """lcm of the denominators of the nonzero elements (1 if all zero)."""
    if len(s) == 0:
        raise PreconditionError("lcm_denominators: empty set")
    return math.lcm(*(x.denominator for x in s if x != 0))


class BoundaryP1:
    """A boundary on the projective line: labelled points with multiplicities.

    Labels are pairwise distinct; each multiplicity lies in [0, 1].  The
    degree is the sum of the multiplicities.
    """

    __slots__ = ("points",)

    def __init__(self, points: Iterable[tuple[str, object]]) -> None:
        pts = []
        seen: set[str] = set()
        for label, mult in points:
            label = str(label)
            if label in seen:
                raise DomainError(f"duplicate point label: {label!r}")
            seen.add(label)
            pts.append((label, exact_unit(mult, "multiplicity ")))
        self.points: tuple[tuple[str, Fraction], ...] = tuple(pts)

    @classmethod
    def from_mults(cls, mults: Iterable) -> "BoundaryP1":
        """Build a boundary from bare multiplicities with labels P1, P2, ..."""
        return cls((f"P{i}", m) for i, m in enumerate(mults, start=1))

    @classmethod
    def parse(cls, text: str) -> "BoundaryP1":
        """Parse ``"1/2,2/3"`` (auto labels) or ``"a=1/2,b=2/3"``."""
        pts = []
        auto = 1
        for item in split_items(text):
            if "=" in item:
                label, _, val = item.partition("=")
                pts.append((label.strip(), val.strip()))
            else:
                pts.append((f"P{auto}", item))
                auto += 1
        return cls(pts)

    @property
    def mults(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self.points)

    @property
    def degree(self) -> Fraction:
        return sum(self.mults, Fraction(0))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[str, Fraction]]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if isinstance(other, BoundaryP1):
            return self.points == other.points
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        inner = ", ".join(f"{lbl}={format_rational(m)}" for lbl, m in self.points)
        return f"BoundaryP1({inner})"

    def to_json(self) -> list[list[str]]:
        return [[lbl, format_rational(m)] for lbl, m in self.points]
